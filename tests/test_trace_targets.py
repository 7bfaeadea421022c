"""The benchmark's tracer names hsmc functions and methods by string.

``bench/tracing.py`` wraps every entry of ``TARGETS`` when ``bench/run.py
--trace 1`` runs; a name that no longer resolves breaks that run and
``bench/selftest.py``.  This test resolves each entry the way
``Tracer.install`` does, so deleting a traced name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("hsmc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for target in _load_tracing().TARGETS:
        module_name, qualname = target.split(":")
        owner_name, _, attr = qualname.rpartition(".")
        module = importlib.import_module(module_name)
        if owner_name:
            found = attr in getattr(module, owner_name).__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(target)
    assert not missing, f"bench/tracing.py TARGETS that no longer resolve: {missing}"
