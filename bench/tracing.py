"""Per-layer spans around hsmc's public calls, installed from outside the package.

``Tracer.install`` replaces each target in place: a module-level function is
rebound in every ``hsmc`` module namespace that holds it (so ``hsmc.cli`` and
``hsmc.config`` call the wrapper), the CLI's ``COMMANDS`` table included, and a
method is replaced on its class.  Each call appends one span
``[name, start_ns, end_ns, parent, run_id, extra]`` to an in-memory list;
``uninstall`` puts every original back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

from collections import defaultdict
import csv
import importlib
import os
import statistics
import sys
import time

import numpy as np

# Wrapped callables as "module:qualname".  The span name is the layer (the
# module's last component) followed by the qualname.
TARGETS = (
    "hsmc.config:load_config",
    "hsmc.config:build_experiment",
    "hsmc.spectrum:compose",
    "hsmc.spectrum:CompositeSpectrum.shell_index_at",
    "hsmc.sampling:substream",
    "hsmc.sampling:ConstraintProfile.resolve",
    "hsmc.sampling:sample_microcanonical",
    "hsmc.sampling:sample_canonical",
    "hsmc.state:PureState.__init__",
    "hsmc.state:PureState.to_matrix",
    "hsmc.state:PureState.reduce_gas",
    "hsmc.state:PureState.subspace_weights",
    "hsmc.state:PureState.shell_weights",
    "hsmc.state:PureState.gas_level_weights",
    "hsmc.state:DensityMatrix.purity",
    "hsmc.state:DensityMatrix.entropy",
    "hsmc.state:write_amplitudes_csv",
    "hsmc.analytics:min_purity_state",
    "hsmc.analytics:max_entropy_micro",
    "hsmc.analytics:expected_purity_exact",
    "hsmc.analytics:expected_purity_approx",
    "hsmc.analytics:lubkin_average",
    "hsmc.analytics:dominant_distribution",
    "hsmc.analytics:marginal_gas_distribution",
    "hsmc.analytics:fit_temperature",
    "hsmc.analytics:hypersphere_moment",
    "hsmc.analytics:hypersphere_moment_mc",
    "hsmc.dynamics:build_microcanonical_hamiltonian",
    "hsmc.dynamics:build_canonical_hamiltonian",
    "hsmc.dynamics:evolve",
    "hsmc.dynamics:effective_velocity",
    "hsmc.dynamics:max_drift",
    "hsmc.dynamics:Hamiltonian.commutator_norms",
    "hsmc.dynamics:Hamiltonian.weak_coupling_ratio",
    "hsmc.cli:cmd_predict",
    "hsmc.cli:cmd_sample",
    "hsmc.cli:cmd_evolve",
    "hsmc.cli:cmd_moments",
)


def span_name(target: str) -> str:
    module, qualname = target.split(":")
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _array_bytes(args, kwargs, result) -> int:
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


# Values recorded on a span from the call's arguments or result.
EXTRAS = {
    "dynamics.evolve": lambda args, kwargs, result: len(_arg(args, kwargs, 2, "times")),
    "dynamics.build_microcanonical_hamiltonian": _array_bytes,
    "dynamics.build_canonical_hamiltonian": _array_bytes,
    "state.write_amplitudes_csv":
        lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, 1, "path")),
}


class Tracer:
    """Records nested spans of the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.spans.clear()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hsmc" or n.startswith("hsmc.")]
        for target in TARGETS:
            module_name, qualname = target.split(":")
            owner_name, _, attr = qualname.rpartition(".")
            module = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name(target), original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name(target), original)
            tables = [vars(m) for m in modules]
            # The CLI dispatches through this table, not through its globals.
            tables += [vars(m)["COMMANDS"] for m in modules if "COMMANDS" in vars(m)]
            for table in tables:
                for key in [k for k, v in table.items() if v is original]:
                    self._undo.append((table, key, original))
                    table[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as CSV, one row per call."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "run_id", "extra"])
            for i, span in enumerate(self.spans):
                out.writerow([i, *span])


# ------------------------------------------------------------ layer metrics

def _names(prefix: str) -> tuple[str, ...]:
    return tuple(n for n in map(span_name, TARGETS) if n.startswith(prefix))


WEIGHTS = ("state.PureState.subspace_weights", "state.PureState.shell_weights",
           "state.PureState.gas_level_weights")
DRAWS = _names("sampling.sample_")
BUILD_H = _names("dynamics.build_")
COMMANDS = _names("cli.cmd_")
DIAGNOSTICS = ("dynamics.Hamiltonian.commutator_norms", "dynamics.Hamiltonian.weak_coupling_ratio",
               "dynamics.effective_velocity", "dynamics.max_drift")

# Per-call timings in microseconds: metric, span names, self time (minus child spans)?
PER_CALL = (
    ("sampling.substream_us", ("sampling.substream",), False),
    ("sampling.resolve_us", ("sampling.ConstraintProfile.resolve",), False),
    ("sampling.draw_us", DRAWS, True),
    ("state.init_us", ("state.PureState.__init__",), False),
    ("state.scatter_us", ("state.PureState.to_matrix",), False),
    ("state.reduce_us", ("state.PureState.reduce_gas",), True),
    ("state.purity_us", ("state.DensityMatrix.purity",), False),
    ("state.entropy_us", ("state.DensityMatrix.entropy",), False),
    ("state.weights_us", WEIGHTS, False),
)

# Milliseconds per workload run: metric, span names, self time?, required parent.
PER_RUN = (
    ("config.load_ms", ("config.load_config",), True, None),
    ("config.build_ms", ("config.build_experiment",), True, None),
    ("spectrum.compose_ms", ("spectrum.compose",), False, None),
    ("state.csv_write_ms", ("state.write_amplitudes_csv",), False, None),
    ("analytics.predict_ms", _names("analytics."), False, "cli.cmd_predict"),
    ("analytics.moment_mc_ms", ("analytics.hypersphere_moment_mc",), False, None),
    ("dynamics.build_h_ms", BUILD_H, False, None),
    ("dynamics.evolve_self_ms", ("dynamics.evolve",), True, None),
    ("dynamics.measures_ms", _names("state."), False, "dynamics.evolve"),
    ("dynamics.diagnostics_ms", DIAGNOSTICS, False, None),
    ("cli.self_ms", COMMANDS, True, None),
)

# Counts that must repeat exactly across traced runs of one seed.
COUNTS = ("spectrum.shell_lookups_per_draw", "sampling.resolve_per_draw", "sampling.draws",
          "state.weights_calls_per_snapshot", "state.csv_bytes", "dynamics.h_mb",
          "dynamics.snapshots", "cli.bytes_written")

UNITS = dict(
    {m: "us" for m, _, _ in PER_CALL},
    **{f"{m}.tail": "us" for m, _, _ in PER_CALL},
    **{m: "ms" for m, *_ in PER_RUN},
    **{"spectrum.shell_lookups_per_draw": "ratio", "sampling.resolve_per_draw": "ratio",
       "sampling.draws": "count", "state.weights_calls_per_snapshot": "ratio",
       "state.csv_bytes": "B", "dynamics.h_mb": "MB", "dynamics.snapshots": "count",
       "cli.bytes_written": "B", "trace.overhead_s": "s"},
)


def summarize(spans: list[list], bytes_written: int) -> tuple[dict, dict, dict]:
    """Per-call durations (us), per-run totals (ms) and counts of one traced run.

    A span's self time is its duration minus the durations of its direct
    children.  Per-call samples skip calls nested inside another call of the
    same metric, so ``shell_weights`` calling ``subspace_weights`` is one call.
    """
    child_ns = [0] * len(spans)
    by_name = defaultdict(list)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child_ns[parent] += end - start

    def duration(i: int, self_time: bool) -> int:
        return spans[i][2] - spans[i][1] - (child_ns[i] if self_time else 0)

    per_call = {}
    for metric, names, self_time in PER_CALL:
        per_call[metric] = [duration(i, self_time) / 1e3 for n in names for i in by_name[n]
                            if spans[i][3] < 0 or spans[spans[i][3]][0] not in names]
    per_run = {}
    for metric, names, self_time, parent in PER_RUN:
        per_run[metric] = sum(duration(i, self_time) for n in names for i in by_name[n]
                              if parent is None or spans[i][3] >= 0
                              and spans[spans[i][3]][0] == parent) / 1e6

    def count(names) -> int:
        return sum(len(by_name[n]) for n in names)

    def extra(names) -> int:
        return sum(spans[i][5] for n in names for i in by_name[n])

    draws, snapshots = count(DRAWS), extra(("dynamics.evolve",))
    counts = {
        "spectrum.shell_lookups_per_draw":
            count(("spectrum.CompositeSpectrum.shell_index_at",)) / draws if draws else 0.0,
        "sampling.resolve_per_draw":
            count(("sampling.ConstraintProfile.resolve",)) / draws if draws else 0.0,
        "sampling.draws": draws,
        "state.weights_calls_per_snapshot":
            count(("state.PureState.subspace_weights",)) / snapshots if snapshots else 0.0,
        "state.csv_bytes": extra(("state.write_amplitudes_csv",)),
        "dynamics.h_mb": extra(BUILD_H) / 2 ** 20,
        "dynamics.snapshots": snapshots,
        "cli.bytes_written": bytes_written,
    }
    return per_call, per_run, counts


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it, and its percentile.

    With 20 samples or fewer that statistic would not lie above the median, so
    the maximum is returned instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return (ordered[-1] if ordered else 0.0), f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n}"


def layer_metrics(per_call_runs: list[dict], per_run_runs: list[dict]) -> tuple[dict, dict]:
    """Pool the traced runs: per-call median and tail, per-run median.

    Returns (values, notes); notes say how each value was formed.
    """
    values, notes = {}, {}
    for metric, _, _ in PER_CALL:
        samples = [x for run in per_call_runs for x in run[metric]]
        values[metric] = statistics.median(samples) if samples else 0.0
        values[f"{metric}.tail"], notes[f"{metric}.tail"] = tail(samples)
        notes[metric] = f"median of {len(samples)} calls" if samples else "no calls"
    for metric, *_ in PER_RUN:
        values[metric] = statistics.median(run[metric] for run in per_run_runs)
        notes[metric] = f"median of {len(per_run_runs)} traced runs"
    return values, notes
