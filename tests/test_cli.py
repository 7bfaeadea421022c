import contextlib
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import yaml

import hsmc.sampling
import hsmc.state
from hsmc import (CANONICAL, build_spectrum, canonical_profile, compose, dominant_distribution,
                  expected_purity_approx, expected_purity_exact, gas_purity_entropy, mc_average,
                  microcanonical_profile, min_purity_state, product_state, purity_entropy,
                  region_log_size, region_mean_purity, sample_chunks, subspace_weights)
from hsmc import cli, dynamics, fanout
from hsmc.cli import COMMANDS, main
from hsmc.config import MAX_MOMENT_POINTS, build_experiment, load_config

C1_YAML = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 4], [1, 4]]
constraint:
  kind: microcanonical
  gas_weights: [0.5, 0.5]
  container_weights: [0.5, 0.5]
run:
  seed: 7
  n_samples: 400
"""

LUBKIN_YAML = """
gas:
  levels: [[0, 2]]
container:
  levels: [[0, 2]]
constraint:
  kind: microcanonical
  gas_weights: [1.0]
  container_weights: [1.0]
run:
  seed: 11
  n_samples: 1000
"""

GEOMETRIC_YAML = """
gas:
  levels: [[0, 1], [1, 1], [2, 1]]
container:
  levels: [[0, 1], [1, 2], [2, 4], [3, 8], [4, 16], [5, 32], [6, 64], [7, 128], [8, 256]]
constraint:
  kind: canonical
  weights: [[8, 1.0]]
run:
  seed: 3
  n_samples: 200
"""

CANONICAL_EVOLVE_YAML = """
gas:
  levels: [[0, 1], [1, 3]]
container:
  levels: [[0, 2], [1, 2]]
constraint:
  kind: canonical
  gas_weights: [0.5, 0.5]
  container_weights: [0.5, 0.5]
run:
  seed: 19
  coupling: 0.5
  t_max: 50
  n_times: 51
"""

MOMENTS_YAML = """
moments:
  R: 1.0
  d: 4
  u_l: 0
  u_m: 2
run:
  seed: 13
  n_samples: 20000
"""


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_table(path):
    """Parse a CSV artifact into (column names, float matrix)."""
    rows = []
    names = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = line.split(",")
            else:
                rows.append([float(c) for c in line.split(",")])
    return names, np.array(rows)


def read_summary(path):
    """summary.csv rows keyed by measure name."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("measure,"):
                continue
            name, mean, std_error, n, seed = line.split(",")
            out[name] = (float(mean), float(std_error), int(n), int(seed))
    return out


# ------------------------------------------------------------------ predict

def test_predict_lubkin_config(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    pred = report["predictions"]
    assert pred["lubkin_average"] == pytest.approx(0.8)
    assert pred["expected_purity_exact"] == pytest.approx(0.8)
    # the 2-dim gas at full weight: maximally mixed has purity 1/2
    assert pred["min_purity"] == pytest.approx(0.5)
    assert pred["max_entropy"] == pytest.approx(math.log(2))


def test_predict_matches_library_call(tmp_path):
    cfg = write_config(tmp_path, C1_YAML)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 4), (1, 4)]))
    want = expected_purity_exact(comp, [0.5, 0.5], [0.5, 0.5])
    assert report["predictions"]["expected_purity_exact"] == want


def test_predict_geometric_container_temperature(tmp_path):
    cfg = write_config(tmp_path, GEOMETRIC_YAML)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    dominant = report["predictions"]["dominant"]
    assert abs(dominant["kT"] - 1 / math.log(2)) < 1e-6
    assert dominant["fit_residual"] < 1e-10
    np.testing.assert_allclose(dominant["marginal_gas"], [4 / 7, 2 / 7, 1 / 7],
                               atol=1e-12)
    # canonical constraints fix no per-level gas weights up front
    assert report["predictions"]["min_purity"] is None
    comp = compose(build_spectrum([(0, 1), (1, 1), (2, 1)]),
                   build_spectrum([(e, 2 ** e) for e in range(9)]))
    want = region_mean_purity(comp, canonical_profile({8: 1.0}))
    assert report["predictions"]["expected_purity_exact"] == want
    assert want == pytest.approx(0.429844, abs=5e-7)  # the attractor purity is 3/7


REGION_CONFIGS = [path for path in sorted([*CONFIGS.glob("*.yaml"),
                                           *(CONFIGS.parent / "tests/fixtures").glob("*/config.yaml")])
                  if "constraint" in yaml.safe_load(path.read_text())]  # not a moments config


@pytest.mark.parametrize("config", REGION_CONFIGS,
                         ids=lambda path: path.parent.name if path.name == "config.yaml" else path.stem)
def test_predict_writes_the_mean_purity_of_every_config(tmp_path, config):
    out = tmp_path / "out"
    assert main(["predict", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    exact = json.loads((out / "report.json").read_text())["predictions"]["expected_purity_exact"]
    assert isinstance(exact, float) and 0.0 < exact <= 1.0


def test_run_header_in_every_artifact(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out = tmp_path / "out"
    main(["predict", "--config", cfg, "--out", str(out), "--quiet"])
    run = json.loads((out / "run.json").read_text())
    assert set(run) == {"version", "command", "config_hash", "config"}
    assert run["command"] == "predict"
    assert len(run["config_hash"]) == 64
    assert run["config"]["run"]["seed"] == 11


# ------------------------------------------------------------------- sample

def test_sample_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--n", "1", "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["sample", "--config", cfg, "--n", "1", "--out", str(out_b),
                 "--quiet"]) == 0
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()


def test_sample_seed_override_changes_draws(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", cfg, "--n", "5", "--out", str(out_a), "--quiet"])
    main(["sample", "--config", cfg, "--n", "5", "--seed", "999",
          "--out", str(out_b), "--quiet"])
    _, table_a = read_csv_table(out_a / "samples.csv")
    _, table_b = read_csv_table(out_b / "samples.csv")
    assert not np.array_equal(table_a[:, 1], table_b[:, 1])


def test_sample_lubkin_mean(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = read_summary(out / "summary.csv")
    mean, std_error, n, seed = summary["purity"]
    assert abs(mean - 0.8) < 4 * std_error
    assert n == 1000 and seed == 11


def test_sample_summary_is_the_mc_average_estimate(tmp_path):
    # both merge the values chunk by chunk as sample_chunks yields the draws:
    # 20 000 draws of dim 16 are 20 chunks
    config = str(CONFIGS / "lubkin.yaml")
    out = tmp_path / "out"
    assert main(["sample", "--config", config, "--out", str(out), "--quiet"]) == 0
    summary = read_summary(out / "summary.csv")
    cfg = build_experiment(load_config(config), command="sample")
    for column, name in enumerate(("purity", "entropy")):
        est = mc_average(lambda a: gas_purity_entropy(cfg.composite, a)[column],
                         cfg.composite, cfg.constraint, cfg.n_samples, cfg.seed)
        assert summary[name] == (est.mean, est.std_error, est.n_samples, est.seed)


def test_sample_agrees_with_predict(tmp_path):
    cfg = write_config(tmp_path, C1_YAML)
    out_p, out_s = tmp_path / "p", tmp_path / "s"
    main(["predict", "--config", cfg, "--out", str(out_p), "--quiet"])
    main(["sample", "--config", cfg, "--out", str(out_s), "--quiet"])
    exact = json.loads((out_p / "report.json").read_text())[
        "predictions"]["expected_purity_exact"]
    mean, std_error, _, _ = read_summary(out_s / "summary.csv")["purity"]
    assert abs(mean - exact) < 4 * std_error


def test_sample_csv_layout(tmp_path):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    out = tmp_path / "out"
    main(["sample", "--config", cfg, "--n", "3", "--out", str(out), "--quiet"])
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "# hsmc samples v2"
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "sample,purity,entropy"
    assert len(lines) == 6


def _sample(tmp_path, monkeypatch, cpus, n, text=GEOMETRIC_YAML):
    """Run sample as if the process may use ``cpus`` CPUs; (exit code, output dir)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = write_config(tmp_path, text, name=f"s{cpus}.yaml")
    out = tmp_path / f"sample{cpus}_{n}"
    return main(["sample", "--config", cfg, "--n", str(n), "--out", str(out), "--quiet"]), out


@pytest.mark.parametrize("n", [7, 1], ids=["uneven_split", "fewer_draws_than_cpus"])
def test_sample_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, n):
    # 7 draws of 10 rows per chunk: one chunk serially, 3 + 4 rows on 2 workers,
    # 2 + 2 + 3 on 3
    runs = [_sample(tmp_path, monkeypatch, cpus, n) for cpus in (1, 2, 3)]
    assert [code for code, _ in runs] == [0, 0, 0]
    for name in ("samples.csv", "summary.csv"):
        serial = (runs[0][1] / name).read_bytes()
        assert all((out / name).read_bytes() == serial for _, out in runs[1:])


def test_sample_restores_the_blas_thread_count(tmp_path, monkeypatch):
    blas = fanout._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no thread-count control here")
    get_threads, set_threads = blas
    seen = []

    def recording(rho):
        seen.append(get_threads())  # in the calling worker; children's calls are lost
        return purity_entropy(rho)

    monkeypatch.setattr(cli, "purity_entropy", recording)
    before = get_threads()
    set_threads(2)
    try:
        code, _ = _sample(tmp_path, monkeypatch, 2, 7)
        after = get_threads()
    finally:
        set_threads(before)
    assert code == 0 and after == 2
    assert seen and set(seen) == {1}


def test_sample_without_blas_thread_control_runs_one_worker(tmp_path, monkeypatch):
    _, serial = _sample(tmp_path, monkeypatch, 1, 7)
    monkeypatch.setattr(fanout, "_blas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("sample forked without BLAS control"))
    code, out = _sample(tmp_path, monkeypatch, 3, 7)
    assert code == 0
    for name in ("samples.csv", "summary.csv"):
        assert (out / name).read_bytes() == (serial / name).read_bytes()


@pytest.mark.parametrize("draw, hint", [(5, "sample workers [1] of 2 failed: draws 3 to 6"),
                                        (1, "draws 0 to 2")],
                         ids=["forked_worker", "calling_worker"])
def test_failed_sample_check_exits_3_and_is_reaped(tmp_path, monkeypatch, capsys, draw, hint):
    # of 2 workers over 7 draws, the caller draws 0 to 2 and the forked child 3 to 6
    comp = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))
    profile = microcanonical_profile({(0, 0): 1.0})
    psi = next(sample_chunks(comp, profile, 11, draw, 1)).reshape(2, 2)
    bad = psi @ psi.conj().T
    check = hsmc.state._check_density

    def failing(matrices):
        check(matrices)
        if np.any(np.max(np.abs(matrices - bad), axis=(1, 2)) < 1e-12):
            raise ValueError("trace = 2.0 deviates from 1")

    monkeypatch.setattr(hsmc.state, "_check_density", failing)
    code, _ = _sample(tmp_path, monkeypatch, 2, 7, text=LUBKIN_YAML)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical validation failure:") and hint in err
    assert "trace = 2.0 deviates from 1" in err and "Traceback" not in err
    assert err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _ConstantStream:
    """Stands in for a draw's generator: every normal and every gamma is ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, out):
        out[:] = self.value

    def standard_gamma(self, shape, out):
        out[:] = self.value


@pytest.mark.parametrize("value", [0.0, math.nan], ids=["zero", "nan"])
def test_a_bartlett_block_norm_that_is_not_positive_exits_3(tmp_path, monkeypatch, capsys,
                                                            value):
    monkeypatch.setattr(hsmc.sampling, "_streams", lambda seed: lambda i: _ConstantStream(value))
    code, out = _sample(tmp_path, monkeypatch, 2, 7)  # GEOMETRIC_YAML draws Bartlett factors
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical validation failure:") and "Traceback" not in err
    assert "is not positive and finite" in err
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("n, fail", [
    (7, OSError(errno.ENOMEM, "Cannot allocate memory")),
    (2**62, None),  # 2**66 bytes: more than an address space holds
], ids=["enomem", "too_large"])
def test_sample_results_that_do_not_fit_exit_2(tmp_path, monkeypatch, capsys, n, fail):
    if fail is not None:
        def mmap(*args):
            raise fail
        monkeypatch.setattr(fanout.mmap, "mmap", mmap)
    code, _ = _sample(tmp_path, monkeypatch, 2, n, text=C1_YAML)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory:")
    assert "Traceback" not in err


# ------------------------------------------------------------------- evolve

def test_evolve_free_single_subspace_is_flat(tmp_path):
    yaml_text = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 4], [1, 4]]
constraint:
  kind: microcanonical
  weights: [[0, 0, 1.0]]
run:
  seed: 5
  coupling: 0.0
  t_max: 10
  n_times: 21
  initial: sample
"""
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    names, table = read_csv_table(out / "trajectory.csv")
    for column in ("purity", "entropy", "energy", "v_eff"):
        series = table[:, names.index(column)]
        assert np.max(np.abs(series - series[0])) < 1e-12
    report = json.loads((out / "conservation.json").read_text())
    assert report["conservation"]["pass"] is True


def test_evolve_microcanonical_conservation(tmp_path):
    yaml_text = C1_YAML + "  coupling: 0.4\n  t_max: 50\n  n_times: 41\n"
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "conservation.json").read_text())["conservation"]
    assert report["pass"] is True
    assert report["drifts"]["subspace_weights"] < 1e-10
    assert report["commutator_norms"]["gas"] < 1e-12
    assert report["commutator_norms"]["container"] < 1e-12


def test_evolve_canonical_conservation_and_motion(tmp_path):
    cfg = write_config(tmp_path, CANONICAL_EVOLVE_YAML)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "conservation.json").read_text())["conservation"]
    assert report["pass"] is True
    assert report["drifts"]["shell_weights"] < 1e-10
    assert report["commutator_norms"]["total"] < 1e-12
    names, table = read_csv_table(out / "trajectory.csv")
    gas_col = table[:, names.index("wA_0")]
    assert np.max(np.abs(gas_col - gas_col[0])) > 1e-3


def test_evolve_tight_tolerance_exits_3(tmp_path, capsys):
    yaml_text = CANONICAL_EVOLVE_YAML + "  conservation_tolerance: 1e-18\n"
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "validation" in capsys.readouterr().err
    # artifacts are still written so the failure can be inspected
    report = json.loads((out / "conservation.json").read_text())["conservation"]
    assert report["pass"] is False
    assert report["breaches"]


def _evolve_yaml(gas, container, coupling):
    """A microcanonical evolve from a sample of subspace (0, 0) alone."""
    return (f"gas:\n  levels: {gas}\ncontainer:\n  levels: {container}\n"
            "constraint:\n  kind: microcanonical\n  weights: [[0, 0, 1.0]]\n"
            f"run:\n  seed: 3\n  coupling: {coupling}\n  initial: sample\n")


def test_evolve_drift_gate_is_relative_to_the_energy_scale(tmp_path, capsys):
    # energies near 1e8 round off by about 1e-15 of the energy: an absolute 1e-9 gate failed
    text = _evolve_yaml("[[0, 1], [1.0e+8, 1]]", "[[0, 20], [1, 20]]", 0.1)
    cfg = write_config(tmp_path, text.replace("[[0, 0, 1.0]]", "[[0, 0, 0.5], [1, 1, 0.5]]"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0, \
        capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "conservation.json").read_text())["conservation"]
    assert report["pass"] and 1e8 < report["tolerances"]["energy_scale"] < 1e8 + 2
    assert report["drifts"]["energy"] > 1e-9  # what the absolute gate refused
    assert report["drifts"]["norm"] <= report["tolerances"]["norm_energy_veff"] == 1e-9


@pytest.mark.parametrize("gas, container, coupling", [
    ("[[0, 1], [1.0e+200, 1]]", "[[0, 2]]", 0.1),
    ("[[1.0e+300, 1]]", "[[0, 2]]", 0.1),
    ("[[0, 1], [1, 1]]", "[[1.0e+308, 2]]", 0.1),
    ("[[0, 1], [1, 1]]", "[[0, 2]]", 1.0e+300),
    ("[[0, 1], [1, 1]]", "[[0, 2]]", 1.0e+308),
], ids=["gas_1e200", "lone_level_1e300", "container_1e308", "coupling_1e300", "coupling_1e308"])
def test_evolve_energies_that_overflow_exit_2(tmp_path, capsys, gas, container, coupling):
    cfg = write_config(tmp_path, _evolve_yaml(gas, container, coupling))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "energy scale" in err and "run.coupling" in err
    assert not (tmp_path / "o").exists()


def test_evolve_rerun_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, CANONICAL_EVOLVE_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["evolve", "--config", cfg, "--out", str(out_a), "--quiet"])
    main(["evolve", "--config", cfg, "--out", str(out_b), "--quiet"])
    # results carry no trace of where they were written
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    # the JSON report echoes the resolved config (including output.dir), so
    # byte identity holds for reruns into the same location
    first = (out_a / "conservation.json").read_bytes()
    main(["evolve", "--config", cfg, "--out", str(out_a), "--quiet"])
    assert (out_a / "conservation.json").read_bytes() == first


def test_evolve_dump_states_round_trip(tmp_path):
    yaml_text = CANONICAL_EVOLVE_YAML.replace("n_times: 51", "n_times: 3")
    yaml_text += "  dump_states: true\n"
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    from hsmc import read_amplitudes_csv
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    state = read_amplitudes_csv(str(out / "states" / "state_00000.csv"), comp)
    names, table = read_csv_table(out / "trajectory.csv")
    assert state.purity() == pytest.approx(table[0][names.index("purity")])


MICRO_EVOLVE_YAML = C1_YAML + "  coupling: 0.4\n  t_max: 50\n  n_times: 51\n"


def _evolve(tmp_path, monkeypatch, cpus, n_times=7, text=CANONICAL_EVOLVE_YAML, dump=True,
            prepare=None):
    """Run evolve as if the process may use ``cpus`` CPUs: (exit code, output dir)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    yaml_text = text.replace("n_times: 51", f"n_times: {n_times}")
    cfg = write_config(tmp_path, yaml_text + f"  dump_states: {str(dump).lower()}\n",
                       name=f"c{cpus}.yaml")
    out = tmp_path / f"out{cpus}_{n_times}"
    if prepare is not None:
        prepare(out / "states")
    return main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]), out


@pytest.mark.parametrize("n_times", [2, 3, 7])
@pytest.mark.parametrize("text, dump, blocks", [(CANONICAL_EVOLVE_YAML, True, 3),
                                                (MICRO_EVOLVE_YAML, False, 4)],
                         ids=["canonical_dump", "microcanonical"])
def test_evolve_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, text, dump,
                                                        blocks, n_times):
    # an evolve worker covers 2 times or more, so 7 times run on 1, 2 or 3 workers
    # (7, 3 + 4, 2 + 2 + 3 times) and 2 or 3 times on one; H is built before, on
    # one worker per block and CPU (the canonical shells and the microcanonical
    # subspaces all have a constant local diagonal, so there is no second pass)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = {}
    for cpus in (1, 2, 3):
        del forks[:]
        code, out = _evolve(tmp_path, monkeypatch, cpus, n_times, text, dump)
        assert code == 0
        assert len(forks) == (min(cpus, blocks) - 1) + (min(cpus, n_times // 2) - 1)
        report = json.loads((out / "conservation.json").read_text())
        del report["config"]["output"]
        states = sorted((out / "states").iterdir()) if dump else []
        assert [p.name for p in states] == [f"state_{k:05d}.csv" for k in range(n_times)
                                            if dump]
        runs[cpus] = ((out / "trajectory.csv").read_bytes(), report,
                      [p.read_bytes() for p in states])
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_a_one_shell_start_dumps_plus_zero_on_its_dead_blocks(tmp_path, monkeypatch):
    # only the shell E = 1 has weight: the shells E = 0 and E = 2 stay exactly +0.0
    # at every time, where a phase times 0 and a product could make them -0.0
    text = CANONICAL_EVOLVE_YAML.replace(
        "  gas_weights: [0.5, 0.5]\n  container_weights: [0.5, 0.5]\n",
        "  weights: [[1, 1.0]]\n") + "  initial: sample\n"
    code, out = _evolve(tmp_path, monkeypatch, 1, 7, text)
    assert code == 0
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    dead = [i for k, shell in enumerate(comp.blocks(CANONICAL))
            if k != comp.shell_index_at(1.0) for i in shell]
    assert len(dead) == 8
    for path in sorted((out / "states").iterdir()):
        rows = [line.split(",") for line in path.read_text().splitlines() if line[:1].isdigit()]
        assert {cell for i in dead for cell in rows[i][1:]} == {"0.0"}, path.name


CANONICAL_WIDE_YAML = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 50], [1, 50]]
constraint:
  kind: canonical
  gas_weights: [0.5, 0.5]
  container_weights: [0.5, 0.5]
run:
  seed: 19
  coupling: 0.1
  initial: product
  n_times: 3
  dump_states: true
"""


@pytest.mark.parametrize("config", [CONFIGS / "equilibration.yaml", CANONICAL_WIDE_YAML],
                         ids=["microcanonical", "canonical_dump"])
def test_evolve_files_do_not_depend_on_the_blas_thread_count(tmp_path, config):
    # blocks of 100 and 200 states, whose eigh takes other last bits on 1 and on 2
    # OpenBLAS threads: H is built on one thread whatever the process started with
    cfg = str(config) if isinstance(config, Path) else write_config(tmp_path, config)
    out, runs = tmp_path / "out", []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "hsmc.cli", "evolve", "--config", cfg, "--out", str(out),
             "--quiet"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                     OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        files = [out / "trajectory.csv", out / "conservation.json",
                 *sorted((out / "states").glob("*.csv"))]
        runs.append({p.name: p.read_bytes() for p in files})
        shutil.rmtree(out)
    assert len(runs[0]) == (2 if isinstance(config, Path) else 5)
    assert runs[1] == runs[0]


@pytest.mark.parametrize("blocked, hint", [(6, "evolve workers [2] of 3 failed"),
                                            (0, "state_00000.csv")],
                         ids=["forked_writer", "calling_writer"])
def test_failed_state_writer_exits_2_and_is_reaped(tmp_path, monkeypatch, capsys,
                                                   blocked, hint):
    # of 3 workers over 7 times, the caller writes snapshots 0 and 1 and the last
    # forked worker snapshots 4 to 6
    code, _ = _evolve(tmp_path, monkeypatch, 3, prepare=lambda states: os.makedirs(
        states / f"state_{blocked:05d}.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and hint in err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_norm_drift_in_a_forked_evolve_worker_exits_3_and_is_reaped(tmp_path, monkeypatch,
                                                                    capsys):
    caller, real = os.getpid(), dynamics._row_norms

    def drifting(rows, scratch):  # every norm a forked worker takes is 1e-6 too large
        norms = real(rows, scratch)
        return norms * (1 + 1e-6) if os.getpid() != caller else norms

    monkeypatch.setattr(dynamics, "_row_norms", drifting)
    code, _ = _evolve(tmp_path, monkeypatch, 2)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical validation failure: evolve workers [1] of 2 failed: "
                          "propagation lost normalization by 1.000e-06")
    assert "Traceback" not in err and err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_memory_error_in_a_forked_build_worker_exits_2_and_is_reaped(tmp_path, monkeypatch,
                                                                     capsys):
    caller, real = os.getpid(), dynamics.qr

    def qr(a, r):
        if os.getpid() != caller:
            raise MemoryError("no room for the draw")
        return real(a, r)

    monkeypatch.setattr(dynamics, "qr", qr)
    code, _ = _evolve(tmp_path, monkeypatch, 2)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory: Hamiltonian workers "
                          "[1] of 2 failed: no room for the draw")
    assert "Traceback" not in err and err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evolve_dump_memory_does_not_grow_with_the_time_axis(tmp_path, monkeypatch):
    # dim 400: a dump held in memory would add 1400 * 400 * 16 bytes, 8.5 MiB,
    # from 201 to 1601 times; a first run of 2 times makes the one-time allocations
    text = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 50], [1, 50]]
constraint:
  kind: canonical
  gas_weights: [0.5, 0.5]
  container_weights: [0.5, 0.5]
run:
  seed: 2
  coupling: 0.1
  t_max: 100
  n_times: 51
"""
    peak = _peaks(lambda n_times: _evolve(tmp_path, monkeypatch, 1, n_times, text), (2, 201, 1601))
    assert peak[1601] - peak[201] < 2 ** 20, peak


def _peaks(run, sizes) -> dict:
    """tracemalloc peak of ``run(size)``, which returns (exit code, output dir), per size."""
    peak = {}
    for size in sizes:
        tracemalloc.start()
        try:
            code, _ = run(size)
            peak[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    return peak


def test_evolve_memory_does_not_grow_with_the_text_of_its_trajectory(tmp_path, monkeypatch):
    # equilibration (dim 400, 4 subspaces) with no dump; the trajectory text held
    # whole would grow by about 2.5 MiB from 201 to 4001 times
    raw = yaml.safe_load((CONFIGS / "equilibration.yaml").read_text())
    del raw["output"]
    text = yaml.safe_dump(dict(raw, run=dict(raw["run"], n_times=51)))
    peak = _peaks(lambda n_times: _evolve(tmp_path, monkeypatch, 1, n_times, text, dump=False),
                  (2, 201, 4001))
    assert peak[4001] - peak[201] < 2 ** 20, peak


def test_sample_memory_does_not_grow_with_the_text_of_its_samples(tmp_path, monkeypatch):
    # the draws' results are mapped, not traced; samples.csv held whole would grow
    # by about 2.5 MiB from 2000 to 20 000 draws
    text = (CONFIGS / "lubkin.yaml").read_text()
    peak = _peaks(lambda n: _sample(tmp_path, monkeypatch, 1, n, text), (2, 2000, 20000))
    assert peak[20000] - peak[2000] < 2 ** 20, peak


@pytest.mark.parametrize("command, text", [
    ("predict", C1_YAML), ("sample", C1_YAML), ("evolve", C1_YAML + "  n_times: 3\n"),
    ("moments", MOMENTS_YAML),
], ids=["predict", "sample", "evolve", "moments"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, text):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(blocker / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and "a_file" in err
    assert "Traceback" not in err


def test_json_artifacts_write_non_finite_numpy_scalars_as_strings(tmp_path):
    def refuse(constant):
        raise ValueError(f"bare {constant} is not JSON")

    payload = {"nan": np.float64("nan"), "inf": np.float32("inf"), "neg": [np.float64("-inf")],
               "float": float("nan"), "int": np.int64(3), "finite": np.float64(0.25)}
    path = tmp_path / "report.json"
    cli._write_json(str(path), payload)
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "nan": "nan", "inf": "inf", "neg": ["-inf"], "float": "nan", "int": 3, "finite": 0.25}


# ------------------------------------------------------------------ moments

def test_moments_command(tmp_path):
    cfg = write_config(tmp_path, MOMENTS_YAML)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    full = json.loads((out / "moments.json").read_text())
    assert full["format"] == "hsmc moments v2"
    report = full["moment"]
    assert report["exact"] == pytest.approx(0.25)
    assert abs(report["mc_mean"] - report["exact"]) < 5 * report["mc_std_error"]
    assert abs(report["z_score"]) < 5


def test_moments_odd_exponent_zero(tmp_path):
    yaml_text = MOMENTS_YAML.replace("u_m: 2", "u_m: 1")
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "moments.json").read_text())["moment"]
    assert report["exact"] == 0.0
    assert abs(report["mc_mean"]) < 5 * report["mc_std_error"]


@pytest.mark.parametrize("exponents, d, exact", [
    ((1, 2), 4, 0.0),
    ((6, 0), 4, 15 / (4 * 6 * 8)),
    ((2, 0), 10 ** 9, 1e-9),
], ids=["1_2", "6_0", "d_1e9"])
def test_moments_any_exponent_pair(tmp_path, exponents, d, exact):
    # d = 10**9 draws 3 variates per point, not d
    yaml_text = (MOMENTS_YAML.replace("u_l: 0", f"u_l: {exponents[0]}")
                 .replace("u_m: 2", f"u_m: {exponents[1]}").replace("d: 4", f"d: {d}")
                 .replace("n_samples: 20000", "n_samples: 2000"))
    cfg = write_config(tmp_path, yaml_text)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "moments.json").read_text())["moment"]
    assert report["exact"] == pytest.approx(exact, rel=1e-15)
    assert abs(report["mc_mean"] - exact) < 5 * report["mc_std_error"]


def test_moments_point_count_limit_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MOMENTS_YAML)
    start = time.perf_counter()
    assert main(["moments", "--config", cfg, "--n", str(MAX_MOMENT_POINTS + 1),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert time.perf_counter() - start < 1.0  # refused before any point is drawn
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "run.n_samples" in err
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------- config errors

@pytest.mark.parametrize("mangle, hint", [
    (lambda t: t.replace("  seed: 11\n", ""), "seed"),
    (lambda t: t.replace("  seed: 11\n", "  seed: 18446744073709551616\n"), "2**64"),
    (lambda t: t.replace("gas_weights: [1.0]", "gas_weights: [0.9]"), "sum"),
    (lambda t: t.replace("kind: microcanonical", "kind: grand"), "kind"),
    (lambda t: t.replace("constraint:\n", "ignored:\n"), "constraint"),
    (lambda t: t.replace("gas:\n", "fog:\n"), "gas"),
    (lambda t: t.replace("  seed: 11\n", f"  seed: {'9' * 5000}\n"), "4300 digits"),
    # read as truth values or text they would dump states, silence the run or write to "None"
    (lambda t: t + '  dump_states: "false"\n', "run.dump_states must be true or false"),
    (lambda t: t + 'output:\n  quiet: "false"\n', "output.quiet must be true or false"),
    (lambda t: t + "output:\n  dir: null\n", "output.dir must be a nonempty string"),
])
def test_config_errors_exit_2(tmp_path, capsys, mangle, hint):
    cfg = write_config(tmp_path, mangle(LUBKIN_YAML))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert hint in capsys.readouterr().err


def _with_value(text, path, value):
    """``text`` with the config entry at ``path`` (keys and list indices) set to ``value``."""
    raw = yaml.safe_load(text)
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    return yaml.safe_dump(raw)


C1_EXPLICIT_YAML = C1_YAML.replace(
    "  gas_weights: [0.5, 0.5]\n  container_weights: [0.5, 0.5]\n",
    "  weights: [[0, 0, 0.5], [1, 1, 0.5]]\n")
# Every kind of number a config holds: the name its error gives, the command that
# reads it, a config and the path of the entry in it.
NUMERIC_KEYS = {
    "run.seed": ("sample", C1_YAML, ("run", "seed")),
    "run.n_samples": ("sample", C1_YAML, ("run", "n_samples")),
    "run.coupling": ("evolve", C1_YAML, ("run", "coupling")),
    "run.t_max": ("evolve", C1_YAML, ("run", "t_max")),
    "run.n_times": ("evolve", C1_YAML, ("run", "n_times")),
    "run.conservation_tolerance": ("evolve", C1_YAML, ("run", "conservation_tolerance")),
    "shell_tolerance": ("predict", C1_YAML, ("shell_tolerance",)),
    "moments.R": ("moments", MOMENTS_YAML, ("moments", "R")),
    "moments.d": ("moments", MOMENTS_YAML, ("moments", "d")),
    "moments.u_l": ("moments", MOMENTS_YAML, ("moments", "u_l")),
    "moments.u_m": ("moments", MOMENTS_YAML, ("moments", "u_m")),
    "constraint.gas_weights[0]": ("predict", C1_YAML, ("constraint", "gas_weights", 0)),
    "constraint.container_weights[1]": ("predict", C1_YAML,
                                        ("constraint", "container_weights", 1)),
    "constraint.weights[1]": ("predict", C1_EXPLICIT_YAML, ("constraint", "weights", 1, 2)),
    "gas.levels": ("predict", C1_YAML, ("gas", "levels", 1, 1)),
}


@pytest.mark.parametrize("value", [None, True], ids=["null", "true"])
@pytest.mark.parametrize("name", NUMERIC_KEYS)
def test_null_or_true_for_a_number_exits_2(tmp_path, capsys, name, value):
    # neither may reach a comparison (a TypeError) or be read as 1
    command, text, path = NUMERIC_KEYS[name]
    cfg = write_config(tmp_path, _with_value(text, path, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}") and "Traceback" not in err


@pytest.mark.parametrize("kind, weights, hint", [
    ("microcanonical", "[[0, 0, 1.0], [0, 0, 1.0]]",
     "constraint.weights[1] repeats the subspace (0, 0)"),
    ("canonical", "[[7, 1.0], [7.0, 1.0]]", "constraint.weights[1] repeats the shell energy 7.0"),
], ids=["subspace", "shell_energy"])
def test_a_repeated_constraint_entry_exits_2(tmp_path, capsys, kind, weights, hint):
    # a dict would merge the two entries, and the run would go on with the last
    text = C1_EXPLICIT_YAML.replace("microcanonical", kind).replace(
        "[[0, 0, 0.5], [1, 1, 0.5]]", weights).replace("[1, 4]]", "[7, 4]]")
    cfg = write_config(tmp_path, text)
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and hint in err and "Traceback" not in err


def test_a_number_given_as_text_is_read_as_the_number():
    # PyYAML reads 1e-12 as a string: it is the number 1.0e-12, with the same hash
    assert yaml.safe_load("x: 1e-12")["x"] == "1e-12"
    cfgs = [build_experiment(yaml.safe_load(C1_YAML + f"  conservation_tolerance: {text}\n"),
                             command="evolve") for text in ("1e-12", "1.0e-12")]
    assert cfgs[0].conservation_tolerance == 1e-12
    assert cfgs[0].config_hash() == cfgs[1].config_hash()


_TWO_LEVELS = build_spectrum([(0, 1), (1, 1)])
_TWO_SHELLS = compose(_TWO_LEVELS, build_spectrum([(0, 1)]))

# The weight validators, each fed two weights (the gas weights where there are two lists).
NON_FINITE_VALIDATORS = {
    "product_state": lambda w: product_state(_TWO_SHELLS, w, [1.0]),
    "subspace_weights": lambda w: subspace_weights(_TWO_SHELLS, w, [1.0]),
    "expected_purity_approx": lambda w: expected_purity_approx(_TWO_SHELLS, w, [1.0]),
    "ConstraintProfile": lambda w: microcanonical_profile({(0, 0): w[0], (1, 0): w[1]}),
    "min_purity_state": lambda w: min_purity_state(_TWO_LEVELS, w),
    "dominant_distribution": lambda w: dominant_distribution(_TWO_SHELLS, w),
    "region_log_size": lambda w: region_log_size(_TWO_SHELLS, w),
}

NON_FINITE_CONFIGS = {
    "constraint_weight": ("sample", """
gas:
  levels: [[0, 1], [1, 1]]
container:
  levels: [[0, 2]]
constraint:
  kind: microcanonical
  weights: [[0, 0, .nan], [1, 0, 1.0]]
run:
  seed: 1
  n_samples: 10
"""),
    "conservation_tolerance": ("evolve", C1_YAML + "  n_times: 5\n"
                               "  conservation_tolerance: .nan\n"),
    "total_energy": ("sample", C1_YAML.replace("[1, 2]]", "[1.0e+308, 2]]")
                     .replace("[1, 4]]", "[1.0e+308, 4]]")),
    "n_times_inf": ("evolve", C1_YAML + "  n_times: .inf\n"),
    "n_times_nan": ("evolve", C1_YAML + "  n_times: .nan\n"),
    "seed_nan": ("sample", C1_YAML.replace("seed: 7", "seed: .nan")),
    "degeneracy_inf": ("predict", C1_YAML.replace("[1, 2]]", "[1, .inf]]")),
    "moments_d_inf": ("moments", MOMENTS_YAML.replace("d: 4", "d: .inf")),
}


@pytest.mark.parametrize("case", [*NON_FINITE_VALIDATORS, *NON_FINITE_CONFIGS])
def test_non_finite_input_rejected(tmp_path, capsys, case):
    if case in NON_FINITE_VALIDATORS:
        for weights in ([math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf]):
            with pytest.raises(ValueError, match="finite"):
                NON_FINITE_VALIDATORS[case](weights)
        return
    command, text = NON_FINITE_CONFIGS[case]
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["predict", "sample", "evolve"])
@pytest.mark.parametrize("text, flags, key", [
    (C1_YAML.replace("n_samples: 400", f"n_samples: {2**63}"), [], "run.n_samples"),
    (C1_YAML, ["--n", str(2**63)], "run.n_samples"),
    (C1_YAML + f"  n_times: {2**63}\n", [], "run.n_times"),
    (C1_YAML + "  n_times: 1.0e+300\n", [], "run.n_times"),
    # a degeneracy past int64 once ended in a TypeError, and np.outer of 2**40 and
    # 2**30 wraps to 0: only the failed allocation of 8 TiB that followed stopped it
    (C1_YAML.replace("[0, 2]", f"[0, {2**64}]"), [], "gas and container levels"),
    (C1_YAML.replace("[0, 2]", f"[0, {2**40}]").replace("[0, 4]", f"[0, {2**30}]"), [],
     "gas and container levels"),
], ids=["n_samples", "flag_n", "n_times", "n_times_1e300", "degeneracy_2_64", "dim_2_70"])
def test_counts_of_2_63_or_more_exit_2(tmp_path, capsys, command, text, flags, key):
    # refused before any array or loop of that size is started
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, *flags, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "2**63" in err


@pytest.mark.parametrize("command", ["predict", "sample", "evolve"])
def test_a_coupling_whose_default_t_max_overflows_exits_2(tmp_path, capsys, command):
    # 50 / 1e-310 is inf: the error names the key the file holds, not run.t_max alone
    text = C1_YAML + "  coupling: 1.0e-310\n"
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == ("config error: run.coupling = 1e-310 makes the default "
                                       "run.t_max = 50 / run.coupling overflow: set run.t_max\n")
    # an explicit run.t_max is read as any other
    cfg = write_config(tmp_path, text + "  t_max: .inf\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: run.t_max must be a finite number, got inf\n"
    cfg = write_config(tmp_path, text + "  t_max: 5\n  n_times: 3\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setitem(COMMANDS, "sample", too_large)
    cfg = write_config(tmp_path, C1_YAML)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "728. TiB" in err
    assert "Traceback" not in err


def test_unknown_subspace_weight_exits_2(tmp_path, capsys):
    yaml_text = """
gas:
  levels: [[0, 2]]
container:
  levels: [[0, 2]]
constraint:
  kind: microcanonical
  weights: [[3, 0, 1.0]]
run:
  seed: 1
"""
    cfg = write_config(tmp_path, yaml_text)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "inconsistent" in capsys.readouterr().err


def test_predict_shell_multiplier_overflow_exits_2(tmp_path, capsys):
    # N_E / W_E = 8 / 5e-324 overflows: a config error, not an inf in report.json
    yaml_text = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 2], [1, 2]]
constraint:
  kind: canonical
  weights: [[0, 1.0], [1, 5e-324]]
run:
  seed: 1
"""
    cfg = write_config(tmp_path, yaml_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "E=1.0" in err and "5e-324" in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_both_weight_styles_rejected(tmp_path, capsys):
    yaml_text = LUBKIN_YAML.replace(
        "  container_weights: [1.0]\n",
        "  container_weights: [1.0]\n  weights: [[0, 0, 1.0]]\n")
    cfg = write_config(tmp_path, yaml_text)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "not both" in capsys.readouterr().err


def test_moments_missing_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "run:\n  seed: 1\n")
    assert main(["moments", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "moments" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, n, hint", [
    (lambda t: t.replace("u_m: 2", "u_m: 1025"), None, "maximum 1024"),
    (lambda t: t.replace("d: 4", "d: 1").replace("u_l: 0", "u_l: 1")
     .replace("u_m: 2", "u_m: 1"), None, "d >= 2"),
    (lambda t: t, 1, "n_samples >= 2"),
])
def test_moments_without_a_closed_form_exit_2(tmp_path, capsys, mangle, n, hint):
    cfg = write_config(tmp_path, mangle(MOMENTS_YAML))
    argv = ["moments", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    assert main(argv + (["--n", str(n)] if n else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and hint in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["predict", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_product_initial_needs_product_constraint(tmp_path, capsys, monkeypatch):
    def build_h(*args):
        raise AssertionError("H was built for a refused config")

    monkeypatch.setattr(dynamics, "_assemble", build_h)  # refused before H is built
    yaml_text = """
gas:
  levels: [[0, 2], [1, 2]]
container:
  levels: [[0, 4], [1, 4]]
constraint:
  kind: microcanonical
  weights: [[0, 0, 0.5], [1, 1, 0.5]]
run:
  seed: 5
  coupling: 0.2
  n_times: 11
  t_max: 5
"""
    cfg = write_config(tmp_path, yaml_text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "initial" in capsys.readouterr().err


def test_quiet_flag_suppresses_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, LUBKIN_YAML)
    main(["predict", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert capsys.readouterr().out == ""
    main(["predict", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert "min_purity" in capsys.readouterr().out


def test_module_entry_point_smoke(tmp_path):
    cfg = write_config(tmp_path, MOMENTS_YAML.replace("n_samples: 20000",
                                                      "n_samples: 500"))
    out = tmp_path / "out"
    # the child imports hsmc from wherever this process did, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "hsmc.cli", "moments", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0
    assert "exact=0.25" in proc.stdout
    assert (out / "moments.json").exists()


# ------------------------------------------------------------------- fuzzing

# null and true stand where a number should: each config number refuses both
ODD_NUMBERS = st.sampled_from(
    [0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, 1e-300, None, True])


def _mostly(draw, valid, odd):
    """A draw from ``valid`` about 23 times in 24, otherwise from ``odd``."""
    odd_turn = draw(st.sampled_from([False] * 12 + [True] + [False] * 11))
    return draw(odd) if odd_turn else draw(valid)


def _fuzz_weights(draw, n):
    """Nonnegative weights summing to 1, or now and then anything."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    valid = [w / total for w in raw] if total > 0 else [1.0 / n] * n
    return _mostly(draw, st.just(valid),
                   st.lists(st.one_of(st.floats(-2, 2), ODD_NUMBERS), max_size=n + 1))


@st.composite
def fuzz_configs(draw):
    """Small spectra, constraints and run fields, now and then NaN, inf or huge."""
    def levels():
        n = draw(st.integers(1, 3))
        energies = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n, unique=True))
        return [[_mostly(draw, st.just(e), ODD_NUMBERS),
                 _mostly(draw, st.integers(1, 3),
                         st.sampled_from([0, -1, 2.5, math.inf, math.nan, None, True]))]
                for e in energies]

    gas, container = levels(), levels()
    constraint = {"kind": _mostly(draw, st.sampled_from(["microcanonical", "canonical"]),
                                  st.just("grand"))}
    if draw(st.booleans()):
        constraint["gas_weights"] = _fuzz_weights(draw, len(gas))
        constraint["container_weights"] = _fuzz_weights(draw, len(container))
    elif constraint["kind"] == "microcanonical":
        pairs = draw(st.lists(st.tuples(st.integers(0, len(gas) - 1),
                                        st.integers(0, len(container) - 1)),
                              min_size=1, max_size=4, unique=True))
        constraint["weights"] = [[a, b, w] for (a, b), w
                                 in zip(pairs, _fuzz_weights(draw, len(pairs)))]
    else:
        sums = st.sampled_from([g[0] + c[0] for g in gas for c in container
                                if g[0] is not None and c[0] is not None] or [0.0])
        energies = draw(st.lists(st.one_of(sums, ODD_NUMBERS), min_size=1, max_size=3))
        constraint["weights"] = [[e, w] for e, w
                                 in zip(energies, _fuzz_weights(draw, len(energies)))]
    run = {"seed": _mostly(draw, st.integers(0, 2**64 - 1),
                           st.sampled_from([-1, 2**64, math.inf, math.nan, None, True])),
           "initial": _mostly(draw, st.sampled_from(["sample", "product", "sample"]),
                              st.just("bogus")),
           "dump_states": _mostly(draw, st.booleans(), st.just("false"))}
    for key in ("coupling", "t_max", "conservation_tolerance"):
        if draw(st.booleans()):
            run[key] = _mostly(draw, st.floats(1e-3, 10), ODD_NUMBERS)
    if draw(st.booleans()):
        run["n_times"] = _mostly(draw, st.integers(2, 5),
                                 st.sampled_from([-1, 0, 1, 2**63, 1e300, math.inf, math.nan,
                                                  None, True]))
    def exponent():
        # every pair has a closed form; 1025 exceeds the maximum total order alone
        return _mostly(draw, st.integers(0, 8), st.sampled_from([-1, 1025, None, True]))

    moments = {"R": _mostly(draw, st.floats(0.1, 3), ODD_NUMBERS),
               "d": _mostly(draw, st.integers(2, 6),
                            st.sampled_from([-1, 0, 1, math.inf, math.nan, None, True])),
               "u_l": exponent(), "u_m": exponent()}
    return {"gas": {"levels": gas}, "container": {"levels": container},
            "constraint": constraint, "run": run, "moments": moments}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=fuzz_configs(), command=st.sampled_from(["predict", "sample", "evolve", "moments"]),
       n=st.sampled_from([1, 2, 5, 2**63]))
def test_fuzzed_configs_exit_cleanly(config, command, n):
    """Any config runs (exit 0), is refused (2) or fails a numerical check (3)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # forked workers inherit it
            code = main([command, "--config", path, "--n", str(n),
                         "--out", os.path.join(tmp, "out"), "--quiet"])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
