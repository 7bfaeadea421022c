"""Workloads of the hsmc benchmark and the checks on their artifacts.

A workload is a list of CLI invocations run one after another: a closed loop
with one client, where the next invocation starts only after the previous one
has exited.  Each invocation carries a check that reads only the artifacts
the invocation wrote and compares them with an oracle written out in this
file (closed forms, convexity bounds, an independent amplitude layout), never
with values computed by ``hsmc.analytics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import csv
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Closed forms are compared with Monte Carlo means within this many standard errors.
Z_LIMIT = 4.0
# Slack for per-row inequalities that hold exactly in exact arithmetic.
ROW_SLACK = 1e-9
# Acceptance test 6 holds the fitted kT of the geometric container to this.
KT_TOLERANCE = 1e-6
# Late-half trajectory mean purity against the region average, keyed by the
# self-test size flag.  Over seeds 1-6 the two differed by at most 4.5e-4 at
# dim 1600, and over seeds 1-8 by at most 2.1e-3 at the self-test's dim 400.
EQUILIBRIUM_TOLERANCE = {False: 2.5e-3, True: 1e-2}
# A state file read back must reproduce the trajectory's purity to this.
ROUND_TRIP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One ``hsmc`` run: subcommand, config file and the check of its output dir."""

    label: str
    command: str
    config: Path
    check: Callable[[Path], list[str]]
    n: int | None = None

    def argv(self, seed: int, out: Path) -> list[str]:
        """Arguments after ``hsmc``; ``--quiet`` keeps stdout empty."""
        args = [self.command, "--config", str(self.config), "--seed", str(seed),
                "--out", str(out), "--quiet"]
        if self.n is not None:
            args += ["--n", str(self.n)]
        return args


# ---------------------------------------------------------------- oracles

def lubkin_purity(m: int, n: int) -> float:
    """Mean purity of a uniform pure state on C^m x C^n (Lubkin 1978)."""
    return (m + n) / (m * n + 1)


def page_entropy(m: int, n: int) -> float:
    """Mean entanglement entropy of a uniform pure state on C^m x C^n (Page 1993)."""
    m, n = min(m, n), max(m, n)
    return sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)


def product_purity(w_a, n_a, w_b, n_b) -> float:
    """Exact region-average gas purity for product weights W_AB = W_A W_B.

    The three-term sum over the product of subspace spheres, written out
    from the defining moments rather than taken from ``hsmc.analytics``.
    """
    w_a, n_a, w_b, n_b = (np.asarray(x, dtype=float) for x in (w_a, n_a, w_b, n_b))
    gas = np.sum(w_a ** 2 / n_a) * (1.0 - np.sum(w_b ** 2))
    container = np.sum(w_b ** 2 / n_b) * (1.0 - np.sum(w_a ** 2))
    cross = sum(wa * wa * wb * wb * (na + nb) / (na * nb + 1)
                for wa, na in zip(w_a, n_a) for wb, nb in zip(w_b, n_b))
    return float(gas + container + cross)


def attractor(gas_levels, container_levels, shell_weights) -> tuple[float, float]:
    """Purity and entropy of the mean gas state of a canonical region.

    A uniform draw spreads each shell weight W_E evenly over the N_E states of
    the shell, so the mean gas state is diagonal with level weight
    W_A = sum_B N_A N_B W_E / N_E spread evenly over the N_A states.
    """
    shell_dim: dict[float, int] = {}
    for e_a, n_a in gas_levels:
        for e_b, n_b in container_levels:
            shell_dim[e_a + e_b] = shell_dim.get(e_a + e_b, 0) + n_a * n_b
    purity = entropy = 0.0
    for e_a, n_a in gas_levels:
        w = sum(n_a * n_b * shell_weights.get(e_a + e_b, 0.0) / shell_dim[e_a + e_b]
                for e_b, n_b in container_levels)
        if w > 0:
            purity += w * w / n_a
            entropy -= w * math.log(w / n_a)
    return purity, entropy


def amplitude_matrix(amplitudes, gas_degeneracies, container_degeneracies) -> np.ndarray:
    """Place flat block-layout amplitudes into the dim_gas x dim_container matrix.

    Subspaces (A, B) come in lexicographic order, each a row-major N_A x N_B
    block; this is the documented layout, rebuilt here without ``hsmc``.
    """
    psi = np.zeros((sum(gas_degeneracies), sum(container_degeneracies)), dtype=complex)
    pos = row = 0
    for n_a in gas_degeneracies:
        col = 0
        for n_b in container_degeneracies:
            psi[row:row + n_a, col:col + n_b] = \
                amplitudes[pos:pos + n_a * n_b].reshape(n_a, n_b)
            pos += n_a * n_b
            col += n_b
        row += n_a
    return psi


# ----------------------------------------------------------------- checks

def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def check_samples(out: Path, dim_gas: int, purity: float | None = None,
                  entropy: float | None = None, purity_floor: float | None = None,
                  entropy_ceiling: float | None = None) -> list[str]:
    """Row bounds on every sample, then the sampled means against the oracles."""
    header, rows = _csv_rows(out / "samples.csv")
    if header != ["sample", "purity", "entropy"] or len(rows) < 2:
        return [f"samples.csv: header {header} with {len(rows)} rows"]
    p = np.array([float(r[1]) for r in rows])
    s = np.array([float(r[2]) for r in rows])
    problems = []
    bad = ((p < 1.0 / dim_gas - ROW_SLACK) | (p > 1.0 + ROW_SLACK)
           | (s < -ROW_SLACK) | (s > math.log(dim_gas) + ROW_SLACK)
           | (s < -np.log(p) - ROW_SLACK) | ~np.isfinite(p) | ~np.isfinite(s))
    if bad.any():
        problems.append(f"samples.csv: {int(bad.sum())} rows break purity/entropy bounds, "
                        f"first is sample {int(np.flatnonzero(bad)[0])}")
    p_mean, p_se = _mean_se(p)
    s_mean, s_se = _mean_se(s)
    if purity is not None and not abs(p_mean - purity) <= Z_LIMIT * p_se:
        problems.append(f"mean purity {p_mean!r} is not within {Z_LIMIT} SE "
                        f"({p_se:.2e}) of {purity!r}")
    if entropy is not None and not abs(s_mean - entropy) <= Z_LIMIT * s_se:
        problems.append(f"mean entropy {s_mean!r} is not within {Z_LIMIT} SE "
                        f"({s_se:.2e}) of {entropy!r}")
    if purity_floor is not None and not p_mean >= purity_floor - Z_LIMIT * p_se:
        problems.append(f"mean purity {p_mean!r} is below the attractor {purity_floor!r}")
    if entropy_ceiling is not None and not s_mean <= entropy_ceiling + Z_LIMIT * s_se:
        problems.append(f"mean entropy {s_mean!r} is above the attractor {entropy_ceiling!r}")
    return problems


def check_kt(out: Path) -> list[str]:
    kt = json.loads((out / "report.json").read_text())["predictions"]["dominant"]["kT"]
    target = 1.0 / math.log(2.0)
    if not (isinstance(kt, float) and abs(kt - target) <= KT_TOLERANCE):
        return [f"kT {kt!r} is not within {KT_TOLERANCE} of 1/ln 2"]
    return []


def check_moment(out: Path, exact: float) -> list[str]:
    m = json.loads((out / "moments.json").read_text())["moment"]
    z = (m["mc_mean"] - exact) / m["mc_std_error"]
    return [] if abs(z) <= Z_LIMIT else [f"moment z-score {z:.2f} against {exact!r}"]


def check_evolve(out: Path, late_purity: float | None = None, tolerance: float = 0.0,
                 levels: tuple | None = None) -> list[str]:
    """Conservation verdict, then the optional equilibrium and state round trip."""
    report = json.loads((out / "conservation.json").read_text())["conservation"]
    problems = [] if report["pass"] is True else [f"conservation breaches {report['breaches']}"]
    header, rows = _csv_rows(out / "trajectory.csv")
    purity = np.array([float(r[header.index("purity")]) for r in rows])
    if late_purity is not None:
        late = float(purity[len(purity) // 2:].mean())
        if not abs(late - late_purity) <= tolerance:
            problems.append(f"late-half mean purity {late!r} is not within "
                            f"{tolerance} of {late_purity!r}")
    if levels is not None:
        problems += _check_round_trip(out, purity[-1], *levels)
    return problems


def _check_round_trip(out: Path, purity: float, gas_levels, container_levels) -> list[str]:
    from hsmc import build_spectrum, compose, read_amplitudes_csv

    files = sorted((out / "states").glob("state_*.csv"))
    if not files:
        return ["no state files were written"]
    composite = compose(build_spectrum(gas_levels), build_spectrum(container_levels))
    state = read_amplitudes_csv(files[-1], composite)
    psi = amplitude_matrix(state.amplitudes, [n for _, n in gas_levels],
                           [n for _, n in container_levels])
    rho = psi @ psi.conj().T
    read_back = float(np.sum(np.abs(rho) ** 2))
    if not abs(read_back - purity) <= ROUND_TRIP_TOLERANCE:
        return [f"{files[-1].name} read back gives purity {read_back!r}, "
                f"trajectory has {purity!r}"]
    return []


# -------------------------------------------------------------- workloads

def _write_config(path: Path, seed: int, gas, container, constraint, run) -> Path:
    config = {"gas": {"levels": gas}, "container": {"levels": container},
              "constraint": constraint, "run": dict(run, seed=seed)}
    path.write_text(yaml.safe_dump(config, default_flow_style=None))
    return path


def _configs(seed: int, work: Path, small: bool) -> list[Invocation]:
    n = 2000 if small else None
    return [
        Invocation("lubkin", "sample", CONFIGS / "lubkin.yaml",
                   partial(check_samples, dim_gas=2, purity=lubkin_purity(2, 8),
                           entropy=page_entropy(2, 8)), n),
        Invocation("product_two_level", "sample", CONFIGS / "product_two_level.yaml",
                   partial(check_samples, dim_gas=4,
                           purity=product_purity([.5, .5], [2, 2], [.5, .5], [4, 4])), n),
        Invocation("geometric_container", "predict", CONFIGS / "geometric_container.yaml",
                   check_kt),
        Invocation("equilibration", "evolve", CONFIGS / "equilibration.yaml", check_evolve),
        Invocation("moment", "moments", CONFIGS / "moment.yaml",
                   partial(check_moment, exact=0.25), n and 10 * n),
    ]


def _sample_canonical_wide(seed: int, work: Path, small: bool) -> list[Invocation]:
    gas = [[0, 8], [1, 8], [2, 8]]
    container = [[e, 2 ** e] for e in range(8)]
    weights = {7: 0.5, 8: 0.3, 9: 0.2}
    path = _write_config(work / "sample-canonical-wide.yaml", seed, gas, container,
                         {"kind": "canonical", "weights": [[e, w] for e, w in weights.items()]},
                         {"n_samples": 200 if small else 2000})
    purity, entropy = attractor(gas, container, weights)
    return [Invocation("sample", "sample", path,
                       partial(check_samples, dim_gas=24, purity_floor=purity,
                               entropy_ceiling=entropy))]


def _evolve_micro_dense(seed: int, work: Path, small: bool) -> list[Invocation]:
    gas = [[0, 2], [1, 2]]
    degeneracy = 50 if small else 200
    container = [[0, degeneracy], [1, degeneracy]]
    path = _write_config(work / "evolve-micro-dense.yaml", seed, gas, container,
                         {"kind": "microcanonical", "gas_weights": [0.5, 0.5],
                          "container_weights": [0.5, 0.5]},
                         {"initial": "product", "n_times": 201})
    exact = product_purity([.5, .5], [2, 2], [.5, .5], [degeneracy, degeneracy])
    return [Invocation("evolve", "evolve", path,
                       partial(check_evolve, late_purity=exact,
                               tolerance=EQUILIBRIUM_TOLERANCE[small]))]


def _evolve_canonical_dump(seed: int, work: Path, small: bool) -> list[Invocation]:
    gas = [[0, 1], [1, 1], [2, 1]]
    container = [[e, 2 ** e] for e in range(7)]
    path = _write_config(work / "evolve-canonical-dump.yaml", seed, gas, container,
                         {"kind": "canonical", "weights": [[6, 0.6], [7, 0.4]]},
                         {"initial": "sample", "dump_states": True,
                          "n_times": 101 if small else 1001})
    return [Invocation("evolve", "evolve", path,
                       partial(check_evolve, levels=(gas, container)))]


_BUILDERS = {
    "configs": _configs,
    "sample-canonical-wide": _sample_canonical_wide,
    "evolve-micro-dense": _evolve_micro_dense,
    "evolve-canonical-dump": _evolve_canonical_dump,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, work: Path, small: bool = False) -> list[Invocation]:
    """Invocations of workload ``name``; generated configs go into ``work``."""
    return _BUILDERS[name](seed, work, small)
