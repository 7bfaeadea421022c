"""Command-line experiment driver.

Subcommands: predict (closed-form report), sample (Monte Carlo over the
accessible region), evolve (Schrodinger propagation with conservation
checks), moments (hypersphere moment, closed form vs Monte Carlo).

Every run writes its fully resolved config, config hash, and code version
alongside the results; rerunning the same config file with the same seed
reproduces every output byte for byte.  No artifact contains a timestamp.

Exit codes: 0 success, 2 config error (a run too large for memory or output
that cannot be written included), 3 numerical-validation failure.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import sys

import numpy as np

from . import __version__
from .analytics import (dominant_distribution, expected_purity_approx,
                        expected_purity_exact, fit_temperature,
                        hypersphere_moment, hypersphere_moment_mc,
                        lubkin_average, marginal_gas_distribution,
                        max_entropy_micro, min_purity_state)
from .config import ConfigError, ExperimentConfig, build_experiment, load_config
from .dynamics import (NumericalValidationError, build_canonical_hamiltonian,
                       build_microcanonical_hamiltonian, effective_velocity,
                       evolve, max_drift)
from .fanout import fan_out
from .sampling import (MICROCANONICAL, mc_estimate, sample_batch, sample_chunks,
                       substream)
from .state import PureState, gas_purity_entropy, product_state, write_state_snapshots

ENERGY_DRIFT_TOLERANCE = 1e-9


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    return value


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _run_header(cfg: ExperimentConfig) -> dict:
    return {
        "version": __version__,
        "command": cfg.command,
        "config_hash": cfg.config_hash(),
        "config": cfg.resolved,
    }


def _prepare_out_dir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "run.json"), _run_header(cfg))
    return cfg.out_dir


def _say(cfg: ExperimentConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


def cmd_predict(cfg: ExperimentConfig) -> int:
    composite = cfg.composite
    predictions: dict = {"constraint_kind": cfg.constraint.kind}

    # A microcanonical constraint fixes subspace weights, hence the gas level
    # weights and the shell weights; a canonical one fixes shell weights only.
    w_shell = weights = cfg.constraint.resolve(composite)
    if cfg.constraint.kind == MICROCANONICAL:
        gas_marginal = composite.gas_level_sums(weights)
        w_shell = composite.shell_sums(weights)
        _, p_min = min_purity_state(cfg.gas, gas_marginal)
        predictions["min_purity"] = p_min
        predictions["max_entropy"] = max_entropy_micro(gas_marginal, cfg.gas.degeneracies)
    else:
        predictions["min_purity"] = None
        predictions["max_entropy"] = None

    if cfg.gas_profile is not None and cfg.constraint.kind == MICROCANONICAL:
        predictions["expected_purity_exact"] = expected_purity_exact(
            composite, cfg.gas_profile.as_array(), cfg.container_profile.as_array())
        predictions["expected_purity_approx"] = expected_purity_approx(
            cfg.gas_profile.as_array(), cfg.gas.degeneracies,
            cfg.container_profile.as_array(), cfg.container.degeneracies)
    else:
        predictions["expected_purity_exact"] = None
        predictions["expected_purity_approx"] = None

    if cfg.gas.n_levels == 1 and cfg.container.n_levels == 1:
        predictions["lubkin_average"] = lubkin_average(cfg.gas.dim, cfg.container.dim)
    else:
        predictions["lubkin_average"] = None

    # Shell weights implied by the constraint drive the canonical attractor.
    dd = dominant_distribution(composite, w_shell)
    marginal = marginal_gas_distribution(dd)
    attractor_entropy = max_entropy_micro(marginal, cfg.gas.degeneracies)
    attractor_purity = float(np.sum(
        marginal ** 2 / np.asarray(cfg.gas.degeneracies, dtype=float)))
    try:
        kt, residual = fit_temperature(cfg.gas, marginal)
    except ValueError:
        kt = residual = None
    predictions["dominant"] = {
        "shell_weights": [[shell.energy, w] for shell, w in zip(composite.shells, w_shell)],
        "lambdas": [[energy, lam] for energy, lam in dd.lambdas.items()],
        "w_d": [[A, B, w] for (A, B), w in dd.w_d.items()],
        "marginal_gas": marginal,
        "attractor_entropy": attractor_entropy,
        "attractor_purity": attractor_purity,
        "kT": kt,
        "fit_residual": residual,
    }

    out_dir = _prepare_out_dir(cfg)
    report = dict(_run_header(cfg), predictions=predictions)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _say(cfg, json.dumps(_jsonable(predictions), indent=2))
    return 0


def cmd_sample(cfg: ExperimentConfig) -> int:
    composite = cfg.composite
    n = cfg.n_samples
    try:  # purities and entropies, in memory shared with the forked workers
        results = np.frombuffer(mmap.mmap(-1, 2 * n * 8)).reshape(2, n)
    except (OverflowError, OSError) as exc:  # more bytes than addresses, or ENOMEM
        raise MemoryError(f"cannot map {2 * n} results: {exc}") from exc

    def draw(w: int, m: int) -> None:
        """Purity and entropy of draws n w / m to n (w + 1) / m - 1 into ``results``."""
        first, stop = n * w // m, n * (w + 1) // m
        start = first
        try:
            for amplitudes in sample_chunks(composite, cfg.constraint, cfg.seed,
                                            first, stop - first):
                results[:, start:start + len(amplitudes)] = gas_purity_entropy(
                    composite, amplitudes)
                start += len(amplitudes)
        except ValueError as exc:  # a failed norm or density check
            raise NumericalValidationError(f"draws {first} to {stop - 1}: {exc}") from exc

    fan_out(draw, n, "sample worker", needs_blas=True)
    purities, entropies = results

    out_dir = _prepare_out_dir(cfg)
    header = [
        "# hsmc samples v1",
        f"# config_hash={cfg.config_hash()} version={__version__} "
        f"seed={cfg.seed} n={n}",
        "sample,purity,entropy",
    ]
    rows = [f"{i},{p!r},{s!r}"
            for i, (p, s) in enumerate(zip(purities.tolist(), entropies.tolist()))]
    with open(os.path.join(out_dir, "samples.csv"), "w") as fh:
        fh.write("\n".join(header + rows) + "\n")

    summary_lines = [
        "# hsmc mc-summary v1",
        "measure,mean,std_error,n_samples,seed",
    ]
    if n >= 2:
        for name, values in (("purity", purities), ("entropy", entropies)):
            est = mc_estimate([values], cfg.seed)
            summary_lines.append(f"{name},{est.mean!r},{est.std_error!r},{n},{cfg.seed}")
            _say(cfg, f"{name}: mean={est.mean!r} std_error={est.std_error!r} "
                      f"(n={n}, seed={cfg.seed})")
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    return 0


def _initial_state(cfg: ExperimentConfig):
    if cfg.initial_kind == "product":
        if cfg.gas_profile is None:
            raise ConfigError(
                "run.initial=product needs a product-form constraint "
                "(gas_weights + container_weights); use run.initial=sample"
            )
        return product_state(cfg.composite, cfg.gas_profile, cfg.container_profile)
    return PureState(cfg.composite,
                     sample_batch(cfg.composite, cfg.constraint, cfg.seed, 1, 1)[0], check=False)


def cmd_evolve(cfg: ExperimentConfig) -> int:
    composite = cfg.composite
    rng = substream(cfg.seed, 0)
    if cfg.constraint.kind == MICROCANONICAL:
        hamiltonian = build_microcanonical_hamiltonian(composite, cfg.coupling, rng)
        conserved = "subspace_weights"
    else:
        hamiltonian = build_canonical_hamiltonian(composite, cfg.coupling, rng)
        conserved = "shell_weights"
    initial = _initial_state(cfg)
    traj = evolve(initial, hamiltonian, cfg.times)

    out_dir = _prepare_out_dir(cfg)
    sub_cols = [f"w_{s.A}_{s.B}" for s in composite.subspaces]
    shell_cols = [f"wE_{k}" for k in range(composite.n_shells)]
    gas_cols = [f"wA_{a}" for a in range(cfg.gas.n_levels)]
    shell_legend = " ".join(
        f"wE_{k}:E={shell.energy!r}" for k, shell in enumerate(composite.shells))
    header = [
        "# hsmc trajectory v1",
        f"# config_hash={cfg.config_hash()} version={__version__} seed={cfg.seed}",
        f"# shells: {shell_legend}",
        ",".join(["t", "norm", "energy", "v_eff", "purity", "entropy"]
                 + sub_cols + shell_cols + gas_cols),
    ]
    m = traj.measures
    table = np.column_stack([traj.times, *(m[name] for name in (
        "norm", "energy", "v_eff", "purity", "entropy", "subspace_weights",
        "shell_weights", "gas_level_weights"))])
    lines = header + [",".join(map(repr, row)) for row in table.tolist()]
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    if cfg.dump_states:
        write_state_snapshots(composite, traj.amplitudes, os.path.join(out_dir, "states"))

    drifts = {name: max_drift(traj, name) for name in
              ("norm", "energy", "v_eff", "subspace_weights", "shell_weights")}
    limits = [(conserved, cfg.conservation_tolerance)] + [
        (name, ENERGY_DRIFT_TOLERANCE) for name in ("norm", "energy", "v_eff")]
    breaches = [f"{name} drift {drifts[name]:.3e} exceeds {limit:.1e}"
                for name, limit in limits if not drifts[name] <= limit]

    report = dict(
        _run_header(cfg),
        conservation={
            "hamiltonian_kind": hamiltonian.kind,
            "coupling": cfg.coupling,
            "conserved_measure": conserved,
            "commutator_norms": hamiltonian.commutator_norms(),
            "weak_coupling_ratio": hamiltonian.weak_coupling_ratio(initial),
            "effective_velocity": effective_velocity(initial, hamiltonian),
            "path_length": traj.path_length,
            "drifts": drifts,
            "tolerances": {
                "conserved_weights": cfg.conservation_tolerance,
                "norm_energy_veff": ENERGY_DRIFT_TOLERANCE,
            },
            "pass": not breaches,
            "breaches": breaches,
        },
    )
    _write_json(os.path.join(out_dir, "conservation.json"), report)
    _say(cfg, f"evolved {len(traj.times)} steps to t={float(traj.times[-1])!r}; "
              f"{conserved} drift {drifts[conserved]:.3e}")
    if breaches:
        raise NumericalValidationError("; ".join(breaches))
    return 0


def cmd_moments(cfg: ExperimentConfig) -> int:
    query = cfg.moment_query
    exact = hypersphere_moment(query)
    estimate = hypersphere_moment_mc(query, cfg.n_samples, cfg.seed)
    z = None
    if estimate.std_error > 0:
        z = (estimate.mean - exact) / estimate.std_error
    out_dir = _prepare_out_dir(cfg)
    report = dict(_run_header(cfg), format="hsmc moments v2", moment={
        "R": query.R, "d": query.d, "u_l": query.u_l, "u_m": query.u_m,
        "exact": exact,
        "mc_mean": estimate.mean,
        "mc_std_error": estimate.std_error,
        "n_samples": estimate.n_samples,
        "seed": estimate.seed,
        "z_score": z,
    })
    _write_json(os.path.join(out_dir, "moments.json"), report)
    _say(cfg, f"A(R={query.R!r}, d={query.d}, {query.u_l}, {query.u_m}): "
              f"exact={exact!r} mc={estimate.mean!r} "
              f"std_error={estimate.std_error!r}")
    return 0


COMMANDS = {
    "predict": cmd_predict,
    "sample": cmd_sample,
    "evolve": cmd_evolve,
    "moments": cmd_moments,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsmc",
        description="Constrained pure-state statistics: predictions, sampling, "
                    "dynamics, and sphere moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, docline in (
        ("predict", "closed-form predictions as a JSON report"),
        ("sample", "Monte Carlo sampling of the accessible region"),
        ("evolve", "Schrodinger propagation with conservation checks"),
        ("moments", "hypersphere moment: closed form vs Monte Carlo"),
    ):
        p = sub.add_parser(name, help=docline)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config file")
        p.add_argument("--n", type=int, default=None,
                       help="override run.n_samples (samples or MC points)")
        p.add_argument("--out", default=None, help="override output.dir")
        p.add_argument("--quiet", action="store_true", default=None,
                       help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = build_experiment(raw, command=args.command, seed=args.seed,
                               n=args.n, out=args.out, quiet=args.quiet)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidationError as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading the config is a ConfigError, so this is output
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
