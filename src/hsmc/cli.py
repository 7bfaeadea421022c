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
from functools import partial
import json
import os
import sys

import numpy as np

from . import __version__
from .analytics import (dominant_distribution, expected_purity_approx, fit_temperature,
                        hypersphere_moment, hypersphere_moment_mc,
                        lubkin_average, marginal_gas_distribution,
                        max_entropy_micro, min_purity_state, region_mean_purity)
from .config import ConfigError, ExperimentConfig, build_experiment, load_config
from .dynamics import (NumericalValidationError, build_canonical_hamiltonian,
                       build_microcanonical_hamiltonian, effective_velocity, evolve, max_drift)
from .sampling import (CANONICAL, MICROCANONICAL, mc_estimate, measure_draws, sample_chunks,
                       sample_gas_states, substream)
from .state import PureState, _write_csv, product_state, purity_entropy, write_amplitudes_csv

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
        value = value.item()
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
    composite, gas, container = cfg.composite, cfg.composite.gas, cfg.composite.container
    micro = cfg.constraint.kind == MICROCANONICAL
    # A microcanonical constraint fixes subspace weights, hence the gas level
    # weights and the shell weights; a canonical one fixes shell weights only.
    w_shell = weights = cfg.constraint.resolve(composite)
    if micro:
        gas_marginal, w_shell = composite.gas_level_sums(weights), composite.shell_sums(weights)
    # A weight the constraint implies may sum off 1 by more than the given ones, or a
    # shell weight may be too small for a finite multiplier: the config is refused.
    try:
        predictions = {
            "constraint_kind": cfg.constraint.kind,
            "min_purity": min_purity_state(gas, gas_marginal)[1] if micro else None,
            "max_entropy": max_entropy_micro(gas, gas_marginal) if micro else None,
            "expected_purity_exact": region_mean_purity(composite, cfg.constraint),
            "expected_purity_approx": (expected_purity_approx(
                composite, cfg.gas_weights, cfg.container_weights)
                if micro and cfg.gas_weights is not None else None),
            "lubkin_average": (lubkin_average(gas.dim, container.dim)
                               if gas.n_levels == container.n_levels == 1 else None),
        }
        # Shell weights implied by the constraint drive the canonical attractor.
        dd = dominant_distribution(composite, w_shell)
        marginal = marginal_gas_distribution(dd)
        attractor = max_entropy_micro(gas, marginal), min_purity_state(gas, marginal)[1]
    except ValueError as exc:
        raise ConfigError(f"constraint invalid: {exc}") from None
    try:
        kt, residual = fit_temperature(gas, marginal)
    except ValueError:
        kt = residual = None
    members = np.argsort(composite.block_of(CANONICAL), kind="stable")  # shell by shell
    a, b = divmod(members, container.n_levels)
    predictions["dominant"] = {
        "shell_weights": list(map(list, zip(composite.shell_energies.tolist(), w_shell.tolist()))),
        "lambdas": list(map(list, dd.lambdas.items())),
        "w_d": list(map(list, zip(a.tolist(), b.tolist(), dd.w_d[members].tolist()))),
        "marginal_gas": marginal,
        "attractor_entropy": attractor[0],
        "attractor_purity": attractor[1],
        "kT": kt,
        "fit_residual": residual,
    }

    out_dir = _prepare_out_dir(cfg)
    report = dict(_run_header(cfg), predictions=predictions)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _say(cfg, json.dumps(_jsonable(predictions), indent=2))
    return 0


def cmd_sample(cfg: ExperimentConfig) -> int:
    composite, n = cfg.composite, cfg.n_samples
    try:
        purities, entropies = measure_draws(
            purity_entropy, 2, partial(sample_gas_states, composite, cfg.constraint, cfg.seed), n)
    except ValueError as exc:  # a failed norm or density check
        raise NumericalValidationError(str(exc)) from exc

    out_dir = _prepare_out_dir(cfg)
    _write_csv(os.path.join(out_dir, "samples.csv"), [
        "# hsmc samples v2",
        f"# config_hash={cfg.config_hash()} version={__version__} seed={cfg.seed} n={n}",
        "sample,purity,entropy",
    ], [purities, entropies])

    summary_lines = ["# hsmc mc-summary v1", "measure,mean,std_error,n_samples,seed"]
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
    if cfg.initial == "product":  # build_experiment checked the constraint is product-form
        return product_state(cfg.composite, cfg.gas_weights, cfg.container_weights)
    return PureState(cfg.composite, next(sample_chunks(cfg.composite, cfg.constraint,
                                                       cfg.seed, 1, 1))[0], check=False)


def cmd_evolve(cfg: ExperimentConfig) -> int:
    composite, micro = cfg.composite, cfg.constraint.kind == MICROCANONICAL
    build = build_microcanonical_hamiltonian if micro else build_canonical_hamiltonian
    hamiltonian = build(composite, cfg.coupling, substream(cfg.seed, 0))
    conserved = "subspace_weights" if micro else "shell_weights"
    initial = _initial_state(cfg)
    names = ("norm", "energy", "v_eff", "purity", "entropy")
    times = np.linspace(0.0, cfg.t_max, cfg.n_times)
    states_dir = os.path.join(cfg.out_dir, "states")
    if cfg.dump_states:
        os.makedirs(states_dir, exist_ok=True)

    def dump(start: int, rows: np.ndarray) -> None:
        for k, row in enumerate(rows, start):
            write_amplitudes_csv(PureState(composite, row, check=False),
                                 os.path.join(states_dir, f"state_{k:05d}.csv"))

    traj = evolve(initial, hamiltonian, times, dump if cfg.dump_states else None)

    out_dir = _prepare_out_dir(cfg)
    sub_cols = [f"w_{a}_{b}" for a in range(composite.gas.n_levels)
                for b in range(composite.container.n_levels)]
    shell_cols = [f"wE_{k}" for k in range(composite.n_shells)]
    gas_cols = [f"wA_{a}" for a in range(composite.gas.n_levels)]
    shell_legend = " ".join(
        f"wE_{k}:E={energy!r}" for k, energy in enumerate(composite.shell_energies.tolist()))
    _write_csv(os.path.join(out_dir, "trajectory.csv"), [
        "# hsmc trajectory v3",
        f"# config_hash={cfg.config_hash()} version={__version__} seed={cfg.seed}",
        f"# shells: {shell_legend}",
        ",".join(["t", *names] + sub_cols + shell_cols + gas_cols),
    ], [traj.times, *(traj.measures[name] for name in (
        *names, "subspace_weights", "shell_weights", "gas_level_weights"))], indexed=False)

    drifts = {name: max_drift(traj, name) for name in
              ("norm", "energy", "v_eff", "subspace_weights", "shell_weights")}
    # energy and v_eff round off relative to H's scale, the norm does not
    scale = max(1.0, *(float(np.max(np.abs(b.energies))) for b in hamiltonian.blocks))
    limits = [(conserved, cfg.conservation_tolerance), ("norm", ENERGY_DRIFT_TOLERANCE)] + [
        (name, ENERGY_DRIFT_TOLERANCE * scale) for name in ("energy", "v_eff")]
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
                "energy_scale": scale,
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
    z = (estimate.mean - exact) / estimate.std_error if estimate.std_error > 0 else None
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
