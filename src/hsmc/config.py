"""Experiment configuration: YAML schema, validation, and resolution.

A config file declares the two spectra, the constraint profile, and run
parameters; the CLI subcommand picks which parts are required.  Every
validation problem raises ConfigError with a message naming the offending
key, which the CLI maps to exit code 2.

The resolved configuration (all defaults filled in) is a plain dict that is
hashed and echoed into every output artifact, so a run can always be traced
back to the exact inputs that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import json
import math

import numpy as np
import yaml

from .analytics import MomentQuery
from .sampling import (CANONICAL, MICROCANONICAL, ConstraintProfile,
                       canonical_profile, microcanonical_profile,
                       product_constraint)
from .spectrum import (DEFAULT_SHELL_TOLERANCE, CompositeSpectrum, Spectrum,
                       build_spectrum, compose)
from .state import WeightProfile, shell_weights

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_experiment"]

DEFAULT_N_SAMPLES = 10_000
DEFAULT_COUPLING = 0.1
DEFAULT_N_TIMES = 201
DEFAULT_CONSERVATION_TOLERANCE = 1e-10
# Counts must fit a signed 64-bit array size; larger ones cannot even be tried.
MAX_COUNT = 2**63
# Most Monte Carlo points of one `moments` run: about a minute at ~1.7e7 points/s.
MAX_MOMENT_POINTS = 2**30


class ConfigError(Exception):
    """A configuration file or override is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved, validated inputs for one CLI run."""

    command: str
    resolved: dict
    seed: int
    out_dir: str
    quiet: bool
    gas: Spectrum | None = None
    container: Spectrum | None = None
    composite: CompositeSpectrum | None = None
    constraint: ConstraintProfile | None = None
    gas_profile: WeightProfile | None = None
    container_profile: WeightProfile | None = None
    n_samples: int = DEFAULT_N_SAMPLES
    coupling: float = DEFAULT_COUPLING
    times: np.ndarray | None = None
    conservation_tolerance: float = DEFAULT_CONSERVATION_TOLERANCE
    initial_kind: str = "product"
    dump_states: bool = False
    moment_query: MomentQuery | None = None

    def config_hash(self) -> str:
        """sha256 of the canonical JSON form of the resolved config.

        The output section (artifact location, verbosity) is excluded: two
        runs of the same experiment hash the same wherever results land.
        """
        hashed = {k: v for k, v in self.resolved.items() if k != "output"}
        canonical = json.dumps(hashed, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path) -> dict:
    """Read a YAML config file into a dict, mapping parse errors to ConfigError."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. a 5000-digit integer
        raise ConfigError(f"config file {path} cannot be parsed as YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping at the top level")
    return raw


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _spectrum_from(raw: dict, name: str) -> Spectrum:
    section = raw.get(name)
    if not isinstance(section, dict) or "levels" not in section:
        raise ConfigError(f"missing section {name!r} with a 'levels' list")
    levels = section["levels"]
    if not isinstance(levels, list) or not levels:
        raise ConfigError(f"{name}.levels must be a nonempty list of [energy, degeneracy]")
    try:
        return build_spectrum([tuple(entry) for entry in levels], label=name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}.levels invalid: {exc}") from exc


def _float_field(section: dict, section_name: str, key: str, default):
    value = section.get(key, default)
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{section_name}.{key} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section_name}.{key} must be finite, got {value!r}")
    return value


def _int_field(section: dict, section_name: str, key: str, default):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{section_name}.{key} must be a finite integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{section_name}.{key} must be an integer, got {value!r}") from None


def _bool_field(section: dict, section_name: str, key: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{section_name}.{key} must be true or false, got {value!r}")
    return value


def _weight_profile(spectrum: Spectrum, values, where: str) -> WeightProfile:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of weights")
    try:
        return WeightProfile(spectrum=spectrum, weights=tuple(float(v) for v in values))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} invalid: {exc}") from exc


def _build_constraint(raw: dict, composite: CompositeSpectrum,
                      gas: Spectrum, container: Spectrum):
    """Returns (profile, gas_profile | None, container_profile | None)."""
    section = raw.get("constraint")
    if not isinstance(section, dict):
        raise ConfigError("missing 'constraint' section")
    kind = section.get("kind")
    if kind not in (MICROCANONICAL, CANONICAL):
        raise ConfigError(
            f"constraint.kind must be '{MICROCANONICAL}' or '{CANONICAL}', got {kind!r}"
        )

    has_product = "gas_weights" in section or "container_weights" in section
    has_explicit = "weights" in section
    if has_product == has_explicit:
        raise ConfigError(
            "constraint needs either gas_weights + container_weights or an "
            "explicit 'weights' list, not both or neither"
        )

    gas_profile = container_profile = None
    if has_product:
        if "gas_weights" not in section or "container_weights" not in section:
            raise ConfigError("product constraints need both gas_weights and container_weights")
        gas_profile = _weight_profile(gas, section["gas_weights"], "constraint.gas_weights")
        container_profile = _weight_profile(container, section["container_weights"],
                                            "constraint.container_weights")
        if kind == MICROCANONICAL:
            profile = product_constraint(composite, gas_profile, container_profile)
        else:
            w_shell = shell_weights(composite, gas_profile, container_profile)
            profile = canonical_profile({
                shell.energy: float(w)
                for shell, w in zip(composite.shells, w_shell)
            })
    else:
        entries = section["weights"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("constraint.weights must be a nonempty list")
        try:
            if kind == MICROCANONICAL:
                mapping = {}
                for entry in entries:
                    A, B, w = entry
                    mapping[(int(A), int(B))] = float(w)
                profile = microcanonical_profile(mapping)
            else:
                mapping = {}
                for entry in entries:
                    energy, w = entry
                    mapping[float(energy)] = float(w)
                profile = canonical_profile(mapping)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"constraint.weights invalid: {exc}") from exc

    try:
        profile.resolve(composite)
    except KeyError as exc:
        raise ConfigError(f"constraint.weights inconsistent with the spectra: {exc}") from exc
    return profile, gas_profile, container_profile


def build_experiment(raw: dict, command: str, seed: int | None = None,
                     n: int | None = None, out: str | None = None,
                     quiet: bool | None = None) -> ExperimentConfig:
    """Validate a raw config dict for ``command`` and apply CLI overrides.

    ``seed``, ``n``, ``out`` and ``quiet`` override the corresponding file
    entries.  The seed is mandatory: it must come from the file or the flag.
    """
    run = _section(raw, "run")
    output = _section(raw, "output")

    if seed is None:
        seed = _int_field(run, "run", "seed", None)
    if seed is None:
        raise ConfigError("a seed is mandatory: set run.seed or pass --seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed must be in [0, 2**64), got {seed}")

    n_samples = n if n is not None else _int_field(run, "run", "n_samples", DEFAULT_N_SAMPLES)
    if not 1 <= n_samples < MAX_COUNT:
        raise ConfigError(f"run.n_samples must be in [1, 2**63), got {n_samples}")

    out_dir, file_quiet = output.get("dir", "out"), _bool_field(output, "output", "quiet")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.dir must be a nonempty string, got {out_dir!r}")
    out_dir = out if out is not None else out_dir
    quiet = file_quiet if quiet is None else quiet

    coupling = _float_field(run, "run", "coupling", DEFAULT_COUPLING)
    if coupling < 0:
        raise ConfigError("run.coupling must be >= 0")
    conservation_tolerance = _float_field(run, "run", "conservation_tolerance",
                                          DEFAULT_CONSERVATION_TOLERANCE)
    if conservation_tolerance <= 0:
        raise ConfigError("run.conservation_tolerance must be > 0")

    default_t_max = 50.0 / coupling if coupling > 0 else 50.0
    t_max = _float_field(run, "run", "t_max", default_t_max)
    n_times = _int_field(run, "run", "n_times", DEFAULT_N_TIMES)
    if t_max <= 0:
        raise ConfigError("run.t_max must be > 0")
    if not 2 <= n_times < MAX_COUNT:
        raise ConfigError(f"run.n_times must be in [2, 2**63), got {n_times}")
    times = np.linspace(0.0, t_max, n_times) if command == "evolve" else None

    initial_kind = str(run.get("initial", "product"))
    if initial_kind not in ("product", "sample"):
        raise ConfigError(f"run.initial must be 'product' or 'sample', got {initial_kind!r}")
    dump_states = _bool_field(run, "run", "dump_states")

    resolved = {
        "command": command,
        "run": {
            "seed": seed,
            "n_samples": n_samples,
            "coupling": coupling,
            "t_max": t_max,
            "n_times": n_times,
            "conservation_tolerance": conservation_tolerance,
            "initial": initial_kind,
            "dump_states": dump_states,
        },
        "output": {"dir": out_dir, "quiet": quiet},
    }

    gas = container = composite = None
    constraint = gas_profile = container_profile = None
    moment_query = None

    if command == "moments":
        section = raw.get("moments")
        if not isinstance(section, dict):
            raise ConfigError("the moments command needs a 'moments' section")
        for key in ("R", "d", "u_l", "u_m"):
            if key not in section:
                raise ConfigError(f"moments.{key} is required")
        try:
            moment_query = MomentQuery(
                R=_float_field(section, "moments", "R", None),
                d=_int_field(section, "moments", "d", None),
                u_l=_int_field(section, "moments", "u_l", None),
                u_m=_int_field(section, "moments", "u_m", None),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"moments section invalid: {exc}") from exc
        if n_samples < 2:
            raise ConfigError("the moments command needs run.n_samples >= 2")
        if n_samples > MAX_MOMENT_POINTS:
            raise ConfigError(f"the moments command takes at most run.n_samples = 2**30 "
                              f"points, got {n_samples}")
        resolved["moments"] = {
            "R": moment_query.R, "d": moment_query.d,
            "u_l": moment_query.u_l, "u_m": moment_query.u_m,
        }
    else:
        gas = _spectrum_from(raw, "gas")
        container = _spectrum_from(raw, "container")
        shell_tolerance = _float_field(raw, "top level", "shell_tolerance",
                                       DEFAULT_SHELL_TOLERANCE)
        if shell_tolerance < 0:
            raise ConfigError("shell_tolerance must be >= 0")
        try:
            composite = compose(gas, container, shell_tolerance=shell_tolerance)
        except ValueError as exc:
            raise ConfigError(f"gas and container levels cannot be composed: {exc}") from exc
        constraint, gas_profile, container_profile = _build_constraint(
            raw, composite, gas, container)
        # |H| <= S, and the largest sum of squares of an evolve run is commutator_norms':
        # sum |H_jk (d_j - d_k)|^2 <= (2 S)^2 |H|_F^2 <= 4 dim S^4.
        scale = max(map(abs, gas.energies)) + max(map(abs, container.energies)) + coupling
        if command == "evolve" and not (math.isfinite(t_max * scale) and math.isfinite(
                4 * composite.dim * (scale * scale) * (scale * scale))):
            raise ConfigError(f"gas.levels, container.levels and run.coupling give evolve an "
                              f"energy scale S = {scale!r}: t_max S or 4 dim S^4 overflows")

        resolved["gas"] = {"levels": [[e, n_] for e, n_ in
                                      zip(gas.energies, gas.degeneracies)]}
        resolved["container"] = {"levels": [[e, n_] for e, n_ in
                                            zip(container.energies, container.degeneracies)]}
        resolved["shell_tolerance"] = shell_tolerance
        if gas_profile is not None:
            resolved["constraint"] = {
                "kind": constraint.kind,
                "gas_weights": list(gas_profile.weights),
                "container_weights": list(container_profile.weights),
            }
        else:
            if constraint.kind == MICROCANONICAL:
                entries = [[A, B, w] for (A, B), w in constraint.weights.items()]
            else:
                entries = [[energy, w] for energy, w in constraint.weights.items()]
            resolved["constraint"] = {"kind": constraint.kind, "weights": entries}

    return ExperimentConfig(
        command=command,
        resolved=resolved,
        seed=seed,
        out_dir=out_dir,
        quiet=quiet,
        gas=gas,
        container=container,
        composite=composite,
        constraint=constraint,
        gas_profile=gas_profile,
        container_profile=container_profile,
        n_samples=n_samples,
        coupling=coupling,
        times=times,
        conservation_tolerance=conservation_tolerance,
        initial_kind=initial_kind,
        dump_states=dump_states,
        moment_query=moment_query,
    )
