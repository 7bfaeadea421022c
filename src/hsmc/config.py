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

import contextlib
from dataclasses import dataclass
import hashlib
import json
import math

import yaml

from .analytics import MomentQuery
from .sampling import CANONICAL, MICROCANONICAL, ConstraintProfile, product_constraint
from .spectrum import (DEFAULT_SHELL_TOLERANCE, CompositeSpectrum, Spectrum,
                       build_spectrum, compose)
from .state import checked_weights, shell_weights

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
    """Fully resolved, validated inputs for one CLI run.

    The fields from ``seed`` on are the entries of ``resolved["run"]``, named
    after their keys.  The spectra, constraint and moment query are None for
    the commands that do not read them.
    """

    command: str
    resolved: dict
    out_dir: str
    quiet: bool
    composite: CompositeSpectrum | None
    constraint: ConstraintProfile | None
    gas_weights: tuple[float, ...] | None
    container_weights: tuple[float, ...] | None
    moment_query: MomentQuery | None
    seed: int
    n_samples: int
    coupling: float
    t_max: float
    n_times: int
    conservation_tolerance: float
    initial: str
    dump_states: bool

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
        return build_spectrum([tuple(entry) for entry in levels])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}.levels invalid: {exc}") from exc


def _number(value, where: str, integer: bool = False):
    """``value`` as a finite float, or as an int if ``integer``; ConfigError naming ``where`` else.

    ``null``, a truth value and, for an integer, a fraction are refused.  Text
    that parses as a number is read: PyYAML takes ``1e-3`` for a string.
    """
    if integer and not isinstance(value, (bool, float)):
        with contextlib.suppress(TypeError, ValueError):
            return int(value)  # an int or its text, exactly
    number = math.nan
    if value is not None and not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            number = float(value)
    if not math.isfinite(number) or (integer and not number.is_integer()):
        raise ConfigError(f"{where} must be a finite {'integer' if integer else 'number'}, "
                          f"got {value!r}")
    return int(number) if integer else number


def _bool_field(section: dict, section_name: str, key: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{section_name}.{key} must be true or false, got {value!r}")
    return value


def _weight_profile(section: dict, name: str, spectrum: Spectrum) -> tuple[float, ...]:
    """``constraint.<name>_weights``, one weight per level of ``spectrum``."""
    where, values = f"constraint.{name}_weights", section[f"{name}_weights"]
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of weights")
    weights = tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))
    try:
        checked_weights(weights, spectrum.n_levels, f"{name} weights")
    except ValueError as exc:
        raise ConfigError(f"{where} invalid: {exc}") from exc
    return weights


def _build_constraint(raw: dict, composite: CompositeSpectrum):
    """Returns (profile, gas_weights | None, container_weights | None, resolved section)."""
    section = raw.get("constraint")
    if not isinstance(section, dict):
        raise ConfigError("missing 'constraint' section")
    kind = section.get("kind")
    if kind not in (MICROCANONICAL, CANONICAL):
        raise ConfigError(
            f"constraint.kind must be '{MICROCANONICAL}' or '{CANONICAL}', got {kind!r}"
        )
    micro = kind == MICROCANONICAL

    has_product = "gas_weights" in section or "container_weights" in section
    has_explicit = "weights" in section
    if has_product == has_explicit:
        raise ConfigError(
            "constraint needs either gas_weights + container_weights or an "
            "explicit 'weights' list, not both or neither"
        )

    gas_weights = container_weights = None
    if has_product:
        if "gas_weights" not in section or "container_weights" not in section:
            raise ConfigError("product constraints need both gas_weights and container_weights")
        gas_weights = _weight_profile(section, "gas", composite.gas)
        container_weights = _weight_profile(section, "container", composite.container)
        if micro:
            profile = product_constraint(composite, gas_weights, container_weights)
        else:
            w_shell = shell_weights(composite, gas_weights, container_weights)
            profile = ConstraintProfile(kind, {
                energy: float(w) for energy, w in zip(composite.shell_energies.tolist(), w_shell)})
        resolved = {"kind": kind, "gas_weights": list(gas_weights),
                    "container_weights": list(container_weights)}
    else:
        entries = section["weights"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("constraint.weights must be a nonempty list")
        mapping = {}
        for i, entry in enumerate(entries):
            where = f"constraint.weights[{i}]"
            if not isinstance(entry, list) or len(entry) != (3 if micro else 2):
                raise ConfigError(f"{where} must be "
                                  f"{'[A, B, W_AB]' if micro else '[energy, W_E]'}, got {entry!r}")
            *key, w = entry
            key = (tuple(_number(k, where, integer=True) for k in key) if micro
                   else _number(key[0], where))
            if key in mapping:
                raise ConfigError(f"{where} repeats the {'subspace' if micro else 'shell energy'} "
                                  f"{key!r} of an earlier entry")
            mapping[key] = _number(w, where)
        try:
            profile = ConstraintProfile(kind, mapping)
        except ValueError as exc:
            raise ConfigError(f"constraint.weights invalid: {exc}") from exc
        resolved = {"kind": kind, "weights": [[*k, w] if micro else [k, w]
                                              for k, w in mapping.items()]}

    try:
        profile.resolve(composite)
    except KeyError as exc:
        raise ConfigError(f"constraint.weights inconsistent with the spectra: {exc}") from exc
    return profile, gas_weights, container_weights, resolved


def build_experiment(raw: dict, command: str, seed: int | None = None,
                     n: int | None = None, out: str | None = None,
                     quiet: bool | None = None) -> ExperimentConfig:
    """Validate a raw config dict for ``command`` and apply CLI overrides.

    ``seed``, ``n``, ``out`` and ``quiet`` override the corresponding file
    entries.  The seed is mandatory: it must come from the file or the flag.
    """
    given = _section(raw, "run")
    output = _section(raw, "output")

    def number(key: str, default, integer: bool = False):
        return _number(given.get(key, default), f"run.{key}", integer)

    if seed is None and "seed" not in given:
        raise ConfigError("a seed is mandatory: set run.seed or pass --seed")
    run = {"seed": number("seed", None, integer=True) if seed is None else seed}
    if not 0 <= run["seed"] < 2**64:
        raise ConfigError(f"run.seed must be in [0, 2**64), got {run['seed']}")
    run["n_samples"] = n if n is not None else number("n_samples", DEFAULT_N_SAMPLES, integer=True)
    if not 1 <= run["n_samples"] < MAX_COUNT:
        raise ConfigError(f"run.n_samples must be in [1, 2**63), got {run['n_samples']}")

    out_dir, file_quiet = output.get("dir", "out"), _bool_field(output, "output", "quiet")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.dir must be a nonempty string, got {out_dir!r}")
    out_dir = out if out is not None else out_dir
    quiet = file_quiet if quiet is None else quiet

    run["coupling"] = coupling = number("coupling", DEFAULT_COUPLING)
    if coupling < 0:
        raise ConfigError("run.coupling must be >= 0")
    t_max = 50.0 / coupling if coupling > 0 else 50.0
    if "t_max" not in given and not math.isfinite(t_max):
        raise ConfigError(f"run.coupling = {coupling!r} makes the default run.t_max = "
                          f"50 / run.coupling overflow: set run.t_max")
    run["t_max"] = number("t_max", t_max)
    if run["t_max"] <= 0:
        raise ConfigError("run.t_max must be > 0")
    run["n_times"] = number("n_times", DEFAULT_N_TIMES, integer=True)
    if not 2 <= run["n_times"] < MAX_COUNT:
        raise ConfigError(f"run.n_times must be in [2, 2**63), got {run['n_times']}")
    run["conservation_tolerance"] = number("conservation_tolerance",
                                           DEFAULT_CONSERVATION_TOLERANCE)
    if run["conservation_tolerance"] <= 0:
        raise ConfigError("run.conservation_tolerance must be > 0")
    run["initial"] = str(given.get("initial", "product"))
    if run["initial"] not in ("product", "sample"):
        raise ConfigError(f"run.initial must be 'product' or 'sample', got {run['initial']!r}")
    run["dump_states"] = _bool_field(given, "run", "dump_states")

    resolved = {"command": command, "run": run, "output": {"dir": out_dir, "quiet": quiet}}
    composite = constraint = gas_weights = container_weights = moment_query = None

    if command == "moments":
        section = raw.get("moments")
        if not isinstance(section, dict):
            raise ConfigError("the moments command needs a 'moments' section")
        for key in ("R", "d", "u_l", "u_m"):
            if key not in section:
                raise ConfigError(f"moments.{key} is required")
        resolved["moments"] = {key: _number(section[key], f"moments.{key}", key != "R")
                               for key in ("R", "d", "u_l", "u_m")}
        try:
            moment_query = MomentQuery(**resolved["moments"])
        except ValueError as exc:
            raise ConfigError(f"moments section invalid: {exc}") from exc
        if run["n_samples"] < 2:
            raise ConfigError("the moments command needs run.n_samples >= 2")
        if run["n_samples"] > MAX_MOMENT_POINTS:
            raise ConfigError(f"the moments command takes at most run.n_samples = 2**30 "
                              f"points, got {run['n_samples']}")
    else:
        gas = _spectrum_from(raw, "gas")
        container = _spectrum_from(raw, "container")
        shell_tolerance = _number(raw.get("shell_tolerance", DEFAULT_SHELL_TOLERANCE),
                                  "shell_tolerance")
        if shell_tolerance < 0:
            raise ConfigError("shell_tolerance must be >= 0")
        try:
            composite = compose(gas, container, shell_tolerance=shell_tolerance)
        except ValueError as exc:
            raise ConfigError(f"gas and container levels cannot be composed: {exc}") from exc
        for name, spectrum in (("gas", gas), ("container", container)):
            resolved[name] = {"levels": [[e, n_] for e, n_ in
                                         zip(spectrum.energies, spectrum.degeneracies)]}
        resolved["shell_tolerance"] = shell_tolerance
        constraint, gas_weights, container_weights, resolved["constraint"] = _build_constraint(
            raw, composite)
        # |H| <= S, and the largest sum of squares of an evolve run is commutator_norms':
        # sum |H_jk (d_j - d_k)|^2 <= (2 S)^2 |H|_F^2 <= 4 dim S^4.
        scale = max(map(abs, gas.energies)) + max(map(abs, container.energies)) + coupling
        if command == "evolve" and not (math.isfinite(run["t_max"] * scale) and math.isfinite(
                4 * composite.dim * (scale * scale) * (scale * scale))):
            raise ConfigError(f"gas.levels, container.levels and run.coupling give evolve an "
                              f"energy scale S = {scale!r}: t_max S or 4 dim S^4 overflows")
        if command == "evolve" and run["initial"] == "product" and gas_weights is None:
            raise ConfigError("run.initial=product needs a product-form constraint "
                              "(gas_weights + container_weights); use run.initial=sample")

    return ExperimentConfig(command=command, resolved=resolved, out_dir=out_dir, quiet=quiet,
                            composite=composite, constraint=constraint,
                            gas_weights=gas_weights, container_weights=container_weights,
                            moment_query=moment_query, **run)
