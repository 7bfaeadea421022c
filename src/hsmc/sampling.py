"""Uniform sampling of constrained pure states and Monte Carlo averaging.

Both constraint types pin the state to a product of hyperspheres: the
microcanonical region fixes the probability W_AB of every degeneracy subspace,
the canonical region only the probability W_E of every total-energy shell.
Sampling draws standard normals for each sphere and rescales them to the
sphere radius, which is exactly uniform on the product of spheres with no
rejection step.

Reproducibility contract: sample i of a run always comes from the dedicated
counter-based stream ``substream(seed, i)``, so serial runs, resumed runs and
parallel fan-outs all produce bit-identical sample sequences.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
import math

import numpy as np

from .spectrum import CompositeSpectrum
from .state import PureState, WeightProfile, checked_weights, subspace_weights

__all__ = [
    "MICROCANONICAL",
    "CANONICAL",
    "ConstraintProfile",
    "microcanonical_profile",
    "canonical_profile",
    "product_constraint",
    "McEstimate",
    "mc_estimate",
    "substream",
    "sample_microcanonical",
    "sample_canonical",
    "sample_stream",
    "mc_average",
]

MICROCANONICAL = "microcanonical"
CANONICAL = "canonical"


@dataclass(frozen=True)
class ConstraintProfile:
    """Constraint data defining an accessible region.

    ``weights`` maps (A, B) -> W_AB for a microcanonical profile and shell
    energy E -> W_E for a canonical one.  Keys absent from the map carry zero
    weight; zero-weight blocks receive exactly zero amplitudes and consume no
    randomness when sampling.
    """

    kind: str
    weights: Mapping

    def __post_init__(self):
        if self.kind not in (MICROCANONICAL, CANONICAL):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not self.weights:
            raise ValueError("constraint profile needs at least one weight")
        checked_weights(list(self.weights.values()), len(self.weights), "constraint weights")

    def resolve(self, composite: CompositeSpectrum) -> np.ndarray:
        """Dense weight vector aligned with the composite's subspaces or shells.

        Raises KeyError if a weight key names no subspace / shell of the
        composite, or if two keys land on the same target.
        """
        if self.kind == MICROCANONICAL:
            out = np.zeros(composite.n_subspaces)
            seen = set()
            for key, w in self.weights.items():
                A, B = key
                i = composite.subspace_index(int(A), int(B))
                if i in seen:
                    raise KeyError(f"duplicate weight for subspace {(A, B)}")
                seen.add(i)
                out[i] = float(w)
        else:
            out = np.zeros(composite.n_shells)
            seen = set()
            for energy, w in self.weights.items():
                i = composite.shell_index_at(float(energy))
                if i in seen:
                    raise KeyError(f"two weight keys resolve to the shell at "
                                   f"E={composite.shells[i].energy}")
                seen.add(i)
                out[i] = float(w)
        return out


def microcanonical_profile(weights: Mapping) -> ConstraintProfile:
    """Profile fixing every subspace weight, keys (A, B)."""
    return ConstraintProfile(kind=MICROCANONICAL, weights=dict(weights))


def canonical_profile(weights: Mapping) -> ConstraintProfile:
    """Profile fixing only shell weights, keys = shell energies."""
    return ConstraintProfile(kind=CANONICAL, weights=dict(weights))


def product_constraint(composite: CompositeSpectrum, gas_profile: WeightProfile,
                       container_profile: WeightProfile) -> ConstraintProfile:
    """Microcanonical profile of a product initial state: W_AB = W_A * W_B."""
    w_sub = subspace_weights(composite, gas_profile, container_profile)
    weights = {(s.A, s.B): float(w) for s, w in zip(composite.subspaces, w_sub)}
    return ConstraintProfile(kind=MICROCANONICAL, weights=weights)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo sample mean with its standard error and provenance."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.std_error >= 0:
            raise ValueError(f"std_error {self.std_error!r} must be >= 0")


def mc_estimate(chunks: Iterable[np.ndarray], seed: int) -> McEstimate:
    """Mean and standard error of all values in ``chunks``, merged chunk by chunk.

    Each chunk contributes its mean and sum of squared deviations; chunks are
    combined with the pairwise update of Chan, Golub and LeVeque.  A single
    chunk gives exactly ``values.mean()``.  Needs at least 2 values in total.
    """
    count = 0
    mean = 0.0
    m2 = 0.0
    for values in chunks:
        values = np.asarray(values, dtype=float)
        m = values.size
        chunk_mean = float(values.mean())
        delta = chunk_mean - mean
        total = count + m
        mean = chunk_mean if count == 0 else mean + delta * m / total
        m2 += float(np.sum((values - chunk_mean) ** 2)) + delta * delta * count * m / total
        count = total
    if count < 2:
        raise ValueError("a standard error needs at least 2 values")
    std_error = math.sqrt(m2 / (count - 1) / count)
    return McEstimate(mean=mean, std_error=std_error, n_samples=count, seed=seed)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for sample ``index`` of run ``seed``.

    Streams with different (seed, index) pairs are statistically independent,
    so parallel workers assigned disjoint index ranges reproduce the serial
    sample sequence exactly.
    """
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError("seed and index must be integers in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _fill_sphere_blocks(amplitudes: np.ndarray, slices, radii, rng) -> None:
    """Write one uniform draw per sphere block into the flat amplitude vector.

    ``slices`` yields, per block, either a slice or an index array into
    ``amplitudes``; ``radii`` the matching sphere radii.  All normal variates
    come from a single rng call, so block boundaries do not affect the stream.
    """
    sizes = [(s.stop - s.start) if isinstance(s, slice) else len(s) for s in slices]
    draws = rng.standard_normal(2 * int(sum(sizes)))
    pos = 0
    for target, n, radius in zip(slices, sizes, radii):
        block = draws[pos:pos + 2 * n]
        pos += 2 * n
        norm = float(np.linalg.norm(block))
        while norm == 0.0:
            block = rng.standard_normal(2 * n)
            norm = float(np.linalg.norm(block))
        amplitudes[target] = (radius / norm) * block.view(np.complex128)


def sample_microcanonical(composite: CompositeSpectrum, profile: ConstraintProfile,
                          rng: np.random.Generator) -> PureState:
    """Uniform draw from the region with fixed subspace weights {W_AB}.

    Each subspace's amplitudes are uniform on the real 2*N_AB-dimensional
    sphere of radius sqrt(W_AB), independently across subspaces.
    """
    if profile.kind != MICROCANONICAL:
        raise ValueError(f"expected a microcanonical profile, got {profile.kind!r}")
    w = profile.resolve(composite)
    amplitudes = np.zeros(composite.dim, dtype=complex)
    active = np.flatnonzero(w > 0)
    _fill_sphere_blocks(
        amplitudes,
        [composite.block_slice(int(i)) for i in active],
        [math.sqrt(w[i]) for i in active],
        rng,
    )
    return PureState(composite, amplitudes)


def sample_canonical(composite: CompositeSpectrum, profile: ConstraintProfile,
                     rng: np.random.Generator) -> PureState:
    """Uniform draw from the region with fixed shell weights {W_E}.

    Each shell's amplitudes (all subspaces with E_A + E_B = E together) are
    uniform on the 2*N_E-dimensional sphere of radius sqrt(W_E).
    """
    if profile.kind != CANONICAL:
        raise ValueError(f"expected a canonical profile, got {profile.kind!r}")
    w = profile.resolve(composite)
    amplitudes = np.zeros(composite.dim, dtype=complex)
    active = np.flatnonzero(w > 0)
    _fill_sphere_blocks(
        amplitudes,
        [composite.shell_flat_indices(int(i)) for i in active],
        [math.sqrt(w[i]) for i in active],
        rng,
    )
    return PureState(composite, amplitudes)


def sample_stream(sampler: Callable[[np.random.Generator], PureState],
                  seed: int, start: int = 0) -> Iterator[PureState]:
    """Endless stream of independent samples; sample i uses substream(seed, i)."""
    i = start
    while True:
        yield sampler(substream(seed, i))
        i += 1


def mc_average(measure: Callable[[PureState], float],
               sampler: Callable[[np.random.Generator], PureState],
               n: int, seed: int) -> McEstimate:
    """Sample mean and standard error of ``measure`` over ``n`` independent draws.

    Deterministic given ``seed``; the i-th draw always comes from
    substream(seed, i) regardless of batching.
    """
    if n < 2:
        raise ValueError("mc_average needs n >= 2 to estimate a standard error")
    values = [float(measure(sampler(substream(seed, i)))) for i in range(n)]
    return mc_estimate([values], seed)
