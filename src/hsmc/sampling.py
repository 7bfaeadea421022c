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

from .fanout import fan_out, shared_array
from .spectrum import CANONICAL, MICROCANONICAL, CompositeSpectrum
from .state import (BATCH_ELEMENTS, PureState, WeightProfile, batch_rows,
                    check_normalized, checked_weights, subspace_weights)

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
    "sample_chunks",
    "measure_draws",
    "mc_average",
]


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
        micro = self.kind == MICROCANONICAL
        out, seen = np.zeros(len(composite.blocks(self.kind))), set()
        for key, w in self.weights.items():
            if micro:
                A, B = key
                i = composite.subspace_index(int(A), int(B))
            else:
                i = composite.shell_index_at(float(key))
            if i in seen:
                raise KeyError(f"duplicate weight for subspace {(A, B)}" if micro else
                               f"two weight keys resolve to the shell at "
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
    """Mean and standard error of all values in ``chunks``, merged piece by piece.

    Each chunk is cut into pieces of at most ``BATCH_ELEMENTS`` values, whose means
    and sums of squared deviations are combined with the pairwise update of Chan,
    Golub and LeVeque; a lone chunk of no more values gives exactly ``values.mean()``.
    A chunk is let go before the next is pulled.  Needs at least 2 values in total.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=float).ravel()
        for first in range(0, chunk.size, BATCH_ELEMENTS):
            values = chunk[first:first + BATCH_ELEMENTS]
            m = values.size
            piece_mean = float(values.mean())
            delta = piece_mean - mean
            total = count + m
            mean = piece_mean if count == 0 else mean + delta * m / total
            d = values - piece_mean
            m2 += float(np.sum(np.square(d, out=d))) + delta * delta * count * m / total
            count = total
            del values, d
        del chunk
    if count < 2:
        raise ValueError("a standard error needs at least 2 values")
    std_error = math.sqrt(m2 / (count - 1) / count)
    return McEstimate(mean=mean, std_error=std_error, n_samples=count, seed=seed)


def _check_keys(seed: int, start: int, count: int) -> None:
    if not (0 <= seed < 2**64 and 0 <= start and 0 <= count and start + count <= 2**64):
        raise ValueError("seed and index must be integers in [0, 2**64)")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for sample ``index`` of run ``seed``.

    Streams with different (seed, index) pairs are statistically independent,
    so parallel workers assigned disjoint index ranges reproduce the serial
    sample sequence exactly.
    """
    _check_keys(seed, index, 1)
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _sphere_blocks(composite: CompositeSpectrum, profile: ConstraintProfile):
    """The positive-weight blocks of ``profile``, in block order.

    Returns the start of each block in the concatenation of their amplitudes
    (n in all) plus n, the sphere radii sqrt(W), and ``source``: for each flat
    index, its position in that concatenation, or n where the weight is zero.
    """
    w = profile.resolve(composite)
    active = np.flatnonzero(w > 0)
    groups = [composite.blocks(profile.kind)[i] for i in active]
    bounds = np.concatenate(([0], np.cumsum([len(g) for g in groups])))
    source = np.full(composite.dim, bounds[-1])
    source[np.concatenate(groups)] = np.arange(bounds[-1])
    return bounds, np.sqrt(w[active]), source


def _fill(blocks, normals: np.ndarray, row_stream) -> np.ndarray:
    """Flat-layout amplitudes of one sphere draw per row of ``normals``.

    Each row holds the standard normals of the concatenated blocks, 2 per
    amplitude, all drawn by one call so block boundaries do not affect the
    stream, and then two zeros that fill the zero-weight blocks.  Each block
    is rescaled in place to its sphere radius; a block whose normals are all
    zero is drawn again, in block order, from ``row_stream(r)``: row r's own
    stream, just after that first call.  The norm of every row is checked.
    """
    bounds, radii, source = blocks
    spans = [slice(2 * a, 2 * b) for a, b in zip(bounds[:-1], bounds[1:])]
    norms = np.stack([np.sqrt(np.vecdot(normals[:, s], normals[:, s])) for s in spans], axis=1)
    for r in np.flatnonzero(np.any(norms == 0.0, axis=1)):
        rng = row_stream(r)
        for j in np.flatnonzero(norms[r] == 0.0):
            block = normals[r, spans[j]]
            while norms[r, j] == 0.0:
                rng.standard_normal(out=block)
                norms[r, j] = np.sqrt(np.vecdot(block, block))
    for s, radius, norm in zip(spans, radii, norms.T):
        normals[:, s] *= (radius / norm)[:, None]
    amplitudes = np.take(normals.view(np.complex128), source, axis=1)
    check_normalized(amplitudes)
    return amplitudes


def _sample_one(composite: CompositeSpectrum, profile: ConstraintProfile, kind: str,
                rng: np.random.Generator) -> PureState:
    if profile.kind != kind:
        raise ValueError(f"expected a {kind} profile, got {profile.kind!r}")
    blocks = _sphere_blocks(composite, profile)
    normals = np.zeros((1, 2 * blocks[0][-1] + 2))
    rng.standard_normal(out=normals[0, :-2])
    return PureState(composite, _fill(blocks, normals, lambda r: rng)[0], check=False)


def sample_microcanonical(composite: CompositeSpectrum, profile: ConstraintProfile,
                          rng: np.random.Generator) -> PureState:
    """Uniform draw from the region with fixed subspace weights {W_AB}.

    Each subspace's amplitudes are uniform on the real 2*N_AB-dimensional
    sphere of radius sqrt(W_AB), independently across subspaces.
    """
    return _sample_one(composite, profile, MICROCANONICAL, rng)


def sample_canonical(composite: CompositeSpectrum, profile: ConstraintProfile,
                     rng: np.random.Generator) -> PureState:
    """Uniform draw from the region with fixed shell weights {W_E}.

    Each shell's amplitudes (all subspaces with E_A + E_B = E together) are
    uniform on the 2*N_E-dimensional sphere of radius sqrt(W_E).
    """
    return _sample_one(composite, profile, CANONICAL, rng)


def sample_chunks(composite: CompositeSpectrum, profile: ConstraintProfile,
                  seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Draws ``start`` to ``start + count - 1`` of run ``seed``, ``batch_rows(dim)`` rows at a time.

    Yields (rows, dim) flat-layout amplitude arrays whose rows, in order, are
    the draws: row k is, bit for bit, the amplitudes that
    :func:`sample_microcanonical` or :func:`sample_canonical` (after
    ``profile.kind``) draws from ``substream(seed, start + k)``.  A row depends
    on its index alone, so any split of an index range into calls, and any
    chunking inside a call, gives the same rows, and every row passes the norm
    check of :class:`PureState`.  The profile is resolved and the blocks laid
    out once, and one Philox generator is re-keyed to [seed, index] for each
    row.  Memory stays at a few chunks however large ``count`` is.
    """
    _check_keys(seed, start, count)
    return _chunks(_sphere_blocks(composite, profile), batch_rows(composite.dim),
                   seed, start, count)


def _chunks(blocks, rows: int, seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    n_normals = 2 * blocks[0][-1]
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a copy: setting it copies back the reused key and zero counter
    key = state["state"]["key"]

    def stream(index: int) -> np.random.Generator:
        key[1] = index
        state["buffer_pos"], state["has_uint32"] = 4, 0
        bitgen.state = state
        return gen

    def after_first_call(index: int) -> np.random.Generator:
        stream(index).standard_normal(n_normals)
        return gen

    normals = np.zeros((min(rows, count), n_normals + 2))
    for first in range(start, start + count, rows):
        m = min(rows, start + count - first)
        for r in range(m):
            stream(first + r).standard_normal(out=normals[r, :n_normals])
        yield _fill(blocks, normals[:m], lambda r: after_first_call(first + r))


def measure_draws(measure: Callable[[np.ndarray], np.ndarray], k: int,
                  composite: CompositeSpectrum, profile: ConstraintProfile,
                  n: int, seed: int) -> np.ndarray:
    """(k, n) array whose column i holds the k values of ``measure`` on draw i of run ``seed``.

    ``measure`` maps one (rows, dim) chunk from :func:`sample_chunks` to k arrays of
    ``rows`` values, or to one such array if k is 1; any other shape is a ValueError.  The draws are split over
    :func:`~hsmc.fanout.fan_out`'s workers, and a ValueError names a worker's draws.
    """
    values = shared_array(k * n, "results").reshape(k, n)

    def draw(w: int, m: int) -> None:
        first, stop = n * w // m, n * (w + 1) // m
        start = first
        try:
            for amplitudes in sample_chunks(composite, profile, seed, first, stop - first):
                chunk = np.asarray(measure(amplitudes), dtype=float)
                expected = (len(amplitudes),) if k == 1 else (k, len(amplitudes))
                if chunk.shape != expected:
                    raise ValueError(f"measure gave shape {chunk.shape} for a chunk of "
                                     f"{len(amplitudes)} draws, expected {expected}")
                values[:, start:start + len(amplitudes)] = chunk
                start += len(amplitudes)
        except ValueError as exc:  # a failed norm, density or shape check
            raise ValueError(f"draws {first} to {stop - 1}: {exc}") from exc

    fan_out(draw, n, "sample worker")
    return values


def mc_average(measure: Callable[[np.ndarray], np.ndarray], composite: CompositeSpectrum,
               profile: ConstraintProfile, n: int, seed: int) -> McEstimate:
    """Sample mean and standard error of ``measure`` over draws 0 to ``n - 1`` of run ``seed``.

    ``measure`` maps one (rows, dim) chunk of flat-layout amplitudes from
    :func:`sample_chunks` to ``rows`` values, one per draw, e.g.
    ``lambda a: gas_purity_entropy(composite, a)[0]``; any other shape is a
    ValueError.  Draw i is the draw of ``substream(seed, i)``, so the estimate
    is deterministic given ``seed``, whatever the number of CPUs.

    It forks (:func:`measure_draws`), as the Hamiltonian builders do: do not call
    it while other threads run.  ``measure`` runs on one OpenBLAS thread, and its
    side effects in forked workers do not reach the caller.  It holds 8 B per draw.
    """
    if n < 2:
        raise ValueError("mc_average needs n >= 2 to estimate a standard error")
    return mc_estimate(measure_draws(measure, 1, composite, profile, n, seed), seed)
