"""Uniform sampling of constrained pure states and Monte Carlo averaging.

Both constraint types pin the state to a product of hyperspheres: the
microcanonical region fixes the probability W_AB of every degeneracy subspace,
the canonical region only the probability W_E of every total-energy shell.
Sampling draws standard normals for each sphere and rescales them to the
sphere radius, which is exactly uniform on the product of spheres with no
rejection step.

Where only the gas state rho_g is wanted, it can be drawn without the
amplitudes: the Gaussian slice X_b of container level b enters rho_g only
through its Gram matrix X_b X_b^dagger, a complex Wishart matrix whose Bartlett
factor has a size free of the container degeneracy (the induced measures of
Zyczkowski and Sommers, J. Phys. A 34, 7111, 2001).

Reproducibility contract: sample i of a run always comes from the dedicated
counter-based stream ``substream(seed, i)``, so serial runs, resumed runs and
parallel fan-outs all produce bit-identical sample sequences.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial
import math

import numpy as np

from .fanout import fan_out, one_blas_thread, shared_array
from .spectrum import CANONICAL, MICROCANONICAL, CompositeSpectrum
from .state import (BATCH_ELEMENTS, PureState, WeightProfile, batch_rows,
                    check_normalized, checked_weights, reduce_gas_states, subspace_weights)

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
    "GAMMA_CALL_NORMALS",
    "gas_state_chunks",
    "sample_gas_states",
    "measure_draws",
    "mc_average",
]


# One array-shaped ``standard_gamma`` call costs as much time as drawing this many
# standard normals: 7.9 us with 3 shapes and 10.2 us with 48, against 20-23 ns a
# normal (Philox, numpy 2.4, one thread of a 2-core VM).  A layout draws its gas
# states from Bartlett factors when they save more normals per draw than this.
GAMMA_CALL_NORMALS = 400


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
                i = composite.subspace_index(A, B)
            else:
                i = composite.shell_index_at(key)
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


def _streams(seed: int) -> Callable[[int], np.random.Generator]:
    """``stream(index)``: one Philox generator, re-keyed to [seed, index] and rewound
    by each call, so it draws what ``substream(seed, index)`` draws."""
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a copy: setting it copies back the reused key and zero counter
    key = state["state"]["key"]

    def stream(index: int) -> np.random.Generator:
        key[1] = index
        state["buffer_pos"], state["has_uint32"] = 4, 0
        bitgen.state = state
        return gen

    return stream


def _chunks(blocks, rows: int, seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    n_normals = 2 * blocks[0][-1]
    stream = _streams(seed)

    def after_first_call(index: int) -> np.random.Generator:
        gen = stream(index)
        gen.standard_normal(n_normals)
        return gen

    normals = np.zeros((min(rows, count), n_normals + 2))
    for first in range(start, start + count, rows):
        m = min(rows, start + count - first)
        for r in range(m):
            stream(first + r).standard_normal(out=normals[r, :n_normals])
        yield _fill(blocks, normals[:m], lambda r: after_first_call(first + r))


@dataclass(frozen=True)
class _Bartlett:
    """Where the variates of one Bartlett draw go (see :func:`gas_state_chunks`).

    A draw's entries are its ``n_lower`` below-diagonal entries, then its
    diagonal ones, then one zero.  Each positive-weight block has one span of
    each kind.
    """

    n_lower: int
    shapes: np.ndarray  # the Gamma shape of each diagonal entry
    lower: tuple[slice, ...]  # per block, its below-diagonal entries
    diagonal: tuple[slice, ...]  # per block, its diagonal entries
    radii: np.ndarray  # per block, sqrt(W_k)
    source: np.ndarray  # per cell of the dim_gas x columns factor matrix, its entry
    columns: int
    saving: int  # normals per draw saved against drawing the amplitudes


def _bartlett(composite: CompositeSpectrum, profile: ConstraintProfile) -> _Bartlett:
    """The Bartlett factors of ``profile``'s region, laid out once.

    Container level b pairs with the p_b gas states whose subspace (A, b) lies in a
    positive-weight block; its factor L_b has those p_b rows and min(p_b, m_b)
    columns, m_b the degeneracy of b.  Each entry of L_b belongs to the block of
    its row.  The factors sit side by side as the columns of one matrix.
    """
    w = profile.resolve(composite)
    blocks, block_of = composite.blocks(profile.kind), composite.block_of(profile.kind)
    entries = {"lower": [], "diagonal": []}  # (block, gas row, column, Gamma shape) arrays
    columns = 0
    for b, m_b in enumerate(composite.container.degeneracies):
        owners = np.repeat(block_of[b::composite.container.n_levels], composite.gas.degeneracies)
        rows = np.flatnonzero(w[owners] > 0)
        q = min(len(rows), m_b)
        j, i = np.tril_indices(len(rows), -1, q)
        entries["lower"].append((owners[rows[j]], rows[j], columns + i, np.zeros_like(i)))
        d = np.arange(q)
        entries["diagonal"].append((owners[rows[d]], rows[d], columns + d, m_b - d))
        columns += q
    active = np.flatnonzero(w > 0)
    spans, cells, shapes = {}, [], {}
    for name, parts in entries.items():
        owners, rows, cols, shape = map(np.concatenate, zip(*parts))
        order = np.argsort(owners, kind="stable")  # each block's entries together
        owners, shapes[name], first = owners[order], shape[order], sum(map(len, cells))
        spans[name] = tuple(slice(first + a, first + z) for a, z in zip(
            np.searchsorted(owners, active), np.searchsorted(owners, active, side="right")))
        cells.append(rows[order] * columns + cols[order])
    n_lower, n_entries = len(cells[0]), sum(map(len, cells))
    source = np.full(composite.dim_gas * columns, n_entries)
    source[np.concatenate(cells)] = np.arange(n_entries)
    amplitudes = sum(len(blocks[k]) for k in active)
    return _Bartlett(n_lower=n_lower, shapes=shapes["diagonal"].astype(float),
                     lower=spans["lower"], diagonal=spans["diagonal"], radii=np.sqrt(w[active]),
                     source=source, columns=columns, saving=2 * (amplitudes - n_lower))


def gas_state_chunks(composite: CompositeSpectrum, profile: ConstraintProfile,
                     seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Gas states of draws ``start`` to ``start + count - 1`` of run ``seed``, by Bartlett factors.

    Yields (rows, dim_gas, dim_gas) stacks of rho_g, in draw order, with the law
    of the reduced states of :func:`sample_chunks`' draws but not their values.
    Draw i reads ``substream(seed, i)``: first the complex normal below-diagonal
    entries of every factor L_b (2 normals each), then, in one ``standard_gamma``
    call, its diagonal: |L_jj|^2 ~ Gamma(m_b - j), doubled to match the normals.
    G_b = L_b L_b^dagger has the law of X_b X_b^dagger for the Gaussian slice X_b of
    container level b (Bartlett 1933; Goodman 1963), so each block's |X_k|^2 is the
    sum of its entries' |L|^2, and rho_g = sum_b D_b G_b D_b, where D_b scales a gas
    row of block k by sqrt(W_k) / |X_k|.  A draw costs O(sum_b p_b^2) variates and
    O(sum_b p_b^3) flops, free of the container degeneracies m_b.  A block norm that
    is not positive and finite is a ValueError, and every rho_g passes the checks
    of :func:`~hsmc.state.purity_entropy` when measured.
    """
    _check_keys(seed, start, count)
    return _gas_chunks(composite, _bartlett(composite, profile), seed, start, count)


def _gas_chunks(composite: CompositeSpectrum, factors: _Bartlett, seed: int, start: int,
                count: int) -> Iterator[np.ndarray]:
    n_lower, shapes = factors.n_lower, factors.shapes
    rows = batch_rows(composite.dim_gas * factors.columns)
    stream = _streams(seed)
    entries = np.zeros((min(rows, count), n_lower + len(shapes) + 1), dtype=complex)  # last: 0
    normals = entries.view(float)
    gammas = np.empty((len(entries), len(shapes)))
    for first in range(start, start + count, rows):
        m = min(rows, start + count - first)
        for r in range(m):
            gen = stream(first + r)
            gen.standard_normal(out=normals[r, :2 * n_lower])
            gen.standard_gamma(shapes, out=gammas[r])
        chunk = entries[:m]
        chunk[:, n_lower:-1] = np.sqrt(2.0 * gammas[:m])
        for radius, lower, diagonal in zip(factors.radii, factors.lower, factors.diagonal):
            norm_sq = (np.vecdot(chunk[:, lower], chunk[:, lower])
                       + np.vecdot(chunk[:, diagonal], chunk[:, diagonal])).real
            bad = ~(np.isfinite(norm_sq) & (norm_sq > 0.0))
            if np.any(bad):
                raise ValueError(f"block norm^2 {float(norm_sq[bad][0])!r} "
                                 f"is not positive and finite")
            scale = (radius / np.sqrt(norm_sq))[:, None]
            chunk[:, lower] *= scale
            chunk[:, diagonal] *= scale
        psi = np.take(chunk, factors.source, axis=1).reshape(m, composite.dim_gas,
                                                             factors.columns)
        with one_blas_thread():
            rho = psi @ psi.conj().swapaxes(1, 2)
        del psi
        yield rho


def sample_gas_states(composite: CompositeSpectrum, profile: ConstraintProfile,
                      seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Gas states of draws ``start`` to ``start + count - 1`` of run ``seed``, the cheaper way.

    Yields (rows, dim_gas, dim_gas) stacks of rho_g.  Where Bartlett factors save
    more than ``GAMMA_CALL_NORMALS`` normals per draw, they come from
    :func:`gas_state_chunks`, else from :func:`sample_chunks`' amplitudes, reduced
    by :func:`~hsmc.state.reduce_gas_states`.  The choice follows from the region's
    layout alone, so draw i depends on ``substream(seed, i)`` and the region only.
    """
    _check_keys(seed, start, count)
    factors = _bartlett(composite, profile)
    if factors.saving > GAMMA_CALL_NORMALS:
        return _gas_chunks(composite, factors, seed, start, count)
    return map(partial(reduce_gas_states, composite),
               sample_chunks(composite, profile, seed, start, count))


def measure_draws(measure: Callable[[np.ndarray], np.ndarray], k: int,
                  chunks: Callable[[int, int], Iterable[np.ndarray]], n: int) -> np.ndarray:
    """(k, n) array whose column i holds the k values of ``measure`` on draw i.

    ``chunks(start, count)`` yields draws ``start`` to ``start + count - 1`` in
    chunks of rows, e.g. ``partial(sample_chunks, composite, profile, seed)``.
    ``measure`` maps one chunk to k arrays of one value per row, or to one such
    array if k is 1; any other shape is a ValueError.  The draws are split over
    :func:`~hsmc.fanout.fan_out`'s workers, and a ValueError names a worker's draws.
    """
    values = shared_array(k * n, "results").reshape(k, n)

    def draw(w: int, m: int) -> None:
        first, stop = n * w // m, n * (w + 1) // m
        start = first
        try:
            for rows in chunks(first, stop - first):
                chunk = np.asarray(measure(rows), dtype=float)
                expected = (len(rows),) if k == 1 else (k, len(rows))
                if chunk.shape != expected:
                    raise ValueError(f"measure gave shape {chunk.shape} for a chunk of "
                                     f"{len(rows)} draws, expected {expected}")
                values[:, start:start + len(rows)] = chunk
                start += len(rows)
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
    return mc_estimate(measure_draws(measure, 1, partial(sample_chunks, composite, profile, seed),
                                     n), seed)
