"""Constraint-respecting Hamiltonians and exact Schrodinger propagation.

The total Hamiltonian is H = H_g + H_c + I with diagonal local parts.  A
microcanonical interaction is block-diagonal inside every degeneracy subspace
(A, B), so it commutes with both local Hamiltonians and conserves every
subspace weight.  A canonical interaction couples all subspaces within a
total-energy shell, conserving only the shell weights while letting energy
flow between gas and container.

H is stored only block by block, each block as the eigendecomposition of H
restricted to it.  Propagation (hbar = 1) rotates each block's eigenbasis
coefficients, so unitarity is exact up to roundoff and there is no step-error
accumulation.  Trajectories carry named measure series; time averages
integrate over t, path averages weight by the chord lengths the state vector
travels.  Propagation, :func:`effective_velocity` and the diagnostics of
:class:`Hamiltonian` run on one OpenBLAS thread, whatever the process's count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fanout import dsterf, fan_out, one_blas_thread, qr, shared_array, workers
from .sampling import substream
from .spectrum import CANONICAL, MICROCANONICAL, CompositeSpectrum
from .state import BATCH_ELEMENTS, PureState, batch_rows, gas_purity_entropy

__all__ = [
    "NumericalValidationError",
    "Hamiltonian",
    "Trajectory",
    "build_microcanonical_hamiltonian",
    "build_canonical_hamiltonian",
    "evolve",
    "spectral_decomposition",
    "effective_velocity",
    "time_average",
    "path_average",
    "max_drift",
]

NORM_DRIFT_TOLERANCE = 1e-9


class NumericalValidationError(RuntimeError):
    """A quantity that must be conserved or normalized drifted out of tolerance."""


class HamiltonianBlock(NamedTuple):
    """Flat basis ``indices`` of one block, and the eigenvalues ``energies`` and
    eigenvector columns ``vectors`` of H restricted to them: the only copy of H
    there, H_b = V diag(E) V^dagger with the local diagonal included."""

    indices: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Hamiltonian:
    """Total Hamiltonian H = H_g + H_c + I over the composite basis.

    ``gas_diagonal`` and ``container_diagonal`` hold the (diagonal) local
    parts as vectors over the flat basis.  ``blocks`` partition the basis into
    the subspaces (microcanonical) or shells (canonical) that I stays inside;
    H has no entries between blocks.  ``kind`` records which constraint the
    interaction respects.
    """

    composite: CompositeSpectrum
    kind: str
    gas_diagonal: np.ndarray = field(repr=False)
    container_diagonal: np.ndarray = field(repr=False)
    blocks: tuple[HamiltonianBlock, ...] = field(repr=False)

    @one_blas_thread()
    def commutator_norms(self) -> dict[str, float]:
        """Frobenius norms of [H_g, I], [H_c, I] and [H_g + H_c, I].

        For a diagonal D, [D, I] = [D, H] has entries (d_j - d_k) H_jk, which
        vanish outside H's blocks, so the norms are summed block by block.  A
        block on which D is constant contributes exactly 0.  On a block where any
        D varies, the conjugate of H_b = V diag(E) V^dagger is rebuilt once, about
        ``BATCH_ELEMENTS`` values at a time, as conj(V diag(E)) V^T, with no
        n_b x n_b temporary; each D that varies there adds its own square sum.
        """
        diagonals = {"gas": self.gas_diagonal, "container": self.container_diagonal,
                     "total": self.gas_diagonal + self.container_diagonal}
        squares = dict.fromkeys(diagonals, 0.0)
        for b in self.blocks:
            local = ((name, diag[b.indices]) for name, diag in diagonals.items())
            varying = [(name, d) for name, d in local if np.any(d != d[0])]
            if not varying:
                continue
            rows = batch_rows(len(b.indices))
            for first in range(0, len(b.indices), rows):
                part = slice(first, first + rows)
                scaled = np.conjugate(b.vectors[part] * b.energies)
                h = scaled @ b.vectors.T
                for name, d in varying:  # (d_j - d_k) h_jk, in the memory of scaled
                    c = np.multiply(h, d[part, None] - d, out=scaled)
                    squares[name] += float(np.vdot(c, c).real)
        return {name: float(np.sqrt(total)) for name, total in squares.items()}

    @one_blas_thread()
    def weak_coupling_ratio(self, state: PureState) -> float:
        """|<I>| / min(|<H_g>|, |<H_c>|) for ``state``; inf if a local part averages to 0.

        <I> = <H> - <H_g> - <H_c>, with <H> = sum_j p_j E_j from
        :func:`spectral_decomposition`.  Diagnostic only: the weak-coupling picture
        needs this to be small, but nothing is enforced.
        """
        _, weights = spectral_decomposition(state, self)
        mass = np.abs(state.amplitudes) ** 2
        e_gas = float(np.dot(mass, self.gas_diagonal))
        e_container = float(np.dot(mass, self.container_diagonal))
        e_int = sum(float(np.dot(p, b.energies)) for p, b in zip(weights, self.blocks))
        e_int -= e_gas + e_container
        denom = min(abs(e_gas), abs(e_container))
        if denom == 0.0:
            return float("inf")
        return abs(e_int) / denom


def _gue_eigenvalues(rng: np.random.Generator, values: np.ndarray) -> None:
    """The eigenvalues of an n x n GUE draw, (x + x^dagger) / 2 in law for x with standard
    normal real and imaginary parts, ascending into the n floats ``values``.  n normals and
    sqrt(standard_gamma([n - 1, ..., 1])) make the beta = 2 tridiagonal model, whose
    eigenvalues by dsterf are the GUE's in law (Dumitriu & Edelman, J. Math. Phys. 43, 5830,
    2002); ``np.linalg.eigvalsh`` gives the same bits where numpy's BLAS has no dsterf."""
    rng.standard_normal(out=values)
    off = np.sqrt(rng.standard_gamma(np.arange(len(values) - 1.0, 0.0, -1.0)))
    if not dsterf(values, off):
        values[:] = np.linalg.eigvalsh(np.diag(values) + np.diag(off, -1))


def _haar_vectors(rng: np.random.Generator, slot: np.ndarray, batch: np.ndarray) -> None:
    """The eigenvectors of a GUE draw, Haar and independent of its eigenvalues, as the
    columns of V in the (n, n) complex ``slot``.  2 n^2 normals (through the float buffer
    ``batch``) are the real then imaginary parts of the C-ordered slot Z; zgeqrf and zungqr
    factor Z^T = QR in place, and V = (Q diag(sign R_ii))^T is Haar (Mezzadri, Notices AMS
    54, 592, 2007).  No n^2 array is allocated; ``np.linalg.qr`` gives the same bits where
    numpy's BLAS lacks those calls."""
    n, flat, r = len(slot), slot.reshape(-1), np.empty(len(slot), complex)
    for part in (flat.real, flat.imag):
        for first in range(0, n * n, len(batch)):
            draw = rng.standard_normal(out=batch[:n * n - first])
            part[first:first + len(draw)] = draw
    if not qr(slot, r):
        q, upper = np.linalg.qr(slot.T)
        slot[:], r[:] = q.T, upper.diagonal()
    slot *= np.copysign(1.0, r.real).astype(complex)[:, None]


def _split(sizes: list[int], m: int) -> list[int]:
    """The worker of each block: m contiguous ranges balanced by n_b^3, the last to worker 0
    (any split gives the same bits).  A block goes to the range that holds its cost's midpoint."""
    costs = [n ** 3 for n in sizes]
    ends = list(itertools.accumulate(reversed(costs)))[::-1]  # cost from each block on
    return [m * (2 * end - c) // (2 * ends[0]) for end, c in zip(ends, costs)]


def _assemble(composite: CompositeSpectrum, kind: str, coupling: float,
              rng: np.random.Generator) -> Hamiltonian:
    """Draw one GUE block per group of ``composite.blocks(kind)``, scaled so the largest
    spectral radius equals ``coupling``, and keep only the eigenpairs of H on every group.

    Block k reads only ``substream(key_k, k)``, its key one of the n_blocks that ``rng``
    gives in one ``integers`` call: first its eigenvalues lambda, then its eigenvectors V.
    The caller draws every lambda into one shared buffer, so scale = coupling / max |lambda|
    is known before one fan-out in which each worker draws the V of its blocks and finishes
    them: a group on which H_g + H_c is one constant d keeps d + scale * lambda and V where
    the coupling is nonzero; the others take numpy's ``eigh`` of diag(d) + scale * V
    diag(lambda) V^dagger.
    """
    if not coupling >= 0:
        raise ValueError("coupling must be >= 0")
    gas, container, dims = composite.gas, composite.container, composite.subspace_dims()
    gas_diag = np.repeat(np.repeat(gas.energies, container.n_levels), dims)
    container_diag = np.repeat(np.tile(container.energies, gas.n_levels), dims)
    diag, groups = gas_diag + container_diag, composite.blocks(kind)
    sizes = [len(idx) for idx in groups]
    offsets = np.cumsum([0] + [2 * n * n + n for n in sizes]).tolist()
    shared = shared_array(offsets[-1], "Hamiltonian eigenpair floats")
    pairs = [(shared[o:o + n], shared[o + n:o + n + 2 * n * n].view(complex).reshape(n, n))
             for o, n in zip(offsets, sizes)]
    streams = [substream(int(key), k) for k, key in enumerate(rng.integers(0, 2**63, len(sizes)))]
    with one_blas_thread():
        for stream, (values, _) in zip(streams, pairs):
            _gue_eigenvalues(stream, values)
    scale = coupling / max(float(np.max(np.abs(e))) for e, _ in pairs)

    def finish(w: int, m: int) -> None:
        batch = np.empty(BATCH_ELEMENTS)
        for k in (k for k, owner in enumerate(_split(sizes, m)) if owner == w):
            (values, slot), d = pairs[k], diag[groups[k]]
            _haar_vectors(streams[k], slot, batch)
            if coupling and np.all(d == d[0]):
                values[:] = d[0] + scale * values
                continue
            # M^T = diag(d) + scale conj(V) diag(lambda) V^T, then numpy's eigh of M
            m_t = np.conjugate(slot) * (scale * values) @ slot.T
            m_t.flat[::len(d) + 1] += d
            values[:], slot[:] = np.linalg.eigh(m_t.T)

    # fork no worker without a block, and search no further than fan_out's CPUs
    cpus = workers(len(sizes))
    fan_out(finish, next((m - 1 for m in range(2, cpus + 1) if len(set(_split(sizes, m))) < m),
                         cpus), "Hamiltonian worker")
    blocks = tuple(HamiltonianBlock(idx, *pair) for idx, pair in zip(groups, pairs))
    for arr in (gas_diag, container_diag, *(a for block in blocks for a in block)):
        arr.flags.writeable = False
    return Hamiltonian(composite, kind, gas_diag, container_diag, blocks)


def build_microcanonical_hamiltonian(composite: CompositeSpectrum, coupling: float,
                                     rng: np.random.Generator) -> Hamiltonian:
    """H with an independent random Hermitian block inside every subspace (A, B).

    The blocks are Gaussian-unitary-ensemble draws, jointly rescaled so the
    largest block spectral radius equals ``coupling``.  Because each block
    lives inside one degeneracy subspace, [H_g, I] = [H_c, I] = 0 to machine
    precision and every subspace weight is a constant of motion.

    Each block is drawn in its eigenbasis from its own stream, ``substream(key_k, k)`` for
    the keys of one ``rng.integers(0, 2**63, n_blocks)`` call, so it depends on ``rng``, k
    and its size alone.  The caller draws every block's GUE eigenvalues; forked workers,
    one per CPU and at most one per block (do not call it while other threads run), draw
    the Haar eigenvectors after stdout and stderr are flushed.  OpenBLAS runs one thread in
    every process, the caller's until the call returns.  A worker's exception comes back
    with its class, as "Hamiltonian workers [w] of m failed: ...".
    """
    return _assemble(composite, MICROCANONICAL, coupling, rng)


def build_canonical_hamiltonian(composite: CompositeSpectrum, coupling: float,
                                rng: np.random.Generator) -> Hamiltonian:
    """H with one random Hermitian block per total-energy shell.

    Each block couples all subspaces inside its shell, so [H_g + H_c, I] = 0
    (shell weights conserved) while [H_g, I] != 0 in general: energy flows
    between gas and container.  For spectra where every shell has a single
    subspace this coincides with the microcanonical builder.  The blocks are drawn as
    :func:`build_microcanonical_hamiltonian` says, one stream per shell, and a worker
    diagonalizes each shell on which H_g + H_c varies in the same pass.
    """
    return _assemble(composite, CANONICAL, coupling, rng)


@dataclass(frozen=True)
class Trajectory:
    """Time series of states under one Hamiltonian, with derived measures.

    ``measures`` maps names to arrays with time along the first axis: 1-D
    series norm, energy, v_eff, purity, entropy; 2-D series subspace_weights,
    shell_weights, gas_level_weights.  ``chords`` are the distances the unit state
    vector moves between consecutive snapshots (see :func:`evolve`).  The
    states themselves are not kept: :func:`evolve` hands them to a sink as it goes.
    """

    times: np.ndarray
    measures: dict[str, np.ndarray]
    chords: np.ndarray = field(repr=False)

    @property
    def path_length(self) -> float:
        """Total chord length the unit state vector travels."""
        return float(self.chords.sum())


@one_blas_thread()
def effective_velocity(state: PureState, hamiltonian: Hamiltonian) -> float:
    """Speed of the state vector in Hilbert space: sqrt(<psi|H^2|psi>), hbar = 1.

    |H psi| = sqrt(sum_j p_j E_j^2) from :func:`spectral_decomposition`.  Constant
    along any trajectory of H.  A constant energy offset shifts this value but no
    measure series.
    """
    _, weights = spectral_decomposition(state, hamiltonian)
    return float(np.sqrt(sum(np.dot(p, np.square(b.energies))
                             for p, b in zip(weights, hamiltonian.blocks))))


def _row_norms(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` bit for bit, its temporaries in ``scratch``."""
    np.multiply(np.conjugate(rows, out=scratch), rows, out=scratch)
    return np.sqrt(scratch.real.sum(axis=1))


@one_blas_thread()
def spectral_decomposition(initial: PureState, hamiltonian: Hamiltonian) -> tuple[list, list]:
    """The coefficients c_j = <j|psi(0)> of ``initial`` on each block's eigenvectors, as
    conj(conj(psi) V) on one OpenBLAS thread, and the weights p_j = |c_j|^2, per block.
    Raises ValueError for a state of another composite."""
    if initial.composite is not hamiltonian.composite:
        raise ValueError("state and Hamiltonian live on different composites")
    coeffs = [np.conjugate(initial.amplitudes[b.indices].conj() @ b.vectors)
              for b in hamiltonian.blocks]
    return coeffs, [np.square(np.abs(c)) for c in coeffs]


@one_blas_thread()
def evolve(initial: PureState, hamiltonian: Hamiltonian, times, sink=None) -> Trajectory:
    """Propagate |psi(t)> = exp(-iHt)|psi(0)> on a strictly increasing time grid.

    Rotates each block's coefficients c_j (see :func:`spectral_decomposition`)
    through that block's eigenbasis, psi = (exp(-iEt) c) V^T, and takes the H psi =
    (E exp(-iEt) c) V^T of the energy and v_eff series from the same phases; t = 0
    entries reproduce the initial amplitudes bit for bit.  Raises
    NumericalValidationError if any snapshot norm drifts beyond 1e-9.

    Worker w of :func:`~hsmc.fanout.fan_out`'s m, at most one per two times, takes
    times n w / m to n (w + 1) / m - 1, so it forks as the Hamiltonian builders do:
    do not call it while other threads run.  The workers write the measures into
    one shared buffer of 8 (5 + n_subspaces) B per time; no (n_times, dim) array
    is kept, nor any n_b x n_b temporary.  A worker propagates and measures its
    times over chunks of max(2, ``batch_rows(dim)``) times, in buffers allocated
    once, and hands each chunk to ``sink(start, rows)`` if given: ``rows`` holds
    states ``start`` to ``start + len(rows) - 1`` as a read-only view valid only
    during the call.  The sink runs in that worker, so its side effects in a forked
    one do not reach the caller.  Every row's values depend on that row alone, so
    neither ranges nor chunks show in them.  The chords |psi(t + dt) - psi(t)| =
    2 sqrt(sum_j p_j sin^2(E_j dt / 2)) come in closed form from p_j = |c_j|^2,
    once per distinct step dt, ``batch_rows(n_b)`` at a time, on one OpenBLAS thread.
    """
    coeffs, weights = spectral_decomposition(initial, hamiltonian)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    composite = initial.composite
    n, dim = len(times), composite.dim
    shared = shared_array(n * (5 + composite.n_subspaces), "measures")
    norms, energy, v_eff, purities, entropies = shared[:5 * n].reshape(5, n)
    w_sub = shared[5 * n:].reshape(n, -1)

    def run(w: int, m: int) -> None:
        first, stop = n * w // m, n * (w + 1) // m
        rows = max(2, batch_rows(dim))
        # numpy multiplies a 1-row matrix by gemv, whose last bits differ from
        # gemm's, so a lone last row joins the chunk before it: no chunk tops rows + 1.
        starts = list(range(first, max(stop - 1, first + 1), rows))
        # phases and work take each shape in turn
        states = np.empty((min(stop - first, rows + 1), dim), dtype=complex)
        h_psi, phases, work = np.empty((3, states.size), dtype=complex)
        readonly = np.lib.stride_tricks.as_strided(states, writeable=False)  # what a sink gets
        for start, end in zip(starts, starts[1:] + [stop]):
            k, span = end - start, slice(start, end)
            chunk, hp, scratch = states[:k], *(x[:k * dim].reshape(k, dim) for x in (h_psi, work))
            for b, c, weight in zip(hamiltonian.blocks, coeffs, weights):
                if not weight.any():  # a block the start misses stays +0.0, unrotated
                    chunk[:, b.indices] = hp[:, b.indices] = 0.0
                    continue
                p, r = (x[:k * len(c)].reshape(k, len(c)) for x in (phases, work))
                np.exp(np.multiply(np.outer(times[span], b.energies, out=p), -1j, out=p), out=p)
                chunk[:, b.indices] = np.matmul(np.multiply(p, c, out=p), b.vectors.T, out=r)
                hp[:, b.indices] = np.matmul(np.multiply(p, b.energies, out=p), b.vectors.T, out=r)
            chunk[times[span] == 0.0] = initial.amplitudes
            norms[span] = _row_norms(chunk, scratch)
            worst = float(np.max(np.abs(norms[span] - 1.0)))
            if not worst <= NORM_DRIFT_TOLERANCE:
                raise NumericalValidationError(f"propagation lost normalization by {worst:.3e}")
            energy[span] = np.einsum("ki,ki->k", np.conjugate(chunk, out=scratch), hp).real
            v_eff[span] = _row_norms(hp, scratch)
            mass = np.abs(chunk, out=work.view(float)[:k * dim].reshape(k, dim))
            w_sub[span] = composite.subspace_sums(np.square(mass, out=mass))
            purities[span], entropies[span] = gas_purity_entropy(composite, chunk)
            if sink is not None:
                sink(start, readonly[:k])

    fan_out(run, n // 2, "evolve worker")
    steps, step_of = np.unique(np.diff(times), return_inverse=True)
    squares = np.zeros(len(steps))
    for b, p in zip(hamiltonian.blocks, weights):
        for first in range(0, len(steps), batch_rows(len(p))):
            part = slice(first, first + batch_rows(len(p)))
            squares[part] += np.square(np.sin(np.outer(steps[part] / 2, b.energies))) @ p
    return Trajectory(times, dict(norm=norms, energy=energy, v_eff=v_eff, purity=purities,
                                  entropy=entropies, subspace_weights=w_sub,
                                  shell_weights=composite.shell_sums(w_sub),
                                  gas_level_weights=composite.gas_level_sums(w_sub)),
                      2.0 * np.sqrt(squares)[step_of])


def _series(traj: Trajectory, measure_name: str) -> np.ndarray:
    try:
        return traj.measures[measure_name]
    except KeyError:
        raise KeyError(
            f"unknown measure {measure_name!r}; available: "
            f"{sorted(traj.measures)}"
        ) from None


def time_average(traj: Trajectory, measure_name: str):
    """Trapezoidal (1/T) integral of a measure over the trajectory window.

    Returns a scalar for 1-D series and a per-column vector for 2-D ones.
    """
    series = _series(traj, measure_name)
    if len(traj.times) < 2:
        raise ValueError("time_average needs at least 2 samples")
    window = traj.times[-1] - traj.times[0]
    value = np.trapezoid(series, traj.times, axis=0) / window
    return float(value) if np.ndim(value) == 0 else value


def path_average(traj: Trajectory, measure_name: str):
    """Chord-length-weighted average of a measure along the trajectory.

    Since the state moves at constant speed, this agrees with time_average up
    to discretization error.  A degenerate path (length ~ 0) returns the
    first sample's value.
    """
    series = _series(traj, measure_name)
    if len(traj.times) < 2:
        raise ValueError("path_average needs at least 2 samples")
    total = traj.path_length
    if total < 1e-13:
        value = series[0]
        return float(value) if np.ndim(value) == 0 else value
    segment_means = 0.5 * (series[:-1] + series[1:])
    weights = traj.chords.reshape((-1,) + (1,) * (series.ndim - 1))
    value = np.sum(weights * segment_means, axis=0) / total
    return float(value) if np.ndim(value) == 0 else value


def max_drift(traj: Trajectory, measure_name: str) -> float:
    """Largest absolute deviation of a measure series from its initial value."""
    series = _series(traj, measure_name)
    return float(np.max(np.abs(series - series[0])))
