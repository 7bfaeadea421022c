"""Subsystem spectra, the composite index space, and total-energy shells.

A :class:`Spectrum` lists one subsystem's energy levels with explicit
degeneracies.  Composing a gas spectrum with a container spectrum enumerates
the joint degeneracy subspaces (A, B) in lexicographic order; that order fixes
the flattened amplitude layout used by every other module: the amplitudes of
subspace (A, B) occupy one contiguous block of length N_AB = N_A * N_B,
ordered row-major in the local indices (a, b).  Subspaces whose total energies
E_A + E_B agree within an absolute tolerance are grouped into shells.  A
microcanonical constraint fixes the weight of every subspace, a canonical one
that of every shell: :meth:`CompositeSpectrum.block_dims` and
:meth:`CompositeSpectrum.block_of` describe either partition with one entry per
subspace or shell, so a composite of any size below 2**63 states is cheap to
build.  The per-state indices, :meth:`CompositeSpectrum.blocks` and the map to
the gas x container matrix, are built on first use by the code that holds
amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import numbers

import numpy as np

__all__ = [
    "MICROCANONICAL",
    "CANONICAL",
    "DEFAULT_SHELL_TOLERANCE",
    "Spectrum",
    "CompositeSpectrum",
    "build_spectrum",
    "compose",
]

MICROCANONICAL = "microcanonical"
CANONICAL = "canonical"
DEFAULT_SHELL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Energy levels of one subsystem: strictly increasing energies, degeneracies >= 1."""

    energies: tuple[float, ...]
    degeneracies: tuple[int, ...]

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def dim(self) -> int:
        return int(sum(self.degeneracies))

    def level_offsets(self) -> np.ndarray:
        """Start index of each level in the flat (A, a) ordering, plus the total dim."""
        return np.concatenate(([0], np.cumsum(self.degeneracies)))


def build_spectrum(levels) -> Spectrum:
    """Validate and sort a list of (energy, degeneracy) pairs into a Spectrum.

    Parameters
    ----------
    levels : sequence of (float, int)
        Energy levels with their degeneracies, in any order.

    Raises
    ------
    ValueError
        On an empty list, a duplicate energy, a truth value, or a degeneracy < 1.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("spectrum needs at least one level")
    energies = []
    degens = []
    for entry in levels:
        try:
            energy, degeneracy = entry
        except (TypeError, ValueError):
            raise ValueError(f"level {entry!r} is not an (energy, degeneracy) pair") from None
        if isinstance(energy, bool) or isinstance(degeneracy, bool):
            raise ValueError(f"level {entry!r} holds a truth value, not a number")
        energy = float(energy)
        if not np.isfinite(energy):
            raise ValueError(f"level energy {energy!r} is not finite")
        if isinstance(degeneracy, float) and not degeneracy.is_integer():
            raise ValueError(f"degeneracy {degeneracy!r} is not a finite integer")
        degeneracy = int(degeneracy)
        if degeneracy < 1:
            raise ValueError(f"degeneracy {degeneracy} must be >= 1")
        energies.append(energy)
        degens.append(degeneracy)
    order = np.argsort(energies, kind="stable")
    energies = [energies[i] for i in order]
    degens = [degens[i] for i in order]
    for e_prev, e_next in zip(energies, energies[1:]):
        if e_prev == e_next:
            raise ValueError(f"duplicate level energy {e_prev}; merge the degeneracies instead")
    return Spectrum(energies=tuple(energies), degeneracies=tuple(degens))


@dataclass(frozen=True, eq=False)
class CompositeSpectrum:
    """Joint index space of a gas and a container spectrum.

    Immutable after construction; safe to share across workers.  Instances are
    built by :func:`compose` from level-sized arrays alone: subspace i is
    (A, B) = divmod(i, container.n_levels), ``shell_energies`` holds the energy of
    each shell, and :meth:`block_dims` and :meth:`block_of` give the block sizes of
    each constraint kind and the block of each subspace.  What only amplitude code
    reads is built on first use: the index map between the flat block layout and
    the row-major dim_gas x dim_container matrix (``_flat_index[row * dim_container
    + col]`` is the flat index of that cell) and the indices of :meth:`blocks`.
    """

    gas: Spectrum
    container: Spectrum
    shell_tolerance: float
    shell_energies: np.ndarray
    dim_gas: int
    dim_container: int
    dim: int
    _block_offsets: np.ndarray = field(repr=False)
    _block_dims: dict = field(repr=False)
    _block_of: dict = field(repr=False)
    _blocks: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_subspaces(self) -> int:
        return len(self._block_of[MICROCANONICAL])

    @property
    def n_shells(self) -> int:
        return len(self.shell_energies)

    def subspace_index(self, A: int, B: int) -> int:
        """Position A * container.n_levels + B of subspace (A, B) in the lexicographic
        enumeration.  A and B are integers: a fraction or a truth value names no subspace."""
        for key, n_levels in ((A, self.gas.n_levels), (B, self.container.n_levels)):
            # as a dict keyed by the levels finds them: level k hashes to k, and so does a key == k
            if isinstance(key, (bool, np.bool_)) or not (0 <= hash(key) < n_levels
                                                         and key == hash(key)):
                raise KeyError(f"no subspace ({A}, {B}) in this composite")
        return hash(A) * self.container.n_levels + hash(B)

    def blocks(self, kind: str) -> tuple[np.ndarray, ...]:
        """Read-only flat amplitude indices of each block a ``kind`` constraint fixes:
        the subspaces (:data:`MICROCANONICAL`) or the shells (:data:`CANONICAL`), in
        order, as views of one index array per kind, built on first use.  A shell's
        indices are its members' blocks in (A, B) order."""
        if kind not in self._blocks:
            members = np.argsort(self._block_of[kind], kind="stable")
            dims = self._block_dims[MICROCANONICAL][members]
            # state j of member m sits at offset_m + j, in turn of the members
            index = np.repeat(self._block_offsets[members] - (np.cumsum(dims) - dims), dims)
            index += np.arange(self.dim)
            index.flags.writeable = False
            self._blocks[kind] = tuple(np.split(index, np.cumsum(self._block_dims[kind])[:-1]))
        return self._blocks[kind]

    def block_dims(self, kind: str) -> np.ndarray:
        """Read-only number of states in each block of :meth:`blocks`, in block order."""
        return self._block_dims[kind]

    def block_of(self, kind: str) -> np.ndarray:
        """Read-only position in :meth:`blocks` of each subspace's block: ``arange(n_subspaces)``
        for :data:`MICROCANONICAL`, the shell of each subspace for :data:`CANONICAL`."""
        return self._block_of[kind]

    @cached_property
    def _flat_index(self) -> np.ndarray:
        # Cell (row a of gas level A, column b of container level B) of the row-major
        # amplitude matrix holds flat amplitude offset_AB + a N_B + b.
        gas, container = self.gas, self.container
        rows = np.repeat(np.arange(gas.n_levels), gas.degeneracies)
        cols = np.repeat(np.arange(container.n_levels), container.degeneracies)
        flat_index = self._block_offsets[:-1].reshape(gas.n_levels, -1)[rows[:, None], cols]
        flat_index += np.arange(container.dim) - container.level_offsets()[cols]
        flat_index += ((np.arange(gas.dim) - gas.level_offsets()[rows])[:, None]
                       * np.asarray(container.degeneracies)[cols])
        flat_index = flat_index.ravel()
        flat_index.flags.writeable = False
        return flat_index

    def shell_index_at(self, energy: float) -> int:
        """Shell of the subspace whose energy is nearest ``energy``, within tolerance.

        Of equally near subspaces the lowest one counts.  A shell's mean energy
        always resolves: it lies within half the shell tolerance of some member,
        since members chain by gaps within it.  A non-finite energy, a truth value
        or a non-number resolves to no shell."""
        if isinstance(energy, (bool, np.bool_)) or not isinstance(energy, numbers.Real):
            raise KeyError(f"no shell at energy {energy!r}")
        energy = float(energy)
        if not np.isfinite(energy):
            raise KeyError(f"no shell at energy {energy!r}")
        (shell,), (nearest,) = self._shells_at([energy])
        if shell < 0:
            raise KeyError(f"no shell at energy {energy!r} (nearest is {float(nearest)!r})")
        return int(shell)

    def _shells_at(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`shell_index_at` of many keys by one sorted lookup: the shell of each, or
        -1, and the energy of the subspace nearest it, NaN if it is no finite number."""
        real = {t: issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))
                for t in set(map(type, keys))}
        x = np.array([float(e) if real[type(e)] else np.nan for e in keys], dtype=float)
        ok = np.flatnonzero(np.isfinite(x))
        subspace_energies = np.add.outer(self.gas.energies, self.container.energies).ravel()
        # the distinct energies, ascending, and the lowest subspace at each
        energies, head = np.unique(subspace_energies, return_index=True)
        x, p = x[ok], np.searchsorted(energies, x[ok])

        def gap(r):
            return np.abs(energies.take(r, mode="clip") - x)

        def first(lo, hi, holds):  # per key, the first r in [lo, hi) where holds(r), else hi
            while (lo < hi).any():
                mid = (lo + hi) // 2
                yes = (lo == hi) | holds(mid)
                lo, hi = np.where(yes, lo, mid + 1), np.where(yes, mid, hi)
            return lo

        # |E - x| falls, then rises, along the sorted energies: its least value g is
        # taken at a neighbour of x, and on the runs lo..hi - 1 around it
        with np.errstate(over="ignore"):  # a gap past the float range is just far
            g = np.minimum(gap(p - 1), gap(p))
            # mostly the runs reach past neither neighbour: then the search is over 2 runs
            lo = first(np.where(gap(p - 2) <= g, 0, p - 1), p, lambda r: gap(r) <= g)
            hi = first(p, np.where(gap(p + 1) > g, p + 1, len(energies)), lambda r: gap(r) > g)
        seq = np.argsort(lo)  # keeps the spans between the keys' runs O(subspaces) in all
        ends = np.stack([lo[seq], hi[seq]], axis=1).ravel()
        nearest = np.minimum.reduceat(np.append(head, 0), ends)[::2][np.argsort(seq)]
        shells, near = np.full(len(keys), -1), np.full(len(keys), np.nan)
        shells[ok] = np.where(g <= max(self.shell_tolerance, 1e-12) * (1.0 + np.abs(x)),
                              self._block_of[CANONICAL][nearest], -1)
        near[ok] = subspace_energies[nearest]
        return shells, near

    def subspace_sums(self, flat) -> np.ndarray:
        """Sum the trailing flat-layout axis (length dim) over each subspace block."""
        return np.add.reduceat(flat, self._block_offsets[:-1], axis=-1)

    def shell_sums(self, per_subspace) -> np.ndarray:
        """Sum the trailing per-subspace axis over each total-energy shell."""
        return _group_sum(per_subspace, self._block_of[CANONICAL], self.n_shells)

    def gas_level_sums(self, per_subspace) -> np.ndarray:
        """Sum the trailing per-subspace axis over each gas level A."""
        return _group_sum(per_subspace, np.arange(self.n_subspaces) // self.container.n_levels,
                          self.gas.n_levels)


def _group_sum(values, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the trailing axis of ``values`` into ``n_groups`` bins given by ``groups``.

    Works on any leading shape, e.g. (n_subspaces,) or (n, n_subspaces).  Each
    bin accumulates its members one by one in index order, starting from 0.
    """
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    rows = values.reshape(-1, values.shape[-1])
    bins = (np.arange(len(rows))[:, None] * n_groups + groups).ravel()
    sums = np.bincount(bins, weights=rows.ravel(), minlength=len(rows) * n_groups)
    return sums.reshape(lead + (n_groups,))


def compose(gas: Spectrum, container: Spectrum,
            shell_tolerance: float = DEFAULT_SHELL_TOLERANCE) -> CompositeSpectrum:
    """Enumerate joint subspaces of two spectra and group them into energy shells.

    Subspaces are ordered lexicographically in (A, B).  Shells are formed by
    sorting the total energies E_A + E_B and starting a new shell whenever the
    gap to the previous member exceeds ``shell_tolerance``; each shell's
    representative energy is the mean over its members.  Every array built here
    has one entry per subspace or per shell, none one per state.

    Raises
    ------
    ValueError
        If ``shell_tolerance`` is negative or NaN, the composite holds 2**63 states
        or more, or a total energy overflows.
    """
    if not shell_tolerance >= 0:
        raise ValueError("shell_tolerance must be >= 0")
    if gas.dim * container.dim >= 2**63:
        raise ValueError(f"{gas.dim} x {container.dim} states: a composite holds "
                         "fewer than 2**63")
    with np.errstate(over="ignore"):
        energies = np.add.outer(gas.energies, container.energies).ravel()
    overflow = np.flatnonzero(~np.isfinite(energies))
    if overflow.size:
        A, B = divmod(int(overflow[0]), container.n_levels)
        raise ValueError(f"total energy {gas.energies[A]!r} + {container.energies[B]!r} "
                         "is not finite")
    dims = np.outer(gas.degeneracies, container.degeneracies).ravel()
    offsets = np.concatenate(([0], np.cumsum(dims)))

    # Shells: single-linkage grouping of the sorted total energies.
    order = np.argsort(energies, kind="stable")
    with np.errstate(over="ignore"):  # a gap past the float range is just wide
        starts = np.diff(energies[order]) > shell_tolerance
    shell_of_subspace = np.empty(len(dims), dtype=np.intp)
    shell_of_subspace[order] = np.concatenate(([0], np.cumsum(starts)))
    members = np.argsort(shell_of_subspace, kind="stable")  # (A, B) order within a shell
    counts = np.bincount(shell_of_subspace)
    first = np.cumsum(counts) - counts  # each shell's first position in members
    shell_dims = np.add.reduceat(dims[members], first)
    shell_energies = energies[members[first]] + 0.0  # np.mean of one member: -0.0 is 0.0
    for k in np.flatnonzero(counts > 1):
        e = energies[members[first[k]:first[k] + counts[k]]]
        with np.errstate(over="ignore", invalid="ignore"):  # partial sums of +-inf give NaN
            shell_energies[k] = np.mean(e)
        if not np.isfinite(shell_energies[k]):  # the sum overflowed: scale the members first
            shell_energies[k] = np.clip(np.sum(e / len(e)), e.min(), e.max())

    block_dims = {MICROCANONICAL: dims, CANONICAL: shell_dims}
    block_of = {MICROCANONICAL: np.arange(len(dims)), CANONICAL: shell_of_subspace}
    for arr in (shell_energies, offsets, *block_dims.values(), *block_of.values()):
        arr.flags.writeable = False
    return CompositeSpectrum(
        gas=gas,
        container=container,
        shell_tolerance=float(shell_tolerance),
        shell_energies=shell_energies,
        dim_gas=gas.dim,
        dim_container=container.dim,
        dim=int(offsets[-1]),
        _block_offsets=offsets,
        _block_dims=block_dims,
        _block_of=block_of,
    )
