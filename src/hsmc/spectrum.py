"""Subsystem spectra, the composite index space, and total-energy shells.

A :class:`Spectrum` lists one subsystem's energy levels with explicit
degeneracies.  Composing a gas spectrum with a container spectrum enumerates
the joint degeneracy subspaces (A, B) in lexicographic order; that order fixes
the flattened amplitude layout used by every other module: the amplitudes of
subspace (A, B) occupy one contiguous block of length N_AB = N_A * N_B,
ordered row-major in the local indices (a, b).  Subspaces whose total energies
E_A + E_B agree within an absolute tolerance are grouped into shells.  A
microcanonical constraint fixes the weight of every subspace, a canonical one
that of every shell: :meth:`CompositeSpectrum.blocks` gives either partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numbers

import numpy as np

__all__ = [
    "MICROCANONICAL",
    "CANONICAL",
    "DEFAULT_SHELL_TOLERANCE",
    "Spectrum",
    "Subspace",
    "Shell",
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


@dataclass(frozen=True)
class Subspace:
    """Joint degeneracy subspace (A, B) with N_AB = N_A * N_B states at E_A + E_B."""

    A: int
    B: int
    n_states: int
    energy: float
    offset: int


@dataclass(frozen=True)
class Shell:
    """Group of subspaces sharing (within tolerance) one total energy: ``member_indices``
    are their positions in :attr:`CompositeSpectrum.subspaces`, in (A, B) order."""

    energy: float
    member_indices: tuple[int, ...]
    n_states: int


@dataclass(frozen=True, eq=False)
class CompositeSpectrum:
    """Joint index space of a gas and a container spectrum.

    Immutable after construction; safe to share across workers.  Instances are
    built by :func:`compose`, which also precomputes the index map between
    the flat block layout and the row-major dim_gas x dim_container matrix
    (``_flat_index[row * dim_container + col]`` is the flat index of that
    cell) and the subspace -> block map of each constraint kind.
    """

    gas: Spectrum
    container: Spectrum
    shell_tolerance: float
    subspaces: tuple[Subspace, ...]
    shells: tuple[Shell, ...]
    dim_gas: int
    dim_container: int
    dim: int
    _subspace_index: dict = field(repr=False)
    _block_offsets: np.ndarray = field(repr=False)
    _flat_index: np.ndarray = field(repr=False)
    _blocks: dict = field(repr=False)
    _block_of: dict = field(repr=False)

    @property
    def n_subspaces(self) -> int:
        return len(self.subspaces)

    @property
    def n_shells(self) -> int:
        return len(self.shells)

    def subspace_index(self, A: int, B: int) -> int:
        """Position of subspace (A, B) in the lexicographic enumeration.  A and B are
        integers: a fraction or a truth value names no subspace."""
        i = self._subspace_index.get((A, B))
        if i is None or isinstance(A, (bool, np.bool_)) or isinstance(B, (bool, np.bool_)):
            raise KeyError(f"no subspace ({A}, {B}) in this composite")
        return i

    def blocks(self, kind: str) -> tuple[np.ndarray, ...]:
        """Read-only flat amplitude indices of each block a ``kind`` constraint fixes:
        the subspaces (:data:`MICROCANONICAL`) or the shells (:data:`CANONICAL`), in
        order, as views of one index array per kind.  A shell's indices are its
        members' blocks in ``member_indices`` order."""
        return self._blocks[kind]

    def block_of(self, kind: str) -> np.ndarray:
        """Read-only position in :meth:`blocks` of each subspace's block: ``arange(n_subspaces)``
        for :data:`MICROCANONICAL`, the shell of each subspace for :data:`CANONICAL`."""
        return self._block_of[kind]

    def shell_index_at(self, energy: float) -> int:
        """Shell of the subspace whose energy is nearest ``energy``, within tolerance.

        A shell's mean energy always resolves: it lies within half the shell
        tolerance of some member, since members chain by gaps within it.  A
        non-finite energy, a truth value or a non-number resolves to no shell."""
        if isinstance(energy, (bool, np.bool_)) or not isinstance(energy, numbers.Real):
            raise KeyError(f"no shell at energy {energy!r}")
        energy = float(energy)
        if not np.isfinite(energy):
            raise KeyError(f"no shell at energy {energy!r}")
        energies = np.add.outer(self.gas.energies, self.container.energies).ravel()
        with np.errstate(over="ignore"):  # a gap past the float range is just far
            gaps = np.abs(energies - energy)
        i = int(np.argmin(gaps))
        atol = max(self.shell_tolerance, 1e-12) * (1.0 + abs(energy))
        if not gaps[i] <= atol:
            raise KeyError(f"no shell at energy {energy!r} (nearest is {float(energies[i])!r})")
        return int(self._block_of[CANONICAL][i])

    def subspace_dims(self) -> np.ndarray:
        return np.diff(self._block_offsets)

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
    representative energy is the mean over its members.

    Raises
    ------
    ValueError
        If ``shell_tolerance`` is negative or NaN, or a total energy overflows.
    """
    if not shell_tolerance >= 0:
        raise ValueError("shell_tolerance must be >= 0")
    n_container = container.n_levels
    with np.errstate(over="ignore"):
        energies = np.add.outer(gas.energies, container.energies).ravel()
    overflow = np.flatnonzero(~np.isfinite(energies))
    if overflow.size:
        A, B = divmod(int(overflow[0]), n_container)
        raise ValueError(f"total energy {gas.energies[A]!r} + {container.energies[B]!r} "
                         "is not finite")
    dims = np.outer(gas.degeneracies, container.degeneracies).ravel()
    offsets = np.concatenate(([0], np.cumsum(dims)))
    pairs = [divmod(i, n_container) for i in range(len(dims))]
    subspaces = tuple(Subspace(A=A, B=B, n_states=n, energy=e, offset=o) for (A, B), n, e, o
                      in zip(pairs, dims.tolist(), energies.tolist(), offsets.tolist()))

    # Shells: single-linkage grouping of the sorted total energies.
    order = np.argsort(energies, kind="stable")
    with np.errstate(over="ignore"):  # a gap past the float range is just wide
        starts = np.diff(energies[order]) > shell_tolerance
    shell_of_subspace = np.empty(len(dims), dtype=np.intp)
    shell_of_subspace[order] = np.concatenate(([0], np.cumsum(starts)))
    members = np.argsort(shell_of_subspace, kind="stable")  # (A, B) order within a shell
    state_shell = np.repeat(shell_of_subspace, dims)
    shell_dims = np.bincount(state_shell)
    shells = []
    for group, n_states in zip(np.split(members, np.cumsum(np.bincount(shell_of_subspace))[:-1]),
                               shell_dims.tolist()):
        e = energies[group]
        with np.errstate(over="ignore"):
            energy = float(np.mean(e))
        if not np.isfinite(energy):  # the sum overflowed: scale the members first
            energy = float(np.clip(np.sum(e / len(e)), e.min(), e.max()))
        shells.append(Shell(energy=energy, member_indices=tuple(group.tolist()),
                            n_states=n_states))
    by_shell = np.argsort(state_shell, kind="stable")  # each shell's blocks, in (A, B) order
    del state_shell

    # Cell (row a of gas level A, column b of container level B) of the row-major
    # amplitude matrix holds flat amplitude offset_AB + a N_B + b.
    rows = np.repeat(np.arange(gas.n_levels), gas.degeneracies)
    cols = np.repeat(np.arange(n_container), container.degeneracies)
    flat_index = offsets[:-1].reshape(gas.n_levels, n_container)[rows[:, None], cols]
    flat_index += np.arange(container.dim) - container.level_offsets()[cols]
    flat_index += ((np.arange(gas.dim) - gas.level_offsets()[rows])[:, None]
                   * np.asarray(container.degeneracies)[cols])
    flat_index, by_subspace = flat_index.ravel(), np.arange(offsets[-1])

    # each kind's blocks are views of one read-only index array
    block_of = {MICROCANONICAL: np.arange(len(dims)), CANONICAL: shell_of_subspace}
    for arr in (flat_index, offsets, by_subspace, by_shell, *block_of.values()):
        arr.flags.writeable = False
    blocks = {MICROCANONICAL: tuple(np.split(by_subspace, offsets[1:-1])),
              CANONICAL: tuple(np.split(by_shell, np.cumsum(shell_dims)[:-1]))}

    return CompositeSpectrum(
        gas=gas,
        container=container,
        shell_tolerance=float(shell_tolerance),
        subspaces=subspaces,
        shells=tuple(shells),
        dim_gas=gas.dim,
        dim_container=container.dim,
        dim=int(offsets[-1]),
        _subspace_index={pair: i for i, pair in enumerate(pairs)},
        _block_offsets=offsets,
        _flat_index=flat_index,
        _blocks=blocks,
        _block_of=block_of,
    )
