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
    cell) and the subspace -> shell and subspace -> gas-level maps behind the
    weight sums.
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
    _shell_of_subspace: np.ndarray = field(repr=False)
    _gas_level_of_subspace: np.ndarray = field(repr=False)
    _block_offsets: np.ndarray = field(repr=False)
    _flat_index: np.ndarray = field(repr=False)
    _blocks: dict = field(repr=False)

    @property
    def n_subspaces(self) -> int:
        return len(self.subspaces)

    @property
    def n_shells(self) -> int:
        return len(self.shells)

    def subspace_index(self, A: int, B: int) -> int:
        """Position of subspace (A, B) in the lexicographic enumeration."""
        try:
            return self._subspace_index[(A, B)]
        except KeyError:
            raise KeyError(f"no subspace ({A}, {B}) in this composite") from None

    def blocks(self, kind: str) -> tuple[np.ndarray, ...]:
        """Read-only flat amplitude indices of each block a ``kind`` constraint fixes:
        the subspaces (:data:`MICROCANONICAL`) or the shells (:data:`CANONICAL`), in
        order.  A shell's indices are its members' blocks in ``member_indices`` order."""
        return self._blocks[kind]

    def shell_index_at(self, energy: float) -> int:
        """Shell of the subspace whose energy is nearest ``energy``, within tolerance.

        A shell's mean energy always resolves: it lies within half the shell
        tolerance of some member, since members chain by gaps within it.  A
        non-finite energy resolves to no shell."""
        if not np.isfinite(energy):
            raise KeyError(f"no shell at energy {energy!r}")
        energies = np.array([s.energy for s in self.subspaces])
        with np.errstate(over="ignore"):  # a gap past the float range is just far
            gaps = np.abs(energies - energy)
        i = int(np.argmin(gaps))
        atol = max(self.shell_tolerance, 1e-12) * (1.0 + abs(energy))
        if not gaps[i] <= atol:
            raise KeyError(f"no shell at energy {energy!r} (nearest is {float(energies[i])!r})")
        return int(self._shell_of_subspace[i])

    def subspace_dims(self) -> np.ndarray:
        return np.array([s.n_states for s in self.subspaces])

    def subspace_sums(self, flat) -> np.ndarray:
        """Sum the trailing flat-layout axis (length dim) over each subspace block."""
        return np.add.reduceat(flat, self._block_offsets[:-1], axis=-1)

    def shell_sums(self, per_subspace) -> np.ndarray:
        """Sum the trailing per-subspace axis over each total-energy shell."""
        return _group_sum(per_subspace, self._shell_of_subspace, self.n_shells)

    def gas_level_sums(self, per_subspace) -> np.ndarray:
        """Sum the trailing per-subspace axis over each gas level A."""
        return _group_sum(per_subspace, self._gas_level_of_subspace, self.gas.n_levels)


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
        If ``shell_tolerance`` is negative or a total energy overflows.
    """
    if shell_tolerance < 0:
        raise ValueError("shell_tolerance must be >= 0")

    gas_offsets = gas.level_offsets()
    container_offsets = container.level_offsets()

    subspaces = []
    offset = 0
    for A, (e_a, n_a) in enumerate(zip(gas.energies, gas.degeneracies)):
        for B, (e_b, n_b) in enumerate(zip(container.energies, container.degeneracies)):
            if not np.isfinite(e_a + e_b):
                raise ValueError(f"total energy {e_a!r} + {e_b!r} is not finite")
            n_ab = n_a * n_b
            subspaces.append(Subspace(A=A, B=B, n_states=n_ab, energy=e_a + e_b, offset=offset))
            offset += n_ab
    dim = offset

    # Shells: single-linkage grouping of sorted total energies.
    order = sorted(range(len(subspaces)), key=lambda i: (subspaces[i].energy, i))
    groups: list[list[int]] = []
    last_energy = None
    for i in order:
        e = subspaces[i].energy
        if last_energy is None or e - last_energy > shell_tolerance:
            groups.append([i])
        else:
            groups[-1].append(i)
        last_energy = e

    shells = []
    shell_of_subspace = np.empty(len(subspaces), dtype=np.intp)
    for shell_idx, group in enumerate(groups):
        group = sorted(group, key=lambda i: (subspaces[i].A, subspaces[i].B))
        energies = np.array([subspaces[i].energy for i in group])
        with np.errstate(over="ignore"):
            energy = float(np.mean(energies))
        if not np.isfinite(energy):  # the sum overflowed: scale the members first
            energy = float(np.clip(np.sum(energies / len(group)), energies.min(), energies.max()))
        n_states = int(sum(subspaces[i].n_states for i in group))
        shells.append(Shell(energy=energy, member_indices=tuple(group), n_states=n_states))
        for i in group:
            shell_of_subspace[i] = shell_idx

    # Flat block layout -> row * dim_container + col of the amplitude matrix,
    # stored inverted: reading a matrix out of flat amplitudes is then a gather.
    matrix_index = np.concatenate([
        np.add.outer(np.arange(gas_offsets[s.A], gas_offsets[s.A + 1]) * container.dim,
                     np.arange(container_offsets[s.B], container_offsets[s.B + 1])).ravel()
        for s in subspaces
    ])
    gas_level_of_subspace = np.repeat(np.arange(gas.n_levels), container.n_levels)

    block_offsets = np.concatenate(([0], np.cumsum([s.n_states for s in subspaces])))
    sub_blocks = tuple(np.arange(s.offset, s.offset + s.n_states) for s in subspaces)
    blocks = {MICROCANONICAL: sub_blocks, CANONICAL: tuple(
        np.concatenate([sub_blocks[i] for i in shell.member_indices]) for shell in shells)}

    flat_index = np.empty_like(matrix_index)
    flat_index[matrix_index] = np.arange(dim)

    for arr in (flat_index, block_offsets, shell_of_subspace, gas_level_of_subspace,
                *sub_blocks, *blocks[CANONICAL]):
        arr.flags.writeable = False

    return CompositeSpectrum(
        gas=gas,
        container=container,
        shell_tolerance=float(shell_tolerance),
        subspaces=tuple(subspaces),
        shells=tuple(shells),
        dim_gas=gas.dim,
        dim_container=container.dim,
        dim=dim,
        _subspace_index={(s.A, s.B): i for i, s in enumerate(subspaces)},
        _shell_of_subspace=shell_of_subspace,
        _gas_level_of_subspace=gas_level_of_subspace,
        _block_offsets=block_offsets,
        _flat_index=flat_index,
        _blocks=blocks,
    )
