import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmc import CANONICAL, MICROCANONICAL, build_spectrum, compose
from hsmc.spectrum import DEFAULT_SHELL_TOLERANCE, Shell, Subspace


def test_minimal_spectrum():
    sp = build_spectrum([(0, 1)])
    assert sp.dim == 1
    assert sp.n_levels == 1


def test_two_level_spectrum():
    sp = build_spectrum([(0, 2), (1, 2)])
    assert sp.dim == 4
    assert sp.n_levels == 2
    assert sp == build_spectrum([(1, 2), (0, 2)])  # a spectrum is its levels alone


def test_levels_sorted_by_energy():
    sp = build_spectrum([(3, 1), (0, 2), (1.5, 4)])
    assert sp.energies == (0.0, 1.5, 3.0)
    assert sp.degeneracies == (2, 4, 1)


def test_duplicate_energy_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_spectrum([(0, 1), (0, 3)])


def test_bad_degeneracy_rejected():
    with pytest.raises(ValueError):
        build_spectrum([(0, 0)])
    with pytest.raises(ValueError):
        build_spectrum([(0, -2)])
    with pytest.raises(ValueError):
        build_spectrum([(0, 1.5)])


def test_truth_values_rejected():
    for levels in ([(0, True)], [(True, 1)], [(0, 1), (1, False)]):
        with pytest.raises(ValueError, match="truth value"):
            build_spectrum(levels)


def test_empty_spectrum_rejected():
    with pytest.raises(ValueError):
        build_spectrum([])


def test_nonfinite_energy_rejected():
    with pytest.raises(ValueError):
        build_spectrum([(float("nan"), 1)])


def test_compose_symmetric_two_level():
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 4), (1, 4)])
    comp = compose(gas, container)
    assert [(s.A, s.B) for s in comp.subspaces] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s.n_states for s in comp.subspaces] == [8, 8, 8, 8]
    shells = {sh.energy: sh.n_states for sh in comp.shells}
    assert shells == {0.0: 8, 1.0: 16, 2.0: 8}


def test_compose_trivial():
    comp = compose(build_spectrum([(0, 1)]), build_spectrum([(0, 1)]))
    assert comp.dim == 1
    assert comp.n_subspaces == 1
    assert comp.n_shells == 1
    assert comp.shells[0].n_states == 1


def test_compose_three_shells():
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    shells = {sh.energy: (tuple((comp.subspaces[i].A, comp.subspaces[i].B)
                                for i in sh.member_indices), sh.n_states) for sh in comp.shells}
    assert shells[0.0] == (((0, 0),), 2)
    assert shells[1.0] == (((0, 1), (1, 0)), 8)
    assert shells[2.0] == (((1, 1),), 6)


def test_subspace_ordering_is_lexicographic():
    gas = build_spectrum([(0, 1), (2, 2), (5, 1)])
    container = build_spectrum([(0, 3), (1, 1)])
    comp = compose(gas, container)
    pairs = [(s.A, s.B) for s in comp.subspaces]
    assert pairs == sorted(pairs)
    # offsets are contiguous in that order
    expected_offset = 0
    for s in comp.subspaces:
        assert s.offset == expected_offset
        expected_offset += s.n_states
    assert comp.dim == expected_offset == gas.dim * container.dim


def test_block_slices_and_index_lookup():
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 4), (1, 4)])
    comp = compose(gas, container)
    i = comp.subspace_index(1, 0)
    assert comp.subspaces[i].A == 1 and comp.subspaces[i].B == 0
    assert len(comp.blocks(MICROCANONICAL)[i]) == comp.subspaces[i].n_states
    with pytest.raises(KeyError):
        comp.subspace_index(5, 0)


def test_flat_to_matrix_maps_are_consistent():
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (2, 2)])
    comp = compose(gas, container)
    # every cell row * dim_container + col maps to a unique flat index
    flat = set(comp._flat_index.tolist())
    assert len(flat) == comp.dim == comp.dim_gas * comp.dim_container
    # block rows stay inside the gas level, columns inside the container level
    matrix_index = np.empty(comp.dim, dtype=int)
    matrix_index[comp._flat_index] = np.arange(comp.dim)
    all_rows, all_cols = np.divmod(matrix_index, comp.dim_container)
    gas_offsets = gas.level_offsets()
    container_offsets = container.level_offsets()
    for i, sub in enumerate(comp.subspaces):
        rows = all_rows[comp.blocks(MICROCANONICAL)[i]]
        cols = all_cols[comp.blocks(MICROCANONICAL)[i]]
        assert rows.min() >= gas_offsets[sub.A]
        assert rows.max() < gas_offsets[sub.A + 1]
        assert cols.min() >= container_offsets[sub.B]
        assert cols.max() < container_offsets[sub.B + 1]


def test_blocks_partition_the_dim_for_both_kinds():
    gas = build_spectrum([(0, 2), (1, 1), (3, 2)])
    container = build_spectrum([(0, 1), (1, 2), (2, 1)])
    comp = compose(gas, container)
    subspaces, shells = comp.blocks(MICROCANONICAL), comp.blocks(CANONICAL)
    assert len(subspaces) == comp.n_subspaces and len(shells) == comp.n_shells
    assert any(len(shell.member_indices) > 1 for shell in comp.shells)
    for blocks in (subspaces, shells):
        seen = np.concatenate(blocks)
        assert sorted(seen.tolist()) == list(range(comp.dim))
        for block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 0
    for sub, block in zip(comp.subspaces, subspaces):
        np.testing.assert_array_equal(block, np.arange(sub.offset, sub.offset + sub.n_states))
    for shell, block in zip(comp.shells, shells):
        np.testing.assert_array_equal(
            block, np.concatenate([subspaces[i] for i in shell.member_indices]))
    assert comp.blocks(MICROCANONICAL) is subspaces  # built once, in compose
    np.testing.assert_array_equal(comp.block_of(MICROCANONICAL), np.arange(comp.n_subspaces))
    for kind in (MICROCANONICAL, CANONICAL):  # block_of(kind) names each subspace's block
        assert not comp.block_of(kind).flags.writeable
        for sub, k in zip(comp.subspaces, comp.block_of(kind)):
            assert sub.offset in comp.blocks(kind)[k]


def test_shell_lookup_by_energy():
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    assert comp.shell_index_at(1.0) == 1
    with pytest.raises(KeyError, match=r"\(nearest is 2\.0\)"):
        comp.shell_index_at(7.5)
    # a chain of gaps just under the tolerance makes one shell whose mean is
    # more than the tolerance away from its end members; every member and
    # the mean still resolve to it
    chain = compose(build_spectrum([(0, 1)]),
                    build_spectrum([(0.9e-9 * k, 1) for k in range(5)]))
    assert chain.n_shells == 1
    for energy in (*(0.9e-9 * k for k in range(5)), chain.shells[0].energy):
        assert chain.shell_index_at(energy) == 0


def test_shell_energy_of_huge_members_stays_finite():
    # the members' sum overflows; np.mean once made the shell energy inf, and
    # shell_index_at(inf) then passed its tolerance test and returned shell 0
    gas = build_spectrum([(1e308, 1), (0, 1)])
    container = build_spectrum([(0, 1), (1e-300, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = compose(gas, container)
    energies = [shell.energy for shell in comp.shells]
    assert energies == [5e-301, 1e308]
    assert comp.shell_index_at(1e308) == comp.n_shells - 1
    assert comp.shell_index_at(5e-301) == 0
    for energy in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(KeyError, match="no shell"):
            comp.shell_index_at(energy)


def test_shell_tolerance_groups_close_energies():
    gas = build_spectrum([(0.0, 1), (1.0, 1)])
    container = build_spectrum([(0.0, 1), (1.0 + 5e-10, 1)])
    comp = compose(gas, container, shell_tolerance=1e-9)
    # E=1.0 and E=1.0000000005 land in one shell
    assert comp.n_shells == 3
    tight = compose(gas, container, shell_tolerance=1e-12)
    assert tight.n_shells == 4


def test_negative_shell_tolerance_rejected():
    gas = build_spectrum([(0, 1)])
    with pytest.raises(ValueError):
        compose(gas, gas, shell_tolerance=-1e-9)
    # NaN once passed the check and merged every subspace into one shell
    with pytest.raises(ValueError, match="shell_tolerance"):
        compose(gas, gas, shell_tolerance=float("nan"))


@st.composite
def spectra(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    energies = draw(st.lists(st.integers(min_value=0, max_value=12),
                             min_size=n, max_size=n, unique=True))
    degens = draw(st.lists(st.integers(min_value=1, max_value=4),
                           min_size=n, max_size=n))
    return build_spectrum(list(zip(energies, degens)))


@st.composite
def float_spectra(draw):
    """Float energies with near-duplicate sums and members near the float range's end."""
    energy = st.one_of(
        st.builds(lambda k, jitter: k + jitter, st.integers(min_value=-3, max_value=6),
                  st.sampled_from([0.0, 1e-10, -4e-10, 1e-15, 0.05, 0.1])),
        st.sampled_from([1e308, -1e308, 1.7e308]),
        st.floats(min_value=-10, max_value=10))
    energies = draw(st.lists(energy, min_size=1, max_size=4, unique=True))
    degens = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=len(energies), max_size=len(energies)))
    return build_spectrum(list(zip(energies, degens)))


def reference_layout(gas, container, shell_tolerance):
    """The documented layout, built subspace by subspace and cell by cell."""
    subspaces, offset = [], 0
    for A, (e_a, n_a) in enumerate(zip(gas.energies, gas.degeneracies)):
        for B, (e_b, n_b) in enumerate(zip(container.energies, container.degeneracies)):
            if not np.isfinite(e_a + e_b):
                raise ValueError(f"total energy {e_a!r} + {e_b!r} is not finite")
            subspaces.append(Subspace(A=A, B=B, n_states=n_a * n_b, energy=e_a + e_b,
                                      offset=offset))
            offset += n_a * n_b
    groups = []  # single linkage over the sorted energies, ties in subspace order
    for i in sorted(range(len(subspaces)), key=lambda i: (subspaces[i].energy, i)):
        if groups and subspaces[i].energy - subspaces[groups[-1][-1]].energy <= shell_tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
    shells = []
    for group in map(sorted, groups):
        energies = np.array([subspaces[i].energy for i in group])
        with np.errstate(over="ignore"):
            energy = float(np.mean(energies))
        if not np.isfinite(energy):
            energy = float(np.clip(np.sum(energies / len(group)), energies.min(), energies.max()))
        shells.append(Shell(energy=energy, member_indices=tuple(group),
                            n_states=sum(subspaces[i].n_states for i in group)))
    flat_index = np.empty(offset, dtype=np.intp)
    gas_offsets, container_offsets = gas.level_offsets(), container.level_offsets()
    for s in subspaces:  # row-major (a, b) inside each block
        n_b = container.degeneracies[s.B]
        for a in range(gas.degeneracies[s.A]):
            for b in range(n_b):
                cell = (gas_offsets[s.A] + a) * container.dim + container_offsets[s.B] + b
                flat_index[cell] = s.offset + a * n_b + b
    sub_blocks = tuple(np.arange(s.offset, s.offset + s.n_states) for s in subspaces)
    shell_of = np.empty(len(subspaces), dtype=np.intp)
    for k, shell in enumerate(shells):
        shell_of[list(shell.member_indices)] = k
    return dict(
        subspaces=tuple(subspaces), shells=tuple(shells), flat_index=flat_index,
        block_offsets=np.array([0] + [s.offset + s.n_states for s in subspaces]),
        blocks={MICROCANONICAL: sub_blocks, CANONICAL: tuple(
            np.concatenate([sub_blocks[i] for i in shell.member_indices]) for shell in shells)},
        block_of={MICROCANONICAL: np.arange(len(subspaces)), CANONICAL: shell_of})


def assert_same_read_only_array(got, want):
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want, strict=True)


@given(st.one_of(st.tuples(spectra(), spectra()), st.tuples(float_spectra(), float_spectra())),
       st.sampled_from([DEFAULT_SHELL_TOLERANCE, 0.0, 1e-9, 0.15, 1e300]))
@settings(max_examples=120, deadline=None)
def test_shells_partition_subspaces(pair, shell_tolerance):
    gas, container = pair
    try:
        want = reference_layout(gas, container, shell_tolerance)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            compose(gas, container, shell_tolerance)
        assert str(refused.value) == str(exc)
        return
    comp = compose(gas, container, shell_tolerance)
    assert repr(comp.subspaces) == repr(want["subspaces"])
    assert repr(comp.shells) == repr(want["shells"])
    assert_same_read_only_array(comp._flat_index, want["flat_index"])
    assert_same_read_only_array(comp._block_offsets, want["block_offsets"])
    for kind in (MICROCANONICAL, CANONICAL):
        assert_same_read_only_array(comp.block_of(kind), want["block_of"][kind])
        assert len(comp.blocks(kind)) == len(want["blocks"][kind])
        for got, block in zip(comp.blocks(kind), want["blocks"][kind]):
            assert_same_read_only_array(got, block)
    member_union = [i for sh in comp.shells for i in sh.member_indices]
    assert sorted(member_union) == list(range(comp.n_subspaces))
    assert sum(sh.n_states for sh in comp.shells) == gas.dim * container.dim
    assert sum(s.n_states for s in comp.subspaces) == gas.dim * container.dim
    # membership agrees with the subspace -> shell map
    for j, sh in enumerate(comp.shells):
        for i in sh.member_indices:
            assert comp.block_of(CANONICAL)[i] == j
