from decimal import Decimal
from fractions import Fraction
import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmc import CANONICAL, MICROCANONICAL, build_spectrum, canonical_profile, compose
from hsmc.spectrum import DEFAULT_SHELL_TOLERANCE


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


def test_a_fractional_degeneracy_of_any_number_type_is_refused():
    # each of these was truncated to degeneracy 2 without a word; only a float was checked
    for degeneracy in (Fraction(5, 2), Decimal("2.5"), np.float32(2.5), 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="not a finite integer"):
            build_spectrum([(0, degeneracy)])
    # integral values keep their value, and so does the text of an integer, as a config holds it
    for degeneracy in (Fraction(3), Decimal("3"), np.float32(3.0), np.int64(3), 3.0, "3"):
        assert build_spectrum([(0, degeneracy)]).degeneracies == (3,)


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
    assert [comp.subspace_index(A, B) for A, B in [(0, 0), (0, 1), (1, 0), (1, 1)]] == [0, 1, 2, 3]
    assert comp.block_dims(MICROCANONICAL).tolist() == [8, 8, 8, 8]
    shells = dict(zip(comp.shell_energies.tolist(), comp.block_dims(CANONICAL).tolist()))
    assert shells == {0.0: 8, 1.0: 16, 2.0: 8}


def test_compose_trivial():
    comp = compose(build_spectrum([(0, 1)]), build_spectrum([(0, 1)]))
    assert comp.dim == 1
    assert comp.n_subspaces == 1
    assert comp.n_shells == 1
    assert comp.block_dims(CANONICAL).tolist() == [1]


def test_compose_three_shells():
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    shell_of = comp.block_of(CANONICAL)
    shells = {energy: (tuple(divmod(i, 2) for i in np.flatnonzero(shell_of == k)), n)
              for k, (energy, n) in enumerate(zip(comp.shell_energies.tolist(),
                                                  comp.block_dims(CANONICAL).tolist()))}
    assert shells[0.0] == (((0, 0),), 2)
    assert shells[1.0] == (((0, 1), (1, 0)), 8)
    assert shells[2.0] == (((1, 1),), 6)


def test_subspace_ordering_is_lexicographic():
    gas = build_spectrum([(0, 1), (2, 2), (5, 1)])
    container = build_spectrum([(0, 3), (1, 1)])
    comp = compose(gas, container)
    pairs = [(A, B) for A in range(3) for B in range(2)]
    assert [comp.subspace_index(A, B) for A, B in pairs] == list(range(comp.n_subspaces))
    # blocks are contiguous in that order
    expected_offset = 0
    for A, B in pairs:
        block = comp.blocks(MICROCANONICAL)[comp.subspace_index(A, B)]
        assert block[0] == expected_offset
        expected_offset += gas.degeneracies[A] * container.degeneracies[B]
    assert comp.dim == expected_offset == gas.dim * container.dim


def test_block_slices_and_index_lookup():
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 4), (1, 4)])
    comp = compose(gas, container)
    i = comp.subspace_index(1, 0)
    assert divmod(i, container.n_levels) == (1, 0)
    assert len(comp.blocks(MICROCANONICAL)[i]) == comp.block_dims(MICROCANONICAL)[i] == 8
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
    for i in range(comp.n_subspaces):
        A, B = divmod(i, container.n_levels)
        rows = all_rows[comp.blocks(MICROCANONICAL)[i]]
        cols = all_cols[comp.blocks(MICROCANONICAL)[i]]
        assert rows.min() >= gas_offsets[A]
        assert rows.max() < gas_offsets[A + 1]
        assert cols.min() >= container_offsets[B]
        assert cols.max() < container_offsets[B + 1]


def test_blocks_partition_the_dim_for_both_kinds():
    gas = build_spectrum([(0, 2), (1, 1), (3, 2)])
    container = build_spectrum([(0, 1), (1, 2), (2, 1)])
    comp = compose(gas, container)
    assert not comp._blocks and "_flat_index" not in vars(comp)  # none built by compose
    subspaces, shells = comp.blocks(MICROCANONICAL), comp.blocks(CANONICAL)
    assert len(subspaces) == comp.n_subspaces and len(shells) == comp.n_shells
    shell_of = comp.block_of(CANONICAL)
    assert np.bincount(shell_of).max() > 1
    for blocks in (subspaces, shells):
        seen = np.concatenate(blocks)
        assert sorted(seen.tolist()) == list(range(comp.dim))
        for block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 0
    offset = 0
    for block, n in zip(subspaces, comp.block_dims(MICROCANONICAL)):
        np.testing.assert_array_equal(block, np.arange(offset, offset + n))
        offset += n
    for k, block in enumerate(shells):
        np.testing.assert_array_equal(
            block, np.concatenate([subspaces[i] for i in np.flatnonzero(shell_of == k)]))
    for kind in (MICROCANONICAL, CANONICAL):  # built once, on first use
        assert comp.blocks(kind) is comp.blocks(kind)
        assert all(block.base is comp.blocks(kind)[0].base for block in comp.blocks(kind))
    np.testing.assert_array_equal(comp.block_of(MICROCANONICAL), np.arange(comp.n_subspaces))
    for kind in (MICROCANONICAL, CANONICAL):  # block_of(kind) names each subspace's block
        assert not comp.block_of(kind).flags.writeable
        assert not comp.block_dims(kind).flags.writeable
        for sub, k in zip(subspaces, comp.block_of(kind)):
            assert sub[0] in comp.blocks(kind)[k]


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
    for energy in (*(0.9e-9 * k for k in range(5)), chain.shell_energies[0]):
        assert chain.shell_index_at(energy) == 0


def test_shell_energy_of_huge_members_stays_finite():
    # the members' sum overflows; np.mean once made the shell energy inf, and
    # shell_index_at(inf) then passed its tolerance test and returned shell 0
    gas = build_spectrum([(1e308, 1), (0, 1)])
    container = build_spectrum([(0, 1), (1e-300, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = compose(gas, container)
    assert comp.shell_energies.tolist() == [5e-301, 1e308]
    assert comp.shell_index_at(1e308) == comp.n_shells - 1
    assert comp.shell_index_at(5e-301) == 0
    for energy in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(KeyError, match="no shell"):
            comp.shell_index_at(energy)
    # members' partial sums of +inf and -inf once made np.mean warn of a NaN
    quarter = build_spectrum([(-1.7e308, 1), (-1e308, 1), (1e308, 1), (1.7e308, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = compose(quarter, build_spectrum([(e, 1) for e in range(4)]), float("inf"))
    assert comp.shell_energies.tolist() == [0.0]


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
        st.sampled_from([1e308, -1e308, 1.7e308, -0.0]),
        st.floats(min_value=-10, max_value=10))
    energies = draw(st.lists(energy, min_size=1, max_size=4, unique=True))
    degens = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=len(energies), max_size=len(energies)))
    return build_spectrum(list(zip(energies, degens)))


def reference_layout(gas, container, shell_tolerance):
    """The documented layout, built subspace by subspace and cell by cell."""
    subspaces, offset = [], 0  # (A, B, energy, n_states, offset) in (A, B) order
    for A, (e_a, n_a) in enumerate(zip(gas.energies, gas.degeneracies)):
        for B, (e_b, n_b) in enumerate(zip(container.energies, container.degeneracies)):
            if not np.isfinite(e_a + e_b):
                raise ValueError(f"total energy {e_a!r} + {e_b!r} is not finite")
            subspaces.append((A, B, e_a + e_b, n_a * n_b, offset))
            offset += n_a * n_b
    groups = []  # single linkage over the sorted energies, ties in subspace order
    for i in sorted(range(len(subspaces)), key=lambda i: (subspaces[i][2], i)):
        if groups and subspaces[i][2] - subspaces[groups[-1][-1]][2] <= shell_tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
    groups = [sorted(group) for group in groups]
    shell_energies = []
    for group in groups:
        energies = np.array([subspaces[i][2] for i in group])
        with np.errstate(over="ignore"):
            energy = float(np.mean(energies))
        if not np.isfinite(energy):
            energy = float(np.clip(np.sum(energies / len(group)), energies.min(), energies.max()))
        shell_energies.append(energy)
    flat_index = np.empty(offset, dtype=np.intp)
    gas_offsets, container_offsets = gas.level_offsets(), container.level_offsets()
    for A, B, _, _, start in subspaces:  # row-major (a, b) inside each block
        n_b = container.degeneracies[B]
        for a in range(gas.degeneracies[A]):
            for b in range(n_b):
                cell = (gas_offsets[A] + a) * container.dim + container_offsets[B] + b
                flat_index[cell] = start + a * n_b + b
    sub_blocks = tuple(np.arange(start, start + n) for *_, n, start in subspaces)
    shell_of = np.empty(len(subspaces), dtype=np.intp)
    for k, group in enumerate(groups):
        shell_of[group] = k
    return dict(
        shell_energies=np.array(shell_energies), flat_index=flat_index,
        block_offsets=np.array([0] + [start + n for *_, n, start in subspaces]),
        block_dims={MICROCANONICAL: np.array([n for *_, n, _ in subspaces]),
                    CANONICAL: np.array([sum(subspaces[i][3] for i in group)
                                         for group in groups])},
        blocks={MICROCANONICAL: sub_blocks, CANONICAL: tuple(
            np.concatenate([sub_blocks[i] for i in group]) for group in groups)},
        block_of={MICROCANONICAL: np.arange(len(subspaces)), CANONICAL: shell_of})


def assert_same_read_only_array(got, want):
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want, strict=True)
    assert got.tobytes() == want.tobytes()  # -0.0 is not 0.0


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
    assert_same_read_only_array(comp.shell_energies, want["shell_energies"])
    assert_same_read_only_array(comp._flat_index, want["flat_index"])
    assert_same_read_only_array(comp._block_offsets, want["block_offsets"])
    for kind in (MICROCANONICAL, CANONICAL):
        assert_same_read_only_array(comp.block_of(kind), want["block_of"][kind])
        assert_same_read_only_array(comp.block_dims(kind), want["block_dims"][kind])
        assert len(comp.blocks(kind)) == len(want["blocks"][kind])
        for got, block in zip(comp.blocks(kind), want["blocks"][kind]):
            assert_same_read_only_array(got, block)
    assert [comp.subspace_index(A, B) for A in range(gas.n_levels)
            for B in range(container.n_levels)] == list(range(comp.n_subspaces))
    assert comp.n_shells == len(want["shell_energies"])
    assert comp.dim == gas.dim * container.dim


def test_a_one_member_shell_has_the_mean_of_its_member():
    # np.mean([-0.0]) is 0.0: a lone member's energy is taken as e + 0.0
    for e_gas, e_container in ((-0.0, -0.0), (-0.0, 0.0), (-1.5, 0.25), (1e308, 0.0)):
        comp = compose(build_spectrum([(e_gas, 1)]), build_spectrum([(e_container, 2)]))
        want = float(np.mean([e_gas + e_container]))
        assert comp.shell_energies.tobytes() == np.array([want]).tobytes()


def test_a_composite_of_2_63_states_or_more_is_refused():
    # np.outer of 2**40 and 2**30 wraps to 0, and a degeneracy of 2**64 fits no int64
    for n_gas, n_container in ((2**40, 2**30), (2**64, 1), (2**62, 2), (3, 2**62)):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            compose(build_spectrum([(0, n_gas)]), build_spectrum([(0, n_container)]))
    comp = compose(build_spectrum([(0, 1), (1, 2**62 - 2)]), build_spectrum([(0, 1), (1, 1)]))
    assert comp.dim == 2**63 - 2
    assert comp.block_dims(CANONICAL).tolist() == [1, 2**62 - 1, 2**62 - 2]


def scan_shell_index_at(comp, energy):
    """The shell lookup as one scan over every subspace energy: argmin of the gaps."""
    if isinstance(energy, (bool, np.bool_)) or not isinstance(energy, numbers.Real):
        raise KeyError(f"no shell at energy {energy!r}")
    energy = float(energy)
    if not np.isfinite(energy):
        raise KeyError(f"no shell at energy {energy!r}")
    energies = np.add.outer(comp.gas.energies, comp.container.energies).ravel()
    with np.errstate(over="ignore"):
        gaps = np.abs(energies - energy)
    i = int(np.argmin(gaps))
    if not gaps[i] <= max(comp.shell_tolerance, 1e-12) * (1.0 + abs(energy)):
        raise KeyError(f"no shell at energy {energy!r} (nearest is {float(energies[i])!r})")
    return int(comp.block_of(CANONICAL)[i])


def scan_resolve(comp, weights):
    """A canonical profile resolved key by key with :func:`scan_shell_index_at`."""
    out, seen = np.zeros(comp.n_shells), set()
    for key, w in weights.items():
        i = scan_shell_index_at(comp, key)
        if i in seen:
            raise KeyError(f"two weight keys resolve to the shell at E={comp.shell_energies[i]}")
        seen.add(i)
        out[i] = float(w)
    return out


def outcome(call, *args):
    try:
        return call(*args)
    except KeyError as exc:
        return f"KeyError {exc}"


@given(float_spectra(), float_spectra(), st.sampled_from([0.0, 1e-9, 0.15, math.inf]), st.data())
@settings(max_examples=150, deadline=None)
def test_shell_lookup_is_the_scan_over_subspace_energies(gas, container, shell_tolerance, data):
    try:
        comp = compose(gas, container, shell_tolerance)
    except ValueError:  # a total energy overflows
        return
    energies = np.unique(np.add.outer(gas.energies, container.energies))
    # members, shell means, midpoints of neighbours (ties of two gaps among them)
    probes = [*energies.tolist(), *comp.shell_energies.tolist(), -0.0,
              *(energies[:-1] / 2 + energies[1:] / 2).tolist(),
              math.nan, math.inf, -math.inf, np.float64(math.nan), True, np.True_, "1.0", None]
    for energy in probes:
        assert outcome(comp.shell_index_at, energy) == outcome(scan_shell_index_at, comp, energy)
    keys = data.draw(st.lists(st.sampled_from(probes), min_size=1, max_size=6))
    weights = dict.fromkeys(keys)
    weights = {key: 1 / len(weights) for key in weights}
    got = outcome(canonical_profile(weights).resolve, comp)
    want = outcome(scan_resolve, comp, weights)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()
    shells = {e: 1 / comp.n_shells for e in comp.shell_energies.tolist()}
    np.testing.assert_array_equal(canonical_profile(shells).resolve(comp),
                                  scan_resolve(comp, shells))
