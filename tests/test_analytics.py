from fractions import Fraction
import math
import tracemalloc

import numpy as np
import pytest

from hsmc import (CANONICAL, MICROCANONICAL, MomentQuery, build_spectrum, canonical_profile,
                  compose,
                  dominant_distribution, expected_purity_approx, expected_purity_exact,
                  fit_temperature, gas_purity_entropy, hypersphere_moment,
                  hypersphere_moment_mc, lubkin_average,
                  marginal_gas_distribution, max_entropy_micro, mc_average,
                  microcanonical_profile, min_purity_state, page_entropy, region_log_size,
                  region_mean_purity, region_size_ratio)
import hsmc.analytics
from hsmc.analytics import MAX_MOMENT_ORDER, _power
from hsmc.state import BATCH_ELEMENTS


def composite_one():
    """Four blocks of 8 states each, shells at E = 0, 1, 2."""
    return compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 4), (1, 4)]))


def composite_three():
    """Shells E=0 {(0,0)} N=2, E=1 {(0,1),(1,0)} N=8, E=2 {(1,1)} N=6."""
    return compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))


def antidiagonal_composite():
    """One middle shell holding two subspaces with 1 and 3 states."""
    return compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 1), (1, 1)]))


# ------------------------------------------------------------ minimum purity

def test_min_purity_single_level_is_maximally_mixed():
    gas = build_spectrum([(0, 4)])
    populations, p_min = min_purity_state(gas, [1.0])
    np.testing.assert_allclose(populations, np.full(4, 0.25), atol=1e-15)
    assert p_min == pytest.approx(0.25)


def test_min_purity_two_levels():
    gas = build_spectrum([(0, 2), (1, 2)])
    populations, p_min = min_purity_state(gas, [0.5, 0.5])
    assert p_min == pytest.approx(0.25)
    np.testing.assert_allclose(populations, [0.25] * 4, atol=1e-15)


def test_min_purity_uneven_degeneracies():
    gas = build_spectrum([(0, 1), (1, 3)])
    populations, p_min = min_purity_state(gas, [0.3, 0.7])
    assert p_min == pytest.approx(0.09 + 0.49 / 3)
    # one population per gas state, not a dim_gas x dim_gas matrix
    assert populations.shape == (gas.dim,)
    # the returned diagonal state must actually have that purity
    assert np.sum(populations ** 2) == pytest.approx(p_min, abs=1e-14)


def test_min_purity_rejects_bad_weights():
    gas = build_spectrum([(0, 2), (1, 2)])
    with pytest.raises(ValueError, match="sum"):
        min_purity_state(gas, [0.4, 0.4])
    with pytest.raises(ValueError, match="expected 2"):
        min_purity_state(gas, [1.0])


# ----------------------------------------------------------- maximum entropy

def test_max_entropy_values():
    assert max_entropy_micro([1.0], [4]) == pytest.approx(np.log(4))
    assert max_entropy_micro([0.5, 0.5], [1, 1]) == pytest.approx(np.log(2))
    assert max_entropy_micro([0.5, 0.5], [2, 2]) == pytest.approx(np.log(4))


def test_max_entropy_of_a_subnormal_weight_is_finite():
    # W_A / N_A underflows to 0 here, and its log was -inf
    with np.errstate(all="raise"):
        s = max_entropy_micro([1.0, 5e-324], [1, 3])
    assert np.isfinite(s) and s >= 0.0
    assert s == pytest.approx(5e-324 * (np.log(3) - np.log(5e-324)), rel=1e-2)


def test_max_entropy_matches_density_matrix_oracle():
    gas = build_spectrum([(0, 2), (1, 3)])
    weights = [0.4, 0.6]
    populations, _ = min_purity_state(gas, weights)
    want = -np.sum(populations * np.log(populations))
    assert max_entropy_micro(weights, gas.degeneracies) == pytest.approx(want, abs=1e-12)


def test_max_entropy_skips_zero_weight_levels():
    assert max_entropy_micro([1.0, 0.0], [4, 7]) == pytest.approx(np.log(4))


def test_max_entropy_rejects_length_mismatch():
    with pytest.raises(ValueError, match="matching"):
        max_entropy_micro([0.5, 0.5], [2])


def test_a_nan_input_is_refused_not_dropped():
    # these once returned 0.3466, kT = 2.18 from the other two levels, and (nan, nan)
    with pytest.raises(ValueError, match="nonnegative"):
        max_entropy_micro([0.5, np.nan], [1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        fit_temperature(build_spectrum([(0, 1), (1, 1), (2, 1)]), [0.5, np.nan, 0.2])
    with pytest.raises(ValueError, match="NaN"):
        region_size_ratio(antidiagonal_composite(), [0.0, 1.0, 0.0], [0.0, np.nan, 0.0, 0.0])


# ----------------------------------------------------------- expected purity

def test_expected_purity_fully_degenerate_reduces_to_lubkin():
    comp = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))
    value = expected_purity_exact(comp, [1.0], [1.0])
    assert value == pytest.approx(lubkin_average(2, 2))
    assert value == pytest.approx(0.8)
    # and with asymmetric dimensions
    comp = compose(build_spectrum([(0, 3)]), build_spectrum([(0, 7)]))
    assert expected_purity_exact(comp, [1.0], [1.0]) == pytest.approx(lubkin_average(3, 7))


def test_expected_purity_known_value():
    comp = composite_one()
    value = expected_purity_exact(comp, [0.5, 0.5], [0.5, 0.5])
    # 0.25*0.5 + 0.125*0.5 + 4 * 0.0625 * 6/9
    assert value == pytest.approx(0.125 + 0.0625 + 1.0 / 6.0, abs=1e-15)


def test_expected_purity_matches_monte_carlo():
    comp = composite_one()
    exact = expected_purity_exact(comp, [0.5, 0.5], [0.5, 0.5])
    profile = microcanonical_profile(
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25})
    est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, 3000, seed=314)
    assert abs(est.mean - exact) < 4 * est.std_error


def test_expected_purity_approaches_approx_for_large_container():
    gas = build_spectrum([(0, 2), (1, 2)])
    w_a, w_b = [0.5, 0.5], [0.4, 0.6]
    small = compose(gas, build_spectrum([(0, 4), (1, 4)]))
    big = compose(gas, build_spectrum([(0, 400), (1, 400)]))
    approx_big = expected_purity_approx(big, w_a, w_b)
    exact_big = expected_purity_exact(big, w_a, w_b)
    exact_small = expected_purity_exact(small, w_a, w_b)
    approx_small = expected_purity_approx(small, w_a, w_b)
    assert abs(exact_big - approx_big) < abs(exact_small - approx_small) / 50
    assert abs(exact_big - approx_big) / exact_big < 1e-2


def test_expected_purity_approx_values():
    gas = build_spectrum([(0, 2), (1, 2)])
    assert expected_purity_approx(compose(gas, gas), [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.5)
    p_min = 0.25
    value = expected_purity_approx(compose(gas, build_spectrum([(0, 10 ** 6)])), [0.5, 0.5], [1.0])
    assert value == pytest.approx(p_min + 1e-6)


def test_exact_approx_gap_small_for_large_blocks():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n_a = rng.integers(10, 30, size=2)
        n_b = rng.integers(10, 30, size=2)
        gas = build_spectrum([(0, int(n_a[0])), (1, int(n_a[1]))])
        container = build_spectrum([(0, int(n_b[0])), (1, int(n_b[1]))])
        comp = compose(gas, container)
        w_a = rng.dirichlet([2, 2])
        w_b = rng.dirichlet([2, 2])
        exact = expected_purity_exact(comp, w_a, w_b)
        approx = expected_purity_approx(comp, w_a, w_b)
        assert abs(exact - approx) / exact < 1e-2


def _pair_sum_mean_purity(comp, profile):
    """E Tr rho_g^2 summed over amplitude pairs from the sphere moments, O(dim^2).

    Tr rho_g^2 = sum |z_ac|^2 |z_a'c'|^2 over the pairs of cells that share a
    gas row or a container column, each pair in both once.  Within a block
    of N states and weight W, E|z_i|^2 |z_j|^2 = (1 + delta_ij) W^2 / (N (N + 1));
    across blocks the means W/N multiply.
    """
    w = profile.resolve(comp)
    gas_start, container_start = comp.gas.level_offsets(), comp.container.level_offsets()
    row, col, block = [], [], []
    for i in range(comp.n_subspaces):  # lexicographic blocks, row-major (a, b) inside
        A, B = divmod(i, comp.container.n_levels)
        k = comp.block_of(profile.kind)[i]
        for a in range(comp.gas.degeneracies[A]):
            for b in range(comp.container.degeneracies[B]):
                row.append(gas_start[A] + a)
                col.append(container_start[B] + b)
                block.append(k)
    row, col, block = map(np.array, (row, col, block))
    size = np.bincount(block, minlength=len(w)).astype(float)
    mean = (w / size)[block]
    within = (w * w / (size * (size + 1.0)))[block]
    second = np.where(block[:, None] == block[None, :], within[:, None], np.outer(mean, mean))
    second[np.diag_indices_from(second)] *= 2.0
    shared = (row[:, None] == row[None, :]) | (col[:, None] == col[None, :])
    return float(second[shared].sum())


PAIR_SUM_CASES = [  # (gas levels, container levels, kind, weights, shell tolerance); dim <= 60
    ([(0, 3)], [(0, 7)], "micro", {(0, 0): 1.0}, 1e-9),
    ([(0, 2), (1, 3)], [(0, 2), (1, 4)], "micro", {(0, 0): 0.1, (0, 1): 0.4, (1, 1): 0.5}, 1e-9),
    ([(0, 1), (1, 2), (2, 1)], [(0, 2), (1, 3), (2, 2)], "micro",
     {(0, 2): 0.2, (1, 0): 0.3, (1, 1): 0.15, (2, 1): 0.35}, 1e-9),
    ([(0, 2), (1, 2)], [(0, 4), (1, 4)], "micro",
     {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}, 1e-9),
    ([(0, 2), (1, 2)], [(0, 4), (1, 4)], "canonical", {0: 0.2, 1: 0.5, 2: 0.3}, 1e-9),
    ([(0, 1), (1, 2), (2, 1)], [(0, 2), (1, 3), (2, 2)], "canonical", {1: 0.6, 3: 0.4}, 1e-9),
    ([(0, 1), (1, 1), (2, 1)], [(e, 2 ** e) for e in range(4)], "canonical",
     {2: 0.1, 3: 0.3, 4: 0.6}, 1e-9),
    ([(0, 3), (1, 1)], [(0, 5), (2, 3)], "canonical", {0: 0.5, 1: 0.1, 3: 0.4}, 1e-9),
    # merged by shell_tolerance: each gas level holds three subspaces of one shell
    ([(0, 1), (1, 1)], [(0, 1), (0.1, 1), (0.2, 1)], "canonical", {0.1: 0.4, 1.1: 0.6}, 0.15),
]


@pytest.mark.parametrize("gas, container, kind, weights, tolerance", PAIR_SUM_CASES)
def test_region_mean_purity_is_the_sum_over_amplitude_pairs(gas, container, kind, weights,
                                                            tolerance):
    comp = compose(build_spectrum(gas), build_spectrum(container), tolerance)
    assert comp.dim <= 60
    profile = (microcanonical_profile if kind == "micro" else canonical_profile)(weights)
    want = _pair_sum_mean_purity(comp, profile)
    assert region_mean_purity(comp, profile) == pytest.approx(want, rel=1e-14, abs=0)


def test_region_mean_purity_of_a_canonical_region_holds_levels_by_shells():
    # 120 x 120 nondegenerate levels: 14 400 subspaces in 239 shells.  The counts
    # were once levels x subspaces before the shell sums, a 40.3 MiB peak, and
    # levels x blocks after: 40.2 MiB for the microcanonical region, where each
    # subspace is its own block.
    levels = build_spectrum([(e, 1) for e in range(120)])
    comp = compose(levels, levels)
    w = np.outer(np.linspace(1, 2, 120), np.linspace(2, 1, 120)).ravel()
    w_shell = comp.shell_sums(w)
    a, b = divmod(np.arange(comp.n_subspaces), 120)
    for profile in (
            canonical_profile(dict(zip(comp.shell_energies.tolist(), w_shell / w_shell.sum()))),
            microcanonical_profile(dict(zip(zip(a.tolist(), b.tolist()), (w / w.sum()).tolist())))):
        region_mean_purity(comp, profile)  # numpy imports modules on first use
        tracemalloc.start()
        try:
            region_mean_purity(comp, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, (profile.kind, peak)


def _fraction_mean_purity(gas, container, shell_weights):
    """region_mean_purity's formula in exact fractions, level by level, for a canonical
    region of integer energies: blocks are the shells E = E_A + E_B."""
    levels = [(int(e_a), n_a, int(e_b), n_b)
              for e_a, n_a in zip(gas.energies, gas.degeneracies)
              for e_b, n_b in zip(container.energies, container.degeneracies)]
    size = {e: sum(n_a * n_b for e_a, n_a, e_b, n_b in levels if e_a + e_b == e)
            for e in shell_weights}
    # each row of gas level A holds N_B states of the shell at E_A + E_B, each column n_A
    row, col = {}, {}
    for e_a, n_a, e_b, n_b in levels:
        if e_a + e_b in shell_weights:
            row.setdefault(e_a, {})[e_a + e_b] = n_b
            col.setdefault(e_b, {})[e_a + e_b] = n_a
    n_row = dict(zip(map(int, gas.energies), gas.degeneracies))
    n_col = dict(zip(map(int, container.energies), container.degeneracies))
    mean = Fraction(0)
    for counts, n in ((row, n_row), (col, n_col)):
        for level, held in counts.items():
            mean += n[level] * sum(Fraction(c) * shell_weights[e] / size[e]
                                   for e, c in held.items()) ** 2
    for e, w in shell_weights.items():
        q = sum(n[level] * held.get(e, 0) ** 2 for counts, n in ((row, n_row), (col, n_col))
                for level, held in counts.items())
        mean -= w * w * q / (size[e] ** 2 * (size[e] + 1))
    return mean


def test_canonical_mean_purity_reaches_the_jaynes_minimum_like_1_over_k():
    # The paper's thermodynamic limit: a nondegenerate 3-level gas, container levels
    # e = 0..10 of degeneracy k 2^e, all weight in the shell E = 8 of N = 448 k states.
    # Rows hold 4/7, 2/7 and 1/7 of it, so E[P] = 3/7 + 4 / (7 (N + 1)): the Jaynes
    # state's purity 3/7 plus a gap of 1 / (784 k) to within 1 / (448 k).
    gas = build_spectrum([(0, 1), (1, 1), (2, 1)])
    profile = canonical_profile({8: 1.0})

    def container(k):
        return build_spectrum([(e, k * 2 ** e) for e in range(11)])

    compose(gas, container(1))  # numpy imports modules on first use
    for k in (10 ** j for j in range(10)):
        comp = compose(gas, container(k))
        gap = region_mean_purity(comp, profile) - 3 / 7
        assert abs(784 * k * gap - 1) <= 3e-3, (k, 784 * k * gap)
    assert comp.dim == 3 * k * (2 ** 11 - 1)  # 6.1e12 states: nothing of that length is built
    exact = _fraction_mean_purity(gas, container(k), {8: Fraction(1)})
    assert exact == Fraction(3, 7) + Fraction(4, 7 * (448 * k + 1))
    got = region_mean_purity(comp, profile)
    assert abs(got - float(exact)) <= 4 * math.ulp(float(exact)), (got, float(exact))
    marginal = marginal_gas_distribution(dominant_distribution(comp, profile.resolve(comp)))
    assert fit_temperature(gas, marginal)[0] == pytest.approx(1 / math.log(2), rel=1e-12)
    tracemalloc.start()
    try:
        compose(gas, container(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def _three_term_product_purity(w_a, n_a, w_b, n_b):
    """The product-weight closed form expected_purity_exact once summed itself."""
    w_a, n_a, w_b, n_b = (np.asarray(x, dtype=float) for x in (w_a, n_a, w_b, n_b))
    cross = np.sum(np.outer(w_a ** 2, w_b ** 2) * (n_a[:, None] + n_b[None, :])
                   / (np.outer(n_a, n_b) + 1.0))
    return float(np.sum(w_a ** 2 / n_a) * (1.0 - np.sum(w_b ** 2))
                 + np.sum(w_b ** 2 / n_b) * (1.0 - np.sum(w_a ** 2)) + cross)


def test_region_mean_purity_keeps_the_product_and_lubkin_forms():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_a = rng.integers(1, 40, size=rng.integers(1, 5))
        n_b = rng.integers(1, 200, size=rng.integers(1, 5))
        w_a, w_b = rng.dirichlet(np.ones(len(n_a))), rng.dirichlet(np.ones(len(n_b)))
        comp = compose(build_spectrum(list(enumerate(n_a.tolist()))),
                       build_spectrum(list(enumerate(n_b.tolist()))))
        want = _three_term_product_purity(w_a, n_a, w_b, n_b)
        assert expected_purity_exact(comp, w_a, w_b) == pytest.approx(want, rel=1e-15, abs=0)
    for n_gas in range(1, 12):
        for n_container in range(1, 40):
            comp = compose(build_spectrum([(0, n_gas)]), build_spectrum([(0, n_container)]))
            assert region_mean_purity(comp, microcanonical_profile({(0, 0): 1.0})) == \
                pytest.approx(lubkin_average(n_gas, n_container), rel=1e-15, abs=0)


def test_lubkin_values():
    for n in (1, 2, 17, 1000):
        assert lubkin_average(1, n) == pytest.approx(1.0)
    assert lubkin_average(2, 2) == pytest.approx(0.8)
    big = lubkin_average(2, 10 ** 4)
    assert big == pytest.approx(10002 / 20001)
    assert abs(big - 0.5) < 1e-4  # approaches 1/N_g from above
    with pytest.raises(ValueError):
        lubkin_average(0, 5)


@pytest.mark.parametrize("dims", [(True, 8), (8, False), (2.5, 8), (math.nan, 2), (2, math.inf),
                                  (-3, 2)])
def test_dimensions_that_are_not_positive_integers_are_refused(dims):
    # truth values, fractions and NaN once gave 1.0, 0.5 or nan (and a TypeError)
    for closed_form in (lubkin_average, page_entropy):
        with pytest.raises(ValueError, match="integers >= 1"):
            closed_form(*dims)


def test_page_entropy_values():
    assert page_entropy(2, 2) == pytest.approx(1 / 3, rel=1e-15)
    for m, n in ((2, 3), (3, 7), (5, 4), (1, 9)):
        assert page_entropy(m, n) == page_entropy(n, m)
    # large n: ln m - (m^2 - 1) / (2 m n) + O(1/n^2)
    m, n = 2, 1000
    assert abs(page_entropy(m, n) - (math.log(m) - (m * m - 1) / (2 * m * n))) < 1 / n ** 2
    with pytest.raises(ValueError):
        page_entropy(0, 5)


# --------------------------------------------------------- sphere moments

def test_moment_values():
    assert hypersphere_moment(MomentQuery(R=1, d=4, u_l=0, u_m=2)) == pytest.approx(0.25)
    assert hypersphere_moment(MomentQuery(R=1, d=2, u_l=2, u_m=2)) == pytest.approx(0.125)
    assert hypersphere_moment(MomentQuery(R=1, d=2, u_l=0, u_m=4)) == pytest.approx(0.375)
    assert hypersphere_moment(MomentQuery(R=1, d=1, u_l=0, u_m=0)) == 1.0


def test_moment_powers_match_numpy_pow():
    x = np.random.default_rng(5).uniform(-2.0, 2.0, 4096)
    for u in (0, 1, 2, 2.0):
        np.testing.assert_array_equal(_power(x, u), x ** u)
    for u in range(3, 13):
        # repeated squaring rounds once per product: at most u - 1 roundings
        np.testing.assert_array_max_ulp(_power(x, u), x ** u, maxulp=u)


def test_moment_odd_exponents_vanish():
    for d in (1, 2, 5, 64):
        for R in (0.5, 1.0, 3.0):
            assert hypersphere_moment(MomentQuery(R=R, d=d, u_l=0, u_m=1)) == 0.0
    assert hypersphere_moment(MomentQuery(R=2.0, d=6, u_l=1, u_m=1)) == 0.0


def test_moment_radius_scaling():
    base = hypersphere_moment(MomentQuery(R=1, d=6, u_l=0, u_m=2))
    assert hypersphere_moment(MomentQuery(R=3, d=6, u_l=0, u_m=2)) == pytest.approx(9 * base)
    quart = hypersphere_moment(MomentQuery(R=1, d=6, u_l=2, u_m=2))
    assert hypersphere_moment(MomentQuery(R=2, d=6, u_l=2, u_m=2)) == pytest.approx(16 * quart)


def test_moment_exchange_symmetry():
    for (u_l, u_m) in [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 4)]:
        a = hypersphere_moment(MomentQuery(R=1.3, d=8, u_l=u_l, u_m=u_m))
        b = hypersphere_moment(MomentQuery(R=1.3, d=8, u_l=u_m, u_m=u_l))
        assert a == b


def test_moment_pairs_outside_the_former_table():
    # (1, 2) and (6, 0) were refused before the one formula
    assert hypersphere_moment(MomentQuery(R=1, d=4, u_l=1, u_m=2)) == 0.0
    for R, d in [(1.0, 4), (1.7, 3), (0.4, 11)]:
        want = 15 * R ** 6 / (d * (d + 2) * (d + 4))
        got = hypersphere_moment(MomentQuery(R=R, d=d, u_l=6, u_m=0))
        assert got == pytest.approx(want, rel=1e-15)


def _former_closed_form(R, d, pair):
    """The six hand-written cases hsmc had before the one formula."""
    if pair == (0, 0):
        return 1.0
    if pair in ((0, 1), (1, 1)):
        return 0.0
    if pair == (0, 2):
        return float(R ** 2 / d)
    base = float(R ** 4 / (d * (d + 2)))
    return base if pair == (2, 2) else 3.0 * base


def test_moment_matches_the_six_former_forms():
    for R in (0.3, 1.3, 2.0, 7.1):
        for d in range(1, 200):
            for pair in [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 4)]:
                if d == 1 and pair[0] > 0:
                    continue
                got = hypersphere_moment(MomentQuery(R=R, d=d, u_l=pair[0], u_m=pair[1]))
                want = _former_closed_form(R, d, pair)
                assert abs(got - want) <= 4.5e-16 * abs(want), (R, d, pair)


def test_moment_stays_exact_at_large_dimension():
    # lgamma-based forms lose about 1e-9 relative here; the integer ratio does not
    d = 10 ** 9
    got = hypersphere_moment(MomentQuery(R=1, d=d, u_l=2, u_m=4))
    want = float(Fraction(3, d * (d + 2) * (d + 4)))
    assert got == want


@pytest.mark.parametrize("d", [2, 3, 7], ids=lambda d: f"d{d}")
@pytest.mark.parametrize("pair", [(2, 4), (0, 6), (4, 4), (1, 3)], ids=lambda p: f"{p[0]}_{p[1]}")
def test_moment_new_pairs_match_mc(d, pair):
    query = MomentQuery(R=1.2, d=d, u_l=pair[0], u_m=pair[1])
    exact = hypersphere_moment(query)
    est = hypersphere_moment_mc(query, 200_000, seed=100 * d + 10 * pair[0] + pair[1])
    assert abs(est.mean - exact) < 5 * est.std_error


def test_moment_on_a_line():
    # d = 1: the sphere is {-R, R}, so x_1^4 averages to R^4 exactly
    query = MomentQuery(R=1.5, d=1, u_l=0, u_m=4)
    assert hypersphere_moment(query) == 1.5 ** 4
    est = hypersphere_moment_mc(query, 1000, seed=3)
    assert est.mean == pytest.approx(1.5 ** 4, rel=1e-15) and est.std_error < 1e-14


def test_moment_order_limit():
    MomentQuery(R=1, d=4, u_l=MAX_MOMENT_ORDER, u_m=0)
    MomentQuery(R=1, d=4, u_l=MAX_MOMENT_ORDER - 2, u_m=2)
    with pytest.raises(ValueError, match="maximum"):
        MomentQuery(R=1, d=4, u_l=MAX_MOMENT_ORDER - 1, u_m=2)
    with pytest.raises(ValueError, match="maximum"):
        MomentQuery(R=0.5, d=4, u_l=10 ** 9, u_m=0)  # would otherwise hang


def test_moment_two_coordinates_need_two_dimensions():
    with pytest.raises(ValueError, match="d >= 2"):
        hypersphere_moment(MomentQuery(R=1, d=1, u_l=2, u_m=2))


def test_moment_query_validation():
    with pytest.raises(ValueError, match="radius"):
        MomentQuery(R=-1, d=4, u_l=0, u_m=2)
    with pytest.raises(ValueError, match="dimension"):
        MomentQuery(R=1, d=0, u_l=0, u_m=2)
    with pytest.raises(ValueError, match="exponent"):
        MomentQuery(R=1, d=4, u_l=-2, u_m=0)
    with pytest.raises(ValueError, match="exponent"):
        MomentQuery(R=1, d=4, u_l=0.5, u_m=0)
    with pytest.raises(ValueError, match="dimension"):
        MomentQuery(R=1, d=2**63, u_l=0, u_m=2)
    with pytest.raises(ValueError, match="dimension"):
        MomentQuery(R=1.0, d=math.inf, u_l=2, u_m=0)
    with pytest.raises(ValueError, match="dimension"):
        MomentQuery(R=1.0, d=math.nan, u_l=2, u_m=0)
    with pytest.raises(ValueError, match="exponents"):
        MomentQuery(R=1.0, d=4, u_l=math.inf, u_m=0)
    with pytest.raises(ValueError, match="too large"):
        MomentQuery(R=1e300, d=4, u_l=0, u_m=2)
    MomentQuery(R=1e300, d=4, u_l=0, u_m=0)


def test_moment_mc_agrees_with_closed_form():
    query = MomentQuery(R=1, d=4, u_l=0, u_m=2)
    est = hypersphere_moment_mc(query, 20000, seed=5)
    assert abs(est.mean - 0.25) < 5 * est.std_error
    quart = MomentQuery(R=1, d=2, u_l=2, u_m=2)
    est = hypersphere_moment_mc(quart, 20000, seed=6)
    assert abs(est.mean - 0.125) < 5 * est.std_error


def test_moment_mc_deterministic_and_chunk_independent(monkeypatch):
    query = MomentQuery(R=1, d=3, u_l=0, u_m=2)
    a = hypersphere_moment_mc(query, 500, seed=11)
    b = hypersphere_moment_mc(query, 500, seed=11)
    assert a.mean == b.mean and a.std_error == b.std_error
    monkeypatch.setattr(hsmc.analytics, "BATCH_ELEMENTS", 64)
    c = hypersphere_moment_mc(query, 500, seed=11)
    assert c.mean == pytest.approx(a.mean, rel=1e-12)
    assert c.std_error == pytest.approx(a.std_error, rel=1e-10)


def test_moment_mc_memory_does_not_grow_with_the_points():
    # chunks of BATCH_ELEMENTS points; 100 000 points were once one chunk of about 5 MB
    query = MomentQuery(R=1, d=4, u_l=0, u_m=2)
    hypersphere_moment_mc(query, 10, seed=13)  # numpy imports modules on first use
    tracemalloc.start()
    try:
        hypersphere_moment_mc(query, 100_000, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * BATCH_ELEMENTS, peak


def test_moment_mc_holds_one_chunk_at_a_time():
    # a chunk's points and values die before the next chunk is drawn: once two
    # chunks were alive, 1.40 MB against 0.87 MB for one
    query = MomentQuery(R=1, d=4, u_l=0, u_m=2)
    hypersphere_moment_mc(query, 2 * BATCH_ELEMENTS, seed=13)  # numpy imports modules on first use
    peak = {}
    for n in (BATCH_ELEMENTS, 6 * BATCH_ELEMENTS):
        tracemalloc.start()
        try:
            hypersphere_moment_mc(query, n, seed=13)
            peak[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[6 * BATCH_ELEMENTS] <= 1.1 * peak[BATCH_ELEMENTS], peak


# ---------------------------------------------------------- region geometry

def test_region_log_size_values():
    single = compose(build_spectrum([(0, 1)]), build_spectrum([(0, 1)]))
    assert region_log_size(single, [1.0]) == 0.0
    pair = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1)]))
    assert region_log_size(pair, [0.5, 0.5]) == pytest.approx(2 * np.log(0.5))
    assert region_log_size(pair, [1.0, 0.0]) == -math.inf


def test_region_log_size_exact_exponent_flag():
    pair = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1)]))
    assert region_log_size(pair, [0.5, 0.5], exact_exponent=True) == pytest.approx(np.log(0.5))


def test_region_log_size_validation():
    pair = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1)]))
    with pytest.raises(ValueError, match="expected 2"):
        region_log_size(pair, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        region_log_size(pair, [1.5, -0.5])
    with pytest.raises(ValueError, match="sum"):
        region_log_size(pair, [0.6, 0.6])
    # the same 1e-12 sum tolerance as every other weight check
    with pytest.raises(ValueError, match="sum"):
        region_log_size(pair, [0.5, 0.5 + 5e-10])


def test_dominant_single_shell_split():
    comp = antidiagonal_composite()
    dd = dominant_distribution(comp, [0.0, 1.0, 0.0])
    assert dd.w_d[comp.subspace_index(0, 1)] == pytest.approx(0.25)
    assert dd.w_d[comp.subspace_index(1, 0)] == pytest.approx(0.75)
    assert dd.w_d[comp.subspace_index(0, 0)] == 0.0 and dd.w_d[comp.subspace_index(1, 1)] == 0.0
    assert set(dd.lambdas) == {1.0}
    assert dd.lambdas[1.0] == pytest.approx(4.0)


def test_dominant_multiplier_overflow_names_the_shell():
    comp = antidiagonal_composite()
    with np.errstate(all="raise"), pytest.raises(ValueError, match=r"E=1\.0.*5e-324"):
        dominant_distribution(comp, [1.0, 5e-324, 0.0])
    # the smallest weight whose multiplier N_E / W_E stays finite
    dd = dominant_distribution(comp, [1.0, 4 / np.finfo(float).max, 0.0])
    assert math.isfinite(dd.lambdas[1.0])


def test_dominant_equal_blocks_split_uniformly():
    comp = composite_one()  # middle shell holds two 8-state subspaces
    dd = dominant_distribution(comp, [0.0, 1.0, 0.0])
    assert dd.w_d[comp.subspace_index(0, 1)] == pytest.approx(0.5)
    assert dd.w_d[comp.subspace_index(1, 0)] == pytest.approx(0.5)


def test_dominant_three_shell_example():
    comp = composite_three()
    dd = dominant_distribution(comp, [0.2, 0.5, 0.3])
    want = {(0, 0): 0.2, (0, 1): 0.125, (1, 0): 0.375, (1, 1): 0.3}
    for key, value in want.items():
        assert dd.w_d[comp.subspace_index(*key)] == pytest.approx(value, abs=1e-15)
    assert dd.lambdas[0.0] == pytest.approx(2 / 0.2)
    assert dd.lambdas[1.0] == pytest.approx(8 / 0.5)
    assert dd.lambdas[2.0] == pytest.approx(6 / 0.3)
    # within each shell w_d / N_AB is constant and the shell sums recover W_E
    assert (dd.w_d[comp.subspace_index(0, 1)] / 2
            == pytest.approx(dd.w_d[comp.subspace_index(1, 0)] / 6))
    assert dd.w_d.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(dd.w_d, [0.2, 0.125, 0.375, 0.3], atol=1e-15)


def test_dominant_is_region_log_size_argmax():
    # independent constrained maximization over the middle shell's split
    scipy_optimize = pytest.importorskip("scipy.optimize")
    comp = composite_three()
    w_e = np.array([0.2, 0.5, 0.3])
    dd = dominant_distribution(comp, w_e)

    shells = [np.flatnonzero(comp.block_of(CANONICAL) == k) for k in range(comp.n_shells)]
    dims = comp.block_dims(MICROCANONICAL).astype(float)

    def objective(x):
        # raw log-size formula, no normalization check, so the optimizer's
        # finite-difference probes stay legal
        return -float(np.sum(dims * np.log(np.maximum(x, 1e-300))))

    constraints = [
        {"type": "eq", "fun": (lambda x, m=m, w=w: float(x[m].sum() - w))}
        for m, w in zip(shells, w_e)
    ]
    x0 = np.concatenate([np.full(len(m), w / len(m)) for m, w in zip(shells, w_e)])
    order = np.argsort(np.concatenate(shells))
    x0 = x0[order]
    result = scipy_optimize.minimize(
        objective, x0, method="SLSQP", constraints=constraints,
        bounds=[(1e-9, 1.0)] * comp.n_subspaces, options={"ftol": 1e-14, "maxiter": 500})
    assert result.success
    np.testing.assert_allclose(result.x, dd.w_d, atol=1e-6)


def test_region_size_ratio_zero_perturbation():
    comp = composite_three()
    gaussian, exact = region_size_ratio(comp, [0.2, 0.5, 0.3], np.zeros(4))
    assert gaussian == 1.0 and exact == 1.0


def test_region_size_ratio_known_value():
    comp = antidiagonal_composite()
    eps = np.array([0.0, 0.01, -0.01, 0.0])
    gaussian, exact = region_size_ratio(comp, [0.0, 1.0, 0.0], eps)
    # exp(-16e-4/2 - 16e-4/6) with the shell at weight 1
    assert gaussian == pytest.approx(math.exp(-0.0010666666666666667), abs=1e-15)
    want_exact = math.exp(math.log(0.26 / 0.25) + 3 * math.log(0.74 / 0.75))
    assert exact == pytest.approx(want_exact, abs=1e-13)
    assert abs(math.log(gaussian) - math.log(exact)) < 5e-5


def test_region_size_ratio_third_order_agreement():
    comp = composite_three()
    w_e = [0.2, 0.5, 0.3]
    direction = np.array([0.0, 1.0, -1.0, 0.0])  # inside the middle shell
    errors = []
    for scale in (0.02, 0.01, 0.005, 0.0025):
        gaussian, exact = region_size_ratio(comp, w_e, scale * direction)
        errors.append(abs(math.log(gaussian) - math.log(exact)))
    for big, small in zip(errors, errors[1:]):
        assert small < big / 6  # cubic scaling gives a factor 8 per halving


def test_region_size_ratio_rejections():
    comp = antidiagonal_composite()
    with pytest.raises(ValueError, match="shell"):
        region_size_ratio(comp, [0.0, 1.0, 0.0], [0.0, 0.01, 0.01, 0.0])
    with pytest.raises(ValueError, match="negative"):
        region_size_ratio(comp, [0.0, 1.0, 0.0], [0.0, -0.3, 0.3, 0.0])
    # a zero-weight shell has nothing to redistribute: any zero-sum
    # perturbation inside it drives some weight below zero
    comp = composite_one()
    with pytest.raises(ValueError):
        region_size_ratio(comp, [0.5, 0.0, 0.5], [0.0, 0.01, -0.01, 0.0])


# ------------------------------------------------- marginal and temperature

def test_marginal_single_container_level():
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 4)]))
    dd = dominant_distribution(comp, [0.4, 0.6])
    np.testing.assert_allclose(marginal_gas_distribution(dd), [0.4, 0.6], atol=1e-15)


def test_marginal_three_shell_example():
    dd = dominant_distribution(composite_three(), [0.2, 0.5, 0.3])
    np.testing.assert_allclose(marginal_gas_distribution(dd), [0.325, 0.675],
                               atol=1e-15)
    assert marginal_gas_distribution(dd).sum() == pytest.approx(1.0, abs=1e-12)


def geometric_composite():
    gas = build_spectrum([(0, 1), (1, 1), (2, 1)])
    container = build_spectrum([(e, 2 ** e) for e in range(9)])
    return compose(gas, container)


def test_marginal_delta_shell_counts_container_states():
    # all weight in the top shell: the gas marginal counts the container
    # states left at energy 8 - E_A, here 256 : 128 : 64
    comp = geometric_composite()
    w_e = np.zeros(comp.n_shells)
    w_e[comp.shell_index_at(8.0)] = 1.0
    marginal = marginal_gas_distribution(dominant_distribution(comp, w_e))
    np.testing.assert_allclose(marginal, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)


def test_fit_temperature_exact_exponential():
    gas = build_spectrum([(0, 1), (1, 2), (2, 4), (3, 8)])
    weights = np.array([1.0, 1.0, 1.0, 1.0]) / 4  # W_A/N_A halves per unit energy
    kt, residual = fit_temperature(gas, weights)
    assert kt == pytest.approx(1 / math.log(2), abs=1e-12)
    assert residual < 1e-12


def test_fit_temperature_geometric_container():
    comp = geometric_composite()
    w_e = np.zeros(comp.n_shells)
    w_e[comp.shell_index_at(8.0)] = 1.0
    marginal = marginal_gas_distribution(dominant_distribution(comp, w_e))
    kt, residual = fit_temperature(comp.gas, marginal)
    assert abs(kt - 1 / math.log(2)) < 1e-6
    assert residual < 1e-12
    # Gibbs consistency: refitting the implied exponential reproduces the
    # marginal within the (here vanishing) residual
    gibbs = np.exp(-np.asarray(comp.gas.energies) / kt)
    gibbs /= gibbs.sum()
    np.testing.assert_allclose(marginal, gibbs, atol=1e-12)


def test_fit_temperature_non_exponential_reports_residual():
    gas = build_spectrum([(0, 1), (1, 1), (2, 1)])
    kt, residual = fit_temperature(gas, [0.5, 0.2, 0.3])
    assert math.isfinite(kt)
    assert residual > 1e-3


def test_fit_temperature_inverted_population():
    gas = build_spectrum([(0, 1), (1, 1)])
    kt, residual = fit_temperature(gas, [0.2, 0.8])
    assert kt < 0
    assert residual < 1e-12


def test_fit_temperature_flat_distribution_diverges():
    gas = build_spectrum([(0, 1), (1, 1)])
    kt, _ = fit_temperature(gas, [0.5, 0.5])
    assert abs(kt) > 1e12


def test_fit_temperature_needs_two_points():
    gas = build_spectrum([(0, 1), (1, 1)])
    with pytest.raises(ValueError, match="2 levels"):
        fit_temperature(gas, [1.0, 0.0])
