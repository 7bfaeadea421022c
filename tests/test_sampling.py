from fractions import Fraction
from functools import partial
import math
import os

import numpy as np
import pytest

import hsmc.fanout
import hsmc.sampling
import hsmc.state
from hsmc import (MICROCANONICAL, ConstraintProfile, McEstimate, build_spectrum,
                  canonical_profile, compose, gas_purity_entropy, lubkin_average,
                  gas_state_chunks, mc_average, microcanonical_profile, page_entropy,
                  product_constraint, purity_entropy, reduce_gas_states, sample_canonical,
                  sample_chunks, sample_gas_states,
                  sample_microcanonical, substream)
from hsmc.sampling import mc_estimate, measure_draws


def two_by_two():
    return compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))


def draws(comp, profile, seed, start, count):
    """The (count, dim) amplitudes of draws ``start`` to ``start + count - 1``: the
    chunks of :func:`sample_chunks`, joined."""
    return np.concatenate([np.empty((0, comp.dim), dtype=complex),
                           *sample_chunks(comp, profile, seed, start, count)])


def three_block_composite():
    """Gas (0, 2), (1, 3) x container (0, 2): subspaces of 4, 4 and 6, 6 states."""
    gas = build_spectrum([(0, 2), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    return compose(gas, container)


# ---------------------------------------------------------------- validation

def test_profile_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ConstraintProfile(kind="grand", weights={(0, 0): 1.0})


def test_profile_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        microcanonical_profile({(0, 0): 0.6, (0, 1): 0.5})
    # within tolerance is fine
    microcanonical_profile({(0, 0): 0.5, (0, 1): 0.5 + 5e-13})


def test_profile_rejects_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        canonical_profile({0.0: 1.5, 1.0: -0.5})


def test_profile_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        microcanonical_profile({})


def test_resolve_unknown_subspace():
    comp = two_by_two()
    profile = microcanonical_profile({(3, 0): 1.0})
    with pytest.raises(KeyError, match="no subspace"):
        profile.resolve(comp)


def test_resolve_refuses_a_fraction_or_a_truth_value_as_a_subspace_key():
    # int() once truncated (0.5, 0) onto subspace (0, 0) and read True as 1
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 3), (1, 3)]))
    # a key that is no pair once raised TypeError or ValueError
    for key in [(0.5, 0), (True, 0), (0, np.True_), (math.nan, 0), (-1, 0), (2, 0), ("1", 0),
                5, (0,), (0, 1, 2)]:
        with pytest.raises(KeyError, match="no subspace"):
            microcanonical_profile({key: 1.0}).resolve(comp)
    # a key equal to the level, as a dict keyed by (A, B) finds it
    for key in [(1, 0), (1.0, 0), (np.float64(1.0), 0), (Fraction(1), 0), (np.int64(1), np.uint8(0))]:
        resolved = microcanonical_profile({key: 1.0}).resolve(comp)
        np.testing.assert_array_equal(resolved, np.eye(comp.n_subspaces)[2])


def test_resolve_unknown_shell_energy():
    comp = two_by_two()
    profile = canonical_profile({7.0: 1.0})
    with pytest.raises(KeyError, match="no shell"):
        profile.resolve(comp)


def test_resolve_refuses_a_truth_value_or_a_non_number_as_a_shell_key():
    # float(key) once read True, np.True_ and "1.0" as the shell at E = 1, and None
    # and 1+0j raised TypeError
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 3), (1, 3)]))
    for key in [True, np.True_, "1.0", None, 1 + 0j]:
        with pytest.raises(KeyError, match="no shell"):
            canonical_profile({key: 1.0}).resolve(comp)
    for key in [1, np.int64(1), np.float64(1.0)]:
        resolved = canonical_profile({key: 1.0}).resolve(comp)
        np.testing.assert_array_equal(resolved, np.eye(comp.n_shells)[comp.shell_index_at(1.0)])


def test_resolve_duplicate_shell_keys():
    # two keys within tolerance of the same shell
    comp = compose(build_spectrum([(0.0, 2)]), build_spectrum([(0.0, 2)]),
                   shell_tolerance=1e-6)
    profile = canonical_profile({0.0: 0.5, 1e-9: 0.5})
    with pytest.raises(KeyError, match="resolve to the shell"):
        profile.resolve(comp)


def test_mc_estimate_validation():
    with pytest.raises(ValueError, match="n_samples"):
        McEstimate(mean=0.0, std_error=0.0, n_samples=0, seed=1)
    with pytest.raises(ValueError, match="std_error"):
        McEstimate(mean=0.0, std_error=-1.0, n_samples=5, seed=1)
    with pytest.raises(ValueError, match="std_error"):
        McEstimate(mean=0.0, std_error=float("nan"), n_samples=5, seed=1)


def test_mc_estimate_merges_in_pieces_of_batch_elements(monkeypatch):
    values = substream(3, 0).standard_normal(50)
    whole = mc_estimate([values], 3)
    assert whole.mean == values.mean()  # one piece
    assert whole.std_error == pytest.approx(values.std(ddof=1) / np.sqrt(50), rel=1e-14)
    split = mc_estimate([values[:7], values[7:20], values[20:]], 3)
    assert split.mean == pytest.approx(whole.mean, rel=1e-14)
    assert split.std_error == pytest.approx(whole.std_error, rel=1e-14)
    # a chunk is cut into pieces of at most BATCH_ELEMENTS values, whoever chunked it
    pieces = mc_estimate((values[a:a + 8] for a in range(0, 50, 8)), 3)
    monkeypatch.setattr(hsmc.sampling, "BATCH_ELEMENTS", 8)
    assert mc_estimate([values], 3) == pieces
    with pytest.raises(ValueError, match="at least 2 values"):
        mc_estimate([values[:1], values[:0]], 3)


def test_sampler_checks_profile_kind():
    comp = two_by_two()
    micro = microcanonical_profile({(0, 0): 1.0})
    cano = canonical_profile({0.0: 1.0})
    with pytest.raises(ValueError, match="microcanonical"):
        sample_microcanonical(comp, cano, substream(0, 0))
    with pytest.raises(ValueError, match="canonical"):
        sample_canonical(comp, micro, substream(0, 0))


def test_substream_rejects_negative():
    for seed, index in ((-1, 0), (0, -1), (2**64, 0), (0, 2**64)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            substream(seed, index)
    substream(2**64 - 1, 2**64 - 1)  # the largest key Philox accepts


def test_substream_keys_are_exact_above_2_63():
    # a key mixing a word >= 2**63 with a smaller one must not pass through float64
    draws = {(seed, index): substream(seed, index).standard_normal(4).tobytes()
             for seed, index in ((0, 5), (2**64 - 1, 5), (2**63 + 12344, 5),
                                 (2**63 + 12345, 5), (5, 2**63 + 12344), (5, 2**63 + 12345))}
    assert len(set(draws.values())) == len(draws)


# ----------------------------------------------------- constraint exactness

def test_microcanonical_draw_hits_weights_exactly():
    comp = three_block_composite()
    weights = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
    profile = microcanonical_profile(weights)
    target = profile.resolve(comp)
    for i in range(20):
        state = sample_microcanonical(comp, profile, substream(11, i))
        np.testing.assert_allclose(state.subspace_weights(), target, atol=1e-12)


def test_canonical_draw_hits_shell_weights_exactly():
    comp = three_block_composite()  # shells at E = 0, 1, 2
    profile = canonical_profile({0.0: 0.2, 1.0: 0.5, 2.0: 0.3})
    target = profile.resolve(comp)
    for i in range(20):
        state = sample_canonical(comp, profile, substream(12, i))
        np.testing.assert_allclose(state.shell_weights(), target, atol=1e-12)


def test_one_state_block_gets_pure_phase():
    comp = compose(build_spectrum([(0, 1)]), build_spectrum([(0, 1), (1, 2)]))
    profile = microcanonical_profile({(0, 0): 1.0})
    state = sample_microcanonical(comp, profile, substream(3, 0))
    assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-15
    np.testing.assert_array_equal(state.amplitudes[1:], 0.0)


def test_zero_weight_blocks_are_exactly_zero_and_free():
    comp = three_block_composite()
    with_zero = microcanonical_profile({(0, 0): 1.0, (1, 1): 0.0})
    without = microcanonical_profile({(0, 0): 1.0})
    a = sample_microcanonical(comp, with_zero, substream(7, 0)).amplitudes
    b = sample_microcanonical(comp, without, substream(7, 0)).amplitudes
    # explicit zero weight neither fills the block nor advances the stream
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a[comp.blocks(MICROCANONICAL)[3]], 0.0)


def test_single_subspace_shells_reduce_to_microcanonical():
    # every shell holds exactly one subspace, so both samplers draw the
    # same spheres in the same order and must agree bit for bit
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 2)]))
    assert comp.n_shells == comp.n_subspaces
    micro = microcanonical_profile({(0, 0): 0.4, (1, 0): 0.6})
    cano = canonical_profile({0.0: 0.4, 1.0: 0.6})
    for i in range(5):
        a = sample_microcanonical(comp, micro, substream(21, i)).amplitudes
        b = sample_canonical(comp, cano, substream(21, i)).amplitudes
        np.testing.assert_array_equal(a, b)


def test_draws_are_deterministic_in_seed():
    comp = three_block_composite()
    profile = microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})
    a = sample_microcanonical(comp, profile, substream(42, 9)).amplitudes
    b = sample_microcanonical(comp, profile, substream(42, 9)).amplitudes
    c = sample_microcanonical(comp, profile, substream(43, 9)).amplitudes
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


# ------------------------------------------------------------ batched draws

# Each profile leaves one block at zero weight; (seed, start, count) include
# the largest key Philox accepts.
BATCH_PROFILES = [
    (sample_microcanonical, microcanonical_profile({(0, 0): 0.3, (0, 1): 0.0, (1, 1): 0.7})),
    (sample_canonical, canonical_profile({0.0: 0.2, 1.0: 0.0, 2.0: 0.8})),
    (sample_canonical, canonical_profile({1.0: 1.0})),
]
BATCH_KEYS = [(5, 10, 7), (2**64 - 1, 2**64 - 3, 3), (2**64 - 1, 0, 2), (0, 0, 1)]


@pytest.mark.parametrize("sampler, profile", BATCH_PROFILES)
def test_batch_rows_are_the_per_draw_samples(sampler, profile):
    comp = three_block_composite()
    for seed, start, count in BATCH_KEYS:
        batch = draws(comp, profile, seed, start, count)
        assert batch.shape == (count, comp.dim)
        for k, row in enumerate(batch):
            want = sampler(comp, profile, substream(seed, start + k)).amplitudes
            np.testing.assert_array_equal(row, want)


@pytest.mark.parametrize("sampler, profile", BATCH_PROFILES)
def test_batch_rows_do_not_depend_on_the_split(sampler, profile, monkeypatch):
    comp = three_block_composite()
    whole = draws(comp, profile, 8, 3, 50)
    parts = np.concatenate([draws(comp, profile, 8, 3, 17),
                            draws(comp, profile, 8, 20, 33)])
    np.testing.assert_array_equal(whole, parts)
    # 3 rows per chunk inside the call, with a short last chunk
    monkeypatch.setattr(hsmc.state, "BATCH_ELEMENTS", 3 * comp.dim)
    chunks = list(sample_chunks(comp, profile, 8, 3, 50))
    assert [len(c) for c in chunks] == [3] * 16 + [2]
    np.testing.assert_array_equal(np.concatenate(chunks), whole)


@pytest.mark.parametrize("profile", [canonical_profile({0.0: 0.2, 1.0: 0.5, 2.0: 0.3}),
                                     microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})],
                         ids=["canonical", "microcanonical_with_empty_blocks"])
def test_gas_state_rows_do_not_depend_on_the_split(profile, monkeypatch):
    comp = three_block_composite()

    def states(start, count):
        return np.concatenate([np.empty((0, comp.dim_gas, comp.dim_gas), dtype=complex),
                               *gas_state_chunks(comp, profile, 8, start, count)])

    whole = states(3, 50)
    np.testing.assert_array_equal(whole, np.concatenate([states(3, 17), states(20, 33)]))
    purity_entropy(whole)  # Hermitian, unit trace, no negative eigenvalue
    monkeypatch.setattr(hsmc.state, "BATCH_ELEMENTS", 1)  # one row per chunk
    chunks = list(gas_state_chunks(comp, profile, 8, 3, 50))
    assert [len(c) for c in chunks] == [1] * 50
    np.testing.assert_array_equal(np.concatenate(chunks), whole)


def test_sample_gas_states_draws_the_cheaper_way():
    # 2 x 8: Bartlett factors would save 30 normals a draw, less than a gamma call
    comp = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 8)]))
    profile = microcanonical_profile({(0, 0): 1.0})
    np.testing.assert_array_equal(
        np.concatenate(list(sample_gas_states(comp, profile, 5, 0, 40))),
        np.concatenate([reduce_gas_states(comp, a)
                        for a in sample_chunks(comp, profile, 5, 0, 40)]))
    # a shell of a geometric container: they save 896
    comp = compose(build_spectrum([(0, 1), (1, 1), (2, 1)]),
                   build_spectrum([(e, 2 ** e) for e in range(9)]))
    profile = canonical_profile({8: 1.0})
    np.testing.assert_array_equal(np.concatenate(list(sample_gas_states(comp, profile, 5, 0, 40))),
                                  np.concatenate(list(gas_state_chunks(comp, profile, 5, 0, 40))))


def test_sample_gas_states_resolves_the_profile_once(monkeypatch):
    # the amplitude path once resolved it twice: for the Bartlett layout, then for the spheres
    calls = []
    resolve = hsmc.sampling.ConstraintProfile.resolve
    monkeypatch.setattr(hsmc.sampling.ConstraintProfile, "resolve",
                        lambda self, comp: calls.append(1) or resolve(self, comp))
    amplitudes = (compose(build_spectrum([(0, 2)]), build_spectrum([(0, 8)])),
                  microcanonical_profile({(0, 0): 1.0}))
    bartlett = (compose(build_spectrum([(0, 1), (1, 1), (2, 1)]),
                        build_spectrum([(e, 2 ** e) for e in range(9)])),
                canonical_profile({8: 1.0}))
    for comp, profile in (amplitudes, bartlett):
        calls.clear()
        assert len(np.concatenate(list(sample_gas_states(comp, profile, 5, 0, 40)))) == 40
        assert len(calls) == 1


def test_batch_rejects_keys_outside_the_philox_range():
    comp = two_by_two()
    profile = microcanonical_profile({(0, 0): 1.0})
    for seed, start, count in ((-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 0, -1),
                               (0, 2**64 - 1, 2)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            sample_chunks(comp, profile, seed, start, count)  # before any iteration
    assert draws(comp, profile, 0, 2**64, 0).shape == (0, comp.dim)


def test_zero_norm_block_is_redrawn_from_the_rows_own_stream(monkeypatch):
    comp = three_block_composite()
    profile = microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})
    seed, start, zeroed = 4, 6, 8
    first = comp.blocks(MICROCANONICAL)[0]
    n_first = len(first)
    n_total = n_first + comp.block_dims(MICROCANONICAL)[3]
    # expected row `zeroed`: block 0 comes from the normals drawn after the row's
    # main draw, the other block from the main draw as usual
    rng = substream(seed, zeroed)
    main = rng.standard_normal(2 * n_total)
    redraw = rng.standard_normal(2 * n_first)
    want = np.zeros(comp.dim, dtype=complex)
    want[first] = np.sqrt(0.5) / np.linalg.norm(redraw) * redraw.view(complex)
    rest = main[2 * n_first:]
    want[comp.blocks(MICROCANONICAL)[3]] = np.sqrt(0.5) / np.linalg.norm(rest) * rest.view(complex)
    others = draws(comp, profile, seed, start, 5)

    class ZeroingGenerator(np.random.Generator):
        """Zeroes block 0 of the main draw of stream [seed, zeroed]."""

        def standard_normal(self, *args, **kwargs):
            state = self.bit_generator.state
            fresh = state["buffer_pos"] == 4 and not state["state"]["counter"].any()
            values = super().standard_normal(*args, **kwargs)
            if fresh and list(state["state"]["key"]) == [seed, zeroed]:
                values.reshape(-1)[:2 * n_first] = 0.0
            return values

    monkeypatch.setattr(np.random, "Generator", ZeroingGenerator)
    batch = draws(comp, profile, seed, start, 5)
    np.testing.assert_array_equal(batch[zeroed - start], want)
    np.testing.assert_array_equal(np.delete(batch, zeroed - start, axis=0),
                                  np.delete(others, zeroed - start, axis=0))
    single = sample_microcanonical(comp, profile, substream(seed, zeroed))
    np.testing.assert_array_equal(single.amplitudes, want)


# ------------------------------------------------------------- distribution

def test_component_second_moment_is_uniform():
    # uniform on the sphere: each state in a block carries W_AB / N_AB
    # of probability on average
    comp = three_block_composite()
    weights = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
    profile = microcanonical_profile(weights)
    n = 4000
    expected = {(0, 0): 0.1 / 4, (0, 1): 0.2 / 4, (1, 0): 0.3 / 6, (1, 1): 0.4 / 6}
    for (A, B), want in expected.items():
        first = comp.blocks(MICROCANONICAL)[comp.subspace_index(A, B)][0]
        est = mc_average(lambda a: np.abs(a[:, first]) ** 2, comp, profile, n, seed=101)
        assert abs(est.mean - want) < 4.5 * est.std_error


def test_component_fourth_moment_matches_sphere_value():
    # E[|c|^4] on a complex N-sphere of squared radius W is 2 W^2 / (N (N + 1))
    gas = build_spectrum([(0, 3)])
    container = build_spectrum([(0, 4)])
    comp = compose(gas, container)
    profile = microcanonical_profile({(0, 0): 1.0})
    n_states = 12
    want = 2.0 / (n_states * (n_states + 1))
    est = mc_average(lambda a: np.abs(a[:, 0]) ** 4, comp, profile, 4000, seed=77)
    assert abs(est.mean - want) < 5 * est.std_error


def test_canonical_mean_subspace_weight():
    # within a shell the expected subspace weight is N_AB * W_E / N_E
    comp = three_block_composite()  # shell E=1 holds (0,1) [4 states] and (1,0) [6]
    profile = canonical_profile({0.0: 0.2, 1.0: 0.5, 2.0: 0.3})
    n = 4000
    for (A, B), want in [((0, 1), 0.5 * 4 / 10), ((1, 0), 0.5 * 6 / 10)]:
        idx = comp.subspace_index(A, B)
        est = mc_average(lambda a: comp.subspace_sums(np.abs(a) ** 2)[:, idx],
                         comp, profile, n, seed=55)
        assert abs(est.mean - want) < 4.5 * est.std_error


def test_purity_average_matches_bipartite_formula():
    comp = two_by_two()
    profile = microcanonical_profile({(0, 0): 1.0})
    est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, 4000, seed=2024)
    want = lubkin_average(2, 2)  # 0.8
    assert abs(est.mean - want) < 3.5 * est.std_error
    page = page_entropy(2, 2)
    assert page == pytest.approx(1 / 3)
    est = mc_average(lambda a: gas_purity_entropy(comp, a)[1], comp, profile, 4000, seed=2024)
    assert abs(est.mean - page) < 3.5 * est.std_error


# ------------------------------------------------------------- mc machinery

def test_mc_average_constant_measure():
    comp = two_by_two()
    profile = microcanonical_profile({(0, 0): 1.0})
    est = mc_average(lambda a: np.full(len(a), 1.25), comp, profile, 50, seed=0)
    assert est.mean == 1.25
    assert est.std_error == 0.0
    assert est.n_samples == 50


def test_mc_average_needs_two_samples():
    comp = two_by_two()
    profile = microcanonical_profile({(0, 0): 1.0})
    with pytest.raises(ValueError, match="n >= 2"):
        mc_average(lambda a: np.zeros(len(a)), comp, profile, 1, seed=0)


def test_mc_average_refuses_a_measure_without_one_value_per_draw(monkeypatch):
    # on 2 CPUs draws 0 to 4 are measured here and 5 to 9 in a forked worker;
    # the wrong shape comes from every worker, then from the forked one alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    comp = two_by_two()
    profile = microcanonical_profile({(0, 0): 1.0})
    caller = os.getpid()
    forks = hsmc.fanout._blas_threads() is not None  # else fan_out runs one worker
    for forked_only in (False, True) if forks else (False,):
        def measure(a):
            if forked_only and os.getpid() == caller:
                return np.zeros(len(a))
            return float(np.sum(np.abs(a) ** 2))

        with pytest.raises(ValueError, match="shape") as failure:
            mc_average(measure, comp, profile, 10, seed=0)
        if forked_only:
            assert str(failure.value).startswith("sample workers [1] of 2 failed: draws 5 to 9: ")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_mc_average_matches_the_per_draw_reference(monkeypatch):
    # draw i is sample_microcanonical's draw from substream(seed, i), however
    # the draws are chunked and whatever the number of workers; the estimate is,
    # bit for bit, mc_estimate of the values of sample_chunks' chunks, joined
    comp = three_block_composite()
    profile = microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})
    n = 200
    values = np.array([sample_microcanonical(comp, profile, substream(9, i)).purity()
                       for i in range(n)])
    measure = lambda a: gas_purity_entropy(comp, a)[0]
    for elements in (hsmc.state.BATCH_ELEMENTS, 3 * comp.dim):
        monkeypatch.setattr(hsmc.state, "BATCH_ELEMENTS", elements)
        serial = mc_estimate([np.concatenate([measure(a) for a in
                                              sample_chunks(comp, profile, 9, 0, n)])], 9)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            est = mc_average(measure, comp, profile, n, seed=9)
            assert est == serial
        assert est.n_samples == n
        assert est.mean == pytest.approx(values.mean(), abs=1e-13)
        assert est.std_error == pytest.approx(values.std(ddof=1) / np.sqrt(n), abs=1e-13)


def test_measure_draws_of_no_draws_is_empty():
    comp = three_block_composite()
    profile = microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})
    values = measure_draws(lambda a: gas_purity_entropy(comp, a), 2,
                           partial(sample_chunks, comp, profile, 9), 0)
    assert values.shape == (2, 0)


def test_product_constraint_matches_outer_weights():
    gas = build_spectrum([(0, 2), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    profile = product_constraint(comp, [0.3, 0.7], [0.4, 0.6])
    resolved = profile.resolve(comp)
    np.testing.assert_allclose(resolved, [0.12, 0.18, 0.28, 0.42], atol=1e-15)
