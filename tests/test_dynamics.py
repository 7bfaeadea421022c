import numpy as np
import pytest
import scipy.linalg

from hsmc import (NumericalValidationError, PureState,
                  build_canonical_hamiltonian, build_microcanonical_hamiltonian,
                  build_spectrum, compose, effective_velocity, evolve,
                  expected_purity_exact, gas_purity_entropy, max_drift,
                  mc_average, microcanonical_profile, path_average,
                  product_state, sample_microcanonical, substream,
                  time_average, uniform_profile)


def composite_three():
    return compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))


def product_profiles(comp):
    return uniform_profile(comp.gas), uniform_profile(comp.container)


def uniform_product_state(comp):
    gp, cp = product_profiles(comp)
    return product_state(comp, gp, cp)


def _dense(h, interaction_only=False):
    """Scatter the blocks of ``h`` into a dense dim x dim matrix: H, or only I."""
    out = np.zeros((h.dim, h.dim), dtype=complex)
    if not interaction_only:
        np.fill_diagonal(out, h.gas_diagonal + h.container_diagonal)
    for b in h.blocks:
        out[np.ix_(b.indices, b.indices)] += b.interaction
    return out


# ------------------------------------------------------------- construction

def test_zero_coupling_is_free_evolution():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    np.testing.assert_array_equal(_dense(h, interaction_only=True), 0.0)
    np.testing.assert_allclose(
        np.diag(_dense(h)).real,
        h.gas_diagonal + h.container_diagonal, atol=0)


def test_negative_coupling_rejected():
    comp = composite_three()
    with pytest.raises(ValueError, match=">= 0"):
        build_microcanonical_hamiltonian(comp, -1.0, substream(0, 0))
    with pytest.raises(ValueError, match=">= 0"):
        build_canonical_hamiltonian(comp, -1.0, substream(0, 0))


def test_hamiltonian_is_hermitian_and_assembled():
    comp = composite_three()
    for build in (build_microcanonical_hamiltonian, build_canonical_hamiltonian):
        h = build(comp, 0.7, substream(5, 0))
        assert np.linalg.norm(_dense(h) - _dense(h).conj().T) < 1e-12
        np.testing.assert_array_equal(
            _dense(h),
            np.diag((h.gas_diagonal + h.container_diagonal).astype(complex))
            + _dense(h, interaction_only=True))
        # the blocks partition the basis and hold the eigenpairs of H on it
        np.testing.assert_array_equal(
            np.sort(np.concatenate([b.indices for b in h.blocks])), np.arange(comp.dim))
        for b in h.blocks:
            np.testing.assert_allclose(
                (b.vectors * b.energies) @ b.vectors.conj().T,
                _dense(h)[np.ix_(b.indices, b.indices)], rtol=0, atol=1e-12)


def test_coupling_sets_largest_block_spectral_radius():
    comp = composite_three()
    lam = 0.37
    for build in (build_microcanonical_hamiltonian, build_canonical_hamiltonian):
        h = build(comp, lam, substream(8, 0))
        radius = float(np.max(np.abs(np.linalg.eigvalsh(_dense(h, interaction_only=True)))))
        assert radius == pytest.approx(lam, rel=1e-12)


def test_microcanonical_commutators_vanish():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.5, substream(1, 0))
    norms = h.commutator_norms()
    assert norms["gas"] < 1e-12
    assert norms["container"] < 1e-12
    assert norms["total"] < 1e-12


def test_canonical_commutators_conserve_only_total():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(1, 0))
    norms = h.commutator_norms()
    assert norms["total"] < 1e-12
    # energy moves between gas and container inside the middle shell
    assert norms["gas"] > 1e-3
    assert norms["container"] > 1e-3
    # the block-by-block norms equal the dense (d_j - d_k) I_jk reference
    for name, d in (("gas", h.gas_diagonal), ("container", h.container_diagonal),
                    ("total", h.gas_diagonal + h.container_diagonal)):
        dense = np.linalg.norm((d[:, None] - d[None, :]) * _dense(h, interaction_only=True))
        assert norms[name] == pytest.approx(dense, rel=1e-12, abs=1e-15)


def test_canonical_reduces_to_microcanonical_for_singleton_shells():
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 2)]))
    assert comp.n_shells == comp.n_subspaces
    a = build_microcanonical_hamiltonian(comp, 0.4, substream(9, 0))
    b = build_canonical_hamiltonian(comp, 0.4, substream(9, 0))
    np.testing.assert_array_equal(_dense(a), _dense(b))


def test_weak_coupling_ratio():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.01, substream(2, 0))
    state = uniform_product_state(comp)
    ratio = h.weak_coupling_ratio(state)
    assert 0 <= ratio < 1.0
    psi = state.amplitudes
    e_int = abs(np.vdot(psi, _dense(h, interaction_only=True) @ psi).real)
    e_gas = abs(np.dot(np.abs(psi) ** 2, h.gas_diagonal))
    e_container = abs(np.dot(np.abs(psi) ** 2, h.container_diagonal))
    assert ratio == pytest.approx(e_int / min(e_gas, e_container), rel=1e-12)
    # a state with zero mean gas energy makes the ratio blow up
    flat = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))
    h0 = build_microcanonical_hamiltonian(flat, 0.1, substream(2, 0))
    s0 = uniform_product_state(flat)
    assert h0.weak_coupling_ratio(s0) == np.inf


# -------------------------------------------------------------- propagation

def test_evolve_free_eigenstate_keeps_purity_one():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    amps = np.zeros(comp.dim, dtype=complex)
    amps[0] = 1.0
    traj = evolve(PureState(comp, amps), h, np.linspace(0, 10, 41))
    np.testing.assert_allclose(traj.measures["purity"], 1.0, atol=1e-12)
    # only a global phase moves: every population is frozen
    populations = np.abs(traj.amplitudes) ** 2
    np.testing.assert_allclose(
        populations, np.broadcast_to(np.abs(amps) ** 2, populations.shape),
        atol=1e-12)


def test_evolve_time_zero_is_bit_exact():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(3, 0))
    state = sample_microcanonical(
        comp, microcanonical_profile(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}),
        substream(3, 1))
    traj = evolve(state, h, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(traj.amplitudes[0], state.amplitudes)


def test_two_level_resonance_period_matches_eigen_gap():
    comp = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1), (1, 1)]))
    h = build_canonical_hamiltonian(comp, 0.5, substream(4, 0))
    shell = comp.shell_flat_indices(comp.shell_index_at(1.0))
    block = _dense(h)[np.ix_(shell, shell)]
    gap = float(np.diff(np.linalg.eigvalsh(block))[0])
    period = 2 * np.pi / gap
    amps = np.zeros(comp.dim, dtype=complex)
    amps[shell[0]] = 1.0  # gas level 0, container level 1
    traj = evolve(PureState(comp, amps), h, np.linspace(0, 2 * period, 401))
    series = traj.measures["gas_level_weights"][:, 0]
    assert series[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(series[200] - series[0]) < 1e-9   # one full period
    assert abs(series[400] - series[0]) < 1e-9
    assert series.min() < 0.95  # the weight really oscillates


def test_evolve_matches_dense_matrix_exponential():
    comp = composite_three()
    state = uniform_product_state(comp)
    times = np.array([0.0, 0.3, 2.0, 17.5])
    for build in (build_microcanonical_hamiltonian, build_canonical_hamiltonian):
        h = build(comp, 0.6, substream(15, 0))
        traj = evolve(state, h, times)
        for t, psi in zip(times, traj.amplitudes):
            want = scipy.linalg.expm(-1j * t * _dense(h)) @ state.amplitudes
            np.testing.assert_allclose(psi, want, rtol=0, atol=1e-10)


def test_microcanonical_weights_conserved():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.8, substream(6, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 100, 101))
    assert max_drift(traj, "subspace_weights") < 1e-10
    assert max_drift(traj, "norm") < 1e-10
    assert max_drift(traj, "energy") < 1e-9
    assert max_drift(traj, "v_eff") < 1e-9


def test_canonical_conserves_shells_but_not_gas_levels():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.8, substream(7, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 100, 101))
    assert max_drift(traj, "shell_weights") < 1e-10
    assert max_drift(traj, "gas_level_weights") > 1e-3
    assert max_drift(traj, "subspace_weights") > 1e-3


def test_evolve_rejections():
    comp = composite_three()
    other = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.1, substream(0, 0))
    state = uniform_product_state(other)
    with pytest.raises(ValueError, match="different composites"):
        evolve(state, h, np.linspace(0, 1, 5))
    good = uniform_product_state(comp)
    with pytest.raises(ValueError, match="increasing"):
        evolve(good, h, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        evolve(good, h, np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="1-D"):
        evolve(good, h, np.array([]))


def test_evolve_flags_norm_drift():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.1, substream(0, 0))
    amps = np.full(comp.dim, (1 + 3e-9) / np.sqrt(comp.dim), dtype=complex)
    bad = PureState(comp, amps, check=False)
    with pytest.raises(NumericalValidationError, match="normalization"):
        evolve(bad, h, np.linspace(0, 1, 3))


# ----------------------------------------------------------------- measures

def test_effective_velocity_eigenstate():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    amps = np.zeros(comp.dim, dtype=complex)
    amps[comp.block_slice(comp.subspace_index(1, 1)).start] = 1.0  # E = 2
    assert effective_velocity(PureState(comp, amps), h) == pytest.approx(2.0)


def test_effective_velocity_balanced_superposition():
    comp = compose(build_spectrum([(-1, 1), (1, 1)]), build_spectrum([(0, 1)]))
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    state = PureState(comp, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    assert effective_velocity(state, h) == pytest.approx(1.0)


def test_effective_velocity_constant_along_trajectory():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.6, substream(10, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 50, 101))
    v0 = effective_velocity(state, h)
    np.testing.assert_allclose(traj.measures["v_eff"], v0, atol=1e-9)


def test_time_average_constant_series():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    amps = np.zeros(comp.dim, dtype=complex)
    amps[0] = 1.0
    traj = evolve(PureState(comp, amps), h, np.linspace(0, 5, 11))
    assert time_average(traj, "purity") == pytest.approx(1.0, abs=1e-12)
    assert time_average(traj, "norm") == pytest.approx(1.0, abs=1e-12)


def test_time_average_of_weights_is_vector():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.5, substream(11, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 10, 21))
    avg = time_average(traj, "subspace_weights")
    np.testing.assert_allclose(avg, state.subspace_weights(), atol=1e-10)


def test_unknown_measure_name():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.1, substream(0, 0))
    traj = evolve(uniform_product_state(comp), h, np.linspace(0, 1, 5))
    with pytest.raises(KeyError, match="available"):
        time_average(traj, "does_not_exist")
    with pytest.raises(KeyError, match="available"):
        path_average(traj, "does_not_exist")


def test_averages_need_two_samples():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.1, substream(0, 0))
    traj = evolve(uniform_product_state(comp), h, np.array([1.0]))
    with pytest.raises(ValueError, match="2 samples"):
        time_average(traj, "purity")
    with pytest.raises(ValueError, match="2 samples"):
        path_average(traj, "purity")


def test_path_average_degenerate_path():
    # all energies zero and no coupling: the state does not move at all
    comp = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 3, 7))
    assert traj.path_length == 0.0
    assert path_average(traj, "purity") == pytest.approx(state.purity())
    weights = path_average(traj, "subspace_weights")
    np.testing.assert_array_equal(weights, traj.measures["subspace_weights"][0])


def test_path_average_equals_time_average_on_uniform_grid():
    # constant speed and a time-homogeneous propagator make every chord on a
    # uniform grid identical, so the two averages coincide to roundoff
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(12, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 20, 41))
    assert abs(path_average(traj, "purity") - time_average(traj, "purity")) < 1e-12


def test_path_average_approaches_time_average_quadratically():
    # on a stretched grid the chord weights and the trapezoid weights differ
    # at second order in the local step, and so do the averages
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(12, 0))
    state = uniform_product_state(comp)
    gaps = []
    for n in (25, 50, 100):
        k = np.arange(n + 1)
        traj = evolve(state, h, 20.0 * (k / n) ** 2)
        gaps.append(abs(path_average(traj, "purity") - time_average(traj, "purity")))
    assert gaps[1] < gaps[0] / 2.5
    assert gaps[2] < gaps[1] / 2.5


def test_long_time_average_approaches_region_average():
    # microcanonical equilibration: the trajectory's purity average lands
    # near the closed-form region average
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 12), (1, 12)])
    comp = compose(gas, container)
    exact = expected_purity_exact(comp, [0.5, 0.5], [0.5, 0.5])
    h = build_microcanonical_hamiltonian(comp, 0.3, substream(13, 0))
    state = uniform_product_state(comp)
    traj = evolve(state, h, np.linspace(0, 50 / 0.3, 301))
    averaged = time_average(traj, "purity")
    assert abs(averaged - exact) / exact < 0.15


def test_trajectory_measure_shapes():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.4, substream(14, 0))
    times = np.linspace(0, 5, 9)
    traj = evolve(uniform_product_state(comp), h, times)
    assert set(traj.measures) == {
        "norm", "energy", "v_eff", "purity", "entropy",
        "subspace_weights", "shell_weights", "gas_level_weights"}
    for name in ("norm", "energy", "v_eff", "purity", "entropy"):
        assert traj.measures[name].shape == (9,)
    assert traj.measures["subspace_weights"].shape == (9, comp.n_subspaces)
    assert traj.measures["shell_weights"].shape == (9, comp.n_shells)
    assert traj.measures["gas_level_weights"].shape == (9, comp.gas.n_levels)
    assert traj.path_length > 0


def test_monte_carlo_average_matches_time_average_loosely():
    # the same number comes out of Hilbert-space sampling and one long
    # trajectory, which is the whole point of the construction
    comp = composite_three()
    profile = microcanonical_profile(
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25})
    est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, 2000, seed=99)
    exact = expected_purity_exact(comp, [0.5, 0.5], [0.5, 0.5])
    assert abs(est.mean - exact) < 4 * est.std_error
