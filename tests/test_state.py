import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsmc.state
from hsmc import (MICROCANONICAL, DensityMatrix, PureState, build_spectrum, compose,
                  expected_purity_approx, expected_purity_exact, fanout, gas_purity_entropy,
                  product_constraint, product_state, read_amplitudes_csv, reduce_gas_states,
                  shell_weights, subspace_weights, write_amplitudes_csv)


def two_by_two():
    return compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))


def purity_from_amplitudes(psi: np.ndarray) -> float:
    """Tr (rho_g)^2 straight from the amplitude matrix, without forming rho_g.

    Deliberately a one-line contraction of the defining sum
    sum_{a b c d} psi_ab psi*_cb psi_cd psi*_ad, kept independent of
    :meth:`DensityMatrix.purity` so the two can cross-check each other.
    """
    psi = np.asarray(psi, dtype=complex)
    value = np.einsum("ab,cb,cd,ad->", psi, psi.conj(), psi, psi.conj(), optimize=False)
    return float(value.real)


def random_state(comp, rng):
    amps = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
    return PureState(comp, amps / np.linalg.norm(amps))


def test_normalization_enforced():
    comp = two_by_two()
    with pytest.raises(ValueError, match="norm"):
        PureState(comp, np.ones(4, dtype=complex))
    PureState(comp, np.ones(4, dtype=complex) / 2)  # fine


def test_wrong_shape_rejected():
    comp = two_by_two()
    with pytest.raises(ValueError, match="shape"):
        PureState(comp, np.ones(5, dtype=complex) / np.sqrt(5))


def test_reduce_gas_product_state_is_projector():
    comp = two_by_two()
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 1] = 1.0  # |g=0> x |c=1>
    rho = PureState.from_matrix(comp, psi).reduce_gas()
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)
    assert rho.purity() == pytest.approx(1.0)
    assert rho.entropy() == pytest.approx(0.0, abs=1e-12)


def test_reduce_gas_bell_state():
    comp = two_by_two()
    psi = np.eye(2, dtype=complex) / np.sqrt(2)
    rho = PureState.from_matrix(comp, psi).reduce_gas()
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)
    assert rho.purity() == pytest.approx(0.5)
    assert rho.entropy() == pytest.approx(np.log(2))


def test_reduce_gas_is_one_row_of_the_batched_reduction_on_one_blas_thread(monkeypatch):
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    state = random_state(comp, np.random.default_rng(31))
    counts = [2]  # a process that starts on 2 OpenBLAS threads
    monkeypatch.setattr(fanout, "_blas_threads", lambda: (lambda: counts[-1], counts.append))
    rho = state.reduce_gas()
    assert counts == [2, 1, 2]  # held at one thread for the product, then given back
    np.testing.assert_array_equal(rho.matrix, reduce_gas_states(comp, state.amplitudes[None])[0])


def test_reduced_eigenvalues_match_svd_oracle():
    comp = two_by_two()
    rng = np.random.default_rng(5)
    state = random_state(comp, rng)
    rho = state.reduce_gas()
    squares = np.linalg.svd(state.to_matrix(), compute_uv=False) ** 2
    assert rho.entropy() == pytest.approx(-np.sum(squares * np.log(squares)), abs=1e-12)


def test_purity_values():
    assert DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex)).purity() == pytest.approx(1.0)
    assert DensityMatrix(np.eye(4, dtype=complex) / 4).purity() == pytest.approx(0.25)
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]).astype(complex))
    assert rho.purity() == pytest.approx(0.375)


def test_entropy_values():
    assert DensityMatrix(np.diag([1.0, 0, 0]).astype(complex)).entropy() == pytest.approx(0.0)
    n = 5
    assert DensityMatrix(np.eye(n, dtype=complex) / n).entropy() == pytest.approx(np.log(n))
    rho = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
    assert rho.entropy() == pytest.approx(np.log(2))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3), dtype=complex))


def test_density_checks_refuse_nan():
    for bad in (np.full((2, 2), np.nan, dtype=complex), np.diag([np.nan, 0.5]).astype(complex)):
        with pytest.raises(ValueError, match="Hermitian|trace"):
            DensityMatrix(bad)
    with pytest.raises(ValueError, match="norm"):
        PureState(two_by_two(), np.array([np.nan, 0, 0, 0], dtype=complex))


@pytest.mark.parametrize("gas_levels, container_levels", [
    ([(0, 2)], [(0, 2)]),
    ([(0, 2), (1, 3)], [(0, 2), (1, 2)]),
    ([(0, 4), (1, 2)], [(0, 1), (1, 1)]),  # dim_gas > dim_container: zero eigenvalues
])
def test_batched_reduction_matches_density_matrix(gas_levels, container_levels, monkeypatch):
    comp = compose(build_spectrum(gas_levels), build_spectrum(container_levels))
    rng = np.random.default_rng(23)
    states = [random_state(comp, rng) for _ in range(40)]
    amplitudes = np.array([s.amplitudes for s in states])
    purity, entropy = gas_purity_entropy(comp, amplitudes)
    for k, state in enumerate(states):
        rho = state.reduce_gas()
        assert abs(purity[k] - rho.purity()) <= 1e-14
        assert abs(entropy[k] - rho.entropy()) <= 1e-14
    # 3 rows per chunk, a short last chunk, and single rows give the same values
    monkeypatch.setattr(hsmc.state, "BATCH_ELEMENTS", 3 * comp.dim)
    np.testing.assert_array_equal(gas_purity_entropy(comp, amplitudes), (purity, entropy))
    singles = np.array([gas_purity_entropy(comp, a[None]) for a in amplitudes])[:, :, 0]
    np.testing.assert_array_equal(singles.T, (purity, entropy))


def test_batched_reduction_runs_the_density_checks():
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    rng = np.random.default_rng(29)
    amplitudes = np.array([random_state(comp, rng).amplitudes for _ in range(6)])
    gas_purity_entropy(comp, amplitudes)
    wrong_trace = amplitudes.copy()
    wrong_trace[4] *= 1.01
    with pytest.raises(ValueError, match="trace = 1.020"):
        gas_purity_entropy(comp, wrong_trace)
    not_a_state = amplitudes.copy()
    not_a_state[2, 3] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        gas_purity_entropy(comp, not_a_state)
    with pytest.raises(ValueError, match="shape"):
        gas_purity_entropy(comp, amplitudes[:, :-1])
    with pytest.raises(ValueError, match="shape"):
        gas_purity_entropy(comp, amplitudes[0])


def test_entropy_rejects_corrupted_density_matrix():
    bad = np.diag([1.2, -0.2]).astype(complex)
    rho = DensityMatrix(bad)  # Hermitian with unit trace: only the eigenvalue floor refuses it
    with pytest.raises(ValueError, match="eigenvalue"):
        rho.entropy()


def test_tiny_negative_eigenvalues_are_clipped():
    rho = DensityMatrix(np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
    assert hsmc.state._clipped_eigenvalues(rho.matrix)[0] == 0.0
    assert np.isfinite(rho.entropy())


def test_purity_dual_path_agreement():
    rng = np.random.default_rng(17)
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    for _ in range(25):
        state = random_state(comp, rng)
        via_rho = state.reduce_gas().purity()
        via_sum = purity_from_amplitudes(state.to_matrix())
        assert abs(via_rho - via_sum) < 1e-10
        assert abs(state.purity() - via_rho) < 1e-10


def test_purity_from_amplitudes_known_cases():
    comp = two_by_two()
    product = np.zeros((2, 2), dtype=complex)
    product[1, 0] = 1.0
    assert purity_from_amplitudes(product) == pytest.approx(1.0)
    bell = np.eye(2, dtype=complex) / np.sqrt(2)
    assert purity_from_amplitudes(bell) == pytest.approx(0.5)
    del comp


def test_gas_container_purity_symmetry():
    rng = np.random.default_rng(3)
    comp = compose(build_spectrum([(0, 1), (1, 2)]), build_spectrum([(0, 3), (1, 2)]))
    for _ in range(10):
        state = random_state(comp, rng)
        psi = state.to_matrix()
        rho_c = DensityMatrix(psi.T @ psi.conj())  # partial trace over the gas
        assert state.reduce_gas().purity() == pytest.approx(rho_c.purity(), abs=1e-12)


def test_unitary_invariance_of_measures():
    rng = np.random.default_rng(11)
    comp = two_by_two()
    state = random_state(comp, rng)
    rho = state.reduce_gas()
    # random unitary from the QR of a complex Gaussian matrix
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rotated = DensityMatrix(q @ rho.matrix @ q.conj().T)
    assert rotated.purity() == pytest.approx(rho.purity(), abs=1e-10)
    assert rotated.entropy() == pytest.approx(rho.entropy(), abs=1e-10)


def test_subspace_weights_single_block():
    comp = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1), (1, 1)]))
    amps = np.zeros(4, dtype=complex)
    amps[comp.blocks(MICROCANONICAL)[comp.subspace_index(1, 0)]] = 1.0
    w = PureState(comp, amps).subspace_weights()
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_subspace_weights_equal_split():
    comp = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 1), (1, 1)]))
    amps = np.full(4, 0.5, dtype=complex)
    w = PureState(comp, amps).subspace_weights()
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_product_state_weights():
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    gp, cp = [0.3, 0.7], [0.4, 0.6]
    state = product_state(comp, gp, cp)
    np.testing.assert_allclose(state.subspace_weights(),
                               [0.12, 0.18, 0.28, 0.42], atol=1e-14)
    np.testing.assert_allclose(state.shell_weights(),
                               [0.12, 0.46, 0.42], atol=1e-14)
    np.testing.assert_allclose(state.gas_level_weights(), [0.3, 0.7], atol=1e-14)
    # matches the constraint-side computation from the level weights alone
    np.testing.assert_allclose(subspace_weights(comp, gp, cp),
                               [0.12, 0.18, 0.28, 0.42], atol=1e-14)
    np.testing.assert_allclose(shell_weights(comp, gp, cp),
                               [0.12, 0.46, 0.42], atol=1e-14)
    # a product state reduces to a rank-deficient but valid state
    assert state.reduce_gas().purity() <= 1.0 + 1e-12


def test_uniform_state_shell_weights_scale_with_dimension():
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 4), (1, 4)]))
    amps = np.full(comp.dim, 1 / np.sqrt(comp.dim), dtype=complex)
    np.testing.assert_allclose(PureState(comp, amps).shell_weights(),
                               [0.25, 0.5, 0.25], atol=1e-14)


def test_batched_weight_sums_match_per_state_weights():
    comp = compose(build_spectrum([(0, 2), (1, 1), (2, 3)]),
                   build_spectrum([(0, 3), (1, 1), (2, 2)]))
    rng = np.random.default_rng(5)
    states = [random_state(comp, rng) for _ in range(7)]
    batch = np.array([s.amplitudes for s in states])
    w_sub = comp.subspace_sums(np.abs(batch) ** 2)
    assert w_sub.shape == (7, comp.n_subspaces)
    np.testing.assert_array_equal(w_sub, [s.subspace_weights() for s in states])
    np.testing.assert_array_equal(comp.shell_sums(w_sub),
                                  [s.shell_weights() for s in states])
    np.testing.assert_array_equal(comp.gas_level_sums(w_sub),
                                  [s.gas_level_weights() for s in states])
    # loop references: block sums in another order agree to roundoff, sums of
    # subspace weights in subspace order agree exactly
    mass = np.abs(batch) ** 2
    blocks = [[m[block].sum() for block in comp.blocks(MICROCANONICAL)] for m in mass]
    np.testing.assert_allclose(w_sub, blocks, rtol=0, atol=4 * np.finfo(float).eps)
    shells = np.zeros((len(states), comp.n_shells))
    gas_levels = np.zeros((len(states), comp.gas.n_levels))
    for i in range(comp.n_subspaces):
        A, B = divmod(i, comp.container.n_levels)
        shells[:, comp.shell_index_at(comp.gas.energies[A] + comp.container.energies[B])] += (
            w_sub[:, i])
        gas_levels[:, A] += w_sub[:, i]
    np.testing.assert_array_equal(comp.shell_sums(w_sub), shells)
    np.testing.assert_array_equal(comp.gas_level_sums(w_sub), gas_levels)


def test_weight_profile_validation():
    # every function of (composite, gas_weights, container_weights) checks both lists;
    # expected_purity_approx once returned nan, a broadcast 0.75 or a purity of 3 here
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 3)]))
    for weigh in (subspace_weights, shell_weights, product_state, product_constraint,
                  expected_purity_exact, expected_purity_approx):
        for w_gas, w_container, message in [
                ((0.5, 0.6), [1.0], "gas weights: weights sum to 1.1"),
                ((-0.5, 1.5), [1.0], "gas weights: weights must be nonnegative"),
                ((math.nan, 1.0), [1.0], "gas weights: weights must be finite"),
                ((1.0,), [1.0], "gas weights: expected 2 weights"),
                ((0.5, 0.5), (0.5, 0.5), "container weights: expected 1 weights"),
                ((0.5, 0.5), [1.0 + 2e-12], "container weights: weights sum to")]:
            with pytest.raises(ValueError, match=message):
                weigh(comp, w_gas, w_container)
    np.testing.assert_array_equal(subspace_weights(comp, np.full(2, 1 / 2), [1.0]), [0.5, 0.5])


def test_profile_mismatch_rejected():
    # three weights for two levels: a plain list is checked against the spectrum's levels
    gas = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, gas)
    with pytest.raises(ValueError, match="gas weights: expected 2 weights"):
        subspace_weights(comp, (0.2, 0.3, 0.5), np.full(gas.n_levels, 1 / gas.n_levels))


def test_state_bounds():
    rng = np.random.default_rng(23)
    comp = compose(build_spectrum([(0, 2), (1, 1)]), build_spectrum([(0, 2)]))
    for _ in range(10):
        rho = random_state(comp, rng).reduce_gas()
        assert 1.0 / len(rho.matrix) - 1e-12 <= rho.purity() <= 1.0 + 1e-12
        assert -1e-12 <= rho.entropy() <= np.log(len(rho.matrix)) + 1e-12


def test_amplitude_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    state = random_state(comp, rng)
    path = tmp_path / "state.csv"
    write_amplitudes_csv(state, path)
    loaded = read_amplitudes_csv(path, comp)
    np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)


def test_amplitude_csv_rewrites_the_same_bytes(tmp_path):
    # assert_array_equal takes -0.0 for 0.0; the bytes of a second write do not
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))
    amplitudes = np.zeros(comp.dim, dtype=complex)
    amplitudes[:5] = [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.5, 0.0),
                      complex(0.0, -0.5), complex(-0.0, -0.0)]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_amplitudes_csv(PureState(comp, amplitudes), first)
    write_amplitudes_csv(read_amplitudes_csv(first, comp), second)
    assert "\n0,-0.0,0.5\n" in first.read_text()
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "plain"])
def test_csv_writer_matches_one_repr_per_value(tmp_path, extra, indexed):
    # rows of 3 values (a column and a 2-column block) across a chunk boundary,
    # against a one-shot f-string reference
    n = hsmc.state.batch_rows(3) + extra
    special = [-0.0, 5e-324, 1e-300, 1e16, float("nan"), float("inf"), -float("inf"), 0.1]
    x = np.array([special[i % len(special)] for i in range(n)])
    y = np.array([special[(3 * i + 1) % len(special)] for i in range(n)])
    path = tmp_path / "rows.csv"
    hsmc.state._write_csv(path, ["# rows v1", "head"], [x, np.column_stack([y, -x])], indexed)
    rows = [f"{a!r},{b!r},{-a!r}" for a, b in zip(x.tolist(), y.tolist())]
    if indexed:
        rows = [f"{i},{row}" for i, row in enumerate(rows)]
    assert path.read_text() == "".join(f"{line}\n" for line in ["# rows v1", "head", *rows])


@pytest.mark.parametrize("edit, hint", [
    (lambda rows: rows[:-1] + [rows[-1].replace("11,", "-1,", 1)], "line 17: index -1"),
    (lambda rows: rows[:3] + [rows[2]] + rows[4:], "line 9: index 2, expected 3"),
    (lambda rows: rows[:3] + rows[4:], "11 data rows, expected 12"),
], ids=["negative", "duplicate", "missing"])
def test_amplitude_csv_refuses_malformed_index_column(tmp_path, edit, hint):
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 1)]))
    path = tmp_path / "state.csv"
    write_amplitudes_csv(random_state(comp, np.random.default_rng(4)), path)
    lines = path.read_text().splitlines()
    header, rows = lines[:5], lines[5:]
    assert len(rows) == comp.dim == 12
    path.write_text("\n".join(header + edit(rows)) + "\n")
    with pytest.raises(ValueError, match=hint):
        read_amplitudes_csv(path, comp)


@pytest.mark.parametrize("edit, hint", [
    (lambda lines: ["# hsmc state v2"] + lines[1:], r"line 1: '# hsmc state v2' is not"),
    (lambda lines: lines[1:], r"line 1: '# gas_levels=.*' is not '# hsmc state v1'"),
    (lambda lines: lines[:7] + ["2,0.5"] + lines[8:], r"line 8: '2,0.5' is not index,re,im"),
    (lambda lines: lines[:7] + ["2,0.5,x"] + lines[8:], r"line 8: '2,0.5,x' is not index,re,im"),
], ids=["version-2", "no-version", "short-row", "not-a-number"])
def test_amplitude_csv_refuses_another_version_and_names_a_bad_row(tmp_path, edit, hint):
    comp = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 1)]))
    path = tmp_path / "state.csv"
    write_amplitudes_csv(random_state(comp, np.random.default_rng(4)), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {hint}"):
        read_amplitudes_csv(path, comp)


def test_amplitude_csv_layout_mismatch(tmp_path):
    comp = two_by_two()
    other = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 2)]))
    state = PureState(comp, np.array([1, 0, 0, 0], dtype=complex))
    path = tmp_path / "state.csv"
    write_amplitudes_csv(state, path)
    with pytest.raises(ValueError, match="different"):
        read_amplitudes_csv(path, other)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_state_invariants(seed):
    rng = np.random.default_rng(seed)
    comp = compose(build_spectrum([(0, 1), (1, 2)]), build_spectrum([(0, 2), (1, 1)]))
    state = random_state(comp, rng)
    w = state.subspace_weights()
    assert np.all(w >= 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(state.shell_weights()) == pytest.approx(1.0, abs=1e-12)
    assert abs(state.reduce_gas().purity()
               - purity_from_amplitudes(state.to_matrix())) < 1e-10
