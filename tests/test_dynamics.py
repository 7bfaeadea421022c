import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from hsmc import (CANONICAL, MICROCANONICAL, NumericalValidationError, PureState,
                  build_canonical_hamiltonian, build_microcanonical_hamiltonian,
                  build_spectrum, compose, effective_velocity, evolve,
                  expected_purity_exact, gas_purity_entropy, max_drift,
                  mc_average, microcanonical_profile, path_average,
                  product_state, sample_microcanonical, substream,
                  time_average)
from hsmc import dynamics, fanout
from hsmc.state import BATCH_ELEMENTS


def composite_three():
    return compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 2)]))


def composite_detuned():
    """Shells {0}, {1, 1.3} and {2.3}: no local diagonal is constant on the middle one."""
    return compose(build_spectrum([(0, 1), (1, 2)]), build_spectrum([(0, 1), (1.3, 2)]),
                   shell_tolerance=0.5)


def uniform_product_state(comp):
    return product_state(comp, np.full(comp.gas.n_levels, 1 / comp.gas.n_levels),
                         np.full(comp.container.n_levels, 1 / comp.container.n_levels))


def _gue_reference(rng, n):
    """(V, lambda) of the documented GUE draw, by numpy's own ``qr`` and ``eigvalsh``:
    first the eigenvalues of the tridiagonal with n normals on the diagonal and
    sqrt(Gamma(n - 1)), ..., sqrt(Gamma(1)) beside it, then a Ginibre Z from 2 n^2
    normals and V = (Q diag(sign R_ii))^T for Z^T = QR."""
    diagonal = rng.standard_normal(n)
    off = np.sqrt(rng.standard_gamma(np.arange(n - 1.0, 0.0, -1.0)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z.T)
    return ((q * np.copysign(1.0, r.diagonal().real)).T,
            np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, -1) + np.diag(off, 1)))


def _replay(comp, kind, coupling, seed):
    """Dense H, I and the local diagonal from the documented draw, without
    the blocks under test.

    One GUE block V diag(lambda) V^dagger per group (see :func:`_gue_reference`), group k
    from ``substream(key_k, k)``, the keys from one ``integers`` call on ``substream(seed, 0)``:
    subspaces for a microcanonical H, total-energy shells for a canonical one, each shell's
    states taken member by member from the subspaces' offsets.  The blocks are scaled so
    the largest block spectral radius equals ``coupling``; H adds the local diagonal
    E_g(A) + E_c(B).
    """
    pairs = [(A, B) for A in range(comp.gas.n_levels) for B in range(comp.container.n_levels)]
    sizes = [comp.gas.degeneracies[A] * comp.container.degeneracies[B] for A, B in pairs]
    offsets = np.cumsum([0] + sizes)
    groups = [np.arange(o, o + n) for o, n in zip(offsets, sizes)]
    if kind == CANONICAL:
        shell_of = comp.block_of(CANONICAL)
        groups = [np.concatenate([groups[i] for i in np.flatnonzero(shell_of == k)])
                  for k in range(comp.n_shells)]
    keys = substream(seed, 0).integers(0, 2**63, len(groups))
    draws = [_gue_reference(substream(int(key), k), len(idx))
             for k, (key, idx) in enumerate(zip(keys, groups))]
    scale = coupling / max(np.max(np.abs(lam)) for _, lam in draws)
    interaction = np.zeros((comp.dim, comp.dim), dtype=complex)
    for idx, (v, lam) in zip(groups, draws):
        interaction[np.ix_(idx, idx)] = scale * (v * lam) @ v.conj().T
    local = np.zeros(comp.dim)
    for (A, B), o, n in zip(pairs, offsets, sizes):
        local[o:o + n] = comp.gas.energies[A] + comp.container.energies[B]
    return np.diag(local) + interaction, interaction, local


def _block_matrices(h):
    """(indices, V diag(E) V^dagger) of every block of ``h``."""
    return [(b.indices, (b.vectors * b.energies) @ b.vectors.conj().T) for b in h.blocks]


BUILDERS = {MICROCANONICAL: build_microcanonical_hamiltonian,
            CANONICAL: build_canonical_hamiltonian}


@pytest.fixture
def one_cpu(monkeypatch):
    """Let ``evolve`` use one CPU, so it runs every time in this process: an
    in-process sink, a spy or tracemalloc then sees the whole run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def evolve_keeping_rows(state, h, times):
    """``evolve`` with a sink that copies every row out: (trajectory, states).

    The sink checks what it is promised: rows arrive in order, each once, as a
    read-only view.  Use it with ``one_cpu``: a forked worker's rows do not come back.
    """
    times = np.asarray(times, dtype=float)
    states = np.full((len(times), state.composite.dim), np.nan, dtype=complex)
    seen = []

    def keep(start, rows):
        assert not rows.flags.writeable
        seen.append((start, len(rows)))
        states[start:start + len(rows)] = rows

    traj = evolve(state, h, times, sink=keep)
    assert [start for start, _ in seen] == list(np.cumsum([0] + [k for _, k in seen])[:-1])
    assert sum(k for _, k in seen) == len(times)
    return traj, states


# ------------------------------------------------------------- construction

def test_zero_coupling_is_free_evolution():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    want, interaction, local = _replay(comp, MICROCANONICAL, 0.0, 0)
    np.testing.assert_array_equal(interaction, 0.0)
    np.testing.assert_array_equal(local, h.gas_diagonal + h.container_diagonal)
    for idx, block in _block_matrices(h):
        np.testing.assert_array_equal(block, want[np.ix_(idx, idx)])


def test_negative_coupling_rejected():
    comp = composite_three()
    with pytest.raises(ValueError, match=">= 0"):
        build_microcanonical_hamiltonian(comp, -1.0, substream(0, 0))
    with pytest.raises(ValueError, match=">= 0"):
        build_canonical_hamiltonian(comp, -1.0, substream(0, 0))


def test_hamiltonian_is_hermitian_and_assembled():
    composites = (composite_three(), composite_detuned())
    for (kind, build), comp in itertools.product(BUILDERS.items(), composites):
        h = build(comp, 0.7, substream(5, 0))
        want, interaction, local = _replay(comp, kind, 0.7, 5)
        np.testing.assert_array_equal(local, h.gas_diagonal + h.container_diagonal)
        # every commutator norm is the dense (d_j - d_k) I_jk one; only a canonical H on
        # the detuned shell moves the total energy
        norms = h.commutator_norms()
        for name, d in (("gas", h.gas_diagonal), ("container", h.container_diagonal),
                        ("total", local)):
            dense = np.linalg.norm((d[:, None] - d) * interaction)
            assert norms[name] == pytest.approx(dense, rel=1e-12, abs=0.0)
        assert (norms["total"] > 0) == (kind == CANONICAL and comp is composites[1])
        # the blocks partition the basis and hold the eigenpairs of H on it
        np.testing.assert_array_equal(
            np.sort(np.concatenate([b.indices for b in h.blocks])), np.arange(comp.dim))
        # the composite's own partition, shared rather than copied
        assert h.kind == kind and len(h.blocks) == len(comp.blocks(kind))
        assert all(b.indices is g for b, g in zip(h.blocks, comp.blocks(kind)))
        for b in h.blocks:
            np.testing.assert_allclose(b.vectors.conj().T @ b.vectors, np.eye(len(b.indices)),
                                       rtol=0, atol=1e-12)
            block = (b.vectors * b.energies) @ b.vectors.conj().T
            assert np.linalg.norm(block - block.conj().T) < 1e-12
            np.testing.assert_allclose(block, want[np.ix_(b.indices, b.indices)],
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("coupling", [0.0, 0.7])
@pytest.mark.parametrize("kind", BUILDERS)
def test_blocks_do_not_depend_on_the_worker_count(monkeypatch, kind, coupling):
    # the canonical shell {1, 1.3} has no constant local diagonal, so its worker
    # diagonalizes it; at zero coupling every block's does.  The caller's rng gives
    # one integers call, the blocks' keys, whatever the workers do.
    comp = composite_detuned()
    replay = substream(5, 0)
    replay.integers(0, 2**63, len(comp.blocks(kind)))
    after, built = replay.standard_normal(), {}
    # numpy's own qr, eigvalsh and eigh where no LAPACK symbol resolves: the same bits
    for cpus, lapack in ((1, True), (2, True), (3, True), (2, False)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        if not lapack:
            monkeypatch.setattr(fanout, "_lapack", lambda name: None)
        rng = substream(5, 0)
        h = BUILDERS[kind](comp, coupling, rng)
        assert not any(a.flags.writeable for b in h.blocks for a in b)
        built[cpus, lapack] = [a.tobytes() for b in h.blocks for a in b]
        assert rng.standard_normal() == after, (cpus, lapack)
    assert all(blocks == built[1, True] for blocks in built.values())


def test_a_block_depends_on_the_rng_its_index_and_its_size_alone():
    # block 0 grows from 6 to 10 states and block 1 keeps its 8: block 1 keeps its bits
    vectors = []
    for container in ([(0, 3), (1, 4)], [(0, 5), (1, 4)]):
        comp = compose(build_spectrum([(0, 2)]), build_spectrum(container))
        h = build_microcanonical_hamiltonian(comp, 0.5, substream(4, 0))
        assert [len(b.indices) for b in h.blocks] == [2 * container[0][1], 8]
        vectors.append(h.blocks[1].vectors.tobytes())
    assert vectors[0] == vectors[1]


def test_no_build_worker_is_forked_without_a_block(monkeypatch):
    # subspaces of 10, 10, 1 and 1 states: split in 3 by n_b^3, the middle range is
    # empty, so 3 CPUs run 2 workers with the blocks of 1 CPU
    comp = compose(build_spectrum([(0, 10), (1, 1)]), build_spectrum([(0, 1), (1, 1)]))
    sizes = comp.block_dims(MICROCANONICAL).tolist()
    assert sorted(sizes) == [1, 1, 10, 10] and len(set(dynamics._split(sizes, 3))) == 2
    forks, fork, built = [], os.fork, {}
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        del forks[:]
        h = build_microcanonical_hamiltonian(comp, 0.5, substream(2, 0))
        built[cpus] = [a.tobytes() for b in h.blocks for a in b]
        assert len(forks) == min(cpus, 2) - 1
    assert built[3] == built[1]


def test_the_build_splits_no_more_ways_than_it_has_cpus(monkeypatch):
    # 1200 one-state subspaces on 2 CPUs: the worker count is searched up to 2, so
    # _split runs once in that search and once in this process's worker, not ~1200 times
    comp = compose(build_spectrum([(float(j), 1) for j in range(1200)]), build_spectrum([(0, 1)]))
    assert comp.n_subspaces == 1200
    calls, split = [], dynamics._split
    monkeypatch.setattr(dynamics, "_split", lambda sizes, m: calls.append(m) or split(sizes, m))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    build_microcanonical_hamiltonian(comp, 0.5, substream(6, 0))
    assert len(calls) <= 2 and set(calls) <= {1, 2}


def test_a_forked_build_worker_failure_keeps_its_class(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller, real = os.getpid(), dynamics.qr

    def qr(a, r):
        if os.getpid() != caller:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, r)

    monkeypatch.setattr(dynamics, "qr", qr)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"Hamiltonian workers \[1\] of 2 failed: Eigenvalues did not"):
        build_microcanonical_hamiltonian(composite_three(), 0.5, substream(1, 0))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_blocks_split_into_ranges_balanced_by_cost_the_last_to_worker_0():
    assert dynamics._split([4, 4, 4, 4], 2) == [1, 1, 0, 0]
    assert dynamics._split([4, 4, 4, 4], 3) == [2, 1, 1, 0]
    assert dynamics._split([1, 1, 1, 10], 2) == [1, 1, 1, 0]
    assert dynamics._split([10, 1, 1, 1], 3) == [1, 0, 0, 0]
    assert dynamics._split([3], 1) == [0]


def test_blocks_store_only_eigenpairs():
    comp = composite_three()
    for build in BUILDERS.values():
        for coupling in (0.0, 0.5):
            h = build(comp, coupling, substream(3, 0))
            sizes = [len(b.indices) for b in h.blocks]
            for b in h.blocks:
                assert b._fields == ("indices", "energies", "vectors")
            assert sum(a.nbytes for b in h.blocks for a in b) == \
                sum(16 * n + 16 * n * n for n in sizes)


def test_coupling_sets_largest_block_spectral_radius():
    comp = composite_three()
    lam = 0.37
    for kind, build in BUILDERS.items():
        h = build(comp, lam, substream(8, 0))
        _, _, local = _replay(comp, kind, lam, 8)
        radius = max(float(np.max(np.abs(np.linalg.eigvalsh(block - np.diag(local[idx])))))
                     for idx, block in _block_matrices(h))
        assert radius == pytest.approx(lam, rel=1e-12)


def test_microcanonical_commutators_vanish():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.5, substream(1, 0))
    assert h.commutator_norms() == {"gas": 0.0, "container": 0.0, "total": 0.0}


def test_canonical_commutators_conserve_only_total():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(1, 0))
    norms = h.commutator_norms()
    assert norms["total"] < 1e-12
    # energy moves between gas and container inside the middle shell
    assert norms["gas"] > 1e-3
    assert norms["container"] > 1e-3
    # the block-by-block norms equal the dense (d_j - d_k) I_jk reference
    _, interaction, _ = _replay(comp, CANONICAL, 0.5, 1)
    for name, d in (("gas", h.gas_diagonal), ("container", h.container_diagonal),
                    ("total", h.gas_diagonal + h.container_diagonal)):
        dense = np.linalg.norm((d[:, None] - d[None, :]) * interaction)
        assert norms[name] == pytest.approx(dense, rel=1e-12, abs=1e-15)


def test_canonical_reduces_to_microcanonical_for_singleton_shells():
    comp = compose(build_spectrum([(0, 2), (1, 3)]), build_spectrum([(0, 2)]))
    assert comp.n_shells == comp.n_subspaces
    a = build_microcanonical_hamiltonian(comp, 0.4, substream(9, 0))
    b = build_canonical_hamiltonian(comp, 0.4, substream(9, 0))
    for block_a, block_b in zip(a.blocks, b.blocks, strict=True):
        for array_a, array_b in zip(block_a, block_b):
            np.testing.assert_array_equal(array_a, array_b)


def test_weak_coupling_ratio():
    comp = composite_three()
    state = uniform_product_state(comp)
    psi = state.amplitudes
    for kind, build in BUILDERS.items():
        h = build(comp, 0.01, substream(2, 0))
        ratio = h.weak_coupling_ratio(state)
        assert 0 <= ratio < 1.0
        _, interaction, _ = _replay(comp, kind, 0.01, 2)
        e_int = abs(np.vdot(psi, interaction @ psi).real)
        e_gas = abs(np.dot(np.abs(psi) ** 2, h.gas_diagonal))
        e_container = abs(np.dot(np.abs(psi) ** 2, h.container_diagonal))
        assert ratio == pytest.approx(e_int / min(e_gas, e_container), rel=1e-12), kind
    # a state with zero mean gas energy makes the ratio blow up
    flat = compose(build_spectrum([(0, 2)]), build_spectrum([(0, 2)]))
    h0 = build_microcanonical_hamiltonian(flat, 0.1, substream(2, 0))
    s0 = uniform_product_state(flat)
    assert h0.weak_coupling_ratio(s0) == np.inf


# -------------------------------------------------------------- propagation

@pytest.mark.usefixtures("one_cpu")
def test_evolve_free_eigenstate_keeps_purity_one():
    comp = composite_three()
    h = build_microcanonical_hamiltonian(comp, 0.0, substream(0, 0))
    amps = np.zeros(comp.dim, dtype=complex)
    amps[0] = 1.0
    traj, states = evolve_keeping_rows(PureState(comp, amps), h, np.linspace(0, 10, 41))
    np.testing.assert_allclose(traj.measures["purity"], 1.0, atol=1e-12)
    # only a global phase moves: every population is frozen
    populations = np.abs(states) ** 2
    np.testing.assert_allclose(
        populations, np.broadcast_to(np.abs(amps) ** 2, populations.shape),
        atol=1e-12)


@pytest.mark.usefixtures("one_cpu")
def test_evolve_time_zero_is_bit_exact():
    comp = composite_three()
    h = build_canonical_hamiltonian(comp, 0.5, substream(3, 0))
    state = sample_microcanonical(
        comp, microcanonical_profile(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}),
        substream(3, 1))
    _, states = evolve_keeping_rows(state, h, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(states[0], state.amplitudes)


def test_two_level_resonance_period_matches_eigen_gap():
    comp = compose(build_spectrum([(0, 1), (1, 1)]), build_spectrum([(0, 1), (1, 1)]))
    h = build_canonical_hamiltonian(comp, 0.5, substream(4, 0))
    shell = comp.blocks(CANONICAL)[comp.shell_index_at(1.0)]
    block = _replay(comp, CANONICAL, 0.5, 4)[0][np.ix_(shell, shell)]
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


@pytest.mark.usefixtures("one_cpu")
def test_evolve_matches_dense_matrix_exponential():
    comp = composite_three()
    state = uniform_product_state(comp)
    times = np.array([0.0, 0.3, 2.0, 17.5])
    for kind, build in BUILDERS.items():
        h = build(comp, 0.6, substream(15, 0))
        dense, _, _ = _replay(comp, kind, 0.6, 15)
        _, states = evolve_keeping_rows(state, h, times)
        for t, psi in zip(times, states):
            want = scipy.linalg.expm(-1j * t * dense) @ state.amplitudes
            np.testing.assert_allclose(psi, want, rtol=0, atol=1e-10)


def _whole_array_trajectory(state, h, times):
    """Amplitudes and measures in one pass over the whole time axis, by the
    formulas of the chunks under test but without them."""
    comp = state.composite
    amplitudes = np.empty((len(times), comp.dim), dtype=complex)
    for b in h.blocks:
        coeffs = b.vectors.conj().T @ state.amplitudes[b.indices]
        phases = np.exp(-1j * np.outer(times, b.energies))
        amplitudes[:, b.indices] = (phases * coeffs) @ b.vectors.T
    amplitudes[times == 0.0] = state.amplitudes
    h_psi = np.empty_like(amplitudes)
    for b in h.blocks:
        h_psi[:, b.indices] = (
            (amplitudes[:, b.indices] @ b.vectors.conj()) * b.energies) @ b.vectors.T
    return amplitudes, {
        "norm": np.linalg.norm(amplitudes, axis=1),
        "energy": np.einsum("ki,ki->k", amplitudes.conj(), h_psi).real,
        "v_eff": np.linalg.norm(h_psi, axis=1),
        "chords": np.linalg.norm(np.diff(amplitudes, axis=0), axis=1),
        "subspace_weights": comp.subspace_sums(np.abs(amplitudes) ** 2),
    }


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("times", [
    *(pytest.param(np.linspace(0.0, 9.0, n), id=str(n)) for n in (9, 10, 11)),
    pytest.param(9.0 * (np.arange(11) / 10) ** 2, id="stretched")])
def test_chunked_measures_match_the_whole_array(kind, times, monkeypatch):
    # chunks of 3 rows (4 on the canonical H, whose largest block holds 8 of
    # the 16 states): among these grids are even splits, a ragged last chunk
    # and a lone last row that joins the chunk before it; the stretched grid
    # has a distinct step between every two times, whose chords go 3 steps at a time
    monkeypatch.setattr(dynamics, "batch_rows", lambda dim: 3)
    chunk_rows = []
    measure = dynamics.gas_purity_entropy
    monkeypatch.setattr(dynamics, "gas_purity_entropy", lambda comp, flat:
                        chunk_rows.append(len(flat)) or measure(comp, flat))
    comp = composite_three()
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
    state = PureState(comp, amps / np.linalg.norm(amps))
    h = BUILDERS[kind](comp, 0.6, substream(21, 0))
    traj, states = evolve_keeping_rows(state, h, times)
    assert len(chunk_rows) > 1 and min(chunk_rows) >= 2 and sum(chunk_rows) == len(times)

    amplitudes, want = _whole_array_trajectory(state, h, times)
    np.testing.assert_array_equal(states, amplitudes)
    w_sub = want["subspace_weights"]
    purity, entropy = gas_purity_entropy(comp, amplitudes)
    for name, value in (("norm", want["norm"]), ("subspace_weights", w_sub),
                        ("shell_weights", comp.shell_sums(w_sub)),
                        ("gas_level_weights", comp.gas_level_sums(w_sub)),
                        ("purity", purity), ("entropy", entropy)):
        np.testing.assert_array_equal(traj.measures[name], value, err_msg=name)
    # the chords come in closed form, the reference's from the rows
    for name, value in (("energy", traj.measures["energy"]), ("v_eff", traj.measures["v_eff"]),
                        ("chords", traj.chords)):
        np.testing.assert_allclose(value, want[name], rtol=1e-14, atol=0, err_msg=name)


@pytest.mark.parametrize("times", [
    *(pytest.param(np.linspace(0.0, 9.0, n), id=str(n)) for n in (2, 3, 7)),
    pytest.param(9.0 * (np.arange(11) / 10) ** 2, id="stretched")])
def test_evolve_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, times):
    # at most one worker per two times: 7 times run as 7, 3 + 4 or 2 + 2 + 3, the
    # 11 stretched ones as 11, 5 + 6 or 3 + 4 + 4, in chunks of 2 rows or 3 at a
    # range's end.  A sink runs in the worker that propagated its rows, so it copies
    # them into shared memory and logs its calls to a file forked workers append to.
    monkeypatch.setattr(dynamics, "batch_rows", lambda dim: 2)
    comp = composite_three()
    rng = np.random.default_rng(25)
    amps = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
    state = PureState(comp, amps / np.linalg.norm(amps))
    h = build_canonical_hamiltonian(comp, 0.6, substream(25, 0))
    n, calls = len(times), tmp_path / "calls"
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        rows = fanout.shared_array(n * comp.dim, "rows", dtype=complex).reshape(n, comp.dim)
        calls.write_text("")

        def keep(start, chunk):
            rows[start:start + len(chunk)] = chunk
            with open(calls, "a") as fh:
                fh.write(f"{start} {len(chunk)}\n")

        del forks[:]
        traj = evolve(state, h, times, keep)
        assert len(forks) == min(cpus, n // 2) - 1
        seen = sorted(tuple(map(int, line.split())) for line in calls.read_text().splitlines())
        assert [start for start, _ in seen] == list(np.cumsum([0] + [k for _, k in seen])[:-1])
        assert sum(k for _, k in seen) == n and min(k for _, k in seen) >= 2
        runs[cpus] = ({name: series.tobytes() for name, series in traj.measures.items()},
                      traj.chords.tobytes(), rows.tobytes())
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_small_step_chords_are_the_effective_velocity():
    # over a step dt the chord is dt v_eff (1 + O(E^2 dt^2)); at dt = 1e-9 a row
    # difference loses about 8 digits to cancellation, the closed form none
    comp = composite_three()
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
    state = PureState(comp, amps / np.linalg.norm(amps))
    h = build_canonical_hamiltonian(comp, 0.6, substream(23, 0))
    times = 1e-9 * np.arange(5)
    traj = evolve(state, h, times)
    np.testing.assert_allclose(traj.chords / np.diff(times), effective_velocity(state, h),
                               rtol=1e-12, atol=0)


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("kind", BUILDERS)
def test_evolve_temporaries_do_not_grow_with_the_time_axis(kind):
    # dim 400: a kept trajectory would add 1400 * 400 * 16 bytes, 8.5 MiB, from
    # 201 to 1601 times; the measure series add about 0.2 MiB
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 50), (1, 50)]))
    h = BUILDERS[kind](comp, 0.1, substream(2, 0))
    state = uniform_product_state(comp)
    peak = {n: _traced_peak(evolve, state, h, np.linspace(0.0, 100.0, n))[1]
            for n in (201, 1601)}
    assert peak[1601] - peak[201] < 2 ** 20, peak


@pytest.mark.usefixtures("one_cpu")
def test_evolve_holds_no_block_sized_temporary():
    # dim 1600, four blocks of 400: one conjugate copy of a block's V alone would
    # be 16 n_b^2 bytes
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 200), (1, 200)]))
    h = build_microcanonical_hamiltonian(comp, 0.1, substream(3, 0))
    _, peak = _traced_peak(evolve, uniform_product_state(comp), h, np.linspace(0.0, 500.0, 201))
    assert peak < 16 * 400 ** 2, peak / 2 ** 20


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 41, 399, 400, 401, 1600])
def test_start_coefficients_are_the_whole_product_with_no_block_sized_temporary(n):
    # spectral_decomposition takes the whole product V^dagger psi in one call, as
    # conj(conj(psi) V): the same bits on one OpenBLAS thread, with no n x n temporary
    rng = np.random.default_rng(n)
    vectors = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    comp = compose(build_spectrum([(0, 1)]), build_spectrum([(0, n)]))  # one block of n
    h = dynamics.Hamiltonian(comp, MICROCANONICAL, np.zeros(n), np.zeros(n),
                             (dynamics.HamiltonianBlock(np.arange(n), np.zeros(n), vectors),))
    with fanout.one_blas_thread():  # as in hsmc evolve's workers
        want = vectors.conj().T @ psi
    state = PureState(comp, psi, check=False)
    ((got,), _), peak = _traced_peak(dynamics.spectral_decomposition, state, h)
    assert got.tobytes() == want.tobytes()
    # a few vectors of n values, where a conjugate copy of V would be 16 n^2 bytes
    assert peak < 4 * 16 * n + 4096, peak


def test_commutator_norms_hold_no_block_sized_temporary():
    # canonical shells of 200, 400 and 200 states; H_g is constant on all but the middle one
    comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 100), (1, 100)]))
    h = build_canonical_hamiltonian(comp, 0.1, substream(3, 0))
    got, peak = _traced_peak(h.commutator_norms)
    assert peak < 16 * 400 ** 2, peak / 2 ** 20
    gas = [(d[:, None] - d) * block for idx, block in _block_matrices(h)
           for d in [h.gas_diagonal[idx]]]
    want = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in gas))
    assert got["gas"] == pytest.approx(want, rel=1e-13) and got["total"] == 0.0
    assert got["container"] == pytest.approx(want, rel=1e-13)  # H_c = H_E - H_g on a shell


def _gue_draw(rng, vectors, values, batch):
    """The documented draw of one block: its eigenvalues, then its eigenvectors."""
    dynamics._gue_eigenvalues(rng, values)
    dynamics._haar_vectors(rng, vectors, batch)


@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_gue_block_is_the_documented_draw_in_one_array(n):
    vectors, values = np.full((n, n), np.nan, dtype=complex), np.full(n, np.nan)
    rng, batch = np.random.default_rng(n), np.empty(BATCH_ELEMENTS)
    with fanout.one_blas_thread():  # as in the build's caller and workers
        want_vectors, want_values = _gue_reference(np.random.default_rng(n), n)
        _, peak = _traced_peak(_gue_draw, rng, vectors, values, batch)
    assert vectors.tobytes() == want_vectors.tobytes()
    assert values.tobytes() == want_values.tobytes()
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(n), rtol=0, atol=1e-13)
    replay = np.random.default_rng(n)
    _gue_reference(replay, n)
    assert rng.standard_normal() == replay.standard_normal()
    # the pairs go into the caller's arrays: besides LAPACK's workspaces of at most 64
    # columns and about 7 KiB of fixed overhead, only vectors of n values are
    # allocated, where one (n, n) array alone would be 8 n^2 bytes or more
    assert peak <= 16 * 64 * n + 16384, peak


def test_gue_eigenpairs_have_the_law_of_the_dense_draw():
    # 20 000 draws at n = 4 against the GUE's H_00 ~ N(0, 1), |H_01|^2 ~ Exp(1) and
    # the largest eigenvalue of as many dense (x + x^dagger) / 2 draws; level 1e-3
    n, draws, alpha = 4, 20_000, 1e-3
    rng, batch = np.random.default_rng(2002), np.empty(BATCH_ELEMENTS)
    vectors, values = np.empty((draws, n, n), dtype=complex), np.empty((draws, n))
    for v, e in zip(vectors, values):
        _gue_draw(rng, v, e, batch)
    h = (vectors * values[:, None, :]) @ vectors.conj().transpose(0, 2, 1)
    dense = np.random.default_rng(2007)
    x = dense.standard_normal((draws, n, n)) + 1j * dense.standard_normal((draws, n, n))
    largest = np.linalg.eigvalsh((x + x.conj().transpose(0, 2, 1)) / 2.0)[:, -1]
    for p in (scipy.stats.kstest(h[:, 0, 0].real, "norm").pvalue,
              scipy.stats.kstest(np.abs(h[:, 0, 1]) ** 2, "expon").pvalue,
              scipy.stats.ks_2samp(values[:, -1], largest).pvalue):
        assert p > alpha


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
    # equal dims with other gas energies, then other dims: no silent number, no IndexError
    shifted = compose(build_spectrum([(0, 1), (2, 3)]), build_spectrum([(0, 2), (1, 2)]))
    wider = compose(build_spectrum([(0, 1), (1, 3)]), build_spectrum([(0, 2), (1, 3)]))
    for foreign in (state, uniform_product_state(shifted), uniform_product_state(wider)):
        for call in (dynamics.spectral_decomposition, effective_velocity,
                     lambda s, h: h.weak_coupling_ratio(s)):
            with pytest.raises(ValueError, match="different composites"):
                call(foreign, h)
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
    amps[comp.blocks(MICROCANONICAL)[comp.subspace_index(1, 1)][0]] = 1.0  # E = 2
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
    _, weights = dynamics.spectral_decomposition(state, h)
    e0 = sum(np.dot(p, b.energies) for p, b in zip(weights, h.blocks))
    np.testing.assert_allclose(traj.measures["energy"], e0, atol=1e-9)


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


_LIBRARY_RUN = """
import hashlib
import numpy as np
from hsmc import (build_microcanonical_hamiltonian, build_spectrum, compose, effective_velocity,
                  evolve, product_state, substream)
comp = compose(build_spectrum([(0, 2), (1, 2)]), build_spectrum([(0, 50), (1, 50)]))
h = build_microcanonical_hamiltonian(comp, 0.1, substream(3, 0))
state = product_state(comp, np.full(2, 1 / 2), np.full(2, 1 / 2))
traj = evolve(state, h, np.linspace(0.0, 500.0, 201))
for name, series in [*traj.measures.items(), ("chords", traj.chords)]:
    print(name, hashlib.sha256(series.tobytes()).hexdigest())
print(h.commutator_norms(), h.weak_coupling_ratio(state), effective_velocity(state, h))
"""


def test_library_calls_do_not_depend_on_the_blas_thread_count():
    # the equilibration composite: evolve's norm, energy, v_eff and purity series
    # once took other last bits on 2 OpenBLAS threads than on 1
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _LIBRARY_RUN], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                     OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[1] == runs[0]
