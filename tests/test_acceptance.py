"""End-to-end acceptance checks at production sample sizes.

Each test prints one ``[acceptance k/10] PASS/FAIL`` line with its observed
margin (the prints bypass pytest's capture), then asserts.  Tolerances are
the contract: z-score bounds for Monte Carlo agreement, absolute bounds for
conservation and closed-form identities.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import ks_2samp

from hsmc import (MomentQuery, WeightProfile, build_microcanonical_hamiltonian,
                  build_canonical_hamiltonian, build_spectrum, canonical_profile,
                  compose, dominant_distribution, evolve, expected_purity_exact,
                  fit_temperature, gas_purity_entropy, gas_state_chunks, hypersphere_moment,
                  hypersphere_moment_mc, lubkin_average,
                  marginal_gas_distribution, max_drift, max_entropy_micro,
                  mc_average, microcanonical_profile, min_purity_state, page_entropy,
                  path_average, product_constraint, product_state, purity_entropy,
                  region_log_size, region_mean_purity, sample_chunks,
                  sample_microcanonical, time_average, uniform_profile)
from hsmc.sampling import mc_estimate


@pytest.fixture
def announce(capsys):
    """Print a verdict line that survives pytest's output capture."""

    def _say(tag, passed, detail):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"\n[acceptance {tag}] {status}: {detail}")

    return _say


def _subspace_weights(comp, amps):
    return comp.subspace_sums(np.abs(amps) ** 2)


def test_1_unconstrained_purity_matches_closed_form(announce):
    """Fully degenerate 2 x N_c sampling reproduces (Ng+Nc)/(Ng*Nc+1)."""
    n = 100_000
    z_scores = {}
    for n_c, seed in ((2, 103), (8, 109), (32, 131)):
        comp = compose(build_spectrum([(0.0, 2)]), build_spectrum([(0.0, n_c)]))
        profile = microcanonical_profile({(0, 0): 1.0})
        est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, n, seed)
        target = lubkin_average(2, n_c)
        z_scores[n_c] = abs(est.mean - target) / est.std_error
    worst = max(z_scores.values())
    ok = worst <= 3.0
    announce("1/10", ok,
             f"unconstrained purity, N_c in (2, 8, 32), n={n}: "
             f"max |z| = {worst:.2f} (bound 3)")
    assert ok, f"z-scores {z_scores}"


# (gas levels, gas weights, container levels, container weights, seed)
PRODUCT_CONFIGS = [
    ([(0, 2), (1, 2)], (0.5, 0.5), [(0, 4), (1, 4)], (0.5, 0.5), 211),
    ([(0, 2), (1, 3)], (0.3, 0.7), [(0, 16), (1, 64)], (0.25, 0.75), 223),
    ([(0, 1), (1, 3)], (0.6, 0.4), [(0, 2), (1, 2)], (0.5, 0.5), 227),
    ([(0, 3)], (1.0,), [(0, 5)], (1.0,), 229),
    ([(0, 1), (1, 2), (2, 2)], (0.2, 0.5, 0.3), [(0, 8), (1, 8)], (0.5, 0.5), 233),
]


def test_2_exact_average_purity_over_five_composites(announce):
    """Monte Carlo agrees with the exact product-weight average on varied composites."""
    n = 100_000
    t0 = time.time()
    z_scores = []
    for gas_levels, w_gas, cont_levels, w_cont, seed in PRODUCT_CONFIGS:
        gas = build_spectrum(gas_levels)
        container = build_spectrum(cont_levels)
        comp = compose(gas, container)
        profile = product_constraint(
            comp,
            WeightProfile(gas, w_gas),
            WeightProfile(container, w_cont),
        )
        est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, n, seed)
        exact = expected_purity_exact(comp, w_gas, w_cont)
        z_scores.append(abs(est.mean - exact) / est.std_error)
    elapsed = time.time() - t0
    worst = max(z_scores)
    ok = worst <= 3.0
    announce("2/10", ok,
             f"exact average purity, 5 composites, n={n}: "
             f"max |z| = {worst:.2f} (bound 3), {elapsed:.0f}s")
    assert ok, f"z-scores {z_scores}"
    assert elapsed < 300.0


MOMENT_PAIRS = [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 4)]


def test_3_moment_closed_forms_match_sphere_mc(announce):
    """The coordinate-moment closed form at six exponent pairs versus 10^6-point sphere MC."""
    n = 1_000_000
    worst_z = 0.0
    failures = []
    for d in (2, 4, 16, 64):
        for u_l, u_m in MOMENT_PAIRS:
            query = MomentQuery(R=1.0, d=d, u_l=u_l, u_m=u_m)
            exact = hypersphere_moment(query)
            est = hypersphere_moment_mc(query, n=n, seed=1000 + 10 * d + u_l + u_m)
            if est.std_error == 0.0:
                if abs(est.mean - exact) > 1e-12:
                    failures.append((d, u_l, u_m, "degenerate"))
                continue
            z = abs(est.mean - exact) / est.std_error
            worst_z = max(worst_z, z)
            if z > 5.0:
                failures.append((d, u_l, u_m, z))
            swapped = hypersphere_moment(MomentQuery(R=1.0, d=d, u_l=u_m, u_m=u_l))
            if swapped != exact:
                failures.append((d, u_l, u_m, "exchange"))
    ok = not failures
    announce("3/10", ok,
             f"moment suite, 6 pairs x d in (2, 4, 16, 64), n={n}: "
             f"max |z| = {worst_z:.2f} (bound 5), exchange symmetry exact")
    assert ok, f"failures {failures}"


def test_4_entropy_concentration_near_maximum(announce):
    """High-degeneracy uniform composite: nearly all samples sit at max entropy."""
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 100), (1, 100)])
    comp = compose(gas, container)
    profile = product_constraint(comp, uniform_profile(gas), uniform_profile(container))
    s_max = max_entropy_micro([0.5, 0.5], [2, 2])
    p_min = min_purity_state(gas, [0.5, 0.5])[1]

    n = 10_000
    seed = 307
    hits_entropy = 0
    hits_purity = 0
    for amps in sample_chunks(comp, profile, seed, 0, n):
        purity, entropy = gas_purity_entropy(comp, amps)
        hits_entropy += int(np.sum(entropy >= 0.95 * s_max))
        hits_purity += int(np.sum(purity <= 1.1 * p_min))
    frac_entropy = hits_entropy / n
    frac_purity = hits_purity / n
    ok = frac_entropy >= 0.99 and frac_purity > 0.99
    announce("4/10", ok,
             f"concentration, gas (2,2) x container (100,100), n={n}: "
             f"S >= 0.95 S_max for {frac_entropy:.2%} (bound 99%), "
             f"P <= 1.1 P_min for {frac_purity:.2%} (bound 99%)")
    assert ok, (frac_entropy, frac_purity)


def _maximize_region_log_size(comp, shell_weights):
    """Numerically maximize region_log_size at fixed shell weights.

    Parametrizes each positive-weight shell's subspace split through a
    softmax, which keeps the shell sums and nonnegativity exact, and runs
    BFGS on the actual library objective with the analytic gradient of
    sum N_i ln(W_E p_i).
    """
    dims = comp.subspace_dims().astype(float)
    out = np.zeros(comp.n_subspaces)
    for shell, w_e in zip(comp.shells, shell_weights):
        members = list(shell.member_indices)
        if w_e == 0.0:
            continue
        if len(members) == 1:
            out[members[0]] = w_e
            continue
        n_i = dims[members]

        def split(theta):
            p = np.exp(theta - theta.max())
            return p / p.sum()

        def objective(theta):
            w = out.copy()
            # remaining shells at their dominant values so the global
            # validation in region_log_size is satisfied
            for other, w_other in zip(comp.shells, shell_weights):
                if other is shell or w_other == 0.0:
                    continue
                for j in other.member_indices:
                    w[j] = dims[j] * w_other / other.n_states
            w[members] = w_e * split(theta)
            return -region_log_size(comp, w)

        def gradient(theta):
            p = split(theta)
            return -(n_i - p * n_i.sum())

        res = minimize(objective, np.zeros(len(members)), jac=gradient,
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        out[members] = w_e * split(res.x)
    return out


def test_5_dominant_distribution_is_sampled_and_maximal(announce):
    """Canonical sample means reproduce the dominant weights; an independent
    optimizer lands on the same point."""
    gas = build_spectrum([(0, 1), (1, 3)])
    container = build_spectrum([(0, 2), (1, 2)])
    comp = compose(gas, container)
    shell_w = np.array([0.2, 0.5, 0.3])
    profile = canonical_profile({0.0: 0.2, 1.0: 0.5, 2.0: 0.3})

    n = 100_000
    seed = 401
    w = np.concatenate([_subspace_weights(comp, amps)
                        for amps in sample_chunks(comp, profile, seed, 0, n)])
    estimates = [mc_estimate([column], seed) for column in w.T]
    mean = np.array([est.mean for est in estimates])
    std_error = np.array([est.std_error for est in estimates])

    dd = dominant_distribution(comp, shell_w)
    target = dd.w_d
    # single-subspace shells carry their whole shell weight every draw, so
    # their standard error is pure roundoff; the floor keeps the z-test
    # meaningful for them without loosening the genuinely random entries
    z = np.abs(mean - target) / np.maximum(std_error, 1e-12)
    worst_z = float(z.max())

    optimum = _maximize_region_log_size(comp, shell_w)
    gap = float(np.max(np.abs(optimum - target)))

    ok = worst_z <= 4.0 and gap <= 1e-8
    announce("5/10", ok,
             f"dominant weights, 3-shell composite, n={n}: "
             f"max |z| = {worst_z:.2f} (bound 4), "
             f"optimizer gap = {gap:.1e} (bound 1e-8)")
    assert ok, (z, gap)


def test_6_geometric_container_gives_boltzmann_temperature(announce):
    """Top shell of a 2^E-degenerate container induces kT = 1/ln 2 on the gas."""
    gas = build_spectrum([(0, 1), (1, 1), (2, 1)])
    container = build_spectrum([(e, 2 ** e) for e in range(9)])
    comp = compose(gas, container)
    shell_w = np.zeros(comp.n_shells)
    shell_w[comp.shell_index_at(8.0)] = 1.0

    kt_target = 1.0 / math.log(2.0)
    dd = dominant_distribution(comp, shell_w)
    kt_exact, residual = fit_temperature(gas, marginal_gas_distribution(dd))
    err_exact = abs(kt_exact - kt_target)

    n = 100_000
    seed = 503
    profile = canonical_profile({8.0: 1.0})
    total = np.zeros(gas.n_levels)
    for amps in sample_chunks(comp, profile, seed, 0, n):
        total += comp.gas_level_sums(_subspace_weights(comp, amps)).sum(axis=0)
    kt_mc, _ = fit_temperature(gas, total / n)
    err_mc = abs(kt_mc / kt_target - 1.0)

    ok = err_exact <= 1e-6 and err_mc <= 0.05
    announce("6/10", ok,
             f"geometric container, kT target 1/ln 2: exact off by "
             f"{err_exact:.1e} (bound 1e-6, residual {residual:.1e}), "
             f"MC off by {err_mc:.2%} at n={n} (bound 5%)")
    assert ok, (kt_exact, kt_mc)


def _random_composite(rng):
    """Small random two-level-gas composite with total dimension <= 512."""
    gas_levels = [(e, int(rng.integers(1, 5))) for e in range(2)]
    n_cont = int(rng.integers(2, 4))
    cont_levels = [(e, int(rng.integers(1, 22))) for e in range(n_cont)]
    comp = compose(build_spectrum(gas_levels), build_spectrum(cont_levels))
    assert comp.dim <= 512
    return comp


def test_7_conservation_across_random_hamiltonians(announce):
    """Ten random couplings: commutators vanish and conserved weights stay put."""
    master = np.random.default_rng(20260819)
    worst = {"commutator": 0.0, "subspace": 0.0, "v_eff": 0.0, "shell": 0.0}
    for _ in range(10):
        comp = _random_composite(master)
        coupling = float(master.uniform(0.05, 1.0))
        initial = sample_microcanonical(
            comp,
            product_constraint(comp, uniform_profile(comp.gas),
                               uniform_profile(comp.container)),
            master,
        )
        times = np.linspace(0.0, 50.0 / coupling, 41)

        h_micro = build_microcanonical_hamiltonian(comp, coupling, master)
        worst["commutator"] = max(worst["commutator"],
                                  *h_micro.commutator_norms().values())
        traj = evolve(initial, h_micro, times)
        worst["subspace"] = max(worst["subspace"],
                                max_drift(traj, "subspace_weights"))
        worst["v_eff"] = max(worst["v_eff"], max_drift(traj, "v_eff"))

        h_canon = build_canonical_hamiltonian(comp, coupling, master)
        traj_c = evolve(initial, h_canon, times)
        worst["shell"] = max(worst["shell"], max_drift(traj_c, "shell_weights"))

    ok = (worst["commutator"] < 1e-12 and worst["subspace"] < 1e-10
          and worst["v_eff"] < 1e-9 and worst["shell"] < 1e-10)
    announce("7/10", ok,
             "conservation over 10 random Hamiltonians: "
             f"commutators {worst['commutator']:.1e} (bound 1e-12), "
             f"subspace drift {worst['subspace']:.1e} (bound 1e-10), "
             f"v_eff drift {worst['v_eff']:.1e} (bound 1e-9), "
             f"shell drift {worst['shell']:.1e} (bound 1e-10)")
    assert ok, worst


def test_8_product_state_equilibrates_to_the_attractor(announce):
    """A pure product state relaxes to the predicted purity and entropy band."""
    gas = build_spectrum([(0, 2), (1, 2)])
    container = build_spectrum([(0, 50), (1, 50)])
    comp = compose(gas, container)
    w = (0.5, 0.5)
    gas_profile = WeightProfile(gas, w)
    cont_profile = WeightProfile(container, w)

    coupling = 0.1
    times = np.linspace(0.0, 50.0 / coupling, 201)
    initial = product_state(comp, gas_profile, cont_profile)
    hamiltonian = build_microcanonical_hamiltonian(
        comp, coupling, np.random.default_rng(607))
    traj = evolve(initial, hamiltonian, times)

    half = len(times) // 2
    window = times[-1] - times[half]
    p_bar = float(np.trapezoid(traj.measures["purity"][half:], times[half:])) / window
    s_bar = float(np.trapezoid(traj.measures["entropy"][half:], times[half:])) / window

    exact = expected_purity_exact(comp, w, w)
    s_max = max_entropy_micro(w, gas.degeneracies)
    p_err = abs(p_bar / exact - 1.0)
    s_floor = 0.9 * s_max

    p_time = time_average(traj, "purity")
    p_path = path_average(traj, "purity")
    grid_err = abs(p_path - p_time) / abs(p_time)

    ok = p_err <= 0.10 and s_bar >= s_floor and grid_err <= 0.01
    announce("8/10", ok,
             f"equilibration, product start, container (50,50): second-half "
             f"purity off exact by {p_err:.2%} (bound 10%), second-half entropy "
             f"{s_bar:.4f} vs floor {s_floor:.4f}, path-vs-time gap "
             f"{grid_err:.1e} (bound 1%)")
    assert ok, (p_bar, exact, s_bar, s_floor, grid_err)


# (gas levels, container levels, profile, n, seed): the canonical composites of
# sample-canonical-wide, evolve-canonical-dump and configs/geometric_container.yaml,
# and a microcanonical one whose weights are no product and miss one subspace
REGION_PURITY_CASES = [
    ([(0, 8), (1, 8), (2, 8)], [(e, 2 ** e) for e in range(8)],
     canonical_profile({7: 0.5, 8: 0.3, 9: 0.2}), 2_000, 11),
    ([(0, 1), (1, 1), (2, 1)], [(e, 2 ** e) for e in range(7)],
     canonical_profile({6: 0.6, 7: 0.4}), 20_000, 5),
    ([(0, 1), (1, 1), (2, 1)], [(e, 2 ** e) for e in range(9)],
     canonical_profile({8: 1.0}), 20_000, 3),
    ([(0, 2), (1, 3)], [(0, 2), (1, 4)],
     microcanonical_profile({(0, 0): 0.1, (0, 1): 0.4, (1, 1): 0.5}), 20_000, 7),
]


def test_9_region_mean_purity_matches_sampling(announce):
    """The mean gas purity of canonical and non-product regions matches sampling."""
    t0 = time.time()
    z_scores = []
    for gas_levels, cont_levels, profile, n, seed in REGION_PURITY_CASES:
        comp = compose(build_spectrum(gas_levels), build_spectrum(cont_levels))
        est = mc_average(lambda a: gas_purity_entropy(comp, a)[0], comp, profile, n, seed)
        z_scores.append((est.mean - region_mean_purity(comp, profile)) / est.std_error)
    worst = max(abs(z) for z in z_scores)
    ok = worst <= 4.0
    announce("9/10", ok,
             f"region mean purity, 3 canonical and 1 non-product region: "
             f"max |z| = {worst:.2f} (bound 4), {time.time() - t0:.1f}s")
    assert ok, f"z-scores {z_scores}"


# (name, gas levels, container levels, profile or gas and container weights, seed):
# a rank-deficient sphere (6 x 2), the multi-member shells of the canonical_sample
# fixture, a microcanonical product region, and a sphere far wider than the gas
GAS_STATE_CASES = [
    ("6x2", [(0, 6)], [(0, 2)], microcanonical_profile({(0, 0): 1.0}), 1001),
    ("canonical_sample", [(0, 2), (1, 3)], [(0, 2), (1, 3), (2, 2)],
     canonical_profile({1: 0.7, 2: 0.3}), 1003),
    ("product", [(0, 2), (1, 2)], [(0, 4), (1, 4)], ((0.3, 0.7), (0.6, 0.4)), 1005),
    ("2x400", [(0, 2)], [(0, 400)], microcanonical_profile({(0, 0): 1.0}), 1007),
]
GAS_STATE_DRAWS = 20_000
KS_ALPHA = 1e-3


def test_10_bartlett_gas_states_match_the_amplitude_draw(announce):
    """Gas states drawn from Bartlett factors have the law of reduced amplitude draws."""
    t0 = time.time()
    n, worst_z, lowest_p = GAS_STATE_DRAWS, 0.0, 1.0
    failures = []
    for name, gas_levels, cont_levels, profile, seed in GAS_STATE_CASES:
        gas, container = build_spectrum(gas_levels), build_spectrum(cont_levels)
        comp = compose(gas, container)
        if isinstance(profile, tuple):
            profile = product_constraint(comp, WeightProfile(gas, profile[0]),
                                         WeightProfile(container, profile[1]))
        purity, entropy = np.concatenate(
            [purity_entropy(rho) for rho in gas_state_chunks(comp, profile, seed, 0, n)], axis=1)
        # the amplitude draw reads other streams, so the two samples are independent
        reference = np.concatenate([gas_purity_entropy(comp, a)[0]
                                    for a in sample_chunks(comp, profile, seed + 1, 0, n)])
        checks = [("purity", purity, region_mean_purity(comp, profile))]
        if len(gas_levels) == len(cont_levels) == 1:
            checks.append(("entropy", entropy, page_entropy(gas.dim, container.dim)))
        for what, values, exact in checks:
            est = mc_estimate([values], seed)
            z = (est.mean - exact) / est.std_error
            worst_z = max(worst_z, abs(z))
            if not abs(z) <= 4.0:
                failures.append(f"{name} mean {what} z = {z:.2f}")
        p = ks_2samp(purity, reference).pvalue
        lowest_p = min(lowest_p, p)
        if not p >= KS_ALPHA:
            failures.append(f"{name} purity KS p = {p:.1e}")
    ok = not failures
    announce("10/10", ok,
             f"Bartlett gas states, 4 regions, n={n}: max |z| = {worst_z:.2f} (bound 4), "
             f"lowest KS p against the amplitude draw {lowest_p:.3f} (bound {KS_ALPHA}), "
             f"{time.time() - t0:.1f}s")
    assert ok, failures
