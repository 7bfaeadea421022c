"""Closed-form predictions for constrained bipartite pure states.

Covers the minimum local purity and maximum local entropy compatible with
fixed level weights, the exact Hilbert-space average of the gas purity over
every accessible region (from its sparse per-level counts, at O(subspaces) cost
whatever the number of shells), the weight distribution that dominates a canonically
constrained region together with its size geometry, a Boltzmann temperature
fit for the gas marginal, and the moments of single cartesian coordinates
over uniform hyperspheres that underpin all of the above: one exact closed
form for every exponent pair, checked by a Monte Carlo estimate that draws
3 variates per sphere point whatever the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .sampling import (CANONICAL, MICROCANONICAL, ConstraintProfile, McEstimate, mc_estimate,
                       product_constraint, region, substream)
from .spectrum import CompositeSpectrum, Spectrum
from .state import BATCH_ELEMENTS, _level_weights, checked_weights

__all__ = [
    "MAX_MOMENT_ORDER",
    "MomentQuery",
    "DominantDistribution",
    "min_purity_state",
    "max_entropy_micro",
    "region_mean_purity",
    "expected_purity_exact",
    "expected_purity_approx",
    "lubkin_average",
    "page_entropy",
    "hypersphere_moment",
    "hypersphere_moment_mc",
    "region_log_size",
    "dominant_distribution",
    "region_size_ratio",
    "marginal_gas_distribution",
    "fit_temperature",
]

# Largest total order u_l + u_m of a sphere moment: its closed form then
# takes under a millisecond, even at d = 2**63 - 1.
MAX_MOMENT_ORDER = 1024


def min_purity_state(gas: Spectrum, gas_weights) -> tuple[np.ndarray, float]:
    """Lowest-purity gas state compatible with fixed level weights {W_A}.

    The minimizer spreads each level's weight evenly over its degenerate
    states: rho = diag(W_A / N_A), with purity sum_A W_A^2 / N_A.  Returns
    the diagonal of rho (length ``gas.dim``, one population per gas state)
    and the purity.
    """
    w = checked_weights(gas_weights, gas.n_levels, "gas weights")
    n = np.asarray(gas.degeneracies, dtype=float)
    return np.repeat(w / n, gas.degeneracies), float(np.sum(w * w / n))


def max_entropy_micro(weights, degeneracies) -> float:
    """Largest gas entropy compatible with fixed level weights.

    Equals -sum_A W_A (ln W_A - ln N_A), the entropy of the minimum-purity
    state; zero-weight levels contribute nothing.  The logs are taken apart so
    a subnormal W_A cannot underflow W_A / N_A to 0 and the log to -inf; its
    term is then a subnormal, which is still the rounded product.
    """
    w = np.asarray(weights, dtype=float)
    n = np.asarray(degeneracies, dtype=float)
    if w.shape != n.shape:
        raise ValueError("weights and degeneracies must have matching lengths")
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError(f"weights must be finite and nonnegative, got {w.tolist()!r}")
    mask = w > 0
    with np.errstate(under="ignore"):
        return float(-np.sum(w[mask] * (np.log(w[mask]) - np.log(n[mask]))))


def region_mean_purity(composite: CompositeSpectrum, profile: ConstraintProfile) -> float:
    """Exact average gas purity Tr rho_g^2 over the accessible region of ``profile``.

    The region is a product of complex spheres, one per block k: a subspace
    (microcanonical) or a shell (canonical) of N_k states and radius sqrt(W_k),
    where E|z_i|^2 |z_j|^2 = (1 + delta_ij) W_k^2 / (N_k (N_k + 1)).  If gas row a
    holds n_k states of block k, its mean weight is r_a = sum_k n_k W_k / N_k;
    m_k and s_c are the same for container column c.  With q_k = sum_a n_k^2 + sum_c m_k^2,

        E[P] = sum_a r_a^2 + sum_c s_c^2 - sum_k W_k^2 q_k / (N_k^2 (N_k + 1)),

    from the sparse counts of :func:`~hsmc.sampling.region`, at O(subspaces) cost.
    """
    table = region(composite, profile)
    n_gas = np.asarray(composite.gas.degeneracies, dtype=float)
    n_container = np.asarray(composite.container.degeneracies, dtype=float)
    w, size = table.weights, table.sizes.astype(float)
    (a, gas_block, rows), (b, container_block, cols) = table.gas, table.container
    # every level holds a subspace, so each level's entries are one run of its table
    r = np.add.reduceat(rows * (w / size)[gas_block], np.searchsorted(a, np.arange(len(n_gas))))
    s = np.add.reduceat(cols * (w / size)[container_block],
                        np.searchsorted(b, np.arange(len(n_container))))
    q = (np.bincount(gas_block, weights=n_gas[a] * (rows * rows), minlength=len(w))
         + np.bincount(container_block, weights=n_container[b] * (cols * cols), minlength=len(w)))
    return float(n_gas @ (r * r) + n_container @ (s * s)
                 - np.sum(w * w * q / (size * size * (size + 1.0))))


def expected_purity_exact(composite: CompositeSpectrum, gas_weights,
                          container_weights) -> float:
    """:func:`region_mean_purity` of the microcanonical region with W_AB = W_A * W_B."""
    return region_mean_purity(composite, product_constraint(
        composite, gas_weights, container_weights))


def expected_purity_approx(composite: CompositeSpectrum, gas_weights,
                           container_weights) -> float:
    """Large-degeneracy limit of the average gas purity.

    sum_A W_A^2/N_A + sum_B W_B^2/N_B; valid when every N_A*N_B >> 1.  The
    first term is the minimum purity, so a small second term means almost the
    whole region sits near minimum purity.
    """
    w_a, w_b = _level_weights(composite, gas_weights, container_weights)
    n_a = np.asarray(composite.gas.degeneracies, dtype=float)
    n_b = np.asarray(composite.container.degeneracies, dtype=float)
    return float(np.sum(w_a ** 2 / n_a) + np.sum(w_b ** 2 / n_b))


def _dimensions(*dims) -> list[int]:
    """``dims`` as ints; ValueError unless each is an integer >= 1 and not a truth value."""
    if any(isinstance(d, bool) or not abs(d) < math.inf or int(d) != d or d < 1 for d in dims):
        raise ValueError(f"dimensions {dims!r} must be integers >= 1")
    return [int(d) for d in dims]


def lubkin_average(n_gas: int, n_container: int) -> float:
    """Average gas purity over fully unconstrained states: (Ng+Nc)/(Ng*Nc+1)."""
    n_gas, n_container = _dimensions(n_gas, n_container)
    return (n_gas + n_container) / (n_gas * n_container + 1)


def page_entropy(m: int, n: int) -> float:
    """Average entropy of either part of fully unconstrained states on C^m x C^n.

    For m <= n it is sum_{k=n+1}^{mn} 1/k - (m - 1) / (2n) (Page, PRL 71, 1291,
    1993; proved by Foong and Kanno, PRL 72, 1148, 1994, and Sen, PRL 77, 1, 1996).
    """
    m, n = sorted(_dimensions(m, n))
    return math.fsum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)


@dataclass(frozen=True)
class MomentQuery:
    """Mixed moment of two cartesian coordinates over a uniform hypersphere.

    The surface average of x_1^u_l x_2^u_m, u_l + u_m <= MAX_MOMENT_ORDER, on the
    sphere of radius R in d real dimensions (d = 2N for N complex amplitudes).
    """

    R: float
    d: int
    u_l: int
    u_m: int

    def __post_init__(self):
        if not self.R >= 0:
            raise ValueError(f"radius {self.R!r} must be >= 0")
        # abs(x) < inf is False for NaN and +-inf, so int() below never sees them
        if not abs(self.d) < math.inf or int(self.d) != self.d or not 1 <= self.d < 2**63:
            raise ValueError(f"dimension {self.d!r} must be an integer in [1, 2**63)")
        if any(not abs(u) < math.inf or int(u) != u or u < 0 for u in (self.u_l, self.u_m)):
            raise ValueError(f"exponents {self.u_l!r}, {self.u_m!r} must be nonnegative integers")
        if (order := int(self.u_l + self.u_m)) > MAX_MOMENT_ORDER:
            raise ValueError(f"total order {order} exceeds the maximum {MAX_MOMENT_ORDER}")
        if self.u_l > 0 and self.u_m > 0 and self.d < 2:
            raise ValueError("moments of two distinct coordinates need d >= 2")
        with np.errstate(over="ignore"):  # the MC error squares values up to R^(2 order)
            if not np.isfinite(np.float64(self.R) ** (2 * order)):
                raise ValueError(f"radius {self.R!r} is too large: R**{2 * order} overflows")


def hypersphere_moment(query: MomentQuery) -> float:
    """E[x_1^a x_2^b]: 0 for odd a or b, else R^(a+b) (a-1)!! (b-1)!! / (d (d+2) ... (d+a+b-2)).

    (-1)!! = 1.  The ratio is one correctly rounded division of exact integers.
    """
    a, b, d = int(query.u_l), int(query.u_m), int(query.d)
    if a % 2 or b % 2:
        return 0.0
    numerator = math.prod(range(a - 1, 0, -2)) * math.prod(range(b - 1, 0, -2))
    return numerator / math.prod(range(d, d + a + b - 1, 2)) * float(query.R) ** (a + b)


def hypersphere_moment_mc(query: MomentQuery, n: int, seed: int) -> McEstimate:
    """Monte Carlo check of a sphere moment, 3 variates per uniform point.

    x_i = R g_i / sqrt(g_1^2 + g_2^2 + c), with g_1, g_2 normals from stream 0
    and c ~ chi^2(d - 2), the rest of the squared norm, from stream 1; stream k
    is ``substream(seed, k)``.  Points are drawn and measured ``BATCH_ELEMENTS`` at
    a time, one chunk held at once; the points do not depend on that size.
    """
    normals, rest = substream(seed, 0), substream(seed, 1)
    def points(m):
        """``m`` points (x_1, x_2); if d = 1 just (x_1,), where one exponent is 0."""
        g = normals.standard_normal((m, min(int(query.d), 2)))
        squared = np.einsum("ij,ij->i", g, g)
        if query.d > 2:
            squared += rest.chisquare(query.d - 2, m)
        bad = squared == 0.0  # drawn again
        x = g * (query.R / np.sqrt(np.where(bad, 1.0, squared)))[:, None]
        if bad.any():
            x[bad] = points(int(bad.sum()))
        return x

    def values(m):
        x = points(m)
        return _power(x[:, 0], query.u_l) * _power(x[:, -1], query.u_m)

    return mc_estimate((values(min(BATCH_ELEMENTS, n - start))
                        for start in range(0, n, BATCH_ELEMENTS)), seed)


def _power(x: np.ndarray, u) -> np.ndarray:
    """``x ** u`` for an integral u >= 0; above 2 by repeated squaring, where numpy
    calls libm ``pow``, about 20x slower.  Each product rounds: the last bits may move."""
    if u <= 2:
        return x ** u
    half = _power(x, int(u) // 2)
    return half * half * x if u % 2 else half * half


def region_log_size(composite: CompositeSpectrum, subspace_weights,
                    exact_exponent: bool = False) -> float:
    """Log size (up to weight-independent constants) of the region with fixed {W_AB}.

    The region is a product of spheres with surface measure proportional to
    W_AB^(N_AB - 1/2); dropping constants leaves sum_AB N_AB ln W_AB under the
    default large-degeneracy simplification N_AB - 1/2 -> N_AB.  Pass
    ``exact_exponent=True`` to keep the -1/2.  Returns -inf if any weight
    vanishes.
    """
    w = checked_weights(subspace_weights, composite.n_subspaces, "subspace weights")
    exponents = composite.block_dims(MICROCANONICAL).astype(float)
    if exact_exponent:
        exponents = exponents - 0.5
    if np.any(w == 0.0):
        return float("-inf")
    return float(np.sum(exponents * np.log(w)))


@dataclass(frozen=True)
class DominantDistribution:
    """Subspace weights maximizing region size at fixed shell weights.

    ``w_d`` holds the dominant weight N_AB * W_E / N_E of each subspace, in subspace
    order; ``lambdas`` maps each positive-weight shell energy to its multiplier
    N_E / W_E.  Within a shell, w_d is proportional to the subspace dimension.
    """

    composite: CompositeSpectrum
    w_d: np.ndarray
    lambdas: dict


def dominant_distribution(composite: CompositeSpectrum,
                          shell_weights) -> DominantDistribution:
    """Weight assignment {W^d_AB} maximizing region size at fixed shell weights.

    Within each shell the region size is maximized by splitting the shell
    weight in proportion to subspace dimension: W^d_AB = N_AB * W_E / N_E.
    Shells with zero weight get zero subspace weights and no multiplier.
    Raises ValueError, naming the shell, where the multiplier overflows.
    """
    w_e = checked_weights(shell_weights, composite.n_shells, "shell weights")
    live = w_e > 0
    with np.errstate(over="ignore"):
        multipliers = composite.block_dims(CANONICAL)[live] / w_e[live]
    if np.any(overflow := multipliers == math.inf):
        k = np.flatnonzero(live)[np.argmax(overflow)]
        raise ValueError(f"shell at E={float(composite.shell_energies[k])!r}: "
                         f"weight {float(w_e[k])!r} overflows N_E / W_E")
    shell, dims = composite.block_of(CANONICAL), composite.block_dims(MICROCANONICAL)
    w_d = dims * w_e[shell] / composite.block_dims(CANONICAL)[shell]
    return DominantDistribution(composite=composite, w_d=w_d, lambdas=dict(
        zip(composite.shell_energies[live].tolist(), multipliers.tolist())))


def region_size_ratio(composite: CompositeSpectrum, shell_weights,
                      epsilon) -> tuple[float, float]:
    """Size of a perturbed region relative to the dominant one, two ways.

    ``epsilon`` perturbs the dominant weights subspace by subspace and must
    sum to zero within every shell (so the shell weights stay fixed) and keep
    all weights nonnegative.  Returns (gaussian, exact): the second-order
    Gaussian approximation prod exp(-N_E^2 eps^2 / (2 N_AB W_E^2)) and the
    exact ratio from the log-size difference.  They agree to third order in
    epsilon.
    """
    w_e = checked_weights(shell_weights, composite.n_shells, "shell weights")
    eps = np.asarray(epsilon, dtype=float)
    if eps.shape != (composite.n_subspaces,):
        raise ValueError(f"expected {composite.n_subspaces} perturbation entries")

    w_d = dominant_distribution(composite, w_e).w_d
    perturbed = w_d + eps
    if not np.all(perturbed >= 0):
        raise ValueError("perturbation drives a subspace weight negative or NaN")

    shell_sum = composite.shell_sums(eps)
    unbalanced = np.abs(shell_sum) > 1e-12 * np.maximum(1.0, composite.shell_sums(np.abs(eps)))
    if np.any(unbalanced):
        k = int(np.argmax(unbalanced))
        raise ValueError(f"perturbation sums to {float(shell_sum[k])!r} in the shell at "
                         f"E={composite.shell_energies[k]}; shell weights must stay fixed")
    shell = composite.block_of(CANONICAL)
    n_ab = composite.block_dims(MICROCANONICAL).astype(float)
    w, n_e = w_e[shell], composite.block_dims(CANONICAL)[shell].astype(float)
    live = w > 0.0
    if np.any(eps[~live] != 0.0):
        raise ValueError("cannot perturb a zero-weight shell")
    w, n_e, eps, perturbed, w_d, n_ab = (x[live] for x in (w, n_e, eps, perturbed, w_d, n_ab))
    log_gaussian = -np.sum(n_e ** 2 * eps ** 2 / (2.0 * n_ab * w ** 2))
    log_exact = -math.inf if np.any(perturbed == 0.0) else np.sum(
        n_ab * (np.log(perturbed) - np.log(w_d)))
    return math.exp(log_gaussian), math.exp(log_exact)


def marginal_gas_distribution(dd: DominantDistribution) -> np.ndarray:
    """Gas-level weights of the dominant distribution: W^d_A = sum_B W^d_AB."""
    return dd.composite.gas_level_sums(dd.w_d)


def fit_temperature(gas: Spectrum, marginal) -> tuple[float, float]:
    """Boltzmann temperature of a gas-level weight distribution.

    Least-squares fit of ln(W_A / N_A) = -E_A/kT + const over the levels with
    nonzero weight.  Returns (kT, residual norm); |kT| diverges as the
    per-state distribution flattens and comes out negative for an inverted
    one.  The residual tells how exponential the input actually is.
    """
    w = np.asarray(marginal, dtype=float)
    if w.shape != (gas.n_levels,):
        raise ValueError(f"expected {gas.n_levels} marginal weights")
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError(f"marginal weights must be finite and nonnegative, got {w.tolist()!r}")
    usable = np.flatnonzero(w > 0)
    if len(usable) < 2:
        raise ValueError("need at least 2 levels with nonzero weight to fit kT")
    energies = np.asarray(gas.energies, dtype=float)[usable]
    degens = np.asarray(gas.degeneracies, dtype=float)[usable]
    y = np.log(w[usable] / degens)
    design = np.column_stack([-energies, np.ones_like(energies)])
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    inverse_kt = float(beta[0])
    kt = math.inf if inverse_kt == 0.0 else 1.0 / inverse_kt
    residual = float(np.linalg.norm(y - design @ beta))
    return kt, residual
