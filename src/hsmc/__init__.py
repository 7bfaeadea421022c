"""Statistics of constrained bipartite pure states.

Closed-form predictions, uniform Monte Carlo sampling, and exact Schrodinger
dynamics for the local purity and entropy of a gas subsystem entangled with a
container, under microcanonical (fixed subspace weights) or canonical (fixed
total-energy shell weights) constraints.
"""

from .analytics import (DominantDistribution, MomentQuery,
                        dominant_distribution, expected_purity_approx,
                        expected_purity_exact, fit_temperature,
                        hypersphere_moment, hypersphere_moment_mc,
                        lubkin_average, marginal_gas_distribution,
                        max_entropy_micro, min_purity_state, page_entropy, region_log_size,
                        region_mean_purity, region_size_ratio)
from .dynamics import (Hamiltonian, NumericalValidationError, Trajectory,
                       build_canonical_hamiltonian, build_microcanonical_hamiltonian,
                       effective_velocity, evolve, max_drift, path_average,
                       spectral_decomposition, time_average)
from .sampling import (CANONICAL, MICROCANONICAL, ConstraintProfile,
                       McEstimate, canonical_profile, gas_state_chunks, mc_average,
                       microcanonical_profile, product_constraint,
                       sample_canonical, sample_chunks, sample_gas_states,
                       sample_microcanonical, substream)
from .spectrum import CompositeSpectrum, Spectrum, build_spectrum, compose
from .state import (DensityMatrix, PureState, gas_purity_entropy, product_state,
                    purity_entropy, read_amplitudes_csv, reduce_gas_states, shell_weights,
                    subspace_weights, write_amplitudes_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Spectrum", "CompositeSpectrum",
    "build_spectrum", "compose",
    "subspace_weights", "shell_weights",
    "PureState", "DensityMatrix", "gas_purity_entropy", "reduce_gas_states", "purity_entropy",
    "product_state",
    "write_amplitudes_csv", "read_amplitudes_csv",
    "MICROCANONICAL", "CANONICAL", "ConstraintProfile",
    "microcanonical_profile", "canonical_profile", "product_constraint",
    "McEstimate", "substream", "sample_microcanonical", "sample_canonical",
    "sample_chunks", "gas_state_chunks", "sample_gas_states", "mc_average",
    "MomentQuery", "DominantDistribution",
    "min_purity_state", "max_entropy_micro",
    "region_mean_purity", "expected_purity_exact", "expected_purity_approx", "lubkin_average",
    "page_entropy",
    "hypersphere_moment", "hypersphere_moment_mc",
    "region_log_size", "dominant_distribution", "region_size_ratio",
    "marginal_gas_distribution", "fit_temperature",
    "Hamiltonian", "Trajectory", "NumericalValidationError",
    "build_microcanonical_hamiltonian", "build_canonical_hamiltonian", "evolve",
    "spectral_decomposition", "effective_velocity", "time_average", "path_average", "max_drift",
]
