"""Pure states on the composite space, reduced density matrices, weight profiles.

Amplitudes live in the flat block layout fixed by :class:`~hsmc.spectrum.CompositeSpectrum`.
Reduction to the gas always goes through the dim_gas x dim_container amplitude
matrix: rho_g = Psi Psi^dagger, so Tr rho_g = |psi|^2 = 1 for a normalized state.

Conventions: k_B = 1 and entropies use the natural logarithm, with 0 ln 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import os

import numpy as np

from .fanout import fan_out
from .spectrum import CompositeSpectrum, Spectrum

__all__ = [
    "NORMALIZATION_TOLERANCE", "WEIGHT_SUM_TOLERANCE", "BATCH_ELEMENTS", "batch_rows",
    "checked_weights", "check_normalized", "WeightProfile", "uniform_profile",
    "subspace_weights", "shell_weights", "PureState", "DensityMatrix", "gas_purity_entropy",
    "product_state", "write_amplitudes_csv", "write_state_snapshots", "read_amplitudes_csv",
]

NORMALIZATION_TOLERANCE = 1e-10
# Every set of probability weights must sum to 1 within this.
WEIGHT_SUM_TOLERANCE = 1e-12

# Hermiticity / unit-trace checks on density matrices.
DENSITY_TOLERANCE = 1e-10
# Eigenvalues are clipped to zero if slightly negative; below this they are an error.
EIGENVALUE_FLOOR = -1e-8

# Batched code works on chunks of rows holding at most this many amplitudes, so
# each complex (rows, dim) buffer, or the (rows, 2 * dim) normals behind it,
# stays within 256 KiB whatever the batch size.  Twice this grew the peak RSS
# of a dim-6120 `sample` run by 3% over drawing one row at a time.
BATCH_ELEMENTS = 2**14


def batch_rows(dim: int) -> int:
    """Rows per chunk for states of ``dim`` amplitudes (at least 1)."""
    return max(1, BATCH_ELEMENTS // dim)


def checked_weights(values, n: int, what: str) -> np.ndarray:
    """``values`` as a float array of ``n`` finite, nonnegative weights summing to 1.

    The sum must lie within ``WEIGHT_SUM_TOLERANCE`` of 1.  Raises ValueError
    naming ``what`` otherwise.
    """
    w = np.asarray(values, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"{what}: expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what}: weights must be finite, got {w.tolist()!r}")
    if np.any(w < 0):
        raise ValueError(f"{what}: weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"{what}: weights sum to {total!r}, expected 1")
    return w


def check_normalized(amplitudes) -> None:
    """Raise ValueError unless every state along the trailing axis has |psi|^2 = 1.

    The tolerance is ``NORMALIZATION_TOLERANCE``; a NaN norm fails.
    """
    norm_sq = np.atleast_1d(np.vecdot(amplitudes, amplitudes).real)
    bad = ~(np.abs(norm_sq - 1.0) <= NORMALIZATION_TOLERANCE)
    if np.any(bad):
        raise ValueError(f"state norm^2 = {float(norm_sq[bad][0])!r} deviates from 1")


def _check_density(matrices: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the (..., d, d) stack is Hermitian
    with unit trace within ``DENSITY_TOLERANCE``; NaN fails both checks."""
    defect = np.atleast_1d(np.max(np.abs(matrices - matrices.conj().swapaxes(-1, -2)),
                                  axis=(-2, -1), initial=0.0))
    bad = ~(defect <= DENSITY_TOLERANCE)
    if np.any(bad):
        raise ValueError(f"matrix is not Hermitian (max defect {float(defect[bad][0])!r})")
    trace = np.atleast_1d(np.trace(matrices, axis1=-2, axis2=-1).real)
    bad = ~(np.abs(trace - 1.0) <= DENSITY_TOLERANCE)
    if np.any(bad):
        raise ValueError(f"trace = {float(trace[bad][0])!r} deviates from 1")


def _clipped_eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of the stack, tiny negatives
    (>= ``EIGENVALUE_FLOOR``) clipped to 0; a lower one is a ValueError."""
    w = np.linalg.eigvalsh(matrices)
    if w.size:
        lowest = np.atleast_1d(w[..., 0])
        bad = lowest < EIGENVALUE_FLOOR
        if np.any(bad):
            raise ValueError(f"eigenvalue {float(lowest[bad][0])!r} is too negative for a state")
    return np.clip(w, 0.0, None)


def _purity(matrices: np.ndarray) -> np.ndarray:
    """Tr rho^2 of each matrix of the stack, without diagonalizing."""
    return np.einsum("...ij,...ji->...", matrices, matrices).real


def _entropy(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum w ln w along the trailing axis, natural log, with 0 ln 0 = 0."""
    logs = np.log(eigenvalues, out=np.zeros_like(eigenvalues), where=eigenvalues > 0.0)
    return -np.sum(eigenvalues * logs, axis=-1)


@dataclass(frozen=True)
class WeightProfile:
    """Probability weight per level of one spectrum (the constraint data W_A).

    Weights are validated by :func:`checked_weights`.
    """

    spectrum: Spectrum
    weights: tuple[float, ...]

    def __post_init__(self):
        checked_weights(self.weights, self.spectrum.n_levels,
                        f"profile over {self.spectrum.n_levels} levels")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def uniform_profile(spectrum: Spectrum) -> WeightProfile:
    """Equal weight 1/n_levels on every level of ``spectrum``."""
    n = spectrum.n_levels
    return WeightProfile(spectrum=spectrum, weights=tuple(1.0 / n for _ in range(n)))


def subspace_weights(composite: CompositeSpectrum, gas_profile: WeightProfile,
                     container_profile: WeightProfile) -> np.ndarray:
    """Product-state constraint weights W_AB = W_A * W_B, in subspace order."""
    if gas_profile.spectrum is not composite.gas and gas_profile.spectrum != composite.gas:
        raise ValueError("gas profile does not match the composite's gas spectrum")
    if (container_profile.spectrum is not composite.container
            and container_profile.spectrum != composite.container):
        raise ValueError("container profile does not match the composite's container spectrum")
    # Subspaces enumerate (A, B) lexicographically: the row-major outer product.
    return np.outer(gas_profile.as_array(), container_profile.as_array()).ravel()


def shell_weights(composite: CompositeSpectrum, gas_profile: WeightProfile,
                  container_profile: WeightProfile) -> np.ndarray:
    """Total weight per energy shell implied by a product profile."""
    return composite.shell_sums(subspace_weights(composite, gas_profile, container_profile))


class PureState:
    """Normalized pure state in the flat block layout of a composite spectrum."""

    def __init__(self, composite: CompositeSpectrum, amplitudes: np.ndarray,
                 check: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (composite.dim,):
            raise ValueError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({composite.dim},)"
            )
        if check:
            check_normalized(amplitudes)
        self.composite = composite
        self.amplitudes = amplitudes

    def to_matrix(self) -> np.ndarray:
        """Amplitudes as the dim_gas x dim_container matrix Psi with rho_g = Psi Psi^dagger."""
        c = self.composite
        return self.amplitudes[c._flat_index].reshape(c.dim_gas, c.dim_container)

    @classmethod
    def from_matrix(cls, composite: CompositeSpectrum, psi: np.ndarray,
                    check: bool = True) -> "PureState":
        psi = np.asarray(psi, dtype=complex)
        expected = (composite.dim_gas, composite.dim_container)
        if psi.shape != expected:
            raise ValueError(f"matrix has shape {psi.shape}, expected {expected}")
        amplitudes = np.empty(composite.dim, dtype=complex)
        amplitudes[composite._flat_index] = psi.ravel()
        return cls(composite, amplitudes, check=check)

    def subspace_weights(self) -> np.ndarray:
        """Probability mass |psi|^2 in each (A, B) subspace, in subspace order."""
        return self.composite.subspace_sums(np.abs(self.amplitudes) ** 2)

    def shell_weights(self) -> np.ndarray:
        """Probability mass in each total-energy shell."""
        return self.composite.shell_sums(self.subspace_weights())

    def gas_level_weights(self) -> np.ndarray:
        """Probability mass in each gas level A (marginal over the container)."""
        return self.composite.gas_level_sums(self.subspace_weights())

    def reduce_gas(self) -> "DensityMatrix":
        """Partial trace over the container: rho_g = Psi Psi^dagger."""
        psi = self.to_matrix()
        return DensityMatrix(psi @ psi.conj().T)

    def purity(self) -> float:
        """Local purity of the gas, Tr (rho_g)^2, from :func:`gas_purity_entropy`."""
        return float(gas_purity_entropy(self.composite, self.amplitudes[None])[0][0])

    def entropy(self) -> float:
        """Local von Neumann entropy of the gas (natural log), from :func:`gas_purity_entropy`."""
        return float(gas_purity_entropy(self.composite, self.amplitudes[None])[1][0])


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with spectral helpers."""

    def __init__(self, matrix: np.ndarray, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {matrix.shape}")
        if check:
            _check_density(matrix)
        self.matrix = matrix
        self._eigenvalues: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues; tiny negatives (>= -1e-8) are clipped to 0."""
        if self._eigenvalues is None:
            self._eigenvalues = _clipped_eigenvalues(self.matrix)
        return self._eigenvalues

    def purity(self) -> float:
        """Tr rho^2, computed directly from the matrix (no diagonalization)."""
        return float(_purity(self.matrix))

    def entropy(self) -> float:
        """Von Neumann entropy -sum w ln w in natural units, with 0 ln 0 = 0."""
        return float(_entropy(self.eigenvalues()))


def gas_purity_entropy(composite: CompositeSpectrum,
                       amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Purity Tr rho_g^2 and entropy of the reduced gas state of every row.

    ``amplitudes`` is an (n, dim) stack of flat-layout states.  Rows are
    reduced ``batch_rows(dim)`` at a time: each chunk is gathered into
    (rows, dim_gas, dim_container) matrices Psi, and rho_g = Psi Psi^dagger,
    the purities and the eigenvalues come from one stacked call each.  A row's
    values depend on that row alone, so splitting a batch anywhere gives the
    same numbers.  Every rho_g passes the checks of :class:`DensityMatrix`
    (Hermiticity, unit trace, eigenvalue floor) and fails with the same
    ValueError.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.ndim != 2 or amplitudes.shape[1] != composite.dim:
        raise ValueError(f"amplitudes have shape {amplitudes.shape}, expected (n, {composite.dim})")
    n = len(amplitudes)
    purity = np.empty(n)
    entropy = np.empty(n)
    rows = batch_rows(composite.dim)
    for start in range(0, n, rows):
        chunk = amplitudes[start:start + rows]
        m = len(chunk)
        matrices = np.take(chunk, composite._flat_index, axis=1).reshape(
            m, composite.dim_gas, composite.dim_container)
        rho = matrices @ matrices.conj().swapaxes(1, 2)
        _check_density(rho)
        purity[start:start + m] = _purity(rho)
        entropy[start:start + m] = _entropy(_clipped_eigenvalues(rho))
    return purity, entropy


def product_state(composite: CompositeSpectrum, gas_profile: WeightProfile,
                  container_profile: WeightProfile) -> PureState:
    """Real product state |u> x |v> whose level weights match the two profiles.

    Each level's amplitude mass is spread evenly over its degenerate states:
    u_{A,a} = sqrt(W_A / N_A) and likewise for the container, so the subspace
    weights come out exactly W_A * W_B.
    """
    u = np.repeat(
        np.sqrt(gas_profile.as_array() / np.asarray(composite.gas.degeneracies)),
        composite.gas.degeneracies,
    )
    v = np.repeat(
        np.sqrt(container_profile.as_array() / np.asarray(composite.container.degeneracies)),
        composite.container.degeneracies,
    )
    return PureState.from_matrix(composite, np.outer(u, v))


def write_amplitudes_csv(state: PureState, path) -> None:
    """Dump a state's amplitudes as CSV with the composite layout in the header.

    Rows are (flat index, real part, imaginary part) in the block layout;
    header comment lines record both level lists so a reader can verify it is
    loading the state onto the right composite.
    """
    c = state.composite
    gas_levels = list(zip(c.gas.energies, c.gas.degeneracies))
    container_levels = list(zip(c.container.energies, c.container.degeneracies))
    lines = [
        "# hsmc state v1",
        f"# gas_levels={gas_levels!r}",
        f"# container_levels={container_levels!r}",
        f"# shell_tolerance={c.shell_tolerance!r}",
        "index,re,im",
    ]
    re, im = state.amplitudes.real.tolist(), state.amplitudes.imag.tolist()
    lines += [f"{i},{r!r},{m!r}" for i, (r, m) in enumerate(zip(re, im))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_state_snapshots(composite: CompositeSpectrum, amplitudes, directory) -> None:
    """Write row k of ``amplitudes`` to ``directory/state_{k:05d}.csv`` by
    :func:`write_amplitudes_csv`, over m writers: one per CPU, at most one per row.

    Writer w writes rows w, w + m, w + 2m, ...; the caller is writer 0 and
    forked children are the others (see :func:`~hsmc.fanout.fan_out`).  The
    bytes do not depend on m.  Every child is reaped, and a failed one's
    exception reaches the caller with its class.
    """
    os.makedirs(directory, exist_ok=True)
    n = len(amplitudes)

    def write_rows(w: int, m: int) -> None:
        for k in range(w, n, m):
            write_amplitudes_csv(PureState(composite, amplitudes[k], check=False),
                                 os.path.join(directory, f"state_{k:05d}.csv"))

    fan_out(write_rows, n, "state writer", needs_blas=False)


def read_amplitudes_csv(path, composite: CompositeSpectrum) -> PureState:
    """Load a state written by :func:`write_amplitudes_csv` onto ``composite``.

    Refuses to load if the recorded layout does not match the composite, or
    unless the data rows hold the indices 0..dim-1 once each, in order.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    header = {}
    data_lines = []
    for number, line in enumerate(lines, 1):
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line and not line.startswith("#") and not line.startswith("index"):
            data_lines.append((number, line))
    expected_gas = repr(list(zip(composite.gas.energies, composite.gas.degeneracies)))
    expected_container = repr(
        list(zip(composite.container.energies, composite.container.degeneracies)))
    if header.get("gas_levels") != expected_gas:
        raise ValueError("state file was written for a different gas spectrum")
    if header.get("container_levels") != expected_container:
        raise ValueError("state file was written for a different container spectrum")
    if len(data_lines) != composite.dim:
        raise ValueError(f"{path}: {len(data_lines)} data rows, expected {composite.dim}")
    amplitudes = np.zeros(composite.dim, dtype=complex)
    for k, (number, line) in enumerate(data_lines):
        idx, re, im = line.split(",")
        if int(idx) != k:
            raise ValueError(f"{path}, line {number}: index {idx}, expected {k}")
        amplitudes[k] = float(re) + 1j * float(im)
    return PureState(composite, amplitudes)
