"""Pure states on the composite space, reduced density matrices, product weights.

Amplitudes live in the flat block layout fixed by :class:`~hsmc.spectrum.CompositeSpectrum`.
Reduction to the gas always goes through the dim_gas x dim_container amplitude
matrix: rho_g = Psi Psi^dagger, so Tr rho_g = |psi|^2 = 1 for a normalized state.

Conventions: k_B = 1 and entropies use the natural logarithm, with 0 ln 0 = 0.
"""

from __future__ import annotations

import functools

import numpy as np

from .fanout import one_blas_thread
from .spectrum import CompositeSpectrum

__all__ = [
    "NORMALIZATION_TOLERANCE", "WEIGHT_SUM_TOLERANCE", "BATCH_ELEMENTS", "batch_rows",
    "checked_weights", "check_normalized", "subspace_weights", "shell_weights", "PureState",
    "DensityMatrix", "reduce_gas_states", "purity_entropy", "gas_purity_entropy",
    "product_state", "write_amplitudes_csv", "read_amplitudes_csv",
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


def _level_weights(composite: CompositeSpectrum, gas_weights,
                   container_weights) -> tuple[np.ndarray, np.ndarray]:
    """The level weights W_A and W_B of a product state, each checked by
    :func:`checked_weights` against the levels of its spectrum."""
    return (checked_weights(gas_weights, composite.gas.n_levels, "gas weights"),
            checked_weights(container_weights, composite.container.n_levels, "container weights"))


def subspace_weights(composite: CompositeSpectrum, gas_weights, container_weights) -> np.ndarray:
    """Product-state constraint weights W_AB = W_A * W_B, in subspace order."""
    # Subspaces enumerate (A, B) lexicographically: the row-major outer product.
    return np.outer(*_level_weights(composite, gas_weights, container_weights)).ravel()


def shell_weights(composite: CompositeSpectrum, gas_weights, container_weights) -> np.ndarray:
    """Total weight per energy shell implied by product level weights."""
    return composite.shell_sums(subspace_weights(composite, gas_weights, container_weights))


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


@one_blas_thread()
def reduce_gas_states(composite: CompositeSpectrum, amplitudes: np.ndarray) -> np.ndarray:
    """The (rows, dim_gas, dim_gas) stack rho_g = Psi Psi^dagger of a (rows, dim) stack of
    flat-layout states, each gathered into its dim_gas x dim_container matrix Psi.  Each
    product is one gemm on one OpenBLAS thread, so its bits do not follow ``rows``."""
    matrices = np.take(amplitudes, composite._flat_index, axis=1).reshape(
        len(amplitudes), composite.dim_gas, composite.dim_container)
    return matrices @ matrices.conj().swapaxes(1, 2)


@one_blas_thread()
def purity_entropy(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Purity Tr rho^2 and entropy of every gas state of a (rows, d, d) stack.

    The purities and the eigenvalues come from one stacked call each, so a
    matrix's values depend on that matrix alone.  Every matrix passes the checks
    of :class:`DensityMatrix` (Hermiticity, unit trace, eigenvalue floor) and
    fails with the same ValueError.  It runs on one OpenBLAS thread
    (:func:`~hsmc.fanout.one_blas_thread`).
    """
    _check_density(rho)
    return _purity(rho), _entropy(_clipped_eigenvalues(rho))


@one_blas_thread()
def gas_purity_entropy(composite: CompositeSpectrum,
                       amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Purity Tr rho_g^2 and entropy of the reduced gas state of every row.

    ``amplitudes`` is an (n, dim) stack of flat-layout states.  Rows are
    reduced ``batch_rows(dim)`` at a time (:func:`reduce_gas_states`) and
    measured by :func:`purity_entropy`, so splitting a batch anywhere gives
    the same numbers.  It runs on one OpenBLAS thread.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.ndim != 2 or amplitudes.shape[1] != composite.dim:
        raise ValueError(f"amplitudes have shape {amplitudes.shape}, expected (n, {composite.dim})")
    n = len(amplitudes)
    purity = np.empty(n)
    entropy = np.empty(n)
    rows = batch_rows(composite.dim)
    for start in range(0, n, rows):
        chunk = reduce_gas_states(composite, amplitudes[start:start + rows])
        purity[start:start + len(chunk)], entropy[start:start + len(chunk)] = purity_entropy(chunk)
    return purity, entropy


def product_state(composite: CompositeSpectrum, gas_weights, container_weights) -> PureState:
    """Real product state |u> x |v> whose level weights are W_A and W_B.

    Each level's amplitude mass is spread evenly over its degenerate states:
    u_{A,a} = sqrt(W_A / N_A) and likewise for the container, so the subspace
    weights come out exactly W_A * W_B.
    """
    w_a, w_b = _level_weights(composite, gas_weights, container_weights)
    gas, container = composite.gas, composite.container
    u = np.repeat(np.sqrt(w_a / np.asarray(gas.degeneracies)), gas.degeneracies)
    v = np.repeat(np.sqrt(w_b / np.asarray(container.degeneracies)), container.degeneracies)
    return PureState.from_matrix(composite, np.outer(u, v))


@functools.lru_cache(maxsize=1)  # every snapshot of a dump has one key, so it is built once
def _csv_template(start: int, rows: int, width: int, indexed: bool) -> str:
    line = ",%r" * width + "\n"  # a row after its index
    return line.join(map(str, range(start, start + rows))) + line if indexed else line[1:] * rows


def _write_csv(path, header: list[str], columns, indexed: bool = True) -> None:
    """Write the ``header`` lines, then row i of the equal-length 1-D or 2-D float
    ``columns``: i if ``indexed``, then their values at i, each with ``repr`` (``%r``).
    Rows are formatted ``batch_rows(width)`` at a time, so the text held does not grow."""
    width = sum(np.size(c[0]) for c in columns)
    rows = batch_rows(width)
    with open(path, "w") as fh:
        fh.write("".join(f"{h}\n" for h in header))
        for a in range(0, len(columns[0]), rows):
            values = np.column_stack([c[a:a + rows] for c in columns])
            template = _csv_template(a, len(values), width, indexed)
            fh.write(template % tuple(values.ravel().tolist()))


def write_amplitudes_csv(state: PureState, path) -> None:
    """Dump a state's amplitudes as CSV with the composite layout in the header.

    Rows are (flat index, real part, imaginary part) in the block layout;
    header comment lines record both level lists so a reader can verify it is
    loading the state onto the right composite.
    """
    c = state.composite
    _write_csv(path, [
        "# hsmc state v1",
        f"# gas_levels={list(zip(c.gas.energies, c.gas.degeneracies))!r}",
        f"# container_levels={list(zip(c.container.energies, c.container.degeneracies))!r}",
        f"# shell_tolerance={c.shell_tolerance!r}",
        "index,re,im",
    ], [state.amplitudes.real, state.amplitudes.imag])


def read_amplitudes_csv(path, composite: CompositeSpectrum) -> PureState:
    """Load a state written by :func:`write_amplitudes_csv` onto ``composite``.

    Refuses a file whose first line is not ``# hsmc state v1``, a recorded layout
    that does not match the composite, and data rows other than the indices 0..dim-1
    once each, in order, each with two numbers; a bad row is named by its line.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if lines[:1] != ["# hsmc state v1"]:
        raise ValueError(f"{path}, line 1: {(lines or [''])[0]!r} is not '# hsmc state v1'")
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
        try:
            idx, re, im = line.split(",")
            index, amplitudes[k] = int(idx), complex(float(re), float(im))
        except ValueError:
            raise ValueError(f"{path}, line {number}: {line!r} is not index,re,im") from None
        if index != k:
            raise ValueError(f"{path}, line {number}: index {idx}, expected {k}")
    return PureState(composite, amplitudes)
