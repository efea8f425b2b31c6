"""Randomized covariance pencils, their spectra, and the RCC/RGV contrasts,
plus exact kernel-based oracles (KCC/KGV) for small sample sizes.

Both the randomized and the kernel pencils are normalized the same way: with
C the full block matrix (regularized diagonal blocks, raw off-diagonal blocks)
and D its block diagonal, the solved object is B = D^(-1/2) C D^(-1/2). B has
identity diagonal blocks, trace equal to its size, and for two variables its
eigenvalues pair up as 1 +/- rho_i where rho_i are the canonical correlations.
The contrasts are

    rcc = -1/2 log(mu_min)        (= -1/2 log(1 - rho_max) for two variables)
    rgv = -1/2 sum_k log(mu_k)    (= -1/2 sum_i log(1 - rho_i^2) for two)

which are nonnegative and vanish exactly when no correlated direction exists.
Since det B = det C / det D, rgv needs no spectrum: it is the log-det ratio
1/2 (sum_i log det C_ii - log det C), from Cholesky factors. Every contrast
raises SingularDiagonal when the pencil is numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import OracleSizeExceeded, SampleMismatch, SingularDiagonal
from .random_features import KernelSpec, gram_matrix

# Default regularizers. The randomized pencil regularizes linearly (C + gamma I)
# while the kernel oracle squares its regularized diagonal ((K + N kappa/2 I)^2);
# the two filters agree only to first order in the regularizer, so the
# randomized contrasts converge (in m) to the kernel oracles only when the
# shared default is small. 0.002 keeps that quadratic discrepancy negligible
# at desk scale; both knobs remain configurable everywhere.
DEFAULT_GAMMA = 0.002
DEFAULT_KAPPA = 0.002
DEFAULT_M = 200
DEFAULT_SIGMA = 1.0
KERNEL_ORACLE_LIMIT = 1000

EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class CovariancePencil:
    """Centered random-feature covariance of the stacked features, plus the regularizer.

    `matrix` is the (n_s m) x (n_s m) matrix (1/N) Zbar Zbar^T of the stacked,
    row-centered features Zbar; `blocks` views it with shape (n_s, n_s, m, m),
    blocks[i, j] = (1/N) * sum_k zbar(x_i^k) zbar(x_j^k)^T.
    """

    matrix: np.ndarray
    gamma: float
    n_s: int
    m: int

    @property
    def blocks(self) -> np.ndarray:
        return self.matrix.reshape(self.n_s, self.m, self.n_s, self.m).swapaxes(1, 2)


@dataclass(frozen=True)
class PencilSpectrum:
    """Full spectrum of the normalized pencil, sorted descending."""

    eigenvalues: np.ndarray
    rho: float  # largest canonical correlation, clamped to [0, 1]

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def covariance_blocks(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> CovariancePencil:
    """Center the stacked feature matrices per row and form their covariance."""
    n_s = len(feature_matrices)
    if n_s < 2:
        raise SampleMismatch("need at least two feature matrices")
    n_samples = feature_matrices[0].shape[1]
    m = feature_matrices[0].shape[0]
    for z in feature_matrices:
        if z.shape[1] != n_samples:
            raise SampleMismatch(f"sample counts differ: {z.shape[1]} vs {n_samples}")
        if z.shape[0] != m:
            raise SampleMismatch(f"feature counts differ: {z.shape[0]} vs {m}")
    if n_samples < 2:
        raise SampleMismatch("need at least two samples")
    stacked = np.vstack(feature_matrices)
    stacked -= stacked.mean(axis=1, keepdims=True)
    return CovariancePencil(matrix=stacked @ stacked.T / n_samples, gamma=gamma, n_s=n_s, m=m)


def _normalized_spectrum(normalized_off, n_s: int, dim: int) -> PencilSpectrum:
    """Sorted spectrum of B, which has identity diagonal blocks and off-diagonal
    blocks B_ij = normalized_off(i, j) for i < j (B_ji = B_ij^T)."""
    big = np.eye(n_s * dim)
    for i in range(n_s):
        for j in range(i + 1, n_s):
            block = normalized_off(i, j)
            big[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = block
            big[j * dim:(j + 1) * dim, i * dim:(i + 1) * dim] = block.T
    eigenvalues = np.linalg.eigvalsh(big)[::-1].copy()
    rho = float(np.clip(eigenvalues[0] - 1.0, 0.0, 1.0))
    return PencilSpectrum(eigenvalues=eigenvalues, rho=rho)


def solve_pencil(pencil: CovariancePencil) -> PencilSpectrum:
    """Spectrum of the normalized pencil built from regularized covariance blocks.

    Raises
    ------
    SingularDiagonal
        If any regularized diagonal block is numerically singular, which
        signals that gamma is too small for the data.
    """
    if pencil.gamma <= 0:
        raise SingularDiagonal("solve_pencil requires gamma > 0")
    blocks = pencil.blocks
    inv_sqrts = []
    for i in range(pencil.n_s):
        w, u = np.linalg.eigh(blocks[i, i] + pencil.gamma * np.eye(pencil.m))
        if w[0] <= 1e-14 * max(w[-1], 1.0):
            raise SingularDiagonal(
                f"diagonal block {i} singular (min eig {w[0]:.3e}); increase gamma"
            )
        inv_sqrts.append((u / np.sqrt(w)) @ u.T)
    return _normalized_spectrum(lambda i, j: inv_sqrts[i] @ blocks[i, j] @ inv_sqrts[j],
                                pencil.n_s, pencil.m)


def _neg_half_log(values: np.ndarray) -> float:
    """-1/2 sum log(values); a pencil eigenvalue below EIGENVALUE_FLOOR raises."""
    if values.min() < EIGENVALUE_FLOOR:
        raise SingularDiagonal(f"pencil eigenvalue {values.min():.3e} below the floor "
                               f"{EIGENVALUE_FLOOR:.0e}; increase gamma (kappa for the "
                               "kernel oracles)")
    return float(-0.5 * np.sum(np.log(values)))


def rcc(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> float:
    """Randomized canonical correlation contrast: -1/2 log(mu_min)."""
    spectrum = solve_pencil(covariance_blocks(feature_matrices, gamma))
    return _neg_half_log(spectrum.eigenvalues[-1:])


def _log_det(matrix: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix, from its Cholesky factor."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularDiagonal("regularized covariance not positive definite; "
                               "increase gamma") from exc
    return 2.0 * float(np.sum(np.log(np.diagonal(factor))))


def rgv(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> float:
    """Randomized generalized variance contrast: -1/2 sum_k log(mu_k).

    Computed as 1/2 (sum_i log det(C_ii + gamma I) - log det(C + gamma I)),
    which equals the pencil form because det B = det(C + gamma I) / det D.

    Raises
    ------
    SingularDiagonal
        If gamma <= 0 or a regularized matrix is not numerically positive
        definite, which signals that gamma is too small for the data.
    """
    if gamma <= 0:
        raise SingularDiagonal("rgv requires gamma > 0; increase gamma")
    pencil = covariance_blocks(feature_matrices, gamma)
    m = pencil.m
    regularized = pencil.matrix.copy()
    regularized[np.diag_indices_from(regularized)] += gamma
    diagonal = sum(_log_det(regularized[i * m:(i + 1) * m, i * m:(i + 1) * m])
                   for i in range(pencil.n_s))
    return 0.5 * (diagonal - _log_det(regularized))


def _centered_grams(datasets: list[Dataset], kernel: KernelSpec) -> list[np.ndarray]:
    if len(datasets) < 2:
        raise SampleMismatch("need at least two variables")
    n_samples = datasets[0].N
    for ds in datasets:
        if ds.N != n_samples:
            raise SampleMismatch(f"sample counts differ: {ds.N} vs {n_samples}")
    if n_samples > KERNEL_ORACLE_LIMIT:
        raise OracleSizeExceeded(
            f"N={n_samples} exceeds the kernel oracle limit {KERNEL_ORACLE_LIMIT}")
    grams = []
    for ds in datasets:
        gram = gram_matrix(kernel, ds)
        centered = gram - gram.mean(axis=0, keepdims=True)
        centered -= centered.mean(axis=1, keepdims=True)
        grams.append(0.5 * (centered + centered.T))
    return grams


def kernel_pencil_spectrum(datasets: list[Dataset], kernel: KernelSpec,
                           kappa: float = DEFAULT_KAPPA) -> PencilSpectrum:
    """Spectrum of the exact regularized kernel CCA pencil.

    Off-diagonal blocks are K_i K_j on centered Gram matrices; diagonal blocks
    (K_i + (N kappa / 2) I)^2. The normalized off blocks become G_i G_j with
    G_i = (K_i + cI)^(-1) K_i, computed from one eigendecomposition per
    variable for stability (never squaring the regularized block).
    Raises OracleSizeExceeded above KERNEL_ORACLE_LIMIT samples.
    """
    grams = _centered_grams(datasets, kernel)
    n_samples = grams[0].shape[0]
    c = n_samples * kappa / 2.0
    if c <= 0:
        raise SingularDiagonal("kernel oracle requires kappa > 0")
    filters = []
    for gram in grams:
        w, u = np.linalg.eigh(gram)
        filters.append((u * (w / (w + c))) @ u.T)
    return _normalized_spectrum(lambda i, j: filters[i] @ filters[j], len(grams), n_samples)


def kcc_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA) -> float:
    """Exact kernel canonical correlation contrast: -1/2 log(mu_min)."""
    spectrum = kernel_pencil_spectrum(datasets, kernel, kappa)
    return _neg_half_log(spectrum.eigenvalues[-1:])


def kgv_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA) -> float:
    """Exact kernel generalized variance contrast: -1/2 sum_k log(mu_k)."""
    spectrum = kernel_pencil_spectrum(datasets, kernel, kappa)
    return _neg_half_log(spectrum.eigenvalues)
