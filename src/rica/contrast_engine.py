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
1/2 (sum_i log det C_ii - log det C), from Cholesky factors. rcc takes mu_min
from the Cholesky-normalised pencil L^-1 C L^-T, with L the Cholesky factor
of D; for two variables that is 1 - sigma_max(L_1^-1 C_12 L_2^-T), one m x m
SVD. `solve_pencil` keeps the symmetric normalisation as the tested reference.

rcc and rgv take a `CovariancePencil` and return a `ContrastEvaluation`: the
value, plus the M of its variation from the same factorisation, in the
pencil's own coordinates. Both contrasts vary as d value = -1/2 tr(M dC) for
a symmetric M (Bach & Jordan 2002, Kernel ICA): M = C^-1 - D^-1 for rgv, and
(x x^T - mu blockdiag(x_i x_i^T)) / mu for rcc, with x the generalised
eigenvector of mu = mu_min (C x = mu D x) scaled to x^T D x = 1. With
dC = (dZbar Zbar^T + Zbar dZbar^T) / N for the centred stack Zbar of the
features, the gradient with respect to the stacked features is -(1/N) M Zbar.
Every contrast raises SingularDiagonal when the pencil is numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

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
TRIANGULAR_BLOCK = 64  # below this size `_lower_inverse` inverts directly


@dataclass(frozen=True)
class CovariancePencil:
    """Centered random-feature covariance of the stacked features, plus the regularizer.

    `matrix` is the (n_s m) x (n_s m) matrix (1/N) Zbar Zbar^T of the stacked,
    row-centered features Zbar; `blocks` views it with shape (n_s, n_s, m, m),
    blocks[i, j] = (1/N) * sum_k zbar(x_i^k) zbar(x_j^k)^T. Zbar may be the
    features' coordinates in any orthonormal basis of their span, which
    changes no contrast. A pencil exists only for 0 < gamma < inf, so no
    contrast checks gamma again: any other gamma, NaN included, raises
    SingularDiagonal.
    """

    matrix: np.ndarray
    gamma: float
    n_s: int

    def __post_init__(self):
        if not self.gamma > 0:
            raise SingularDiagonal(f"the pencil needs gamma > 0, got {self.gamma}; increase gamma")
        if self.gamma == np.inf:
            raise SingularDiagonal("the pencil needs a finite gamma, got inf")

    @property
    def m(self) -> int:
        return len(self.matrix) // self.n_s

    @property
    def blocks(self) -> np.ndarray:
        return self.matrix.reshape(self.n_s, self.m, self.n_s, self.m).swapaxes(1, 2)


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
    return CovariancePencil(matrix=stacked @ stacked.T / n_samples, gamma=gamma, n_s=n_s)


@dataclass(frozen=True)
class ContrastEvaluation:
    """One rcc or rgv value, and the M of its variation d value = -1/2 tr(M dC).

    `weights()` forms M, an (n_s m, n_s m) array, from the contrast's
    factorisation only when called. For the centred stack Zbar of the
    features, -(1/N) M Zbar is the gradient of the value with respect to them.
    """

    value: float
    weights: Callable[[], np.ndarray]


def _normalized_matrix(normalized_off, n_s: int, dim: int) -> np.ndarray:
    """B with identity diagonal blocks and off-diagonal blocks B_ij =
    normalized_off(i, j) for i < j (B_ji = B_ij^T)."""
    big = np.eye(n_s * dim)
    for i in range(n_s):
        for j in range(i + 1, n_s):
            block = normalized_off(i, j)
            big[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = block
            big[j * dim:(j + 1) * dim, i * dim:(i + 1) * dim] = block.T
    return big


def _normalized_spectrum(normalized_off, n_s: int, dim: int) -> np.ndarray:
    """Eigenvalues of `_normalized_matrix(normalized_off, n_s, dim)`, descending."""
    return np.linalg.eigvalsh(_normalized_matrix(normalized_off, n_s, dim))[::-1]


def solve_pencil(pencil: CovariancePencil) -> np.ndarray:
    """Eigenvalues, descending, of the normalized pencil built from regularized covariance blocks.

    Raises
    ------
    SingularDiagonal
        If any regularized diagonal block is numerically singular, which
        signals that gamma is too small for the data.
    """
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


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a regularized covariance; failure means gamma is too small."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularDiagonal("regularized covariance not positive definite; "
                               "increase gamma") from exc


def _log_det(factor: np.ndarray) -> float:
    """log det of the matrix whose Cholesky factor is `factor`."""
    return 2.0 * float(np.sum(np.log(np.diagonal(factor))))


def _lower_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2 x 2 block recursion.

    numpy has no triangular solve, and its general inverse of the factor costs
    about as much as that of the full matrix.
    """
    size = factor.shape[0]
    if size <= TRIANGULAR_BLOCK:
        return np.tril(np.linalg.inv(factor))
    half = size // 2
    top = _lower_inverse(factor[:half, :half])
    bottom = _lower_inverse(factor[half:, half:])
    inverse = np.zeros_like(factor)
    inverse[:half, :half] = top
    inverse[half:, half:] = bottom
    inverse[half:, :half] = -bottom @ (factor[half:, :half] @ top)
    return inverse


def _rgv_weights(factor: np.ndarray, block_factors: list[np.ndarray]) -> np.ndarray:
    """M = (C + gamma I)^-1 - blockdiag((C_ii + gamma I)^-1).

    The leading block of the Cholesky factor L of C + gamma I is that of
    C_11 + gamma I, so the leading block of L^-1 gives its inverse, and only
    the other n_s - 1 block factors are inverted.
    """
    m = block_factors[0].shape[0]
    inverse = _lower_inverse(factor)
    weights = inverse.T @ inverse
    weights[:m, :m] -= inverse[:m, :m].T @ inverse[:m, :m]
    for i, block in enumerate(block_factors[1:], 1):
        block_inverse = _lower_inverse(block)
        weights[i * m:(i + 1) * m, i * m:(i + 1) * m] -= block_inverse.T @ block_inverse
    return weights


def _rcc_weights(normalized: np.ndarray, inverses: list[np.ndarray], mu: float) -> np.ndarray:
    """M = (x x^T - mu blockdiag(x_i x_i^T)) / mu, x the generalised
    eigenvector of mu = mu_min.

    x = L^-T v for the unit eigenvector v of B = L^-1 (C + gamma I) L^-T, so
    x^T D x = 1. For two variables v = (p, -q) / sqrt(2), with (p, q) the top
    singular pair of L_1^-1 C_12 L_2^-T. M has rank n_s at most.
    """
    n_s, m = len(inverses), inverses[0].shape[0]
    if n_s == 2:
        # `rcc` took this SVD without vectors. Taking them there would save
        # nothing: at the pencil's r about 26 an SVD with vectors costs about
        # 2.2 times one without (0.065 against 0.029 ms, one BLAS thread), and
        # a fit evaluates RCC about twice as often as it asks for the weights
        # (6.0 evaluations and 3.3 slopes calls per fit on the c,b pair,
        # N = 1000), so it would add about 0.22 ms per fit to save 0.22 ms.
        left, _, right_t = np.linalg.svd(normalized)
        vector = np.stack([left[:, 0], -right_t[0]]) / np.sqrt(2.0)
    else:
        vector = np.linalg.eigh(normalized)[1][:, 0].reshape(n_s, m)
    x = np.concatenate([inverse.T @ v for inverse, v in zip(inverses, vector)])
    weights = np.outer(x, x / mu)
    for i in range(n_s):
        block = slice(i * m, (i + 1) * m)
        weights[block, block] -= np.outer(x[block], x[block])
    return weights


def rcc(pencil: CovariancePencil) -> ContrastEvaluation:
    """Randomized canonical correlation contrast: -1/2 log(mu_min).

    mu_min is the smallest eigenvalue of L^-1 (C + gamma I) L^-T, where L is
    the Cholesky factor of D = blockdiag(C_ii + gamma I); for two variables it
    is 1 - sigma_max(L_1^-1 C_12 L_2^-T).

    Raises
    ------
    SingularDiagonal
        If a regularized diagonal block is not numerically positive
        definite, or mu_min is below EIGENVALUE_FLOOR.
    """
    blocks, regularizer = pencil.blocks, pencil.gamma * np.eye(pencil.m)
    inverses = [_lower_inverse(_cholesky(blocks[i, i] + regularizer)) for i in range(pencil.n_s)]
    if pencil.n_s == 2:
        normalized = inverses[0] @ blocks[0, 1] @ inverses[1].T
        mu = 1.0 - np.linalg.svd(normalized, compute_uv=False)[0]
    else:
        normalized = _normalized_matrix(lambda i, j: inverses[i] @ blocks[i, j] @ inverses[j].T,
                                        pencil.n_s, pencil.m)
        mu = np.linalg.eigvalsh(normalized)[0]
    value = _neg_half_log(np.array([mu]))
    return ContrastEvaluation(value, partial(_rcc_weights, normalized, inverses, float(mu)))


def rgv(pencil: CovariancePencil) -> ContrastEvaluation:
    """Randomized generalized variance contrast: -1/2 sum_k log(mu_k).

    Computed as 1/2 (sum_i log det(C_ii + gamma I) - log det(C + gamma I)),
    which equals the pencil form because det B = det(C + gamma I) / det D.
    The Cholesky factor of C + gamma I leads with that of C_11 + gamma I, so
    an evaluation takes n_s factorisations. One that fails raises
    SingularDiagonal: gamma is too small for the data. So does a squared
    pivot diag(L) / diag(L_D) below EIGENVALUE_FLOOR, L and L_D the factors
    of C + gamma I and D: L_D^-1 L factors the normalised pencil, and no
    squared pivot is below its smallest eigenvalue.
    """
    m, matrix = pencil.m, pencil.matrix + pencil.gamma * np.eye(len(pencil.matrix))
    factor = _cholesky(matrix)
    block_factors = [factor[:m, :m]] + [_cholesky(matrix[i * m:(i + 1) * m, i * m:(i + 1) * m])
                                        for i in range(1, pencil.n_s)]
    pivots = np.diagonal(factor)[m:] / np.concatenate([np.diagonal(b) for b in block_factors[1:]])
    if pivots.min() ** 2 < EIGENVALUE_FLOOR:
        raise SingularDiagonal(f"squared pencil pivot {pivots.min() ** 2:.3e} below the floor "
                               f"{EIGENVALUE_FLOOR:.0e}; increase gamma")
    value = 0.5 * (sum(_log_det(block) for block in block_factors) - _log_det(factor))
    return ContrastEvaluation(value, partial(_rgv_weights, factor, block_factors))


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
                           kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Eigenvalues, descending, of the exact regularized kernel CCA pencil.

    Off-diagonal blocks are K_i K_j on centered Gram matrices; diagonal blocks
    (K_i + (N kappa / 2) I)^2. The normalized off blocks become G_i G_j with
    G_i = (K_i + cI)^(-1) K_i, computed from one eigendecomposition per
    variable for stability (never squaring the regularized block).
    Raises OracleSizeExceeded above KERNEL_ORACLE_LIMIT samples, and
    SingularDiagonal unless 0 < N kappa / 2 < inf.
    """
    grams = _centered_grams(datasets, kernel)
    n_samples = grams[0].shape[0]
    c = n_samples * kappa / 2.0
    if not 0 < c < np.inf:
        raise SingularDiagonal(f"kernel oracle requires 0 < N kappa / 2 < inf, got {c}")
    filters = []
    for gram in grams:
        w, u = np.linalg.eigh(gram)
        filters.append((u * (w / (w + c))) @ u.T)
    return _normalized_spectrum(lambda i, j: filters[i] @ filters[j], len(grams), n_samples)


def kcc_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA) -> float:
    """Exact kernel canonical correlation contrast: -1/2 log(mu_min)."""
    return _neg_half_log(kernel_pencil_spectrum(datasets, kernel, kappa)[-1:])


def kgv_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA) -> float:
    """Exact kernel generalized variance contrast: -1/2 sum_k log(mu_k)."""
    return _neg_half_log(kernel_pencil_spectrum(datasets, kernel, kappa))
