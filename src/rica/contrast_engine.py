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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import OracleSizeExceeded, SampleMismatch, SingularDiagonal
from .random_features import KernelSpec, gram_matrix

logger = logging.getLogger(__name__)

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

EIGENVALUE_CLAMP = 1e-12

# Running totals of eigenvalues clamped at the floor before a logarithm,
# keyed by contrast name; surfaced alongside the log warnings.
CLAMP_EVENTS: dict[str, int] = {}


def clamp_event_count(what: str | None = None) -> int:
    if what is not None:
        return CLAMP_EVENTS.get(what, 0)
    return sum(CLAMP_EVENTS.values())


@dataclass(frozen=True)
class CovariancePencil:
    """Centered random-feature covariance blocks C_ij plus the regularizer.

    `blocks` has shape (n_s, n_s, m, m) with blocks[i, j] = (1/N) * sum_k
    zbar(x_i^k) zbar(x_j^k)^T on row-centered features zbar.
    """

    blocks: np.ndarray
    gamma: float
    n_s: int
    m: int


@dataclass(frozen=True)
class PencilSpectrum:
    """Full spectrum of the normalized pencil, sorted descending."""

    eigenvalues: np.ndarray
    rho: float  # largest canonical correlation, clamped to [0, 1]
    n_s: int
    block_dim: int

    @property
    def size(self) -> int:
        return self.n_s * self.block_dim


def covariance_blocks(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> CovariancePencil:
    """Center each feature matrix per row and accumulate all covariance blocks."""
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
    centered = [z - z.mean(axis=1, keepdims=True) for z in feature_matrices]
    blocks = np.empty((n_s, n_s, m, m))
    for i in range(n_s):
        for j in range(i, n_s):
            block = centered[i] @ centered[j].T / n_samples
            blocks[i, j] = block
            if i != j:
                blocks[j, i] = block.T
            else:
                blocks[i, i] = 0.5 * (block + block.T)
    return CovariancePencil(blocks=blocks, gamma=gamma, n_s=n_s, m=m)


def _normalized_spectrum(diag_inv_sqrt: list[np.ndarray], off_blocks, n_s: int,
                         dim: int) -> PencilSpectrum:
    """Assemble B = D^(-1/2) C D^(-1/2) and return its sorted spectrum.

    diag_inv_sqrt[i] is the symmetric inverse square root of the i-th diagonal
    block of C; off_blocks(i, j) returns the raw (i, j) off-diagonal block.
    """
    big = np.zeros((n_s * dim, n_s * dim))
    for i in range(n_s):
        big[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = np.eye(dim)
        for j in range(i + 1, n_s):
            block = diag_inv_sqrt[i] @ off_blocks(i, j) @ diag_inv_sqrt[j]
            big[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = block
            big[j * dim:(j + 1) * dim, i * dim:(i + 1) * dim] = block.T
    eigenvalues = np.linalg.eigvalsh(big)[::-1].copy()
    rho = float(np.clip(eigenvalues[0] - 1.0, 0.0, 1.0))
    return PencilSpectrum(eigenvalues=eigenvalues, rho=rho, n_s=n_s, block_dim=dim)


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
    inv_sqrts = []
    for i in range(pencil.n_s):
        w, u = np.linalg.eigh(pencil.blocks[i, i] + pencil.gamma * np.eye(pencil.m))
        if w[0] <= 1e-14 * max(w[-1], 1.0):
            raise SingularDiagonal(
                f"diagonal block {i} singular (min eig {w[0]:.3e}); increase gamma"
            )
        inv_sqrts.append((u / np.sqrt(w)) @ u.T)
    return _normalized_spectrum(inv_sqrts, lambda i, j: pencil.blocks[i, j],
                                pencil.n_s, pencil.m)


def _neg_half_log(values: np.ndarray, what: str) -> float:
    clamped = int(np.sum(values < EIGENVALUE_CLAMP))
    if clamped:
        CLAMP_EVENTS[what] = CLAMP_EVENTS.get(what, 0) + clamped
        logger.warning("%s: clamped %d eigenvalue(s) at %.0e before log", what, clamped,
                       EIGENVALUE_CLAMP)
    return float(-0.5 * np.sum(np.log(np.maximum(values, EIGENVALUE_CLAMP))))


def rcc(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> float:
    """Randomized canonical correlation contrast: -1/2 log(mu_min)."""
    spectrum = solve_pencil(covariance_blocks(feature_matrices, gamma))
    return _neg_half_log(spectrum.eigenvalues[-1:], "rcc")


def rgv(feature_matrices: list[np.ndarray], gamma: float = DEFAULT_GAMMA) -> float:
    """Randomized generalized variance contrast: -1/2 sum_k log(mu_k)."""
    spectrum = solve_pencil(covariance_blocks(feature_matrices, gamma))
    return _neg_half_log(spectrum.eigenvalues, "rgv")


def _centered_grams(datasets: list[Dataset], kernel: KernelSpec, oracle_limit: int) -> list[np.ndarray]:
    if len(datasets) < 2:
        raise SampleMismatch("need at least two variables")
    n_samples = datasets[0].N
    for ds in datasets:
        if ds.N != n_samples:
            raise SampleMismatch(f"sample counts differ: {ds.N} vs {n_samples}")
    if n_samples > oracle_limit:
        raise OracleSizeExceeded(f"N={n_samples} exceeds the kernel oracle limit {oracle_limit}")
    grams = []
    for ds in datasets:
        gram = gram_matrix(kernel, ds, oracle_limit=max(oracle_limit, ds.N))
        centered = gram - gram.mean(axis=0, keepdims=True)
        centered -= centered.mean(axis=1, keepdims=True)
        grams.append(0.5 * (centered + centered.T))
    return grams


def kernel_pencil_spectrum(datasets: list[Dataset], kernel: KernelSpec,
                           kappa: float = DEFAULT_KAPPA,
                           oracle_limit: int = KERNEL_ORACLE_LIMIT) -> PencilSpectrum:
    """Spectrum of the exact regularized kernel CCA pencil.

    Off-diagonal blocks are K_i K_j on centered Gram matrices; diagonal blocks
    (K_i + (N kappa / 2) I)^2. The normalized off blocks become G_i G_j with
    G_i = (K_i + cI)^(-1) K_i, computed from one eigendecomposition per
    variable for stability (never squaring the regularized block).
    """
    grams = _centered_grams(datasets, kernel, oracle_limit)
    n_samples = grams[0].shape[0]
    c = n_samples * kappa / 2.0
    if c <= 0:
        raise SingularDiagonal("kernel oracle requires kappa > 0")
    filters = []
    for gram in grams:
        w, u = np.linalg.eigh(gram)
        filters.append((u * (w / (w + c))) @ u.T)
    return _normalized_spectrum([np.eye(n_samples)] * len(grams),
                                lambda i, j: filters[i] @ filters[j],
                                len(grams), n_samples)


def kcc_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA,
               oracle_limit: int = KERNEL_ORACLE_LIMIT) -> float:
    """Exact kernel canonical correlation contrast: -1/2 log(mu_min)."""
    spectrum = kernel_pencil_spectrum(datasets, kernel, kappa, oracle_limit)
    return _neg_half_log(spectrum.eigenvalues[-1:], "kcc_oracle")


def kgv_oracle(datasets: list[Dataset], kernel: KernelSpec, kappa: float = DEFAULT_KAPPA,
               oracle_limit: int = KERNEL_ORACLE_LIMIT) -> float:
    """Exact kernel generalized variance contrast: -1/2 sum_k log(mu_k)."""
    spectrum = kernel_pencil_spectrum(datasets, kernel, kappa, oracle_limit)
    return _neg_half_log(spectrum.eigenvalues, "kgv_oracle")
