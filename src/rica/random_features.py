"""Random Fourier feature maps, the exact Gram-matrix oracle, and the
expected operator-norm error bound for the approximation.

Feature convention: z(x) = sqrt(2/m) * [cos(w_1^T x + b_1), ..., cos(w_m^T x + b_m)]
with frequencies w_i drawn from the kernel's spectral density and phases b_i
uniform on [0, 2*pi), which makes E<z(x), z(y)> = k(x, y) and E<z(x), z(x)> = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import DimensionMismatch

POWER_TOL = 1e-6  # relative change of the power-iteration estimate that stops it
POWER_MAX_ITERS = 1000


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class FeatureMap:
    """m frequency vectors and m phases defining z(.) for one variable."""

    frequencies: np.ndarray  # (m, d)
    phases: np.ndarray  # (m,)

    @property
    def m(self) -> int:
        return self.frequencies.shape[0]

    @property
    def d(self) -> int:
        return self.frequencies.shape[1]


def draw_feature_map(kernel: KernelSpec, m: int, d: int, seed: int) -> FeatureMap:
    """Sample m frequencies from the kernel's spectral density and m phases.

    For the Gaussian kernel the spectral density is Gaussian with per-coordinate
    standard deviation 1/sigma. The base Gaussian draw is made before scaling,
    so maps drawn with the same seed and different sigma differ only by the
    1/sigma factor.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, d))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return FeatureMap(frequencies=base / kernel.sigma, phases=phases)


def apply_feature_map(fmap: FeatureMap, data: Dataset) -> np.ndarray:
    """Evaluate z on every sample column; returns an (m, N) matrix.

    Entry (i, k) = sqrt(2/m) * cos(w_i^T x^k + b_i), so every entry lies in
    [-sqrt(2/m), sqrt(2/m)].
    """
    if data.d != fmap.d:
        raise DimensionMismatch(f"feature map is {fmap.d}-dim, data is {data.d}-dim")
    return np.sqrt(2.0 / fmap.m) * np.cos(fmap.frequencies @ data.values + fmap.phases[:, None])


def gram_matrix(kernel: KernelSpec, data: Dataset) -> np.ndarray:
    """Exact N x N kernel matrix (O(N^2) memory; the kernel oracles cap N)."""
    x = data.values
    sq = np.sum(x * x, axis=0)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    np.maximum(dist2, 0.0, out=dist2)
    gram = np.exp(-dist2 / (2.0 * kernel.sigma**2))
    gram = 0.5 * (gram + gram.T)
    np.fill_diagonal(gram, 1.0)
    return gram


def approximation_error_bound(n: int, m: int) -> float:
    """Expected operator-norm error bound sqrt(3 n^2 ln n / m) + 2 n ln n / m."""
    if n < 2:
        raise ValueError(f"bound needs n >= 2, got {n}")
    if m < 1:
        raise ValueError(f"bound needs m >= 1, got {m}")
    log_n = np.log(n)
    return float(np.sqrt(3.0 * n * n * log_n / m) + 2.0 * n * log_n / m)


def operator_norm(matrix: np.ndarray, seed: int = 0) -> float:
    """Largest singular value of a symmetric matrix by power iteration.

    The estimate ||A v|| / ||v|| converges to the dominant |eigenvalue| even
    when the dominant eigenvalue is negative. Deterministic given the seed.
    """
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(POWER_MAX_ITERS):
        av = matrix @ v
        new_estimate = float(np.linalg.norm(av))
        if new_estimate == 0.0:
            return 0.0
        v = av / new_estimate
        if abs(new_estimate - estimate) <= POWER_TOL * max(1.0, new_estimate):
            return new_estimate
        estimate = new_estimate
    return estimate


def empirical_approx_error(kernel: KernelSpec, data: Dataset, m: int, seed: int) -> float:
    """Operator norm of z(X)^T z(X) - K for one seeded feature draw."""
    gram = gram_matrix(kernel, data)
    fmap = draw_feature_map(kernel, m=m, d=data.d, seed=seed)
    z = apply_feature_map(fmap, data)
    diff = z.T @ z - gram
    # Derive the power-iteration start from the same seed stream for determinism.
    return operator_norm(diff, seed=seed + 1)
