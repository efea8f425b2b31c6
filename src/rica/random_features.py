"""Random Fourier feature maps, their cos/sin basis for antithetic 1-D maps,
the exact Gram-matrix oracle, and the expected operator-norm error bound for
the approximation.

Feature convention: z(x) = sqrt(2/m) * [cos(w_1^T x + b_1), ..., cos(w_m^T x + b_m)]
with frequencies w_i drawn from the kernel's spectral density and phases b_i
uniform on [0, 2*pi), which makes E<z(x), z(y)> = k(x, y) and E<z(x), z(x)> = 1.
Where the phases come in antithetic pairs b and 2 pi - b at a shared
frequency, the features of a pair are a fixed 2 x 2 map of cos(w^T x) and
sin(w^T x), the paired form of random Fourier features (Rahimi & Recht 2007;
Sutherland & Schneider 2015). `TrigBasis` works with those instead: half
the frequencies, no phase shift, and a pull-back that evaluates no sine.
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


class TrigBasis:
    """Antithetic 1-D feature maps, one per variable, in the basis of their distinct frequencies.

    Each map's rows come in pairs: row k + m/2 repeats the frequency w of row
    k with the phase 2 pi - b for its b (as `draw_objective_maps` in
    `rica.optimizer` draws them). The pair's features are
    sqrt(2/m) cos(w y +- b) = sqrt(2/m) (cos b cos wy -+ sin b sin wy), a fixed
    2 x 2 map of (cos wy, sin wy). So the stacked features of n variables are
    Z = T U, with U the stack of the m x N blocks [cos(w y_i); sin(w y_i)]
    over the m/2 distinct frequencies and T block diagonal, and their
    covariance is T cov(U) T^T. `evaluate` forms U from one tangent per
    frequency and sample; `expand` and `contract` apply T and T^T.
    """

    def __init__(self, maps: list[FeatureMap]):
        half = maps[0].m // 2
        for fmap in maps:
            if (fmap.d != 1 or fmap.m != 2 * half
                    or not np.array_equal(fmap.frequencies[half:], fmap.frequencies[:half])
                    or not np.array_equal(fmap.phases[half:], 2.0 * np.pi - fmap.phases[:half])):
                raise ValueError("TrigBasis needs 1-D maps of equal even size whose rows "
                                 "pair (w, b) with (w, 2 pi - b)")
        self.frequencies = np.stack([fmap.frequencies[:half, 0] for fmap in maps])  # (n, m/2)
        phases = np.stack([fmap.phases[:half] for fmap in maps])
        scale = np.sqrt(2.0 / (2 * half))
        self._cos = scale * np.cos(phases)[:, :, None]
        self._sin = scale * np.sin(phases)[:, :, None]

    def evaluate(self, components: np.ndarray) -> np.ndarray:
        """U for the rows y_i of an (n, N) array: an (n m, N) stack of
        [cos(w y_i); sin(w y_i)] blocks, row k of each half at the k-th frequency.

        Both come from one tangent per frequency and sample, t = tan(wy / 2):
        cos wy = 2 / (1 + t^2) - 1 and sin wy = 2 t / (1 + t^2), within a few
        units in the last place of numpy's cosine and sine. That is one
        transcendental pass where those would be two, and on x86-64 with
        AVX-512 numpy's float64 tangent is vectorised where its sine and
        cosine are not: there, all passes counted, this took 1.2 ms against
        4.4 ms for 2 x 100 x 1000 elements of each.
        """
        n, half = self.frequencies.shape
        trig = np.empty((n, 2, half, components.shape[1]))
        for i in range(n):
            cos_rows, sin_rows = trig[i]
            np.multiply.outer(0.5 * self.frequencies[i], components[i], out=sin_rows)
            np.tan(sin_rows, out=sin_rows)
            np.multiply(sin_rows, sin_rows, out=cos_rows)
            cos_rows += 1.0
            sin_rows /= cos_rows
            sin_rows *= 2.0
            np.divide(2.0, cos_rows, out=cos_rows)
            cos_rows -= 1.0
        return trig.reshape(2 * n * half, -1)

    def _pairs(self, a: np.ndarray) -> np.ndarray:
        """An (n m, k) stack viewed as (n, 2, m/2, k): the two rows of each pair.

        Splitting the first axis never copies, so writes to the view reach a,
        also where a is a transpose.
        """
        return a.reshape(len(self.frequencies), 2, self.frequencies.shape[1], -1)

    def expand(self, a: np.ndarray) -> np.ndarray:
        """T a, in place, for an (n m, k) array a in the trig basis: its image
        among the features."""
        pairs = self._pairs(a)
        sin_part = self._sin * pairs[:, 1]
        pairs[:, 0] *= self._cos
        np.add(pairs[:, 0], sin_part, out=pairs[:, 1])
        pairs[:, 0] -= sin_part
        return a

    def contract(self, a: np.ndarray) -> np.ndarray:
        """T^T a, in place, for an (n m, k) array a over the features."""
        pairs = self._pairs(a)
        total = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] -= pairs[:, 0]
        pairs[:, 1] *= self._sin
        np.multiply(total, self._cos, out=pairs[:, 0])
        return a

    def pull_back(self, i: int, centered: np.ndarray, mean: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
        """d/dy_i of sum over rows and samples of weights * U_i: an (N,) array.

        `centered` and `mean` are U with its rows centred and their means;
        `weights` is (m, N) and is overwritten. With d cos(wy)/dy = -w sin(wy)
        and d sin(wy)/dy = w cos(wy), no cosine or sine is evaluated.
        """
        half = self.frequencies.shape[1]
        rows = slice(2 * i * half, 2 * (i + 1) * half)
        cos_rows, sin_rows = centered[rows][:half], centered[rows][half:]
        cos_mean, sin_mean = mean[rows][:half], mean[rows][half:]
        freqs = self.frequencies[i]
        cos_weights, sin_weights = weights[:half], weights[half:]
        slope = (freqs * cos_mean) @ sin_weights - (freqs * sin_mean) @ cos_weights
        sin_weights *= cos_rows
        cos_weights *= sin_rows
        slope += freqs @ sin_weights - freqs @ cos_weights
        return slope


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
