"""Random Fourier feature maps, a Chebyshev basis of the span of 1-D maps,
the exact Gram-matrix oracle, and the expected operator-norm error bound for
the approximation.

Feature convention: z(x) = sqrt(2/m) * [cos(w_1^T x + b_1), ..., cos(w_m^T x + b_m)]
with frequencies w_i drawn from the kernel's spectral density and phases b_i
uniform on [0, 2*pi), which makes E<z(x), z(y)> = k(x, y) and E<z(x), z(x)> = 1.
On a bounded interval [-rho, rho] the m features of a 1-D map span only about
d = e rho max|w| / 2 dimensions: the Chebyshev coefficients of cos(a t + b)
are 2 J_k(a) times cos b or sin b, which fall below 2^-52 past such a d
(Jacobi-Anger; Trefethen 2013). `ChebyshevBasis` works with T_1..T_d
instead of the features: d rows in place of m, formed by a recurrence with
no cosine, and a pull-back with no sine.
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


def chebyshev_degree(bandwidth: float) -> int:
    """Degree of the Chebyshev interpolant of cos(a t + b) on [-1, 1], a = bandwidth >= 0.

    The Chebyshev coefficients of cos(a t + b) are 2 J_k(a) times cos b or
    sin b (Jacobi-Anger), and |J_k(a)| <= (a/2)^k / k! (Trefethen 2013,
    Approximation Theory and Approximation Practice). The degree is the
    smallest d >= 1 with d + 1 > a, past which that bound decreases, and
    2 (a/2)^(d+1) / (d+1)! <= 2^-52.
    """
    degree, bound = 1, bandwidth * bandwidth / 4.0  # 2 (a/2)^2 / 2!
    while degree + 1 <= bandwidth or bound > 2.0**-52:
        degree += 1
        bound *= bandwidth / (2.0 * (degree + 1))
    return degree


def chebyshev_coefficients(fmap: FeatureMap, radius: float, degree: int) -> np.ndarray:
    """(m, degree + 1) coefficients c with z_k(radius t) ~ sum_j c_kj T_j(t) on [-1, 1].

    z is the 1-D map's features, interpolated at the degree + 1 Chebyshev
    points t_j = cos(theta_j), theta_j = (2 j + 1) pi / (2 (degree + 1)),
    through the discrete orthogonality of the matrix cos(k theta_j). That
    takes (degree + 1) (degree + 1 + m) cosines. k theta_j is reduced modulo
    2 pi in integers first: rounding theta_j before multiplying by k would
    move the high-degree entries by up to k units in the last place.
    """
    turns = np.outer(np.arange(degree + 1), 2 * np.arange(degree + 1) + 1) % (4 * (degree + 1))
    cosines = np.cos(turns * (np.pi / (2 * (degree + 1))))  # T_k(t_j); row 1 holds t_j
    values = apply_feature_map(fmap, Dataset(radius * cosines[1:2]))
    coefficients = values @ cosines.T
    coefficients *= 2.0 / (degree + 1)
    coefficients[:, 0] *= 0.5
    return coefficients


def _chebyshev_rows(t: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """P_1(t), ..., P_count(t) of the recurrence P_0 = 1, P_1 = first,
    P_(k+1) = 2 t P_k - P_(k-1), on a new axis before the last: T_k for
    first = t, U_k (the second kind) for first = 2 t."""
    rows = np.empty(t.shape[:-1] + (count, t.shape[-1]))
    rows[..., 0, :] = first
    two_t = 2.0 * t
    previous = 1.0
    for k in range(1, count):
        current = rows[..., k, :]
        np.multiply(two_t, rows[..., k - 1, :], out=current)
        current -= previous
        previous = rows[..., k - 1, :]
    return rows


class ChebyshevBasis:
    """1-D feature maps, one per variable, in a Chebyshev basis of their span on [-radius, radius].

    Map i's features are z_i(y) = C_i [T_0, ..., T_d](y / radius) to within
    2^-52 of their amplitude, with C_i from `chebyshev_coefficients` and d
    from `chebyshev_degree` at the largest radius * |w|. Centring removes
    T_0, so the centred features are C'_i Ubar_i, C'_i the other d columns
    and Ubar_i the centred rows T_1..T_d(y_i / radius). With C'_i = Q_i R_i,
    Q_i orthonormal, their covariance is Q (R S R^T) Q^T for S = cov(U), and
    every contrast of R S R^T + gamma I equals that of the features: the
    pencil only loses eigenvalues gamma, whose log-dets cancel in RGV, and
    normalised eigenvalues 1, which are never below RCC's smallest. R_i is
    min(m, d) x d. `evaluate` forms U by the three-term recurrence, with no
    sine or cosine, `compress` takes S to R S R^T, `contract` applies R^T,
    and `pull_back` differentiates through dT_k/dt = k U_(k-1)(t).
    """

    def __init__(self, maps: list[FeatureMap], radius: float):
        m = maps[0].m
        if any(fmap.d != 1 or fmap.m != m for fmap in maps):
            raise ValueError("ChebyshevBasis needs 1-D maps of equal size")
        if not radius > 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius
        bandwidth = radius * max(np.abs(fmap.frequencies).max() for fmap in maps)
        self.degree = chebyshev_degree(bandwidth)
        # R_i, stacked (n, min(m, d), d); centring removes the constant column
        self.factors = np.stack([
            np.linalg.qr(chebyshev_coefficients(fmap, radius, self.degree)[:, 1:], mode="r")
            for fmap in maps])

    def evaluate(self, components: np.ndarray) -> np.ndarray:
        """U for the rows y_i of an (n, N) array: the (n d, N) stack of T_1..T_d(y_i / radius).

        Raises ValueError where a component leaves [-radius, radius] by more
        than rounding, where the interpolant would extrapolate.
        """
        t = components / self.radius
        if np.abs(t).max() > 1.0 + 1e-12:
            raise ValueError(f"components reach {np.abs(t).max():.6g} times the basis radius "
                             f"{self.radius:.6g}; the rotation must be orthogonal")
        return _chebyshev_rows(t, t, self.degree).reshape(-1, t.shape[-1])

    def compress(self, covariance: np.ndarray) -> np.ndarray:
        """R S R^T for an (n d, n d) matrix S over U."""
        n, rank, degree = self.factors.shape
        blocks = covariance.reshape(n, degree, n, degree).swapaxes(1, 2)
        pencil = self.factors[:, None] @ blocks @ self.factors[None].swapaxes(2, 3)
        return pencil.swapaxes(1, 2).reshape(n * rank, n * rank)

    def contract(self, a: np.ndarray) -> np.ndarray:
        """R^T a, for an (n min(m, d), k) array a: a new (n d, k) array."""
        n, rank, degree = self.factors.shape
        return (self.factors.swapaxes(1, 2) @ a.reshape(n, rank, -1)).reshape(n * degree, -1)

    def pull_back(self, component: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """d/dy of sum over rows and samples of weights * T_1..T_d(y / radius): an (N,) array.

        `component` is one (N,) row y and `weights` is (d, N). With
        dT_k/dt = k U_(k-1)(t), no sine or cosine is evaluated.
        """
        t = component / self.radius
        second_kind = _chebyshev_rows(t, 2.0 * t, self.degree)[:-1]  # U_1..U_(d-1)
        second_kind *= np.arange(2.0, self.degree + 1)[:, None]
        slope = weights[0] + np.einsum("kn,kn->n", second_kind, weights[1:])  # U_0 = 1
        slope /= self.radius
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
