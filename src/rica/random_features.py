"""Random Fourier feature maps, a Chebyshev basis of the span of 1-D maps,
the exact Gram-matrix oracle, and the expected operator-norm error bound for
the approximation.

Every map acts on one scalar component, as RCC/RGV and KCC/KGV measure
dependence between the components of the rotated data. Feature convention:
z(y) = sqrt(2/m) * [cos(w_1 y + b_1), ..., cos(w_m y + b_m)] with frequencies
w_i drawn from the kernel's spectral density and phases b_i uniform on
[0, 2*pi), which makes E<z(x), z(y)> = k(x, y) and E<z(y), z(y)> = 1.
On a bounded interval [-rho, rho] the m features of a map span only about
d = e rho max|w| / 2 dimensions: the Chebyshev coefficients of cos(a t + b)
are 2 J_k(a) times cos b or sin b, which fall below 2^-52 past such a d
(Jacobi-Anger; Trefethen 2013). `ChebyshevBasis` works with T_1..T_d
instead of the features: d rows in place of m, formed by a recurrence with
no cosine, and the moments of their derivatives taken from those of the
rows, with no sine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_TOL = 1e-6  # relative change of the power-iteration estimate that stops it
POWER_MAX_ITERS = 1000


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-(x - y)^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class FeatureMap:
    """m frequencies and m phases defining z(.) for one scalar component."""

    frequencies: np.ndarray  # (m,)
    phases: np.ndarray  # (m,)

    @property
    def m(self) -> int:
        return len(self.frequencies)


def draw_feature_map(kernel: KernelSpec, m: int, seed: int) -> FeatureMap:
    """Sample m frequencies from the kernel's spectral density and m phases.

    For the Gaussian kernel the spectral density is Gaussian with standard
    deviation 1/sigma. The base Gaussian draw is made before scaling, so maps
    drawn with the same seed and different sigma differ only by the 1/sigma
    factor.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return FeatureMap(frequencies=base / kernel.sigma, phases=phases)


def apply_feature_map(fmap: FeatureMap, samples: np.ndarray) -> np.ndarray:
    """Evaluate z on a 1-D array of N samples; returns an (m, N) matrix.

    Entry (i, k) = sqrt(2/m) * cos(w_i y_k + b_i), so every entry lies in
    [-sqrt(2/m), sqrt(2/m)].
    """
    return np.sqrt(2.0 / fmap.m) * np.cos(np.multiply.outer(fmap.frequencies, samples)
                                          + fmap.phases[:, None])


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
    values = apply_feature_map(fmap, radius * cosines[1])
    coefficients = values @ cosines.T
    coefficients *= 2.0 / (degree + 1)
    coefficients[:, 0] *= 0.5
    return coefficients


def chebyshev_derivative(degree: int) -> np.ndarray:
    """(degree, degree) D with T_k'(t) = sum_a D[k - 1, a] T_a(t), k = 1..degree, a = 0..degree - 1.

    D[k - 1, a] = 2 k for a < k with k - a odd, halved at a = 0 (Trefethen 2013, ch. 3).
    """
    k = np.arange(1, degree + 1)[:, None]
    a = np.arange(degree)[None]
    derivative = np.where((a < k) & ((k - a) % 2 == 1), 2.0 * k, 0.0)
    derivative[:, 0] *= 0.5
    return derivative


@dataclass(frozen=True)
class RowMoments:
    """What one read of the uncentred rows T_1..T_d(t_i), t = y / radius, leaves of n components.

    E is the mean over the N samples. `covariance` is S = cov(U), (n d, n d),
    U the rows stacked component by component, and `means` U's row means,
    (n, d). The slopes at n = 2 take `partner_top` and `own_top`, (n, d),
    which hold E[T_a(t_i) t_j T_d(t_j)] and E[T_a(t_i) T_d(t_i) t_j] for
    a = 1..d and the other component j = 1 - i, and keep nothing of size N.
    At n >= 3 they take instead the rows themselves, degree-major:
    `rows[k - 1, i]` is T_k(t_i), so `rows[0]` holds the components t.
    """

    covariance: np.ndarray
    means: np.ndarray
    partner_top: np.ndarray | None = None
    own_top: np.ndarray | None = None
    rows: np.ndarray | None = None


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
    r x d, r <= min(m, d) the numerical rank of the span: the largest over
    the maps of the fewest leading rows of C'_i's R factor whose trailing
    rows are within max(m, d) eps ||R_i|| in the Frobenius norm, the QR's
    own rounding. The unpivoted QR reveals that rank because C'_i's columns
    are degree-ordered with Bessel decay, and a dropped row moves a contrast
    by O(tol^2 ||S|| / gamma), far below rounding (Bach & Jordan 2002 fit
    each Gram matrix at its numerical rank the same way; on c,b data r is
    about 26 where d is about 45). `row_moments` forms U by the three-term
    recurrence, with no sine or cosine, reads those rows once and never
    centres them: S's diagonal blocks come from the 2d + 1
    moments E[T_k(t_i)] through T_a T_b = (T_(a+b) + T_|a-b|) / 2, and only
    its cross blocks from products of the rows. `compress` takes S to
    R S R^T, and its adjoint `expand` takes a contrast's M over the pencil
    to W = R^T M R over U, so that tr(M d(R S R^T)) = tr(W dS).
    `derivative_moments` takes the moments of U's derivatives that a
    rotation's slopes need from what `row_moments` left, through
    T_k' = sum_a D_ka T_a (`chebyshev_derivative`).
    """

    def __init__(self, maps: list[FeatureMap], radius: float):
        m = maps[0].m
        if any(fmap.m != m for fmap in maps):
            raise ValueError("ChebyshevBasis needs maps of equal size")
        if not radius > 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius
        bandwidth = radius * max(np.abs(fmap.frequencies).max() for fmap in maps)
        self.degree = chebyshev_degree(bandwidth)
        # R_i of C'_i = Q_i R_i; centring removes the constant column
        factors = [np.linalg.qr(chebyshev_coefficients(fmap, radius, self.degree)[:, 1:], mode="r")
                   for fmap in maps]
        # the rows past R_i's numerical rank hold the QR's own rounding: the
        # rank is the fewest leading rows whose trailing block is within
        # max(m, d) eps ||R_i|| in the Frobenius norm
        rank = 1
        for factor in factors:
            tails = np.sqrt(np.cumsum(np.sum(factor * factor, axis=1)[::-1])[::-1])
            tol = max(m, self.degree) * np.finfo(float).eps * tails[0]
            rank = max(rank, int(np.count_nonzero(tails > tol)))
        self.factors = np.stack([factor[:rank] for factor in factors])  # (n, r, d)
        self.derivative = chebyshev_derivative(self.degree)
        # a + l and |a - l| for a = 0..d-1, l = 1..d: the indices of T_a T_l's two terms
        a, l = np.ogrid[:self.degree, 1:self.degree + 1]
        self._sums, self._differences = a + l, np.abs(a - l)
        # a + b and |a - b| for a, b = 1..d: the Hankel and Toeplitz indices of T_a T_b
        self._hankel, self._toeplitz = a + l + 1, np.abs(a + 1 - l)

    def row_moments(self, components: np.ndarray) -> RowMoments:
        """S = cov(U) and what the slopes need, for the rows y_i of an (n, N) array.

        The rows T_k(t_i), t_i = y_i / radius, come from the recurrence
        T_(k+1) = 2 t T_k - T_(k-1), with no sine or cosine. A component that
        leaves [-radius, radius] by more than rounding, where the interpolant
        would extrapolate, raises ValueError. The uncentred rows are then read
        once. Component i's rows meet, in one product over the samples, the vectors 1 and
        T_d(t_i), which give the means mu_i and E[T_a T_d], hence every
        moment p_k = E[T_k(t_i)], k <= 2d, by T_(d+a) = 2 T_d T_a - T_(d-a);
        the diagonal block S_ii[a, b] = (p_(a+b) + p_|a-b|) / 2 - mu_ia mu_ib
        takes no product over the samples. At n = 2 the same product also
        takes, for the other component j = 1 - i only, the vectors
        y_j T_d(t_j) and T_d(t_i) y_j of `partner_top` and `own_top`. Each
        cross block S_ij, i < j, is one product of the two components' rows,
        less mu_i mu_j^T.
        """
        n, size = components.shape
        d = self.degree
        # steps[k - 1, i] = T_k(t_i): degree-major, so that each recurrence
        # step is one contiguous pass over n N samples
        steps = np.empty((d, n, size))
        t = np.divide(components, self.radius, out=steps[0])
        reach = np.abs(t).max()
        if reach > 1.0 + 1e-12:
            raise ValueError(f"components reach {reach:.6g} times the basis radius "
                             f"{self.radius:.6g}; the rotation must be orthogonal")
        two_t = 2.0 * t
        previous = 1.0
        for k in range(1, d):
            np.multiply(two_t, steps[k - 1], out=steps[k])
            steps[k] -= previous
            previous = steps[k - 1]
        rows = steps.swapaxes(0, 1)
        top = steps[-1]  # T_d(t_i)
        vectors = np.empty((n, 4 if n == 2 else 2, size))
        vectors[:, 0] = 1.0
        vectors[:, 1] = top
        if n == 2:  # row i of components[::-1] is y_j, j = 1 - i
            np.multiply(components[::-1], top[::-1], out=vectors[:, 2])
            np.multiply(top, components[::-1], out=vectors[:, 3])
        sums = np.matmul(rows, vectors.swapaxes(1, 2))  # [i, a, v]
        sums /= size
        means = sums[..., 0]
        powers = np.empty((n, 2 * d + 1))  # p_k = E[T_k(t_i)]
        powers[:, 0] = 1.0
        powers[:, 1:d + 1] = means
        powers[:, d + 1:] = 2.0 * sums[..., 1] - powers[:, d - 1::-1]
        blocks = np.take(powers, self._hankel, axis=1)
        blocks += np.take(powers, self._toeplitz, axis=1)
        blocks *= 0.5
        second = np.empty((n, d, n, d))  # E[U_i U_j^T]
        for i in range(n):
            second[i, :, i] = blocks[i]
            for j in range(i + 1, n):
                np.matmul(rows[i], rows[j].T, out=second[i, :, j])
                second[i, :, j] /= size
                second[j, :, i] = second[i, :, j].T
        covariance = second.reshape(n * d, n * d)
        covariance -= np.multiply.outer(means.ravel(), means.ravel())
        if n == 2:
            return RowMoments(covariance, means, sums[..., 2] / self.radius,
                              sums[..., 3] / self.radius)
        return RowMoments(covariance, means, rows=steps)

    def compress(self, covariance: np.ndarray) -> np.ndarray:
        """R S R^T for an (n d, n d) matrix S over U."""
        n, rank, degree = self.factors.shape
        blocks = covariance.reshape(n, degree, n, degree).swapaxes(1, 2)
        pencil = self.factors[:, None] @ blocks @ self.factors[None].swapaxes(2, 3)
        return pencil.swapaxes(1, 2).reshape(n * rank, n * rank)

    def expand(self, weights: np.ndarray) -> np.ndarray:
        """R^T M R over U for a symmetric M over the pencil: the adjoint of `compress`."""
        n, rank, degree = self.factors.shape
        factors_t = self.factors.swapaxes(1, 2)
        half = (factors_t @ weights.reshape(n, rank, -1)).reshape(n * degree, -1)  # R^T M
        return (factors_t @ half.T.reshape(n, rank, -1)).reshape(n * degree, -1)  # R^T M^T R

    def derivative_moments(self, moments: RowMoments, weights: np.ndarray) -> np.ndarray:
        """(n, n) G with G_ij = E[t_j sum_k T_k'(t_i) (W Ubar)_ik] off the diagonal, t = y / radius.

        `moments` is what `row_moments` left of the rows U, Ubar = U - mu 1^T
        their centred form, and `weights` an (n d, n d) array W of d x d
        blocks W_ic. E is the mean over the N samples, and the diagonal,
        which no plane's slope uses, is 0. G_ij is E[t_j h_i] for
        h_i = sum_a T_a(t_i) sum_c (D^T W_ic Ubar_c)_a. At n >= 3 that is one
        product per component of D^T [W_i1 .. W_in] with all the uncentred
        rows, then one with their first degree t, with the means entering as
        a rank-one correction through the pair moments
        P_ab = E[T_a(t_i) T_b(t_j)], which are S_ij + mu_i mu_j^T bordered by
        T_0 = 1. At n = 2 only j = 1 - i is formed, and G_ij is
        sum_c <D^T W_ic, X_c> for c = i, j, X_c[a, l] = E[T_a(t_i) t_j Ubar_cl]:
        the products t_j T_l(t_j) and T_a(t_i) T_l(t_i) reduce X_c to P and
        to `partner_top` and `own_top`, with no sum over the samples.
        """
        n, d = moments.means.shape
        means = moments.means
        dw_rows = self.derivative.T @ weights.reshape(n, d, n * d)  # [i] = D^T [W_i1 .. W_in]
        # [i, j, a, b] = P_ab for a, b = 1..d
        products = moments.covariance.reshape(n, d, n, d).swapaxes(1, 2)
        products = products + means[:, None, :, None] * means[None, :, None]
        if n > 2:
            rows = moments.rows
            size = rows.shape[2]
            flat = rows.reshape(d * n, size)
            # [i, a, (l, c)] = (D^T W_ic)_al, in the order of the degree-major rows
            dw_all = dw_rows.reshape(n, d, n, d).swapaxes(2, 3).reshape(n, d, d * n)
            h = np.empty((n, size))
            for i in range(n):
                x = dw_all[i] @ flat  # sum_c D^T W_ic U_c
                h[i] = x[0] + np.einsum("an,an->n", x[1:], rows[:-1, i])
            result = h @ rows[0].T
            result /= size
            # x holds sum_c D^T W_ic mu_c in excess in every sample, which adds
            # sum_a excess_ia P_a1 to G_ij
            excess = dw_rows @ means.ravel()
            first = np.empty((n, n, d))  # P_a1, a = 0..d-1
            first[..., 0] = means[:, 0]
            first[..., 1:] = products[..., :-1, 0]
            result -= np.einsum("ija,ia->ij", first, excess)
            np.fill_diagonal(result, 0.0)
            return result
        mine, other = [0, 1], [1, 0]  # i and j = 1 - i
        pair = np.empty((n, d + 1, d + 2))  # [i, a, b] = P_ab of (i, j), a = 0..d, b = 0..d+1
        pair[:, 0, 0] = 1.0
        pair[:, 0, 1:-1] = means[other]
        pair[:, 1:, 0] = means
        pair[:, 1:, 1:-1] = products[mine, other]
        dw = dw_rows.reshape(n, d, n, d).swapaxes(1, 2)  # [i, c] = D^T W_ic
        # T_(d+1) = 2 t T_d - T_(d-1), in the pair's last column; E[t_j T_d(t_j)] = P_1d of (j, j)
        pair[:, 0, -1] = 2.0 * products[other, other, 0, -1]
        pair[:, 1:, -1] = 2.0 * moments.partner_top
        pair[..., -1] -= pair[..., d - 1]
        partner = 0.5 * (pair[:, :d, 2:] + pair[:, :d, :d])
        partner -= pair[:, :d, 1, None] * means[other][:, None]
        # q_c = E[T_c(t_i) t_j], c = 0..2d-1, with T_(d+a) = 2 T_d T_a - T_(d-a)
        q = np.empty((n, 2 * d))
        q[:, :d + 1] = pair[..., 1]
        q[:, d + 1:] = 2.0 * moments.own_top[:, :d - 1]
        q[:, d + 1:] -= q[:, d - 1:0:-1]
        # <D^T W_ii, (q_(a+l) + q_|a-l|) / 2 - q_a mu_il>, with the sums of D^T W_ii
        # over the entries of equal a + l and of equal |a - l| taken first
        own = dw[mine, mine]
        diagonal_sums = np.stack([np.bincount(self._sums.ravel(), block.ravel(), 2 * d)
                                  + np.bincount(self._differences.ravel(), block.ravel(), 2 * d)
                                  for block in own])
        g = np.einsum("ial,ial->i", dw[mine, other], partner)  # G_ij, j = 1 - i
        g += 0.5 * np.einsum("ic,ic->i", q, diagonal_sums)
        g -= np.einsum("ia,ia->i", q[:, :d], np.einsum("ial,il->ia", own, means))
        return np.array([[0.0, g[0]], [g[1], 0.0]])


def gram_matrix(kernel: KernelSpec, samples: np.ndarray) -> np.ndarray:
    """Exact N x N kernel matrix of a 1-D array (O(N^2) memory; the kernel oracles cap N).

    (x_a - x_b)^2 is exactly symmetric and 0 on the diagonal, so the matrix
    is exactly symmetric with a unit diagonal.
    """
    differences = np.subtract.outer(samples, samples)
    return np.exp(-(differences * differences) / (2.0 * kernel.sigma**2))


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


def empirical_approx_error(kernel: KernelSpec, samples: np.ndarray, m: int, seed: int) -> float:
    """Operator norm of z(y)^T z(y) - K for a 1-D array y and one seeded feature draw."""
    gram = gram_matrix(kernel, samples)
    fmap = draw_feature_map(kernel, m=m, seed=seed)
    z = apply_feature_map(fmap, samples)
    diff = z.T @ z - gram
    # Derive the power-iteration start from the same seed stream for determinism.
    return operator_norm(diff, seed=seed + 1)
