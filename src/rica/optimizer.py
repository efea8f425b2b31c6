"""Minimize a dependence contrast over orthogonal unmixings of whitened
data, plus a deflation FastICA baseline used for comparison and
initialization.

The fit works on the orthogonal group O(n) directly, in a moving chart at
the current iterate Q: the plane generators E_ij (i < j, lexicographic
order) span the skew-symmetric tangent directions, exp(h E_ij) is the plane
rotation by h, and a step is Q <- exp(-t sum_ij g_ij E_ij) Q. Every iterate
stays orthogonal with the determinant of its start. That determinant does
not matter: the contrasts are invariant under sign flips of the rotated
components (to rounding, with the antithetic feature phases of
`draw_objective_maps`), so Q and diag(+-1) Q are the same unmixing.

The slopes g_ij = d/dh f(exp(h E_ij) Q) at h = 0 come from the objective.
RCC and RGV work in a Chebyshev basis of their feature maps' span
(`random_features.ChebyshevBasis`): every component of an orthogonal Q lies
in [-rho, rho], rho the largest sample norm, where the m features of a
component are a fixed m x d map of T_1..T_d(y / rho), d about 45 at the
default sigma, to within 2^-52 of their amplitude. An evaluation hands the
contrast a pencil of n r rows in place of the features' n m, with the same
value, r <= min(m, d) the numerical rank of the maps' span (about 26 at the
default sigma). Their slopes are closed-form: the value varies as
-1/2 tr(W dS) for the covariance S of the rows and W = R^T M R, the
contrast's M taken to the basis by `ChebyshevBasis.expand` (Bach & Jordan
2002), and moving Q along E_ij moves t_i = y_i / rho by -t_j dh and t_j by
t_i dh (Edelman, Arias & Smith 1998), so g_ij = G_ij - G_ji with
G_ij = E[t_j sum_k T_k'(t_i) (W Ubar)_ik], Ubar the centred rows, which
`ChebyshevBasis.derivative_moments` takes from what the evaluation at the
same Q (in `descend` always the one just accepted) left. The kernel oracles
take central differences, two evaluations per plane; `finite_diff_gradient`
keeps them as the test oracle for every contrast.

Each step length comes from an Armijo backtracking line search, which
after a rejected trial tries the minimiser of the quadratic that
interpolates it (Nocedal & Wright 2006, section 3.5). After the first
iteration it starts from the Barzilai-Borwein step (Barzilai & Borwein
1988; on the Stiefel manifold, Wen & Yin 2013), so most searches take a
single evaluation. Acceptance stays monotone: Wen & Yin's nonmonotone rule
would save nothing once the first trial is accepted, and the accepted-value
trace would no longer decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contrast_engine import (DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA,
                              CovariancePencil, kcc_oracle, kgv_oracle, rcc, rgv)
from .data_model import Dataset
from .errors import DimensionMismatch, NoProgress
from .random_features import ChebyshevBasis, FeatureMap, KernelSpec, draw_feature_map

ARMIJO_C = 1e-4
TOL = 1e-5  # `descend`'s tol in every fit: the least improvement of an accepted step
WHITENED_TOL = 1e-5  # largest entry of cov - I that `make_objective` accepts
LINE_SEARCH_MAX_TRIALS = 30
# a backtracking trial after a rejected step t lies in [BACKTRACK_MIN t, BACKTRACK_MAX t]
BACKTRACK_MIN, BACKTRACK_MAX = 0.1, 0.5
FD_STEP = 1e-4  # central-difference step of the FD slopes, in radians
FASTICA_TOL = 1e-6
FASTICA_MAX_SWEEPS = 200
CONTRASTS = ("rcc", "rgv", "kcc", "kgv")
KERNEL_CONTRASTS = ("kcc", "kgv")  # the exact kernel oracles; rcc and rgv use random features


@dataclass(frozen=True)
class OptimizerConfig:
    m: int = DEFAULT_M
    gamma: float = DEFAULT_GAMMA
    kappa: float = DEFAULT_KAPPA
    sigma: float = DEFAULT_SIGMA
    max_iters: int = 100
    restarts: int = 3
    seed: int = 0
    contrast: str = "rgv"  # one of CONTRASTS

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.contrast not in CONTRASTS:
            raise ValueError(f"unknown contrast {self.contrast!r}")


@dataclass(frozen=True)
class UnmixingModel:
    """What a descent found: the orthogonal rotation of the whitened data.

    `evaluation.fit_unmixing` returns it with the unmixing of the raw data,
    rotation @ T for the whitening matrix T. `objective_trace` holds the
    start's value and each accepted step's; `restart_index` is the start it
    came from.
    """

    rotation: np.ndarray
    final_contrast: float
    iterations: int
    objective_trace: tuple[float, ...]
    restart_index: int = 0


@dataclass(frozen=True)
class FastICAResult:
    rotation: np.ndarray
    converged: bool


def plane_rotation(n: int, i: int, j: int, theta: float) -> np.ndarray:
    """exp(theta E_ij): rotation by theta in the (i, j) plane, embedded in the identity."""
    rot = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    rot[i, i] = rot[j, j] = c
    rot[i, j], rot[j, i] = -s, s
    return rot


def expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) for real skew-symmetric a, from the Hermitian eigenproblem of i*a.

    At n = 2, a = a_10 E_01 and exp(a) is the plane rotation by a_10.
    """
    if len(a) == 2:
        return plane_rotation(2, 0, 1, a[1, 0])
    w, v = np.linalg.eigh(1j * a)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def _tangent(coords: np.ndarray, n: int) -> np.ndarray:
    """sum_ij coords_ij E_ij over planes i < j in lexicographic order.

    E_ij = e_j e_i^T - e_i e_j^T, the generator whose exponential is
    `plane_rotation(n, i, j, 1)`.
    """
    i, j = np.triu_indices(n, 1)
    a = np.zeros((n, n))
    a[j, i] = coords
    a[i, j] = -coords
    return a


def draw_objective_maps(config: OptimizerConfig, n_components: int) -> list[FeatureMap]:
    """Per-component feature maps frozen for one optimizer run.

    Frequencies and phases come in antithetic pairs (w, b) and (w, 2*pi - b),
    sharing the frequency. Negating the data then exactly permutes feature
    rows, so the objective is invariant under sign flips of the rotated
    components (the contrast itself has that symmetry; i.i.d. phases would
    only give it up to Monte Carlo noise). Expectations are unchanged because
    each phase is still marginally uniform. m is rounded up to even.
    """
    kernel = KernelSpec(sigma=config.sigma)
    maps = []
    half = (config.m + 1) // 2
    for comp in range(n_components):
        base = draw_feature_map(kernel, half, seed=derive_seed(config.seed, 9001, comp))
        freqs = np.concatenate([base.frequencies, base.frequencies])
        phases = np.concatenate([base.phases, 2.0 * np.pi - base.phases])
        maps.append(FeatureMap(frequencies=freqs, phases=phases))
    return maps


def derive_seed(*keys: int) -> int:
    """Deterministic seed from integer keys; stable across runs and platforms."""
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def _check_whitened(values: np.ndarray) -> None:
    # Whitened data is centered here, so the covariance is taken about zero.
    cov = values @ values.T / values.shape[1]
    if np.abs(cov - np.eye(values.shape[0])).max() > WHITENED_TOL:
        raise ValueError("optimizer input must be whitened (identity covariance)")


class _KernelObjective:
    """KCC or KGV, the exact kernel oracles, with central-difference slopes."""

    def __init__(self, whitened: Dataset, config: OptimizerConfig):
        self.values = whitened.values
        self.oracle = kcc_oracle if config.contrast == "kcc" else kgv_oracle
        self.kernel = KernelSpec(sigma=config.sigma)
        self.kappa = config.kappa

    def __call__(self, q: np.ndarray) -> float:
        return self.oracle(q @ self.values, self.kernel, kappa=self.kappa)

    def slopes(self, q: np.ndarray) -> np.ndarray:
        # the oracles have no closed-form slopes: two evaluations per plane
        return _central_slopes(self, q, FD_STEP)


class _FeatureObjective:
    """RCC or RGV of frozen per-component feature maps, with closed-form slopes.

    It works in a Chebyshev basis of the maps' span (`ChebyshevBasis`) on
    [-rho, rho], rho the largest sample norm of the whitened data, which
    bounds every component of an orthogonal rotation: an evaluation forms
    T_1..T_d of the components over rho by recurrence, reads them once
    uncentred (`ChebyshevBasis.row_moments`) and hands the contrast the
    pencil R cov(U) R^T, n r square with r <= min(m, d) the numerical rank
    of the maps' span; the features themselves are never formed. It keeps
    the last evaluation (its q, `RowMoments` and `ContrastEvaluation`) for
    the slopes at that q, which take W = `basis.expand` of the contrast's M
    and those moments to `ChebyshevBasis.derivative_moments` and evaluate
    no cosine or sine. At n = 2 what it keeps holds nothing of size N; at
    n >= 3 it holds the rows alone, T_1(t) = t standing for the components,
    for the slopes' pass. The next evaluation drops the kept one before
    allocating, and the slopes consume it, so at most one is alive.
    """

    def __init__(self, whitened: Dataset, config: OptimizerConfig):
        self.values = whitened.values
        radius = float(np.sqrt(np.max(np.einsum("ij,ij->j", self.values, self.values))))
        self.basis = ChebyshevBasis(draw_objective_maps(config, whitened.d), radius)
        self.contrast = rcc if config.contrast == "rcc" else rgv
        self.gamma = config.gamma
        self.last = None

    def __call__(self, q: np.ndarray) -> float:
        self.last = None
        moments = self.basis.row_moments(q @ self.values)
        pencil = self.basis.compress(moments.covariance)
        evaluation = self.contrast(CovariancePencil(pencil, self.gamma, len(q)))
        self.last = (q.copy(), moments, evaluation)
        return evaluation.value

    def slopes(self, q: np.ndarray) -> np.ndarray:
        if self.last is None or not np.array_equal(self.last[0], q):
            self(q)
        _, moments, evaluation = self.last
        self.last = None
        weights = self.basis.expand(evaluation.weights())
        g = self.basis.derivative_moments(moments, weights)
        i, j = np.triu_indices(len(q), 1)
        return g[i, j] - g[j, i]


def make_objective(whitened: Dataset,
                   config: OptimizerConfig) -> _KernelObjective | _FeatureObjective:
    """The configured contrast of the components Q @ whitened, as a function of Q.

    RCC and RGV use feature maps drawn once from config.seed, so the function
    is deterministic, and have closed-form slopes; KCC and KGV are the exact
    kernel oracles, with central-difference slopes. RCC and RGV take q
    orthogonal: a component beyond the largest sample norm raises ValueError.
    A contrast of fewer than two components raises DimensionMismatch.
    """
    if whitened.d < 2:
        raise DimensionMismatch(f"a contrast needs two or more components, got {whitened.d}")
    _check_whitened(whitened.values)
    if config.contrast in KERNEL_CONTRASTS:
        return _KernelObjective(whitened, config)
    return _FeatureObjective(whitened, config)


def finite_diff_gradient(q: np.ndarray, whitened: Dataset, config: OptimizerConfig,
                         step: float = FD_STEP) -> np.ndarray:
    """Central differences along each plane generator at q: the slopes' test oracle."""
    return _central_slopes(make_objective(whitened, config), q, step)


def _central_slopes(objective, q: np.ndarray, step: float) -> np.ndarray:
    """Slope of f(exp(h E_ij) q) at h = 0 per plane (i, j), lexicographic order."""
    n = q.shape[0]
    planes = zip(*np.triu_indices(n, 1))
    return np.array([(objective(plane_rotation(n, i, j, step) @ q)
                      - objective(plane_rotation(n, i, j, -step) @ q)) / (2.0 * step)
                     for i, j in planes])


def _backtrack(step: float, rise: float, grad_sq: float) -> float:
    """The trial after a rejected step t whose value exceeds the start's by `rise`.

    It is the minimiser t^2 |g|^2 / (2 (rise + t |g|^2)) of the quadratic in
    t through the start's value, its slope -|g|^2 and the rejected value
    (Nocedal & Wright 2006, section 3.5), kept within
    [BACKTRACK_MIN t, BACKTRACK_MAX t]; where that quadratic has no positive
    curvature, or the rejected value is not a number, it is t / 2.
    """
    curvature = rise + step * grad_sq  # the quadratic's t^2 coefficient, times t^2
    if not curvature > 0.0:
        return 0.5 * step
    trial = step * step * grad_sq / (2.0 * curvature)
    return min(max(trial, BACKTRACK_MIN * step), BACKTRACK_MAX * step)


def descend(objective, start: np.ndarray, tol: float, max_iters: int) -> UnmixingModel:
    """Gradient descent on O(n) with an interpolating backtracking Armijo line search.

    `objective` is called as f(q) -> float, and f.slopes(q) gives
    d/dh f(exp(h E_ij) q) at h = 0 per plane (i, j), i < j in lexicographic
    order, at the current iterate, whose value was the last one computed.
    After a rejected trial t a search tries `_backtrack`'s step, the
    minimiser of the quadratic through the start's value, its slope -|g|^2
    and the trial's value, kept within [t / 10, t / 2]. The first line
    search starts from 1; each later one starts from the Barzilai-Borwein
    step min(1, s's / s'y), with s = -t g the last accepted step and
    y = g' - g the change of slopes, both in plane coordinates of the moving
    chart (for n = 2, the secant step on the rotation angle). Where
    s'y <= 0 it starts from min(1, 2t) instead.
    A trial is accepted only if its value is strictly below
    f - ARMIJO_C t |g|^2, so every accepted step decreases the value, even
    where that bound rounds to f itself: the trace is strictly monotone, and
    the iterations are the accepted steps. Raises NoProgress if the very
    first line search fails to find a decrease although the squared slope
    norm is at least tol.
    """
    q = np.array(start, dtype=float)
    n = q.shape[0]
    value = objective(q)
    trace = [value]
    step, last_grad = 1.0, None  # after a step: its length t and the slopes g it left from
    for iteration in range(1, max_iters + 1):
        grad = objective.slopes(q)
        grad_sq = float(grad @ grad)
        if grad_sq == 0.0:
            break
        if last_grad is not None:
            s = -step * last_grad
            sy = float(s @ (grad - last_grad))
            step = min(1.0, float(s @ s) / sy) if sy > 0.0 else min(1.0, 2.0 * step)
        direction = _tangent(grad, n)
        accepted = False
        for _ in range(LINE_SEARCH_MAX_TRIALS):
            candidate = expm_skew(-step * direction) @ q
            cand_value = objective(candidate)
            if cand_value < value - ARMIJO_C * step * grad_sq:
                accepted = True
                break
            step = _backtrack(step, cand_value - value, grad_sq)
        if not accepted:
            # With grad_sq < tol a unit step would improve f by less than tol
            # to first order: the start is stationary to working precision.
            # Closed-form slopes are rounding noise at an exact minimum, where
            # central differences cancel to exactly 0.
            if iteration == 1 and grad_sq >= tol:
                raise NoProgress("first line search found no decrease")
            break
        improvement = value - cand_value
        q, value, last_grad = candidate, cand_value, grad
        trace.append(value)
        if improvement < tol:
            break
    return UnmixingModel(q, value, len(trace) - 1, tuple(trace))


def fastica_baseline(whitened: Dataset, seed: int) -> FastICAResult:
    """Deflation FastICA with the tanh nonlinearity on whitened data.

    Each unit is re-orthonormalized against the previously extracted units on
    every sweep; the final matrix is polished to exact orthogonality via its
    polar factor. Returns the best iterate with converged=False if any unit
    fails to converge within FASTICA_MAX_SWEEPS.
    """
    x = whitened.values
    n, n_samples = x.shape
    rng = np.random.default_rng(seed)
    w_all = np.zeros((n, n))
    converged = True
    for unit in range(n):
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        unit_converged = False
        for _ in range(FASTICA_MAX_SWEEPS):
            u = w @ x
            g = np.tanh(u)
            g_prime = 1.0 - g * g
            w_new = (x @ g) / n_samples - g_prime.mean() * w
            # deflate against already-extracted units
            w_new -= w_all[:unit].T @ (w_all[:unit] @ w_new)
            norm = np.linalg.norm(w_new)
            if norm < 1e-12:
                break
            w_new /= norm
            delta = abs(abs(w_new @ w) - 1.0)
            w = w_new
            if delta < FASTICA_TOL:
                unit_converged = True
                break
        converged = converged and unit_converged
        w_all[unit] = w
    u_mat, _, vt_mat = np.linalg.svd(w_all)
    rotation = u_mat @ vt_mat
    return FastICAResult(rotation=rotation, converged=converged)


def _start(whitened: Dataset, config: OptimizerConfig, restart: int) -> np.ndarray:
    n = whitened.d
    if restart == 0:
        return fastica_baseline(whitened, seed=derive_seed(config.seed, 7310, 0)).rotation
    # Haar-distributed on O(n): QR of a Gaussian matrix, signs fixed by diag(R).
    rng = np.random.default_rng(derive_seed(config.seed, 7310, restart))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def minimize_contrast(whitened: Dataset, config: OptimizerConfig) -> UnmixingModel:
    """Run `restarts` descents from different starts; keep the lowest contrast.

    The first start is FastICA's rotation; later restarts are Haar-random. The
    objective is one fixed deterministic function for the whole run (RCC/RGV
    feature maps are drawn once from config.seed and shared by every restart).
    """
    objective = make_objective(whitened, config)
    best = None
    failures = 0
    for restart in range(config.restarts):
        start = _start(whitened, config, restart)
        try:
            model = descend(objective, start, TOL, config.max_iters)
        except NoProgress:
            # A start already at a sharp minimum can fail its first search;
            # keep it as a (zero-iteration) candidate rather than discarding.
            failures += 1
            start_value = objective(start)
            model = UnmixingModel(start, start_value, 0, (start_value,))
        if best is None or model.final_contrast < best.final_contrast:
            best = replace(model, restart_index=restart)
    if failures == config.restarts:
        raise NoProgress("every restart failed its first line search")
    return best
