"""Minimize a dependence contrast over orthogonal unmixings of whitened
data, plus a deflation FastICA baseline used for comparison and
initialization.

The fit works on the orthogonal group O(n) directly, in a moving chart at
the current iterate Q: the plane generators E_ij (i < j, lexicographic
order) span the skew-symmetric tangent directions, exp(h E_ij) is the plane
rotation by h, and a step is Q <- exp(-t sum_ij g_ij E_ij) Q. Every iterate
stays orthogonal with the determinant of its start. That determinant does
not matter: the contrasts are invariant under sign flips of the rotated
components (exactly so, with the antithetic feature phases of
`draw_objective_maps`), so Q and diag(+-1) Q are the same unmixing.

The slopes g_ij = d/dh f(exp(h E_ij) Q) at h = 0 come from the objective.
For RCC and RGV they are closed-form (Edelman, Arias & Smith 1998): with
Y = Q X and H = df/dY, df/dQ = H X^T and g_ij = A_ji - A_ij for
A = (df/dQ) Q^T = H Y^T. H comes from the contrast's gradient with respect to
the features, pulled back through the feature maps, and reuses the arrays of
the evaluation at the same Q, which in `descend` is always the one just
accepted. The kernel oracles take central differences, two evaluations per
plane; `finite_diff_gradient` keeps them as the test oracle for every contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrast_engine import (DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA,
                              kcc_oracle, kgv_oracle, rcc, rgv)
from .data_model import Dataset, WhiteningTransform
from .errors import NoProgress
from .random_features import (FeatureMap, KernelSpec, apply_feature_map, draw_feature_map,
                              pull_back)

ARMIJO_C = 1e-4
LINE_SEARCH_MAX_HALVINGS = 30
FD_STEP = 1e-4  # central-difference step of the FD slopes, in radians
FASTICA_TOL = 1e-6
FASTICA_MAX_SWEEPS = 200
CONTRASTS = ("rcc", "rgv", "kcc", "kgv")
KERNEL_CONTRASTS = ("kcc", "kgv")  # the exact kernel oracles; rcc and rgv use random features
INITS = ("random", "fastica")  # the first start: Haar-random or FastICA's rotation


@dataclass(frozen=True)
class OptimizerConfig:
    m: int = DEFAULT_M
    gamma: float = DEFAULT_GAMMA
    kappa: float = DEFAULT_KAPPA
    sigma: float = DEFAULT_SIGMA
    tol: float = 1e-5
    max_iters: int = 100
    restarts: int = 3
    seed: int = 0
    init: str = "fastica"  # one of INITS
    contrast: str = "rgv"  # one of CONTRASTS

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1 or self.restarts < 1:
            raise ValueError("tol must be positive; max_iters, restarts >= 1")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.contrast not in CONTRASTS:
            raise ValueError(f"unknown contrast {self.contrast!r}")


@dataclass(frozen=True)
class UnmixingModel:
    """The estimated unmixing: W = rotation @ whitening.matrix, rotation orthogonal."""

    whitening: WhiteningTransform
    rotation: np.ndarray
    contrast_name: str
    final_contrast: float
    iterations: int
    restart_index: int = 0
    objective_trace: tuple[float, ...] = ()

    def full_matrix(self) -> np.ndarray:
        return self.rotation @ self.whitening.matrix


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
    """exp(a) for real skew-symmetric a, from the Hermitian eigenproblem of i*a."""
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
        base = draw_feature_map(kernel, half, 1, seed=derive_seed(config.seed, 9001, comp))
        freqs = np.vstack([base.frequencies, base.frequencies])
        phases = np.concatenate([base.phases, 2.0 * np.pi - base.phases])
        maps.append(FeatureMap(frequencies=freqs, phases=phases))
    return maps


def derive_seed(*keys: int) -> int:
    """Deterministic seed from integer keys; stable across runs and platforms."""
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def _check_whitened(values: np.ndarray, tol: float = 1e-5) -> None:
    # Whitened data is centered here, so the covariance is taken about zero.
    cov = values @ values.T / values.shape[1]
    if np.abs(cov - np.eye(values.shape[0])).max() > tol:
        raise ValueError("optimizer input must be whitened (identity covariance)")


class Objective:
    """A contrast f(Q) of the components Q @ whitened, with its slopes on O(n).

    `slopes(q)` holds d/dh f(exp(h E_ij) q) at h = 0 per plane (i, j), i < j
    in lexicographic order. Subclasses define `__call__`; this class takes the
    slopes by central differences at FD_STEP.
    """

    def __call__(self, q: np.ndarray) -> float:
        raise NotImplementedError

    def slopes(self, q: np.ndarray) -> np.ndarray:
        return _central_slopes(self, q, FD_STEP)


class _KernelObjective(Objective):
    """KCC or KGV, the exact kernel oracles."""

    def __init__(self, whitened: Dataset, config: OptimizerConfig):
        self.values = whitened.values
        self.oracle = kcc_oracle if config.contrast == "kcc" else kgv_oracle
        self.kernel = KernelSpec(sigma=config.sigma)
        self.kappa = config.kappa

    def __call__(self, q: np.ndarray) -> float:
        rotated = q @ self.values
        parts = [Dataset(rotated[i:i + 1]) for i in range(len(rotated))]
        return self.oracle(parts, self.kernel, kappa=self.kappa)


class _FeatureObjective(Objective):
    """RCC or RGV of frozen per-component feature maps, with closed-form slopes.

    It keeps the last evaluation (its q, components and `ContrastEvaluation`)
    for the slopes at that q. The next evaluation drops it before allocating,
    and the slopes consume it, so at most one is alive.
    """

    def __init__(self, whitened: Dataset, config: OptimizerConfig):
        self.values = whitened.values
        self.maps = draw_objective_maps(config, whitened.d)
        self.contrast = rcc if config.contrast == "rcc" else rgv
        self.gamma = config.gamma
        self.last = None

    def __call__(self, q: np.ndarray) -> float:
        self.last = None
        rotated = q @ self.values
        feats = [apply_feature_map(fmap, Dataset(rotated[i:i + 1]))
                 for i, fmap in enumerate(self.maps)]
        evaluation = self.contrast(feats, gamma=self.gamma)
        self.last = (q.copy(), rotated, evaluation)
        return evaluation.value

    def slopes(self, q: np.ndarray) -> np.ndarray:
        if self.last is None or not np.array_equal(self.last[0], q):
            self(q)
        _, rotated, evaluation = self.last
        self.last = None
        weights = evaluation.feature_gradient()
        m = self.maps[0].m
        grad = np.vstack([pull_back(fmap, Dataset(rotated[i:i + 1]), weights[i * m:(i + 1) * m])
                          for i, fmap in enumerate(self.maps)])
        a = grad @ rotated.T
        i, j = np.triu_indices(len(q), 1)
        return a[j, i] - a[i, j]


def make_objective(whitened: Dataset, config: OptimizerConfig) -> Objective:
    """The configured contrast of the components Q @ whitened, as a function of Q.

    RCC and RGV use feature maps drawn once from config.seed, so the function
    is deterministic, and have closed-form slopes; KCC and KGV are the exact
    kernel oracles, with central-difference slopes.
    """
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


def descend(objective: Objective, start: np.ndarray, tol: float,
            max_iters: int) -> tuple[np.ndarray, float, int, list[float]]:
    """Gradient descent on O(n) with backtracking (halving) Armijo line search.

    The slopes are `objective.slopes` at the current iterate, whose value was
    the last one computed. Returns (rotation, value, iterations,
    accepted-value trace). Raises NoProgress if the very first line search
    fails to find a decrease although the squared slope norm is at least tol.
    """
    q = np.array(start, dtype=float)
    n = q.shape[0]
    value = objective(q)
    trace = [value]
    step0 = 1.0
    for iteration in range(1, max_iters + 1):
        grad = objective.slopes(q)
        grad_sq = float(grad @ grad)
        if grad_sq == 0.0:
            return q, value, iteration - 1, trace
        direction = _tangent(grad, n)
        step = step0
        accepted = False
        for _ in range(LINE_SEARCH_MAX_HALVINGS):
            candidate = expm_skew(-step * direction) @ q
            cand_value = objective(candidate)
            if cand_value <= value - ARMIJO_C * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # With grad_sq < tol a unit step would improve f by less than tol
            # to first order: the start is stationary to working precision.
            # Closed-form slopes are rounding noise at an exact minimum, where
            # central differences cancel to exactly 0.
            if iteration == 1 and grad_sq >= tol:
                raise NoProgress("first line search found no decrease")
            return q, value, iteration - 1, trace
        improvement = value - cand_value
        q, value = candidate, cand_value
        trace.append(value)
        step0 = min(1.0, step * 2.0)  # reuse the last scale, allow growth
        if improvement < tol:
            return q, value, iteration, trace
    return q, value, max_iters, trace


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
    if restart == 0 and config.init == "fastica":
        return fastica_baseline(whitened, seed=derive_seed(config.seed, 7310, 0)).rotation
    # Haar-distributed on O(n): QR of a Gaussian matrix, signs fixed by diag(R).
    rng = np.random.default_rng(derive_seed(config.seed, 7310, restart))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def minimize_contrast(whitened: Dataset, config: OptimizerConfig,
                      whitening: WhiteningTransform | None = None) -> UnmixingModel:
    """Run `restarts` descents from different starts; keep the lowest contrast.

    The first start honors config.init; later restarts are random. The
    objective is one fixed deterministic function for the whole run (RCC/RGV
    feature maps are drawn once from config.seed and shared by every restart).
    """
    if whitening is None:
        n = whitened.d
        whitening = WhiteningTransform(mean=np.zeros(n), matrix=np.eye(n))
    objective = make_objective(whitened, config)
    best = None
    failures = 0
    for restart in range(config.restarts):
        start = _start(whitened, config, restart)
        try:
            q, value, iters, trace = descend(objective, start, config.tol, config.max_iters)
        except NoProgress:
            # A start already at a sharp minimum can fail its first search;
            # keep it as a (zero-iteration) candidate rather than discarding.
            failures += 1
            start_value = objective(start)
            q, value, iters, trace = start, start_value, 0, [start_value]
        if best is None or value < best[1]:
            best = (q, value, iters, trace, restart)
    if failures == config.restarts:
        raise NoProgress("every restart failed its first line search")
    q, value, iters, trace, restart = best
    return UnmixingModel(
        whitening=whitening,
        rotation=q,
        contrast_name=config.contrast.upper(),
        final_contrast=value,
        iterations=iters,
        restart_index=restart,
        objective_trace=tuple(trace),
    )
