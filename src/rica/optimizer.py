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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .contrast_engine import (DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA,
                              kcc_oracle, kgv_oracle, rcc, rgv)
from .data_model import Dataset, WhiteningTransform
from .errors import DimensionMismatch, NoProgress
from .random_features import FeatureMap, KernelSpec, apply_feature_map, draw_feature_map

ARMIJO_C = 1e-4
LINE_SEARCH_MAX_HALVINGS = 30
CONTRASTS = ("rcc", "rgv", "kcc", "kgv")


@dataclass(frozen=True)
class OptimizerConfig:
    m: int = DEFAULT_M
    gamma: float = DEFAULT_GAMMA
    kappa: float = DEFAULT_KAPPA
    sigma: float = DEFAULT_SIGMA
    fd_step: float = 1e-4
    tol: float = 1e-5
    max_iters: int = 100
    restarts: int = 3
    seed: int = 0
    init: str = "fastica"  # one of: random, fastica, given
    contrast: str = "rgv"  # one of CONTRASTS; kcc and kgv are the exact kernel oracles

    def __post_init__(self):
        if self.fd_step <= 0 or self.tol <= 0 or self.max_iters < 1 or self.restarts < 1:
            raise ValueError("fd_step and tol must be positive; max_iters, restarts >= 1")
        if self.init not in ("random", "fastica", "given"):
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
    wall_clock_seconds: float
    restart_index: int = 0
    objective_trace: tuple[float, ...] = ()

    def full_matrix(self) -> np.ndarray:
        return self.rotation @ self.whitening.matrix


@dataclass(frozen=True)
class FastICAResult:
    rotation: np.ndarray
    converged: bool
    sweeps: int


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
        base = draw_feature_map(kernel, half, 1, seed=_component_seed(config.seed, comp))
        freqs = np.vstack([base.frequencies, base.frequencies])
        phases = np.concatenate([base.phases, 2.0 * np.pi - base.phases])
        maps.append(FeatureMap(frequencies=freqs, phases=phases, seed=base.seed))
    return maps


def _component_seed(seed: int, comp: int) -> int:
    return int(np.random.SeedSequence((seed, 9001, comp)).generate_state(1)[0])


def _restart_seed(seed: int, restart: int) -> int:
    return int(np.random.SeedSequence((seed, 7310, restart)).generate_state(1)[0])


def _check_whitened(values: np.ndarray, tol: float = 1e-5) -> None:
    # Whitened data is centered here, so the covariance is taken about zero.
    cov = values @ values.T / values.shape[1]
    if np.abs(cov - np.eye(values.shape[0])).max() > tol:
        raise ValueError("optimizer input must be whitened (identity covariance)")


def make_objective(whitened: Dataset, config: OptimizerConfig):
    """The configured contrast of the components Q @ whitened, as a function of Q.

    RCC and RGV use feature maps drawn once from config.seed, so the function
    is deterministic; KCC and KGV are the exact kernel oracles.
    """
    _check_whitened(whitened.values)
    n = whitened.d
    kernel = KernelSpec(sigma=config.sigma)
    maps = draw_objective_maps(config, n) if config.contrast in ("rcc", "rgv") else None

    def objective(q: np.ndarray) -> float:
        rotated = q @ whitened.values
        parts = [Dataset(rotated[i:i + 1]) for i in range(n)]
        if config.contrast == "kcc":
            return kcc_oracle(parts, kernel, kappa=config.kappa)
        if config.contrast == "kgv":
            return kgv_oracle(parts, kernel, kappa=config.kappa)
        feats = [apply_feature_map(maps[i], parts[i]) for i in range(n)]
        if config.contrast == "rcc":
            return rcc(feats, gamma=config.gamma)
        return rgv(feats, gamma=config.gamma)

    return objective


def contrast_objective(q: np.ndarray, whitened: Dataset, config: OptimizerConfig) -> float:
    """The configured contrast of the components q @ whitened."""
    return make_objective(whitened, config)(q)


def finite_diff_gradient(q: np.ndarray, whitened: Dataset,
                         config: OptimizerConfig) -> np.ndarray:
    """Central differences along each plane generator at q, step config.fd_step."""
    return _fd_gradient(make_objective(whitened, config), q, config.fd_step)


def _fd_gradient(objective, q: np.ndarray, step: float) -> np.ndarray:
    """Slope of f(exp(h E_ij) q) at h = 0 per plane (i, j), lexicographic order."""
    n = q.shape[0]
    planes = zip(*np.triu_indices(n, 1))
    return np.array([(objective(plane_rotation(n, i, j, step) @ q)
                      - objective(plane_rotation(n, i, j, -step) @ q)) / (2.0 * step)
                     for i, j in planes])


def descend(objective, start: np.ndarray, fd_step: float, tol: float,
            max_iters: int) -> tuple[np.ndarray, float, int, list[float]]:
    """Gradient descent on O(n) with backtracking (halving) Armijo line search.

    Returns (rotation, value, iterations, accepted-value trace). Raises
    NoProgress if the very first line search fails to find a decrease.
    """
    q = np.array(start, dtype=float)
    n = q.shape[0]
    value = objective(q)
    trace = [value]
    step0 = 1.0
    for iteration in range(1, max_iters + 1):
        grad = _fd_gradient(objective, q, fd_step)
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
            if iteration == 1:
                raise NoProgress("first line search found no decrease")
            return q, value, iteration - 1, trace
        improvement = value - cand_value
        q, value = candidate, cand_value
        trace.append(value)
        step0 = min(1.0, step * 2.0)  # reuse the last scale, allow growth
        if improvement < tol:
            return q, value, iteration, trace
    return q, value, max_iters, trace


def fastica_baseline(whitened: Dataset, seed: int, tol: float = 1e-6,
                     max_sweeps: int = 200) -> FastICAResult:
    """Deflation FastICA with the tanh nonlinearity on whitened data.

    Each unit is re-orthonormalized against the previously extracted units on
    every sweep; the final matrix is polished to exact orthogonality via its
    polar factor. Returns the best iterate with converged=False if any unit
    fails to converge within max_sweeps.
    """
    x = whitened.values
    n, n_samples = x.shape
    rng = np.random.default_rng(seed)
    w_all = np.zeros((n, n))
    converged = True
    total_sweeps = 0
    for unit in range(n):
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        unit_converged = False
        for sweep in range(1, max_sweeps + 1):
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
            if delta < tol:
                unit_converged = True
                break
        total_sweeps += sweep
        if not unit_converged:
            converged = False
        w_all[unit] = w
    u_mat, _, vt_mat = np.linalg.svd(w_all)
    rotation = u_mat @ vt_mat
    return FastICAResult(rotation=rotation, converged=converged, sweeps=total_sweeps)


def _start(whitened: Dataset, config: OptimizerConfig, restart: int,
           init_rotation: np.ndarray | None) -> np.ndarray:
    n = whitened.d
    if restart == 0 and config.init == "given":
        if init_rotation is None:
            raise ValueError("init='given' requires init_rotation")
        q = np.asarray(init_rotation, dtype=float)
        if q.shape != (n, n):
            raise DimensionMismatch(f"init_rotation must be {n}x{n}, got {q.shape}")
        if not np.allclose(q @ q.T, np.eye(n), atol=1e-8):
            raise ValueError("init_rotation must be orthogonal")
        return q
    if restart == 0 and config.init == "fastica":
        return fastica_baseline(whitened, seed=_restart_seed(config.seed, 0)).rotation
    # Haar-distributed on O(n): QR of a Gaussian matrix, signs fixed by diag(R).
    rng = np.random.default_rng(_restart_seed(config.seed, restart))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def minimize_contrast(whitened: Dataset, config: OptimizerConfig,
                      whitening: WhiteningTransform | None = None,
                      init_rotation: np.ndarray | None = None) -> UnmixingModel:
    """Run `restarts` descents from different starts; keep the lowest contrast.

    The first start honors config.init; later restarts are random. The
    objective is one fixed deterministic function for the whole run (RCC/RGV
    feature maps are drawn once from config.seed and shared by every restart).
    """
    if whitening is None:
        n = whitened.d
        whitening = WhiteningTransform(mean=np.zeros(n), matrix=np.eye(n))
    objective = make_objective(whitened, config)
    t_start = time.perf_counter()
    best = None
    failures = 0
    for restart in range(config.restarts):
        start = _start(whitened, config, restart, init_rotation)
        try:
            q, value, iters, trace = descend(objective, start, config.fd_step,
                                             config.tol, config.max_iters)
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
        wall_clock_seconds=time.perf_counter() - t_start,
        restart_index=restart,
        objective_trace=tuple(trace),
    )
