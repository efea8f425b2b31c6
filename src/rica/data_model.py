"""Datasets, whitening, controlled random mixing, and outlier injection.

Conventions used throughout the package:
  - rows are components/dimensions, columns are samples (a dataset is d x N);
  - empirical covariances divide by N (matching the (1/N) sum convention of
    the contrast definitions), not N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CountTooLarge, DegenerateCovariance, DimensionMismatch, InvalidRange,
                     MalformedInput)

EIGEN_FLOOR = 1e-12  # relative eigenvalue floor of a full-rank covariance


@dataclass(frozen=True)
class Dataset:
    """A d x N matrix of samples: rows are dimensions/components, columns samples.

    It holds a read-only copy of the values it is given, so the caller's
    array stays writeable and later writes to it do not reach the dataset.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")
        if v.ndim != 2:
            raise DimensionMismatch(f"dataset must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch(f"dataset needs d >= 1 and N >= 1, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("dataset contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WhiteningTransform:
    """Affine map x -> matrix @ (x - mean) that decorrelates the fitted data.

    `matrix` is the symmetric positive-definite inverse square root of the
    empirical covariance, so applying the transform to the dataset it was
    fitted on gives identity covariance.
    """

    mean: np.ndarray
    matrix: np.ndarray


def whiten(data: Dataset) -> tuple[Dataset, WhiteningTransform]:
    """Center the data and map it to identity empirical covariance.

    Uses the symmetric eigendecomposition C = U diag(w) U^T of the empirical
    covariance and applies U diag(w^-1/2) U^T. An eigenvalue at or below
    ``EIGEN_FLOOR`` times the largest one signals rank deficiency.

    Raises
    ------
    DegenerateCovariance
        If any covariance eigenvalue <= EIGEN_FLOOR * largest eigenvalue.
    """
    if data.N < 2:
        raise DegenerateCovariance("whitening needs at least two samples")
    mean = data.values.mean(axis=1)
    centered = data.values - mean[:, None]
    cov = (centered @ centered.T) / data.N
    w, eigvecs = np.linalg.eigh(cov)
    if w[-1] <= 0 or np.any(w <= EIGEN_FLOOR * w[-1]):
        raise DegenerateCovariance(
            f"covariance eigenvalues {w} fall at/below relative floor {EIGEN_FLOOR}"
        )
    matrix = (eigvecs / np.sqrt(w)) @ eigvecs.T
    whitened = Dataset(matrix @ centered)
    return whitened, WhiteningTransform(mean=mean, matrix=matrix)


def random_mixing_matrix(n: int, cond_min: float, cond_max: float, seed: int) -> np.ndarray:
    """Draw A = U diag(s) V^T with a condition number uniform in [cond_min, cond_max].

    U and V come from QR orthonormalization of seeded Gaussian matrices. The
    singular-value ratio s_max/s_min equals a condition number drawn uniformly
    from the requested interval; interior singular values are log-uniform
    between the extremes, and A is scaled so its largest singular value is 1.
    """
    if n < 1:
        raise InvalidRange(f"n must be >= 1, got {n}")
    if cond_min < 1 or cond_min > cond_max:
        raise InvalidRange(f"need 1 <= cond_min <= cond_max, got [{cond_min}, {cond_max}]")
    rng = np.random.default_rng(seed)
    cond = float(rng.uniform(cond_min, cond_max))
    u_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if n == 1:
        singulars = np.array([1.0])  # a 1x1 matrix cannot realize any other ratio
    else:
        log_c = np.log(cond)
        interior = np.exp(rng.uniform(0.0, log_c, size=n - 2)) if n > 2 else np.empty(0)
        # Pin the extremes so the realized ratio is exactly `cond`; scale to s_max = 1.
        singulars = np.sort(np.concatenate([[1.0, cond], interior]))[::-1] / cond
    return (u_mat * singulars) @ v_mat.T


def mix(sources: Dataset, a_mat: np.ndarray) -> Dataset:
    """Apply the mixing matrix: output values = A @ sources.values."""
    if a_mat.shape[0] != a_mat.shape[1] or a_mat.shape[1] != sources.d:
        raise DimensionMismatch(
            f"mixing matrix {a_mat.shape} incompatible with {sources.d} source rows"
        )
    return Dataset(a_mat @ sources.values)


def inject_outliers(data: Dataset, count: int, magnitude: float, seed: int) -> Dataset:
    """Perturb `count` distinct entries by +/- magnitude, each sign with prob 1/2.

    Entries are chosen uniformly without replacement over the flattened d*N
    grid; everything is deterministic given the seed.
    """
    total = data.d * data.N
    if count < 0 or count > total:
        raise CountTooLarge(f"count {count} outside [0, {total}]")
    if count == 0:
        return data
    rng = np.random.default_rng(seed)
    flat_idx = rng.choice(total, size=count, replace=False)
    signs = rng.choice([-1.0, 1.0], size=count)
    values = data.values.copy()
    values.flat[flat_idx] += signs * magnitude
    return Dataset(values)


def dataset_to_csv(data: Dataset, path, comment: str | None = None) -> None:
    """Write one row per dimension, full double precision (shortest round-trip)."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for row in data.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def dataset_from_csv(path) -> Dataset:
    """Read one row per dimension, skipping blank and `#` lines.

    Raises MalformedInput for a token that is not a finite number, or rows
    of different lengths.
    """
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise MalformedInput(f"{path}, line {number}: {exc}") from exc
            if not all(math.isfinite(x) for x in row):
                raise MalformedInput(f"{path}, line {number}: non-finite entry")
            if rows and len(row) != len(rows[0]):
                raise MalformedInput(f"{path}, line {number}: {len(row)} entries, "
                                     f"the first row has {len(rows[0])}")
            rows.append(row)
    return Dataset(np.array(rows))
