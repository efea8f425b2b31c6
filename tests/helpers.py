"""Helpers that only the tests use."""

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from rica.audio import AudioClip


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """Covariance with the 1/N convention, about the empirical mean."""
    centered = values - values.mean(axis=1, keepdims=True)
    return (centered @ centered.T) / values.shape[1]


def synthetic_tone(frequency_hz: float, seconds: float, rate_hz: int = 8000,
                   amplitude: float = 0.8, phase: float = 0.0) -> AudioClip:
    t = np.arange(int(round(seconds * rate_hz))) / rate_hz
    return AudioClip(amplitude * np.sin(2.0 * np.pi * frequency_hz * t + phase), rate_hz)


def rho(eigenvalues: np.ndarray) -> float:
    """Largest canonical correlation of a normalized pencil, from its
    descending eigenvalues, clipped to [0, 1]."""
    return float(np.clip(eigenvalues[0] - 1.0, 0.0, 1.0))


def chebyshev_rows(basis, components: np.ndarray) -> np.ndarray:
    """The (n d, N) stack of T_1..T_d(y_i / radius) over the rows y_i of an
    (n, N) array, d the basis's degree, from numpy's Chebyshev-Vandermonde
    matrix: rows i d .. (i + 1) d - 1 belong to component i."""
    rows = chebvander(components / basis.radius, basis.degree)[..., 1:]  # (n, N, d)
    return rows.swapaxes(1, 2).reshape(-1, components.shape[1])
