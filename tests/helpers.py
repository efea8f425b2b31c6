"""Helpers that only the tests use."""

import numpy as np

from rica.audio import AudioClip
from rica.contrast_engine import PencilSpectrum


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """Covariance with the 1/N convention, about the empirical mean."""
    centered = values - values.mean(axis=1, keepdims=True)
    return (centered @ centered.T) / values.shape[1]


def synthetic_tone(frequency_hz: float, seconds: float, rate_hz: int = 8000,
                   amplitude: float = 0.8, phase: float = 0.0) -> AudioClip:
    t = np.arange(int(round(seconds * rate_hz))) / rate_hz
    return AudioClip(amplitude * np.sin(2.0 * np.pi * frequency_hz * t + phase), rate_hz)


def rho(spectrum: PencilSpectrum) -> float:
    """Largest canonical correlation of a normalized pencil, clipped to [0, 1]."""
    return float(np.clip(spectrum.eigenvalues[0] - 1.0, 0.0, 1.0))
