"""16-bit PCM mono WAV input/output and the two-channel separation demo."""

from __future__ import annotations

import time
import wave
from dataclasses import asdict, dataclass, replace

import numpy as np

from .contrast_engine import KERNEL_ORACLE_LIMIT
from .data_model import Dataset, random_mixing_matrix
from .errors import DegenerateCovariance, MalformedInput, RateMismatch, TooShort
from .evaluation import COND_RANGE, ExperimentRecord, amari_distance, fit_unmixing
from .optimizer import KERNEL_CONTRASTS, OptimizerConfig, derive_seed

MIN_SAMPLES = 1000
DEFAULT_FIT_SAMPLES = 8000


@dataclass(frozen=True)
class AudioClip:
    """Mono audio in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).reshape(-1)
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not np.isfinite(samples).all():
            raise ValueError("audio contains non-finite samples")
        object.__setattr__(self, "samples", samples)


def read_wav(path) -> AudioClip:
    """Read a 16-bit PCM mono little-endian WAV file bit-exactly.

    Raises MalformedInput for any other file.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            if handle.getnchannels() != 1:
                raise MalformedInput(f"{path}: only mono WAV is supported "
                                     f"(got {handle.getnchannels()} channels)")
            if handle.getsampwidth() != 2:
                raise MalformedInput(f"{path}: only 16-bit PCM is supported "
                                     f"(got {8 * handle.getsampwidth()}-bit samples)")
            frames = handle.readframes(handle.getnframes())
            rate = handle.getframerate()
    except (wave.Error, EOFError) as exc:
        raise MalformedInput(f"{path}: not a PCM WAV file ({exc})") from exc
    ints = np.frombuffer(frames, dtype="<i2")
    return AudioClip(samples=ints.astype(float) / 32768.0, sample_rate_hz=rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write 16-bit PCM mono; the 1/32768 scale mirrors read_wav, so
    read -> write and write -> read round-trip bit-exactly."""
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(clip.sample_rate_hz)
        handle.writeframes(ints.tobytes())


def _standardize(samples: np.ndarray) -> np.ndarray:
    centered = samples - samples.mean()
    std = centered.std()
    if std < 1e-12:
        raise DegenerateCovariance("silent clip cannot be separated")
    return centered / std


def _fit_stride(n_total: int, fit_samples: int) -> slice:
    stride = max(1, n_total // fit_samples)
    return slice(0, stride * fit_samples, stride)


def separate_audio(clips: tuple[AudioClip, AudioClip], config: OptimizerConfig,
                   already_mixed: bool = False,
                   fit_samples: int = DEFAULT_FIT_SAMPLES,
                   ) -> tuple[tuple[AudioClip, AudioClip], ExperimentRecord]:
    """Separate two channels by the fit `config`; returns the unmixed clips and a record.

    The mixing and the fit derive their seeds from `config.seed`. When
    `already_mixed` is false the inputs are treated as clean sources and mixed
    with a seeded random matrix (condition number in COND_RANGE) so the true
    unmixing is known and an Amari distance can be recorded; otherwise the
    inputs are used as-is and the record's amari is None.

    The unmixing matrix is estimated on at most `fit_samples` evenly strided
    samples (cost control; the contrasts are stationary in time), then applied
    to the full-length clips; the kernel oracles use at most
    KERNEL_ORACLE_LIMIT of them. Output clips are rescaled to peak 0.9.
    """
    if config.contrast in KERNEL_CONTRASTS:
        fit_samples = min(fit_samples, KERNEL_ORACLE_LIMIT)
    a, b = clips
    if a.sample_rate_hz != b.sample_rate_hz:
        raise RateMismatch(f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}")
    n_total = min(a.samples.shape[0], b.samples.shape[0])
    if n_total < MIN_SAMPLES:
        raise TooShort(f"need at least {MIN_SAMPLES} samples, got {n_total}")
    channels = np.vstack([_standardize(a.samples[:n_total]),
                          _standardize(b.samples[:n_total])])

    true_unmixing = None
    if already_mixed:
        mixed_full = channels
    else:
        a_mat = random_mixing_matrix(2, *COND_RANGE, seed=derive_seed(config.seed, 11))
        mixed_full = a_mat @ channels
        true_unmixing = np.linalg.inv(a_mat)

    fit_data = Dataset(mixed_full[:, _fit_stride(n_total, fit_samples)])
    t_start = time.perf_counter()
    try:
        full, _, _ = fit_unmixing(fit_data, replace(config, seed=derive_seed(config.seed, 12)))
    except DegenerateCovariance as exc:
        raise DegenerateCovariance(
            "mixed channels are linearly dependent (identical sources?)"
        ) from exc
    runtime = time.perf_counter() - t_start

    unmixed = full @ (mixed_full - mixed_full.mean(axis=1, keepdims=True))
    outputs = []
    for row in unmixed:
        peak = np.abs(row).max()
        outputs.append(AudioClip(0.9 * row / peak if peak > 0 else row, a.sample_rate_hz))
    amari = None if true_unmixing is None else amari_distance(full, true_unmixing)
    record = ExperimentRecord(
        source_labels=("audio1", "audio2"), N=n_total, method=config.contrast.upper(),
        seed=config.seed, amari=amari, runtime_seconds=runtime,
        config={**asdict(config), "fit_samples": fit_samples, "already_mixed": already_mixed},
    )
    return (outputs[0], outputs[1]), record
