import time

import numpy as np
import pytest

from rica import audio
from helpers import synthetic_tone
from rica.audio import AudioClip, read_wav, separate_audio, write_wav
from rica.contrast_engine import kgv_oracle, rgv
from rica.data_model import Dataset
from rica.errors import DegenerateCovariance, RateMismatch, TooShort
from rica.evaluation import BenchmarkConfig
from rica.random_features import KernelSpec, apply_feature_map, draw_feature_map


def test_audio_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(np.array([np.nan]), 8000)
    with pytest.raises(ValueError):
        AudioClip(np.zeros(10), 0)


def test_wav_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ints = rng.integers(-32768, 32768, size=5000).astype("<i2")
    clip = AudioClip(ints.astype(float) / 32768.0, 16000)
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(first, clip)
    write_wav(second, read_wav(first))
    assert first.read_bytes() == second.read_bytes()
    assert read_wav(first).sample_rate_hz == 16000


def test_read_wav_rejects_stereo(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(b"\x00\x00" * 400)
    with pytest.raises(ValueError, match="mono"):
        read_wav(path)


def test_separate_audio_rate_mismatch():
    with pytest.raises(RateMismatch):
        separate_audio((synthetic_tone(440, 2.0, 8000), synthetic_tone(440, 2.0, 16000)))


def test_separate_audio_too_short():
    with pytest.raises(TooShort):
        separate_audio((synthetic_tone(440, 0.05, 8000), synthetic_tone(550, 0.05, 8000)))


def test_separate_audio_identical_clips_degenerate():
    tone = synthetic_tone(440, 2.0, 8000)
    with pytest.raises(DegenerateCovariance):
        separate_audio((tone, AudioClip(tone.samples.copy(), 8000)), seed=1)


def test_separate_audio_synthetic_tones():
    tone1 = synthetic_tone(440.0, 10.0, 8000)
    tone2 = synthetic_tone(701.0, 10.0, 8000, phase=0.9)
    (out1, out2), record = separate_audio((tone1, tone2), method="RGV", seed=3)
    assert record.amari is not None and record.amari <= 0.10
    assert out1.samples.shape[0] == tone1.samples.shape[0]
    for clip in (out1, out2):
        assert np.abs(clip.samples).max() <= 0.9 + 1e-12


def test_separate_audio_round_trip_remix():
    # re-mixing the unmixed clips with the estimated forward matrix must
    # reproduce the recorded mixtures (up to the per-clip normalizations)
    tone1 = synthetic_tone(330.0, 3.0, 8000)
    tone2 = synthetic_tone(880.0, 3.0, 8000, phase=0.4)
    (out1, out2), record = separate_audio((tone1, tone2), method="RGV", seed=9)
    # correlation-based check: each output matches one input tone almost exactly
    def best_abs_corr(out, ref):
        n = min(out.shape[0], ref.shape[0])
        return abs(np.corrcoef(out[:n], ref[:n])[0, 1])

    pairs = [[best_abs_corr(out.samples, ref.samples) for ref in (tone1, tone2)]
             for out in (out1, out2)]
    matrix = np.array(pairs)
    best = max(matrix[0, 0] * matrix[1, 1], matrix[0, 1] * matrix[1, 0])
    assert best >= (1.0 - 0.05) ** 2  # RMS mismatch within 0.05 per channel


def test_separate_audio_kernel_oracle_fits_capped_sample(monkeypatch):
    # the KGV fit uses the shared fit path on at most the oracle limit of samples
    monkeypatch.setattr(audio, "KERNEL_ORACLE_LIMIT", 300)
    clips = (synthetic_tone(440.0, 2.0, 8000), synthetic_tone(650.0, 2.0, 8000, phase=0.5))
    config = BenchmarkConfig(labels=("audio", "audio"), max_iters=3)
    _, record = separate_audio(clips, method="kgv", config=config, seed=4)
    assert record.config["fit_samples"] == 300
    assert record.amari <= 0.05


def test_separate_audio_already_mixed_has_no_amari():
    rng = np.random.default_rng(4)
    mixed1 = AudioClip(np.tanh(rng.standard_normal(4000) * 0.3), 8000)
    mixed2 = AudioClip(np.tanh(rng.standard_normal(4000) * 0.3), 8000)
    (_, _), record = separate_audio((mixed1, mixed2), seed=2, already_mixed=True)
    assert record.amari is None


def test_rgv_evaluation_beats_extrapolated_kgv_on_audio():
    # per-evaluation timing at the audio demo scale: RGV on all 5000 samples
    # against the exact KGV at its oracle cap (1000), extrapolated cubically
    tone1 = synthetic_tone(440.0, 0.625, 8000)   # 5000 samples
    tone2 = synthetic_tone(701.0, 0.625, 8000, phase=1.1)
    mixed = np.vstack([tone1.samples + 0.6 * tone2.samples,
                       0.5 * tone1.samples + tone2.samples])
    mixed = (mixed - mixed.mean(axis=1, keepdims=True)) / mixed.std(axis=1, keepdims=True)
    kernel = KernelSpec(sigma=1.0)

    maps = [draw_feature_map(kernel, 200, 1, seed=s) for s in (1, 2)]
    t0 = time.perf_counter()
    feats = [apply_feature_map(maps[i], Dataset(mixed[i:i + 1])) for i in range(2)]
    rgv(feats)
    rgv_seconds = time.perf_counter() - t0

    capped = mixed[:, ::5][:, :1000]
    t0 = time.perf_counter()
    kgv_oracle([Dataset(capped[0:1]), Dataset(capped[1:2])], kernel)
    kgv_seconds = time.perf_counter() - t0
    extrapolated = kgv_seconds * (5000 / 1000) ** 3
    assert extrapolated >= 5.0 * rgv_seconds
