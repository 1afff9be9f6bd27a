"""Conditioning features: log-mel spectrograms and pooled speaker embeddings.

The mel extractor is fixed to the codec's 62.5 Hz frame rate: hop 256 at
16 kHz, window 1024, n_fft 1024, periodic Hann, no center padding, 128
HTK-style triangular filters spanning 0-8000 Hz, natural log with a 1e-5
power floor.

The speaker encoder, a deterministic stand-in for a learned model, takes
that log-mel, not audio, so one mel serves both conditions: statistics
pooling (per-bin mean and std over time), one fixed random projection to
192 dims that every caller shares, and L2 normalization.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio_io import SAMPLE_RATE, Waveform
from .codec import HOP
from .errors import NonFiniteError

N_FFT = 1024
WIN_LENGTH = 1024
HOP_LENGTH = HOP
N_MELS = 128
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-5
SPK_DIM = 192


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """(N_MELS, n_fft//2 + 1) triangular filters, unit peak, HTK mel spacing.

    At 128 bins over 0-8 kHz the lowest triangles rise and fall over less
    than one FFT bin (15.625 Hz) each, so their peaks fall between bin
    centers; every filter still covers at least one bin, and the smallest
    sampled peak is 0.57.
    """
    n_bins = N_FFT // 2 + 1
    bin_hz = np.arange(n_bins) * (SAMPLE_RATE / N_FFT)
    mel_pts = np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    rising = (bin_hz[None, :] - hz_pts[:-2, None]) / (hz_pts[1:-1] - hz_pts[:-2])[:, None]
    falling = (hz_pts[2:, None] - bin_hz[None, :]) / (hz_pts[2:] - hz_pts[1:-1])[:, None]
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


@lru_cache(maxsize=1)
def _hann_window() -> np.ndarray:
    # Periodic Hann: 0.5 - 0.5*cos(2*pi*n/N)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WIN_LENGTH) / WIN_LENGTH)
    w.flags.writeable = False
    return w


def frame_count(n_samples: int) -> int:
    """Number of mel frames for an n-sample input: (n - win)//hop + 1, 0 if n < win."""
    if n_samples < WIN_LENGTH:
        return 0
    return (n_samples - WIN_LENGTH) // HOP_LENGTH + 1


def mel_spectrogram(w: Waveform) -> np.ndarray:
    """Log-mel matrix of shape (T, 128), T = frame_count(len(w)).

    STFT power -> mel filterbank -> log(max(power, 1e-5)). Frames start at
    sample t*hop with no center padding, so the signal must cover at least
    one window.
    """
    n = len(w)
    if n < WIN_LENGTH:
        raise ValueError(f"input too short for mel extraction: {n} < {WIN_LENGTH} samples")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, WIN_LENGTH)[::HOP_LENGTH]
    spectrum = np.fft.rfft(frames * _hann_window(), n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_power = power @ mel_filterbank().T
    return np.log(np.maximum(mel_power, LOG_FLOOR))


@lru_cache(maxsize=1)
def speaker_projection() -> np.ndarray:
    """The fixed (192, 256) projection, Glorot-uniform from `default_rng(0)`."""
    limit = np.sqrt(6.0 / (SPK_DIM + 2 * N_MELS))
    rng = np.random.default_rng(0)
    proj = rng.uniform(-limit, limit, size=(SPK_DIM, 2 * N_MELS))
    proj.flags.writeable = False
    return proj


def speaker_embedding(mel: np.ndarray) -> np.ndarray:
    """192-dim unit-norm speaker vector of a (T >= 1, 128) log-mel, as
    `mel_spectrogram` returns: [per-bin mean; per-bin std over time] (256
    dims) through the fixed projection, L2-normalized. Deterministic."""
    if not isinstance(mel, np.ndarray) or mel.ndim != 2 or mel.shape[0] < 1 or mel.shape[1] != N_MELS:
        got = getattr(mel, "shape", type(mel).__name__)
        raise ValueError(f"speaker embedding needs a (T >= 1, {N_MELS}) log-mel, got {got}")
    if not np.isfinite(mel).all():
        raise NonFiniteError("log-mel contains NaN or Inf")
    pooled = np.concatenate([mel.mean(axis=0), mel.std(axis=0)])
    raw = speaker_projection() @ pooled
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise ValueError("degenerate input: speaker embedding has zero norm")
    return raw / norm
