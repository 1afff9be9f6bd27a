"""Mono 16 kHz 16-bit PCM WAV I/O and sample-domain slicing primitives.

Everything downstream works on `Waveform` objects: float samples nominally
in [-1, 1] at one fixed rate, 16 kHz (a class constant, not a field). 16-bit
PCM is held as float32, which stores it exactly; computations run in float64.
Resampling and multi-channel audio are deliberately unsupported.
"""
from __future__ import annotations

import logging
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import AudioFormatError, NonFiniteError

SAMPLE_RATE = 16000
_PCM_SCALE = 32768.0  # 16-bit full scale; +32767 reads back as 32767/32768

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Waveform:
    """A mono 16 kHz audio signal: its native float32 or float64 samples; any other dtype is widened to float64."""

    samples: np.ndarray
    sample_rate: ClassVar[int] = SAMPLE_RATE

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)  # a byte-swapped float is not native, so it is widened
        samples = np.ascontiguousarray(samples, samples.dtype if samples.dtype in (np.float32, np.float64) else np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if samples.size and not np.isfinite(samples).all():
            raise NonFiniteError("waveform contains NaN or Inf samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


def read_wav(path: str | Path) -> Waveform:
    """Read a mono 16-bit PCM WAV at 16 kHz, scaling samples by 1/32768.

    A data chunk shorter than its header declares is refused, not read as a
    shorter file."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sample_width = wf.getsampwidth()
            rate = wf.getframerate()
            comp = wf.getcomptype()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: not a PCM WAV file ({exc})") from exc
    if comp != "NONE":
        raise AudioFormatError(f"{path}: compressed WAV ({comp}) is unsupported")
    if n_channels != 1:
        raise AudioFormatError(f"{path}: {n_channels} channels, only mono is supported")
    if sample_width != 2:
        raise AudioFormatError(f"{path}: {8 * sample_width}-bit depth, only 16-bit is supported")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: sample rate {rate}, only {SAMPLE_RATE} Hz is supported")
    if len(raw) != 2 * n_frames:  # a data chunk cut short, maybe mid-sample
        raise AudioFormatError(f"{path}: truncated data chunk ({n_frames} frames declared, {len(raw) / 2:g} present)")
    pcm = np.frombuffer(raw, dtype="<i2")
    # one pass over the samples; exact in float32, as the scale is a power of two
    return Waveform(np.multiply(pcm, 1.0 / _PCM_SCALE, dtype=np.float32))


def write_wav(path: str | Path, w: Waveform) -> int:
    """Write a 16-bit PCM WAV. Out-of-range samples are clipped to [-1, 1).

    Round trip through `read_wav` reproduces in-range samples to within one
    quantization step (1/32768). Returns the number of clipped samples,
    which is also logged once the file is written.
    """
    hi = 32767.0 / _PCM_SCALE
    clipped = int(np.count_nonzero((w.samples < -1.0) | (w.samples > hi)))
    pcm = np.rint(np.clip(w.samples, -1.0, hi) * _PCM_SCALE).astype("<i2")
    try:
        # opened here: a `wave.Wave_write` whose own open fails prints a traceback when collected
        with open(path, "wb") as f, wave.open(f, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(SAMPLE_RATE)
            wf.writeframes(pcm.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
    if clipped:
        log.warning("write_wav(%s): clipped %d out-of-range samples", path, clipped)
    return clipped


def slice_pad(w: Waveform, start: int, length: int) -> Waveform:
    """Return `length` samples starting at `start`, zero-padded outside [0, len).

    Equivalent to slicing an infinitely zero-extended signal; `start` may be
    negative and the requested range may extend past the end.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    out = np.zeros(length, dtype=np.float64)
    lo = max(start, 0)
    hi = min(start + length, len(w))
    if hi > lo:
        out[lo - start : hi - start] = w.samples[lo:hi]
    return Waveform(out)
