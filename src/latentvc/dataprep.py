"""Training-data construction: synthetic content-matched pairs, role
assignment, and segment cropping.

A real pseudo-pair generator (an offline conversion model producing the
"generated" side) is out of scope; `synth_pair` stands in for it with a
deterministic toy: a seeded multi-tone content signal rendered through two
per-speaker linear spectral transforms. The two renderings share content
and timing exactly, which is what the cropping logic relies on. The content
is transformed once per pair, at the least 5-smooth length at or above its
own, so that no pair length falls back to a Bluestein FFT.

Role assignment decides which side of a pair acts as source vs target:
standard trains generated -> real, reconstruction trains real -> itself,
reversed trains real -> generated. Modes are drawn by inverse-CDF sampling
in that fixed order.

Cropping removes the chosen target segment from the target utterance before
conditioning features are computed from the remainder, so the model cannot
copy the answer out of its own conditioning signal.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .audio_io import SAMPLE_RATE, Waveform
from .codec import HOP

SEGMENT_SAMPLES = 38400  # 2.4 s at 16 kHz
MIN_PAIR_DURATION_S = 4.8

_TONE_CENTERS_HZ = (125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0)
_TONE_AMP = 0.15
_BAND_EDGES_HZ = (500.0, 1500.0, 4000.0)  # splits 0..8000 into 4 bands
_TILT_PIVOT_HZ = 707.0  # roughly the log-midpoint of the band


class RoleMode(enum.Enum):
    STANDARD = "standard"
    RECONSTRUCTION = "reconstruction"
    REVERSED = "reversed"


@dataclass(frozen=True)
class RoleProbs:
    p_std: float = 0.4
    p_recon: float = 0.2
    p_rev: float = 0.4

    def __post_init__(self) -> None:
        if not np.isfinite((self.p_std, self.p_recon, self.p_rev)).all():
            raise ValueError("mode probabilities must be finite")
        if min(self.p_std, self.p_recon, self.p_rev) < 0:
            raise ValueError("mode probabilities must be >= 0")
        total = self.p_std + self.p_recon + self.p_rev
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mode probabilities must sum to 1, got {total}")


@dataclass(frozen=True)
class UtterancePair:
    """A real utterance and its same-content different-speaker rendering."""

    real: Waveform
    generated: Waveform

    def __post_init__(self) -> None:
        if len(self.real) != len(self.generated):
            raise ValueError(
                f"pair must be content-aligned with equal lengths, got {len(self.real)} and {len(self.generated)}"
            )


@dataclass(frozen=True)
class TrainingExample:
    source_seg: Waveform
    target_seg: Waveform
    cond_wave: Waveform
    mode: RoleMode
    segment_start: int


def _content_signal(content_seed: int, n: int) -> np.ndarray:
    """Sum of seeded band-limited tones with slow seeded amplitude envelopes."""
    rng = np.random.default_rng([content_seed, 0])
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    x = np.zeros(n, dtype=np.float64)
    for center in _TONE_CENTERS_HZ:
        f = center * 2.0 ** rng.uniform(-0.2, 0.2)
        f_env = rng.uniform(0.5, 2.0)
        phase_env = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        env = 0.55 + 0.45 * np.sin(2.0 * np.pi * f_env * t + phase_env)
        x += _TONE_AMP * env * np.sin(2.0 * np.pi * f * t + phase)
    return x


def _speaker_curve(freqs_hz: np.ndarray, speaker: int) -> np.ndarray:
    """Per-speaker spectral gain: 4 seeded band gains times a constant tilt,
    normalized to unit peak."""
    rng = np.random.default_rng([speaker, 1])
    band_gains = 10.0 ** rng.uniform(-1.0, 0.0, size=4)
    tilt = rng.uniform(-0.5, 0.5)
    idx = np.searchsorted(np.asarray(_BAND_EDGES_HZ), freqs_hz, side="right")
    curve = band_gains[idx] * 2.0 ** (tilt * np.log2(np.maximum(freqs_hz, 1.0) / _TILT_PIVOT_HZ))
    return curve / curve.max()


def _smooth_length(n: int) -> int:
    """The least m >= n of the form 2^a 3^b 5^c: an FFT length that pocketfft
    factors into small radices, where a length with a large prime factor
    would fall back to Bluestein's chirp-z transform."""
    best = 1 << (n - 1).bit_length()
    odd = 1  # 3^b 5^c, for each of which the least power of 2 is taken
    while odd < best:
        odd35 = odd
        while odd35 < best:
            best = min(best, odd35 << (-(-n // odd35) - 1).bit_length())
            odd35 *= 3
        odd *= 5
    return best


def synth_pair(content_seed: int, speaker_a: int, speaker_b: int, duration_s: float) -> UtterancePair:
    """Make a content-matched pair: the same seeded signal rendered as
    speaker_a (the "real" side) and as speaker_b (the "generated" side).

    The content of n samples is transformed once, zero-padded to m, the
    least 5-smooth length >= n; each side is that spectrum times its
    speaker's curve, transformed back at m and cut to its first n samples.
    Where n is 5-smooth, m = n and nothing is padded.

    Everything is deterministic in (content_seed, speaker ids), and the two
    outputs are sample-aligned by construction.
    """
    if not (np.isfinite(duration_s) and duration_s >= MIN_PAIR_DURATION_S):
        raise ValueError(f"duration_s must be finite and >= {MIN_PAIR_DURATION_S}, got {duration_s}")
    n = int(round(duration_s * SAMPLE_RATE))
    m = _smooth_length(n)
    spectrum = np.fft.rfft(_content_signal(content_seed, n), n=m)
    freqs = np.fft.rfftfreq(m, d=1.0 / SAMPLE_RATE)
    real, generated = (np.fft.irfft(spectrum * _speaker_curve(freqs, s), n=m)[:n] for s in (speaker_a, speaker_b))
    return UtterancePair(real=Waveform(real), generated=Waveform(generated))


def sample_mode(probs: RoleProbs, rng: np.random.Generator) -> RoleMode:
    """Inverse-CDF draw in the fixed order standard, reconstruction, reversed."""
    u = rng.random()
    if u < probs.p_std:
        return RoleMode.STANDARD
    if u < probs.p_std + probs.p_recon:
        return RoleMode.RECONSTRUCTION
    return RoleMode.REVERSED


def assign_roles(pair: UtterancePair, mode: RoleMode) -> tuple[Waveform, Waveform]:
    """Map a pair to (source, target) per the mode. No audio is altered."""
    if mode is RoleMode.STANDARD:
        return pair.generated, pair.real
    if mode is RoleMode.RECONSTRUCTION:
        return pair.real, pair.real
    return pair.real, pair.generated


def make_example(
    source_utt: Waveform,
    target_utt: Waveform,
    rng: np.random.Generator,
    mode: RoleMode = RoleMode.STANDARD,
) -> TrainingExample:
    """Crop a training example at a random hop-aligned segment start.

    The target segment is the supervision target; the condition waveform is
    the target utterance with that segment excised, so conditioning never
    contains the segment to be predicted. The source segment is the
    time-corresponding slice of the source utterance (pairs are
    sample-aligned). `mode` only annotates the example.
    """
    n_tgt = len(target_utt)
    n_src = len(source_utt)
    if n_src < SEGMENT_SAMPLES or n_tgt < SEGMENT_SAMPLES:
        raise ValueError(f"utterance too short: need >= {SEGMENT_SAMPLES} samples for a segment")
    if n_tgt < 2 * SEGMENT_SAMPLES:
        raise ValueError(
            f"target utterance too short: need >= {2 * SEGMENT_SAMPLES} samples so a usable "
            "condition remains after excision"
        )
    max_start = min(n_src, n_tgt) - SEGMENT_SAMPLES
    start = int(rng.integers(0, max_start // HOP + 1)) * HOP
    tgt = target_utt.samples
    return TrainingExample(
        source_seg=Waveform(source_utt.samples[start : start + SEGMENT_SAMPLES].copy()),
        target_seg=Waveform(tgt[start : start + SEGMENT_SAMPLES].copy()),
        cond_wave=Waveform(np.concatenate([tgt[:start], tgt[start + SEGMENT_SAMPLES :]])),
        mode=mode,
        segment_start=start,
    )
