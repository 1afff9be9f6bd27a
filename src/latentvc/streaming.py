"""Chunkwise streaming inference over fixed analysis windows.

Each step processes one window of the source laid out as
history | current | overlap | future. The window starts at ``k*C - H``
(silence-padded before t=0 and past the end of the stream), gets one
encode -> convert -> decode pass, and only the current region is emitted.
The hop equals the current length, so each step's overlap region co-times
with the next step's first O current samples; those O samples are blended
with a cosine cross-fade to hide any seam.

Latency splits into a model part (current + overlap + future: audio the
model must wait for) and a compute part (per-chunk encode/convert/decode
wall time); history is already-received past audio and costs nothing.

`offline_run` is one step over a window holding the whole utterance. Both
take waveforms and return audio; only the command line touches files.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .audio_io import SAMPLE_RATE, Waveform, slice_pad
from .codec import CodecInterface
from .converter import ConverterFn
from .dataprep import SEGMENT_SAMPLES
from .errors import NonFiniteError
from .features import mel_spectrogram, speaker_embedding_from_mel


def _ms_to_samples(ms: float, what: str) -> int:
    exact = ms * SAMPLE_RATE / 1000.0
    if not math.isfinite(exact):
        raise ValueError(f"{what}={ms} ms is not a finite number of samples")
    n = round(exact)
    if abs(exact - n) > 1e-6:
        raise ValueError(f"{what}={ms} ms is not a whole number of samples at {SAMPLE_RATE} Hz")
    return int(n)


@dataclass(frozen=True)
class StreamConfig:
    """Window geometry in milliseconds; sample counts derive at 16 kHz.

    Defaults give a 2.4 s window, the training segment of `dataprep`, split
    2160 | 120 | 20 | 100 ms, i.e. 38400 samples = 34560 + 1920 + 320 + 1600.
    """

    window_ms: float = SEGMENT_SAMPLES * 1000.0 / SAMPLE_RATE
    current_ms: float = 120.0
    overlap_ms: float = 20.0
    future_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.current_ms < 1000.0 / SAMPLE_RATE:
            raise ValueError(f"current_ms must be at least one sample, got {self.current_ms}")
        if self.overlap_ms < 0 or self.future_ms < 0:
            raise ValueError("overlap_ms and future_ms must be >= 0")
        if self.overlap_ms > self.current_ms:
            # the overlap is blended into the head of the next current region
            raise ValueError(f"overlap_ms={self.overlap_ms} exceeds current_ms={self.current_ms}")
        if self.history_ms < 0:
            raise ValueError(
                f"window_ms={self.window_ms} too short for current+overlap+future="
                f"{self.current_ms + self.overlap_ms + self.future_ms} ms"
            )
        for name in ("window_ms", "current_ms", "overlap_ms", "future_ms"):
            _ms_to_samples(getattr(self, name), name)

    @property
    def history_ms(self) -> float:
        return self.window_ms - self.current_ms - self.overlap_ms - self.future_ms

    @property
    def window_samples(self) -> int:
        return _ms_to_samples(self.window_ms, "window_ms")

    @property
    def current_samples(self) -> int:
        return _ms_to_samples(self.current_ms, "current_ms")

    @property
    def overlap_samples(self) -> int:
        return _ms_to_samples(self.overlap_ms, "overlap_ms")

    @property
    def future_samples(self) -> int:
        return _ms_to_samples(self.future_ms, "future_ms")

    @property
    def history_samples(self) -> int:
        return self.window_samples - self.current_samples - self.overlap_samples - self.future_samples


def compute_t_model(cfg: StreamConfig) -> float:
    """Model-induced latency in ms: audio the model must see beyond each
    emitted sample. History does not count; it is already in the past."""
    return cfg.current_ms + cfg.overlap_ms + cfg.future_ms


@dataclass(frozen=True)
class LatencyReport:
    """The per-chunk (enc, convert, dec) ms records of a stream, or of
    `runs` equal-length streams joined, with the (mean) wall time and the
    source duration of one run; every figure is a view of these."""

    cfg: StreamConfig
    timings: tuple[tuple[float, float, float], ...]
    wall_s: float
    duration_s: float
    runs: int = 1

    def __post_init__(self) -> None:
        if not self.timings:
            raise ValueError("cannot build a latency report from zero chunks")
        if self.runs < 1 or len(self.timings) % self.runs != 0:
            raise ValueError(f"{len(self.timings)} chunk records do not split into {self.runs} equal runs")

    @property
    def t_model_ms(self) -> float:
        return compute_t_model(self.cfg)

    @property
    def t_compute_mean_ms(self) -> float:
        return float(np.sum(self.timings, axis=1).mean())

    @property
    def t_compute_p95_ms(self) -> float:
        return float(np.percentile(np.sum(self.timings, axis=1), 95))

    @property
    def t_enc_ms(self) -> float:
        return float(np.asarray(self.timings, dtype=np.float64)[:, 0].mean())

    @property
    def t_convert_ms(self) -> float:
        return float(np.asarray(self.timings, dtype=np.float64)[:, 1].mean())

    @property
    def t_dec_ms(self) -> float:
        return float(np.asarray(self.timings, dtype=np.float64)[:, 2].mean())

    @property
    def t_latency_ms(self) -> float:
        return self.t_model_ms + self.t_compute_mean_ms

    @property
    def chunk_count(self) -> int:
        return len(self.timings)

    @property
    def rtf(self) -> float:
        return self.wall_s / self.duration_s

    @property
    def queued_ms(self) -> np.ndarray:
        """Each chunk's latency as a listener gets it, queue included.

        Within a run, chunk k's window has arrived at a_k = (k+1)*C + O + F
        ms; the chunk starts once it has and chunk k-1 is done, so it
        finishes at f_k = max(a_k, f_{k-1}) + compute_k, and its first
        sample is heard f_k - k*C ms after it was spoken. In those terms
        q_k = max(t_model, q_{k-1} - C) + compute_k. Each run starts with an
        empty queue."""
        t_model, C = self.t_model_ms, self.cfg.current_ms
        totals = np.sum(self.timings, axis=1)
        per_run = len(totals) // self.runs
        queued, q = np.empty_like(totals), 0.0
        for k, total in enumerate(totals):
            q = max(t_model, q - C if k % per_run else -math.inf) + total
            queued[k] = q
        return queued

    @property
    def late(self) -> np.ndarray:
        """The indices of the chunks that finished after their deadline,
        f_k > a_k + C, which is q_k > t_model + C, whatever made them late."""
        return np.flatnonzero(self.queued_ms > self.t_model_ms + self.cfg.current_ms)

    def to_dict(self) -> dict:
        """The JSON payload. Besides the figures above, the per-chunk compute
        (enc + convert + dec) gives its median and maximum,
        `deadline_misses` counts the chunks whose compute took longer than
        the current region they emit, and `chunks` lists each chunk's
        [enc, convert, dec] ms in order, so the late ones can be found.
        `queued_ms` lists each chunk's queued latency in the same order,
        `t_queued_ms` gives its median and maximum, and `late_chunks`
        counts the chunks that finished after their deadline,
        f_k > a_k + C, whatever made them late."""
        totals = np.sum(self.timings, axis=1)
        queued = self.queued_ms
        return {
            "t_model_ms": self.t_model_ms,
            "t_current_ms": self.cfg.current_ms,
            "t_overlap_ms": self.cfg.overlap_ms,
            "t_future_ms": self.cfg.future_ms,
            "t_compute_ms": {
                "mean": self.t_compute_mean_ms,
                "p50": float(np.median(totals)),
                "p95": self.t_compute_p95_ms,
                "max": float(totals.max()),
                "enc": self.t_enc_ms,
                "convert": self.t_convert_ms,
                "dec": self.t_dec_ms,
            },
            "t_latency_ms": self.t_latency_ms,
            "deadline_misses": int(np.count_nonzero(totals > self.cfg.current_ms)),
            "chunk_count": self.chunk_count,
            "rtf": self.rtf,
            "chunks": [list(t) for t in self.timings],
            "queued_ms": queued.tolist(),
            "t_queued_ms": {"p50": float(np.median(queued)), "max": float(queued.max())},
            "late_chunks": len(self.late),
        }


def crossfade_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine fade-in/fade-out weight pair over n samples.

    w_in(i) = 0.5*(1 - cos(pi*(i+0.5)/n)); w_out = 1 - w_in. The half-sample
    offset keeps weights strictly inside (0, 1), so n=1 gives an even 0.5/0.5
    split.
    """
    if n < 1:
        raise ValueError(f"crossfade length must be >= 1, got {n}")
    i = np.arange(n, dtype=np.float64)
    w_in = 0.5 * (1.0 - np.cos(np.pi * (i + 0.5) / n))
    return w_in, 1.0 - w_in


def crossfade(prev_tail: np.ndarray, new_head: np.ndarray) -> np.ndarray:
    """Blend the retained overlap tail into the head of the next chunk."""
    prev_tail = np.asarray(prev_tail, dtype=np.float64)
    new_head = np.asarray(new_head, dtype=np.float64)
    if prev_tail.shape != new_head.shape or prev_tail.ndim != 1:
        raise ValueError(f"crossfade inputs must be equal-length 1-D, got {prev_tail.shape} and {new_head.shape}")
    w_in, w_out = crossfade_weights(len(prev_tail))
    return w_out * prev_tail + w_in * new_head


@dataclass
class StreamState:
    """Single-owner mutable per-stream state; steps must run sequentially."""

    cond_mel: np.ndarray
    spk: np.ndarray
    k: int = 0
    retained_tail: np.ndarray | None = None


def init_stream(reference: Waveform) -> StreamState:
    """Precompute the conditioning features from the reference once."""
    mel = mel_spectrogram(reference)
    return StreamState(cond_mel=mel, spk=speaker_embedding_from_mel(mel))


def stream_step(
    state: StreamState,
    cfg: StreamConfig,
    source: Waveform,
    k: int,
    codec: CodecInterface,
    converter: ConverterFn,
    flush: bool = False,
) -> tuple[np.ndarray, StreamState, tuple[float, float, float]]:
    """Process step k and emit exactly `current` samples; also return its
    (enc, convert, dec) ms.

    The window is source[k*C - H : k*C - H + W], zero-padded outside the
    stream. After one encode/convert/decode pass the current region is
    emitted with its first O samples cross-faded against the tail retained
    from the previous step (step 0 emits unmodified); the new overlap region
    is retained for the next step. A converter output with a NaN or Inf
    raises NonFiniteError naming step k, and a decode whose length differs
    from the window's raises ValueError, both before the state advances. The
    window must be a whole number of `codec.hop` frames.
    """
    if k != state.k:
        raise ValueError(f"stream steps must run in order: expected step {state.k}, got {k}")
    if cfg.window_samples % codec.hop != 0:
        raise ValueError(f"window of {cfg.window_samples} samples is not a multiple of the codec hop {codec.hop}")
    C = cfg.current_samples
    H = cfg.history_samples
    O = cfg.overlap_samples
    needed = k * C + C + O + cfg.future_samples
    if not flush and len(source) < needed:
        raise ValueError(
            f"insufficient input for step {k}: need {needed} samples, have {len(source)}; "
            "pass flush=True at end of stream"
        )

    window = slice_pad(source, k * C - H, cfg.window_samples)
    t0 = time.perf_counter()
    z = codec.encode(window)
    t1 = time.perf_counter()
    del window  # an offline window is the whole source: free it before decode allocates
    z_hat = converter(z, state.cond_mel, state.spk)
    if not np.isfinite(z_hat).all():
        raise NonFiniteError(f"converter output at step {k} contains non-finite values")
    t2 = time.perf_counter()
    y = codec.decode(z_hat)
    t3 = time.perf_counter()
    if len(y) != cfg.window_samples:
        raise ValueError(f"step {k} decoded {len(y)} samples from a {cfg.window_samples}-sample window")
    out = y.samples[H : H + C].copy()
    new_tail = y.samples[H + C : H + C + O].copy()
    if k >= 1 and O > 0:
        out[:O] = crossfade(state.retained_tail, out[:O])
    state.retained_tail = new_tail
    state.k = k + 1
    return out, state, ((t1 - t0) * 1000.0, (t2 - t1) * 1000.0, (t3 - t2) * 1000.0)


def stream_run(
    source: Waveform,
    reference: Waveform,
    cfg: StreamConfig,
    codec: CodecInterface,
    converter: ConverterFn,
) -> tuple[Waveform, LatencyReport]:
    """Stream the whole source through the converter.

    Conditioning features come from the reference once, up front. The final
    steps zero-pad the missing future context; the output is trimmed back to
    the source length, so durations match exactly.
    """
    n = len(source)
    if n < 1:
        raise ValueError("source must contain at least one sample")
    wall_start = time.perf_counter()
    state = init_stream(reference)
    chunks, timings = [], []
    for k in range(math.ceil(n / cfg.current_samples)):
        # the whole source is here, so there is no input to wait for
        chunk, state, t = stream_step(state, cfg, source, k, codec, converter, flush=True)
        chunks.append(chunk)
        timings.append(t)
    out = np.concatenate(chunks)[:n]
    wall_s = time.perf_counter() - wall_start
    return Waveform(out), LatencyReport(cfg, tuple(timings), wall_s, source.duration_s)


def offline_run(
    source: Waveform,
    reference: Waveform,
    codec: CodecInterface,
    converter: ConverterFn,
) -> tuple[Waveform, float]:
    """Convert the whole utterance in one pass; returns (audio, rtf).

    This is `stream_run` over one window, all of it current: the source
    zero-padded to W samples, a codec-hop multiple (W/16 ms is exact in
    binary). The step's checks of the converter output and the decode
    length name step 0."""
    W = math.ceil(max(len(source), 1) / codec.hop) * codec.hop
    ms = W * 1000.0 / SAMPLE_RATE
    out, report = stream_run(source, reference, StreamConfig(ms, ms, 0.0, 0.0), codec, converter)
    return out, report.rtf
