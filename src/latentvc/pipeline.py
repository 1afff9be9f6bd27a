"""End-to-end conversion entry points: offline single-pass, streaming, and
a repeat-run benchmark.

Offline mode encodes the whole utterance once, applies the converter once,
and decodes; there is no iterative refinement, so real-time factor is just
one pass's wall time over the audio duration. Streaming mode delegates to
the chunkwise engine. Both share conversion semantics; they differ only in
windowing, which is what the equivalence tests exercise.

The default converter is freshly initialized from the request seed (usable
and deterministic, but untrained); a checkpoint path loads trained
parameters, and `use_identity` selects the latent passthrough, which turns
either mode into a pure codec round trip. The entry points read their input
files and return the audio; they write no file.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .audio_io import Waveform, read_wav, slice_pad
from .codec import CodecInterface, toy_codec
from .converter import (
    ConverterConfig,
    ConverterFn,
    identity_converter,
    init_params,
    load_params,
    make_converter,
)
from .features import mel_spectrogram, speaker_embedding_from_mel
from .streaming import LatencyReport, StreamConfig, build_report, stream_run


@dataclass(frozen=True)
class ConvertRequest:
    source_path: str
    reference_path: str
    stream_cfg: StreamConfig = field(default_factory=StreamConfig)
    checkpoint_path: str | None = None
    seed: int = 0
    use_identity: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_path is not None and self.use_identity:
            raise ValueError("checkpoint_path and use_identity are mutually exclusive")


def load_converter(req: ConvertRequest) -> ConverterFn:
    """Resolve the request's converter: identity, checkpoint, or seeded init."""
    if req.use_identity:
        return identity_converter
    if req.checkpoint_path is not None:
        return make_converter(load_params(req.checkpoint_path))
    return make_converter(init_params(ConverterConfig(), seed=req.seed))


def offline_run(
    source: Waveform,
    reference: Waveform,
    codec: CodecInterface,
    converter: ConverterFn,
) -> tuple[Waveform, float]:
    """Single-pass conversion of the whole utterance; returns (audio, rtf).

    The source is zero-padded up to a codec-hop multiple for encoding and
    the output trimmed back, so lengths match exactly.
    """
    n = len(source)
    if n < 1:
        raise ValueError("source must contain at least one sample")
    wall_start = time.perf_counter()
    c = mel_spectrogram(reference)
    g = speaker_embedding_from_mel(c)
    padded = slice_pad(source, 0, math.ceil(n / codec.hop) * codec.hop)
    z = codec.encode(padded)
    y = codec.decode(converter(z, c, g))
    out = Waveform(y.samples[:n])
    wall_s = time.perf_counter() - wall_start
    return out, wall_s / source.duration_s


def convert_offline(req: ConvertRequest) -> tuple[Waveform, float]:
    source = read_wav(req.source_path)
    reference = read_wav(req.reference_path)
    return offline_run(source, reference, toy_codec(), load_converter(req))


def convert_streaming(req: ConvertRequest) -> tuple[Waveform, LatencyReport]:
    source = read_wav(req.source_path)
    reference = read_wav(req.reference_path)
    return stream_run(source, reference, req.stream_cfg, toy_codec(), load_converter(req))


def bench(req: ConvertRequest, repeats: int) -> tuple[Waveform, LatencyReport]:
    """Benchmark streaming conversion: one warm-up `stream_run`, then
    `repeats` measured runs pooled into a single report.

    Per-chunk timings from all measured runs feed the mean/p95 fields; rtf
    averages the per-run wall-time ratios. Audio is identical across runs,
    so the last run's output is the output.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    source = read_wav(req.source_path)
    reference = read_wav(req.reference_path)
    codec = toy_codec()
    converter = load_converter(req)

    stream_run(source, reference, req.stream_cfg, codec, converter)  # warm-up, discarded
    runs = [stream_run(source, reference, req.stream_cfg, codec, converter) for _ in range(repeats)]
    out = runs[-1][0]
    reports = [report for _, report in runs]
    mean_wall_s = float(np.mean([r.rtf for r in reports])) * source.duration_s
    report = build_report(req.stream_cfg, [t for r in reports for t in r.timings], mean_wall_s, source.duration_s)
    return out, report
