"""What the benchmark measures: workloads, metrics, bounds and predictions.

This module is plain data and imports nothing heavy, so the launcher can read
it without loading numpy. `BENCHMARK.json` at the repository root is written
from it (`python3 perfbench/run.py --write-manifest`) and a test checks that
the two agree.

End-to-end metrics are reported by every workload, so they are named for the
operation ("op") that each workload repeats: one `stream_step` call on the
stream workloads, one whole training example on `train-forward`. The report
also prints them under their workload-specific names (`chunk_ms.p50`,
`example_ms.p90`, ...) together with the metrics that only exist on some
workloads (`deadline_miss_ratio`, the trainer and streaming layer timings).
"""
from __future__ import annotations

RUN_SECONDS = 30

# Real-time budget of one chunk: the default StreamConfig.current_ms.
CHUNK_BUDGET_MS = 120.0

WORKLOADS = {
    "stream-short-ref": {
        "why": (
            "0.5 s reference, 2 BLAS threads: the real-time setting; T = 150 source + 28 reference "
            "tokens, source-branch GEMMs dominate and the modulation cache hits every chunk"
        ),
        "kind": "stream",
        "reference_s": 0.5,
        "blas_threads": 2,
    },
    "stream-long-ref": {
        "why": (
            "5 s reference, 2 BLAS threads: T = 150 + 309 tokens, so the condition branch and the "
            "T x T joint attention dominate and every chunk misses the 120 ms budget at the seed"
        ),
        "kind": "stream",
        "reference_s": 5.0,
        "blas_threads": 2,
    },
    "train-forward": {
        "why": (
            "1 BLAS thread, 4.8-7.2 s pairs: every converter call has a new speaker vector and "
            "condition length, and features, dataprep and trainer do real work"
        ),
        "kind": "train",
        "blas_threads": 1,
    },
}

# name -> (unit, better, bound). Bounds are shares of the parent's median.
# On a shared 2-vCPU host the speed of whole runs drifts by 10-20% over
# minutes (the same seed repeated gives the same drift), so every timing
# metric gets the largest bound allowed. Peak memory repeats within 1%.
END_TO_END = {
    "op_ms.p50": ("ms", "lower", 0.25),
    "op_ms.p90": ("ms", "lower", 0.25),
    "audio_s_per_s": ("s/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Layer metrics that every workload measures; printed with --trace 1.
PER_LAYER = {
    "converter.call_ms.p50": ("ms", "lower"),
    "converter.call_ms.p95": ("ms", "lower"),
    "converter.first_call_ms": ("ms", "lower"),
    "converter.build_s": ("s", "lower"),
    "converter.tokens_per_call": ("count", "lower"),
    "converter.gflop_per_call": ("GFLOP", "lower"),
    "converter.weight_mb_per_call": ("MB", "lower"),
    "converter.gflops": ("GFLOP/s", "higher"),
    "codec.encode_ms.p50": ("ms", "lower"),
    "codec.decode_ms.p50": ("ms", "lower"),
    "dataprep.synth_pair_ms.p50": ("ms", "lower"),
    "audio_io.clipped_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Layer metrics that exist only on some workloads. They are printed in the
# traced run's report and written to its result file, but are not part of
# the final metrics line, which must carry the same names on every workload.
WORKLOAD_LAYER = {
    "stream": {
        "streaming.step_overhead_ms.p50": "ms",
        "streaming.init_stream_ms": "ms",
        "audio_io.read_ms": "ms",
        "audio_io.write_ms": "ms",
    },
    "train": {
        "features.mel_ms.p50": "ms",
        "features.spk_ms.p50": "ms",
        "dataprep.make_example_ms.p50": "ms",
        "trainer.assemble_ms.p50": "ms",
        "trainer.loss_ms.p50": "ms",
    },
}

# Which layer metric should move which end-to-end metric, and where. Written
# down before any optimisation is measured; see perfbench/README.md.
PREDICTIONS = [
    ("converter.call_ms.p50", "op_ms.p50 (chunk_ms.p50, example_ms.p50)", "all workloads; >95% of each op"),
    ("converter.call_ms.p95", "op_ms.p90 (chunk_ms.p95, example_ms.p90)", "all workloads"),
    ("converter.gflop_per_call", "op_ms.p50", "stream-long-ref: removing dead condition work lowers it"),
    ("converter.gflops", "op_ms.p50", "stream-short-ref: kernel or layout work raises it"),
    ("converter.first_call_ms", "op_ms.p90, deadline_miss_ratio", "stream workloads; the cold first call"),
    ("converter.build_s", "setup_s", "all workloads"),
    ("codec.encode_ms.p50", "op_ms.p50", "stream workloads; under 2% of a chunk"),
    ("codec.decode_ms.p50", "op_ms.p50", "stream workloads; under 2% of a chunk"),
    ("streaming.step_overhead_ms.p50", "op_ms.p50, audio_s_per_s", "stream workloads"),
    ("streaming.init_stream_ms", "setup_s", "stream workloads; grows with reference length"),
    ("features.mel_ms.p50", "op_ms.p50 (example_ms.p50)", "train-forward"),
    ("features.spk_ms.p50", "op_ms.p50 (example_ms.p50)", "train-forward"),
    ("dataprep.make_example_ms.p50", "op_ms.p50 (example_ms.p50)", "train-forward"),
    ("dataprep.synth_pair_ms.p50", "none", "generator time, outside every end-to-end metric"),
    ("trainer.assemble_ms.p50", "op_ms.p50 (example_ms.p50)", "train-forward"),
    ("trainer.loss_ms.p50", "op_ms.p50 (example_ms.p50)", "train-forward"),
    ("audio_io.read_ms", "setup_s", "stream workloads"),
    ("audio_io.write_ms", "none", "the streamed output is written after the timed loop"),
    ("audio_io.clipped_ratio", "none", "a count of output samples outside [-1, 1), not a timing"),
    ("per-stream reference cache", "no change on train-forward", "train-forward never repeats a reference"),
    ("threading-only gain", "no change on train-forward", "train-forward runs one BLAS thread"),
    ("reference-side optimisation", "little change on stream-short-ref", "28 of 178 tokens are reference"),
]


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()],
    }
