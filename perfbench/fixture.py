"""Write one run's inputs: the converter checkpoint and, for the stream
workloads, the source and reference WAVs.

Runs in its own process so that building the model does not count in the
workload process's peak memory. Everything is derived from the seed.

    PYTHONPATH=src python3 perfbench/fixture.py --workload NAME --seed N --seconds S --work DIR
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import spec
from latentvc import ConverterConfig, Waveform, init_params, save_params, synth_pair, write_wav

# The seeded init closes every residual gate, which makes each block an
# identity. Small non-zero adaptive-norm output weights open the gates, so
# attention and FFN results reach the output and the correctness check sees
# them, at the same compute cost.
GATE_SCALE = 0.02

# Source audio per second of run time: enough for chunks down to 20 ms each.
SOURCE_S_PER_RUN_S = 6.0

SMOKE_CONFIG = dict(d_model=32, n_layers=2, n_heads=2, d_head=16, ffn_ratio=2)


def converter_config(smoke: bool) -> ConverterConfig:
    return ConverterConfig(**SMOKE_CONFIG) if smoke else ConverterConfig()


def write_checkpoint(path: Path, cfg: ConverterConfig, seed: int) -> None:
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for name, t in params.tensors.items():
        if name.endswith("adaln.w2") or name.endswith("adaln.b2"):
            params.tensors[name] = (rng.standard_normal(t.shape) * GATE_SCALE).astype(t.dtype)
    save_params(path, params)


def write_stream_inputs(work: Path, seed: int, seconds: float, reference_s: float) -> list[float]:
    """Source and reference WAVs from two unrelated synthetic pairs; returns synth_pair times in ms."""
    rng = np.random.default_rng([seed, 2])
    content_src, content_ref = (int(x) for x in rng.integers(0, 2**31, size=2))
    spk = [int(x) for x in rng.choice(10_000, size=4, replace=False)]
    synth_ms = []
    t0 = time.perf_counter()
    pair = synth_pair(content_src, spk[0], spk[1], max(seconds * SOURCE_S_PER_RUN_S, 4.8))
    synth_ms.append((time.perf_counter() - t0) * 1000.0)
    write_wav(work / "source.wav", pair.generated)
    t0 = time.perf_counter()
    ref_pair = synth_pair(content_ref, spk[2], spk[3], max(reference_s, 4.8))
    synth_ms.append((time.perf_counter() - t0) * 1000.0)
    n_ref = int(round(reference_s * 16000))
    write_wav(work / "reference.wav", Waveform(ref_pair.real.samples[:n_ref]))
    return synth_ms


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    w = spec.WORKLOADS[args.workload]
    write_checkpoint(work / "converter.ckpt", converter_config(args.smoke), args.seed)
    info = {}
    if w["kind"] == "stream":
        info["synth_pair_ms"] = write_stream_inputs(work, args.seed, args.seconds, w["reference_s"])
    (work / "fixture.json").write_text(json.dumps(info))


if __name__ == "__main__":
    main()
