"""Run one workload in this process and write its result file.

Started by run.py with the BLAS thread count already in the environment and
with the checkout's src/ on PYTHONPATH. The program is driven only through
its public calls; in a traced run those calls are wrapped from here (see
tracing.py), through the `codec=`, `features=` and converter arguments the
program already takes.

Every workload is a closed loop: the next op starts when the previous one
returns. An op is one `stream_step` call on the stream workloads and one
training example on train-forward.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import context
import latentvc
import spec
from latentvc import (
    CodecInterface,
    RoleProbs,
    StreamConfig,
    Waveform,
    assemble_supervision,
    assign_roles,
    init_stream,
    load_params,
    loss_breakdown,
    make_converter,
    make_example,
    read_wav,
    sample_mode,
    stream_run,
    stream_step,
    synth_pair,
    toy_codec,
    write_wav,
)
from latentvc import features as lvc_features
from latentvc.dataprep import SEGMENT_SAMPLES
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
# The acceptance gate's relative tolerance (checks 05 and 06).
REL_TOL = 1e-5
# Ops recomputed by a second, separately built converter: op 0 (the cold
# first call) plus this many more drawn from the first SAMPLE_RANGE ops.
SAMPLE_EXTRA = 7
SAMPLE_RANGE = 120
# Traced runs alternate blocks of traced and untraced ops, so the tracing
# overhead is measured in the same process on the same inputs.
TRACE_BLOCK = 10
CROSSCHECK_CHUNKS = 50
PCM_HI = 32767.0 / 32768.0
PAIR_MIN_S, PAIR_MAX_S = 4.8, 7.2
DURATION_STRATA = 16


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timing_summary(values_ms: list[float]) -> dict:
    a = np.asarray(values_ms, dtype=np.float64)
    return {
        "n": int(a.size),
        "mean": float(a.mean()),
        "p50": pct(a, 50),
        "p90": pct(a, 90),
        "p95": pct(a, 95),
        "max": float(a.max()),
        "iqr": pct(a, 75) - pct(a, 25),
        "beyond_p90": int((a > pct(a, 90)).sum()),
        "beyond_p95": int((a > pct(a, 95)).sum()),
    }


def op_summary(op_ms: list[float], traced_ops: list[int], failures: list[str]) -> tuple[int, int, dict]:
    """(attempted, failed, timing summary). Failed ops are recorded as inf; a
    check that failed on an op that returned counts once. The timing summary
    covers the successful untraced ops, which in an untraced run is all of them."""
    failed = sum(1 for t in op_ms if not math.isfinite(t)) or int(bool(failures))
    traced = set(traced_ops)
    ok_ms = [t for i, t in enumerate(op_ms) if i not in traced and math.isfinite(t)]
    return len(op_ms), failed, timing_summary(ok_ms or [math.nan])


class ConverterProbe:
    """Pass-through around the converter that keeps copies of the inputs and
    output of sampled calls, and the shapes of every call."""

    def __init__(self, fn, sample: set[int]) -> None:
        self.fn = fn
        self.sample = sample
        self.calls = 0
        self.captured: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.shapes: list[tuple[int, int, bool]] = []
        self._speakers: set[bytes] = set()

    def __call__(self, z, c, g):
        i = self.calls
        self.calls += 1
        out = self.fn(z, c, g)
        key = np.asarray(g, dtype=np.float32).tobytes()
        self.shapes.append((z.shape[0], c.shape[0], key not in self._speakers))
        self._speakers.add(key)
        if i in self.sample:
            self.captured.append((i, np.array(z), np.array(c), np.array(g), np.array(out)))
        return out


def sample_ops(seed: int) -> set[int]:
    rng = np.random.default_rng([seed, 3])
    return {0, *(int(i) for i in rng.choice(np.arange(1, SAMPLE_RANGE), SAMPLE_EXTRA, replace=False))}


def recompute_check(ckpt: Path, captured) -> dict:
    """Recompute the captured calls with a second converter built from a fresh
    load of the checkpoint; each must match within REL_TOL."""
    conv2 = make_converter(load_params(ckpt))
    worst = 0.0
    for _, z, c, g, out in captured:
        ref = conv2(z, c, g)
        rel = float(np.max(np.abs(out - ref))) / max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, rel)
    return {"recomputed": len(captured), "max_rel_err": worst, "ok": bool(captured) and worst <= REL_TOL}


def call_cost(cfg, t_s: int, t_c: int, new_speaker: bool) -> tuple[float, float]:
    """(GFLOP, weight MB) of one converter call, computed from tensor shapes.

    Counts matrix products only (2 FLOP per multiply-add) and the float32
    weight matrices they read (biases left out), following the seed forward's op list: the condition
    branch's attention output and FFN run only with update_cond_branch, and
    the adaptive-norm MLPs run only for a speaker vector the converter has
    not seen before (its modulation cache). Elementwise work is left out.
    """
    d, f, L = cfg.d_model, cfg.d_ffn, cfg.n_layers
    t = t_s + t_c
    t_upd = t if cfg.update_cond_branch else t_s  # tokens through attention-out and FFN
    flop = 2 * t_s * cfg.d_latent * d + 2 * t_c * cfg.d_cond * d + 2 * t_s * d * cfg.d_latent
    flop += L * (2 * t * d * 3 * d + 4 * t * t * d + 2 * t_upd * d * d + 4 * t_upd * d * f)
    n_upd = 2 if cfg.update_cond_branch else 1
    weights = 2 * cfg.d_latent * d + cfg.d_cond * d + L * (2 * 3 * d * d + n_upd * (d * d + 2 * d * f))
    if new_speaker and cfg.use_speaker_condition:
        flop += L * 2 * (2 * cfg.d_spk * d + 2 * d * 6 * d)
        weights += L * 2 * (cfg.d_spk * d + d * 6 * d)
    return flop / 1e9, weights * 4 / 1e6


def traced_codec(tracer: Tracer, codec: CodecInterface) -> CodecInterface:
    return CodecInterface(
        encode=tracer.wrap("codec.encode", codec.encode),
        decode=tracer.wrap("codec.decode", codec.decode),
        hop=codec.hop,
    )


def common_layer_metrics(
    tracer: Tracer,
    probe: ConverterProbe,
    cfg,
    setups: list[dict],
    op_ms: list[float],
    traced_ops: list[int],
    untraced_p50: float,
) -> dict:
    """The per-layer metrics every workload reports. Each op makes exactly one
    converter call, so op k is converter call k."""
    call_ms = tracer.durations_ms("converter.call")
    costs = [call_cost(cfg, *probe.shapes[k]) for k in traced_ops]
    gflop = [c[0] for c in costs]
    return {
        "converter.call_ms.p50": pct(call_ms, 50),
        "converter.call_ms.p95": pct(call_ms, 95),
        "converter.first_call_ms": call_ms[0],
        "converter.build_s": float(np.median([r["build_s"] for r in setups])),
        "converter.tokens_per_call": float(np.mean([probe.shapes[k][0] + probe.shapes[k][1] for k in traced_ops])),
        "converter.gflop_per_call": float(np.mean(gflop)),
        "converter.weight_mb_per_call": float(np.mean([c[1] for c in costs])),
        "converter.gflops": float(sum(gflop) / (sum(call_ms) / 1000.0)),
        "codec.encode_ms.p50": pct(tracer.durations_ms("codec.encode"), 50),
        "codec.decode_ms.p50": pct(tracer.durations_ms("codec.decode"), 50),
        "trace.overhead_ratio": pct([op_ms[k] for k in traced_ops], 50) / untraced_p50,
    }


def repeated_setup(n: int, once) -> tuple[list[dict], object]:
    """Run `once` n times, dropping each result before the next, so every
    repeat starts from the same memory state; keep the last result."""
    records, result = [], None
    for _ in range(n):
        result = None
        gc.collect()
        rec, result = once()
        records.append(rec)
    return records, result


def run_stream(args, tracer: Tracer | None) -> dict:
    work = Path(args.work)
    ckpt = work / "converter.ckpt"
    cfg = StreamConfig()
    codec = toy_codec()

    def once():
        t0 = time.perf_counter()
        params = load_params(ckpt)
        t1 = time.perf_counter()
        conv = make_converter(params)
        t2 = time.perf_counter()
        source = read_wav(work / "source.wav")
        reference = read_wav(work / "reference.wav")
        t3 = time.perf_counter()
        state = init_stream(reference)
        t4 = time.perf_counter()
        rec = {"total_s": t4 - t0, "load_s": t1 - t0, "build_s": t2 - t1, "read_s": t3 - t2, "init_stream_s": t4 - t3}
        return rec, (params.cfg, conv, source, reference, state)

    setups, (model_cfg, conv, source, reference, state) = repeated_setup(args.setup_repeats, once)

    probe = ConverterProbe(conv, sample_ops(args.seed))
    if tracer is not None:
        t_codec = traced_codec(tracer, codec)
        t_conv = tracer.wrap("converter.call", probe)
        t_step = tracer.wrap("streaming.stream_step", stream_step)

    C, O, F = cfg.current_samples, cfg.overlap_samples, cfg.future_samples
    n_src = len(source)
    op_ms: list[float] = []
    traced_ops: list[int] = []
    chunks: list[np.ndarray] = []
    failures: list[str] = []

    def step(k: int, src: Waveform, flush: bool) -> bool:
        nonlocal state
        traced = tracer is not None and (k // TRACE_BLOCK) % 2 == 0
        try:
            if traced:
                tracer.op = k
                t0 = time.perf_counter()
                out, state, _ = t_step(state, cfg, src, k, t_codec, t_conv, flush=flush)
            else:
                t0 = time.perf_counter()
                out, state, _ = stream_step(state, cfg, src, k, codec, probe, flush=flush)
            op_ms.append((time.perf_counter() - t0) * 1000.0)
        except Exception:
            op_ms.append(math.inf)
            failures.append(f"step {k}: {traceback.format_exc(limit=3)}")
            return False
        if traced:
            traced_ops.append(k)
        chunks.append(out)
        if out.shape != (C,) or not np.isfinite(out).all():
            failures.append(f"step {k}: output chunk has shape {out.shape} or non-finite samples")
            return False
        return True

    # Stream steps until the time is up, then end the stream there: the
    # samples received so far (including the lookahead already consumed) are
    # the stream's source, and the last steps flush its zero-padded tail,
    # exactly as stream_run would for that source.
    loop_start = time.perf_counter()
    k, ok = 0, True
    while ok and k * C + C + O + F <= n_src:
        ok = step(k, source, flush=False)
        k += 1
        if time.perf_counter() - loop_start >= args.seconds:
            break
    n_fed = k * C + O + F if k * C + C + O + F <= n_src else n_src
    src_fed = source if n_fed == n_src else Waveform(source.samples[:n_fed])
    while ok and k < math.ceil(n_fed / C):
        ok = step(k, src_fed, flush=True)
        k += 1
    loop_s = time.perf_counter() - loop_start

    if ok:
        out = np.concatenate(chunks)[:n_fed]
        if len(out) != n_fed:
            failures.append(f"output has {len(out)} samples, source has {n_fed}")

    attempted, failed, s = op_summary(op_ms, traced_ops, failures)
    misses = sum(1 for t in op_ms if not t <= spec.CHUNK_BUDGET_MS)
    audio_s = n_fed / source.sample_rate

    report = {
        "chunk_ms": s,
        "deadline_miss_ratio": misses / attempted,
        "audio_s_per_s": audio_s / loop_s,
        "audio_s": audio_s,
        "stream_chunks": attempted,
    }
    layer = {}
    crosscheck = None
    if tracer is not None and ok:
        layer.update(common_layer_metrics(tracer, probe, model_cfg, setups, op_ms, traced_ops, s["p50"]))
        layer.update(
            {
                "streaming.step_overhead_ms.p50": pct(tracer.self_ms("streaming.stream_step"), 50),
                "streaming.init_stream_ms": float(np.median([r["init_stream_s"] for r in setups])) * 1000.0,
                "audio_io.read_ms": float(np.median([r["read_s"] for r in setups])) * 1000.0,
            }
        )
        t0 = time.perf_counter()
        write_wav(work / "output.wav", Waveform(out))
        layer["audio_io.write_ms"] = (time.perf_counter() - t0) * 1000.0
        layer["audio_io.clipped_ratio"] = float(np.count_nonzero((out < -1.0) | (out > PCM_HI))) / len(out)
        if args.crosscheck:
            # The program's own timer on the same inputs, next to the outside one.
            prefix = Waveform(source.samples[: CROSSCHECK_CHUNKS * C])
            _, lat = stream_run(prefix, reference, cfg, codec, conv)
            crosscheck = {
                "stream_run.t_compute_mean_ms": lat.t_compute_mean_ms,
                "benchmark.chunk_ms.mean": s["mean"],
                "benchmark.chunk_ms.iqr": s["iqr"],
                "agree_within_iqr": abs(lat.t_compute_mean_ms - s["mean"]) <= s["iqr"],
            }

    probe.fn = conv = None
    gc.collect()
    check = recompute_check(ckpt, probe.captured)
    if not check["ok"]:
        failures.append(f"recomputed converter calls differ: {check}")

    e2e = {
        "op_ms.p50": s["p50"],
        "op_ms.p90": s["p90"],
        "audio_s_per_s": report["audio_s_per_s"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setups": setups,
        "e2e": e2e,
        "op_ms": op_ms,
        "traced_ops": traced_ops,
        "report": report,
        "layer": layer,
        "check": check,
        "crosscheck": crosscheck,
    }


def pair_durations(rng: np.random.Generator):
    """Pair lengths in [4.8, 7.2] s, stratified: each block of 16 draws has one
    from each sixteenth of the range, in seeded order."""
    while True:
        u = (rng.permutation(DURATION_STRATA) + rng.random(DURATION_STRATA)) / DURATION_STRATA
        yield from PAIR_MIN_S + u * (PAIR_MAX_S - PAIR_MIN_S)


def train_example(api, pair, rng: np.random.Generator, probs: RoleProbs):
    """One training forward: roles, crop, supervision, converter, decode, loss."""
    mode = api.sample_mode(probs, rng)
    source_utt, target_utt = api.assign_roles(pair, mode)
    ex = api.make_example(source_utt, target_utt, rng, mode)
    z_src, c, g, _, _ = api.assemble(ex, codec=api.codec, features=api.features)
    z_hat = api.conv(z_src, c, g)
    pred = api.codec.decode(z_hat)
    return api.loss(pred, ex.target_seg), z_hat, pred, ex


def run_train(args, tracer: Tracer | None) -> dict:
    work = Path(args.work)
    ckpt = work / "converter.ckpt"
    codec = toy_codec()
    features = SimpleNamespace(
        mel_spectrogram=lvc_features.mel_spectrogram, speaker_embedding=lvc_features.speaker_embedding
    )

    def once():
        t0 = time.perf_counter()
        params = load_params(ckpt)
        t1 = time.perf_counter()
        conv = make_converter(params)
        t2 = time.perf_counter()
        return {"total_s": t2 - t0, "load_s": t1 - t0, "build_s": t2 - t1}, (params.cfg, conv)

    setups, (model_cfg, conv) = repeated_setup(args.setup_repeats, once)
    probe = ConverterProbe(conv, sample_ops(args.seed))

    plain = SimpleNamespace(
        sample_mode=sample_mode,
        assign_roles=assign_roles,
        make_example=make_example,
        assemble=assemble_supervision,
        codec=codec,
        features=features,
        conv=probe,
        loss=loss_breakdown,
    )
    if tracer is not None:
        traced = SimpleNamespace(
            sample_mode=tracer.wrap("dataprep.sample_mode", sample_mode),
            assign_roles=tracer.wrap("dataprep.assign_roles", assign_roles),
            make_example=tracer.wrap("dataprep.make_example", make_example),
            assemble=tracer.wrap("trainer.assemble", assemble_supervision),
            codec=traced_codec(tracer, codec),
            features=SimpleNamespace(
                mel_spectrogram=tracer.wrap("features.mel", features.mel_spectrogram),
                speaker_embedding=tracer.wrap("features.spk", features.speaker_embedding),
            ),
            conv=tracer.wrap("converter.call", probe),
            loss=tracer.wrap("trainer.loss", loss_breakdown),
        )
        t_synth = tracer.wrap("dataprep.synth_pair", synth_pair)

    rng = np.random.default_rng([args.seed, 4])
    durations = pair_durations(rng)
    probs = RoleProbs()
    op_ms: list[float] = []
    traced_ops: list[int] = []
    failures: list[str] = []
    losses: list[float] = []
    counted_s = 0.0
    clipped_n = clipped_total = 0
    i = 0
    while counted_s < args.seconds:
        is_traced = tracer is not None and i % 2 == 0
        api = traced if is_traced else plain
        content_seed = int(rng.integers(0, 2**31))
        spk_a, spk_b = (int(x) for x in rng.choice(10_000, size=2, replace=False))
        if is_traced:
            tracer.op = i
        pair = (t_synth if is_traced else synth_pair)(content_seed, spk_a, spk_b, float(next(durations)))
        t0 = time.perf_counter()
        try:
            if is_traced:
                with tracer.span("example"):
                    lb, z_hat, pred, ex = train_example(api, pair, rng, probs)
            else:
                lb, z_hat, pred, ex = train_example(api, pair, rng, probs)
            dt = time.perf_counter() - t0
        except Exception:
            dt = time.perf_counter() - t0
            failures.append(f"example {i}: {traceback.format_exc(limit=3)}")
            op_ms.append(math.inf)
        else:
            op_ms.append(dt * 1000.0)
            losses.append(lb.total)
            if is_traced:
                clipped_n += int(np.count_nonzero((pred.samples < -1.0) | (pred.samples > PCM_HI)))
                clipped_total += len(pred)
            if not (np.isfinite(z_hat).all() and math.isfinite(lb.total) and len(pred) == len(ex.target_seg)):
                failures.append(f"example {i}: non-finite output or loss, or wrong output length")
        if is_traced:
            traced_ops.append(i)
        counted_s += dt
        i += 1

    attempted, failed, s = op_summary(op_ms, traced_ops, failures)
    seg_s = SEGMENT_SAMPLES / 16000.0
    report = {
        "example_ms": s,
        "examples_per_s": len(losses) / counted_s,
        "audio_s_per_s": len(losses) * seg_s / counted_s,
        "loss_total.mean": float(np.mean(losses)) if losses else math.nan,
    }
    layer = {}
    if tracer is not None and not failures:
        layer.update(common_layer_metrics(tracer, probe, model_cfg, setups, op_ms, traced_ops, s["p50"]))
        layer.update(
            {
                "dataprep.synth_pair_ms.p50": pct(tracer.durations_ms("dataprep.synth_pair"), 50),
                "features.mel_ms.p50": pct(tracer.durations_ms("features.mel"), 50),
                "features.spk_ms.p50": pct(tracer.durations_ms("features.spk"), 50),
                "dataprep.make_example_ms.p50": pct(tracer.durations_ms("dataprep.make_example"), 50),
                "trainer.assemble_ms.p50": pct(tracer.durations_ms("trainer.assemble"), 50),
                "trainer.loss_ms.p50": pct(tracer.durations_ms("trainer.loss"), 50),
                "audio_io.clipped_ratio": clipped_n / max(1, clipped_total),
            }
        )

    probe.fn = conv = None
    gc.collect()
    check = recompute_check(ckpt, probe.captured)
    if not check["ok"]:
        failures.append(f"recomputed converter calls differ: {check}")
    e2e = {"op_ms.p50": s["p50"], "op_ms.p90": s["p90"], "audio_s_per_s": report["audio_s_per_s"]}
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setups": setups,
        "e2e": e2e,
        "op_ms": op_ms,
        "traced_ops": traced_ops,
        "report": report,
        "layer": layer,
        "check": check,
        "crosscheck": None,
    }


def print_report(result: dict) -> None:
    wl, summary = result["workload"], result["summary"]
    print(
        f"[{wl}] seed={result['seed']} trace={result['trace']} attempted={summary['attempted']} "
        f"failed={summary['failed']} correct={summary['correct']}"
    )
    rows = []
    rep = result["report"]
    for key in ("chunk_ms", "example_ms"):
        if key in rep:
            s = rep[key]
            tail = "p95" if key == "chunk_ms" else "p90"
            basis = "untraced ops of this run" if result["trace"] else "all ops"
            rows.append((f"{key}.p50", s["p50"], "ms", f"n={s['n']} ({basis})"))
            rows.append((f"{key}.{tail}", s[tail], "ms", f"{s['beyond_' + tail]} samples beyond"))
    for key, unit in (
        ("deadline_miss_ratio", "ratio"),
        ("examples_per_s", "1/s"),
    ):
        if key in rep:
            rows.append((key, rep[key], unit, ""))
    for name, value in result["end_to_end"].items():
        rows.append((name, value, spec.END_TO_END[name][0], "end-to-end"))
    rows.append(("failed_ratio", summary["failed"] / summary["attempted"], "ratio", ""))
    units = {k: v[0] for k, v in spec.PER_LAYER.items()}
    for table in spec.WORKLOAD_LAYER.values():
        units.update(table)
    for name, value in result["layer"].items():
        rows.append((name, value, units[name], "per-layer"))
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.4f} {unit:8s} {note}")
    if result["layer"]:
        print(f"  note: {result['layer_note']}")
    if result["crosscheck"]:
        c = result["crosscheck"]
        print(
            f"  cross-check: stream_run t_compute_mean_ms={c['stream_run.t_compute_mean_ms']:.3f}, "
            f"benchmark chunk mean={c['benchmark.chunk_ms.mean']:.3f} (iqr {c['benchmark.chunk_ms.iqr']:.3f}), "
            f"agree={c['agree_within_iqr']}"
        )
    print(
        f"  recomputed {result['check']['recomputed']} converter calls, "
        f"max rel err {result['check']['max_rel_err']:.2e} (tolerance {REL_TOL:g})"
    )
    for f in result["failures"]:
        print(f"  FAILURE: {f}")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(latentvc.__file__).resolve().parents:
        print(f"error: latentvc was imported from {latentvc.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = spec.WORKLOADS[args.workload]
    ctx = context.collect(ROOT)
    args.setup_repeats = 2 if args.smoke else SETUP_REPEATS
    args.crosscheck = bool(args.trace) and args.workload == "stream-short-ref"
    tracer = Tracer() if args.trace else None
    t_ref = time.perf_counter()

    res = (run_stream if w["kind"] == "stream" else run_train)(args, tracer)
    if tracer is not None and w["kind"] == "stream" and res["layer"]:
        fixture = json.loads((Path(args.work) / "fixture.json").read_text())
        res["layer"]["dataprep.synth_pair_ms.p50"] = pct(fixture["synth_pair_ms"], 50)

    ctx["loadavg_1m_end"] = os.getloadavg()[0]
    e2e = dict(res["e2e"])
    e2e["setup_s"] = float(np.median([r["total_s"] for r in res["setups"]]))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = not res["failures"]
    if args.trace:
        names = {n: u for n, (u, _) in spec.PER_LAYER.items()}
        values = res["layer"]
    else:
        names = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
        values = e2e
    metrics = {n: {"value": values[n], "unit": u} for n, u in names.items() if n in values}
    if len(metrics) != len(names) or not all(math.isfinite(m["value"]) for m in metrics.values()):
        correct = False
    summary = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}

    result = {
        "workload": args.workload,
        "why": w["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "context": ctx,
        "summary": summary,
        "end_to_end": e2e,
        "report": res["report"],
        "layer": res["layer"],
        "layer_note": (
            "converter.tokens_per_call, gflop_per_call and weight_mb_per_call are computed from "
            "tensor shapes and sizes, not measured; converter.gflops divides that count by the "
            "measured call time"
        ),
        "check": res["check"],
        "crosscheck": res["crosscheck"],
        "setups": res["setups"],
        "op_ms": res["op_ms"],
        "traced_ops": res["traced_ops"],
        "failures": res["failures"],
        "predictions": spec.PREDICTIONS,
    }
    result_path = Path(args.result)
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        trace_path = result_path.with_name(result_path.name.replace(".result.json", ".trace.json"))
        trace_path.write_text(json.dumps(tracer.to_json(t_ref)) + "\n")
    print_report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
