"""Command-line front end.

Subcommands: convert (offline), stream, bench, features, make-pairs,
sample-roles, eval-loss. Each returns a small JSON payload, which `main`
writes to `--report`, if given, and then prints to stdout. This is the one
place that reads paths and flags: before the command runs, `main` checks each
numeric flag against `FLOORS` and every file the command writes against the
path rule of `_check_paths`, and the commands call `offline_run` and
`stream_run` and write `--output`.

Exit codes: 0 success, 2 invalid arguments, 3 unreadable or malformed
input (audio files, checkpoints), 4 non-finite values detected in audio
or model state.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audio_io import Waveform, read_wav, write_wav
from .codec import D_LATENT, toy_codec
from .converter import ConverterConfig, ConverterFn, identity_converter, init_params, load_params, make_converter
from .dataprep import MIN_PAIR_DURATION_S, RoleMode, RoleProbs, sample_mode, synth_pair
from .errors import AudioFormatError, CheckpointError, NonFiniteError
from .features import N_MELS, SPK_DIM, mel_spectrogram, speaker_embedding_from_mel
from .streaming import LatencyReport, StreamConfig, offline_run, stream_run
from .trainer import loss_breakdown

# The floor of each numeric flag, by dest name: `main` refuses a value below it, NaN or infinite.
FLOORS = {"seed": 0, "count": 1, "draws": 1, "repeats": 1, "duration_s": MIN_PAIR_DURATION_S}


def _cpu_model() -> str | None:
    """The `model name` of /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        return None


def _usage() -> tuple[float, float, float]:
    """(1-minute load average, wall clock s, user + system CPU s of this process) now."""
    cpu = os.times()
    return os.getloadavg()[0], time.perf_counter(), cpu.user + cpu.system


def _machine(start: tuple[float, float, float]) -> dict:
    """What a timing ran on: the CPU, the load around the run, the wall and
    CPU seconds since `start` (a `_usage()` taken when the command began),
    numpy, its BLAS and the thread settings that BLAS reads at import."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    (load_start, wall_start, cpu_start), (load_end, wall_end, cpu_end) = start, _usage()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "load_1m_start": load_start,
        "load_1m_end": load_end,
        "wall_s": wall_end - wall_start,
        "cpu_s": cpu_end - cpu_start,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class _Parser(argparse.ArgumentParser):
    """Reads as a value any argument that `float()` accepts, such as -inf, -nan or -1e3; argparse
    itself takes only plain negative numbers for values, and reads the rest as unknown options."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_convert_flags(p: argparse.ArgumentParser, output_required: bool) -> None:
    p.add_argument("--source", required=True, help="source WAV (mono 16-bit 16 kHz)")
    p.add_argument("--reference", required=True, help="reference WAV providing the target voice")
    p.add_argument("--output", required=output_required, default=None, help="converted WAV to write")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--checkpoint", default=None, help="converter checkpoint; default is seeded init")
    which.add_argument("--identity", action="store_true", help="bypass the converter (codec round trip only)")
    p.add_argument("--seed", type=int, default=0, help="seed for the default init converter")


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(StreamConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=f.default)


def _stream_cfg(args: argparse.Namespace) -> StreamConfig:
    return StreamConfig(**{f.name: getattr(args, f.name) for f in fields(StreamConfig)})


def _converter(args: argparse.Namespace) -> ConverterFn:
    """The identity, checkpoint or seeded-init converter that the flags select."""
    if args.identity:
        return identity_converter
    if args.checkpoint is None:
        return make_converter(init_params(ConverterConfig(), seed=args.seed))
    params = load_params(args.checkpoint)
    got, need = (params.cfg.d_latent, params.cfg.d_cond, params.cfg.d_spk), (D_LATENT, N_MELS, SPK_DIM)
    if got != need:
        raise CheckpointError(f"{args.checkpoint}: widths (d_latent, d_cond, d_spk) = {got} do not fit "
                              f"the codec and features, which need {need}")
    return make_converter(params)


def _feature_paths(base: str) -> tuple[Path, Path, Path]:
    return tuple(Path(base + ext) for ext in (".mel.f32", ".mel.json", ".spk.f32"))


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse each file the command writes (the `--report`, then the `--output` WAV or the three `features`
    files) that names another path of the command, lies inside the `make-pairs` corpus or is an existing
    directory (exit 2), or whose directory does not exist and is not made by the command (exit 3)."""
    paths = {f"--{f}": getattr(args, f, None) for f in ("report", "source", "reference", "checkpoint", "output")}
    writes = ["--report", "--output"] if args.command in ("convert", "stream", "bench") else ["--report"]
    if args.command == "features":
        files = {f"features file {p}": p for p in _feature_paths(args.output)}
        paths, writes = paths | files, writes + list(files)
    real = {name: os.path.realpath(p) for name, p in paths.items() if p is not None}
    for name in (w for w in writes if w in real):
        other = next((o for o in real if o != name and real[o] == real[name]), None)
        if other is not None:
            raise ValueError(f"{name} must differ from {other}: both name {real[name]}")
        if args.command == "make-pairs" and Path(real[name]).is_relative_to(real["--output"]):
            raise ValueError(f"{name} must differ from the files that make-pairs writes: it is inside --output")
        if os.path.isdir(paths[name]):
            raise ValueError(f"{name} must differ from an existing directory")
        if name in ("--report", "--output") and not Path(paths[name]).parent.is_dir():  # features makes its own
            raise FileNotFoundError(f"{name} {paths[name]}: directory {Path(paths[name]).parent} does not exist")


def _inputs(args: argparse.Namespace) -> tuple[Waveform, Waveform, ConverterFn]:
    converter = _converter(args)  # a checkpoint is refused before any audio is read
    return read_wav(args.source), read_wav(args.reference), converter


def _cmd_convert(args: argparse.Namespace) -> dict:
    source, reference, converter = _inputs(args)
    out, rtf = offline_run(source, reference, toy_codec(), converter)
    return {"rtf": rtf, "duration_s": out.duration_s, "output": args.output, "clipped_samples": write_wav(args.output, out)}


def _streams(args: argparse.Namespace, runs: int, warm_up: bool) -> dict:
    """An optional warm-up stream, then `runs` measured ones pooled into one
    report of their joined chunk records and mean wall time (the queue
    restarts at each run); only the last run's audio, the same in each, is kept.
    Late chunks are also named in one line on stderr."""
    start = _usage()
    cfg = _stream_cfg(args)
    source, reference, converter = _inputs(args)
    codec = toy_codec()
    if warm_up:
        stream_run(source, reference, cfg, codec, converter)  # discarded
    reports = []
    for _ in range(runs):
        out, report = stream_run(source, reference, cfg, codec, converter)
        reports.append(report)
    timings = tuple(t for r in reports for t in r.timings)
    wall_s = float(np.mean([r.wall_s for r in reports]))
    report = LatencyReport(cfg, timings, wall_s, source.duration_s, runs)
    payload = report.to_dict()
    if args.output is not None:
        payload["clipped_samples"] = write_wav(args.output, out)
    payload["machine"] = _machine(start)
    late = report.late
    if len(late):
        print(f"warning: {len(late)} of {report.chunk_count} chunks finished after their deadline (late_chunks); "
              f"the first is chunks[{late[0]}]", file=sys.stderr)
    return payload


def _cmd_stream(args: argparse.Namespace) -> dict:
    return _streams(args, runs=1, warm_up=False)


def _cmd_bench(args: argparse.Namespace) -> dict:
    return _streams(args, runs=args.repeats, warm_up=True)


def _cmd_features(args: argparse.Namespace) -> dict:
    w = read_wav(args.source)
    mel = mel_spectrogram(w)
    spk = speaker_embedding_from_mel(mel)
    mel_path, meta_path, spk_path = _feature_paths(args.output)
    mel_path.parent.mkdir(parents=True, exist_ok=True)
    mel_path.write_bytes(np.ascontiguousarray(mel, dtype="<f4").tobytes())
    meta_path.write_text(json.dumps({"rows": int(mel.shape[0]), "cols": int(mel.shape[1])}) + "\n")
    spk_path.write_bytes(np.ascontiguousarray(spk, dtype="<f4").tobytes())
    return {"mel_rows": int(mel.shape[0]), "mel_cols": int(mel.shape[1]), "spk_dim": int(spk.shape[0])}


def _cmd_make_pairs(args: argparse.Namespace) -> dict:
    outdir = Path(args.output)
    rng = np.random.default_rng(args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i in range(args.count):
        content_seed = int(rng.integers(0, 2**31))
        speaker_a = int(rng.integers(0, 10_000))
        speaker_b = int(rng.integers(0, 10_000))
        while speaker_b == speaker_a:
            speaker_b = int(rng.integers(0, 10_000))
        pair = synth_pair(content_seed, speaker_a, speaker_b, args.duration_s)
        real_name = f"pair_{i:03d}_real.wav"
        gen_name = f"pair_{i:03d}_generated.wav"
        write_wav(outdir / real_name, pair.real)
        write_wav(outdir / gen_name, pair.generated)
        manifest.append(
            {
                "real": real_name,
                "generated": gen_name,
                "content_seed": content_seed,
                "speaker_a": speaker_a,
                "speaker_b": speaker_b,
            }
        )
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {"count": args.count, "dir": str(outdir)}


def _cmd_sample_roles(args: argparse.Namespace) -> dict:
    try:
        parts = [float(x) for x in args.probs.split(",")]
    except ValueError:
        raise ValueError(f"--probs takes numbers, got {args.probs!r}") from None
    if len(parts) != 3:
        raise ValueError(f"--probs needs three comma-separated values, got {args.probs!r}")
    probs = RoleProbs(*parts)
    rng = np.random.default_rng(args.seed)
    counts = {mode: 0 for mode in RoleMode}
    for _ in range(args.draws):
        counts[sample_mode(probs, rng)] += 1
    freqs = {mode.value: counts[mode] / args.draws for mode in RoleMode}
    return {"draws": args.draws, "frequencies": freqs}


def _cmd_eval_loss(args: argparse.Namespace) -> dict:
    return loss_breakdown(read_wav(args.source), read_wav(args.reference)).to_dict()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentvc", description="Streaming voice conversion in a toy codec latent space")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=None, help="also write the JSON payload to this path")

    p = sub.add_parser("convert", parents=[common], help="offline single-pass conversion")
    _add_convert_flags(p, output_required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("stream", parents=[common], help="chunkwise streaming conversion with a latency report")
    _add_convert_flags(p, output_required=True)
    _add_geometry_flags(p)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("bench", parents=[common], help="repeat streaming runs and report pooled timings")
    _add_convert_flags(p, output_required=False)
    _add_geometry_flags(p)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("features", parents=[common], help="extract mel spectrogram and speaker embedding")
    p.add_argument("--source", required=True, help="input WAV")
    p.add_argument("--output", required=True, help="output path prefix (BASE.mel.f32, BASE.mel.json, BASE.spk.f32)")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("make-pairs", parents=[common], help="write a synthetic content-matched pair corpus")
    p.add_argument("--output", required=True, help="corpus directory")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--duration-s", type=float, default=4.8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_make_pairs)

    p = sub.add_parser("sample-roles", parents=[common], help="print empirical role-mode frequencies")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--probs", default="0.4,0.2,0.4", help="p_standard,p_reconstruction,p_reversed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample_roles)

    p = sub.add_parser("eval-loss", parents=[common], help="print the loss breakdown between two WAVs")
    p.add_argument("--source", required=True, help="predicted/converted WAV")
    p.add_argument("--reference", required=True, help="target WAV")
    p.set_defaults(func=_cmd_eval_loss)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, low in FLOORS.items():  # `< np.inf`, as np.isfinite raises on an int past float range
            if not low <= getattr(args, name, low) < np.inf:
                raise ValueError(f"--{name.replace('_', '-')} must be finite and >= {low}, got {getattr(args, name)}")
        _check_paths(args)
        text = json.dumps(args.func(args), indent=2)
        if args.report is not None:  # first, so that stdout carries a payload only when every file is written
            Path(args.report).write_text(text + "\n")
        print(text)
        return 0
    except (AudioFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
