"""Command-line front end.

Subcommands: convert (offline), stream, bench, features, make-pairs,
sample-roles, eval-loss. Each prints a small JSON payload to stdout;
`--report` additionally writes that payload to a file, which must not be
an input or the output. This is the one place that reads paths and flags:
the commands call `offline_run` and `stream_run` and write `--output`.

Exit codes: 0 success, 2 invalid arguments, 3 unreadable or malformed
input (audio files, checkpoints), 4 non-finite values detected in audio
or model state.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audio_io import Waveform, read_wav, write_wav
from .codec import toy_codec
from .converter import ConverterConfig, ConverterFn, identity_converter, init_params, load_params, make_converter
from .dataprep import RoleMode, RoleProbs, sample_mode, synth_pair
from .errors import AudioFormatError, CheckpointError, NonFiniteError
from .features import mel_spectrogram, speaker_embedding_from_mel
from .streaming import StreamConfig, build_report, offline_run, stream_run
from .trainer import loss_breakdown


def _emit(payload: dict, report_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if report_path is not None:
        Path(report_path).write_text(text + "\n")


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
    if args.checkpoint is not None:
        return make_converter(load_params(args.checkpoint))
    return make_converter(init_params(ConverterConfig(), seed=args.seed))


def _names_one_of(path: str | None, others: tuple[str | None, ...]) -> bool:
    return path is not None and os.path.realpath(path) in {os.path.realpath(p) for p in others if p is not None}


def _inputs(args: argparse.Namespace) -> tuple[Waveform, Waveform, ConverterFn]:
    if _names_one_of(args.output, (args.source, args.reference, args.checkpoint)):
        raise ValueError("--output must differ from the input paths")
    return read_wav(args.source), read_wav(args.reference), _converter(args)


def _cmd_convert(args: argparse.Namespace) -> int:
    source, reference, converter = _inputs(args)
    out, rtf = offline_run(source, reference, toy_codec(), converter)
    clipped = write_wav(args.output, out)
    _emit({"rtf": rtf, "duration_s": out.duration_s, "output": args.output, "clipped_samples": clipped}, args.report)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    cfg = _stream_cfg(args)
    source, reference, converter = _inputs(args)
    out, report = stream_run(source, reference, cfg, toy_codec(), converter)
    _emit({**report.to_dict(), "clipped_samples": write_wav(args.output, out)}, args.report)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """One warm-up stream, then `--repeats` measured ones pooled into one
    report (rtf is their mean). The audio of every run is the same."""
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = _stream_cfg(args)
    source, reference, converter = _inputs(args)
    codec = toy_codec()
    stream_run(source, reference, cfg, codec, converter)  # warm-up, discarded
    runs = [stream_run(source, reference, cfg, codec, converter) for _ in range(args.repeats)]
    reports = [report for _, report in runs]
    mean_wall_s = float(np.mean([r.rtf for r in reports])) * source.duration_s
    report = build_report(cfg, [t for r in reports for t in r.timings], mean_wall_s, source.duration_s)
    payload = report.to_dict()
    if args.output is not None:
        payload["clipped_samples"] = write_wav(args.output, runs[-1][0])
    _emit(payload, args.report)
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    w = read_wav(args.source)
    mel = mel_spectrogram(w)
    spk = speaker_embedding_from_mel(mel, seed=args.seed)
    base = Path(args.output)
    base.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{base}.mel.f32").write_bytes(np.ascontiguousarray(mel, dtype="<f4").tobytes())
    Path(f"{base}.mel.json").write_text(json.dumps({"rows": int(mel.shape[0]), "cols": int(mel.shape[1])}) + "\n")
    Path(f"{base}.spk.f32").write_bytes(np.ascontiguousarray(spk, dtype="<f4").tobytes())
    _emit({"mel_rows": int(mel.shape[0]), "mel_cols": int(mel.shape[1]), "spk_dim": int(spk.shape[0])}, args.report)
    return 0


def _cmd_make_pairs(args: argparse.Namespace) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
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
    _emit({"count": args.count, "dir": str(outdir)}, args.report)
    return 0


def _cmd_sample_roles(args: argparse.Namespace) -> int:
    parts = [float(x) for x in args.probs.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--probs needs three comma-separated values, got {args.probs!r}")
    probs = RoleProbs(*parts)
    rng = np.random.default_rng(args.seed)
    counts = {mode: 0 for mode in RoleMode}
    for _ in range(args.draws):
        counts[sample_mode(probs, rng)] += 1
    freqs = {mode.value: counts[mode] / args.draws for mode in RoleMode}
    _emit({"draws": args.draws, "frequencies": freqs}, args.report)
    return 0


def _cmd_eval_loss(args: argparse.Namespace) -> int:
    lb = loss_breakdown(read_wav(args.source), read_wav(args.reference), seed=args.seed)
    _emit(lb.to_dict(), args.report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentvc", description="Streaming voice conversion in a toy codec latent space")
    sub = parser.add_subparsers(dest="command", required=True)
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
    p.add_argument("--seed", type=int, default=0, help="speaker projection seed")
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval_loss)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files = tuple(getattr(args, name, None) for name in ("source", "reference", "checkpoint", "output"))
        if _names_one_of(args.report, files):
            raise ValueError("--report must differ from the input and output paths")
        return args.func(args)
    except (AudioFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
