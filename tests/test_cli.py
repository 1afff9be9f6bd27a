"""Command-line interface, run in process through main(argv).

Covers each subcommand's happy path, the JSON payloads, the side files
they write, and the exit-code contract: 0 ok, 2 bad arguments, 3 broken
input files, 4 non-finite values in the pipeline.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentvc import (
    LatencyReport,
    identity_converter,
    init_params,
    mel_spectrogram,
    offline_run,
    read_wav,
    save_params,
    speaker_embedding,
    stream_run,
    toy_codec,
    write_wav,
)
from latentvc import cli
from latentvc.cli import FLOORS, main

from conftest import GEOMETRY, SMALL_STREAM, WIDE_TINY, make_wave, run_cli


@pytest.fixture()
def wavs(tmp_path):
    src = tmp_path / "src.wav"
    ref = tmp_path / "ref.wav"
    write_wav(src, make_wave(8000, seed=51, amp=0.2))
    write_wav(ref, make_wave(8000, seed=52, amp=0.2))
    return str(src), str(ref)


def files_of(paths):
    return {p: Path(p).read_bytes() for p in paths}


def tree_of(root):
    """Every file and directory under `root`, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def refuse_runs(monkeypatch):
    """Fail the test if a command starts converting, so a refusal is seen to come first."""
    def run(*args, **kwargs):
        pytest.fail("the command ran before its paths were checked")
    monkeypatch.setattr(cli, "offline_run", run)
    monkeypatch.setattr(cli, "stream_run", run)


class TestConvert:
    def test_identity_writes_output_and_payload(self, capsys, wavs, tmp_path):
        src, ref = wavs
        out_path = str(tmp_path / "out.wav")
        code, payload = run_cli(capsys, [
            "convert", "--source", src, "--reference", ref,
            "--output", out_path, "--identity",
        ])
        assert code == 0
        assert set(payload) == {"rtf", "duration_s", "output", "clipped_samples"}
        assert payload["output"] == out_path
        assert payload["clipped_samples"] == 0
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)

    @pytest.mark.parametrize("command", ["convert", "stream", "bench", "features", "make-pairs", "sample-roles",
                                         "eval-loss"])
    def test_report_file_matches_stdout(self, capsys, wavs, tmp_path, command):
        src, ref = wavs
        out = str(tmp_path / "out")
        convert = ["--source", src, "--reference", ref, "--output", out + ".wav", "--identity"]
        argv = {
            "convert": convert,
            "stream": [*convert, *GEOMETRY],
            "bench": [*convert, *GEOMETRY, "--repeats", "1"],
            "features": ["--source", src, "--output", out],
            "make-pairs": ["--output", out, "--count", "1"],
            "sample-roles": ["--draws", "100"],
            "eval-loss": ["--source", src, "--reference", ref],
        }[command]
        report = tmp_path / "report.json"
        code, payload = run_cli(capsys, [command, *argv, "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text()) == payload

    @pytest.mark.parametrize("command", ["convert", "sample-roles"])
    def test_report_that_cannot_be_written_exits_3_and_prints_nothing(self, capsys, wavs, tmp_path, command):
        # The report is written before stdout, so a caller that reads only
        # stdout sees no payload from a failed run.
        src, ref = wavs
        argv = {"convert": ["--source", src, "--reference", ref, "--output", str(tmp_path / "out.wav"), "--identity"],
                "sample-roles": ["--draws", "10"]}[command]
        report = tmp_path / "missing" / "report.json"
        assert main([command, *argv, "--report", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and str(report) in captured.err

    @pytest.mark.parametrize("command", ["convert", "make-pairs"])
    def test_report_in_a_missing_directory_is_refused_before_any_output(self, capsys, wavs, tmp_path, command):
        # The report's directory is checked before the command runs, so a
        # refused run leaves neither its output file nor its corpus behind.
        src, ref = wavs
        out = tmp_path / "out"
        argv = {"convert": ["--source", src, "--reference", ref, "--output", str(out), "--identity"],
                "make-pairs": ["--output", str(out), "--count", "1"]}[command]
        report = tmp_path / "missing" / "report.json"
        assert main([command, *argv, "--report", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and str(report) in captured.err and "does not exist" in captured.err
        assert not out.exists() and not report.parent.exists()

    @pytest.mark.parametrize("command", ["convert", "stream", "bench"])
    def test_output_in_a_missing_directory_exits_3_naming_it(self, capsys, wavs, tmp_path, monkeypatch, command):
        # Refused before the run, not after it has converted the whole source.
        refuse_runs(monkeypatch)
        src, ref = wavs
        out = tmp_path / "missing" / "out.wav"
        assert main([command, "--source", src, "--reference", ref, "--output", str(out), "--identity"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and str(out) in captured.err and "does not exist" in captured.err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["convert", "stream", "bench"])
    def test_output_naming_an_existing_directory_exits_2(self, capsys, wavs, tmp_path, monkeypatch, command):
        refuse_runs(monkeypatch)
        src, ref = wavs
        assert main([command, "--source", src, "--reference", ref, "--output", str(tmp_path), "--identity"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--output must differ from an existing directory" in captured.err
        assert {p.name for p in tmp_path.iterdir()} == {"src.wav", "ref.wav"}

    def test_missing_source_exits_3(self, capsys, wavs, tmp_path):
        _, ref = wavs
        code = main([
            "convert", "--source", str(tmp_path / "nope.wav"), "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity",
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convert", "stream", "bench", "features", "eval-loss"])
    @pytest.mark.parametrize("cut", [100, 101], ids=["whole-frames", "mid-sample"])
    def test_cut_short_source_exits_3_naming_it(self, capsys, wavs, tmp_path, command, cut):
        src, ref = wavs
        cut_src = tmp_path / "cut.wav"
        cut_src.write_bytes(Path(src).read_bytes()[:-cut])
        argv = {"features": ["--output", str(tmp_path / "feat")], "eval-loss": ["--reference", ref]}.get(
            command, ["--reference", ref, "--output", str(tmp_path / "out.wav"), "--identity"])
        assert main([command, "--source", str(cut_src), *argv]) == 3
        err = capsys.readouterr().err
        assert str(cut_src) in err and "8000 frames declared" in err
        assert not (tmp_path / "out.wav").exists()

    def test_output_colliding_with_source_exits_2(self, capsys, wavs):
        # The reference path is an input too; neither file is touched.
        src, ref = wavs
        before = [read_wav(src).samples, read_wav(ref).samples]
        for command in ("convert", "stream", "bench"):
            for path in (src, ref):
                assert main([command, "--source", src, "--reference", ref,
                             "--output", path, "--identity"]) == 2
        assert "differ" in capsys.readouterr().err
        assert all(np.array_equal(a, read_wav(p).samples) for a, p in zip(before, (src, ref)))

    def test_output_colliding_with_checkpoint_exits_2(self, capsys, wavs, tiny_ckpt):
        src, ref = wavs
        before = files_of([src, ref, tiny_ckpt])
        for command in ("convert", "stream", "bench"):
            assert main([command, "--source", src, "--reference", ref,
                         "--output", tiny_ckpt, "--checkpoint", tiny_ckpt]) == 2
        assert "differ" in capsys.readouterr().err
        assert files_of(before) == before

    def test_report_colliding_with_a_file_exits_2(self, capsys, wavs, tmp_path):
        # The report must name neither an input nor a file the command
        # writes (the output, a features file, anything in the make-pairs
        # directory), however the path is spelled, nor an existing
        # directory; the refusal comes before any file is touched or any
        # directory made.
        src, ref = wavs
        base, corpus = str(tmp_path / "feat" / "base"), tmp_path / "corpus"
        out = tmp_path / "out.wav"
        out.write_bytes(b"an earlier output")
        before = files_of([src, ref, out])
        out = str(out)
        cases = [
            *[[command, "--source", src, "--reference", ref, "--output", out, "--identity", "--report", path]
              for command in ("convert", "stream", "bench") for path in (src, ref, out)],
            ["bench", "--source", src, "--reference", ref, "--identity", "--report", src],
            ["convert", "--source", src, "--reference", ref, "--output", out, "--identity",
             "--report", str(tmp_path / "." / "out.wav")],
            *[["features", "--source", src, "--output", out, "--report", path] for path in (src, out)],
            *[["features", "--source", src, "--output", base, "--report", base + ext]
              for ext in (".mel.f32", ".mel.json", ".spk.f32")],
            ["features", "--source", src, "--output", base, "--report", str(tmp_path / "feat" / "." / "base.mel.json")],
            *[["make-pairs", "--output", str(corpus), "--count", "1", "--report", str(path)]
              for path in (corpus / "manifest.json", corpus / "pair_000_real.wav", corpus / "sub" / "r.json")],
            *[["eval-loss", "--source", src, "--reference", ref, "--report", path] for path in (src, ref)],
            ["features", "--source", src, "--output", base, "--report", str(tmp_path)],
            ["convert", "--source", src, "--reference", ref, "--output", out, "--identity", "--report", str(tmp_path)],
            ["make-pairs", "--output", str(corpus), "--count", "1", "--report", str(tmp_path)],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
            assert "--report must differ" in capsys.readouterr().err
        assert files_of(before) == before
        assert set(tmp_path.iterdir()) == {tmp_path / name for name in ("src.wav", "ref.wav", "out.wav")}

    def test_checkpoint_with_identity_exits_2(self, capsys, wavs, tmp_path, tiny_ckpt):
        src, ref = wavs
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--source", src, "--reference", ref, "--output", str(tmp_path / "out.wav"),
                  "--checkpoint", tiny_ckpt, "--identity"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_corrupt_checkpoint_exits_3(self, capsys, wavs, tmp_path):
        src, ref = wavs
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"this is not a checkpoint")
        code = main([
            "convert", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--checkpoint", str(bad),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_exits_3(self, capsys, wavs, tmp_path, tiny_ckpt):
        # "n_layers": 1.0 in a padded format-4 header; the blobs are intact
        src, ref = wavs
        raw = Path(tiny_ckpt).read_bytes()
        header_end = 16 + int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:header_end])
        header["config"]["n_layers"] = 1.0
        blob = json.dumps(header).encode()
        blob += b" " * ((-16 - len(blob)) % 64)
        Path(tiny_ckpt).write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:])
        code = main([
            "convert", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--checkpoint", tiny_ckpt,
        ])
        assert code == 3
        assert "n_layers" in capsys.readouterr().err

    def test_nan_checkpoint_exits_4(self, capsys, wavs, tmp_path):
        src, ref = wavs
        params = init_params(WIDE_TINY, seed=0)
        params.tensors["src_in.w"][:] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_params(ckpt, params)
        code = main([
            "convert", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--checkpoint", str(ckpt),
        ])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convert", "stream"])
    @pytest.mark.parametrize("widths", [(6, 128, 192), (1024, 4, 192), (1024, 128, 3)], ids=["latent", "cond", "spk"])
    def test_checkpoint_that_does_not_fit_the_codec_exits_3_before_reading_audio(
            self, capsys, wavs, tmp_path, monkeypatch, command, widths):
        src, ref = wavs
        ckpt = tmp_path / "narrow.ckpt"
        d_latent, d_cond, d_spk = widths
        save_params(ckpt, init_params(replace(WIDE_TINY, d_latent=d_latent, d_cond=d_cond, d_spk=d_spk), seed=0))
        monkeypatch.setattr("latentvc.cli.read_wav", lambda path: pytest.fail(f"read {path}"))
        assert main([command, "--source", src, "--reference", ref, "--output", str(tmp_path / "out.wav"),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"(d_latent, d_cond, d_spk) = {widths}" in err
        assert not (tmp_path / "out.wav").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestPathRule:
    """Any two path flags of a command, one naming a file that the command writes, are refused with
    exit 2 before any file is read or written, however either path is spelled."""

    FLAGS = {
        **{command: ("--source", "--reference", "--checkpoint", "--output", "--report")
           for command in ("convert", "stream", "bench")},
        "features": ("--source", "--output", "--report"),
        "make-pairs": ("--output", "--report"),
        "eval-loss": ("--source", "--reference", "--report"),
    }
    PAIRS = [(command, a, b) for command, flags in FLAGS.items() for a in flags for b in flags
             if a < b and {a, b} & {"--output", "--report"}]

    @settings(max_examples=60, deadline=None)
    @given(pair=st.sampled_from(PAIRS), spellings=st.tuples(*[st.sampled_from(["x", "./x", "d/../x", "abs"])] * 2),
           inside=st.sampled_from(["", "/manifest.json", "/sub/r.json"]),
           ext=st.sampled_from([".mel.f32", ".mel.json", ".spk.f32"]))
    def test_two_flags_naming_one_file_exit_2_untouched(self, tmp_path_factory, pair, spellings, inside, ext):
        command, a, b = pair
        tmp = tmp_path_factory.mktemp("paths")
        wav = tmp / "src.wav"
        write_wav(wav, make_wave(8000, seed=51, amp=0.2))
        (tmp / "ref.wav").write_bytes(wav.read_bytes())
        (tmp / "d").mkdir()
        # Both flags name x, a WAV, so the command would run if its paths went unchecked. Where one is
        # the features prefix or the make-pairs corpus x, the other names a features file or a path in x.
        suffix = {"features": ext, "make-pairs": inside}.get(command, "") if "--output" in pair else ""
        shared = tmp / ("x" + suffix)
        shared.parent.mkdir(parents=True, exist_ok=True)
        shared.write_bytes(wav.read_bytes())
        defaults = {"--source": "src.wav", "--reference": "ref.wav", "--output": "out.wav", "--report": None,
                    "--checkpoint": None}
        named = dict(zip((a, b), (str(tmp / "x") if spelling == "abs" else spelling for spelling in spellings)))
        named = {flag: path + (suffix if flag != "--output" else "") for flag, path in named.items()}
        argv = [command]
        for flag in self.FLAGS[command]:
            path = named.get(flag, defaults[flag])
            argv += [flag, path] if path is not None else []
        if command in ("convert", "stream", "bench"):
            argv += [] if "--checkpoint" in named else ["--identity"]
            argv += GEOMETRY if command != "convert" else []
        before = tree_of(tmp)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            mp.chdir(tmp)
            code = main(argv)
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == "" and "must differ" in err.getvalue()
        assert tree_of(tmp) == before


class TestFlagFloors:
    """Each numeric flag below its floor, NaN or infinite is refused by one
    check in `main`: exit 2 naming the flag, before any file is read,
    written or made."""

    @staticmethod
    def assert_refused(capsys, tmp_path, argv, message):
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([*argv, "--report", str(tmp_path / "report.json")]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command, flag, value", [
        *[(command, "--seed", "-1") for command in ("convert", "stream", "bench", "make-pairs", "sample-roles")],
        ("bench", "--repeats", "0"), ("bench", "--repeats", "-1"),
        ("make-pairs", "--count", "0"), ("make-pairs", "--count", "-2"),
        # -inf is read as a value, not an unknown option, though written after a space
        *[("make-pairs", "--duration-s", value) for value in ("1", "4.79", "nan", "inf", "-inf")],
        ("sample-roles", "--draws", "0"), ("sample-roles", "--draws", "-3"),
    ])
    def test_value_below_the_floor_exits_2_naming_the_flag(self, capsys, wavs, tmp_path, command, flag, value):
        src, ref = wavs
        convert = ["--source", src, "--reference", ref, "--output", str(tmp_path / "out.wav")]
        argv = {"make-pairs": ["--output", str(tmp_path / "corpus")], "sample-roles": []}.get(command, convert)
        dest = flag[2:].replace("-", "_")
        got = (float if dest == "duration_s" else int)(value)
        self.assert_refused(capsys, tmp_path, [command, *argv, flag, value],
                            f"{flag} must be finite and >= {FLOORS[dest]}, got {got}")

    # The seed is unused beside either, but a negative one is still refused.
    @pytest.mark.parametrize("command", ["convert", "stream", "bench"])
    @pytest.mark.parametrize("model", ["identity", "checkpoint"])
    def test_negative_seed_beside_identity_or_checkpoint_exits_2(self, capsys, wavs, tmp_path, tiny_ckpt, command,
                                                                  model):
        src, ref = wavs
        which = ["--identity"] if model == "identity" else ["--checkpoint", tiny_ckpt]
        self.assert_refused(capsys, tmp_path, [command, "--source", src, "--reference", ref, "--output",
                                               str(tmp_path / "out.wav"), *which, "--seed", "-1"], "--seed")

    @pytest.mark.parametrize("command", ["make-pairs", "sample-roles"])
    def test_seed_past_float_range_is_accepted(self, capsys, tmp_path, command):
        argv = {"make-pairs": ["--output", str(tmp_path / "corpus"), "--count", "1"],
                "sample-roles": ["--draws", "10"]}[command]
        assert run_cli(capsys, [command, *argv, "--seed", "9" * 400])[0] == 0


class TestStream:
    def test_payload_is_a_latency_report(self, capsys, wavs, tmp_path):
        src, ref = wavs
        code, payload = run_cli(capsys, [
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY,
        ])
        assert code == 0
        assert set(payload) == {
            "t_model_ms", "t_current_ms", "t_overlap_ms", "t_future_ms",
            "t_compute_ms", "t_latency_ms", "deadline_misses", "chunk_count", "rtf", "chunks", "clipped_samples",
            "machine", "queued_ms", "t_queued_ms", "late_chunks",
        }
        assert set(payload["t_compute_ms"]) == {"mean", "p50", "p95", "max", "enc", "convert", "dec"}
        assert payload["t_model_ms"] == pytest.approx(32.0)
        assert payload["chunk_count"] == math.ceil(8000 / SMALL_STREAM.current_samples) == len(payload["chunks"])
        assert len(payload["queued_ms"]) == payload["chunk_count"]
        assert payload["t_latency_ms"] == pytest.approx(payload["t_model_ms"] + payload["t_compute_ms"]["mean"])
        assert payload["rtf"] > 0.0

    @pytest.mark.parametrize("command", ["stream", "bench"])
    def test_payload_names_the_machine(self, capsys, wavs, tmp_path, monkeypatch, command):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        src, ref = wavs
        repeats = ["--repeats", "1"] if command == "bench" else []
        code, payload = run_cli(capsys, [command, "--source", src, "--reference", ref, *repeats,
                                         "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY])
        assert code == 0
        machine = payload["machine"]
        assert set(machine) == {"cpu_model", "cpu_family", "cpu_model_id", "cpu_stepping", "l3_cache", "cpu_count",
                                "load_1m_start", "load_1m_end", "wall_s", "cpu_s", "numpy", "blas",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        for key in ("cpu_model", "l3_cache"):
            assert machine[key] is None or (isinstance(machine[key], str) and machine[key]), key
        for key in ("cpu_family", "cpu_model_id", "cpu_stepping"):
            assert machine[key] is None or (type(machine[key]) is int and machine[key] >= 0), key
        assert machine["cpu_count"] is None or isinstance(machine["cpu_count"], int)
        assert all(isinstance(machine[k], float) and machine[k] >= 0.0 for k in ("load_1m_start", "load_1m_end", "cpu_s"))
        assert isinstance(machine["wall_s"], float) and machine["wall_s"] > 0.0
        assert machine["numpy"] == np.__version__
        assert set(machine["blas"]) == {"name", "version"}
        assert all(v is None or isinstance(v, str) for v in machine["blas"].values())
        assert machine["OPENBLAS_NUM_THREADS"] is None and machine["OMP_NUM_THREADS"] == "3"

    def test_payload_keys_match_a_one_run_bench(self, capsys, wavs, tmp_path):
        src, ref = wavs
        argv = ["--source", src, "--reference", ref, "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY]
        code, stream = run_cli(capsys, ["stream", *argv])
        assert code == 0
        code, bench = run_cli(capsys, ["bench", *argv, "--repeats", "1"])
        assert code == 0
        assert list(stream) == list(bench)
        assert stream["chunk_count"] == bench["chunk_count"]

    # Under GEOMETRY a chunk is late when its queued latency passes 32 + 16 ms:
    # the 30 ms chunk finishes at 62 ms and the 3 ms one queued behind it at 49.
    @pytest.mark.parametrize("command", ["stream", "bench"])
    @pytest.mark.parametrize("slow, warning", [
        (1.0, ""),
        (10.0, "warning: {late} of {count} chunks finished after their deadline (late_chunks); "
               "the first is chunks[2]\n"),
    ], ids=["on-time", "late"])
    def test_late_chunks_are_named_on_stderr(self, capsys, wavs, tmp_path, monkeypatch, command, slow, warning):
        timings = ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (slow, slow, slow), (1.0, 1.0, 1.0))
        monkeypatch.setattr(cli, "stream_run", lambda source, reference, cfg, codec, converter: (
            source, LatencyReport(cfg, timings, 0.1, source.duration_s)))
        src, ref = wavs
        repeats = ["--repeats", "2"] if command == "bench" else []
        assert main([command, "--source", src, "--reference", ref, *repeats,
                     "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        runs = 2 if command == "bench" else 1
        assert payload["late_chunks"] == (2 * runs if warning else 0)
        assert payload["chunk_count"] == 4 * runs
        assert captured.err == warning.format(late=payload["late_chunks"], count=payload["chunk_count"])

    def test_identity_round_trips_the_file_exactly(self, capsys, wavs, tmp_path):
        # A codec round trip moves int16 grid values by ~1e-12, far below
        # half a quantization step, so the rewritten file is the same.
        src, ref = wavs
        out_path = str(tmp_path / "out.wav")
        assert run_cli(capsys, ["stream", "--source", src, "--reference", ref,
                            "--output", out_path, "--identity", *GEOMETRY])[0] == 0
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)

    def test_default_geometry_reports_240ms_model_latency(self, capsys, wavs, tmp_path):
        src, ref = wavs
        code, payload = run_cli(capsys, [
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity",
        ])
        assert code == 0
        assert payload["t_model_ms"] == pytest.approx(240.0)

    def test_nan_checkpoint_exits_4_naming_the_chunk(self, capsys, wavs, tmp_path):
        src, ref = wavs
        params = init_params(WIDE_TINY, seed=0)
        params.tensors["src_in.w"][:] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_params(ckpt, params)
        code = main([
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--checkpoint", str(ckpt), *GEOMETRY,
        ])
        assert code == 4
        assert "step 0" in capsys.readouterr().err

    def test_invalid_geometry_exits_2(self, capsys, wavs, tmp_path):
        src, ref = wavs
        assert main([
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity",
            "--current-ms", "0",
        ]) == 2

    def test_fractional_sample_geometry_exits_2_naming_it(self, capsys, wavs, tmp_path):
        # 0.03 ms is 0.48 samples at 16 kHz
        src, ref = wavs
        assert main([
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity", "--overlap-ms", "0.03",
        ]) == 2
        assert "overlap_ms=0.03 ms is not a whole number of samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stream", "bench"])
    @pytest.mark.parametrize("window", ["inf", "nan", "-inf"])
    def test_non_finite_window_exits_2_naming_it(self, capsys, wavs, tmp_path, command, window):
        src, ref = wavs
        assert main([
            command, "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity", "--window-ms", window,
        ]) == 2
        assert "window_ms" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()


class TestClipCount:
    # Written at three times full scale, most source samples sit on the PCM
    # limits, and the codec round trip moves about half of those just past.
    @pytest.fixture()
    def loud(self, tmp_path, wavs):
        src = tmp_path / "loud.wav"
        write_wav(src, make_wave(8000, seed=53, amp=3.0))
        return str(src), wavs[1]

    @staticmethod
    def count_clipped(w):
        return int(np.count_nonzero((w.samples < -1.0) | (w.samples > 32767 / 32768)))

    def test_convert_payload_counts_clipped_samples(self, capsys, loud, tmp_path):
        src, ref = loud
        code, payload = run_cli(capsys, ["convert", "--source", src, "--reference", ref,
                                     "--output", str(tmp_path / "out.wav"), "--identity"])
        assert code == 0
        want = self.count_clipped(offline_run(read_wav(src), read_wav(ref), toy_codec(), identity_converter)[0])
        assert want > 0 and payload["clipped_samples"] == want

    def test_stream_payload_counts_clipped_samples(self, capsys, loud, tmp_path):
        src, ref = loud
        code, payload = run_cli(capsys, ["stream", "--source", src, "--reference", ref,
                                     "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY])
        assert code == 0
        out, _ = stream_run(read_wav(src), read_wav(ref), SMALL_STREAM, toy_codec(), identity_converter)
        want = self.count_clipped(out)
        assert want > 0 and payload["clipped_samples"] == want

    # The count is of the emitted audio, whether or not `--output` writes it.
    @pytest.mark.parametrize("output", [True, False], ids=["output", "no-output"])
    def test_bench_payload_counts_clipped_samples(self, capsys, loud, tmp_path, output):
        src, ref = loud
        write = ["--output", str(tmp_path / "out.wav")] if output else []
        code, payload = run_cli(capsys, ["bench", "--source", src, "--reference", ref, "--repeats", "1",
                                     *write, "--identity", *GEOMETRY])
        assert code == 0 and (tmp_path / "out.wav").exists() == output
        out, _ = stream_run(read_wav(src), read_wav(ref), SMALL_STREAM, toy_codec(), identity_converter)
        want = self.count_clipped(out)
        assert want > 0 and payload["clipped_samples"] == want


class TestBenchCommand:
    def test_pools_chunk_timings(self, capsys, wavs):
        src, ref = wavs
        code, payload = run_cli(capsys, [
            "bench", "--source", src, "--reference", ref, "--identity",
            "--repeats", "2", *GEOMETRY,
        ])
        assert code == 0
        steps = math.ceil(8000 / SMALL_STREAM.current_samples)
        assert payload["chunk_count"] == 2 * steps

    def test_writes_output_only_when_asked(self, capsys, wavs, tmp_path):
        src, ref = wavs
        out_path = tmp_path / "out.wav"
        argv = ["bench", "--source", src, "--reference", ref, "--identity", "--repeats", "1", *GEOMETRY]
        before = set(tmp_path.iterdir())
        code, payload = run_cli(capsys, argv)
        assert code == 0 and payload["clipped_samples"] == 0
        assert set(tmp_path.iterdir()) == before
        code, payload = run_cli(capsys, [*argv, "--output", str(out_path)])
        assert code == 0 and payload["clipped_samples"] == 0
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)


class TestFeatures:
    def test_writes_row_major_float32_sidecars(self, capsys, wavs, tmp_path):
        src, _ = wavs
        base = tmp_path / "feat" / "base"
        code, payload = run_cli(capsys, ["features", "--source", src, "--output", str(base)])
        assert code == 0

        w = read_wav(src)
        mel = mel_spectrogram(w)
        spk = speaker_embedding(mel)
        assert payload == {"mel_rows": mel.shape[0], "mel_cols": 128, "spk_dim": 192}

        meta = json.loads((tmp_path / "feat" / "base.mel.json").read_text())
        assert meta == {"rows": mel.shape[0], "cols": 128}
        raw = np.frombuffer((tmp_path / "feat" / "base.mel.f32").read_bytes(), dtype="<f4")
        assert np.allclose(raw.reshape(meta["rows"], meta["cols"]), mel, atol=1e-6)
        raw_spk = np.frombuffer((tmp_path / "feat" / "base.spk.f32").read_bytes(), dtype="<f4")
        assert np.allclose(raw_spk, spk, atol=1e-6)

    def test_non_finite_mel_exits_4_writing_nothing(self, capsys, wavs, tmp_path, monkeypatch):
        # no 16-bit WAV gives a non-finite mel, so the extractor is patched
        monkeypatch.setattr(cli, "mel_spectrogram", lambda w: np.full((3, 128), np.inf))
        src, _ = wavs
        assert main(["features", "--source", src, "--output", str(tmp_path / "feat" / "base")]) == 4
        assert "log-mel contains NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / "feat").exists()

    @pytest.mark.parametrize("ext", [".mel.f32", ".mel.json", ".spk.f32"])
    def test_source_that_features_would_write_exits_2_untouched(self, capsys, wavs, tmp_path, ext):
        # However the prefix is spelled, the source is refused before it is
        # read or any file is written.
        src, ref = wavs
        clip = tmp_path / ("clip" + ext)
        clip.write_bytes(Path(src).read_bytes())
        assert main(["features", "--source", str(clip), "--output", str(tmp_path / "." / "clip")]) == 2
        assert "must differ from --source" in capsys.readouterr().err
        assert clip.read_bytes() == Path(src).read_bytes()
        assert set(tmp_path.iterdir()) == {Path(src), Path(ref), clip}


class TestMakePairs:
    def test_writes_corpus_with_manifest(self, capsys, tmp_path):
        outdir = tmp_path / "corpus"
        code, payload = run_cli(capsys, [
            "make-pairs", "--output", str(outdir), "--count", "2", "--seed", "9",
        ])
        assert code == 0
        assert payload == {"count": 2, "dir": str(outdir)}
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest) == 2
        for entry in manifest:
            assert set(entry) == {"real", "generated", "content_seed", "speaker_a", "speaker_b"}
            assert entry["speaker_a"] != entry["speaker_b"]
            real = read_wav(outdir / entry["real"])
            gen = read_wav(outdir / entry["generated"])
            assert len(real) == len(gen) == 76800
            assert not np.array_equal(real.samples, gen.samples)

    def test_same_seed_reproduces_the_corpus(self, capsys, tmp_path):
        for name in ("a", "b"):
            assert main(["make-pairs", "--output", str(tmp_path / name),
                         "--count", "1", "--seed", "4"]) == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "manifest.json").read_text() == \
               (tmp_path / "b" / "manifest.json").read_text()
        assert np.array_equal(read_wav(tmp_path / "a" / "pair_000_real.wav").samples,
                              read_wav(tmp_path / "b" / "pair_000_real.wav").samples)

    # Refused before any work: no directory is made.
    @pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-2"), ("--duration-s", "1"),
                                             ("--duration-s", "nan"), ("--duration-s", "inf"), ("--seed", "-1")])
    def test_bad_count_or_duration_exits_2_and_makes_nothing(self, capsys, tmp_path, flag, value):
        outdir = tmp_path / "corpus"
        assert main(["make-pairs", "--output", str(outdir), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not outdir.exists()


class TestSampleRoles:
    def test_reports_frequencies(self, capsys):
        code, payload = run_cli(capsys, ["sample-roles", "--draws", "2000", "--seed", "3"])
        assert code == 0
        freqs = payload["frequencies"]
        assert set(freqs) == {"standard", "reconstruction", "reversed"}
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_degenerate_probs_are_exact(self, capsys):
        code, payload = run_cli(capsys, [
            "sample-roles", "--draws", "500", "--probs", "0,1,0",
        ])
        assert code == 0
        assert payload["frequencies"]["reconstruction"] == 1.0

    def test_wrong_prob_count_exits_2(self, capsys):
        assert main(["sample-roles", "--probs", "0.5,0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_normalized_probs_exit_2(self, capsys):
        assert main(["sample-roles", "--probs", "0.5,0.4,0.2"]) == 2

    @pytest.mark.parametrize("probs", ["nan,nan,nan", "1,nan,0", "inf,0,0", "0,0,-inf"])
    def test_non_finite_probs_exit_2(self, capsys, probs):
        assert main(["sample-roles", "--draws", "1000", "--probs", probs]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("probs", ["a,b,c", "0.4,,0.6"])
    def test_probs_that_are_not_numbers_exit_2_naming_them(self, capsys, probs):
        assert main(["sample-roles", "--probs", probs]) == 2
        captured = capsys.readouterr()
        assert f"--probs takes numbers, got {probs!r}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_draws_below_one_exit_2(self, capsys, draws):
        assert main(["sample-roles", "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert "--draws" in captured.err and captured.out == ""


class TestEvalLoss:
    def test_identical_files_score_zero(self, capsys, tmp_path):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        w = make_wave(8000, seed=61, amp=0.2)
        write_wav(a, w)
        write_wav(b, w)
        code, payload = run_cli(capsys, ["eval-loss", "--source", str(a), "--reference", str(b)])
        assert code == 0
        assert set(payload) == {"mel_recon", "spk_sim", "total"}
        assert payload["total"] == 0.0

    def test_different_files_score_positive(self, capsys, wavs):
        src, ref = wavs
        code, payload = run_cli(capsys, ["eval-loss", "--source", src, "--reference", ref])
        assert code == 0
        assert payload["total"] > 0.0
        assert payload["total"] == payload["mel_recon"] + payload["spk_sim"]
