"""Command-line interface, run in process through main(argv).

Covers each subcommand's happy path, the JSON payloads, the side files
they write, and the exit-code contract: 0 ok, 2 bad arguments, 3 broken
input files, 4 non-finite values in the pipeline.
"""

import json
import math

import numpy as np
import pytest

from latentvc import (
    ConvertRequest,
    convert_offline,
    convert_streaming,
    init_params,
    mel_spectrogram,
    read_wav,
    save_params,
    speaker_embedding,
    write_wav,
)
from latentvc.cli import main

from conftest import make_wave
from test_pipeline import SMALL_STREAM, WIDE_TINY

GEOMETRY = [
    "--window-ms", "192", "--current-ms", "16", "--overlap-ms", "4", "--future-ms", "12",
]


@pytest.fixture()
def wavs(tmp_path):
    src = tmp_path / "src.wav"
    ref = tmp_path / "ref.wav"
    write_wav(src, make_wave(8000, seed=51, amp=0.2))
    write_wav(ref, make_wave(8000, seed=52, amp=0.2))
    return str(src), str(ref)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


class TestConvert:
    def test_identity_writes_output_and_payload(self, capsys, wavs, tmp_path):
        src, ref = wavs
        out_path = str(tmp_path / "out.wav")
        code, payload = run(capsys, [
            "convert", "--source", src, "--reference", ref,
            "--output", out_path, "--identity",
        ])
        assert code == 0
        assert set(payload) == {"rtf", "duration_s", "output", "clipped_samples"}
        assert payload["output"] == out_path
        assert payload["clipped_samples"] == 0
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)

    def test_report_file_matches_stdout(self, capsys, wavs, tmp_path):
        src, ref = wavs
        report = tmp_path / "report.json"
        code, payload = run(capsys, [
            "convert", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text()) == payload

    def test_missing_source_exits_3(self, capsys, wavs, tmp_path):
        _, ref = wavs
        code = main([
            "convert", "--source", str(tmp_path / "nope.wav"), "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity",
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_output_colliding_with_source_exits_2(self, capsys, wavs):
        src, ref = wavs
        assert main(["convert", "--source", src, "--reference", ref,
                     "--output", src, "--identity"]) == 2

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

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestStream:
    def test_payload_is_a_latency_report(self, capsys, wavs, tmp_path):
        src, ref = wavs
        code, payload = run(capsys, [
            "stream", "--source", src, "--reference", ref,
            "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY,
        ])
        assert code == 0
        assert set(payload) == {
            "t_model_ms", "t_current_ms", "t_overlap_ms", "t_future_ms",
            "t_compute_ms", "t_latency_ms", "deadline_misses", "chunk_count", "rtf", "clipped_samples",
        }
        assert set(payload["t_compute_ms"]) == {"mean", "p50", "p95", "max", "enc", "convert", "dec"}
        assert payload["t_model_ms"] == pytest.approx(32.0)
        assert payload["chunk_count"] == math.ceil(8000 / SMALL_STREAM.current_samples)

    def test_default_geometry_reports_240ms_model_latency(self, capsys, wavs, tmp_path):
        src, ref = wavs
        code, payload = run(capsys, [
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
        code, payload = run(capsys, ["convert", "--source", src, "--reference", ref,
                                     "--output", str(tmp_path / "out.wav"), "--identity"])
        assert code == 0
        want = self.count_clipped(convert_offline(ConvertRequest(src, ref, use_identity=True))[0])
        assert want > 0 and payload["clipped_samples"] == want

    def test_stream_payload_counts_clipped_samples(self, capsys, loud, tmp_path):
        src, ref = loud
        code, payload = run(capsys, ["stream", "--source", src, "--reference", ref,
                                     "--output", str(tmp_path / "out.wav"), "--identity", *GEOMETRY])
        assert code == 0
        out, _ = convert_streaming(ConvertRequest(src, ref, stream_cfg=SMALL_STREAM, use_identity=True))
        want = self.count_clipped(out)
        assert want > 0 and payload["clipped_samples"] == want


class TestBenchCommand:
    def test_pools_chunk_timings(self, capsys, wavs):
        src, ref = wavs
        code, payload = run(capsys, [
            "bench", "--source", src, "--reference", ref, "--identity",
            "--repeats", "2", *GEOMETRY,
        ])
        assert code == 0
        steps = math.ceil(8000 / SMALL_STREAM.current_samples)
        assert payload["chunk_count"] == 2 * steps


class TestFeatures:
    def test_writes_row_major_float32_sidecars(self, capsys, wavs, tmp_path):
        src, _ = wavs
        base = tmp_path / "feat" / "base"
        code, payload = run(capsys, ["features", "--source", src, "--output", str(base)])
        assert code == 0

        w = read_wav(src)
        mel = mel_spectrogram(w)
        spk = speaker_embedding(w, seed=0)
        assert payload == {"mel_rows": mel.shape[0], "mel_cols": 128, "spk_dim": 192}

        meta = json.loads((tmp_path / "feat" / "base.mel.json").read_text())
        assert meta == {"rows": mel.shape[0], "cols": 128}
        raw = np.frombuffer((tmp_path / "feat" / "base.mel.f32").read_bytes(), dtype="<f4")
        assert np.allclose(raw.reshape(meta["rows"], meta["cols"]), mel, atol=1e-6)
        raw_spk = np.frombuffer((tmp_path / "feat" / "base.spk.f32").read_bytes(), dtype="<f4")
        assert np.allclose(raw_spk, spk, atol=1e-6)


class TestMakePairs:
    def test_writes_corpus_with_manifest(self, capsys, tmp_path):
        outdir = tmp_path / "corpus"
        code, payload = run(capsys, [
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


class TestSampleRoles:
    def test_reports_frequencies(self, capsys):
        code, payload = run(capsys, ["sample-roles", "--draws", "2000", "--seed", "3"])
        assert code == 0
        freqs = payload["frequencies"]
        assert set(freqs) == {"standard", "reconstruction", "reversed"}
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_degenerate_probs_are_exact(self, capsys):
        code, payload = run(capsys, [
            "sample-roles", "--draws", "500", "--probs", "0,1,0",
        ])
        assert code == 0
        assert payload["frequencies"]["reconstruction"] == 1.0

    def test_wrong_prob_count_exits_2(self, capsys):
        assert main(["sample-roles", "--probs", "0.5,0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_normalized_probs_exit_2(self, capsys):
        assert main(["sample-roles", "--probs", "0.5,0.4,0.2"]) == 2


class TestEvalLoss:
    def test_identical_files_score_zero(self, capsys, tmp_path):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        w = make_wave(8000, seed=61, amp=0.2)
        write_wav(a, w)
        write_wav(b, w)
        code, payload = run(capsys, ["eval-loss", "--source", str(a), "--reference", str(b)])
        assert code == 0
        assert set(payload) == {"mel_recon", "spk_sim", "total", "weights"}
        assert payload["total"] == 0.0

    def test_different_files_score_positive(self, capsys, wavs):
        src, ref = wavs
        code, payload = run(capsys, ["eval-loss", "--source", src, "--reference", ref])
        assert code == 0
        assert payload["total"] > 0.0
        assert payload["total"] == pytest.approx(
            payload["weights"]["mel"] * payload["mel_recon"]
            + payload["weights"]["spk"] * payload["spk_sim"]
        )
