"""End-to-end conversion paths: the offline and streaming engines over
real files, the repeat-run benchmark (the CLI's bench command), and the
converter the CLI's flags select.

File-based identity checks rely on the int16 sample grid: a codec round
trip perturbs grid values by ~1e-12, far below half a quantization step,
so rewritten files decode to exactly the same integers.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentvc import (
    CodecInterface,
    Waveform,
    identity_converter,
    init_params,
    make_converter,
    mel_spectrogram,
    offline_run,
    read_wav,
    slice_pad,
    speaker_embedding,
    stream_run,
    toy_codec,
    write_wav,
)
from latentvc import cli
from latentvc.cli import main

from conftest import GEOMETRY, SMALL_STREAM, WIDE_TINY, gated_params, make_wave, run_cli


@pytest.fixture()
def wav_pair(tmp_path):
    src = tmp_path / "src.wav"
    ref = tmp_path / "ref.wav"
    write_wav(src, make_wave(8000, seed=31, amp=0.2))
    write_wav(ref, make_wave(8000, seed=32, amp=0.2))
    return str(src), str(ref)


def read_pair(wav_pair):
    src, ref = wav_pair
    return read_wav(src), read_wav(ref)


class TestOfflineRun:
    def test_identity_reproduces_input(self):
        # 40000 samples is not a hop multiple, so pad-and-trim is exercised
        src = make_wave(40000, seed=41)
        ref = make_wave(8000, seed=42)
        out, rtf = offline_run(src, ref, toy_codec(), identity_converter)
        assert len(out) == 40000
        assert np.max(np.abs(out.samples - src.samples)) < 1e-9
        assert rtf > 0.0

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError, match="source must contain at least one sample"):
            offline_run(Waveform(np.zeros(0)), make_wave(4096), toy_codec(), identity_converter)

    def test_linear_converter_scales_audio(self):
        # the codec is linear, so doubling latents doubles the waveform
        src = make_wave(4096, seed=43)
        ref = make_wave(4096, seed=44)

        def doubler(z, c, g, **kw):
            return 2.0 * z

        out, _ = offline_run(src, ref, toy_codec(), doubler)
        assert np.max(np.abs(out.samples - 2.0 * src.samples)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5000), n_ref=st.integers(1024, 6000),
           dtype=st.sampled_from([np.float32, np.float64]))
    @example(seed=5, n=1, n_ref=1024, dtype=np.float32)
    @example(seed=6, n=5000, n_ref=1024, dtype=np.float64)
    def test_is_one_encode_convert_decode_pass(self, seed, n, n_ref, dtype):
        # the single-pass pipeline written out longhand: pad the source to a
        # hop multiple, encode, convert against the reference's features,
        # decode and trim
        conv = make_converter(gated_params(WIDE_TINY, seed))
        r = np.random.default_rng(seed)
        src = Waveform((0.3 * r.standard_normal(n)).astype(dtype))
        ref = Waveform(0.3 * r.standard_normal(n_ref))
        codec = toy_codec()
        out, _ = offline_run(src, ref, codec, conv)
        padded = slice_pad(src, 0, math.ceil(n / codec.hop) * codec.hop)
        c = mel_spectrogram(ref)
        want = codec.decode(conv(codec.encode(padded), c, speaker_embedding(c))).samples[:n]
        assert out.samples.dtype == want.dtype
        assert np.array_equal(out.samples, want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2_000_000), hop=st.integers(1, 4096))
    @example(n=2_000_000, hop=4096)
    @example(n=1_999_999, hop=4095)
    @example(n=2_000_000, hop=1)
    @example(n=1, hop=4096)
    def test_identity_is_exact_at_any_hop(self, n, hop):
        # a framewise reshape codec is exact, so the output is the source bit
        # for bit only if the window holds exactly the hop-padded source
        codec = CodecInterface(lambda w: w.samples.reshape(-1, hop), lambda z: Waveform(z.reshape(-1)), hop=hop)
        src = Waveform(np.random.default_rng(n).standard_normal(n))
        out, _ = offline_run(src, make_wave(1024, seed=hop), codec, identity_converter)
        assert np.array_equal(out.samples, src.samples)


class TestConvertOffline:
    def test_identity_round_trips_the_file_exactly(self, wav_pair, tmp_path):
        out_path = str(tmp_path / "out.wav")
        out, rtf = offline_run(*read_pair(wav_pair), toy_codec(), identity_converter)
        assert isinstance(out, Waveform)
        assert rtf > 0.0
        write_wav(out_path, out)
        assert np.array_equal(read_wav(out_path).samples, read_wav(wav_pair[0]).samples)


class TestConvertStreaming:
    def test_identity_round_trips_the_file_exactly(self, wav_pair, tmp_path):
        out_path = str(tmp_path / "out.wav")
        out, _ = stream_run(*read_pair(wav_pair), SMALL_STREAM, toy_codec(), identity_converter)
        write_wav(out_path, out)
        assert np.array_equal(read_wav(out_path).samples, read_wav(wav_pair[0]).samples)
        assert len(out) == 8000

    def test_report_geometry_and_chunk_count(self, wav_pair):
        _, report = stream_run(*read_pair(wav_pair), SMALL_STREAM, toy_codec(), identity_converter)
        assert report.chunk_count == math.ceil(8000 / SMALL_STREAM.current_samples)
        assert report.t_model_ms == pytest.approx(32.0)
        assert report.t_latency_ms == pytest.approx(report.t_model_ms + report.t_compute_mean_ms)
        assert report.rtf > 0.0


class TestBench:
    """The bench command: one warm-up stream, then --repeats measured ones."""

    def test_pools_timings_across_repeats(self, capsys, wav_pair):
        src, ref = wav_pair
        steps = math.ceil(8000 / SMALL_STREAM.current_samples)
        for repeats in (1, 3):
            code, payload = run_cli(capsys, ["bench", "--source", src, "--reference", ref, "--identity",
                                             "--repeats", str(repeats), *GEOMETRY])
            assert code == 0
            assert payload["chunk_count"] == len(payload["chunks"]) == repeats * steps
            # the pooled summaries are those of the joined chunk records
            records = np.asarray(payload["chunks"])
            totals = records.sum(axis=1)
            summary = payload["t_compute_ms"]
            assert summary["mean"] == pytest.approx(totals.mean(), rel=1e-12)
            assert summary["p50"] == pytest.approx(np.median(totals), rel=1e-12)
            assert summary["p95"] == pytest.approx(np.percentile(totals, 95), rel=1e-12)
            assert summary["max"] == totals.max()
            stages = [summary[stage] for stage in ("enc", "convert", "dec")]
            assert stages == pytest.approx(records.mean(axis=0), rel=1e-12)
            assert payload["deadline_misses"] == int(np.count_nonzero(totals > payload["t_current_ms"]))

    def test_pools_deadline_misses_across_repeats(self, capsys, wav_pair, monkeypatch):
        # Every 8th chunk takes over its 16 ms current region; a stream is
        # 32 chunks, so each of the two measured runs has 4 late chunks.
        calls = []

        def slow_every_8th(z, c, g):
            calls.append(None)
            if len(calls) % 8 == 1:
                time.sleep(0.03)
            return z

        monkeypatch.setattr(cli, "_converter", lambda args: slow_every_8th)
        src, ref = wav_pair
        code, payload = run_cli(capsys, ["bench", "--source", src, "--reference", ref, "--repeats", "2", *GEOMETRY])
        assert code == 0
        totals = [sum(rec) for rec in payload["chunks"]]
        assert len(calls) == 3 * 32 and len(totals) == payload["chunk_count"] == 2 * 32
        assert payload["deadline_misses"] == sum(t > 16.0 for t in totals) >= 8
        assert payload["t_compute_ms"]["max"] == max(totals) >= 30.0
        assert payload["t_compute_ms"]["p50"] == float(np.median(totals))

    def test_queue_restarts_at_each_repeat(self, capsys, wav_pair, monkeypatch):
        # The last of a stream's 32 chunks overruns its 16 ms current region
        # by far; a queue carried across the boundary between the two
        # measured runs would delay the second run's first chunk.
        calls = []

        def slow_last(z, c, g):
            calls.append(None)
            if len(calls) % 32 == 0:
                time.sleep(0.05)
            return z

        monkeypatch.setattr(cli, "_converter", lambda args: slow_last)
        src, ref = wav_pair
        code, payload = run_cli(capsys, ["bench", "--source", src, "--reference", ref, "--repeats", "2", *GEOMETRY])
        assert code == 0
        totals = [sum(rec) for rec in payload["chunks"]]
        queued, t_model = payload["queued_ms"], payload["t_model_ms"]
        assert len(queued) == len(totals) == 2 * 32
        assert queued[31] >= t_model + 50.0 and queued[63] >= t_model + 50.0
        assert queued[0] == t_model + totals[0] and queued[32] == t_model + totals[32]
        assert payload["t_queued_ms"]["max"] == max(queued) and payload["late_chunks"] >= 2

    def test_audio_matches_single_run(self, capsys, wav_pair, tmp_path, tiny_ckpt):
        src, ref = wav_pair
        paths = {command: str(tmp_path / f"{command}.wav") for command in ("stream", "bench")}
        payloads = {}
        for command, argv in (("stream", []), ("bench", ["--repeats", "2"])):
            code, payloads[command] = run_cli(capsys, [command, "--source", src, "--reference", ref, "--output",
                                                       paths[command], "--checkpoint", tiny_ckpt, *argv, *GEOMETRY])
            assert code == 0
        single, benched = (read_wav(paths[command]).samples for command in ("stream", "bench"))
        assert np.array_equal(single, benched) and not np.array_equal(single, read_wav(src).samples)
        assert payloads["bench"]["clipped_samples"] == payloads["stream"]["clipped_samples"]

    def test_rejects_zero_repeats(self, capsys, wav_pair, tmp_path):
        src, ref = wav_pair
        assert main(["bench", "--source", src, "--reference", ref, "--identity", "--repeats", "0",
                     "--output", str(tmp_path / "out.wav")]) == 2
        assert "--repeats" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()


def test_entry_points_write_no_file(capsys, wav_pair, tmp_path, monkeypatch):
    # The engine returns audio and bench writes it only when given --output,
    # so nothing appears here, under a relative path either.
    src, ref = wav_pair
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    offline_run(*read_pair(wav_pair), toy_codec(), identity_converter)
    stream_run(*read_pair(wav_pair), SMALL_STREAM, toy_codec(), identity_converter)
    assert run_cli(capsys, ["bench", "--source", src, "--reference", ref, "--identity",
                            "--repeats", "1", *GEOMETRY])[0] == 0
    assert set(tmp_path.iterdir()) == before


class TestLoadConverter:
    """The converter that --identity, --checkpoint or --seed selects."""

    @staticmethod
    def resolve(*flags):
        return cli._converter(cli._build_parser().parse_args(
            ["convert", "--source", "a.wav", "--reference", "b.wav", "--output", "o.wav", *flags]))

    def test_identity_flag_selects_passthrough(self):
        assert self.resolve("--identity") is identity_converter

    def test_checkpoint_path_restores_saved_parameters(self, tiny_ckpt, rng):
        conv = self.resolve("--checkpoint", tiny_ckpt)
        z = rng.standard_normal((3, 1024))
        c = rng.standard_normal((2, 128))
        g = rng.standard_normal(192)
        want = make_converter(init_params(WIDE_TINY, seed=7))  # same structure, zero gates
        assert not np.array_equal(conv(z, c, g), want(z, c, g))
        assert np.array_equal(conv(z, c, g), self.resolve("--checkpoint", tiny_ckpt)(z, c, g))

    def test_default_is_a_seeded_full_model(self):
        conv = self.resolve("--seed", "1")
        assert conv is not identity_converter
        z = np.zeros((2, 1024))
        c = np.zeros((2, 128))
        g = np.zeros(192)
        y = conv(z, c, g)
        assert y.shape == (2, 1024)
        assert np.isfinite(y).all()
