"""End-to-end conversion paths: request validation, offline and streaming
runs over real files, the repeat-run benchmark, and converter resolution.

File-based identity checks rely on the int16 sample grid: a codec round
trip perturbs grid values by ~1e-12, far below half a quantization step,
so rewritten files decode to exactly the same integers.
"""

import math
import time

import numpy as np
import pytest

from latentvc import (
    ConvertRequest,
    ConverterConfig,
    StreamConfig,
    Waveform,
    bench,
    convert_offline,
    convert_streaming,
    identity_converter,
    init_params,
    load_converter,
    make_converter,
    offline_run,
    read_wav,
    save_params,
    toy_codec,
    write_wav,
)
from latentvc import pipeline

from conftest import make_wave

# full-width latent/cond/spk dims so the toy codec plugs in, but a model
# small enough that checkpoint tests stay fast
WIDE_TINY = ConverterConfig(d_model=16, n_layers=1, n_heads=2, d_head=8, ffn_ratio=2)

SMALL_STREAM = StreamConfig(window_ms=192.0, current_ms=16.0, overlap_ms=4.0, future_ms=12.0)


@pytest.fixture()
def wav_pair(tmp_path):
    src = tmp_path / "src.wav"
    ref = tmp_path / "ref.wav"
    write_wav(src, make_wave(8000, seed=31, amp=0.2))
    write_wav(ref, make_wave(8000, seed=32, amp=0.2))
    return str(src), str(ref)


class TestConvertRequest:
    def test_accepts_defaults(self):
        req = ConvertRequest(source_path="a.wav", reference_path="b.wav")
        assert req.checkpoint_path is None and not req.use_identity
        assert req.stream_cfg == StreamConfig()

    def test_rejects_checkpoint_plus_identity(self):
        with pytest.raises(ValueError, match="exclusive"):
            ConvertRequest(
                source_path="a.wav",
                reference_path="b.wav",
                checkpoint_path="ckpt.bin",
                use_identity=True,
            )


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
        with pytest.raises(ValueError):
            offline_run(Waveform(np.zeros(0)), make_wave(4096), toy_codec(), identity_converter)

    def test_linear_converter_scales_audio(self):
        # the codec is linear, so doubling latents doubles the waveform
        src = make_wave(4096, seed=43)
        ref = make_wave(4096, seed=44)

        def doubler(z, c, g, **kw):
            return 2.0 * z

        out, _ = offline_run(src, ref, toy_codec(), doubler)
        assert np.max(np.abs(out.samples - 2.0 * src.samples)) < 1e-9


class TestConvertOffline:
    def test_identity_round_trips_the_file_exactly(self, wav_pair, tmp_path):
        src, ref = wav_pair
        out_path = str(tmp_path / "out.wav")
        out, rtf = convert_offline(ConvertRequest(source_path=src, reference_path=ref, use_identity=True))
        assert isinstance(out, Waveform)
        assert rtf > 0.0
        write_wav(out_path, out)
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)


class TestConvertStreaming:
    def test_identity_round_trips_the_file_exactly(self, wav_pair, tmp_path):
        src, ref = wav_pair
        out_path = str(tmp_path / "out.wav")
        req = ConvertRequest(source_path=src, reference_path=ref,
                             stream_cfg=SMALL_STREAM, use_identity=True)
        out, report = convert_streaming(req)
        write_wav(out_path, out)
        assert np.array_equal(read_wav(out_path).samples, read_wav(src).samples)
        assert len(out) == 8000

    def test_report_geometry_and_chunk_count(self, wav_pair):
        src, ref = wav_pair
        req = ConvertRequest(source_path=src, reference_path=ref,
                             stream_cfg=SMALL_STREAM, use_identity=True)
        _, report = convert_streaming(req)
        assert report.chunk_count == math.ceil(8000 / SMALL_STREAM.current_samples)
        assert report.t_model_ms == pytest.approx(32.0)
        assert report.t_latency_ms == pytest.approx(report.t_model_ms + report.t_compute_mean_ms)
        assert report.rtf > 0.0


class TestBench:
    def test_pools_timings_across_repeats(self, wav_pair):
        src, ref = wav_pair
        req = ConvertRequest(source_path=src, reference_path=ref,
                             stream_cfg=SMALL_STREAM, use_identity=True)
        steps = math.ceil(8000 / SMALL_STREAM.current_samples)
        _, report = bench(req, repeats=2)
        assert report.chunk_count == 2 * steps

    def test_pools_deadline_misses_across_repeats(self, wav_pair, monkeypatch):
        # Every 8th chunk takes over its 16 ms current region; a stream is
        # 32 chunks, so each of the two measured runs has 4 late chunks.
        calls = []

        def slow_every_8th(z, c, g):
            calls.append(None)
            if len(calls) % 8 == 1:
                time.sleep(0.03)
            return z

        monkeypatch.setattr(pipeline, "load_converter", lambda req: slow_every_8th)
        src, ref = wav_pair
        req = ConvertRequest(source_path=src, reference_path=ref, stream_cfg=SMALL_STREAM)
        _, report = bench(req, repeats=2)
        d = report.to_dict()
        totals = [sum(t) for t in report.timings]
        assert len(calls) == 3 * 32 and len(totals) == 2 * 32
        assert d["deadline_misses"] == sum(t > 16.0 for t in totals) >= 8
        assert d["t_compute_ms"]["max"] == max(totals) >= 30.0
        assert d["t_compute_ms"]["p50"] == float(np.median(totals))

    def test_audio_matches_single_run(self, wav_pair):
        src, ref = wav_pair
        req = ConvertRequest(source_path=src, reference_path=ref,
                             stream_cfg=SMALL_STREAM, use_identity=True)
        single, _ = convert_streaming(req)
        benched, _ = bench(req, repeats=2)
        assert np.array_equal(single.samples, benched.samples)

    def test_rejects_zero_repeats(self, wav_pair):
        src, ref = wav_pair
        req = ConvertRequest(source_path=src, reference_path=ref, use_identity=True)
        with pytest.raises(ValueError):
            bench(req, repeats=0)


def test_entry_points_write_no_file(wav_pair, tmp_path):
    # The audio is returned; writing it is the caller's business (the CLI).
    src, ref = wav_pair
    req = ConvertRequest(source_path=src, reference_path=ref, stream_cfg=SMALL_STREAM, use_identity=True)
    before = set(tmp_path.iterdir())
    convert_offline(req)
    convert_streaming(req)
    bench(req, repeats=1)
    assert set(tmp_path.iterdir()) == before


class TestLoadConverter:
    def test_identity_flag_selects_passthrough(self):
        req = ConvertRequest(source_path="a.wav", reference_path="b.wav", use_identity=True)
        assert load_converter(req) is identity_converter

    def test_checkpoint_path_restores_saved_parameters(self, tmp_path, rng):
        params = init_params(WIDE_TINY, seed=7)
        # nonzero gates so the loaded weights actually shape the output
        for name, arr in params.tensors.items():
            if name.endswith("adaln.w2"):
                arr += 0.05 * rng.standard_normal(arr.shape)
        ckpt = tmp_path / "model.ckpt"
        save_params(ckpt, params)

        req = ConvertRequest(source_path="a.wav", reference_path="b.wav",
                             checkpoint_path=str(ckpt))
        conv = load_converter(req)
        z = rng.standard_normal((3, 1024))
        c = rng.standard_normal((2, 128))
        g = rng.standard_normal(192)
        want = make_converter(init_params(WIDE_TINY, seed=7))  # same structure, zero gates
        assert not np.array_equal(conv(z, c, g), want(z, c, g))
        assert np.array_equal(conv(z, c, g), load_converter(req)(z, c, g))

    def test_default_is_a_seeded_full_model(self):
        req = ConvertRequest(source_path="a.wav", reference_path="b.wav", seed=1)
        conv = load_converter(req)
        assert conv is not identity_converter
        z = np.zeros((2, 1024))
        c = np.zeros((2, 128))
        g = np.zeros(192)
        y = conv(z, c, g)
        assert y.shape == (2, 1024)
        assert np.isfinite(y).all()
