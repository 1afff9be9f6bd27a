"""Chunkwise streaming: window geometry, cross-fade math, step sequencing.

The stepping oracle rebuilds the whole chunk loop longhand (zero-padded
window extraction, per-step gain, cosine blend written out with math.cos)
and compares against stream_run driven by a stateful linear converter, so
window placement, overlap blending, and trimming are all checked against
independent arithmetic. Hypothesis properties cover random geometries,
valid and invalid, and a subprocess checks that the runtime imports no
scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentvc
from latentvc import (
    NonFiniteError,
    StreamConfig,
    Waveform,
    build_report,
    compute_t_model,
    crossfade,
    crossfade_weights,
    init_stream,
    mel_spectrogram,
    offline_run,
    speaker_embedding,
    stream_run,
    stream_step,
    toy_codec,
    identity_converter,
)

from conftest import make_wave


class TestStreamConfig:
    def test_default_sample_counts(self):
        cfg = StreamConfig()
        assert cfg.current_samples == 1920
        assert cfg.overlap_samples == 320
        assert cfg.future_samples == 1600
        assert cfg.history_samples == 34560
        assert cfg.window_samples == 38400
        assert cfg.history_ms == 2160.0

    def test_t_model_decomposition(self):
        cfg = StreamConfig()
        assert compute_t_model(cfg) == 240.0
        assert compute_t_model(cfg) == cfg.current_ms + cfg.overlap_ms + cfg.future_ms

    def test_window_is_sum_of_regions(self):
        cfg = StreamConfig(window_ms=1600.0, current_ms=80.0, overlap_ms=16.0, future_ms=64.0)
        total = (cfg.history_samples + cfg.current_samples
                 + cfg.overlap_samples + cfg.future_samples)
        assert total == cfg.window_samples

    def test_rejects_zero_current(self):
        with pytest.raises(ValueError):
            StreamConfig(current_ms=0.0)

    def test_rejects_negative_overlap(self):
        with pytest.raises(ValueError):
            StreamConfig(overlap_ms=-1.0)

    def test_rejects_window_smaller_than_regions(self):
        with pytest.raises(ValueError):
            StreamConfig(window_ms=200.0, current_ms=120.0, overlap_ms=20.0, future_ms=100.0)

    def test_rejects_fractional_samples(self):
        with pytest.raises(ValueError):
            StreamConfig(current_ms=0.03)

    def test_rejects_window_not_codec_aligned(self):
        # 2399.9375 ms is exactly 38399 samples, one short of a hop multiple
        with pytest.raises(ValueError):
            StreamConfig(window_ms=2399.9375, current_ms=120.0,
                         overlap_ms=20.0, future_ms=99.9375)

    def test_zero_overlap_and_future_allowed(self):
        cfg = StreamConfig(window_ms=400.0, current_ms=16.0, overlap_ms=0.0, future_ms=0.0)
        assert cfg.overlap_samples == 0
        assert cfg.future_samples == 0


class TestCrossfadeWeights:
    @pytest.mark.parametrize("n", [1, 2, 320, 1000])
    def test_weights_sum_to_one(self, n):
        w_in, w_out = crossfade_weights(n)
        assert np.abs(w_in + w_out - 1.0).max() < 1e-12

    def test_matches_half_sample_cosine_formula(self):
        w_in, _ = crossfade_weights(7)
        for i in range(7):
            want = 0.5 * (1.0 - math.cos(math.pi * (i + 0.5) / 7))
            assert w_in[i] == pytest.approx(want, abs=1e-15)

    def test_single_sample_splits_evenly(self):
        w_in, w_out = crossfade_weights(1)
        assert w_in[0] == pytest.approx(0.5)
        assert w_out[0] == pytest.approx(0.5)

    def test_strictly_interior_and_monotone(self):
        w_in, _ = crossfade_weights(50)
        assert w_in[0] > 0.0 and w_in[-1] < 1.0
        assert np.all(np.diff(w_in) > 0.0)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            crossfade_weights(0)


class TestCrossfade:
    def test_identical_inputs_pass_through(self):
        x = np.random.default_rng(1).standard_normal(320)
        assert np.abs(crossfade(x, x) - x).max() < 1e-7

    def test_blends_with_fade_weights(self):
        out = crossfade(np.ones(10), np.zeros(10))
        _, w_out = crossfade_weights(10)
        assert np.allclose(out, w_out)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            crossfade(np.zeros(5), np.zeros(6))


def small_cfg():
    # 256-sample current with 64-sample overlap keeps oracle runs fast
    return StreamConfig(window_ms=192.0, current_ms=16.0, overlap_ms=4.0, future_ms=12.0)


def gain_converter(gains):
    """Linear per-call gain; with the linear codec, chunk k decodes to gains[k] * window."""
    calls = []

    def conv(z, c, g):
        gain = gains[len(calls)]
        calls.append(gain)
        return gain * z

    return conv


def oracle_gain_stream(source, cfg, gains):
    C = cfg.current_samples
    H = cfg.history_samples
    O = cfg.overlap_samples
    W = cfg.window_samples
    n = len(source)
    steps = math.ceil(n / C)
    padded = np.concatenate([np.zeros(H), source.samples, np.zeros(W)])
    chunks = []
    tail = None
    for k in range(steps):
        y = gains[k] * padded[k * C : k * C + W]
        out = y[H : H + C].copy()
        if k >= 1 and O > 0:
            for i in range(O):
                w_in = 0.5 * (1.0 - math.cos(math.pi * (i + 0.5) / O))
                out[i] = (1.0 - w_in) * tail[i] + w_in * out[i]
        tail = y[H + C : H + C + O].copy()
        chunks.append(out)
    return np.concatenate(chunks)[:n]


class TestStreamStep:
    def test_steps_must_run_in_order(self, short_wave):
        cfg = small_cfg()
        state = init_stream(short_wave)
        with pytest.raises(ValueError):
            stream_step(state, cfg, short_wave, 1, toy_codec(), identity_converter)

    def test_insufficient_input_names_flush(self, short_wave):
        cfg = small_cfg()
        state = init_stream(short_wave)
        src = make_wave(cfg.current_samples // 2, seed=3)
        with pytest.raises(ValueError, match="flush"):
            stream_step(state, cfg, src, 0, toy_codec(), identity_converter)

    def test_flush_pads_missing_future(self, short_wave):
        cfg = small_cfg()
        state = init_stream(short_wave)
        src = make_wave(cfg.current_samples // 2, seed=3)
        out, state, timings = stream_step(state, cfg, src, 0, toy_codec(),
                                          identity_converter, flush=True)
        assert len(out) == cfg.current_samples
        assert state.k == 1
        assert set(timings) == {"t_enc_ms", "t_convert_ms", "t_dec_ms"}

    def test_emits_exactly_current_samples(self, short_wave):
        cfg = small_cfg()
        state = init_stream(short_wave)
        src = make_wave(4 * cfg.current_samples, seed=4)
        for k in range(3):
            out, state, _ = stream_step(state, cfg, src, k, toy_codec(), identity_converter)
            assert len(out) == cfg.current_samples

    def test_non_finite_converter_output_names_the_step(self, short_wave):
        cfg = small_cfg()
        state = init_stream(short_wave)
        src = make_wave(4 * cfg.current_samples, seed=4)
        nan_at_step_2 = gain_converter([1.0, 1.0, np.nan])
        for k in range(2):
            stream_step(state, cfg, src, k, toy_codec(), nan_at_step_2)
        with pytest.raises(NonFiniteError, match="step 2"):
            stream_step(state, cfg, src, 2, toy_codec(), nan_at_step_2)
        assert state.k == 2
        assert len(state.timings) == 2


class TestStreamRun:
    @pytest.mark.parametrize("n,want_chunks", [(1, 1), (255, 1), (256, 1), (257, 2), (4096, 16)])
    def test_chunk_count_ceil(self, short_wave, n, want_chunks):
        cfg = small_cfg()
        src = make_wave(max(n, 1), seed=n)
        out, rep = stream_run(src, short_wave, cfg, toy_codec(), identity_converter)
        assert rep.chunk_count == want_chunks
        assert len(out) == n

    def test_default_geometry_chunk_count(self, short_wave):
        src = make_wave(40000, seed=6)
        _, rep = stream_run(src, short_wave, StreamConfig(), toy_codec(), identity_converter)
        assert rep.chunk_count == 21

    def test_identity_reproduces_source(self, short_wave):
        for n in (1000, 4096, 10000):
            src = make_wave(n, seed=n)
            out, _ = stream_run(src, short_wave, small_cfg(), toy_codec(), identity_converter)
            assert np.abs(out.samples - src.samples).max() < 1e-12

    def test_matches_longhand_gain_oracle(self, short_wave):
        cfg = small_cfg()
        src = make_wave(3000, seed=7)
        gains = [1.0 + 0.25 * k for k in range(20)]
        out, _ = stream_run(src, short_wave, cfg, toy_codec(), gain_converter(gains))
        want = oracle_gain_stream(src, cfg, gains)
        assert np.abs(out.samples - want).max() < 1e-10

    def test_oracle_with_zero_overlap(self, short_wave):
        cfg = StreamConfig(window_ms=192.0, current_ms=16.0, overlap_ms=0.0, future_ms=16.0)
        src = make_wave(2500, seed=8)
        gains = [1.0 - 0.05 * k for k in range(20)]
        out, _ = stream_run(src, short_wave, cfg, toy_codec(), gain_converter(gains))
        want = oracle_gain_stream(src, cfg, gains)
        assert np.abs(out.samples - want).max() < 1e-10

    def test_rejects_empty_source(self, short_wave):
        with pytest.raises(ValueError):
            stream_run(Waveform(np.zeros(0)), short_wave, small_cfg(),
                       toy_codec(), identity_converter)


class TestInitStream:
    def test_precomputes_reference_features(self, short_wave):
        state = init_stream(short_wave)
        assert state.cond_mel.shape[1] == 128
        assert state.spk.shape == (192,)
        assert np.linalg.norm(state.spk) == pytest.approx(1.0)
        assert state.k == 0
        assert np.array_equal(state.cond_mel, mel_spectrogram(short_wave))
        assert np.array_equal(state.spk, speaker_embedding(short_wave))
        assert np.array_equal(init_stream(short_wave, seed=3).spk, speaker_embedding(short_wave, seed=3))


class TestLatencyReport:
    def test_build_report_aggregates(self):
        cfg = StreamConfig()
        timings = [(float(i + 1), 0.0, 0.0) for i in range(20)]
        rep = build_report(cfg, timings, wall_s=2.0, duration_s=4.0)
        assert rep.t_compute_mean_ms == pytest.approx(10.5)
        assert rep.t_compute_p95_ms == pytest.approx(19.05)
        assert rep.t_enc_ms == pytest.approx(10.5)
        assert rep.t_convert_ms == 0.0
        assert rep.t_latency_ms == pytest.approx(240.0 + 10.5)
        assert rep.chunk_count == 20
        assert rep.rtf == pytest.approx(0.5)

    def test_latency_is_model_plus_compute(self):
        cfg = StreamConfig()
        rep = build_report(cfg, [(1.0, 2.0, 3.0)], wall_s=0.01, duration_s=0.12)
        assert rep.t_latency_ms == pytest.approx(rep.t_model_ms + rep.t_compute_mean_ms)
        assert rep.t_compute_mean_ms == pytest.approx(6.0)

    def test_rejects_empty_timings(self):
        with pytest.raises(ValueError):
            build_report(StreamConfig(), [], wall_s=1.0, duration_s=1.0)

    def test_to_dict_schema(self):
        rep = build_report(StreamConfig(), [(1.0, 2.0, 3.0)], wall_s=0.5, duration_s=1.0)
        d = rep.to_dict()
        assert set(d) == {"t_model_ms", "t_current_ms", "t_overlap_ms", "t_future_ms",
                          "t_compute_ms", "t_latency_ms", "deadline_misses", "chunk_count", "rtf", "chunks"}
        assert set(d["t_compute_ms"]) == {"mean", "p50", "p95", "max", "enc", "convert", "dec"}

    def test_to_dict_reads_p50_max_and_misses_from_the_timings(self):
        # chunk compute 102, 120, 120.5, 151, 64 ms against a 120 ms current
        # region: 120 ms is on time, 120.5 and 151 ms are late
        timings = [(1.0, 100.0, 1.0), (1.0, 118.0, 1.0), (1.0, 118.0, 1.5), (0.5, 150.0, 0.5), (2.0, 60.0, 2.0)]
        d = build_report(StreamConfig(), timings, wall_s=0.5, duration_s=0.6).to_dict()
        assert d["t_compute_ms"]["p50"] == 120.0
        assert d["t_compute_ms"]["max"] == 151.0
        assert d["deadline_misses"] == 2
        assert d["t_compute_ms"]["mean"] == pytest.approx(557.5 / 5)

    def test_to_dict_lists_every_chunk_in_order(self):
        # the records are the timings, so the late chunks can be named
        timings = [(0.5, 10.0, 0.5), (1.0, 130.0, 1.0), (0.5, 119.0, 0.5), (2.0, 200.0, 2.0)]
        d = build_report(StreamConfig(), timings, wall_s=0.5, duration_s=0.48).to_dict()
        assert d["chunks"] == [list(t) for t in timings]
        late = [k for k, rec in enumerate(d["chunks"]) if sum(rec) > d["t_current_ms"]]
        assert late == [1, 3] and d["deadline_misses"] == len(late)
        assert json.loads(json.dumps(d)) == d


@st.composite
def geometries(draw):
    """A valid StreamConfig, in whole samples with a hop-multiple window, and
    a source length of at most 40 chunks."""
    W = 256 * draw(st.integers(1, 12))
    C = draw(st.integers(1, W))
    O = draw(st.integers(0, min(C, W - C)))
    F = draw(st.integers(0, W - C - O))
    cfg = StreamConfig(window_ms=W / 16, current_ms=C / 16, overlap_ms=O / 16, future_ms=F / 16)
    return cfg, draw(st.integers(1, 40 * C))


REFERENCE = make_wave(4000, seed=13)


class TestStreamingProperties:
    @settings(max_examples=40, deadline=None)
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1))
    def test_identity_stream_is_the_offline_round_trip(self, geometry, seed):
        cfg, n = geometry
        source = make_wave(n, seed=seed % 2**31)
        out, report = stream_run(source, REFERENCE, cfg, toy_codec(), identity_converter)
        offline, _ = offline_run(source, REFERENCE, toy_codec(), identity_converter)
        assert len(out) == n == len(offline)
        assert report.chunk_count == math.ceil(n / cfg.current_samples)
        assert np.abs(out.samples - offline.samples).max() <= 1e-5
        assert np.abs(out.samples - source.samples).max() <= 1e-5

    @settings(max_examples=60, deadline=None)
    @given(W=st.integers(1, 3072) | st.integers(1, 12).map(lambda k: 256 * k), C=st.integers(0, 3072), O=st.integers(-64, 3072), F=st.integers(-64, 3072),
           half=st.booleans())
    def test_invalid_geometries_raise_value_error(self, W, C, O, F, half):
        # a geometry is valid when every region is a whole number of samples,
        # the current region is not empty, none is negative, the overlap is
        # no longer than the current region, they fit the window, and the
        # window is a whole number of codec frames
        valid = not half and C >= 1 and 0 <= O <= C and F >= 0 and C + O + F <= W and W % 256 == 0
        kwargs = dict(window_ms=W / 16, current_ms=(C + 0.5 * half) / 16, overlap_ms=O / 16, future_ms=F / 16)
        if valid:
            assert StreamConfig(**kwargs).window_samples == W
        else:
            with pytest.raises(ValueError):
                StreamConfig(**kwargs)


def test_runtime_does_not_import_scipy():
    # One stream step exercises the codec, the features and the converter.
    code = (
        "import sys, numpy as np, latentvc as lv\n"
        "cfg = lv.ConverterConfig(d_model=8, n_layers=1, n_heads=2, d_head=4, ffn_ratio=1)\n"
        "w = lv.Waveform(0.1 * np.random.default_rng(0).standard_normal(40000))\n"
        "state = lv.init_stream(w)\n"
        "lv.stream_step(state, lv.StreamConfig(), w, 0, lv.toy_codec(), lv.make_converter(lv.init_params(cfg, 0)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(latentvc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
