"""Chunkwise streaming: window geometry, cross-fade math, step sequencing.

The stepping oracle rebuilds the whole chunk loop longhand (zero-padded
window extraction, per-step gain, cosine blend written out with math.cos)
and compares against stream_run driven by a stateful linear converter with
a random gain per chunk, over random geometries, so window placement,
overlap blending at every seam, and trimming are all checked against
independent arithmetic. A second oracle streams a real converter of random
tiny weights and must match, bit for bit, each window's stateless
encode -> `forward` -> decode pass. Hypothesis properties also cover the
identity stream and invalid geometries, and a subprocess checks that the
runtime imports no scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latentvc
from latentvc import (
    CodecInterface,
    ConverterConfig,
    NonFiniteError,
    StreamConfig,
    LatencyReport,
    Waveform,
    compute_t_model,
    crossfade,
    crossfade_weights,
    forward,
    init_stream,
    make_converter,
    mel_spectrogram,
    offline_run,
    speaker_embedding,
    stream_run,
    stream_step,
    toy_codec,
    toy_decode,
    toy_encode,
    identity_converter,
)

from conftest import gated_params, make_wave


class TestStreamConfig:
    def test_default_sample_counts(self):
        cfg = StreamConfig()
        assert cfg.current_samples == 1920
        assert cfg.overlap_samples == 320
        assert cfg.future_samples == 1600
        assert cfg.history_samples == 34560
        assert cfg.window_samples == 38400

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

    def test_rejects_sub_sample_current(self):
        # 1e-9 ms is within the whole-sample tolerance of zero samples
        with pytest.raises(ValueError, match="current_ms"):
            StreamConfig(current_ms=1e-9, overlap_ms=0.0)

    @given(st.dictionaries(st.sampled_from(["window_ms", "current_ms", "overlap_ms", "future_ms"]),
                           st.floats()))
    @example({"window_ms": math.inf})
    @example({"current_ms": -math.inf})
    @example({"future_ms": math.nan})
    def test_any_float_is_accepted_or_a_value_error(self, fields):
        try:
            StreamConfig(**fields)
        except ValueError:
            pass

    @pytest.mark.parametrize("ms", [math.inf, math.nan, 1e308])
    def test_non_finite_window_names_the_field(self, ms):
        with pytest.raises(ValueError, match="window_ms"):
            StreamConfig(window_ms=ms)

    def test_rejects_window_not_codec_aligned(self, short_wave):
        # 2399.9375 ms is exactly 38399 samples, one short of a hop multiple
        cfg = StreamConfig(window_ms=2399.9375, current_ms=120.0,
                           overlap_ms=20.0, future_ms=99.9375)
        src = make_wave(cfg.window_samples, seed=4)
        with pytest.raises(ValueError, match="codec hop 256"):
            stream_step(init_stream(short_wave), cfg, src, 0, toy_codec(), identity_converter)

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
        assert len(timings) == 3

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
        tail = state.retained_tail
        with pytest.raises(NonFiniteError, match="step 2"):
            stream_step(state, cfg, src, 2, toy_codec(), nan_at_step_2)
        assert state.k == 2
        assert state.retained_tail is tail
        # offline conversion is step 0 of a one-window stream
        with pytest.raises(NonFiniteError, match="step 0"):
            offline_run(src, short_wave, toy_codec(), gain_converter([np.nan]))

    @pytest.mark.parametrize("codec,converter", [
        (toy_codec(), lambda z, c, g: z[:-1]),
        (CodecInterface(toy_encode, lambda z: toy_decode(z[:-1])), identity_converter),
    ], ids=["converter-drops-a-row", "codec-decodes-a-frame-short"])
    def test_wrong_length_decode_names_the_step(self, short_wave, codec, converter):
        cfg = small_cfg()
        W = cfg.window_samples
        src = make_wave(4 * cfg.current_samples, seed=4)
        state = init_stream(short_wave)
        stream_step(state, cfg, src, 0, toy_codec(), identity_converter)
        tail = state.retained_tail
        with pytest.raises(ValueError, match=f"step 1 decoded {W - 256} samples from a {W}-sample window"):
            stream_step(state, cfg, src, 1, codec, converter)
        assert state.k == 1
        assert state.retained_tail is tail
        with pytest.raises(ValueError, match="step 0 decoded"):
            stream_run(src, short_wave, cfg, codec, converter)
        with pytest.raises(ValueError, match="step 0 decoded 768 samples from a 1024-sample window"):
            offline_run(src, short_wave, codec, converter)

    def test_window_is_checked_against_the_codec_hop(self, short_wave):
        # 38400 samples is a multiple of 256 but not of 500
        codec = CodecInterface(toy_encode, toy_decode, hop=500)
        src = make_wave(16000, seed=4)
        with pytest.raises(ValueError, match="codec hop 500"):
            stream_run(src, short_wave, StreamConfig(), codec, identity_converter)
        with pytest.raises(ValueError):
            offline_run(src, short_wave, codec, identity_converter)


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

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries(), gains=st.lists(st.floats(-4.0, 4.0), min_size=40, max_size=40),
           seed=st.integers(0, 2**31 - 1))
    @example(geometry=(small_cfg(), 3000), gains=[1.0 + 0.25 * k for k in range(20)], seed=7)
    @example(geometry=(StreamConfig(window_ms=192.0, current_ms=16.0, overlap_ms=0.0, future_ms=16.0), 2500),
             gains=[1.0 - 0.05 * k for k in range(20)], seed=8)
    # a one-sample overlap: the shortest cross-fade, an even 0.5/0.5 split
    @example(geometry=(StreamConfig(window_ms=16.0, current_ms=0.125, overlap_ms=0.0625, future_ms=0.0), 20),
             gains=[1.0 + k for k in range(10)], seed=9)
    def test_matches_longhand_gain_oracle(self, geometry, gains, seed):
        # every valid geometry, with its own gain per chunk, so that each
        # cross-faded seam blends two differently scaled decodes
        cfg, n = geometry
        src = make_wave(n, seed=seed)
        out, _ = stream_run(src, REFERENCE, cfg, toy_codec(), gain_converter(gains))
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
        assert np.array_equal(state.spk, speaker_embedding(mel_spectrogram(short_wave)))


class TestLatencyReport:
    def test_figures_derive_from_the_timings(self):
        cfg = StreamConfig()
        timings = tuple((float(i + 1), 0.0, 0.0) for i in range(20))
        rep = LatencyReport(cfg, timings, wall_s=2.0, duration_s=4.0)
        assert rep.t_compute_mean_ms == pytest.approx(10.5)
        assert rep.t_compute_p95_ms == pytest.approx(19.05)
        assert rep.t_enc_ms == pytest.approx(10.5)
        assert rep.t_convert_ms == 0.0
        assert rep.t_latency_ms == pytest.approx(240.0 + 10.5)
        assert rep.chunk_count == 20
        assert rep.rtf == pytest.approx(0.5)

    def test_latency_is_model_plus_compute(self):
        cfg = StreamConfig()
        rep = LatencyReport(cfg, ((1.0, 2.0, 3.0),), wall_s=0.01, duration_s=0.12)
        assert rep.t_latency_ms == pytest.approx(rep.t_model_ms + rep.t_compute_mean_ms)
        assert rep.t_compute_mean_ms == pytest.approx(6.0)

    def test_rejects_empty_timings(self):
        with pytest.raises(ValueError):
            LatencyReport(StreamConfig(), (), wall_s=1.0, duration_s=1.0)

    def test_to_dict_schema(self):
        rep = LatencyReport(StreamConfig(), ((1.0, 2.0, 3.0),), wall_s=0.5, duration_s=1.0)
        d = rep.to_dict()
        assert set(d) == {"t_model_ms", "t_current_ms", "t_overlap_ms", "t_future_ms",
                          "t_compute_ms", "t_latency_ms", "deadline_misses", "chunk_count", "rtf", "chunks",
                          "queued_ms", "t_queued_ms", "late_chunks"}
        assert set(d["t_compute_ms"]) == {"mean", "p50", "p95", "max", "enc", "convert", "dec"}
        assert set(d["t_queued_ms"]) == {"p50", "max"}

    def test_to_dict_reads_p50_max_and_misses_from_the_timings(self):
        # chunk compute 102, 120, 120.5, 151, 64 ms against a 120 ms current
        # region: 120 ms is on time, 120.5 and 151 ms are late
        timings = ((1.0, 100.0, 1.0), (1.0, 118.0, 1.0), (1.0, 118.0, 1.5), (0.5, 150.0, 0.5), (2.0, 60.0, 2.0))
        d = LatencyReport(StreamConfig(), timings, wall_s=0.5, duration_s=0.6).to_dict()
        assert d["t_compute_ms"]["p50"] == 120.0
        assert d["t_compute_ms"]["max"] == 151.0
        assert d["deadline_misses"] == 2
        assert d["t_compute_ms"]["mean"] == pytest.approx(557.5 / 5)

    def test_to_dict_lists_every_chunk_in_order(self):
        # the records are the timings, so the late chunks can be named
        timings = ((0.5, 10.0, 0.5), (1.0, 130.0, 1.0), (0.5, 119.0, 0.5), (2.0, 200.0, 2.0))
        d = LatencyReport(StreamConfig(), timings, wall_s=0.5, duration_s=0.48).to_dict()
        assert d["chunks"] == [list(t) for t in timings]
        late = [k for k, rec in enumerate(d["chunks"]) if sum(rec) > d["t_current_ms"]]
        assert late == [1, 3] and d["deadline_misses"] == len(late)
        assert json.loads(json.dumps(d)) == d

    def test_queued_latency_drains_after_an_overrun(self):
        # C, O, F = 120, 20, 100 ms: one chunk at 3x the budget, then nine
        # at 60 ms. The backlog drains by 60 ms a chunk back to t_model +
        # compute; four chunks finish after their deadline, one by itself.
        timings = ((10.0, 340.0, 10.0),) + ((5.0, 50.0, 5.0),) * 9
        d = LatencyReport(StreamConfig(), timings, wall_s=1.0, duration_s=1.2).to_dict()
        assert d["queued_ms"] == [600.0, 540.0, 480.0, 420.0, 360.0] + [300.0] * 5
        assert d["t_queued_ms"] == {"p50": 330.0, "max": 600.0}
        assert d["late_chunks"] == 4
        assert d["deadline_misses"] == 1
        assert d["t_latency_ms"] == pytest.approx(240.0 + 90.0)

    def test_queue_restarts_at_each_run(self):
        # A run that ends on an overrun leaves a backlog; the next run's
        # first chunk must not wait for it.
        run = ((0.0, 60.0, 0.0), (0.0, 360.0, 0.0))
        joined = LatencyReport(StreamConfig(), run * 2, wall_s=1.0, duration_s=0.24, runs=2).to_dict()
        assert joined["queued_ms"] == [300.0, 600.0] * 2
        assert joined["late_chunks"] == 2
        one_run = LatencyReport(StreamConfig(), run * 2, wall_s=1.0, duration_s=0.48).to_dict()
        assert one_run["queued_ms"] == [300.0, 600.0, 540.0, 780.0]
        assert one_run["late_chunks"] == 3

    @pytest.mark.parametrize("records, runs", [(4, 3), (4, 0), (1, 2)])
    def test_refuses_runs_that_do_not_split_the_records(self, records, runs):
        with pytest.raises(ValueError, match="equal runs"):
            LatencyReport(StreamConfig(), ((1.0, 2.0, 3.0),) * records, wall_s=1.0, duration_s=1.0, runs=runs)


def queued_longhand(totals, runs, C=120.0, O=20.0, F=100.0):
    """Per-chunk queued latency f_k - k*C, and how far each chunk finished
    past its deadline, f_k - (a_k + C), from the arrival and finish times of
    each run: a_k = (k+1)*C + O + F, f_k = max(a_k, f_{k-1}) + total."""
    per_run = len(totals) // runs
    queued, past_deadline = [], []
    for r in range(runs):
        f = -math.inf
        for k, total in enumerate(totals[r * per_run : (r + 1) * per_run]):
            a = (k + 1) * C + O + F
            f = max(a, f) + total
            queued.append(f - k * C)
            past_deadline.append(f - (a + C))
    return queued, past_deadline


def report_figures(timings, wall_s, duration_s):
    """Every figure of a report's payload, recomputed longhand from its records."""
    totals = sorted(sum(rec) for rec in timings)
    n = len(totals)
    pos = 0.95 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    mean = math.fsum(totals) / n
    return {
        "mean": mean,
        "p50": (totals[(n - 1) // 2] + totals[n // 2]) / 2,
        "p95": totals[lo] + (totals[hi] - totals[lo]) * (pos - lo),
        "max": totals[-1],
        "enc": math.fsum(rec[0] for rec in timings) / n,
        "convert": math.fsum(rec[1] for rec in timings) / n,
        "dec": math.fsum(rec[2] for rec in timings) / n,
        "t_latency_ms": 240.0 + mean,
        "deadline_misses": sum(t > 120.0 for t in totals),
        "chunk_count": n,
        "rtf": wall_s / duration_s,
    }


chunk_records = st.lists(st.tuples(*[st.floats(0.0, 1e4)] * 3), min_size=1, max_size=50).map(tuple)


class TestLatencyReportProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=chunk_records, b=chunk_records,
           walls=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)), duration_s=st.floats(1e-2, 1e3))
    @example(a=((60.0, 60.0, 0.0), (1.0, 119.0, 0.5)), b=((0.0, 0.0, 0.0),), walls=(1.0, 3.0), duration_s=2.0)
    def test_every_figure_recomputes_from_its_chunks(self, a, b, walls, duration_s):
        cfg = StreamConfig()
        reports = [LatencyReport(cfg, t, w, duration_s) for t, w in zip((a, b), walls)]
        pooled = LatencyReport(cfg, a + b, (walls[0] + walls[1]) / 2, duration_s)
        for rep in (*reports, pooled):
            d = rep.to_dict()
            assert d["chunks"] == [list(rec) for rec in rep.timings]
            want = report_figures(d["chunks"], rep.wall_s, duration_s)
            for key in ("mean", "p50", "p95", "max", "enc", "convert", "dec"):
                assert d["t_compute_ms"][key] == pytest.approx(want[key], rel=1e-12, abs=1e-9), key
            assert d["t_latency_ms"] == pytest.approx(want["t_latency_ms"], rel=1e-12)
            assert d["rtf"] == pytest.approx(want["rtf"], rel=1e-12)
            assert (d["deadline_misses"], d["chunk_count"]) == (want["deadline_misses"], want["chunk_count"])
            geometry = (d["t_model_ms"], d["t_current_ms"], d["t_overlap_ms"], d["t_future_ms"])
            assert geometry == (240.0, 120.0, 20.0, 100.0)
            queued, past = queued_longhand([sum(rec) for rec in rep.timings], rep.runs)
            assert d["queued_ms"] == pytest.approx(queued, rel=1e-12, abs=1e-6)
            assert d["t_queued_ms"]["max"] == max(d["queued_ms"])
            # a finish within rounding of its deadline may count either way
            assert sum(m > 1e-6 for m in past) <= d["late_chunks"] <= sum(m > -1e-6 for m in past)
        twice = LatencyReport(cfg, a + a, walls[0], duration_s, runs=2)
        assert twice.to_dict()["queued_ms"] == reports[0].to_dict()["queued_ms"] * 2
        assert pooled.chunk_count == len(a) + len(b)
        assert pooled.to_dict()["deadline_misses"] == sum(r.to_dict()["deadline_misses"] for r in reports)
        assert pooled.rtf == pytest.approx(sum(r.rtf for r in reports) / 2, rel=1e-12)
        assert (reports[0] == reports[1]) == (a == b and walls[0] == walls[1])
        assert reports[0] == LatencyReport(cfg, a, walls[0], duration_s)


def oracle_forward_stream(source, reference, cfg, params):
    """Longhand stream of a real converter: each step decodes the stateless
    `forward` of its zero-extended window, emits the current region, and
    cross-fades its head with the previous step's overlap tail."""
    C = cfg.current_samples
    H = cfg.history_samples
    O = cfg.overlap_samples
    W = cfg.window_samples
    n = len(source)
    c = mel_spectrogram(reference)
    g = speaker_embedding(c)
    padded = np.concatenate([np.zeros(H), source.samples, np.zeros(W)])
    chunks = []
    tail = None
    for k in range(math.ceil(n / C)):
        y = toy_decode(forward(params, toy_encode(Waveform(padded[k * C : k * C + W])), c, g)).samples
        out = y[H : H + C].copy()
        if k >= 1 and O > 0:
            out[:O] = crossfade(tail, out[:O])
        tail = y[H + C : H + C + O]
        chunks.append(out)
    return np.concatenate(chunks)[:n]


@st.composite
def tiny_models(draw):
    """Random tiny weights at the codec and feature widths, every gate open;
    d_model stays even for the sinusoidal positions."""
    d_model, n_heads = 2 * draw(st.integers(1, 8)), draw(st.integers(1, 2))
    cfg = ConverterConfig(d_model=d_model, n_layers=draw(st.integers(1, 2)), n_heads=n_heads, d_head=d_model // n_heads,
                          ffn_ratio=draw(st.integers(1, 2)), update_cond_branch=draw(st.booleans()),
                          use_speaker_condition=draw(st.booleans()))
    return gated_params(cfg, seed=draw(st.integers(0, 2**31 - 1)))


class TestStreamingProperties:
    @settings(max_examples=25, deadline=None)
    @given(geometry=geometries(), params=tiny_models(), seed=st.integers(0, 2**31 - 1), pcm=st.booleans())
    def test_real_converter_stream_is_forward_of_each_window(self, geometry, params, seed, pcm):
        # the source is float64 noise, or float32 16-bit PCM values as read_wav holds them
        cfg, n = geometry
        if pcm:
            source = Waveform((np.random.default_rng(seed).integers(-32768, 32768, n) / 32768).astype(np.float32))
        else:
            source = make_wave(n, seed=seed)
        out, _ = stream_run(source, REFERENCE, cfg, toy_codec(), make_converter(params))
        want = oracle_forward_stream(source, REFERENCE, cfg, params)
        assert out.samples.dtype == want.dtype == np.float64
        assert out.samples.tobytes() == want.tobytes()

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
        # no longer than the current region, and they fit the window; a step
        # also needs the window to be a whole number of codec frames
        valid = not half and C >= 1 and 0 <= O <= C and F >= 0 and C + O + F <= W
        kwargs = dict(window_ms=W / 16, current_ms=(C + 0.5 * half) / 16, overlap_ms=O / 16, future_ms=F / 16)
        if valid:
            cfg = StreamConfig(**kwargs)
            assert cfg.window_samples == W
            if W % 256 != 0:
                with pytest.raises(ValueError, match="codec hop"):
                    stream_step(init_stream(REFERENCE), cfg, REFERENCE, 0, toy_codec(), identity_converter)
        else:
            with pytest.raises(ValueError):
                StreamConfig(**kwargs)

    @settings(max_examples=200)
    @given(W=st.integers(-64, 3072), C=st.integers(-64, 3072), O=st.integers(-64, 3072), F=st.integers(-64, 3072),
           nudge=st.tuples(*[st.floats(-6e-8, 6e-8)] * 4))
    @example(W=38400, C=1, O=0, F=1600, nudge=(0.0, 0.0624999999 - 1 / 16, 0.0, 0.0))
    @example(W=38400, C=1920, O=1920, F=1600, nudge=(0.0, 0.0, 120.00000001 - 120, 0.0))
    @example(W=38400, C=1920, O=320, F=36160, nudge=(0.0, 0.0, 0.0, 2260.00000005 - 2260))
    def test_geometry_is_checked_on_whole_samples(self, W, C, O, F, nudge):
        # each ms value is off its whole-sample grid point by at most 6e-8 ms
        # (9.6e-7 samples), inside the whole-sample tolerance, so the config
        # must hold the integer geometry and accept exactly the valid ones
        counts = (W, C, O, F)
        kwargs = {f"{name}_ms": n / 16 + d for name, n, d in zip(("window", "current", "overlap", "future"), counts, nudge)}
        if C >= 1 and 0 <= O <= C and F >= 0 and C + O + F <= W:
            cfg = StreamConfig(**kwargs)
            got = (cfg.window_samples, cfg.current_samples, cfg.overlap_samples, cfg.future_samples, cfg.history_samples)
            assert got == (*counts, W - C - O - F)
        else:
            with pytest.raises(ValueError, match="_ms"):
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
