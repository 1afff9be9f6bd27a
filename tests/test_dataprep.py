"""Training-pair synthesis, role sampling, and segment excision.

The excision oracle reassembles the condition waveform by hand from the
target utterance and the reported segment start; the role sampler is
checked against known inverse-CDF boundaries and long-run frequencies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentvc import (
    RoleMode,
    RoleProbs,
    UtterancePair,
    Waveform,
    assign_roles,
    make_example,
    mel_spectrogram,
    sample_mode,
    speaker_embedding,
    synth_pair,
)
from latentvc.audio_io import SAMPLE_RATE
from latentvc.dataprep import MIN_PAIR_DURATION_S, SEGMENT_SAMPLES, _content_signal, _smooth_length, _speaker_curve

from conftest import make_wave


class TestRoleProbs:
    def test_defaults(self):
        p = RoleProbs()
        assert (p.p_std, p.p_recon, p.p_rev) == (0.4, 0.2, 0.4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RoleProbs(-0.1, 0.6, 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            RoleProbs(0.5, 0.2, 0.4)

    # NaN compares false, so the sign and sum checks alone would let it through.
    @pytest.mark.parametrize("probs", [(math.nan, 0.0, 1.0), (1.0, math.nan, 0.0), (math.nan,) * 3,
                                       (math.inf, 0.0, 0.0), (0.0, 0.0, math.inf), (math.inf, math.nan, 0.0)])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="finite"):
            RoleProbs(*probs)


class TestSampleMode:
    def test_degenerate_distributions_are_exact(self):
        rng = np.random.default_rng(0)
        assert all(sample_mode(RoleProbs(1.0, 0.0, 0.0), rng) is RoleMode.STANDARD
                   for _ in range(50))
        assert all(sample_mode(RoleProbs(0.0, 1.0, 0.0), rng) is RoleMode.RECONSTRUCTION
                   for _ in range(50))
        assert all(sample_mode(RoleProbs(0.0, 0.0, 1.0), rng) is RoleMode.REVERSED
                   for _ in range(50))

    def test_inverse_cdf_ordering(self):
        # a stub generator pins u to chosen points inside each interval
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        probs = RoleProbs(0.4, 0.2, 0.4)
        assert sample_mode(probs, Fixed(0.10)) is RoleMode.STANDARD
        assert sample_mode(probs, Fixed(0.39999)) is RoleMode.STANDARD
        assert sample_mode(probs, Fixed(0.40001)) is RoleMode.RECONSTRUCTION
        assert sample_mode(probs, Fixed(0.59999)) is RoleMode.RECONSTRUCTION
        assert sample_mode(probs, Fixed(0.60001)) is RoleMode.REVERSED
        assert sample_mode(probs, Fixed(0.99)) is RoleMode.REVERSED

    def test_long_run_frequencies(self):
        rng = np.random.default_rng(42)
        probs = RoleProbs()
        counts = {m: 0 for m in RoleMode}
        draws = 50_000
        for _ in range(draws):
            counts[sample_mode(probs, rng)] += 1
        assert counts[RoleMode.STANDARD] / draws == pytest.approx(0.4, abs=0.015)
        assert counts[RoleMode.RECONSTRUCTION] / draws == pytest.approx(0.2, abs=0.015)
        assert counts[RoleMode.REVERSED] / draws == pytest.approx(0.4, abs=0.015)


class TestAssignRoles:
    def setup_method(self):
        self.pair = synth_pair(1, speaker_a=10, speaker_b=20, duration_s=4.8)

    def test_standard_trains_generated_to_real(self):
        src, tgt = assign_roles(self.pair, RoleMode.STANDARD)
        assert src is self.pair.generated
        assert tgt is self.pair.real

    def test_reconstruction_trains_real_to_itself(self):
        src, tgt = assign_roles(self.pair, RoleMode.RECONSTRUCTION)
        assert src is self.pair.real
        assert tgt is self.pair.real

    def test_reversed_trains_real_to_generated(self):
        src, tgt = assign_roles(self.pair, RoleMode.REVERSED)
        assert src is self.pair.real
        assert tgt is self.pair.generated


# n = 100003 samples, a prime: the transform runs at the least 5-smooth
# length above it, 101250, and is cut back to n.
PRIME_DURATION_S = 6.2501875
DURATIONS = [4.8, PRIME_DURATION_S]


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def render_at_n(content, speaker):
    """The length-n render that synth_pair gives where n is 5-smooth: one
    forward and one inverse transform of exactly n samples per side."""
    n = len(content)
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    return np.fft.irfft(np.fft.rfft(content) * _speaker_curve(freqs, speaker), n=n)


SMOOTH_PAIR_LENGTHS = [m for m in range(76800, 115201) if is_5_smooth(m)]


class TestSmoothLength:
    def test_is_the_least_5_smooth_length_at_or_above(self):
        want, m = [], 1
        for n in range(1, 20001):
            while m < n or not is_5_smooth(m):
                m += 1
            want.append(m)
        assert [_smooth_length(n) for n in range(1, 20001)] == want


class TestSynthPair:
    @pytest.mark.parametrize("duration_s, n", [(5.0, 80000), (PRIME_DURATION_S, 100003)])
    def test_lengths_and_alignment(self, duration_s, n):
        pair = synth_pair(7, 1, 2, duration_s=duration_s)
        assert len(pair.real) == n
        assert len(pair.generated) == n

    def test_rejects_short_duration(self):
        with pytest.raises(ValueError):
            synth_pair(7, 1, 2, duration_s=4.7)

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, duration_s):
        with pytest.raises(ValueError, match="finite"):
            synth_pair(7, 1, 2, duration_s=duration_s)

    def test_pair_of_unequal_lengths_is_refused(self):
        with pytest.raises(ValueError, match="equal lengths, got 8000 and 7999"):
            UtterancePair(make_wave(8000), make_wave(7999))

    @pytest.mark.parametrize("duration_s", DURATIONS)
    def test_deterministic(self, duration_s):
        a = synth_pair(3, 5, 6, duration_s=duration_s)
        b = synth_pair(3, 5, 6, duration_s=duration_s)
        assert np.array_equal(a.real.samples, b.real.samples)
        assert np.array_equal(a.generated.samples, b.generated.samples)

    @settings(max_examples=8, deadline=None)
    @given(n=st.sampled_from(SMOOTH_PAIR_LENGTHS), content_seed=st.integers(0, 2**31 - 1),
           speakers=st.tuples(st.integers(0, 9999), st.integers(0, 9999)))
    def test_5_smooth_length_is_bitwise_the_length_n_render(self, n, content_seed, speakers):
        pair = synth_pair(content_seed, *speakers, duration_s=n / SAMPLE_RATE)
        content = _content_signal(content_seed, n)
        assert np.array_equal(pair.real.samples, render_at_n(content, speakers[0]))
        assert np.array_equal(pair.generated.samples, render_at_n(content, speakers[1]))

    @pytest.mark.parametrize("duration_s", DURATIONS)
    def test_content_is_transformed_once_per_pair(self, monkeypatch, duration_s):
        calls, rfft = [], np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        synth_pair(3, 5, 6, duration_s=duration_s)
        assert len(calls) == 1

    def test_speakers_differ(self):
        pair = synth_pair(3, 5, 6, duration_s=4.8)
        assert not np.allclose(pair.real.samples, pair.generated.samples)

    @pytest.mark.parametrize("duration_s", DURATIONS)
    def test_same_speaker_means_identical_rendering(self, duration_s):
        pair = synth_pair(3, 5, 5, duration_s=duration_s)
        assert np.array_equal(pair.real.samples, pair.generated.samples)

    def test_content_seed_changes_signal(self):
        a = synth_pair(1, 5, 6, duration_s=4.8)
        b = synth_pair(2, 5, 6, duration_s=4.8)
        assert not np.allclose(a.real.samples, b.real.samples)

    def test_pair_sides_get_distinct_embeddings(self):
        # the two renderings must be distinguishable in embedding space
        # (nonzero speaker loss for standard-mode training), and identical
        # renderings must coincide exactly
        def sim_of(pair):
            return float(speaker_embedding(mel_spectrogram(pair.real)) @ speaker_embedding(mel_spectrogram(pair.generated)))

        for trial in range(10):
            sim = sim_of(synth_pair(100 + trial, 1000 + trial, 2000 + trial, duration_s=4.8))
            assert sim < 1.0 - 1e-4
        sim = sim_of(synth_pair(3, 5, 5, duration_s=4.8))
        assert sim == pytest.approx(1.0, abs=1e-12)


class TestMakeExample:
    def _pair(self, n=3 * SEGMENT_SAMPLES):
        return make_wave(n, seed=1), make_wave(n, seed=2)

    def test_segment_shapes(self):
        src, tgt = self._pair()
        ex = make_example(src, tgt, np.random.default_rng(0))
        assert len(ex.source_seg) == SEGMENT_SAMPLES
        assert len(ex.target_seg) == SEGMENT_SAMPLES
        assert len(ex.cond_wave) == len(tgt) - SEGMENT_SAMPLES
        assert ex.mode is RoleMode.STANDARD

    def test_start_is_hop_aligned(self):
        src, tgt = self._pair()
        for seed in range(20):
            ex = make_example(src, tgt, np.random.default_rng(seed))
            assert ex.segment_start % 256 == 0
            assert 0 <= ex.segment_start <= len(tgt) - SEGMENT_SAMPLES

    def test_segments_are_corresponding_slices(self):
        src, tgt = self._pair()
        ex = make_example(src, tgt, np.random.default_rng(3))
        s = ex.segment_start
        assert np.array_equal(ex.source_seg.samples, src.samples[s : s + SEGMENT_SAMPLES])
        assert np.array_equal(ex.target_seg.samples, tgt.samples[s : s + SEGMENT_SAMPLES])

    def test_condition_is_target_with_segment_excised(self):
        src, tgt = self._pair()
        for seed in range(10):
            ex = make_example(src, tgt, np.random.default_rng(seed))
            s = ex.segment_start
            want = np.concatenate([tgt.samples[:s], tgt.samples[s + SEGMENT_SAMPLES :]])
            assert np.array_equal(ex.cond_wave.samples, want)

    def test_splice_reassembles_target(self):
        # inserting the segment back into the condition at the cut restores
        # the original target utterance bit for bit
        src, tgt = self._pair()
        ex = make_example(src, tgt, np.random.default_rng(9))
        s = ex.segment_start
        rebuilt = np.concatenate([ex.cond_wave.samples[:s],
                                  ex.target_seg.samples,
                                  ex.cond_wave.samples[s:]])
        assert np.array_equal(rebuilt, tgt.samples)

    def test_mode_annotation_carried(self):
        src, tgt = self._pair()
        ex = make_example(src, tgt, np.random.default_rng(0), mode=RoleMode.REVERSED)
        assert ex.mode is RoleMode.REVERSED

    def test_rejects_short_source(self):
        src = make_wave(SEGMENT_SAMPLES - 1, seed=1)
        tgt = make_wave(3 * SEGMENT_SAMPLES, seed=2)
        with pytest.raises(ValueError):
            make_example(src, tgt, np.random.default_rng(0))

    def test_rejects_target_without_condition_margin(self):
        src = make_wave(2 * SEGMENT_SAMPLES, seed=1)
        tgt = make_wave(2 * SEGMENT_SAMPLES - 1, seed=2)
        with pytest.raises(ValueError):
            make_example(src, tgt, np.random.default_rng(0))

    def test_pair_flow_end_to_end(self):
        pair = synth_pair(11, 3, 4, duration_s=MIN_PAIR_DURATION_S)
        src, tgt = assign_roles(pair, RoleMode.STANDARD)
        ex = make_example(src, tgt, np.random.default_rng(1), mode=RoleMode.STANDARD)
        assert len(ex.cond_wave) == len(tgt) - SEGMENT_SAMPLES
