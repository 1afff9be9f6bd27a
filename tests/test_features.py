"""Log-mel extraction and speaker embeddings against loop-based oracles.

The mel oracle rebuilds each frame with an explicit python loop (window,
rfft, triangle weights evaluated per filter from the HTK formula) so the
vectorized extractor is checked against independently constructed math,
not against itself.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentvc import NonFiniteError, Waveform, mel_spectrogram, speaker_embedding
from latentvc.features import (
    FMAX,
    FMIN,
    HOP_LENGTH,
    LOG_FLOOR,
    N_FFT,
    N_MELS,
    SPK_DIM,
    WIN_LENGTH,
    frame_count,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    speaker_projection,
)

from conftest import make_wave


def oracle_mel(samples):
    """Frame-by-frame log-mel, everything written out longhand."""
    win = np.array([0.5 - 0.5 * np.cos(2 * np.pi * k / WIN_LENGTH)
                    for k in range(WIN_LENGTH)])
    lo = hz_to_mel(FMIN)
    hi = hz_to_mel(FMAX)
    centers = [mel_to_hz(lo + (hi - lo) * (m + 1) / (N_MELS + 1)) for m in range(N_MELS)]
    edges_l = [mel_to_hz(lo + (hi - lo) * m / (N_MELS + 1)) for m in range(N_MELS)]
    edges_r = [mel_to_hz(lo + (hi - lo) * (m + 2) / (N_MELS + 1)) for m in range(N_MELS)]
    n_frames = (len(samples) - WIN_LENGTH) // HOP_LENGTH + 1
    out = np.empty((n_frames, N_MELS))
    bin_hz = np.arange(N_FFT // 2 + 1) * 16000.0 / N_FFT
    for t in range(n_frames):
        seg = samples[t * HOP_LENGTH : t * HOP_LENGTH + WIN_LENGTH] * win
        spectrum = np.fft.rfft(seg, n=N_FFT)
        power = np.abs(spectrum) ** 2
        for m in range(N_MELS):
            acc = 0.0
            for b, f in enumerate(bin_hz):
                if edges_l[m] <= f <= centers[m] and centers[m] > edges_l[m]:
                    weight = (f - edges_l[m]) / (centers[m] - edges_l[m])
                elif centers[m] < f <= edges_r[m] and edges_r[m] > centers[m]:
                    weight = (edges_r[m] - f) / (edges_r[m] - centers[m])
                else:
                    weight = 0.0
                acc += weight * power[b]
            out[t, m] = np.log(max(acc, LOG_FLOOR))
    return out


class TestMelSpectrogram:
    def test_matches_loop_oracle(self):
        w = make_wave(WIN_LENGTH + 3 * HOP_LENGTH, seed=5)
        got = mel_spectrogram(w)
        want = oracle_mel(w.samples)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-9

    def test_frame_count_formula(self):
        assert frame_count(WIN_LENGTH - 1) == 0
        assert frame_count(WIN_LENGTH) == 1
        assert frame_count(WIN_LENGTH + HOP_LENGTH - 1) == 1
        assert frame_count(WIN_LENGTH + HOP_LENGTH) == 2
        assert frame_count(38400) == 147

    def test_shape_tracks_frame_count(self):
        for n in (1024, 2000, 5000, 38400):
            w = make_wave(n, seed=n)
            assert mel_spectrogram(w).shape == (frame_count(n), N_MELS)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            mel_spectrogram(make_wave(WIN_LENGTH - 1))

    def test_silence_sits_at_log_floor(self):
        mel = mel_spectrogram(Waveform(np.zeros(4096)))
        assert np.allclose(mel, np.log(LOG_FLOOR))

    def test_mel_scale_reference_points(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert mel_to_hz(hz_to_mel(4321.0)) == pytest.approx(4321.0)

    def test_filterbank_triangles(self):
        fb = mel_filterbank()
        assert fb.shape == (N_MELS, N_FFT // 2 + 1)
        # analytic triangles peak at 1; sampled on the bin grid every filter
        # keeps a substantial peak and none collapses to all zero
        assert fb.max() <= 1.0 + 1e-12
        assert fb.min() >= 0.0
        assert (fb.max(axis=1) > 0.5).all()

    def test_frames_advance_by_hop(self):
        # delaying the input by one hop shifts the mel rows by one
        w = make_wave(WIN_LENGTH + 4 * HOP_LENGTH, seed=9)
        delayed = Waveform(np.concatenate([w.samples[HOP_LENGTH:], np.zeros(HOP_LENGTH)]))
        a = mel_spectrogram(w)
        b = mel_spectrogram(delayed)
        assert np.abs(a[1:] - b[:-1]).max() < 1e-12


class TestSpeakerEmbedding:
    def test_unit_norm_and_shape(self, short_wave):
        e = speaker_embedding(mel_spectrogram(short_wave))
        assert e.shape == (SPK_DIM,)
        assert np.linalg.norm(e) == pytest.approx(1.0)

    def test_deterministic(self, short_wave):
        a = speaker_embedding(mel_spectrogram(short_wave))
        b = speaker_embedding(mel_spectrogram(short_wave))
        assert np.array_equal(a, b)

    def test_stat_pooling_oracle(self, short_wave):
        mel = mel_spectrogram(short_wave)
        pooled = np.concatenate([mel.mean(axis=0), mel.std(axis=0)])
        raw = speaker_projection() @ pooled
        want = raw / np.linalg.norm(raw)
        assert np.allclose(speaker_embedding(mel), want, atol=1e-14)

    def test_zero_norm_is_refused(self):
        # a constant mel pools to all zeros, as its std is zero too
        with pytest.raises(ValueError, match="zero norm"):
            speaker_embedding(np.zeros((3, N_MELS)))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.just(0), st.just(N_MELS)),
            st.tuples(st.integers(0, 40), st.integers(0, 2 * N_MELS).filter(lambda w: w != N_MELS)),
            st.tuples(st.integers(0, 300)),
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(N_MELS)),
        )
    )
    def test_a_mel_of_another_shape_is_refused_naming_both_shapes(self, shape):
        # refused before pooling: a zero-frame mel would pool to NaN with
        # RuntimeWarnings, and another width would fail inside the projection
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"\(T >= 1, {N_MELS}\) log-mel, got " + re.escape(str(shape))):
                speaker_embedding(np.ones(shape))

    def test_a_waveform_is_refused_naming_its_type(self, short_wave):
        with pytest.raises(ValueError, match=rf"\(T >= 1, {N_MELS}\) log-mel, got Waveform"):
            speaker_embedding(short_wave)

    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=st.integers(1, 30),
        where=st.integers(0, 30 * N_MELS - 1),
        bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    )
    def test_a_non_finite_mel_is_refused(self, n_frames, where, bad):
        # one non-finite entry would make the whole vector NaN
        mel = np.random.default_rng(where).standard_normal((n_frames, N_MELS))
        mel.flat[where % mel.size] = bad
        with pytest.raises(NonFiniteError, match="log-mel contains NaN or Inf"):
            speaker_embedding(mel)
        with pytest.raises(NonFiniteError):
            speaker_embedding(np.full((n_frames, N_MELS), bad))

    def test_projection_bounds(self):
        proj = speaker_projection()
        limit = np.sqrt(6.0 / (SPK_DIM + 2 * N_MELS))
        assert proj.shape == (SPK_DIM, 2 * N_MELS)
        assert np.abs(proj).max() <= limit
        # the one projection is the Glorot-uniform draw of default_rng(0)
        assert np.array_equal(proj, np.random.default_rng(0).uniform(-limit, limit, size=proj.shape))

    def test_projection_cached_identity(self):
        assert speaker_projection() is speaker_projection()
