"""Loss terms with analytic gradients checked by central finite differences.

The mel L1 gradient is validated coordinate-wise in mel space; the
embedding MSE gradient the same way in embedding space. The quadratic loss
admits a tight tolerance; the L1 gradient uses a step small enough that no
difference coordinate changes sign across it.
"""

import numpy as np
import pytest

from latentvc import (
    LossBreakdown,
    Waveform,
    assemble_supervision,
    embedding_mse,
    loss_breakdown,
    make_example,
    mel_l1,
    mel_spectrogram,
    speaker_embedding,
    toy_codec,
    toy_encode,
)
from latentvc.dataprep import SEGMENT_SAMPLES

from conftest import make_wave


class TestMelL1:
    def test_zero_at_identity(self, rng):
        mel = rng.standard_normal((10, 128))
        loss, grad = mel_l1(mel, mel)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_symmetry(self, rng):
        a = rng.standard_normal((6, 128))
        b = rng.standard_normal((6, 128))
        assert mel_l1(a, b)[0] == pytest.approx(mel_l1(b, a)[0], rel=1e-15)

    def test_known_value(self):
        a = np.zeros((2, 3))
        b = np.array([[1.0, -1.0, 2.0], [0.0, 0.0, 0.0]])
        loss, grad = mel_l1(a, b)
        assert loss == pytest.approx(4.0 / 6.0)
        assert np.array_equal(grad, np.array([[-1, 1, -1], [0, 0, 0]]) / 6.0)

    def test_gradient_matches_central_differences(self, rng):
        pred = rng.standard_normal((5, 128))
        target = rng.standard_normal((5, 128))
        loss, grad = mel_l1(pred, target)
        h = 1e-6  # small enough that sign(pred - target) never flips
        idx = [(int(i), int(j)) for i, j in
               zip(rng.integers(0, 5, 40), rng.integers(0, 128, 40))]
        for i, j in idx:
            up = pred.copy(); up[i, j] += h
            dn = pred.copy(); dn[i, j] -= h
            fd = (mel_l1(up, target)[0] - mel_l1(dn, target)[0]) / (2 * h)
            assert fd == pytest.approx(grad[i, j], rel=1e-4, abs=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            mel_l1(np.zeros((2, 128)), np.zeros((3, 128)))


class TestEmbeddingMse:
    def test_zero_at_identity(self, rng):
        e = rng.standard_normal(192)
        loss, grad = embedding_mse(e, e)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_orthogonal_unit_vectors(self):
        a = np.zeros(192); a[0] = 1.0
        b = np.zeros(192); b[1] = 1.0
        loss, grad = embedding_mse(a, b)
        assert loss == pytest.approx(2.0 / 192.0)
        assert grad[0] == pytest.approx(2.0 / 192.0)
        assert grad[1] == pytest.approx(-2.0 / 192.0)

    def test_gradient_matches_central_differences(self, rng):
        pred = rng.standard_normal(192)
        target = rng.standard_normal(192)
        _, grad = embedding_mse(pred, target)
        h = 1e-4  # quadratic loss, central differences are near exact
        for j in rng.integers(0, 192, 30):
            up = pred.copy(); up[j] += h
            dn = pred.copy(); dn[j] -= h
            fd = (embedding_mse(up, target)[0] - embedding_mse(dn, target)[0]) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-6)

    def test_symmetry(self, rng):
        a = rng.standard_normal(192)
        b = rng.standard_normal(192)
        assert embedding_mse(a, b)[0] == pytest.approx(embedding_mse(b, a)[0], rel=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"embedding shapes differ: \(192,\) vs \(191,\)"):
            embedding_mse(np.zeros(192), np.zeros(191))


class TestWaveformLosses:
    """The two terms of `loss_breakdown` between waveforms: `mel_l1` of the
    log-mels and `embedding_mse` of the speaker embeddings."""

    def test_mel_recon_zero_on_same_waveform(self, short_wave):
        assert loss_breakdown(short_wave, short_wave).mel_recon == 0.0

    def test_mel_recon_positive_on_different(self, short_wave):
        other = make_wave(len(short_wave), seed=99)
        assert loss_breakdown(short_wave, other).mel_recon > 0.0

    def test_mel_recon_rejects_length_mismatch(self, short_wave):
        with pytest.raises(ValueError):
            loss_breakdown(short_wave, make_wave(4096, seed=1))

    def test_mel_recon_matches_direct_mels(self, short_wave):
        other = make_wave(len(short_wave), seed=98)
        want, _ = mel_l1(mel_spectrogram(short_wave), mel_spectrogram(other))
        assert loss_breakdown(short_wave, other).mel_recon == want

    def test_speaker_sim_zero_on_same_waveform(self, short_wave):
        assert loss_breakdown(short_wave, short_wave).spk_sim == 0.0

    def test_speaker_sim_matches_direct_embeddings(self, short_wave):
        other = make_wave(len(short_wave), seed=97)
        want, _ = embedding_mse(speaker_embedding(short_wave), speaker_embedding(other))
        assert loss_breakdown(short_wave, other).spk_sim == want


class TestLossBreakdown:
    def test_total_is_weighted_sum(self, short_wave):
        other = make_wave(len(short_wave), seed=95)
        lb = loss_breakdown(short_wave, other)
        assert lb.total == lb.mel_recon + lb.spk_sim

    def test_rejects_negative_term(self):
        with pytest.raises(ValueError):
            LossBreakdown(mel_recon=-0.1, spk_sim=0.1)

    def test_to_dict(self, short_wave):
        other = make_wave(len(short_wave), seed=93)
        d = loss_breakdown(short_wave, other).to_dict()
        assert set(d) == {"mel_recon", "spk_sim", "total"}


class TestAssembleSupervision:
    def _example(self):
        src = make_wave(3 * SEGMENT_SAMPLES, seed=21)
        tgt = make_wave(3 * SEGMENT_SAMPLES, seed=22)
        return make_example(src, tgt, np.random.default_rng(5))

    def test_shapes(self):
        z_src, c, g, z_tgt, mel_tgt = assemble_supervision(self._example())
        assert z_src.shape == (150, 1024)
        assert z_tgt.shape == (150, 1024)
        assert c.shape[1] == 128
        assert g.shape == (192,)
        assert mel_tgt.shape == (147, 128)

    def test_tensors_come_from_the_right_waveforms(self):
        ex = self._example()
        z_src, c, g, z_tgt, mel_tgt = assemble_supervision(ex)
        assert np.array_equal(z_src, toy_encode(ex.source_seg))
        assert np.array_equal(z_tgt, toy_encode(ex.target_seg))
        assert np.array_equal(c, mel_spectrogram(ex.cond_wave))
        assert np.array_equal(g, speaker_embedding(ex.cond_wave))
        assert np.array_equal(mel_tgt, mel_spectrogram(ex.target_seg))

    def test_condition_excludes_target_segment(self):
        # conditioning features must come from the excised waveform, which
        # is strictly shorter than the full target utterance
        ex = self._example()
        _, c, _, _, _ = assemble_supervision(ex)
        full = mel_spectrogram(make_wave(3 * SEGMENT_SAMPLES, seed=22))
        assert c.shape[0] < full.shape[0]

    def test_custom_codec_is_used(self):
        calls = []

        class Probe:
            hop = 256

            def encode(self, w):
                calls.append(len(w))
                return toy_encode(w)

            def decode(self, z):
                raise AssertionError("decode is not part of supervision assembly")

        assemble_supervision(self._example(), codec=Probe())
        assert calls == [SEGMENT_SAMPLES, SEGMENT_SAMPLES]
