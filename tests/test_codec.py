"""Toy codec: orthonormal per-frame transform into a wide latent space.

Checks the three properties downstream code leans on (exact round trip,
linearity, frame locality) plus the latent layout and a longhand DCT-II
oracle for the transform itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentvc import NonFiniteError, Waveform, toy_codec, toy_decode, toy_encode
from latentvc.codec import D_LATENT, HOP, LATENT_SCALE, _dct_basis

from conftest import make_wave


def oracle_dct2_ortho(frame):
    """Orthonormal DCT-II of one frame, straight from the cosine sum."""
    n = len(frame)
    out = np.empty(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += frame[i] * np.cos(np.pi * (i + 0.5) * k / n)
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = acc * scale
    return out


class TestEncode:
    def test_shape_and_layout(self):
        z = toy_encode(make_wave(4 * HOP, seed=1))
        assert z.shape == (4, D_LATENT)
        # only the first HOP latent channels are used
        assert np.all(z[:, HOP:] == 0.0)

    def test_matches_dct_oracle(self):
        w = make_wave(HOP, seed=2)
        z = toy_encode(w)
        want = oracle_dct2_ortho(w.samples) * LATENT_SCALE
        assert np.abs(z[0, :HOP] - want).max() < 1e-10

    def test_rejects_partial_frame(self):
        with pytest.raises(ValueError):
            toy_encode(make_wave(HOP + 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            toy_encode(Waveform(np.zeros(0)))


class TestDecode:
    def test_round_trip_exact(self):
        w = make_wave(20 * HOP, seed=3)
        back = toy_decode(toy_encode(w))
        assert np.abs(back.samples - w.samples).max() < 1e-12

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            toy_decode(np.zeros((3, 512)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            toy_decode(np.zeros(D_LATENT))

    def test_rejects_non_finite(self):
        z = np.zeros((2, D_LATENT))
        z[1, 10] = np.nan
        with pytest.raises(NonFiniteError):
            toy_decode(z)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(1, 400), dtype=st.sampled_from([np.float32, np.float64]), fortran=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_is_the_longhand_bitwise(self, t, dtype, fortran, seed):
        # Only the signal columns are converted; the result is the product
        # of the whole latent converted to float64, bit for bit.
        z = np.random.default_rng(seed).standard_normal((t, D_LATENT)).astype(dtype)
        if fortran:
            z = np.asfortranarray(z)
        want = z.astype(np.float64)[:, :HOP] @ _dct_basis().T / LATENT_SCALE**2
        assert np.array_equal(toy_decode(z).samples, want.reshape(-1))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outside_the_signal_columns(self, dtype, bad):
        z = np.zeros((3, D_LATENT), dtype)
        z[2, 1000] = bad
        with pytest.raises(NonFiniteError, match="latent contains"):
            toy_decode(z)

    @pytest.mark.parametrize("shape", [(D_LATENT,), (3, HOP), (3, D_LATENT + 1), (2, 3, D_LATENT)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_rejects_shape_of_any_dtype(self, shape, dtype):
        with pytest.raises(ValueError, match="latent must be"):
            toy_decode(np.zeros(shape, dtype))

    @pytest.mark.parametrize("convert", [lambda z: z.astype(np.float16), lambda z: (z * 100).astype(np.int32),
                                         lambda z: z.astype(object), lambda z: z.tolist(),
                                         lambda z: z.astype(np.longdouble)],
                             ids=["float16", "int32", "object", "list", "longdouble"])
    def test_other_inputs_decode_as_float64(self, convert):
        z = convert(np.random.default_rng(4).standard_normal((3, D_LATENT)))
        want = toy_decode(np.asarray(z, dtype=np.float64)).samples
        assert np.array_equal(toy_decode(z).samples, want)

    def test_longdouble_that_overflows_float64_is_non_finite(self):
        # Finite as given where longdouble is wider than float64, infinite
        # once converted.
        z = np.zeros((1, D_LATENT), np.longdouble)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="latent contains"):
            z[0, 5] = np.longdouble(np.finfo(np.float64).max) * 4
            toy_decode(z)


class TestAlgebraicProperties:
    def test_linearity(self):
        a = make_wave(8 * HOP, seed=4)
        b = make_wave(8 * HOP, seed=5)
        mixed = Waveform(0.7 * a.samples + 0.2 * b.samples)
        z = toy_encode(mixed)
        want = 0.7 * toy_encode(a) + 0.2 * toy_encode(b)
        assert np.abs(z - want).max() < 1e-12

    def test_encode_frame_locality(self):
        w = make_wave(6 * HOP, seed=6)
        bumped = w.samples.copy()
        bumped[3 * HOP + 17] += 1.0
        dz = toy_encode(Waveform(bumped)) - toy_encode(w)
        changed = np.abs(dz).max(axis=1) > 0
        assert list(np.nonzero(changed)[0]) == [3]

    def test_decode_frame_locality(self):
        z = toy_encode(make_wave(6 * HOP, seed=7))
        z2 = z.copy()
        z2[2, 50] += 0.5
        d = toy_decode(z2).samples - toy_decode(z).samples
        assert np.all(d[: 2 * HOP] == 0.0)
        assert np.all(d[3 * HOP :] == 0.0)
        assert np.abs(d[2 * HOP : 3 * HOP]).max() > 0.0

    def test_scale_constant_applied(self):
        # a unit impulse train lands in the latent at amplitude LATENT_SCALE * dct
        w = Waveform(np.ones(HOP))
        z = toy_encode(w)
        assert z[0, 0] == pytest.approx(LATENT_SCALE * np.sqrt(HOP), rel=1e-12)


class TestCodecInterface:
    def test_bundle(self):
        codec = toy_codec()
        assert codec.hop == HOP
        w = make_wave(4 * HOP, seed=8)
        back = codec.decode(codec.encode(w))
        assert np.abs(back.samples - w.samples).max() < 1e-12
