"""Waveform container and 16 kHz mono WAV round trips.

Covers validation (dtype, shape, finiteness), int16 scaling on both
directions, clipping on write, format rejection on read, and the
zero-padded slicing helper the streaming layer is built on.
"""

import struct
import wave

import numpy as np
import pytest

from latentvc import (
    SAMPLE_RATE,
    AudioFormatError,
    NonFiniteError,
    Waveform,
    read_wav,
    slice_pad,
    write_wav,
)

from conftest import make_wave


class TestWaveform:
    def test_coerces_to_float64(self):
        w = Waveform(np.zeros(10, dtype=np.float32))
        assert w.samples.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 10)))

    def test_rejects_nan(self):
        x = np.zeros(10)
        x[3] = np.nan
        with pytest.raises(NonFiniteError):
            Waveform(x)

    def test_rejects_inf(self):
        x = np.zeros(10)
        x[0] = np.inf
        with pytest.raises(NonFiniteError):
            Waveform(x)

    def test_len_and_duration(self):
        w = Waveform(np.zeros(SAMPLE_RATE * 2))
        assert len(w) == 32000
        assert w.duration_s == pytest.approx(2.0)

    def test_rate_is_a_class_constant(self):
        # every waveform is 16 kHz; one at another rate cannot be built
        assert Waveform(np.zeros(4)).sample_rate == Waveform.sample_rate == SAMPLE_RATE
        with pytest.raises(TypeError):
            Waveform(np.zeros(4), 8000)


class TestWavRoundTrip:
    def test_int16_grid_exact(self, tmp_path):
        # values on the int16 grid survive write/read bit for bit
        vals = np.array([-32768, -1, 0, 1, 255, 32767], dtype=np.int64)
        w = Waveform(vals / 32768.0)
        p = tmp_path / "grid.wav"
        write_wav(p, w)
        back = read_wav(p)
        assert np.array_equal(back.samples, w.samples)

    def test_scale_is_1_over_32768(self, tmp_path):
        p = tmp_path / "one.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(np.array([16384], dtype="<i2").tobytes())
        assert read_wav(p).samples[0] == pytest.approx(0.5)

    def test_every_int16_value_reads_as_value_over_32768(self, tmp_path):
        pcm = np.arange(-32768, 32768, dtype="<i2")
        p = tmp_path / "all.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(pcm.tobytes())
        assert np.array_equal(read_wav(p).samples, pcm.astype(np.float64) / 32768.0)

    def test_write_clips_out_of_range(self, tmp_path, caplog):
        w = Waveform(np.array([2.0, -2.0, 0.0]))
        p = tmp_path / "clip.wav"
        with caplog.at_level("WARNING"):
            assert write_wav(p, w) == 2
        assert any("clipped 2" in r.message for r in caplog.records)
        back = read_wav(p)
        assert back.samples[0] == pytest.approx(32767 / 32768)
        assert back.samples[1] == -1.0

    def test_round_trip_quantization_error_bound(self, tmp_path):
        w = make_wave(8000, seed=11, amp=0.1)
        assert np.abs(w.samples).max() < 1.0  # stays inside the PCM range
        p = tmp_path / "noise.wav"
        write_wav(p, w)
        back = read_wav(p)
        assert len(back) == len(w)
        assert np.abs(back.samples - w.samples).max() <= 0.5 / 32768 + 1e-12


class TestReadRejectsFormats:
    def _write(self, path, channels=1, width=2, rate=SAMPLE_RATE):
        with wave.open(str(path), "wb") as f:
            f.setnchannels(channels)
            f.setsampwidth(width)
            f.setframerate(rate)
            f.writeframes(b"\x00" * (width * channels * 8))

    def test_stereo(self, tmp_path):
        p = tmp_path / "st.wav"
        self._write(p, channels=2)
        with pytest.raises(AudioFormatError):
            read_wav(p)

    def test_8bit(self, tmp_path):
        p = tmp_path / "b8.wav"
        self._write(p, width=1)
        with pytest.raises(AudioFormatError):
            read_wav(p)

    def test_wrong_rate(self, tmp_path):
        p = tmp_path / "sr.wav"
        self._write(p, rate=44100)
        with pytest.raises(AudioFormatError):
            read_wav(p)

    @pytest.mark.parametrize("cut, present", [(100, "950"), (101, "949.5")], ids=["whole-frames", "mid-sample"])
    def test_data_chunk_shorter_than_declared(self, tmp_path, cut, present):
        # A data chunk that ends early is refused, not read as a shorter file.
        p = tmp_path / "cut.wav"
        write_wav(p, Waveform(np.zeros(1000)))
        p.write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(AudioFormatError, match=rf"cut\.wav: .*1000 frames declared, {present} present"):
            read_wav(p)

    def test_not_a_wav(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"this is not audio")
        with pytest.raises(AudioFormatError):
            read_wav(p)

    def test_ieee_float(self, tmp_path):
        # format tag 3: mono 32-bit float samples at the right rate
        p = tmp_path / "f32.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 32)
        data = np.zeros(8, "<f4").tobytes()
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(AudioFormatError, match=r"f32\.wav: not a PCM WAV file"):
            read_wav(p)


class TestSlicePad:
    def test_interior_is_plain_slice(self):
        w = Waveform(np.arange(10, dtype=float))
        assert np.array_equal(slice_pad(w, 2, 5).samples, np.arange(2, 7, dtype=float))

    def test_pads_before_start(self):
        w = Waveform(np.arange(4, dtype=float))
        out = slice_pad(w, -3, 5)
        assert np.array_equal(out.samples, [0, 0, 0, 0, 1])

    def test_pads_after_end(self):
        w = Waveform(np.arange(4, dtype=float))
        out = slice_pad(w, 2, 5)
        assert np.array_equal(out.samples, [2, 3, 0, 0, 0])

    def test_fully_outside_is_zeros(self):
        w = Waveform(np.arange(4, dtype=float))
        assert np.array_equal(slice_pad(w, 100, 3).samples, np.zeros(3))
        assert np.array_equal(slice_pad(w, -100, 3).samples, np.zeros(3))

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length must be >= 0, got -1"):
            slice_pad(Waveform(np.zeros(4)), 0, -1)

    def test_length_always_requested(self):
        w = Waveform(np.arange(7, dtype=float))
        for start in (-5, 0, 3, 20):
            assert len(slice_pad(w, start, 4)) == 4
