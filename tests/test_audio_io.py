"""Waveform container and 16 kHz mono WAV round trips.

Covers validation (dtype, shape, finiteness), int16 scaling on both
directions, clipping on write, format rejection on read, and the
zero-padded slicing helper the streaming layer is built on. A property
test checks that the float32 samples `read_wav` returns give bitwise the
results of their float64 widening, from the slicing helper to whole
offline and streaming conversions.
"""

import gc
import re
import struct
import sys
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentvc import (
    SAMPLE_RATE,
    AudioFormatError,
    NonFiniteError,
    Waveform,
    identity_converter,
    make_converter,
    mel_spectrogram,
    offline_run,
    read_wav,
    slice_pad,
    speaker_embedding,
    stream_run,
    toy_codec,
    toy_encode,
    write_wav,
)

from conftest import SMALL_STREAM, WIDE_TINY, gated_params, make_wave


class TestWaveform:
    @pytest.mark.parametrize("given, kept", [
        (np.float32, True), (np.float64, True),
        (np.int16, False), (np.int64, False), (np.float16, False), (">f4", False), (list, False),
    ], ids=["float32", "float64", "int16", "int64", "float16", "big-endian-float32", "list"])
    def test_keeps_native_float32_and_float64_and_widens_the_rest(self, given, kept):
        # float32 holds every 16-bit sample exactly, so it is kept uncopied
        # like float64; any other dtype is widened to float64
        values = [0, 1, -2, 3]
        x = list(values) if given is list else np.array(values, dtype=given)
        w = Waveform(x)
        assert w.samples.dtype == (np.dtype(given) if kept else np.float64)
        assert w.samples.dtype.isnative and np.array_equal(w.samples, values)
        assert np.shares_memory(w.samples, x) == kept
        if given is not list and np.dtype(given).kind == "f":
            for bad in (np.nan, np.inf, -np.inf):
                y = x.copy()
                y[1] = bad
                with pytest.raises(NonFiniteError):
                    Waveform(y)

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

    def test_failed_write_raises_naming_the_path_and_logs_no_clip(self, tmp_path, caplog, monkeypatch):
        # No clip count is logged for a file that was never written, and no half-built
        # `wave.Wave_write` is left to print a traceback when it is collected.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        p = tmp_path / "missing" / "clip.wav"
        with caplog.at_level("WARNING"), pytest.raises(OSError, match=f"failed to write {re.escape(str(p))}"):
            write_wav(p, Waveform(np.array([2.0, -2.0, 0.0])))
        gc.collect()
        assert caplog.records == [] and unraisable == []

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


def _write_pcm(path, pcm):
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.astype("<i2").tobytes())


class TestFloat32IsExact:
    """`read_wav` holds 16-bit PCM as float32. Every consumer computes in
    float64, so the float32 waveform and its float64 widening must give
    bitwise the same results."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1024, 4096), seed=st.integers(0, 2**32 - 1), start=st.integers(-3000, 5000),
           length=st.integers(0, 3000))
    def test_float32_pcm_gives_what_its_float64_widening_gives(self, tmp_path_factory, n, seed, start, length):
        r = np.random.default_rng(seed)
        pcm = r.integers(-32768, 32768, size=n)
        pcm[r.random(n) < 0.05] = r.choice([-32768, 32767])  # full scale, both ends
        tmp = tmp_path_factory.mktemp("pcm")
        _write_pcm(tmp / "in.wav", pcm)
        w32 = read_wav(tmp / "in.wav")
        assert w32.samples.dtype == np.float32
        assert w32.samples.astype(np.float64).tobytes() == (pcm / 32768.0).tobytes()
        w64 = Waveform(w32.samples.astype(np.float64))

        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()

        same(slice_pad(w32, start, length).samples, slice_pad(w64, start, length).samples)
        same(mel_spectrogram(w32), mel_spectrogram(w64))
        same(speaker_embedding(w32), speaker_embedding(w64))
        hops = n - n % 256
        same(toy_encode(Waveform(w32.samples[:hops])), toy_encode(Waveform(w64.samples[:hops])))
        codec = toy_codec()
        for converter in (identity_converter, make_converter(gated_params(WIDE_TINY, seed=5))):
            same(offline_run(w32, w32, codec, converter)[0].samples, offline_run(w64, w64, codec, converter)[0].samples)
            same(stream_run(w32, w32, SMALL_STREAM, codec, converter)[0].samples,
                 stream_run(w64, w64, SMALL_STREAM, codec, converter)[0].samples)

        # full scale at both ends, +1.0 (clipped to 32767), and values past it
        edges = np.array([1.0, -1.0, 32767 / 32768, -32768 / 32768, 1.5, -1.5], dtype=np.float32)
        w32 = Waveform(np.concatenate([w32.samples, edges]))
        w64 = Waveform(w32.samples.astype(np.float64))
        assert write_wav(tmp / "32.wav", w32) == write_wav(tmp / "64.wav", w64) == 3
        assert (tmp / "32.wav").read_bytes() == (tmp / "64.wav").read_bytes()
