"""RIFF/WAVE decoder tests, including hand-crafted malformed containers."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawnet.errors import ConfigError, DecodeError, UnsupportedFormat
from sawnet.wavio import _RUN_FRAMES, WavReader, decode_wav, encode_wav


def make_wav(audio_format=1, channels=1, sample_rate=16000, bits=16,
             payload=b"\x00\x00", extra_chunks=b"", block_align=None) -> bytes:
    """Assemble a WAV file field by field so each can be corrupted."""
    if block_align is None:
        block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += extra_chunks
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestDecodeValid:
    def test_pcm16_full_scale_positive(self):
        data = make_wav(payload=struct.pack("<h", 32767))
        clip = decode_wav(data)
        assert clip.samples[0] == pytest.approx(32767 / 32768, abs=0)
        assert clip.sample_rate == 16000

    def test_float32_zeros(self):
        data = make_wav(audio_format=3, bits=32, payload=struct.pack("<4f", 0, 0, 0, 0))
        clip = decode_wav(data)
        assert clip.sample_rate == 16000
        np.testing.assert_array_equal(clip.samples, np.zeros(4, np.float32))

    def test_stereo_symmetric_mixdown(self):
        data = make_wav(channels=2, payload=struct.pack("<hh", 16384, -16384))
        clip = decode_wav(data)
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == 0.0

    def test_stereo_float32_average(self):
        data = make_wav(audio_format=3, channels=2, bits=32,
                        payload=struct.pack("<2f", 0.5, 0.1))
        assert decode_wav(data).samples[0] == pytest.approx(0.3, abs=1e-7)

    def test_unknown_chunks_skipped(self):
        junk = b"LIST" + struct.pack("<I", 5) + b"junk!" + b"\x00"  # odd size + pad
        data = make_wav(payload=struct.pack("<h", 100), extra_chunks=junk)
        assert decode_wav(data).samples.shape == (1,)

    def test_source_id_is_kept(self):
        clip = decode_wav(make_wav(), source_id="clip-7")
        assert clip.source_id == "clip-7"

    @given(st.lists(st.floats(-1.0, 1.0, width=32), min_size=1, max_size=200),
           st.sampled_from([8000, 16000, 44100]))
    @settings(max_examples=25)
    def test_float32_roundtrip_exact(self, values, rate):
        raw = np.array(values, dtype=np.float32)
        clip = decode_wav(encode_wav(raw, rate, fmt="float32"))
        assert clip.sample_rate == rate
        np.testing.assert_array_equal(clip.samples, raw)


class TestDecodeMalformed:
    def test_not_riff(self):
        with pytest.raises(DecodeError):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_wrong_wave_tag(self):
        data = bytearray(make_wav())
        data[8:12] = b"AVI "
        with pytest.raises(DecodeError):
            decode_wav(bytes(data))

    def test_truncated_chunk_body(self):
        data = make_wav(payload=b"\x00\x00" * 100)
        with pytest.raises(DecodeError):
            decode_wav(data[:-50])

    def test_missing_fmt_chunk(self):
        payload = b"data" + struct.pack("<I", 2) + b"\x00\x00"
        data = b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload
        with pytest.raises(DecodeError):
            decode_wav(data)

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        data = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(DecodeError):
            decode_wav(data)

    def test_partial_frame_payload(self):
        with pytest.raises(DecodeError):
            decode_wav(make_wav(payload=b"\x00\x00\x00"))  # 3 bytes, 2-byte frames

    def test_empty_data_chunk(self):
        with pytest.raises(DecodeError):
            decode_wav(make_wav(payload=b""))

    def test_zero_sample_rate(self):
        with pytest.raises(DecodeError):
            decode_wav(make_wav(sample_rate=0))

    def test_nan_float_payload(self):
        data = make_wav(audio_format=3, bits=32, payload=struct.pack("<f", float("nan")))
        with pytest.raises(DecodeError):
            decode_wav(data)


class TestDecodeUnsupported:
    def test_pcm24(self):
        with pytest.raises(UnsupportedFormat):
            decode_wav(make_wav(bits=24, payload=b"\x00" * 3))

    def test_adpcm(self):
        with pytest.raises(UnsupportedFormat):
            decode_wav(make_wav(audio_format=2, payload=b"\x00\x00"))

    def test_float64(self):
        with pytest.raises(UnsupportedFormat):
            decode_wav(make_wav(audio_format=3, bits=64, payload=b"\x00" * 8))

    def test_three_channels(self):
        with pytest.raises(UnsupportedFormat):
            decode_wav(make_wav(channels=3, payload=b"\x00" * 6))


class TestFuzzedInput:
    """Hostile bytes must raise the decode error family, never crash."""

    @given(st.binary(max_size=300))
    @settings(max_examples=150)
    def test_random_bytes(self, data):
        try:
            decode_wav(data)
        except (DecodeError, UnsupportedFormat):
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_random_riff_tail(self, tail):
        try:
            decode_wav(b"RIFF\x10\x00\x00\x00WAVE" + tail)
        except (DecodeError, UnsupportedFormat):
            pass


class TestEncode:
    def test_pcm16_roundtrip_quantized(self):
        raw = np.array([0.0, 0.25, -0.5, 1.0])
        clip = decode_wav(encode_wav(raw, 8000))
        assert clip.sample_rate == 8000
        np.testing.assert_allclose(clip.samples, [0.0, 0.25, -0.5, 32767 / 32768],
                                   atol=1 / 32768)

    def test_encode_clips_out_of_range(self):
        clip = decode_wav(encode_wav(np.array([2.0, -2.0]), 16000))
        assert clip.samples[0] == pytest.approx(32767 / 32768, abs=0)
        assert clip.samples[1] == -1.0


def _old_decode(payload: bytes, dtype: str, scale: float, channels: int) -> np.ndarray:
    """The decoding formula `decode_wav` used before it decoded in place."""
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float32) * np.float32(scale)
    return samples.reshape(-1, 2).mean(axis=1) if channels == 2 else samples


_FORMATS = {"pcm16": ("<i2", 1.0 / 32768.0), "float32": ("<f4", 1.0)}


class TestDecodeInPlace:
    @given(fmt=st.sampled_from(sorted(_FORMATS)), channels=st.sampled_from([1, 2]),
           frames=st.integers(1, 300), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_samples_equal_old_formula(self, fmt, channels, frames, seed):
        raw = np.random.default_rng(seed).uniform(-1.2, 1.2, (frames, channels))
        data = encode_wav(raw if channels == 2 else raw[:, 0], 22050, fmt=fmt,
                          channels=channels)
        dtype, scale = _FORMATS[fmt]
        want = _old_decode(data[44:], dtype, scale, channels)
        got = decode_wav(data).samples
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)

    def test_stereo_pcm16_peak_below_3_3x_data_chunk(self):
        # the old path copied the data chunk, then held float32 frames and
        # their mixdown: 4x the chunk
        raw = np.random.default_rng(5).uniform(-0.5, 0.5, (44100 * 5, 2))
        data = encode_wav(raw, 44100, channels=2)
        tracemalloc.start()
        try:
            decode_wav(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.3 * (len(data) - 44)

    @given(fmt=st.sampled_from(sorted(_FORMATS)), channels=st.sampled_from([1, 2]),
           frames=st.integers(_RUN_FRAMES - 2, 3 * _RUN_FRAMES + 2), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_runs_of_frames_equal_old_formula(self, fmt, channels, frames, seed):
        # the data chunk spans several decoding runs, the last one partial
        raw = np.random.default_rng(seed).uniform(-1.2, 1.2, (frames, channels))
        data = encode_wav(raw if channels == 2 else raw[:, 0], 22050, fmt=fmt,
                          channels=channels)
        dtype, scale = _FORMATS[fmt]
        np.testing.assert_array_equal(decode_wav(data).samples,
                                      _old_decode(data[44:], dtype, scale, channels))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_sample_in_a_later_run(self, channels):
        raw = np.zeros((2 * _RUN_FRAMES + 10, channels))
        raw[-3, -1] = np.inf
        data = encode_wav(raw if channels == 2 else raw[:, 0], 16000, fmt="float32",
                          channels=channels)
        with pytest.raises(DecodeError, match="non-finite"):
            decode_wav(data)

    def test_stereo_pcm16_peak_below_1_3x_data_chunk(self):
        # the interleaved float32 frames (2x the chunk) were held whole before
        # the mixdown: 3.03x; runs of frames leave the mono output (1x)
        raw = np.random.default_rng(5).uniform(-0.5, 0.5, (44100 * 5, 2))
        data = encode_wav(raw, 44100, channels=2)
        tracemalloc.start()
        try:
            decode_wav(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * (len(data) - 44)


@pytest.fixture()
def wav_path(tmp_path):
    def _write(data: bytes, name: str = "clip.wav"):
        path = tmp_path / name
        path.write_bytes(data)
        return path

    return _write


class TestWavReader:
    @given(fmt=st.sampled_from(sorted(_FORMATS)), channels=st.sampled_from([1, 2]),
           frames=st.integers(1, 500), seed=st.integers(0, 2**16),
           cuts=st.lists(st.floats(0, 1), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_ranges_match_decode_wav(self, tmp_path_factory, fmt, channels, frames, seed, cuts):
        raw = np.random.default_rng(seed).uniform(-1.2, 1.2, (frames, channels))
        data = encode_wav(raw if channels == 2 else raw[:, 0], 48000, fmt=fmt,
                          channels=channels)
        # a chunk before the data moves its offset off the 44-byte default
        data = data[:36] + b"LIST" + struct.pack("<I", 3) + b"abc\x00" + data[36:]
        data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
        path = tmp_path_factory.mktemp("reader") / "clip.wav"
        path.write_bytes(data)
        whole = decode_wav(data)
        lo, hi = sorted(int(c * frames) for c in cuts)
        with WavReader(path, source_id="r") as reader:
            assert (reader.sample_rate, reader.num_samples) == (48000, frames)
            np.testing.assert_array_equal(reader.read(lo, hi), whole.samples[lo:hi])
            np.testing.assert_array_equal(reader.read(0, frames), whole.samples)

    def test_header_errors_match_decode_wav(self, wav_path):
        for data in (make_wav()[:-1], make_wav(bits=24, payload=b"\x00" * 3),
                     b"RIFF\x04\x00\x00\x00WAVE", b"OggS" + bytes(40)):
            with pytest.raises((DecodeError, UnsupportedFormat)) as from_bytes:
                decode_wav(data)
            with pytest.raises(type(from_bytes.value), match=re.escape(str(from_bytes.value))):
                WavReader(wav_path(data))

    def test_non_finite_sample_fails_its_range(self, wav_path):
        samples = np.zeros(100, np.float32)
        samples[70] = np.nan
        path = wav_path(encode_wav(samples, 16000, fmt="float32"))
        with WavReader(path) as reader:
            np.testing.assert_array_equal(reader.read(0, 70), np.zeros(70, np.float32))
            with pytest.raises(DecodeError, match="non-finite"):
                reader.read(60, 80)

    def test_range_outside_file_rejected(self, wav_path):
        with WavReader(wav_path(make_wav(payload=b"\x00" * 8))) as reader:
            for lo, hi in ((-1, 2), (3, 2), (0, 5)):
                with pytest.raises(ConfigError):
                    reader.read(lo, hi)

    def test_file_shrunk_after_open_raises_decode_error(self, wav_path):
        path = wav_path(encode_wav(np.zeros(100_000), 16000))
        with WavReader(path) as reader:
            path.write_bytes(path.read_bytes()[:100])
            with pytest.raises(DecodeError, match="early"):
                reader.read(0, 100_000)

    def test_closes_its_file(self, wav_path):
        reader = WavReader(wav_path(make_wav()))
        with reader:
            pass
        with pytest.raises(ValueError):
            reader.read(0, 1)
