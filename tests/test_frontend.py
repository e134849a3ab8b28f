"""DSP frontend tests: mel scale, filterbank geometry, STFT conventions,
resampling, and patch framing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawnet import frontend
from sawnet.errors import ConfigError, DomainError, TooShort
from sawnet.wavio import decode_wav, encode_wav


def dominant_bin_hz(samples: np.ndarray, sample_rate: int) -> float:
    """FFT-peak oracle: frequency of the strongest rFFT bin."""
    mag = np.abs(np.fft.rfft(samples.astype(np.float64)))
    return float(np.argmax(mag)) * sample_rate / len(samples)


class TestMelScale:
    def test_zero_fixpoint(self):
        assert frontend.hz_to_mel(0.0) == 0.0

    def test_700_hz(self):
        assert frontend.hz_to_mel(700.0) == pytest.approx(1127.0 * math.log(2.0), rel=1e-12)

    def test_7500_hz(self):
        want = 1127.0 * math.log(1.0 + 7500.0 / 700.0)
        assert frontend.hz_to_mel(7500.0) == pytest.approx(want, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            frontend.hz_to_mel(-1.0)

    def test_strictly_increasing_on_audio_band(self):
        grid = np.linspace(0.0, 8000.0, 4001)
        mels = frontend.hz_to_mel(grid)
        assert np.all(np.diff(mels) > 0)

    @given(st.floats(0.001, 8000.0))
    @settings(max_examples=100)
    def test_inverse_roundtrip(self, f):
        back = frontend.mel_to_hz(frontend.hz_to_mel(f))
        assert abs(back - f) / f < 1e-6


class TestMelFilterbank:
    def test_shape_and_range(self):
        fb = frontend.build_mel_filterbank()
        assert fb.shape == (64, 257)
        assert fb.min() >= 0.0 and fb.max() <= 1.0

    def test_rows_unimodal(self):
        fb = frontend.build_mel_filterbank()
        for row in fb:
            nz = np.nonzero(row)[0]
            assert nz.size > 0
            peak = int(np.argmax(row))
            assert np.all(np.diff(row[: peak + 1])[row[:peak] > 0] > 0)  # rises
            falling = np.diff(row[peak:])
            assert np.all(falling[row[peak:-1] > 0] <= 0)  # then falls

    def test_peak_centers_monotone(self):
        fb = frontend.build_mel_filterbank()
        peaks = np.argmax(fb, axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_first_filter_anchors_at_bin_4(self):
        # 16 kHz / 512-point FFT = 31.25 Hz per bin; 125 Hz is exactly bin 4
        fb = frontend.build_mel_filterbank(num_fft_bins=257)
        assert np.all(fb[0, :4] == 0.0)
        assert fb[0, 4] == 0.0  # lower corner sits exactly on the bin
        assert fb[0, 5] > 0.0

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigError):
            frontend.build_mel_filterbank(num_fft_bins=9)

    def test_bad_band_edges_rejected(self):
        with pytest.raises(ConfigError):
            frontend.build_mel_filterbank(fmin=7500.0, fmax=125.0)
        with pytest.raises(ConfigError):
            frontend.build_mel_filterbank(fmax=9000.0)


class TestResample:
    def test_16k_unchanged(self):
        clip = frontend.AudioClip(np.random.default_rng(0).normal(0, 0.1, 1000), 16000)
        out = frontend.resample_to_16k(clip)
        assert out is clip

    def test_sine_frequency_preserved_from_48k(self):
        t = np.arange(48000) / 48000.0
        clip = frontend.AudioClip(np.sin(2 * np.pi * 440.0 * t), 48000)
        out = frontend.resample_to_16k(clip)
        assert len(out.samples) == 16000
        peak = dominant_bin_hz(out.samples, 16000)
        assert abs(peak - 440.0) <= 1.0  # within one 1 Hz bin

    def test_constant_upsample_doubles_length(self):
        clip = frontend.AudioClip(np.full(500, 0.125, np.float32), 8000)
        out = frontend.resample_to_16k(clip)
        assert len(out.samples) == 1000
        assert np.abs(out.samples - 0.125).max() < 1e-6

    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 44100, 48000])
    def test_duration_preserved(self, rate):
        n = int(0.7 * rate)
        clip = frontend.AudioClip(np.zeros(n, np.float32), rate)
        out = frontend.resample_to_16k(clip)
        assert out.sample_rate == 16000
        assert abs(len(out.samples) - n * 16000 / rate) <= 1.0


class TestResampleRanges:
    @given(rate=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]),
           n=st.integers(1, 30000), seed=st.integers(0, 2**16),
           cuts=st.lists(st.floats(0, 1), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_range_equals_slice_of_whole_clip(self, rate, n, seed, cuts):
        samples = np.random.default_rng(seed).uniform(-1, 1, n).astype(np.float32)
        clip = frontend.AudioClip(samples, rate)
        whole = frontend.resample_to_16k(clip).samples
        start, stop = sorted(int(c * len(whole)) for c in cuts)
        part = frontend.resample_to_16k(clip, start, stop)
        assert part.sample_rate == 16000
        np.testing.assert_array_equal(part.samples, whole[start:stop])

    def test_range_reads_only_its_neighbourhood(self):
        # 1 s of 16 kHz output from the middle of a 60 s 44.1 kHz clip reads
        # the filter's 50-sample halo around 44,100 positions, and no more
        reads = []

        class Source(frontend.AudioClip):
            def read(self, lo, hi):
                reads.append((lo, hi))
                return super().read(lo, hi)

        clip = Source(np.zeros(60 * 44100, np.float32), 44100)
        frontend.resample_to_16k(clip, 16000 * 30, 16000 * 31)
        [(lo, hi)] = reads
        assert 30 * 44100 - 50 == lo and hi - lo < 44100 + 102

    def test_range_outside_clip_rejected(self):
        clip = frontend.AudioClip(np.zeros(441), 44100)
        for start, stop in ((-1, 10), (10, 5), (0, 161)):
            with pytest.raises(ConfigError):
                frontend.resample_to_16k(clip, start, stop)

    def test_whole_length_without_resampling(self):
        for rate, n in ((16000, 12345), (44100, 44100 * 3 + 7), (8000, 999)):
            clip = frontend.AudioClip(np.zeros(n, np.float32), rate)
            assert len(frontend.resample_to_16k(clip).samples) == \
                frontend.resampled_length(n, rate)


class TestLogMelSpectrogram:
    def test_silence_is_exactly_log_offset(self):
        clip = frontend.AudioClip(np.zeros(16000, np.float32), 16000)
        spec = frontend.log_mel_spectrogram(clip)
        assert np.all(spec.frames == math.log(0.01))

    def test_one_second_gives_98_frames(self):
        clip = frontend.AudioClip(np.zeros(16000, np.float32), 16000)
        assert frontend.log_mel_spectrogram(clip).num_frames == 98

    def test_band_count_and_floor(self):
        rng = np.random.default_rng(1)
        clip = frontend.AudioClip(rng.uniform(-0.5, 0.5, 8000).astype(np.float32), 16000)
        spec = frontend.log_mel_spectrogram(clip)
        assert spec.frames.shape[1] == 64
        assert np.all(spec.frames >= math.log(0.01))
        assert np.all(np.isfinite(spec.frames))

    def test_pure_tone_peaks_in_nearest_band(self):
        t = np.arange(16000) / 16000.0
        clip = frontend.AudioClip(np.sin(2 * np.pi * 1000.0 * t).astype(np.float32), 16000)
        spec = frontend.log_mel_spectrogram(clip)
        corners = np.linspace(frontend.hz_to_mel(125.0), frontend.hz_to_mel(7500.0), 66)
        centers = frontend.mel_to_hz(corners[1:-1])
        want = int(np.argmin(np.abs(centers - 1000.0)))
        assert np.all(np.argmax(spec.frames, axis=1) == want)

    def test_parseval_per_frame(self):
        # windowed-energy identity: sum w^2 == (1/N) * sum |FFT|^2 over all N bins
        rng = np.random.default_rng(2)
        window = frontend._hann_periodic(frontend.FRAME_LEN)
        for _ in range(20):
            frame = rng.normal(0, 1, frontend.FRAME_LEN) * window
            spectrum = np.fft.rfft(frame, n=frontend.N_FFT)
            power = np.abs(spectrum) ** 2
            full = power[0] + power[-1] + 2.0 * power[1:-1].sum()
            time_energy = np.sum(frame**2)
            assert abs(time_energy - full / frontend.N_FFT) / time_energy < 1e-6

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            frontend.log_mel_spectrogram(frontend.AudioClip(np.zeros(399, np.float32), 16000))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ConfigError, match="16000 Hz"):
            frontend.log_mel_spectrogram(frontend.AudioClip(np.zeros(8000, np.float32), 8000))

    def test_pipeline_deterministic(self):
        rng = np.random.default_rng(3)
        data = encode_wav(rng.uniform(-0.4, 0.4, 22050), 22050)

        def run(raw):
            clip = frontend.resample_to_16k(decode_wav(raw))
            return frontend.log_mel_spectrogram(clip).frames

        first, second = run(data), run(data)
        assert np.array_equal(first, second)


class TestExtractPatches:
    def _spec(self, num_frames: int) -> frontend.LogMelSpectrogram:
        frames = np.arange(num_frames, dtype=np.float64)[:, None] * np.ones((1, 64))
        return frontend.LogMelSpectrogram(frames=frames)

    def test_exact_fit(self):
        spec = self._spec(96)
        patches = frontend.extract_patches(spec, hop=48)
        assert patches.shape == (1, 96, 64)
        np.testing.assert_array_equal(patches[0], spec.frames)

    def test_remainder_dropped(self):
        assert frontend.extract_patches(self._spec(98)).shape == (1, 96, 64)

    def test_500_frames_five_patches(self):
        spec = self._spec(500)
        patches = frontend.extract_patches(spec)
        assert patches.shape == (5, 96, 64)
        np.testing.assert_array_equal(patches[1], spec.frames[96:192])  # 0.96 s in

    def test_window_count_formula(self):
        for total in (96, 100, 191, 192, 480):
            for hop in (24, 96):
                got = len(frontend.extract_patches(self._spec(total), hop))
                assert got == (total - 96) // hop + 1

    def test_short_input_edge_padded(self):
        spec = self._spec(50)
        patches = frontend.extract_patches(spec)
        assert patches.shape == (1, 96, 64)
        np.testing.assert_array_equal(patches[0, :50], spec.frames)
        np.testing.assert_array_equal(patches[0, 50:], np.tile(patches[0, 49], (46, 1)))

    def test_bad_hop(self):
        with pytest.raises(ConfigError):
            frontend.extract_patches(self._spec(96), hop=0)

    def test_patch_at_frame_tail_padding(self):
        # the second patch at hop 60 starts 0.6 s in and runs 26 frames past the end
        spec = self._spec(130)
        patch = frontend.extract_patches(spec, 60, 2)[1]
        assert patch.shape == (96, 64)
        np.testing.assert_array_equal(patch[:70], spec.frames[60:])
        np.testing.assert_array_equal(patch[70:], np.tile(patch[69], (26, 1)))

    def test_patches_must_start_within_the_frames(self):
        for hop, count in ((100, 0), (100, 3), (10, 14)):
            with pytest.raises(ConfigError):
                frontend.extract_patches(self._spec(130), hop, count)
        with pytest.raises(ConfigError):
            frontend.extract_patches(frontend.LogMelSpectrogram(frames=np.zeros((0, 64))))

    def test_view_of_the_frames_unless_padded(self):
        spec = self._spec(450)
        # clip rule (every patch that fits at hop 96) and detection rule (a
        # patch per second, for 4 seconds): no padding, so no copy
        for hop, count in ((96, None), (100, 4)):
            patches = frontend.extract_patches(spec, hop, count)
            assert np.shares_memory(patches, spec.frames)
            assert not patches.flags.writeable
        # a fifth second's patch runs past frame 450
        assert not np.shares_memory(frontend.extract_patches(spec, 100, 5), spec.frames)

    @given(total=st.integers(1, 3000), hop=st.sampled_from([1, 24, 96, 100, 160]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_one_window_per_patch(self, total, hop, data):
        spec = frontend.LogMelSpectrogram(
            frames=np.random.default_rng(total).normal(0, 1, (total, 64)))
        count = data.draw(st.none() | st.integers(1, (total - 1) // hop + 1))
        n = max(total - 96, 0) // hop + 1 if count is None else count
        patches = frontend.extract_patches(spec, hop, count)
        assert patches.shape == (n, 96, 64)
        for k in range(n):
            window = spec.frames[k * hop:k * hop + 96]
            tail = np.repeat(window[-1:], 96 - len(window), axis=0)
            assert np.array_equal(patches[k], np.concatenate([window, tail]))
        assert np.shares_memory(patches, spec.frames) == ((n - 1) * hop + 96 <= total)
