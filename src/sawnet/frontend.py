"""Log-mel spectrogram frontend.

The whole pipeline runs at one fixed convention so that features stay
interchangeable with the weight bundles trained against it:

  16 kHz mono -> 25 ms frames every 10 ms (400/160 samples), periodic Hann,
  512-point real FFT, magnitude squared, 64 triangular mel filters spanning
  125-7500 Hz (HTK mel scale, peak height 1.0), then ln(mel energy + 0.01).

Patches are 96 consecutive frames (0.96 s), the unit the networks consume;
`extract_patches` cuts a spectrogram into one ``[N, 96, 64]`` array of them.
The convention is summarized in PREPROC_TAG, which weight bundles carry so a
mismatched frontend is caught at load time instead of silently degrading
accuracy.

Every step is local: a resampled output sample depends on the input samples
within the low-pass filter's 50-sample halo of its position, and a frame on
its 400 samples. So `resample_to_16k` also computes any output range of a clip
from only the input it needs, bit-identical to that slice of the whole-clip
output, and a clip can be an `AudioClip` in memory or a source read by range
(`AudioSource`, such as `wavio.WavReader`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

import numpy as np

from .errors import ConfigError, DomainError, TooShort

SAMPLE_RATE = 16000
FRAME_LEN = 400          # 25 ms at 16 kHz
FRAME_HOP = 160          # 10 ms
N_FFT = 512
NUM_FFT_BINS = N_FFT // 2 + 1
NUM_MEL_BANDS = 64
MEL_FMIN_HZ = 125.0
MEL_FMAX_HZ = 7500.0
LOG_OFFSET = 0.01
PATCH_FRAMES = 96        # 0.96 s of context per network input

PREPROC_TAG = "logmel/16k-hann400-hop160-fft512-mel64-125to7500-ln0.01"

# Windowed-sinc anti-alias filter used ahead of downsampling.
_LOWPASS_TAPS = 101
_LOWPASS_CUTOFF_HZ = 7600.0  # just under the 8 kHz band edge at 16 kHz


@dataclass
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1] and its sample rate."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        self.sample_rate = int(self.sample_rate)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``[lo, hi)``, as a view."""
        return self.samples[lo:hi]


class AudioSource(Protocol):
    """Mono audio read by sample range: an `AudioClip`, or a `wavio.WavReader` on a file.

    ``read(lo, hi)`` returns the float32 samples ``[lo, hi)`` of `num_samples`.
    """

    sample_rate: int
    source_id: str
    num_samples: int

    def read(self, lo: int, hi: int) -> np.ndarray: ...


@dataclass
class LogMelSpectrogram:
    """Natural-log mel energies, one row per frame, 64 columns.

    `frames` is float64 from `log_mel_spectrogram` and the container's
    read-only float32 from `bundle.load_spectrogram`; a float32 network rounds
    either to the same input. `num_samples` is the length of the 16 kHz clip
    the frames came from, or None when it is not known (spectrograms built or
    stored without it).
    """

    frames: np.ndarray
    source_id: str = ""
    num_samples: int | None = None

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def whole_seconds(self) -> int:
        """Whole seconds of audio the spectrogram covers: ``num_samples // 16000``.

        Without `num_samples` it falls back to ``(frames + 2) // 100`` (a full
        second yields 98 frames), which counts one second more than the clip
        had for lengths just short of a whole second.
        """
        if self.num_samples is None:
            return (self.num_frames + 2) // (SAMPLE_RATE // FRAME_HOP)
        return self.num_samples // SAMPLE_RATE


def hz_to_mel(f):
    """HTK mel scale: ``mel = 1127 * ln(1 + f / 700)``. Accepts scalars or arrays."""
    arr = np.asarray(f, dtype=np.float64)
    if np.any(arr < 0):
        raise DomainError("frequency must be >= 0")
    out = 1127.0 * np.log1p(arr / 700.0)
    return float(out) if np.isscalar(f) or arr.ndim == 0 else out


def mel_to_hz(m):
    """Inverse of `hz_to_mel`."""
    arr = np.asarray(m, dtype=np.float64)
    out = 700.0 * np.expm1(arr / 1127.0)
    return float(out) if np.isscalar(m) or arr.ndim == 0 else out


def build_mel_filterbank(
    num_fft_bins: int = NUM_FFT_BINS,
    num_bands: int = NUM_MEL_BANDS,
    fmin: float = MEL_FMIN_HZ,
    fmax: float = MEL_FMAX_HZ,
    sample_rate: int = SAMPLE_RATE,
) -> np.ndarray:
    """Triangular mel filterbank as a ``[num_bands, num_fft_bins]`` matrix.

    Corner frequencies are num_bands + 2 points equally spaced on the mel
    axis between mel(fmin) and mel(fmax). Each filter rises linearly (in mel)
    from its lower corner to peak height 1.0 at its center and falls back to
    zero at its upper corner.
    """
    if num_bands < 1:
        raise ConfigError("num_bands must be >= 1")
    if not (0 <= fmin < fmax <= sample_rate / 2):
        raise ConfigError(f"need 0 <= fmin < fmax <= sample_rate/2, got [{fmin}, {fmax}]")
    bin_freqs = np.linspace(0.0, sample_rate / 2.0, num_fft_bins)
    bin_mels = hz_to_mel(bin_freqs)
    corners = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), num_bands + 2)
    lower, center, upper = corners[:-2], corners[1:-1], corners[2:]
    up = (bin_mels[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_mels[None, :]) / (upper - center)[:, None]
    fb = np.clip(np.minimum(up, down), 0.0, None)
    if np.any(fb.max(axis=1) == 0.0):
        raise ConfigError(
            f"{num_fft_bins} FFT bins cannot separate {num_bands} bands in [{fmin}, {fmax}] Hz"
        )
    return fb


@lru_cache(maxsize=4)
def _cached_filterbank(num_fft_bins: int, num_bands: int, fmin: float, fmax: float,
                       sample_rate: int) -> np.ndarray:
    fb = build_mel_filterbank(num_fft_bins, num_bands, fmin, fmax, sample_rate)
    fb.setflags(write=False)
    return fb


@lru_cache(maxsize=8)
def _design_lowpass(sample_rate: int, cutoff_hz: float = _LOWPASS_CUTOFF_HZ,
                    taps: int = _LOWPASS_TAPS) -> np.ndarray:
    # Hann-windowed sinc, normalized to unit DC gain so constants pass through.
    n = np.arange(taps) - (taps - 1) / 2.0
    nu = cutoff_hz / sample_rate
    h = 2.0 * nu * np.sinc(2.0 * nu * n) * np.hanning(taps)
    h /= h.sum()
    h.setflags(write=False)
    return h


def resampled_length(num_samples: int, sample_rate: int) -> int:
    """Samples `resample_to_16k` yields for a whole clip of `num_samples` at `sample_rate`."""
    if sample_rate == SAMPLE_RATE:
        return num_samples
    return round(num_samples * SAMPLE_RATE / sample_rate)


def resample_to_16k(clip: AudioSource, start: int = 0, stop: int | None = None) -> AudioClip:
    """Resample a clip, or the output samples ``[start, stop)`` of it, to 16 kHz.

    Output sample i is the linear interpolation of the input at position
    ``i * sample_rate / 16000``. Downsampling is preceded by a windowed-sinc
    low-pass just under the new Nyquist band. Past the clip's ends, the filter
    and the interpolation see its first or last sample repeated. A range reads
    only the input it needs (the filter's 50-sample halo around the positions,
    and one sample past the last one), so it is bit-identical to the same slice
    of the whole-clip output. A whole AudioClip already at 16 kHz is returned
    unchanged.
    """
    rate = clip.sample_rate
    if rate <= 0:
        raise ConfigError(f"sample rate must be positive, got {rate}")
    n = clip.num_samples
    n_out = resampled_length(n, rate)
    if stop is None:
        if rate == SAMPLE_RATE and start == 0 and isinstance(clip, AudioClip):
            return clip
        stop = n_out
    if not 0 <= start <= stop <= n_out:
        raise ConfigError(f"output range [{start}, {stop}) outside [0, {n_out})")
    if rate == SAMPLE_RATE:
        return AudioClip(clip.read(start, stop), SAMPLE_RATE, clip.source_id)
    if start == stop:
        return AudioClip(np.zeros(0, np.float32), SAMPLE_RATE, clip.source_id)
    positions = np.arange(start, stop) * (rate / SAMPLE_RATE)
    lo, hi = int(positions[0]), min(int(positions[-1]) + 2, n)
    if rate > SAMPLE_RATE:
        h = _design_lowpass(rate)
        half = (len(h) - 1) // 2
        a, b = max(lo - half, 0), min(hi + half, n)
        x = np.pad(clip.read(a, b).astype(np.float64), (a - (lo - half), hi + half - b),
                   mode="edge")
        x = np.convolve(x, h, mode="valid")
    else:
        x = clip.read(lo, hi).astype(np.float64)
    out = np.interp(positions, np.arange(lo, hi), x)
    return AudioClip(out.astype(np.float32), SAMPLE_RATE, clip.source_id)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(num_samples: int) -> int:
    """Frames `log_mel_spectrogram` yields for a 16 kHz clip of `num_samples`."""
    return 1 + (num_samples - FRAME_LEN) // FRAME_HOP


def log_mel_spectrogram(clip: AudioClip) -> LogMelSpectrogram:
    """Compute the log-mel spectrogram of a 16 kHz mono clip.

    Frames of 400 samples at hop 160, periodic Hann window, 512-point real
    FFT magnitude squared, mel filterbank, then ``ln(energy + 0.01)``.
    """
    if clip.sample_rate != SAMPLE_RATE:
        raise ConfigError(f"expected a {SAMPLE_RATE} Hz clip, got {clip.sample_rate} Hz")
    x = clip.samples.astype(np.float64)
    if len(x) < FRAME_LEN:
        raise TooShort(f"need at least {FRAME_LEN} samples, got {len(x)}")
    num_frames = frame_count(len(x))
    idx = np.arange(FRAME_LEN)[None, :] + FRAME_HOP * np.arange(num_frames)[:, None]
    frames = x[idx] * _hann_periodic(FRAME_LEN)
    spectrum = np.fft.rfft(frames, n=N_FFT)
    power = spectrum.real**2 + spectrum.imag**2
    fb = _cached_filterbank(NUM_FFT_BINS, NUM_MEL_BANDS, MEL_FMIN_HZ, MEL_FMAX_HZ, SAMPLE_RATE)
    mel = power @ fb.T
    return LogMelSpectrogram(frames=np.log(mel + LOG_OFFSET), source_id=clip.source_id,
                             num_samples=len(x))


def extract_patches(spec: LogMelSpectrogram, hop: int = PATCH_FRAMES,
                    count: int | None = None) -> np.ndarray:
    """The ``[count, 96, 64]`` patches of a spectrogram: patch k is frames
    ``[k * hop, k * hop + 96)``, the last frame repeated past the end.

    By default `count` is every patch that fits, and at least one. The result
    is a read-only strided view of `spec.frames`; it is a copy only when the
    last patch runs past the last frame. Clips are cut at the default hop of
    one patch, detection at one patch per second (hop 100).
    """
    if hop < 1:
        raise ConfigError(f"hop must be >= 1, got {hop}")
    total = spec.num_frames
    if count is None:
        count = max(total - PATCH_FRAMES, 0) // hop + 1
    if count < 1 or (count - 1) * hop >= total:
        raise ConfigError(f"{count} patches at hop {hop} do not start within {total} frames")
    need = (count - 1) * hop + PATCH_FRAMES
    frames = spec.frames[:need]
    if need > total:
        frames = np.pad(frames, ((0, need - total), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(frames, PATCH_FRAMES, axis=0)
    return windows[::hop].transpose(0, 2, 1)
