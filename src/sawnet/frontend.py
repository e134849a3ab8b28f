"""Log-mel spectrogram frontend.

The whole pipeline runs at one fixed convention so that features stay
interchangeable with the weight bundles trained against it:

  16 kHz mono -> 25 ms frames every 10 ms (400/160 samples), periodic Hann,
  512-point real FFT, magnitude squared, 64 triangular mel filters spanning
  125-7500 Hz (HTK mel scale, peak height 1.0), then ln(mel energy + 0.01).

Patches are 96 consecutive frames (0.96 s), the unit the networks consume.
The convention is summarized in PREPROC_TAG, which weight bundles carry so a
mismatched frontend is caught at load time instead of silently degrading
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass
class LogMelSpectrogram:
    """Natural-log mel energies, one row per frame, 64 columns.

    `num_samples` is the length of the 16 kHz clip the frames came from, or
    None when it is not known (spectrograms built or stored without it).
    """

    frames: np.ndarray
    frame_hop_s: float = FRAME_HOP / SAMPLE_RATE
    frame_len_s: float = FRAME_LEN / SAMPLE_RATE
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


@dataclass
class LogMelPatch:
    """A 96x64 slice of a spectrogram plus its start time in the clip."""

    values: np.ndarray
    origin_s: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (PATCH_FRAMES, NUM_MEL_BANDS):
            raise ConfigError(
                f"patch must be {PATCH_FRAMES}x{NUM_MEL_BANDS}, got {self.values.shape}"
            )


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


def _design_lowpass(cutoff_hz: float, sample_rate: float, taps: int = _LOWPASS_TAPS) -> np.ndarray:
    # Hann-windowed sinc, normalized to unit DC gain so constants pass through.
    n = np.arange(taps) - (taps - 1) / 2.0
    nu = cutoff_hz / sample_rate
    h = 2.0 * nu * np.sinc(2.0 * nu * n) * np.hanning(taps)
    return h / h.sum()


def resample_to_16k(clip: AudioClip) -> AudioClip:
    """Resample a clip to 16 kHz by linear interpolation.

    Downsampling is preceded by a windowed-sinc low-pass just under the new
    Nyquist band; a clip already at 16 kHz is returned unchanged.
    """
    if clip.sample_rate <= 0:
        raise ConfigError(f"sample rate must be positive, got {clip.sample_rate}")
    if clip.sample_rate == SAMPLE_RATE:
        return clip
    x = clip.samples.astype(np.float64)
    if clip.sample_rate > SAMPLE_RATE:
        h = _design_lowpass(_LOWPASS_CUTOFF_HZ, clip.sample_rate)
        half = (len(h) - 1) // 2
        x = np.convolve(np.pad(x, (half, half), mode="edge"), h, mode="valid")
    n_out = round(len(x) * SAMPLE_RATE / clip.sample_rate)
    positions = np.arange(n_out) * (clip.sample_rate / SAMPLE_RATE)
    out = np.interp(positions, np.arange(len(x)), x)
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
        raise ValueError(f"expected a {SAMPLE_RATE} Hz clip, got {clip.sample_rate} Hz")
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


def _window(spec: LogMelSpectrogram, start: int) -> LogMelPatch:
    """The 96 frames from `start`, the tail edge-padded past the last frame."""
    window = spec.frames[start : start + PATCH_FRAMES]
    if window.shape[0] < PATCH_FRAMES:
        window = np.pad(window, ((0, PATCH_FRAMES - window.shape[0]), (0, 0)), mode="edge")
    return LogMelPatch(values=window, origin_s=start * spec.frame_hop_s)


def extract_patches(
    spec: LogMelSpectrogram, hop_frames: int, pad: bool = False
) -> list[LogMelPatch]:
    """Slice consecutive 96-frame windows at the given hop.

    When `pad` is set and the spectrogram is shorter than one patch, the tail
    is edge-replicated up to 96 frames and a single patch is returned.
    """
    if hop_frames < 1:
        raise ConfigError(f"hop_frames must be >= 1, got {hop_frames}")
    total = spec.num_frames
    if total < PATCH_FRAMES and not pad:
        raise TooShort(f"{total} frames < {PATCH_FRAMES}; enable padding or use longer audio")
    return [_window(spec, s) for s in range(0, max(total - PATCH_FRAMES, 0) + 1, hop_frames)]


def patch_at_frame(spec: LogMelSpectrogram, start_frame: int) -> LogMelPatch:
    """One 96-frame patch starting at `start_frame`, edge-padded at the tail."""
    if start_frame < 0 or start_frame >= spec.num_frames:
        raise ConfigError(f"start_frame {start_frame} outside [0, {spec.num_frames})")
    return _window(spec, start_frame)
