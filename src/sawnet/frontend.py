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
output. `log_mel_blocks` and `patch_blocks` read a clip one block at a time,
whether it is audio (`AudioSource`: an `AudioClip`, or a `wavio.WavReader`
read by range) or a loaded `LogMelSpectrogram`, whose rows they slice by the
same rule (`blocks`). `block_window` cuts out the input a run
of blocks reads, so another process can compute them bit for bit from only
that; only these functions, `num_frames` and `whole_seconds` tell the two
kinds of clip apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Protocol

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
FRAMES_PER_SECOND = SAMPLE_RATE // FRAME_HOP  # 100

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
            return (self.num_frames + 2) // FRAMES_PER_SECOND
        return self.num_samples // SAMPLE_RATE


Source = AudioSource | LogMelSpectrogram  # a clip: audio read by range, or its log-mel rows


def num_frames(clip: Source) -> int:
    """Log-mel frames of a clip: a spectrogram's rows, or those of its audio at 16 kHz."""
    if isinstance(clip, LogMelSpectrogram):
        return clip.num_frames
    return frame_count(resampled_length(clip.num_samples, clip.sample_rate))


def whole_seconds(clip: Source) -> int:
    """Whole seconds of a clip's 16 kHz audio (`LogMelSpectrogram.whole_seconds`)."""
    if isinstance(clip, LogMelSpectrogram):
        return clip.whole_seconds
    return resampled_length(clip.num_samples, clip.sample_rate) // SAMPLE_RATE


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


@lru_cache(maxsize=1)
def _cached_filterbank() -> np.ndarray:
    fb = build_mel_filterbank()
    fb.setflags(write=False)
    return fb


@lru_cache(maxsize=8)
def _design_lowpass(sample_rate: int) -> np.ndarray:
    # Hann-windowed sinc, normalized to unit DC gain so constants pass through.
    n = np.arange(_LOWPASS_TAPS) - (_LOWPASS_TAPS - 1) / 2.0
    nu = _LOWPASS_CUTOFF_HZ / sample_rate
    h = 2.0 * nu * np.sinc(2.0 * nu * n) * np.hanning(_LOWPASS_TAPS)
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
    lo, hi, a, b = _reads(n, rate, start, stop)
    x = clip.read(a, b).astype(np.float64)
    if rate > SAMPLE_RATE:
        half = _LOWPASS_TAPS // 2
        x = np.convolve(np.pad(x, (a - (lo - half), hi + half - b), mode="edge"),
                        _design_lowpass(rate), mode="valid")
    out = np.interp(positions, np.arange(lo, hi), x)
    return AudioClip(out.astype(np.float32), SAMPLE_RATE, clip.source_id)


def _reads(n: int, rate: int, start: int, stop: int) -> tuple[int, int, int, int]:
    """For the output samples ``[start, stop)`` (not empty) of `resample_to_16k`
    on `n` samples at `rate`: the input positions ``[lo, hi)`` they are
    interpolated between, and the samples ``[a, b)`` read for them, which add
    the low-pass filter's halo when downsampling."""
    if rate == SAMPLE_RATE:
        return start, stop, start, stop
    step = rate / SAMPLE_RATE  # output sample i sits at input position i * step
    lo, hi = int(start * step), min(int((stop - 1) * step) + 2, n)
    half = _LOWPASS_TAPS // 2 if rate > SAMPLE_RATE else 0
    return lo, hi, max(lo - half, 0), min(hi + half, n)


@lru_cache(maxsize=2)
def _hann_periodic(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.setflags(write=False)
    return window


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
    x = clip.samples
    if len(x) < FRAME_LEN:
        raise TooShort(f"need at least {FRAME_LEN} samples, got {len(x)}")
    # strided float32 views of the samples, widened exactly by the float64 window
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::FRAME_HOP]
    frames = frames * _hann_periodic(FRAME_LEN)
    spectrum = np.fft.rfft(frames, n=N_FFT)
    power = spectrum.real**2 + spectrum.imag**2
    mel = power @ _cached_filterbank().T
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


class Block(NamedTuple):
    """One block of a clip as `patch_blocks` reads it: its log-mel rows
    ``[first, stop)``, and the `patches` patches that start in them."""

    first: int
    stop: int
    patches: int


def _block_rows(clip: Source, frames: int) -> list[tuple[int, int]]:
    """Consecutive blocks of `frames` (>= 96) log-mel rows ``[first, stop)``:
    a remainder under 96 rows joins the last block, which ends at the clip's
    last row."""
    if frames < PATCH_FRAMES:
        raise ConfigError(f"a block needs at least {PATCH_FRAMES} frames, got {frames}")
    total = num_frames(clip)
    firsts = range(0, max(total - PATCH_FRAMES, 0) + 1, frames)
    return [(first, first + frames) for first in firsts[:-1]] + [(firsts[-1], total)]


def _samples(clip: AudioSource, first: int, stop: int) -> tuple[int, int]:
    """The 16 kHz samples ``[start, end)`` whose log-mel is rows ``[first, stop)``;
    rows that end at the clip's last one read to its last sample."""
    if stop == num_frames(clip):
        return first * FRAME_HOP, resampled_length(clip.num_samples, clip.sample_rate)
    return first * FRAME_HOP, (stop - 1) * FRAME_HOP + FRAME_LEN


def _block_frames(clip: Source, first: int, stop: int) -> np.ndarray:
    """Rows ``[first, stop)`` of a clip's log-mel, bit for bit: a slice of a
    spectrogram's rows, or ``log_mel_spectrogram(resample_to_16k(clip, start,
    end)).frames`` of the 16 kHz samples they cover, the last rows with the
    samples after them."""
    if isinstance(clip, LogMelSpectrogram):
        return clip.frames[first:stop]
    return log_mel_spectrogram(resample_to_16k(clip, *_samples(clip, first, stop))).frames


def log_mel_blocks(clip: Source, frames: int) -> Iterator[np.ndarray]:
    """The rows of a clip's log-mel, bit for bit, in consecutive blocks of
    `frames` (>= 96) rows (`_block_frames`), each from only its own 16 kHz
    range. A remainder under 96 rows joins the last block, as a BLAS may round
    a product of a few rows differently. The last block reads to the clip's
    end: drained, the generator reads every input sample.
    """
    for first, stop in _block_rows(clip, frames):
        yield _block_frames(clip, first, stop)


def blocks(clip: Source, block: int, hop: int = PATCH_FRAMES,
           count: int | None = None) -> list[Block]:
    """The blocks `patch_blocks` reads: those of ``log_mel_blocks(clip, block * hop)``,
    each with the patches of ``extract_patches(the clip's log-mel, hop, count)``
    that start in it. Patches must not overlap (``hop >= 96``)."""
    if block < 1 or hop < PATCH_FRAMES:
        raise ConfigError(f"need block >= 1 and hop >= {PATCH_FRAMES}, got {block} and {hop}")
    total = num_frames(clip)
    if count is None:
        count = max(total - PATCH_FRAMES, 0) // hop + 1
    if total > 0 and (count < 1 or (count - 1) * hop >= total):
        raise ConfigError(f"{count} patches at hop {hop} do not start within {total} frames")
    return [Block(first, stop, min(count - k * block, -(-(stop - first) // hop)))
            for k, (first, stop) in enumerate(_block_rows(clip, block * hop))]


def block_patches(clip: Source, b: Block, block: int, hop: int) -> Iterator[np.ndarray]:
    """Block `b`'s patches (`blocks`), in arrays of `block` (the last may be shorter)."""
    frames = _block_frames(clip, b.first, b.stop)
    for i in range(0, b.patches, block):
        yield extract_patches(LogMelSpectrogram(frames[i * hop:]), hop, min(block, b.patches - i))


def patch_blocks(clip: Source, block: int, hop: int = PATCH_FRAMES,
                 count: int | None = None) -> Iterator[np.ndarray]:
    """``extract_patches(the clip's whole log-mel, hop, count)``, bit for bit,
    in arrays of `block` patches (the last may be shorter). Patches must not
    overlap (``hop >= 96``): each then lies in one block of
    ``log_mel_blocks(clip, block * hop)``, and every block is read.
    """
    for b in blocks(clip, block, hop, count):
        yield from block_patches(clip, b, block, hop)


@dataclass
class AudioWindow:
    """Samples ``[offset, offset + len(samples))`` of a clip of `num_samples`
    at `sample_rate`: an `AudioSource` that stands for the whole clip but
    holds, and reads, only those."""

    samples: np.ndarray
    offset: int
    num_samples: int
    sample_rate: int
    source_id: str = ""

    def read(self, lo: int, hi: int) -> np.ndarray:
        if not self.offset <= lo <= hi <= self.offset + len(self.samples):
            raise ValueError(f"samples [{lo}, {hi}) are outside this window")
        return self.samples[lo - self.offset:hi - self.offset]


def block_window(clip: Source, run: list[Block]) -> tuple[Source, list[Block]]:
    """A clip standing for `clip` with only the input that `block_patches`
    reads for `run`, consecutive blocks of it, and those blocks in it: a
    spectrogram of the run's rows, or an `AudioWindow` of the samples
    `resample_to_16k` reads for them (`_reads`)."""
    first, stop = run[0].first, run[-1].stop
    if isinstance(clip, LogMelSpectrogram):
        return (LogMelSpectrogram(clip.frames[first:stop]),
                [b._replace(first=b.first - first, stop=b.stop - first) for b in run])
    *_, a, b = _reads(clip.num_samples, clip.sample_rate, *_samples(clip, first, stop))
    return AudioWindow(clip.read(a, b), a, clip.num_samples, clip.sample_rate, clip.source_id), run
