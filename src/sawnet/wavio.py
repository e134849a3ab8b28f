"""RIFF/WAVE decoding: PCM16 and IEEE float32, mono or stereo.

The parser walks the chunk list explicitly so that a malformed container
(DecodeError) is distinguishable from a well-formed file in an encoding we
do not handle (UnsupportedFormat). One header parse and one decode rule serve
both `decode_wav`, on bytes in memory, and `WavReader`, which decodes any range
of a file's frames by seek and read, so memory holds one range at a time. A
small PCM16/float32 writer is included for fixture generation and round-trip
tests.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DecodeError, UnsupportedFormat
from .frontend import AudioClip

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3
_RUN_FRAMES = 16384  # stereo frames decoded per step: 128 KiB of float32


class _Layout(NamedTuple):
    """What the header says about the data chunk."""

    sample_rate: int
    channels: int
    dtype: np.dtype
    scale: float
    frame_size: int
    data_offset: int
    num_frames: int


def _parse_header(read: Callable[[int, int], bytes], size: int) -> _Layout:
    """Parse a `size`-byte WAV file through ``read(offset, count)``.

    Every chunk header is checked up to the end of the file; the first fmt
    and data chunks count and repeats are skipped.
    """
    head = bytes(read(0, 12)) if size >= 12 else b""
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise DecodeError("not a RIFF/WAVE container")
    chunks: dict[bytes, tuple[int, int]] = {}
    offset = 12
    while offset < size:
        if offset + 8 > size:
            raise DecodeError("truncated chunk header")
        header = bytes(read(offset, 8))
        cid = header[:4]
        (length,) = struct.unpack_from("<I", header, 4)
        body_end = offset + 8 + length
        if body_end > size:
            raise DecodeError(f"chunk {cid!r} declares {length} bytes past end of file")
        chunks.setdefault(cid, (offset + 8, length))
        offset = body_end + (length & 1)  # chunks are word-aligned
    if b"fmt " not in chunks:
        raise DecodeError("missing fmt chunk")
    if b"data" not in chunks:
        raise DecodeError("missing data chunk")
    fmt_offset, fmt_length = chunks[b"fmt "]
    if fmt_length < 16:
        raise DecodeError(f"fmt chunk too short ({fmt_length} bytes)")
    audio_format, channels, sample_rate, _, block_align, bits = struct.unpack(
        "<HHIIHH", read(fmt_offset, 16)
    )
    if sample_rate <= 0:
        raise DecodeError("sample rate must be positive")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels not supported (mono/stereo only)")
    if audio_format == _FORMAT_PCM and bits == 16:
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif audio_format == _FORMAT_IEEE_FLOAT and bits == 32:
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise UnsupportedFormat(f"audio format {audio_format} at {bits} bits not supported")
    frame_size = channels * dtype.itemsize
    if block_align not in (0, frame_size):
        raise DecodeError(f"block align {block_align} inconsistent with {frame_size}-byte frames")
    data_offset, data_length = chunks[b"data"]
    if data_length % frame_size != 0:
        raise DecodeError(f"data chunk length {data_length} is not a whole number of frames")
    if data_length == 0:
        raise DecodeError("data chunk is empty")
    return _Layout(sample_rate, channels, dtype, scale, frame_size, data_offset,
                   data_length // frame_size)


def _decode(payload, layout: _Layout) -> np.ndarray:
    """Mono float32 samples of whole frames: scaled, then the channels averaged.

    Mono data is scaled straight into the output. Stereo goes `_RUN_FRAMES`
    frames at a time into the preallocated mono output, so besides it only
    one run's interleaved float32 frames are held.
    """
    frames = np.frombuffer(payload, dtype=layout.dtype).reshape(-1, layout.channels)
    scale = np.float32(layout.scale)  # x * 1.0 is exact: float32 data keeps its bits
    samples = np.empty(len(frames), np.float32)
    step = _RUN_FRAMES if layout.channels == 2 else max(1, len(frames))
    for lo in range(0, len(frames), step):
        mono = samples[lo:lo + step]
        run = frames[lo:lo + len(mono)]
        if layout.channels == 2:  # the float32 mean of the scaled pair, written out
            run = run * scale
            np.add(run[:, 0], run[:, 1], out=mono)
            mono /= 2
        else:
            np.multiply(run[:, 0], scale, out=mono)
        if not np.all(np.isfinite(mono)):
            raise DecodeError("payload contains non-finite samples")
    return samples


def decode_wav(data: bytes, source_id: str = "") -> AudioClip:
    """Decode WAV bytes to a mono AudioClip.

    Stereo is mixed down by averaging the two channels per frame; PCM16 is
    scaled by 1/32768. The sample rate is preserved from the header. The data
    chunk is decoded straight from `data`, without copying it first.
    """
    view = memoryview(data)
    layout = _parse_header(lambda offset, count: view[offset:offset + count], len(view))
    payload = view[layout.data_offset:layout.data_offset + layout.num_frames * layout.frame_size]
    return AudioClip(samples=_decode(payload, layout), sample_rate=layout.sample_rate,
                     source_id=source_id)


class WavReader:
    """A WAV file decoded on demand, one range of frames at a time.

    `read(lo, hi)` returns exactly ``decode_wav(file bytes).samples[lo:hi]``: the
    header is parsed once when the file is opened and each read decodes only
    its frames, by the same rules. The file is read with seek and read, not
    mapped, so memory holds only the range asked for. Use it in a ``with``
    block, or call `close`.
    """

    def __init__(self, path, source_id: str = ""):
        self._fh = open(path, "rb")
        try:
            self._layout = _parse_header(self._read_at, os.fstat(self._fh.fileno()).st_size)
        except BaseException:
            self._fh.close()
            raise
        self.sample_rate = self._layout.sample_rate
        self.num_samples = self._layout.num_frames
        self.source_id = source_id

    def _read_at(self, offset: int, count: int) -> bytes:
        self._fh.seek(offset)
        data = self._fh.read(count)
        if len(data) != count:
            raise DecodeError(f"file ended {count - len(data)} bytes early")
        return data

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Decoded mono float32 samples of frames ``[lo, hi)``."""
        if not 0 <= lo <= hi <= self.num_samples:
            raise ConfigError(f"frame range [{lo}, {hi}) outside [0, {self.num_samples})")
        layout = self._layout
        payload = self._read_at(layout.data_offset + lo * layout.frame_size,
                                (hi - lo) * layout.frame_size)
        return _decode(payload, layout)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> WavReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wav_header(num_frames: int, sample_rate: int, fmt: str = "pcm16", channels: int = 1) -> bytes:
    """The 44-byte header `encode_wav` writes ahead of `num_frames` frames."""
    if fmt == "pcm16":
        audio_format, bits = _FORMAT_PCM, 16
    elif fmt == "float32":
        audio_format, bits = _FORMAT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown wav format {fmt!r}")
    block_align = channels * bits // 8
    size = num_frames * block_align
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + size, b"WAVE",
        b"fmt ", 16, audio_format, channels, sample_rate,
        sample_rate * block_align, block_align, bits,
        b"data", size,
    )


def encode_wav(samples: np.ndarray, sample_rate: int, fmt: str = "pcm16",
               channels: int = 1) -> bytes:
    """Encode samples as WAV bytes (fmt "pcm16" or "float32").

    Multichannel input is interleaved from a [frames, channels] array.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if channels == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2 or arr.shape[1] != channels:
        raise ValueError(f"expected [frames, {channels}] samples, got shape {arr.shape}")
    header = wav_header(arr.shape[0], sample_rate, fmt, channels)
    if fmt == "pcm16":
        payload = np.clip(np.round(arr * 32768.0), -32768, 32767).astype("<i2").tobytes()
    else:
        payload = arr.astype("<f4").tobytes()
    return header + payload
