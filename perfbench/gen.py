"""Seeded inputs: WAV files, weight bundles and an embedding cache.

The files are written by this module's own WAV and CSNW writers, so the
program only ever receives finished files. Weight bundles have random
He-scaled weights, random biases and batch-norm statistics far from
identity, so a forward that skipped or misapplied batch norm would show.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

import reference

def write_csnw(path: Path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """CSNW v1: magic, u32 version, u64 header length, JSON header, f32 payload."""
    manifest, blobs, offset = [], [], 0
    for name in sorted(tensors):
        blob = np.ascontiguousarray(tensors[name], dtype="<f4")
        manifest.append({"name": name, "shape": list(blob.shape), "dtype": "f32",
                         "offset": offset})
        blobs.append(blob.tobytes())
        offset += blob.nbytes
    encoded = json.dumps(dict(header, tensors=manifest, payload_bytes=offset)).encode()
    with open(path, "wb") as fh:
        fh.write(b"CSNW" + struct.pack("<IQ", 1, len(encoded)) + encoded)
        for blob in blobs:
            fh.write(blob)


def read_csnw(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[:4] != b"CSNW":
        raise ValueError(f"{path}: not a CSNW file")
    (length,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16:16 + length])
    base = 16 + length
    tensors = {
        t["name"]: np.frombuffer(data, "<f4", int(np.prod(t["shape"])),
                                 base + t["offset"]).reshape(t["shape"])
        for t in header["tensors"]
    }
    return header, tensors


def wav_bytes(frames: np.ndarray, sample_rate: int, fmt: str) -> bytes:
    """[n, channels] samples in [-1, 1] as PCM16 or float32 WAV bytes."""
    frames = np.asarray(frames, dtype=np.float64)
    channels = frames.shape[1]
    if fmt == "pcm16":
        payload = np.clip(np.round(frames * 32767.0), -32768, 32767).astype("<i2").tobytes()
        code, bits = 1, 16
    else:
        payload = frames.astype("<f4").tobytes()
        code, bits = 3, 32
    align = channels * bits // 8
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ",
                       16, code, channels, sample_rate, sample_rate * align, align, bits,
                       b"data", len(payload)) + payload


def wav_info(data: bytes) -> tuple[int, int, int]:
    """(channels, sample rate, sample frames) from a canonical 44-byte header."""
    channels, rate, _, align, _ = struct.unpack_from("<HIIHH", data, 22)
    (size,) = struct.unpack_from("<I", data, 40)
    return channels, rate, size // align


def samples_at_16k(data: bytes) -> int:
    """Length after resampling to 16 kHz, from the header alone."""
    _, rate, frames = wav_info(data)
    return frames if rate == 16000 else round(frames * 16000 / rate)


def pcm16_samples(data: bytes) -> np.ndarray:
    """Mono float64 samples of a canonical PCM16 WAV (channels averaged)."""
    channels, _, frames = wav_info(data)
    raw = np.frombuffer(data, "<i2", frames * channels, 44).astype(np.float64) / 32768.0
    return raw.reshape(frames, channels).mean(axis=1)


def bundle_layers(arch: str, folded: bool) -> list[tuple]:
    layers = reference.aug_layers(2) if arch == "aug_vggish" else reference.fcn_layers(2)
    return reference.fold_layers(layers) if folded else layers


def random_params(rng: np.random.Generator, arch: str, folded: bool,
                  epsilon: float = 1e-5) -> dict[str, np.ndarray]:
    """2-class random weights with non-trivial batch-norm statistics, optionally folded."""
    layers = bundle_layers(arch, folded=False)
    params: dict[str, np.ndarray] = {}
    for name, kind, cin, cout, _ in layers:
        if kind in ("conv", "dense"):
            k = 1 if name == "clf" else 3
            shape = (cout, cin, k, k) if kind == "conv" else (cout, cin)
            fan_in = int(np.prod(shape[1:]))
            w = rng.standard_normal(shape, dtype=np.float32) * np.float32(np.sqrt(2.0 / fan_in))
            params[f"{name}/{'kernels' if kind == 'conv' else 'weights'}"] = w
            params[f"{name}/bias"] = rng.normal(0.0, 0.05, cout).astype(np.float32)
        elif kind == "bn":
            params[f"{name}/gamma"] = rng.uniform(0.5, 1.5, cout).astype(np.float32)
            params[f"{name}/beta"] = rng.normal(0.0, 0.5, cout).astype(np.float32)
            params[f"{name}/mean"] = rng.normal(0.0, 0.5, cout).astype(np.float32)
            params[f"{name}/var"] = rng.uniform(0.2, 2.0, cout).astype(np.float32)
    if folded:
        conv = None
        for name, kind, *_ in layers:
            if kind == "conv":
                conv = name
            elif kind == "bn":
                scale = params.pop(f"{name}/gamma").astype(np.float64) / np.sqrt(
                    params.pop(f"{name}/var").astype(np.float64) + epsilon)
                k = params[f"{conv}/kernels"]
                params[f"{conv}/kernels"] = (k * scale[:, None, None, None]).astype(np.float32)
                params[f"{conv}/bias"] = ((params[f"{conv}/bias"] - params.pop(f"{name}/mean"))
                                          * scale + params.pop(f"{name}/beta")).astype(np.float32)
    return params


def calibrate_head(params: dict[str, np.ndarray], layers: list[tuple],
                   patches: list[np.ndarray]) -> None:
    """Rescale the last layer so the class-1 margin over `patches` has mean 0, spread 1.5.

    Random weights give logits in the tens, so every probability would read
    1.0 and the probability, event and AP checks would have nothing to see.
    """
    head = layers[-1][0] if layers[-1][1] != "gap" else layers[-2][0]
    before = layers[[n for n, *_ in layers].index(head) - 1][0]
    w_key = f"{head}/weights" if f"{head}/weights" in params else f"{head}/kernels"
    w = params[w_key].reshape(2, -1).astype(np.float64)
    b = params[f"{head}/bias"].astype(np.float64)
    margins = []
    for patch in patches:
        f = reference.forward(params, layers, patch, stop_after=before)
        f = f.reshape(f.shape[0], -1).mean(axis=1)  # the head sees the pooled map
        margins.append((w[1] - w[0]) @ f + b[1] - b[0])
    scale = 1.5 / max(float(np.std(margins)), 1e-3)
    b = b * scale
    b[1] -= scale * float(np.mean(margins))
    params[w_key] = (params[w_key] * np.float32(scale)).astype(np.float32)
    params[f"{head}/bias"] = b.astype(np.float32)


def approx_patch(frames: np.ndarray, sample_rate: int, start_s: float = 0.0) -> np.ndarray:
    """A 96-frame log-mel patch at `start_s`, resampled crudely; for calibration only."""
    mono = frames.mean(axis=1)
    n16 = int(len(mono) * 16000 / sample_rate)
    x = np.interp(np.arange(n16) * sample_rate / 16000, np.arange(len(mono)), mono)
    first = int(start_s * 16000)
    spec = reference.log_mel(x[first:first + 400 + 95 * 160])
    return np.concatenate([spec, np.repeat(spec[-1:], 96 - len(spec), axis=0)])


def write_bundle(path: Path, arch: str, params: dict[str, np.ndarray], folded: bool,
                 epsilon: float = 1e-5) -> None:
    from sawnet.frontend import PREPROC_TAG
    header = {"kind": "weights", "arch_id": arch, "num_classes": 2,
              "preproc_tag": PREPROC_TAG, "epsilon": epsilon, "folded": folded}
    write_csnw(path, header, params)


def chainsaw_clip(rng: np.random.Generator, seconds: int, sample_rate: int = 44100
                  ) -> tuple[np.ndarray, list[int]]:
    """Stereo sawtooth buzz gated on and off at whole seconds, over noise.

    Returns [n, 2] samples and the 0/1 label of every second.
    """
    labels = []
    state = int(rng.integers(0, 2))
    for _ in range(seconds):
        labels.append(state)
        if rng.random() < 0.3:
            state = 1 - state
    labels[int(rng.integers(0, seconds))] = 1 - labels[0]  # both classes present
    n = seconds * sample_rate
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(90.0, 140.0)
    phase = np.cumsum(f0 * (1.0 + 0.03 * np.sin(2 * np.pi * rng.uniform(2.0, 6.0) * t)))
    buzz = 2.0 * ((phase / sample_rate) % 1.0) - 1.0
    buzz *= 0.35 * (1.0 + 0.25 * np.sin(2 * np.pi * rng.uniform(8.0, 20.0) * t))
    buzz *= np.repeat(np.array(labels, dtype=np.float64), sample_rate)
    gains = rng.uniform(0.7, 1.0, 2)
    noise = rng.normal(0.0, rng.uniform(0.02, 0.06), (n, 2))
    return np.clip(buzz[:, None] * gains[None, :] + noise, -1.0, 1.0), labels


def tone_clip(rng: np.random.Generator, seconds: float, sample_rate: int, channels: int,
              centre_hz: float) -> np.ndarray:
    """A wavering tone with its octave plus noise, as [n, channels] samples."""
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
    f = centre_hz * (1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t))
    phase = 2 * np.pi * np.cumsum(f) / sample_rate
    mono = 0.3 * np.sin(phase) + 0.1 * np.sin(2 * phase + rng.uniform(0, 2 * np.pi))
    return np.clip(mono[:, None] + rng.normal(0.0, 0.03, (n, channels)), -1.0, 1.0)


def embedding_cache(path: Path, rng: np.random.Generator, clips: int, classes: int,
                    dim: int, folds: int) -> None:
    """Separable class clusters with ESC-50 style ids, equal clips per fold."""
    centres = rng.normal(0.0, 0.1, (classes, dim))
    per_fold_class = clips // (folds * classes)
    tensors, meta = {}, {}
    for fold in range(1, folds + 1):
        for label in range(classes):
            for take in range(per_fold_class):
                clip_id = f"{fold}-{int(rng.integers(100000, 999999))}-{'ABCDEFGH'[take]}-{label}"
                tensors[clip_id] = centres[label] + rng.normal(0.0, 0.03, dim)
                meta[clip_id] = {"fold": fold, "label": label}
    write_csnw(path, {"kind": "embeddings", "dim": dim, "num_classes": classes, "clips": meta},
               tensors)
