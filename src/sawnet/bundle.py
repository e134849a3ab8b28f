"""CSNW container: the portable on-disk format for weights and features.

Layout (all integers little-endian):

    bytes 0..3    magic "CSNW"
    bytes 4..7    u32 format version, currently 1
    bytes 8..15   u64 header length H
    bytes 16..    H bytes of UTF-8 JSON
    then          payload: raw little-endian float32, no alignment padding

The JSON header carries content-specific fields plus a tensor manifest
``tensors: [{name, shape, dtype: "f32", offset}]`` with offsets relative to
the payload start, and ``payload_bytes`` declaring the payload size. Readers
must ignore header fields they do not understand.

Weight bundles store arch_id, num_classes, preproc_tag, epsilon and a
``folded`` flag; the layer list is reconstructed from arch_id, so only the
canonical architectures (optionally batch-norm folded) are persistable.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .frontend import (
    FRAME_HOP,
    FRAME_LEN,
    NUM_MEL_BANDS,
    PREPROC_TAG,
    SAMPLE_RATE,
    LogMelSpectrogram,
    frame_count,
)
from .models import (
    DEFAULT_EPSILON,
    ModelSpec,
    WeightBundle,
    build_arch,
    fold_spec,
)

MAGIC = b"CSNW"
VERSION = 1
# the frame timing a spectrogram container records: this build's only convention
_FRAME_TIMING = {"frame_hop_s": FRAME_HOP / SAMPLE_RATE,
                 "frame_len_s": FRAME_LEN / SAMPLE_RATE}


def write_container(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a CSNW file; tensors are serialized as float32 in name order."""
    manifest = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype="<f4"))
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": "f32",
                         "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    full_header = dict(header)
    full_header["tensors"] = manifest
    full_header["payload_bytes"] = offset
    encoded = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        for blob in blobs:
            fh.write(blob)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a CSNW file back into (header, name -> float32 array).

    The whole manifest is checked before any tensor is read; manifests whose
    tensors overlap are rejected. Each tensor is then read straight into its
    own read-only array, so a caller can free each one on its own.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16:
            raise FormatError(f"file too short ({len(prefix)} bytes) for a CSNW header")
        if prefix[:4] != MAGIC:
            raise FormatError(f"bad magic {prefix[:4]!r}, expected {MAGIC!r}")
        (version,) = struct.unpack_from("<I", prefix, 4)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        (header_len,) = struct.unpack_from("<Q", prefix, 8)
        if 16 + header_len > size:
            raise FormatError("truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"header is not valid JSON: {e}") from e
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
            raise FormatError("header must be a JSON object with a 'tensors' manifest")
        payload_start = 16 + header_len
        entries = _check_manifest(header, size - payload_start)
        tensors: dict[str, np.ndarray] = {}
        for name, shape, offset, count in entries:
            arr = np.empty(count, dtype="<f4")
            fh.seek(payload_start + offset)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise FormatError(f"tensor {name!r} was cut short while reading")
            arr.setflags(write=False)
            tensors[name] = arr.reshape(shape)
    return header, tensors


def _check_manifest(header: dict, payload_len: int) -> list[tuple[str, list, int, int]]:
    """Validate the tensor manifest against a payload of `payload_len` bytes.

    Returns (name, shape, offset, count) per tensor, in manifest order.
    """
    declared = header.get("payload_bytes", payload_len)
    if not isinstance(declared, int) or declared < 0:
        raise FormatError("payload_bytes must be a non-negative integer")
    if payload_len < declared:
        raise FormatError(f"truncated payload: {payload_len} of {declared} declared bytes")
    names: set[str] = set()
    entries: list[tuple[str, list, int, int]] = []
    for entry in header["tensors"]:
        if not isinstance(entry, dict):
            raise FormatError("manifest entries must be JSON objects")
        name, shape, dtype, offset = (entry.get(k) for k in ("name", "shape", "dtype", "offset"))
        if not isinstance(name, str) or not isinstance(shape, list) or \
                not all(isinstance(d, int) and d >= 0 for d in shape):
            raise FormatError(f"malformed manifest entry {entry!r}")
        if dtype != "f32":
            raise FormatError(f"tensor {name!r} has unsupported dtype {dtype!r}")
        if not isinstance(offset, int) or offset < 0:
            raise FormatError(f"tensor {name!r} has invalid offset {offset!r}")
        if name in names:
            raise ValidationError(f"duplicate tensor name {name!r} in manifest")
        names.add(name)
        count = math.prod(shape)
        if offset + 4 * count > declared:
            raise ValidationError(
                f"tensor {name!r} declares shape {shape} but the payload holds "
                f"{max(0, (declared - offset)) // 4} values from its offset"
            )
        entries.append((name, shape, offset, count))
    spans = sorted((offset, offset + 4 * count, name)
                   for name, _, offset, count in entries if count)
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ValidationError(f"tensors {first!r} and {second!r} overlap in the payload")
    return entries


def _canonical_specs(arch_id: str, num_classes: int) -> tuple[ModelSpec, ModelSpec]:
    spec = build_arch(arch_id, num_classes)
    return spec, fold_spec(spec)


def save_bundle(bundle: WeightBundle, path) -> None:
    """Persist a weight bundle; load_bundle(save_bundle(b)) round-trips it."""
    unfolded, folded = _canonical_specs(bundle.spec.arch_id, bundle.spec.num_classes)
    if bundle.spec == unfolded:
        is_folded = False
    elif bundle.spec == folded:
        is_folded = True
    else:
        raise ValidationError(
            f"bundle layers deviate from the canonical {bundle.spec.arch_id} layout; "
            "only canonical (optionally folded) architectures are persistable"
        )
    header = {
        "kind": "weights",
        "arch_id": bundle.spec.arch_id,
        "num_classes": bundle.spec.num_classes,
        "preproc_tag": bundle.preproc_tag,
        "epsilon": bundle.epsilon,
        "folded": is_folded,
    }
    write_container(path, header, bundle.params)


def _positive_number(header: dict, key: str, default: float) -> float:
    """Header field `key` (`default` when absent), which must be a finite number > 0."""
    value = header.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ValidationError(f"invalid {key} {value!r}")
    return float(value)


def load_bundle(path) -> WeightBundle:
    """Load and validate a weight bundle from a CSNW file.

    A bundle whose preproc_tag does not match this build's frontend
    convention is rejected rather than silently producing mismatched features.
    """
    header, tensors = read_container(path)
    arch_id = header.get("arch_id")
    num_classes = header.get("num_classes")
    if not isinstance(arch_id, str) or not isinstance(num_classes, int):
        raise ValidationError("weight container must declare arch_id and num_classes")
    preproc_tag = header.get("preproc_tag", PREPROC_TAG)
    if preproc_tag != PREPROC_TAG:
        raise ValidationError(
            f"bundle expects frontend {preproc_tag!r}, this build provides {PREPROC_TAG!r}"
        )
    epsilon = _positive_number(header, "epsilon", DEFAULT_EPSILON)
    spec = build_arch(arch_id, num_classes)
    if header.get("folded", False):
        spec = fold_spec(spec)
    # the read-only float32 tensors become the weights as they are, uncopied
    return WeightBundle(spec=spec, params=tensors, preproc_tag=preproc_tag,
                        epsilon=epsilon)


def save_spectrogram(path, spec: LogMelSpectrogram) -> None:
    """Persist one log-mel spectrogram as a single-tensor container."""
    header = {
        "kind": "logmel",
        "preproc_tag": PREPROC_TAG,
        **_FRAME_TIMING,
        "source_id": spec.source_id,
    }
    if spec.num_samples is not None:
        header["num_samples"] = spec.num_samples
    write_container(path, header, {"logmel": spec.frames})


def load_spectrogram(path) -> LogMelSpectrogram:
    """Load a spectrogram container, checking its preproc_tag like `load_bundle`
    and any frame timing it records against the convention."""
    header, tensors = read_container(path)
    preproc_tag = header.get("preproc_tag", PREPROC_TAG)
    if preproc_tag != PREPROC_TAG:
        raise ValidationError(
            f"features were computed with frontend {preproc_tag!r}, "
            f"this build provides {PREPROC_TAG!r}"
        )
    for key, value in _FRAME_TIMING.items():
        if header.get(key, value) != value:
            raise ValidationError(f"invalid {key} {header[key]!r}, expected {value}")
    if "logmel" not in tensors:
        raise ValidationError("container has no 'logmel' tensor")
    frames = tensors["logmel"]
    if frames.ndim != 2 or frames.shape[1] != NUM_MEL_BANDS or not frames.shape[0]:
        raise ValidationError(f"logmel tensor must be [frames >= 1, {NUM_MEL_BANDS}], "
                              f"got {frames.shape}")
    num_samples = header.get("num_samples")
    if num_samples is not None and (
            not isinstance(num_samples, int) or num_samples < FRAME_LEN
            or frame_count(num_samples) != frames.shape[0]):
        raise ValidationError(
            f"num_samples {num_samples!r} does not match {frames.shape[0]} frames")
    return LogMelSpectrogram(
        frames=frames.astype(np.float64),
        source_id=str(header.get("source_id", "")),
        num_samples=num_samples,
    )
