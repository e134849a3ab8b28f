"""Neural operators for forward inference and for the dense head's loss.

Tensors are plain numpy arrays. The network operators take only batches,
channels-first ``[B, C, H, W]`` maps and ``[B, K]`` vectors (one item is
``x[None]``), and treat their items independently, up to the last-bit
rounding of a differently blocked matrix product. A conv's output is stored
channel-major, ``[C, B, H, W]`` memory seen as a ``[B, C, H, W]`` view (a
plain C-contiguous map for one item), the row order of its matrix product;
ReLU and pooling keep that order, so the next conv gathers from it by a
straight copy. ReLU writes into its input and returns it. Every operator
computes in the promoted dtype of its input and parameters: float32 maps
with float32 parameters run float32 matrix products and multiplies, and
anything with a float64 operand runs in float64. The one exception is the
dense head's loss path: `softmax` and `log_softmax` take ``[K]`` or
``[B, K]`` logits and always work in float64.

Parameter objects hold read-only views of the arrays they are given, never
copies, reject non-finite values, and prepare what every call needs once at
construction: a conv keeps its kernels as an ``[out, in*k*k]`` matrix.
`models.WeightBundle` builds them on its read-only arrays in the bundle's own
dtype, so each tensor is scanned once and a network forward casts no weight.

Nothing here has a backward path: `transfer.train_head` forms the dense
head's gradient itself (softmax minus one-hot, times the inputs), and
convolution is inference-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


def _readonly(a, name: str) -> np.ndarray:
    """A read-only view of `a`, which must be finite (integer input becomes float32)."""
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite values")
    arr = arr.view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConvParams:
    """Kernels ``[out_ch, in_ch, k, k]`` (k odd) and bias ``[out_ch]``.

    `kmat` is the same kernels viewed as the ``[out_ch, in_ch*k*k]`` matrix
    that `conv2d_same` multiplies by.
    """

    kernels: np.ndarray
    bias: np.ndarray
    kmat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kernels", _readonly(self.kernels, "kernels"))
        object.__setattr__(self, "bias", _readonly(self.bias, "bias"))
        if self.kernels.ndim != 4:
            raise ShapeError(f"kernels must be 4-D, got shape {self.kernels.shape}")
        out_ch, _, kh, kw = self.kernels.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernel window must be square and odd, got {kh}x{kw}")
        if self.bias.shape != (out_ch,):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match {out_ch} output channels"
            )
        object.__setattr__(self, "kmat", self.kernels.reshape(out_ch, -1))

    @property
    def out_channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[1]


@dataclass(frozen=True)
class DenseParams:
    """Weights ``[out_units, in_units]`` and bias ``[out_units]``."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights, "weights"))
        object.__setattr__(self, "bias", _readonly(self.bias, "bias"))
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weights {self.weights.shape}"
            )

    @property
    def out_units(self) -> int:
        return self.weights.shape[0]

    @property
    def in_units(self) -> int:
        return self.weights.shape[1]


def _check_maps(x: np.ndarray, op: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{op} expects a [B, C, H, W] batch of maps, got shape {x.shape}")
    return x


def conv2d_same(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Stride-1 'same' 2-D convolution: ``[B, C_in, H, W] -> [B, C_out, H, W]``.

    Zero padding keeps the spatial size; out-of-range taps contribute 0.
    Implemented as im2col + matmul in the promoted dtype of `x` and the
    kernels. The im2col matrix is gathered in source order,
    ``[C_in*k*k, items*H*W]``, each tap's H*W values of an item copied as one
    run, and ``kmat @ cols`` writes the output channel-major. Items of a batch
    share one product only while the kernel matrix outweighs twice their
    im2col block, so a batch never holds more im2col than the larger of half
    the kernels and one item's block. This split works with the stages of
    `bundle.plan`, which pick how many patches reach this operator together.
    """
    x = _check_maps(x, "conv2d_same")
    dtype = np.result_type(x, p.kernels)
    b, c, h, w = x.shape
    if c != p.in_channels:
        raise ShapeError(f"input has {c} channels, kernels expect {p.in_channels}")
    k = p.kernels.shape[2]
    pad = k // 2
    hp = h + 2 * pad
    step = max(1, p.kmat.nbytes // (2 * c * k * k * h * w * dtype.itemsize))
    out = np.empty((p.out_channels, b * h * w), dtype)
    for i in range(0, b, step):
        m = min(step, b - i)
        # per channel, the m items' rows zero-bordered above and below, as one
        # run with `pad` zeros at each end: each tap (dy, dx) then reads H*W
        # consecutive values, and those it reads across a row end are zeroed
        flat = np.zeros((c, m * hp * w + 2 * pad), dtype)
        flat[:, pad:pad + m * hp * w].reshape(c, m, hp, w)[:, :, pad:pad + h] = (
            x[i:i + m].transpose(1, 0, 2, 3))
        s0, s1 = flat.strides
        # [C, k, k, m, H, W]; rebinding `taps` to the view first frees the
        # previous chunk's copy before this one is made
        taps = np.lib.stride_tricks.as_strided(flat, (c, k, k, m, h, w), (
            s0, w * s1, s1, hp * w * s1, w * s1, s1), writeable=False)
        taps = taps.copy()
        for dx in range(k):
            taps[:, :, dx, :, :, :max(0, pad - dx)] = 0
            taps[:, :, dx, :, :, max(0, w + pad - dx):] = 0
        np.matmul(p.kmat, taps.reshape(c * k * k, -1), out=out[:, i * h * w:(i + m) * h * w])
    out += p.bias[:, None]
    return out.reshape(p.out_channels, b, h, w).transpose(1, 0, 2, 3)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0)``, written into the array `x`, which is returned."""
    return np.maximum(x, 0, out=x)


def maxpool_2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; a trailing odd row/column is dropped."""
    x = _check_maps(x, "maxpool_2x2")
    h, w = x.shape[-2:]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool_2x2 needs H, W >= 2, got {h}x{w}")
    # h // 2 rows each: even rows 0, 2, ... < h - 1 and odd rows 1, 3, ... < h
    r0, r1, c0, c1 = slice(0, h - 1, 2), slice(1, h, 2), slice(0, w - 1, 2), slice(1, w, 2)
    out = np.maximum(x[..., r0, c0], x[..., r0, c1])
    np.maximum(out, x[..., r1, c0], out=out)
    return np.maximum(out, x[..., r1, c1], out=out)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel: ``[B, C, H, W] -> [B, C]``."""
    return _check_maps(x, "global_avg_pool").mean(axis=(-2, -1))


def dense(x: np.ndarray, p: DenseParams) -> np.ndarray:
    """Affine map ``W @ x + b`` on each row of a ``[B, K]`` batch."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"dense expects a [B, K] batch, got shape {x.shape}")
    if x.shape[1] != p.in_units:
        raise ShapeError(f"input length {x.shape[1]} does not match {p.in_units} units")
    dtype = np.result_type(x, p.weights)
    return (x.astype(dtype, copy=False) @ p.weights.T + p.bias).astype(dtype, copy=False)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of a ``[K]`` vector or of each row of ``[B, K]``.

    Float64 output; stable for |z| up to ~1e4.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] < 1:
        raise ShapeError(f"softmax expects non-empty [K] or [B, K] logits, got shape {z.shape}")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax of a ``[K]`` vector or of each row of ``[B, K]``.

    Float64 output: ``z - max(z) - log(sum(exp(z - max(z))))``.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] < 1:
        raise ShapeError(
            f"log_softmax expects non-empty [K] or [B, K] logits, got shape {z.shape}")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

