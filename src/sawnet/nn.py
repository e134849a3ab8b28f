"""Neural operators for forward inference and for the dense head's loss.

Tensors are plain numpy arrays. Feature maps are channels-first: one map is
``[C, H, W]`` and a batch of maps is ``[B, C, H, W]``; vectors are ``[K]`` and a
batch of vectors is ``[B, K]``. Every map and vector operator takes either form
and treats the items of a batch independently: a batch gives per item what
single calls give, up to the last-bit rounding of a differently blocked matrix
product. A conv returns channels-first views of channels-last memory (its
matrix product's row order). Every operator computes in the promoted dtype of
its input and parameters: float32 maps with float32 parameters run float32
matrix products and multiplies, and anything with a float64 operand runs in
float64. The one exception is the dense head's loss path: `softmax` and
`log_softmax` always work in float64.

Parameter objects hold read-only views of the arrays they are given, never
copies, and prepare what every call needs once at construction: a conv keeps
its kernels as an ``[out, in*k*k]`` matrix, a batch norm its per-channel scale
and shift. They reject non-finite values unless built with
``assume_finite=True`` by a caller that has already scanned them.
`models.WeightBundle` does so, scanning each tensor once, and hands them its
read-only arrays in the bundle's own dtype, so a network forward casts no
weight.

Nothing here has a backward path: `transfer.train_head` forms the dense
head's gradient itself (softmax minus one-hot, times the inputs), and
convolution and batch norm are inference-only.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ShapeError


def _readonly(a, name: str, check_finite: bool = True) -> np.ndarray:
    """A read-only view of `a` (integer input is converted to float32)."""
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    if check_finite and not np.all(np.isfinite(arr)):
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
    assume_finite: InitVar[bool] = False
    kmat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, assume_finite):
        check = not assume_finite
        object.__setattr__(self, "kernels", _readonly(self.kernels, "kernels", check))
        object.__setattr__(self, "bias", _readonly(self.bias, "bias", check))
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
class BatchNormParams:
    """Per-channel affine renormalization statistics (inference form).

    `scale` = gamma / sqrt(var + eps) and `shift` = beta - mean * scale are
    computed once, in float64; `batchnorm_infer` rounds them to float32 for a
    float32 map with float32 statistics.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    assume_finite: InitVar[bool] = False
    scale: np.ndarray = field(init=False, repr=False, compare=False)
    shift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, assume_finite):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            object.__setattr__(self, name, _readonly(getattr(self, name), name, not assume_finite))
        c = self.gamma.shape
        if len(c) != 1:
            raise ShapeError("batch-norm parameters must be 1-D per-channel vectors")
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != c:
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != {c}")
        if np.any(self.running_var < 0):
            raise ShapeError("running_var entries must be >= 0")
        if not 0 < self.epsilon < np.inf:
            raise ShapeError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        scale = self.gamma.astype(np.float64) / np.sqrt(
            self.running_var.astype(np.float64) + self.epsilon)
        shift = self.beta.astype(np.float64) - self.running_mean.astype(np.float64) * scale
        object.__setattr__(self, "scale", _readonly(scale, "scale"))
        object.__setattr__(self, "shift", _readonly(shift, "shift"))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class DenseParams:
    """Weights ``[out_units, in_units]`` and bias ``[out_units]``."""

    weights: np.ndarray
    bias: np.ndarray = field(default=None)  # type: ignore[assignment]
    assume_finite: InitVar[bool] = False

    def __post_init__(self, assume_finite):
        check = not assume_finite
        object.__setattr__(self, "weights", _readonly(self.weights, "weights", check))
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {self.weights.shape}")
        bias = (np.zeros(self.weights.shape[0], self.weights.dtype) if self.bias is None
                else self.bias)
        object.__setattr__(self, "bias", _readonly(bias, "bias", check))
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
    if x.ndim not in (3, 4):
        raise ShapeError(f"{op} expects a [C, H, W] map or a [B, C, H, W] batch, "
                         f"got shape {x.shape}")
    return x


def conv2d_same(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Stride-1 'same' 2-D convolution: ``[(B,) C_in, H, W] -> [(B,) C_out, H, W]``.

    Zero padding keeps the spatial size; out-of-range taps contribute 0.
    Implemented as im2col + matmul in the promoted dtype of `x` and the
    kernels. The im2col matrix is gathered in source order,
    ``[C_in*k*k, items*H*W]``, so the copy moves whole rows of W; the product
    runs on its transpose. Items of a batch share one product only while the
    kernel matrix outweighs their im2col block, so a batch never holds more
    im2col than the larger of the kernels and one item's block. This split
    works with `models.batch_size`, which picks how many patches reach this
    operator together.
    """
    x = _check_maps(x, "conv2d_same")
    dtype = np.result_type(x, p.kernels)
    batch = (x if x.ndim == 4 else x[None]).astype(dtype, copy=False)
    b, c, h, w = batch.shape
    if c != p.in_channels:
        raise ShapeError(f"input has {c} channels, kernels expect {p.in_channels}")
    k = p.kernels.shape[2]
    pad = k // 2
    step = max(1, p.kmat.nbytes // (c * k * k * h * w * batch.itemsize))
    out = np.empty((b * h * w, p.out_channels), dtype)
    for i in range(0, b, step):
        xp = np.pad(batch[i:i + step], ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # [m, C, H, W, k, k] -> [C, k, k, m, H, W] -> [C*k*k, m*H*W]
        cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        cols = cols.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, -1)
        np.matmul(cols.T, p.kmat.T, out=out[i * h * w:i * h * w + cols.shape[1]])
    out += p.bias
    out = out.reshape(b, h, w, p.out_channels).transpose(0, 3, 1, 2)
    return out if x.ndim == 4 else out[0]


def _check_out(out: np.ndarray, shape: tuple, dtype, op: str) -> None:
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"{op}: out must be a {np.dtype(dtype)} array of shape {shape}")


def batchnorm_infer(x: np.ndarray, p: BatchNormParams, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Per-channel ``gamma * (x - mean) / sqrt(var + eps) + beta``.

    Computed as ``x * scale + shift`` in the promoted dtype of `x` and
    `gamma`. `out`, numpy-style, receives the result and is returned; it must
    have the result's shape and dtype and may be `x` itself. The values are
    those of a call without it.
    """
    x = _check_maps(x, "batchnorm_infer")
    if x.shape[-3] != p.channels:
        raise ShapeError(f"input has {x.shape[-3]} channels, batch norm expects {p.channels}")
    dtype = np.result_type(x, p.gamma)
    if out is None:
        out = np.empty_like(x, dtype=dtype)  # x's memory layout, as `out=x` has
    else:
        _check_out(out, x.shape, dtype, "batchnorm_infer")
    np.multiply(x, p.scale.astype(dtype, copy=False)[:, None, None], out=out)
    out += p.shift.astype(dtype, copy=False)[:, None, None]
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ``max(x, 0)``; `out` as in `batchnorm_infer`."""
    x = np.asarray(x)
    if out is not None:
        _check_out(out, x.shape, x.dtype, "relu")
    return np.maximum(x, 0, out=out)


def maxpool_2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; a trailing odd row/column is dropped."""
    x = _check_maps(x, "maxpool_2x2")
    h, w = x.shape[-2:]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool_2x2 needs H, W >= 2, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    blocks = x[..., : 2 * h2, : 2 * w2].reshape(*x.shape[:-2], h2, 2, w2, 2)
    return blocks.max(axis=(-3, -1))


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel: ``[(B,) C, H, W] -> [(B,) C]``."""
    return _check_maps(x, "global_avg_pool").mean(axis=(-2, -1))


def dense(x: np.ndarray, p: DenseParams) -> np.ndarray:
    """Affine map ``W @ x + b`` on a ``[K]`` vector or on each row of ``[B, K]``."""
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"dense expects a [K] or [B, K] input, got shape {x.shape}")
    if x.shape[-1] != p.in_units:
        raise ShapeError(f"input length {x.shape[-1]} does not match {p.in_units} units")
    dtype = np.result_type(x, p.weights)
    x = x.astype(dtype, copy=False)
    out = (p.weights @ x if x.ndim == 1 else x @ p.weights.T) + p.bias
    return out.astype(dtype, copy=False)


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

