"""Architecture definitions and end-to-end forward passes.

Two architectures are shipped, both consuming 96x64 log-mel patches with a
single input channel:

  aug_vggish   six 3x3 convolutions (64-128-256-256-512-512), each followed
               by batch norm + ReLU, four 2x2 max pools, global average
               pooling, one 256-unit FC + ReLU, and a dense classifier.
               4,647,346 trainable parameters at 50 classes.

  fcn_vggish   the same six-conv stack, a fifth max pool, two further 3x3
               convolutions at 1024 channels (eight feature convolutions in
               total), a 1x1 convolutional classifier, and global average
               pooling. No dense layers. 18,716,338 parameters at 50 classes.

Patches (`frontend.extract_patches`) are fixed at 96x64, but global pooling
lets `run_layers` take any [B, 1, H, W] input whose pools each see at least
2x2: H, W >= 16 for aug_vggish (four pools) and H, W >= 32 for fcn_vggish
(five); a 31-row input to fcn_vggish raises `ShapeError` at pool5.

The embedding (penultimate representation) is the 256-unit FC output for
aug_vggish and the globally pooled 1024-channel feature map for fcn_vggish.

Every forward goes through `run_layers`, which takes a ``[B, C, H, W]`` batch
and makes one `nn` operator call per layer, batch norm and ReLU in place.
`forward_batch` runs an ``[N, H, W]`` array of patches through it in chunks
of `batch_size` patches, and `forward_embedding` does the same up to the
embedding; one patch `p` is ``p[None]``. A chunk shares one pass over every
weight among its patches but holds all of their activations at once, so
batching pays only where the weights outweigh one patch's activations:
fcn_vggish's 1024-channel kernels on a 3x2 map run 4 patches per call,
aug_vggish runs 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .errors import ConfigError, StructureError, ValidationError
from .frontend import NUM_MEL_BANDS, PATCH_FRAMES, PREPROC_TAG

ARCH_AUG_VGGISH = "aug_vggish"
ARCH_FCN_VGGISH = "fcn_vggish"
DEFAULT_EPSILON = 1e-5
# `forward_batch` batches only when the weights outweigh one patch's largest
# activation by this factor. On 2 cores, aug_vggish (35 MB of weights, a 3 MB
# conv1 output) ran no faster at 5 patches per call and its peak memory rose
# 11 %; fcn_vggish (142 MB) at 4 per call halved conv7+conv8 time per patch.
_WEIGHTS_PER_ACTIVATION = 10


@dataclass(frozen=True)
class LayerDef:
    """One layer descriptor; size fields are used per kind, others are None."""

    name: str
    kind: str  # conv | batchnorm | maxpool | global_avg_pool | dense
    relu: bool = False
    in_ch: int | None = None
    out_ch: int | None = None
    kernel: int | None = None
    channels: int | None = None
    in_units: int | None = None
    out_units: int | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer list plus the metadata needed to run and persist it.

    `arch_id` must be a known architecture, but for a custom layer list it is
    only a label: any list whose shapes chain from a ``[1, 96, 64]`` patch to
    `num_classes` runs under it. Only the canonical layouts of `arch_id`,
    folded or not, can be saved (`bundle.save_bundle`).
    """

    arch_id: str
    num_classes: int
    layers: tuple[LayerDef, ...]
    embedding_layer: str
    embedding_dim: int


def _conv(name: str, in_ch: int, out_ch: int, kernel: int = 3, relu: bool = False) -> LayerDef:
    return LayerDef(name=name, kind="conv", in_ch=in_ch, out_ch=out_ch, kernel=kernel, relu=relu)


def _bn(name: str, channels: int) -> LayerDef:
    return LayerDef(name=name, kind="batchnorm", channels=channels, relu=True)


def _conv_stack() -> list[LayerDef]:
    """The shared six-convolution feature stack (through its fourth pool)."""
    return [
        _conv("conv1", 1, 64), _bn("bn1", 64),
        LayerDef("pool1", "maxpool"),
        _conv("conv2", 64, 128), _bn("bn2", 128),
        LayerDef("pool2", "maxpool"),
        _conv("conv3", 128, 256), _bn("bn3", 256),
        _conv("conv4", 256, 256), _bn("bn4", 256),
        LayerDef("pool3", "maxpool"),
        _conv("conv5", 256, 512), _bn("bn5", 512),
        _conv("conv6", 512, 512), _bn("bn6", 512),
        LayerDef("pool4", "maxpool"),
    ]


def build_aug_vggish(num_classes: int) -> ModelSpec:
    """Batch-normed VGGish variant with global pooling and a 256-unit FC."""
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    layers = _conv_stack() + [
        LayerDef("gap", "global_avg_pool"),
        LayerDef("fc1", "dense", in_units=512, out_units=256, relu=True),
        LayerDef("head", "dense", in_units=256, out_units=num_classes),
    ]
    return ModelSpec(
        arch_id=ARCH_AUG_VGGISH,
        num_classes=num_classes,
        layers=tuple(layers),
        embedding_layer="fc1",
        embedding_dim=256,
    )


def build_fcn_vggish(num_classes: int) -> ModelSpec:
    """Fully convolutional variant: eight feature convs, 1x1 classifier, no FC."""
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    layers = _conv_stack() + [
        LayerDef("pool5", "maxpool"),
        _conv("conv7", 512, 1024), _bn("bn7", 1024),
        _conv("conv8", 1024, 1024), _bn("bn8", 1024),
        _conv("clf", 1024, num_classes, kernel=1),
        LayerDef("gap", "global_avg_pool"),
    ]
    return ModelSpec(
        arch_id=ARCH_FCN_VGGISH,
        num_classes=num_classes,
        layers=tuple(layers),
        embedding_layer="bn8",
        embedding_dim=1024,
    )


_BUILDERS = {ARCH_AUG_VGGISH: build_aug_vggish, ARCH_FCN_VGGISH: build_fcn_vggish}


def build_arch(arch_id: str, num_classes: int) -> ModelSpec:
    if arch_id not in _BUILDERS:
        raise ConfigError(f"unknown arch_id {arch_id!r}; expected one of {sorted(_BUILDERS)}")
    return _BUILDERS[arch_id](num_classes)


class _Kind(NamedTuple):
    """How one layer kind is shaped, run, built and shown.

    `out_shape(layer, s)` is the output shape for one item of shape `s`,
    ``(C, H, W)`` or ``(K,)``, or None when the layer cannot take it.
    `forward(x, params)` runs the layer on a batch, ``[B, C, H, W]`` or
    ``[B, K]``; a batch norm writes into `x`. `shapes(layer)` names its
    parameter tensors, `build(layer, tensors, epsilon)` makes its `nn` params
    object from them (which rejects non-finite values) and `show(layer)` is
    its `sawnet info` text. A forward looks up `nn.<op>` when it runs, so an
    operator replaced on the module (by a tracer or a test) is the one called.
    """

    out_shape: Callable[[LayerDef, tuple], tuple | None]
    forward: Callable[[np.ndarray, object], np.ndarray]
    shapes: Callable[[LayerDef], dict] = lambda layer: {}
    build: Callable[[LayerDef, dict, float], object] | None = None
    show: Callable[[LayerDef], str] = lambda layer: ""


_KINDS = {
    "conv": _Kind(
        out_shape=lambda l, s: (l.out_ch, *s[1:]) if len(s) == 3 and s[0] == l.in_ch else None,
        forward=lambda x, p: nn.conv2d_same(x, p),
        shapes=lambda l: {"kernels": (l.out_ch, l.in_ch, l.kernel, l.kernel),
                          "bias": (l.out_ch,)},
        build=lambda l, t, epsilon: nn.ConvParams(t["kernels"], t["bias"]),
        show=lambda l: f"{l.in_ch}->{l.out_ch} {l.kernel}x{l.kernel}"),
    "batchnorm": _Kind(
        out_shape=lambda l, s: s if len(s) == 3 and s[0] == l.channels else None,
        forward=lambda x, p: nn.batchnorm_infer(x, p),
        shapes=lambda l: dict.fromkeys(("gamma", "beta", "mean", "var"), (l.channels,)),
        build=lambda l, t, epsilon: nn.BatchNormParams(
            t["gamma"], t["beta"], t["mean"], t["var"], epsilon=epsilon),
        show=lambda l: f"{l.channels} channels"),
    "maxpool": _Kind(
        out_shape=lambda l, s: ((s[0], s[1] // 2, s[2] // 2)
                                if len(s) == 3 and min(s[1:]) >= 2 else None),
        forward=lambda x, p: nn.maxpool_2x2(x)),
    "global_avg_pool": _Kind(
        out_shape=lambda l, s: s[:1] if len(s) == 3 else None,
        forward=lambda x, p: nn.global_avg_pool(x)),
    "dense": _Kind(
        out_shape=lambda l, s: (l.out_units,) if s == (l.in_units,) else None,
        forward=lambda x, p: nn.dense(x, p),
        shapes=lambda l: {"weights": (l.out_units, l.in_units), "bias": (l.out_units,)},
        build=lambda l, t, epsilon: nn.DenseParams(t["weights"], t["bias"]),
        show=lambda l: f"{l.in_units}->{l.out_units}"),
}


def _kind(layer: LayerDef) -> _Kind:
    if layer.kind not in _KINDS:
        raise ValidationError(f"layer {layer.name}: unknown kind {layer.kind!r}")
    return _KINDS[layer.kind]


def count_params(spec: ModelSpec) -> int:
    """Trainable parameter count; batch-norm running statistics excluded."""
    return sum(math.prod(shape) for layer in spec.layers
               for suffix, shape in param_shapes(layer).items() if suffix not in ("mean", "var"))


def param_shapes(layer: LayerDef) -> dict[str, tuple[int, ...]]:
    """Required parameter tensors (key suffix -> shape) for one layer."""
    return _kind(layer).shapes(layer)


def describe_layer(layer: LayerDef) -> str:
    """A layer's sizes as `sawnet info` shows them, e.g. ``64->128 3x3 +relu``."""
    return _kind(layer).show(layer) + (" +relu" if layer.relu else "")


def _activation_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """A ``(1, 96, 64)`` patch's shape and each layer's output shape on it."""
    shapes = [(1, PATCH_FRAMES, NUM_MEL_BANDS)]
    for layer in spec.layers:
        shape = _kind(layer).out_shape(layer, shapes[-1])
        if shape is None:
            raise ValidationError(
                f"layer {layer.name}: {layer.kind} cannot take a {list(shapes[-1])} input")
        shapes.append(shape)
    return shapes


def _validate_chain(spec: ModelSpec) -> None:
    """Check that layer shapes chain from a [1, 96, 64] patch to [num_classes]."""
    if spec.arch_id not in _BUILDERS:
        raise ValidationError(f"unknown arch_id {spec.arch_id!r}")
    final = _activation_shapes(spec)[-1][0]
    if final != spec.num_classes:
        raise ValidationError(f"network ends at width {final}, not {spec.num_classes} classes")
    if not any(l.name == spec.embedding_layer for l in spec.layers):
        raise ValidationError(f"embedding layer {spec.embedding_layer!r} not in layer list")


@dataclass
class WeightBundle:
    """A ModelSpec plus its named parameter tensors; immutable once validated.

    `params` maps "<layer>/<tensor>" to arrays, e.g. "conv1/kernels",
    "bn1/gamma", "fc1/weights". `epsilon` is shared by every batch-norm
    layer; `preproc_tag` records the frontend convention the weights expect.

    `dtype` is the bundle's compute dtype, the promoted dtype of its tensors:
    float32 for every bundle loaded from a container, float64 when an
    in-memory bundle is given float64 arrays (the reference path). Validation
    makes each tensor a read-only array of that dtype (an array already in it
    is kept, not copied, and becomes read-only; a non-float one becomes
    float32) and builds the layer operators' params on those same arrays,
    which checks each tensor for non-finite values once. The weights are held
    once, at the size of their float32 container.
    """

    spec: ModelSpec
    params: dict[str, np.ndarray]
    preproc_tag: str = PREPROC_TAG
    epsilon: float = DEFAULT_EPSILON
    _objs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    dtype: np.dtype = field(default=np.dtype(np.float32), init=False, compare=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check params against the layer list and build the operator cache."""
        _validate_chain(self.spec)
        self.dtype = np.result_type(np.float32, *{_float_dtype(a) for a in self.params.values()})
        objs: dict[str, object] = {}
        expected: set[str] = set()
        for layer in self.spec.layers:
            tensors = {}
            for suffix, shape in param_shapes(layer).items():
                key = f"{layer.name}/{suffix}"
                expected.add(key)
                if key not in self.params:
                    raise ValidationError(f"missing parameter tensor {key!r}")
                src = np.asarray(self.params[key])
                if src.shape != shape:
                    raise ValidationError(
                        f"tensor {key!r} has shape {src.shape}, expected {shape}"
                    )
                arr = np.asarray(src, dtype=self.dtype)
                arr.setflags(write=False)
                self.params[key] = tensors[suffix] = arr
            try:
                if tensors:
                    objs[layer.name] = _KINDS[layer.kind].build(layer, tensors, self.epsilon)
            except nn.ShapeError as e:
                raise ValidationError(f"layer {layer.name}: {e}") from e
        extra = set(self.params) - expected
        if extra:
            raise ValidationError(f"unreferenced parameter tensors: {sorted(extra)}")
        self._objs = objs

    @property
    def folded(self) -> bool:
        return not any(l.kind == "batchnorm" for l in self.spec.layers)

    @property
    def nbytes(self) -> int:
        """Bytes of weights held."""
        return sum(a.nbytes for a in self.params.values())


def _float_dtype(a) -> np.dtype:
    """Tensor `a`'s part in a bundle's dtype: float64 for float64, else float32."""
    return np.dtype(np.float64 if np.asarray(a).dtype == np.float64 else np.float32)


def init_bundle(
    spec: ModelSpec,
    init: str = "zeros",
    seed: int | None = None,
    preproc_tag: str = PREPROC_TAG,
    epsilon: float = DEFAULT_EPSILON,
) -> WeightBundle:
    """Fresh bundle for a spec: all-zero weights or seeded He-scaled noise.

    Batch-norm statistics start at identity (gamma 1, beta 0, mean 0, var 1)
    either way.
    """
    if init not in ("zeros", "random"):
        raise ConfigError(f"init must be 'zeros' or 'random', got {init!r}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for layer in spec.layers:
        for suffix, shape in param_shapes(layer).items():
            key = f"{layer.name}/{suffix}"
            if suffix in ("gamma", "var"):
                params[key] = np.ones(shape, dtype=np.float32)
            elif suffix in ("kernels", "weights") and init == "random":
                fan_in = int(np.prod(shape[1:]))
                params[key] = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape).astype(np.float32)
            else:
                params[key] = np.zeros(shape, dtype=np.float32)
    return WeightBundle(spec=spec, params=params, preproc_tag=preproc_tag, epsilon=epsilon)


def run_layers(bundle: WeightBundle, x: np.ndarray, stop_after: str | None = None) -> np.ndarray:
    """Execute the layer list on a [B, C, H, W] batch.

    The input is copied into `bundle.dtype` once, so every layer computes in
    the weights' own dtype and the caller's `x` is never written: a float32
    bundle rounds a float64 patch to float32 here, the rounding a feature
    container stores. One operator call per layer, whatever the batch size.
    `stop_after` names a layer; its output (after any ReLU it owns) is
    returned and the remaining layers are skipped. Every array held here is
    this function's own (the input copy, then each operator's new result), so
    batch norm and ReLU overwrite it in place and a step holds one copy of
    its map instead of three.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValidationError(f"network input must be a [B, C, H, W] batch, got shape {x.shape}")
    x = x.astype(bundle.dtype)
    for layer in bundle.spec.layers:
        x = _KINDS[layer.kind].forward(x, bundle._objs.get(layer.name))
        if layer.relu:
            x = nn.relu(x)
        if layer.name == stop_after:
            return x
    if stop_after is not None:
        raise ValidationError(f"no layer named {stop_after!r}")
    return x


def batch_size(bundle: WeightBundle) -> int:
    """Patches per `run_layers` call in `forward_batch`.

    ``max(1, weight bytes // (10 * activation bytes))``, where the activation
    is the largest layer output of one 96x64 patch in `bundle.dtype`. Weights
    and activations share that dtype, so the rule gives 1 for aug_vggish and
    4 for fcn_vggish in float32 and in float64 alike. Within a call,
    `nn.conv2d_same` splits the batch again per layer, so that a layer's
    patches share one product only while its kernels outweigh twice their
    im2col block; the two rules together decide how patches share the weight
    passes.
    """
    activation_bytes = (max(map(math.prod, _activation_shapes(bundle.spec)))
                        * bundle.dtype.itemsize)
    return max(1, bundle.nbytes // (_WEIGHTS_PER_ACTIVATION * activation_bytes))


def forward_batch(bundle: WeightBundle, patches: np.ndarray,
                  stop_after: str | None = None) -> np.ndarray:
    """`run_layers` over an ``[N, H, W]`` array of patches: one output per patch,
    stacked on axis 0. A single patch `p` is ``p[None]``.

    Patches run in chunks of `batch_size`, each sliced straight out of
    `patches`, so only one chunk's activations are alive at a time. Row i is
    what patch i gives alone, up to the last-bit rounding of a batched matrix
    product.
    """
    patches = np.asarray(patches)
    if patches.ndim != 3 or not len(patches):
        raise ValidationError("forward_batch needs an [N >= 1, H, W] array of patches, "
                              f"got shape {patches.shape}")
    n = batch_size(bundle)
    outs = [run_layers(bundle, patches[i:i + n, None], stop_after)
            for i in range(0, len(patches), n)]
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def forward_embedding(bundle: WeightBundle, patches: np.ndarray) -> np.ndarray:
    """``[N, D]`` penultimate representations of ``[N, H, W]`` patches, through
    `forward_batch`; spatial outputs are globally averaged."""
    out = forward_batch(bundle, patches, stop_after=bundle.spec.embedding_layer)
    if out.ndim == 4:
        out = nn.global_avg_pool(out)
    if out.shape[1:] != (bundle.spec.embedding_dim,):
        raise ValidationError(
            f"embedding has shape {out.shape[1:]}, expected ({bundle.spec.embedding_dim},)"
        )
    return out


def fold_spec(spec: ModelSpec) -> ModelSpec:
    """Structural half of batch-norm folding: drop BN layers, keep their ReLU."""
    layers: list[LayerDef] = []
    embedding_layer = spec.embedding_layer
    for layer in spec.layers:
        if layer.kind != "batchnorm":
            layers.append(layer)
            continue
        if not layers or layers[-1].kind != "conv":
            raise StructureError(f"batch norm {layer.name} does not follow a convolution")
        if layers[-1].out_ch != layer.channels:
            raise StructureError(f"batch norm {layer.name} channel count mismatch")
        layers[-1] = replace(layers[-1], relu=layer.relu or layers[-1].relu)
        if embedding_layer == layer.name:
            embedding_layer = layers[-1].name
    return replace(spec, layers=tuple(layers), embedding_layer=embedding_layer)


def fold_batchnorm(bundle: WeightBundle) -> WeightBundle:
    """Absorb every conv+BN pair into a single convolution.

    kernel' = kernel * gamma / sqrt(var + eps) per output channel and
    bias' = (bias - mean) * gamma / sqrt(var + eps) + beta, so the folded
    forward matches the two-step computation up to rounding.
    """
    folded_spec = fold_spec(bundle.spec)
    params: dict[str, np.ndarray] = {}
    prev_conv: str | None = None  # fold_spec has checked that each BN follows a conv
    for layer in bundle.spec.layers:
        n = layer.name
        if layer.kind != "batchnorm":
            prev_conv = n
            params.update({f"{n}/{suffix}": np.asarray(bundle.params[f"{n}/{suffix}"])
                           for suffix in param_shapes(layer)})
            continue
        # folded in float64 whatever the bundle's dtype, then rounded to the
        # container's float32, so a folded float32 bundle forwards identically
        # before and after save_bundle
        t = {key: np.asarray(bundle.params[key], np.float64) for key in (
            f"{n}/gamma", f"{n}/beta", f"{n}/mean", f"{n}/var",
            f"{prev_conv}/kernels", f"{prev_conv}/bias")}
        scale = t[f"{n}/gamma"] / np.sqrt(t[f"{n}/var"] + bundle.epsilon)
        params[f"{prev_conv}/kernels"] = (
            t[f"{prev_conv}/kernels"] * scale[:, None, None, None]).astype(np.float32)
        params[f"{prev_conv}/bias"] = (
            (t[f"{prev_conv}/bias"] - t[f"{n}/mean"]) * scale + t[f"{n}/beta"]).astype(np.float32)
    return WeightBundle(
        spec=folded_spec, params=params, preproc_tag=bundle.preproc_tag, epsilon=bundle.epsilon
    )
