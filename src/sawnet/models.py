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

Those are the layouts as stored. A `WeightBundle` holds and runs only their
batch-norm-folded form: validation scales each conv's kernels and bias by
the batch norm after it, once, and drops the batch norm, so a forward is
conv, bias, ReLU, pool and dense, and names only layers of that network.

Patches (`frontend.extract_patches`) are fixed at 96x64, but global pooling
lets `run_layers` take any [B, 1, H, W] input whose pools each see at least
2x2: H, W >= 16 for aug_vggish (four pools) and H, W >= 32 for fcn_vggish
(five); a 31-row input to fcn_vggish raises `ShapeError` at pool5.

The embedding (penultimate representation) is the 256-unit FC output for
aug_vggish and the globally pooled 1024-channel feature map for fcn_vggish.

Every forward goes through `run_layers`, which takes a ``[B, C, H, W]`` batch
and makes one `nn` operator call per layer, ReLU in place. `forward_batch`
and `forward_embedding` run ``[N, H, W]`` patches (one patch `p` is ``p[None]``)
by `WeightBundle.plan`: stages of layers, each with the patches per call that
pay for one pass over its weights, built at validation. aug_vggish has one
stage of 1; fcn_vggish conv1..pool5 at 4, then conv7..gap at 25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .errors import ConfigError, ValidationError
from .frontend import NUM_MEL_BANDS, PATCH_FRAMES

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
    `num_classes`, and whose batch norms each follow a conv, runs under it.
    Only the folded canonical layout of `arch_id` can be saved
    (`bundle.save_bundle`).
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
    ``[B, K]``. `shapes(layer)` names its parameter tensors,
    `build(layer, tensors)` makes its `nn` params object from them (which
    rejects non-finite values) and `show(layer)` is its `sawnet info` text.
    A forward looks up `nn.<op>` when it runs, so an operator replaced on the
    module (by a tracer or a test) is the one called. A batch norm is only
    stored, never run: it has tensors but no params object, and validation
    checks them and folds them into the conv before it.
    """

    out_shape: Callable[[LayerDef, tuple], tuple | None] | None = None
    forward: Callable[[np.ndarray, object], np.ndarray] | None = None
    shapes: Callable[[LayerDef], dict] = lambda layer: {}
    build: Callable[[LayerDef, dict], object] | None = None
    show: Callable[[LayerDef], str] = lambda layer: ""


_KINDS = {
    "conv": _Kind(
        out_shape=lambda l, s: (l.out_ch, *s[1:]) if len(s) == 3 and s[0] == l.in_ch else None,
        forward=lambda x, p: nn.conv2d_same(x, p),
        shapes=lambda l: {"kernels": (l.out_ch, l.in_ch, l.kernel, l.kernel),
                          "bias": (l.out_ch,)},
        build=lambda l, t: nn.ConvParams(t["kernels"], t["bias"]),
        show=lambda l: f"{l.in_ch}->{l.out_ch} {l.kernel}x{l.kernel}"),
    "batchnorm": _Kind(
        shapes=lambda l: dict.fromkeys(("gamma", "beta", "mean", "var"), (l.channels,))),
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
        build=lambda l, t: nn.DenseParams(t["weights"], t["bias"]),
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


def fold_spec(spec: ModelSpec) -> ModelSpec:
    """The layer list a bundle runs: each batch norm dropped and its ReLU given
    to the conv before it; an embedding layer that was a batch norm becomes
    that conv. A batch norm that does not directly follow a conv of its width
    without a ReLU cannot be folded and raises `ValidationError`."""
    layers: list[LayerDef] = []
    embedding_layer = spec.embedding_layer
    for layer in spec.layers:
        if layer.kind != "batchnorm":
            layers.append(layer)
            continue
        if not layers or layers[-1].kind != "conv" or layers[-1].relu \
                or layers[-1].out_ch != layer.channels:
            raise ValidationError(f"layer {layer.name}: batch norm does not follow a "
                                  f"convolution of {layer.channels} channels without a ReLU")
        layers[-1] = replace(layers[-1], relu=layer.relu)
        if embedding_layer == layer.name:
            embedding_layer = layers[-1].name
    return replace(spec, layers=tuple(layers), embedding_layer=embedding_layer)


def _validate_chain(spec: ModelSpec) -> None:
    """Check layer widths from a [1, 96, 64] patch to [num_classes], and `embedding_dim`."""
    if spec.arch_id not in _BUILDERS:
        raise ValidationError(f"unknown arch_id {spec.arch_id!r}")
    widths = [shape[0] for shape in _activation_shapes(spec)]  # input, then each layer
    if widths[-1] != spec.num_classes:
        raise ValidationError(f"network ends at width {widths[-1]}, not {spec.num_classes} classes")
    names = [l.name for l in spec.layers]
    if spec.embedding_layer not in names:
        raise ValidationError(f"embedding layer {spec.embedding_layer!r} not in layer list")
    if widths[names.index(spec.embedding_layer) + 1] != spec.embedding_dim:
        raise ValidationError(f"embedding layer {spec.embedding_layer!r} is not "
                              f"embedding_dim {spec.embedding_dim} wide")


class Stage(NamedTuple):
    """A step of `WeightBundle.plan`: ``spec.layers[start:stop]``, `per_call` patches a call."""

    start: int
    stop: int
    per_call: int


@dataclass
class WeightBundle:
    """A ModelSpec plus its named parameter tensors; immutable once validated.

    `params` maps "<layer>/<tensor>" to arrays, e.g. "conv1/kernels",
    "bn1/gamma", "fc1/weights". `epsilon` is shared by every batch-norm layer.

    Validation folds every batch norm into the conv before it: afterwards
    `spec` is `fold_spec` of the given layer list and `params` holds only the
    folded network's tensors, the one copy of the weights that runs, and
    `plan` the `Stage` tuple that `forward_batch` runs them in.

    `dtype` is the bundle's compute dtype, the promoted dtype of its tensors:
    float32 for every bundle loaded from a container, float64 when an
    in-memory bundle is given float64 arrays (the reference path). Validation
    makes each tensor a read-only array of that dtype (an array already in it
    is kept, not copied, and becomes read-only; a non-float one becomes
    float32) and builds the layer operators' params on those same arrays,
    which checks each tensor for non-finite values once. The weights are held
    once, at the size of their float32 container.

    A bundle that has scored enough in this process runs `evaluation.score_stream`
    and `transfer.extract_embeddings` on a pool of worker processes of its own
    (`workers.Pool`), which lives as long as it does.
    """

    spec: ModelSpec
    params: dict[str, np.ndarray]
    epsilon: float = DEFAULT_EPSILON
    _objs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    plan: tuple[Stage, ...] = field(default=(), init=False, repr=False, compare=False)
    dtype: np.dtype = field(default=np.dtype(np.float32), init=False, compare=False)
    # `workers.forward_blocks`' count of patches forwarded in this process, and
    # the `workers.Pool` it starts, which closes once this bundle is collected
    _scored: int = field(default=0, init=False, repr=False, compare=False)
    _pool: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check the tensors against the layer list, fold batch norm and build
        the operator cache.

        `params` is rewritten in place, each stored conv+BN tensor dropped as
        its folded conv replaces it, so a load never holds two copies of the
        weights. A bundle that fails validation is left unusable.
        """
        spec = fold_spec(self.spec)
        _validate_chain(spec)
        self.dtype = np.result_type(np.float32, *{_float_dtype(a) for a in self.params.values()})
        stored = {f"{l.name}/{suffix}": shape
                  for l in self.spec.layers for suffix, shape in param_shapes(l).items()}
        extra = set(self.params) - set(stored)
        if extra:
            raise ValidationError(f"unreferenced parameter tensors: {sorted(extra)}")
        for key, shape in stored.items():
            if key not in self.params:
                raise ValidationError(f"missing parameter tensor {key!r}")
            arr = np.asarray(self.params[key])
            if arr.shape != shape:
                raise ValidationError(f"tensor {key!r} has shape {arr.shape}, expected {shape}")
            arr = np.asarray(arr, dtype=self.dtype)
            arr.setflags(write=False)
            self.params[key] = arr
        # fold_spec has checked that each batch norm directly follows its conv
        for conv, layer in zip(self.spec.layers, self.spec.layers[1:]):
            if layer.kind == "batchnorm":
                self._fold(conv.name, layer.name)
        self._objs = {layer.name: self._build(layer)
                      for layer in spec.layers if param_shapes(layer)}
        self.spec = spec
        self.plan = _plan(self)

    def _build(self, layer: LayerDef) -> object:
        tensors = {suffix: self.params[f"{layer.name}/{suffix}"] for suffix in param_shapes(layer)}
        try:
            return _KINDS[layer.kind].build(layer, tensors)
        except nn.ShapeError as e:
            raise ValidationError(f"layer {layer.name}: {e}") from e

    def _fold(self, conv: str, bn: str) -> None:
        """Replace conv `conv`'s tensors by ``kernels * scale`` and
        ``(bias - mean) * scale + beta``, ``scale = gamma / sqrt(var + epsilon)``,
        from batch norm `bn`'s tensors, which are dropped and must be finite
        with ``var >= 0``; computed in float64 and rounded to the bundle's dtype.

        The kernels are multiplied in float64 straight into one new array of
        the bundle's dtype (numpy casts a small buffer at a time, so no
        float64 copy of a kernel is made), and the stored kernels are dropped
        as soon as the new ones are whole.
        """
        stats = {suffix: self.params.pop(f"{bn}/{suffix}")
                 for suffix in ("gamma", "beta", "mean", "var")}
        for suffix, arr in stats.items():
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"layer {bn}: {suffix} contains non-finite values")
        gamma, beta, mean, var = stats.values()
        if np.any(var < 0):
            raise ValidationError(f"layer {bn}: var entries must be >= 0")
        if not 0 < self.epsilon < np.inf:
            raise ValidationError(f"layer {bn}: epsilon {self.epsilon!r} must be finite and > 0")
        scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + self.epsilon)
        kernels, bias = self.params.pop(f"{conv}/kernels"), self.params.pop(f"{conv}/bias")
        folded = np.multiply(kernels, scale[:, None, None, None], dtype=np.float64,
                             out=np.empty(kernels.shape, self.dtype), casting="unsafe")
        bias = ((bias.astype(np.float64) - mean) * scale + beta).astype(self.dtype)
        for suffix, arr in (("kernels", folded), ("bias", bias)):
            arr.setflags(write=False)
            self.params[f"{conv}/{suffix}"] = arr

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
    epsilon: float = DEFAULT_EPSILON,
) -> WeightBundle:
    """Fresh bundle for a spec: all-zero weights or seeded He-scaled noise.

    Batch-norm statistics start at identity (gamma 1, beta 0, mean 0, var 1)
    either way, so the folded kernels are the drawn ones times
    ``1 / sqrt(1 + epsilon)``.
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
    return WeightBundle(spec=spec, params=params, epsilon=epsilon)


def with_head(bundle: WeightBundle, head: nn.DenseParams) -> WeightBundle:
    """`bundle`'s canonical folded network at ``head.out_units`` classes, `head`
    reshaped into the first layer with parameters after the embedding:
    aug_vggish's dense `head`, or fcn_vggish's 1x1 `clf`, which commutes with
    the global average pooling after it. Every other tensor is `bundle`'s own."""
    spec = fold_spec(build_arch(bundle.spec.arch_id, head.out_units))
    after = [l.name for l in spec.layers].index(spec.embedding_layer) + 1
    layer = next(l for l in spec.layers[after:] if param_shapes(l))
    params = dict(bundle.params)  # the layer's two tensors are replaced
    for (suffix, shape), arr in zip(param_shapes(layer).items(), (head.weights, head.bias)):
        # a 1x1 conv's kernels get their unit dims; validation checks the rest
        params[f"{layer.name}/{suffix}"] = arr.reshape(arr.shape + shape[2:])
    return WeightBundle(spec, params, bundle.epsilon)


def run_layers(bundle: WeightBundle, x: np.ndarray, stop_after: str | None = None) -> np.ndarray:
    """Execute the layer list on a [B, C, H, W] batch.

    The input is copied into `bundle.dtype` once, so every layer computes in
    the weights' own dtype and the caller's `x` is never written: a float32
    bundle rounds a float64 patch to float32 here, the rounding a feature
    container stores. One operator call per layer, whatever the batch size.
    `stop_after` names a layer of the folded network, checked before any
    runs; its output (after any ReLU it owns) is returned. Every array held
    here is this function's own (the input copy, then each operator's new
    result), so ReLU overwrites it in place and a step holds one map, not two.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValidationError(f"network input must be a [B, C, H, W] batch, got shape {x.shape}")
    layers = bundle.spec.layers
    if stop_after is not None:
        layers = layers[:_end(layers, stop_after)]
    return _run(bundle, layers, x.astype(bundle.dtype))


def _run(bundle: WeightBundle, layers: tuple[LayerDef, ...], x: np.ndarray) -> np.ndarray:
    """`layers` on a batch `x` of `bundle.dtype` that the caller gives up."""
    for layer in layers:
        x = _KINDS[layer.kind].forward(x, bundle._objs.get(layer.name))
        if layer.relu:
            x = nn.relu(x)
    return x


def _end(layers: tuple[LayerDef, ...], stop_after: str) -> int:
    """Index just past the first layer named `stop_after`."""
    for i, layer in enumerate(layers):
        if layer.name == stop_after:
            return i + 1
    raise ValidationError(f"no layer named {stop_after!r}")


def _patches_per_call(bundle: WeightBundle, start: int, im2col: bool) -> int:
    """``max(1, weight bytes // (10 * activation bytes))`` over the layers from
    `start` on: their weights against the largest of their input and outputs
    for one 96x64 patch and, with `im2col`, each conv's im2col block."""
    layers = bundle.spec.layers[start:]
    shapes = _activation_shapes(bundle.spec)[start:]  # each layer's input, then the output
    sizes = [math.prod(s) for s in shapes]
    if im2col:
        sizes += [l.kernel ** 2 * math.prod(s) for l, s in zip(layers, shapes) if l.kind == "conv"]
    names = {l.name for l in layers}
    weight_bytes = sum(a.nbytes for key, a in bundle.params.items()
                       if key.split("/", 1)[0] in names)
    return max(1, weight_bytes // (_WEIGHTS_PER_ACTIVATION * max(sizes) * bundle.dtype.itemsize))


def _plan(bundle: WeightBundle) -> tuple[Stage, ...]:
    """A validated bundle's stages. The first weighs all weights against one
    patch's largest output; the layers after the last max pool, weighed alone
    with each conv's im2col block (`nn.conv2d_same`'s own split would let
    conv8's grow to half its kernels), are a second stage if that gives more
    patches per call. One dtype for both, so float32 and float64 plans agree."""
    layers = bundle.spec.layers
    tail = max((i + 1 for i, l in enumerate(layers) if l.kind == "maxpool"), default=len(layers))
    first = _patches_per_call(bundle, 0, im2col=False)
    last = _patches_per_call(bundle, tail, im2col=True)
    if last > first:
        return Stage(0, tail, first), Stage(tail, len(layers), last)
    return (Stage(0, len(layers), first),)


def _stage(bundle: WeightBundle, stage: Stage, x: np.ndarray) -> np.ndarray:
    """One call of `stage`; the first enters through `run_layers`, which perfbench traces."""
    layers = bundle.spec.layers
    if stage.start:
        return _run(bundle, layers[stage.start:stage.stop], x)
    return run_layers(bundle, x, layers[stage.stop - 1].name if stage.stop < len(layers) else None)


def _walk(bundle: WeightBundle, stages: tuple[Stage, ...], x: np.ndarray) -> np.ndarray:
    """`stages` over `x`, the first one's input: groups of the last stage's
    `per_call` rows, in which each stage runs in slices of its own, so memory
    holds one group's maps and one call's activations however many rows."""
    outs, group = [], stages[-1].per_call
    for g in range(0, len(x), group):
        y = x[g:g + group]
        for stage in stages:
            n = stage.per_call
            y = _cat([_stage(bundle, stage, y[i:i + n]) for i in range(0, len(y), n)])
        outs.append(y)
    return _cat(outs)


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def run_stages(bundle: WeightBundle, x: np.ndarray, stages: tuple[Stage, ...]) -> np.ndarray:
    """Consecutive stages of `bundle.plan` over `x`, a batch of the first one's input.
    `forward_batch` walks them privately, so a traced forward is one span."""
    return _walk(bundle, stages, np.asarray(x))


def forward_batch(bundle: WeightBundle, patches: np.ndarray,
                  stop_after: str | None = None) -> np.ndarray:
    """``[N, H, W]`` patches through `bundle.plan`, one output row per patch.

    `stop_after` cuts the plan once, before any layer runs. fcn_vggish runs
    each 25 patches to pool5 in `run_layers` calls of 4, slices of `patches`,
    then its tail once over them, streaming the tail's kernels once per 25.
    Row i is what patch i gives alone, up to a batched product's last bits.
    """
    patches = np.asarray(patches)
    if patches.ndim != 3 or not len(patches):
        raise ValidationError("forward_batch needs an [N >= 1, H, W] array of patches, "
                              f"got shape {patches.shape}")
    stages = bundle.plan
    if stop_after is not None:
        stop = _end(bundle.spec.layers, stop_after)
        stages = tuple(s._replace(stop=min(s.stop, stop)) for s in stages if s.start < stop)
    return _walk(bundle, stages, patches[:, None])


def forward_embedding(bundle: WeightBundle, patches: np.ndarray) -> np.ndarray:
    """``[N, D]`` penultimate representations of ``[N, H, W]`` patches, through
    `forward_batch`; spatial outputs are globally averaged."""
    out = forward_batch(bundle, patches, stop_after=bundle.spec.embedding_layer)
    if out.ndim == 4:
        out = nn.global_avg_pool(out)
    return out
