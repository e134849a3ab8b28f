"""Span recorder wrapped around the program's public functions.

`Tracer.install` replaces every public function of the eight sawnet modules,
wherever a sawnet module holds a reference to it, with a wrapper that
records a span (name, start, end, parent) in memory. `uninstall` puts the
originals back, so untraced rounds run the program untouched.

Calls to the nn operators made from `models.run_layers` are also tagged with
the layer they compute, found by walking the bundle's layer list in order;
a ReLU is charged to the layer that owns it. `reduce` turns one round's
spans into self times, counts and per-layer milliseconds per patch.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = ("wavio", "frontend", "nn", "models", "bundle", "transfer", "evaluation", "cli")
MB = float(1 << 20)

_NN_KIND = {"nn.conv2d_same": "conv", "nn.batchnorm_infer": "batchnorm",
            "nn.maxpool_2x2": "maxpool", "nn.global_avg_pool": "global_avg_pool",
            "nn.dense": "dense"}
_ARCH = {"aug_vggish": "aug", "fcn_vggish": "fcn"}
_SCORE = ("evaluation.score_stream", "evaluation.score_spectrogram")

# Self-time groups reported per round: metric -> functions whose self time it sums.
_GROUPS = {
    "wavio.decode_s": ("wavio.decode_wav",),
    "frontend.resample_s": ("frontend.resample_to_16k",),
    "frontend.logmel_s": ("frontend.log_mel_spectrogram",),
    "frontend.patch_s": ("frontend.extract_patches", "frontend.patch_at_frame"),
    "bundle.read_s": ("bundle.read_container", "bundle.load_spectrogram"),
    "bundle.write_s": ("bundle.write_container", "bundle.save_spectrogram", "bundle.save_bundle"),
    "models.forward_s": ("models.run_layers", "models.forward_logits", "models.forward_probs",
                         "models.forward_embedding"),
    "nn.conv2d_s": ("nn.conv2d_same",),
    "nn.batchnorm_s": ("nn.batchnorm_infer",),
    "nn.maxpool_s": ("nn.maxpool_2x2",),
    "nn.dense_s": ("nn.dense",),
    "nn.gap_s": ("nn.global_avg_pool",),
    "nn.relu_s": ("nn.relu",),
    "transfer.train_head_s": ("transfer.train_head",),
    "transfer.evaluate_head_s": ("transfer.evaluate_head",),
    "transfer.extract_s": ("transfer.extract_embeddings",),
    "evaluation.score_s": _SCORE,
    "evaluation.merge_s": ("evaluation.merge_events",),
    "evaluation.metrics_s": ("evaluation.accuracy_f1", "evaluation.pr_curve"),
}
_COUNTS = ("wavio.mb_decoded", "frontend.frames", "bundle.mb_read", "bundle.mb_written",
           "models.forwards", "models.patches", "nn.conv_gflop", "transfer.sgd_steps",
           "evaluation.seconds_scored")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self._originals = {}  # qualified name -> function
        self._installed = []  # (module, attribute, original)
        self._stack = []      # open span indices
        self._layer_ctx = []  # [arch, layers, cursor, last tag, span] per open run_layers
        self.reset()
        for short in MODULES:
            module = sys.modules[f"sawnet.{short}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and not attr.startswith("_") \
                        and fn.__module__ == module.__name__:
                    self._originals[f"{short}.{attr}"] = fn

    def reset(self) -> None:
        self.spans = []        # [name, start, end, parent]
        self.tags = {}         # span index -> "aug.conv1"
        self.counts = defaultdict(float)
        self.loads = []        # (self-timed span index, traced peak MB) per load_bundle

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "sawnet" and not modname.startswith("sawnet."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent])
            stack.append(index)
            tracer._enter(name, index, parent, args, kwargs)
            peak = name == "bundle.load_bundle" and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if peak:
                    tracer.loads.append((index, tracemalloc.get_traced_memory()[1] / MB))
                    tracemalloc.stop()
                stack.pop()
                spans[index][1:3] = [start, end]
                if name == "models.run_layers":
                    tracer._layer_ctx.pop()
            tracer._count(name, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _enter(self, name, index, parent, args, kwargs):
        if name == "models.run_layers":
            bundle = _arg(args, kwargs, 0, "bundle")
            self._layer_ctx.append([_ARCH.get(bundle.spec.arch_id, bundle.spec.arch_id),
                                    bundle.spec.layers, 0, None, index])
        elif self._layer_ctx and self._layer_ctx[-1][4] == parent and name.startswith("nn."):
            ctx = self._layer_ctx[-1]
            if name == "nn.relu":
                tag = ctx[3]
            elif name in _NN_KIND:
                layers, cursor = ctx[1], ctx[2]
                while cursor < len(layers) and layers[cursor].kind != _NN_KIND[name]:
                    cursor += 1
                if cursor == len(layers):
                    return
                tag = ctx[3] = f"{ctx[0]}.{layers[cursor].name}"
                ctx[2] = cursor + 1
            else:
                return
            self.tags[index] = tag

    def _count(self, name, parent, args, kwargs, result):
        c = self.counts
        if name == "wavio.decode_wav":
            c["wavio.mb_decoded"] += len(_arg(args, kwargs, 0, "data")) / MB
        elif name == "frontend.log_mel_spectrogram":
            c["frontend.frames"] += result.num_frames
        elif name == "bundle.read_container":
            c["bundle.mb_read"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / MB
        elif name == "bundle.write_container":
            c["bundle.mb_written"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / MB
        elif name == "models.run_layers":
            x = _arg(args, kwargs, 1, "x")
            arch = _ARCH.get(_arg(args, kwargs, 0, "bundle").spec.arch_id, "other")
            batch = x.shape[0] if getattr(x, "ndim", 3) == 4 else 1
            c["models.forwards"] += 1
            c["models.patches"] += batch
            c[f"patches.{arch}"] += batch
        elif name == "nn.conv2d_same":
            x, p = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "p")
            c_in, h, w = x.shape[-3:]
            batch = x.shape[0] if x.ndim == 4 else 1
            out_ch, _, k, _ = p.kernels.shape
            c["nn.conv_gflop"] += 2.0 * batch * h * w * c_in * k * k * out_ch / 1e9
        elif name == "transfer.train_head":
            train, cfg = _arg(args, kwargs, 0, "train"), _arg(args, kwargs, 1, "cfg")
            c["transfer.sgd_steps"] += cfg.epochs * math.ceil(len(train.items) / cfg.batch_size)
        elif name in _SCORE and (parent < 0 or self.spans[parent][0] not in _SCORE):
            c["evaluation.seconds_scored"] += len(result)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def reduce(self) -> dict[str, float]:
        """Per-round self times (s), counts and per-layer ms per patch of this round."""
        own = self.self_times()
        by_name = defaultdict(float)
        by_module = defaultdict(float)
        layer_s = defaultdict(float)
        for (name, start, end, _), s in zip(self.spans, own):
            by_name[name] += s
            by_module[name.split(".", 1)[0]] += s
        for index, tag in self.tags.items():
            _, start, end, _ = self.spans[index]
            layer_s[tag] += end - start
        out = {metric: sum(by_name[f] for f in funcs) for metric, funcs in _GROUPS.items()}
        out.update({f"{m}.self_s": by_module[m] for m in MODULES})
        out.update({name: self.counts[name] for name in _COUNTS})
        out["models.patches_per_forward"] = (self.counts["models.patches"]
                                             / max(self.counts["models.forwards"], 1))
        out["nn.conv_gflop_per_s"] = self.counts["nn.conv_gflop"] / max(out["nn.conv2d_s"], 1e-12)
        for tag, seconds in layer_s.items():
            arch = tag.split(".", 1)[0]
            out[f"models.{tag}_ms"] = 1e3 * seconds / max(self.counts[f"patches.{arch}"], 1)
        out["trace.spans"] = len(self.spans)
        return out

    def load_stats(self) -> list[tuple[float, float]]:
        """(self seconds, traced peak MB) of each load_bundle call recorded so far."""
        own = self.self_times()
        return [(own[index], peak) for index, peak in self.loads]


def metric_names() -> list[str]:
    """Names `reduce` and the load statistics can produce, apart from per-layer ones."""
    return [*_GROUPS, *(f"{m}.self_s" for m in MODULES), *_COUNTS,
            "models.patches_per_forward", "nn.conv_gflop_per_s", "trace.spans",
            "bundle.load_s", "bundle.load_peak_mb", "trace.overhead_pct"]
