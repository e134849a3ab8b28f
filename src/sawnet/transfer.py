"""Head-only transfer learning on cached embeddings.

The backbone stays frozen: each clip is reduced to the mean of its patch
embeddings once, and a dense softmax head is trained on those vectors by
mini-batch SGD. k-fold cross-validation trains one head per held-out fold.

All randomness (head init, shuffling) comes from TrainConfig.seed, and items
are ordered by clip_id before training, so results do not depend on input
order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import bundle as bundle_io
from .errors import ConfigError, ParseError, SawnetError, ValidationError
from .evaluation import accuracy_f1
from .frontend import AudioClip, extract_patches, log_mel_spectrogram, resample_to_16k
from .models import WeightBundle, forward_embedding
from .nn import DenseParams, dense, log_softmax, softmax


@dataclass(frozen=True)
class EmbeddingItem:
    clip_id: str
    fold: int
    label: int
    vector: np.ndarray


@dataclass(frozen=True)
class EmbeddingSet:
    """Per-clip embeddings with fold assignments and integer labels."""

    items: tuple[EmbeddingItem, ...]
    dim: int
    num_classes: int

    def __post_init__(self):
        for item in self.items:
            if item.vector.shape != (self.dim,):
                raise ValidationError(
                    f"clip {item.clip_id!r}: embedding shape {item.vector.shape} != ({self.dim},)"
                )
            if not 0 <= item.label < self.num_classes:
                raise ValidationError(f"clip {item.clip_id!r}: label {item.label} out of range")
            if item.fold < 1:
                raise ValidationError(f"clip {item.clip_id!r}: fold must be >= 1")

    def subset(self, keep) -> "EmbeddingSet":
        return EmbeddingSet(
            items=tuple(i for i in self.items if keep(i)),
            dim=self.dim,
            num_classes=self.num_classes,
        )


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 50
    seed: int = 42
    l2: float = 1e-4

    def __post_init__(self):
        # learning_rate 0 is allowed as an explicit no-op (probe runs);
        # NaN fails every comparison, so finiteness is checked explicitly
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not all(_is_int(v) and v >= 1 for v in (self.batch_size, self.epochs)):
            raise ConfigError(f"batch_size and epochs must be integers >= 1, "
                              f"got {self.batch_size!r} and {self.epochs!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")


@dataclass(frozen=True)
class ClipScore:
    clip_id: str
    predicted: int
    true: int
    probabilities: np.ndarray


@dataclass(frozen=True)
class FoldResult:
    fold: int
    accuracy: float
    macro_f1: float
    per_clip_scores: tuple[ClipScore, ...]


def extract_embeddings(
    bundle: WeightBundle,
    clips: Iterable[tuple[AudioClip, int, int]],
    num_classes: int | None = None,
) -> tuple[EmbeddingSet, list[tuple[str, str]]]:
    """Embed labeled clips: mean of all 96-frame patch embeddings per clip.

    `clips` yields (clip, label, fold) triples. Clips that fail with a
    SawnetError (bad audio, too short) are skipped and reported in the
    returned error list instead of aborting the batch; any other exception is
    a bug and propagates. Items come back sorted by clip_id.
    """
    rows: list[EmbeddingItem] = []
    errors: list[tuple[str, str]] = []
    labels_seen: list[int] = []
    for clip, label, fold in clips:
        try:
            patches = extract_patches(log_mel_spectrogram(resample_to_16k(clip)))
            rows.append(EmbeddingItem(
                clip_id=clip.source_id,
                fold=int(fold),
                label=int(label),
                vector=forward_embedding(bundle, patches).mean(axis=0),
            ))
            labels_seen.append(int(label))
        except SawnetError as e:  # per-clip failure policy; bugs propagate
            errors.append((clip.source_id, f"{type(e).__name__}: {e}"))
    rows.sort(key=lambda item: item.clip_id)
    if num_classes is None:
        num_classes = max(labels_seen, default=0) + 1
    eset = EmbeddingSet(items=tuple(rows), dim=bundle.spec.embedding_dim,
                        num_classes=num_classes)
    return eset, errors


def _design_matrix(eset: EmbeddingSet) -> tuple[np.ndarray, np.ndarray, list[str]]:
    items = sorted(eset.items, key=lambda i: i.clip_id)
    x = np.stack([i.vector for i in items], dtype=np.float64)
    y = np.array([i.label for i in items], dtype=np.int64)
    return x, y, [i.clip_id for i in items]


def train_head(train: EmbeddingSet, cfg: TrainConfig) -> DenseParams:
    """Train the dense softmax head by mini-batch SGD.

    Objective: mean cross-entropy plus (l2/2)*||W||^2; biases are not
    regularized. Weights start uniform in +-sqrt(6 / (fan_in + fan_out)),
    biases at zero. Returns the parameters after the final epoch.

    Each step is w <- (1 - lr*l2)*w - lr*dCE/dw and b <- b - lr*dCE/db, the
    plain SGD step on that objective with its L2 term written as a decay: the
    weights decay in place, lr scales the small [batch, classes] error before
    the weight gradient is formed, and that gradient goes into one buffer
    reused by every step. Up to rounding (about 1e-14 on the weights) this is
    w <- w - lr*(dCE/dw + l2*w); the objective is unchanged.
    """
    if not train.items:
        raise ConfigError("training set is empty")
    x, y, _ = _design_matrix(train)
    n, d = x.shape
    k = train.num_classes
    lr = cfg.learning_rate
    rng = np.random.default_rng(cfg.seed)
    limit = np.sqrt(6.0 / (d + k))
    w = rng.uniform(-limit, limit, size=(k, d))
    b = np.zeros(k)
    grad = np.empty_like(w)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            step = softmax(xb @ w.T + b)
            step[np.arange(len(idx)), yb] -= 1.0
            step *= lr / len(idx)
            w *= 1.0 - lr * cfg.l2
            w -= np.matmul(step.T, xb, out=grad)
            b -= step.sum(axis=0)
    return DenseParams(weights=w, bias=b)


def head_loss(params: DenseParams, eset: EmbeddingSet, l2: float = 0.0) -> float:
    """Mean cross-entropy of the head on a set, plus the L2 penalty."""
    x, y, _ = _design_matrix(eset)
    log_probs = log_softmax(x @ params.weights.T + params.bias)
    ce = -float(np.mean(log_probs[np.arange(len(y)), y]))
    return ce + 0.5 * l2 * float(np.sum(params.weights.astype(np.float64) ** 2))


def evaluate_head(params: DenseParams, eset: EmbeddingSet) -> tuple[float, float, tuple[ClipScore, ...]]:
    """Score a head on a set: (accuracy, macro F1, per-clip scores)."""
    if not eset.items:
        raise ConfigError("evaluation set is empty")
    x, y, clip_ids = _design_matrix(eset)
    probs = softmax(dense(x, params))
    scores = tuple(
        ClipScore(clip_id=c, predicted=int(np.argmax(p)), true=int(t), probabilities=p)
        for c, t, p in zip(clip_ids, y, probs)
    )
    accuracy, macro_f1 = accuracy_f1([(s.predicted, s.true) for s in scores], eset.num_classes)
    return accuracy, macro_f1, scores


def run_cv(eset: EmbeddingSet, k: int, cfg: TrainConfig) -> tuple[list[FoldResult], float]:
    """k-fold cross-validation: train on folds != f, evaluate on fold f.

    Returns per-fold results and the unweighted mean accuracy across folds.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    folds_present = {item.fold for item in eset.items}
    if any(f < 1 or f > k for f in folds_present):
        raise ConfigError(f"fold ids {sorted(folds_present)} outside [1, {k}]")
    missing = set(range(1, k + 1)) - folds_present
    if missing:
        raise ConfigError(f"folds with zero items: {sorted(missing)}")
    results = []
    for fold in range(1, k + 1):
        params = train_head(eset.subset(lambda i, f=fold: i.fold != f), cfg)
        accuracy, macro_f1, scores = evaluate_head(params, eset.subset(lambda i, f=fold: i.fold == f))
        results.append(FoldResult(fold=fold, accuracy=accuracy, macro_f1=macro_f1,
                                  per_clip_scores=scores))
    mean_accuracy = float(np.mean([r.accuracy for r in results]))
    return results, mean_accuracy


_ESC50_NAME = re.compile(r"^(\d+)-([A-Za-z0-9]+)-([A-Za-z0-9]+)-(\d+)\.wav$")


def assign_esc50_fold(filename: str) -> int:
    """Fold id from an ESC-50 style FOLD-SOURCE-TAKE-CLASS.wav filename."""
    name = filename.replace("\\", "/").rsplit("/", 1)[-1]
    match = _ESC50_NAME.match(name)
    if match is None:
        raise ParseError(f"{filename!r} does not match FOLD-SOURCE-TAKE-CLASS.wav")
    return int(match.group(1))


def save_embeddings(path, eset: EmbeddingSet) -> None:
    """Persist an EmbeddingSet as a CSNW container, one tensor per clip."""
    header = {
        "kind": "embeddings",
        "dim": eset.dim,
        "num_classes": eset.num_classes,
        "clips": {i.clip_id: {"fold": i.fold, "label": i.label} for i in eset.items},
    }
    bundle_io.write_container(path, header, {i.clip_id: i.vector for i in eset.items})


def load_embeddings(path) -> EmbeddingSet:
    header, tensors = bundle_io.read_container(path)
    clips = header.get("clips")
    dim = header.get("dim")
    num_classes = header.get("num_classes")
    if not isinstance(clips, dict) or not _is_int(dim) or not _is_int(num_classes):
        raise ValidationError("embedding container must declare clips, dim and num_classes")
    items = []
    for clip_id in sorted(clips):
        meta = clips[clip_id]
        if clip_id not in tensors:
            raise ValidationError(f"clip {clip_id!r} listed in header but has no tensor")
        if not (isinstance(meta, dict) and all(_is_int(meta.get(k)) for k in ("fold", "label"))):
            raise ValidationError(f"clip {clip_id!r}: needs integer fold and label, got {meta!r}")
        items.append(EmbeddingItem(clip_id, meta["fold"], meta["label"], tensors[clip_id]))
    return EmbeddingSet(items=tuple(items), dim=dim, num_classes=num_classes)
