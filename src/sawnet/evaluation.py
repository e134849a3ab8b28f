"""Per-second detection scoring and the metric suite (accuracy, macro F1, PR).

A detector run scores every whole second of a clip with the probability of
the positive class, merges above-threshold seconds into events (optionally
bridging short dips), and is summarized by a precision-recall curve with
step-interpolated average precision. `score_stream` goes through a clip one
batch of seconds at a time, so its memory does not grow with the clip's
length. A clip is any `frontend.Source`, a WAV read by range or a loaded
feature container alike, so the same audio gets the same scores in either
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, TooShort, UndefinedMetric
from .frontend import FRAMES_PER_SECOND, LogMelSpectrogram, Source, whole_seconds
from .models import WeightBundle, forward_batch
from .nn import softmax
from .workers import forward_blocks


@dataclass(frozen=True)
class SecondScore:
    clip_id: str
    second_index: int
    probability: float


@dataclass(frozen=True)
class DetectionEvent:
    clip_id: str
    start_s: int
    end_s: int  # exclusive
    peak_probability: float


@dataclass(frozen=True)
class PRCurve:
    points: tuple[tuple[float, float, float], ...]  # (threshold, precision, recall)
    average_precision: float


def check_positive_class(positive_class: int, num_classes: int) -> None:
    """Reject a positive class outside ``[0, num_classes)``."""
    if not 0 <= positive_class < num_classes:
        raise ConfigError(
            f"positive_class {positive_class} out of range for {num_classes} classes"
        )


def score_spectrogram(
    bundle: WeightBundle,
    spec: LogMelSpectrogram,
    positive_class: int,
    clip_id: str = "",
) -> list[SecondScore]:
    """`score_stream` on a spectrogram, its scores named `clip_id` if given."""
    return score_stream(bundle, replace(spec, source_id=clip_id or spec.source_id), positive_class)


def score_stream(bundle: WeightBundle, clip: Source, positive_class: int) -> list[SecondScore]:
    """Score each whole second of a clip with P(positive class), softmax at `positive_class`.

    `clip` is an AudioClip, a source read by range such as a `wavio.WavReader`
    on a file, or a loaded `LogMelSpectrogram`. It has `frontend.whole_seconds`
    seconds, so a clip gets the same count from its WAV and from its
    featurized container. Second s is scored from the 96-frame patch at its
    first frame, which covers 16 kHz samples ``[16000 s, 16000 s + 15600)``.
    The patches come from `frontend.patch_blocks` in blocks of
    `bundle.plan[0].per_call` seconds, one `forward_batch` call each, so
    memory is bounded by a fixed number of blocks, and the scores are
    bit-identical to one forward over the whole clip's patches. Every input
    sample is read: a bad sample anywhere in a file fails the whole clip, as
    `wavio.decode_wav` would.

    The blocks run through `workers.forward_blocks`: in this process until the
    bundle has forwarded as many patches here as starting its pool of worker
    processes costs, then, for clips of two or more blocks, on that pool,
    which resamples, takes the log-mel of and forwards contiguous runs of
    seconds in parallel and gives the same scores bit for bit.
    """
    seconds = whole_seconds(clip)
    if seconds < 1:
        raise TooShort(f"clip {clip.source_id!r} is shorter than one second")
    scores: list[SecondScore] = []
    for logits in forward_blocks(bundle, clip, FRAMES_PER_SECOND, seconds, forward_batch):
        first = len(scores)
        check_positive_class(positive_class, logits.shape[1])
        probabilities = softmax(logits)[:, positive_class].tolist()
        scores += [SecondScore(clip.source_id, first + s, p) for s, p in enumerate(probabilities)]
    return scores


def merge_events(
    scores: Sequence[SecondScore], threshold: float, max_gap_s: int = 0
) -> list[DetectionEvent]:
    """Merge above-threshold seconds into events, sorted by (clip_id, start_s).

    Scores are grouped by clip and ordered by second, so their input order
    does not matter; a second scored twice in one clip, or a non-finite
    threshold, is a ConfigError. Consecutive qualifying seconds form one event;
    runs separated by at most `max_gap_s` below-threshold seconds are bridged
    into a single event. The peak probability is the maximum over the event's
    span.
    """
    if max_gap_s < 0:
        raise ConfigError("max_gap_s must be >= 0")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    clips: dict[str, dict[int, float]] = {}
    for score in scores:
        by_second = clips.setdefault(score.clip_id, {})
        if score.second_index in by_second:
            raise ConfigError(f"clip {score.clip_id!r} scores second {score.second_index} twice")
        by_second[score.second_index] = score.probability
    events: list[DetectionEvent] = []
    for clip_id, by_second in sorted(clips.items()):
        above = sorted(second for second, p in by_second.items() if p >= threshold)
        if not above:
            continue
        start = prev = above[0]
        for second in above[1:]:
            if second - prev - 1 <= max_gap_s:
                prev = second
                continue
            events.append(_make_event(clip_id, start, prev, by_second))
            start = prev = second
        events.append(_make_event(clip_id, start, prev, by_second))
    return events


def _make_event(clip_id: str, start: int, last: int, by_second: dict[int, float]) -> DetectionEvent:
    peak = max(by_second[s] for s in range(start, last + 1) if s in by_second)
    return DetectionEvent(clip_id=clip_id, start_s=start, end_s=last + 1, peak_probability=peak)


def pr_curve(scored: Sequence[tuple[float, int]]) -> PRCurve:
    """Precision-recall curve over all distinct score thresholds, descending.

    Tied scores are processed as a single threshold step, so the curve does
    not depend on input order; a non-finite score is a ConfigError. Average
    precision is the step-interpolated sum sum_i (R_i - R_{i-1}) * P_i,
    accumulated in exact rational arithmetic and rounded once at the end.
    """
    if not scored:
        raise UndefinedMetric("cannot compute a PR curve on an empty input")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ConfigError("scores must be finite")
    labels = np.array([int(bool(l)) for _, l in scored], dtype=np.int64)
    total_pos = int(labels.sum())
    if total_pos == 0:
        raise UndefinedMetric("recall is undefined with zero positive examples")
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    # last index of each tie group = one threshold step
    distinct = np.nonzero(np.append(np.diff(scores) != 0, True))[0]
    tp = np.cumsum(labels)[distinct]
    predicted = distinct + 1
    points = tuple(
        (float(scores[i]), t / p, t / total_pos)
        for i, t, p in zip(distinct, tp.tolist(), predicted.tolist())
    )
    average_precision = Fraction(0)
    prev_tp = 0
    for t, p in zip(tp.tolist(), predicted.tolist()):
        average_precision += Fraction(t - prev_tp, total_pos) * Fraction(t, p)
        prev_tp = t
    return PRCurve(points=points, average_precision=float(average_precision))


def accuracy_f1(predictions: Sequence[tuple[int, int]], num_classes: int) -> tuple[float, float]:
    """Accuracy and macro F1 over (predicted, true) pairs.

    Per-class F1 is 2PR/(P+R), taken as 0 when P + R = 0; macro F1 averages
    over all `num_classes` classes.
    """
    if not predictions:
        raise ConfigError("cannot score an empty prediction list")
    pred = np.array([p for p, _ in predictions], dtype=np.int64)
    true = np.array([t for _, t in predictions], dtype=np.int64)
    if pred.min() < 0 or true.min() < 0 or pred.max() >= num_classes or true.max() >= num_classes:
        raise ConfigError(f"labels outside [0, {num_classes})")
    accuracy = float(np.mean(pred == true))
    confusion = np.bincount(pred * num_classes + true, minlength=num_classes**2)
    confusion = confusion.reshape(num_classes, num_classes).astype(np.float64)
    tp = np.diag(confusion)
    predicted_per_class = confusion.sum(axis=1)
    true_per_class = confusion.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(predicted_per_class > 0, tp / predicted_per_class, 0.0)
        r = np.where(true_per_class > 0, tp / true_per_class, 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return accuracy, float(f1.mean())

