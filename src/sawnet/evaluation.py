"""Per-second detection scoring and the metric suite (accuracy, macro F1, PR).

A detector run scores every whole second of a clip with the probability of
the positive class, merges above-threshold seconds into events (optionally
bridging short dips), and is summarized by a precision-recall curve with
step-interpolated average precision. `score_stream` goes through a clip one
batch of seconds at a time, so its memory does not grow with the clip's
length, and its scores are bit-identical to `score_spectrogram` on the whole
clip's log-mel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import ConfigError, TooShort, UndefinedMetric
from .frontend import (
    FRAME_HOP,
    FRAME_LEN,
    PATCH_FRAMES,
    SAMPLE_RATE,
    AudioClip,
    AudioSource,
    LogMelSpectrogram,
    extract_patches,
    log_mel_spectrogram,
    resample_to_16k,
    resampled_length,
)
from .models import WeightBundle, batch_size, forward_batch
from .nn import softmax

FRAMES_PER_SECOND = 100  # 10 ms hop
_PATCH_SAMPLES = FRAME_LEN + (PATCH_FRAMES - 1) * FRAME_HOP  # 16 kHz samples under one patch


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


def _positive_probabilities(logits: np.ndarray, positive_class: int) -> list[float]:
    """P(positive class) per row of ``[B, K]`` logits."""
    check_positive_class(positive_class, logits.shape[1])
    return softmax(logits)[:, positive_class].tolist()


def _score_seconds(bundle: WeightBundle, spec: LogMelSpectrogram, count: int,
                   positive_class: int, clip_id: str, first: int = 0) -> list[SecondScore]:
    """Scores of seconds ``first, ..., first + count - 1``, whose patches start at
    frames 0, 100, ... of `spec`, from one `forward_batch`."""
    patches = extract_patches(spec, FRAMES_PER_SECOND, count)
    probabilities = _positive_probabilities(forward_batch(bundle, patches), positive_class)
    return [SecondScore(clip_id=clip_id, second_index=first + s, probability=p)
            for s, p in enumerate(probabilities)]


def score_spectrogram(
    bundle: WeightBundle,
    spec: LogMelSpectrogram,
    positive_class: int,
    clip_id: str = "",
) -> list[SecondScore]:
    """One SecondScore per whole second of an already-computed spectrogram.

    Seconds are counted by `LogMelSpectrogram.whole_seconds`, so a clip gets
    the same count from its WAV and from its featurized container. All of a
    clip's patches go through one `forward_batch`.
    """
    seconds = spec.whole_seconds
    if seconds < 1:
        raise TooShort(f"spectrogram {clip_id or spec.source_id!r} covers less than one second")
    return _score_seconds(bundle, spec, seconds, positive_class, clip_id or spec.source_id)


def score_stream(bundle: WeightBundle, clip: AudioSource, positive_class: int) -> list[SecondScore]:
    """Score each whole second of a clip with P(positive class), softmax at `positive_class`.

    `clip` is an AudioClip or a source read by range, such as a
    `wavio.WavReader` on a file. Second s is scored from the 96-frame patch at
    its first frame, which covers 16 kHz samples ``[16000 s, 16000 s + 15600)``.
    Seconds go in blocks of `models.batch_size(bundle)`: each block resamples
    its own range of the clip, computes the frames its patches use and makes
    one `forward_batch` call, so memory is bounded by one block. The forward
    chunks are those of `score_spectrogram` on the whole clip's log-mel, and
    the scores are bit-identical to it. The blocks' 16 kHz ranges tile the
    clip up to its end, so every input sample is read: a bad sample anywhere
    in a file fails the whole clip, as `wavio.decode_wav` would.
    """
    num_samples = resampled_length(clip.num_samples, clip.sample_rate)
    seconds = num_samples // SAMPLE_RATE
    if seconds < 1:
        raise TooShort(f"clip {clip.source_id!r} is shorter than one second")
    step = batch_size(bundle)
    scores: list[SecondScore] = []
    for first in range(0, seconds, step):
        count = min(step, seconds - first)
        stop = num_samples if first + count == seconds else (first + count) * SAMPLE_RATE
        block = resample_to_16k(clip, first * SAMPLE_RATE, stop).samples
        used = AudioClip(block[:(count - 1) * SAMPLE_RATE + _PATCH_SAMPLES], SAMPLE_RATE)
        scores += _score_seconds(bundle, log_mel_spectrogram(used), count, positive_class,
                                 clip.source_id, first)
    return scores


def merge_events(
    scores: Sequence[SecondScore], threshold: float, max_gap_s: int = 0
) -> list[DetectionEvent]:
    """Merge above-threshold seconds into events.

    Consecutive qualifying seconds form one event; runs separated by at most
    `max_gap_s` below-threshold seconds are bridged into a single event. The
    peak probability is the maximum over the event's span.
    """
    if max_gap_s < 0:
        raise ConfigError("max_gap_s must be >= 0")
    events: list[DetectionEvent] = []
    for clip_id, group in groupby(scores, key=lambda s: s.clip_id):
        clip_scores = list(group)
        by_second = {s.second_index: s.probability for s in clip_scores}
        above = [s.second_index for s in clip_scores if s.probability >= threshold]
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
    return sorted(events, key=lambda e: (e.clip_id, e.start_s))


def _make_event(clip_id: str, start: int, last: int, by_second: dict[int, float]) -> DetectionEvent:
    peak = max(by_second[s] for s in range(start, last + 1) if s in by_second)
    return DetectionEvent(clip_id=clip_id, start_s=start, end_s=last + 1, peak_probability=peak)


def pr_curve(scored: Sequence[tuple[float, int]]) -> PRCurve:
    """Precision-recall curve over all distinct score thresholds, descending.

    Tied scores are processed as a single threshold step, so the curve does
    not depend on input order. Average precision is the step-interpolated sum
    sum_i (R_i - R_{i-1}) * P_i, accumulated in exact rational arithmetic and
    rounded once at the end.
    """
    if not scored:
        raise UndefinedMetric("cannot compute a PR curve on an empty input")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
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


def write_pr_csv(path, curve: PRCurve) -> None:
    """CSV dump: threshold,precision,recall rows plus an AP comment line."""
    lines = ["threshold,precision,recall"]
    lines += [f"{t:.6f},{p:.6f},{r:.6f}" for t, p, r in curve.points]
    lines.append(f"# average_precision={curve.average_precision:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
