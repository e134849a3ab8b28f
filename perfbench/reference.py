"""Reference computations the benchmark checks the program against.

Everything here is written apart from the program and shares none of its
code: the layer tables are spelled out again, convolution accumulates the
k*k taps by shifted slices (the program uses im2col), batch norm is applied
as its textbook formula, the log-mel uses one FFT per frame, and event
merging and average precision are computed by exhaustive search.
"""

from __future__ import annotations

import numpy as np

# (name, kind, in, out, relu) in forward order; kind is conv, bn, pool, gap or dense.
_CONV_STACK = [
    ("conv1", "conv", 1, 64, False), ("bn1", "bn", 64, 64, True), ("pool1", "pool", 0, 0, False),
    ("conv2", "conv", 64, 128, False), ("bn2", "bn", 128, 128, True),
    ("pool2", "pool", 0, 0, False),
    ("conv3", "conv", 128, 256, False), ("bn3", "bn", 256, 256, True),
    ("conv4", "conv", 256, 256, False), ("bn4", "bn", 256, 256, True),
    ("pool3", "pool", 0, 0, False),
    ("conv5", "conv", 256, 512, False), ("bn5", "bn", 512, 512, True),
    ("conv6", "conv", 512, 512, False), ("bn6", "bn", 512, 512, True),
    ("pool4", "pool", 0, 0, False),
]


def aug_layers(num_classes: int) -> list[tuple]:
    return _CONV_STACK + [
        ("gap", "gap", 0, 0, False),
        ("fc1", "dense", 512, 256, True),
        ("head", "dense", 256, num_classes, False),
    ]


def fcn_layers(num_classes: int) -> list[tuple]:
    return _CONV_STACK + [
        ("pool5", "pool", 0, 0, False),
        ("conv7", "conv", 512, 1024, False), ("bn7", "bn", 1024, 1024, True),
        ("conv8", "conv", 1024, 1024, False), ("bn8", "bn", 1024, 1024, True),
        ("clf", "conv", 1024, num_classes, False),
        ("gap", "gap", 0, 0, False),
    ]


def fold_layers(layers: list[tuple]) -> list[tuple]:
    """Layer table after batch norm is absorbed into the conv before it."""
    out: list[tuple] = []
    for layer in layers:
        if layer[1] == "bn":
            name, kind, cin, cout, _ = out[-1]
            out[-1] = (name, kind, cin, cout, layer[4])
        else:
            out.append(layer)
    return out


def conv_same(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded convolution, one shifted slice per kernel tap."""
    c, h, w = x.shape
    k = kernels.shape[2]
    pad = k // 2
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.empty((kernels.shape[0], h, w))
    out[:] = bias.astype(np.float64)[:, None, None]
    kern = kernels.astype(np.float64)
    for dy in range(k):
        for dx in range(k):
            tap = xp[:, dy:dy + h, dx:dx + w].reshape(c, h * w)
            out += (kern[:, :, dy, dx] @ tap).reshape(-1, h, w)
    return out


def forward(params: dict, layers: list[tuple], patch: np.ndarray,
            epsilon: float = 1e-5, stop_after: str | None = None) -> np.ndarray:
    """float64 forward of one [frames, 64] patch; returns logits or a stopped layer."""
    x = np.asarray(patch, dtype=np.float64)[None, :, :]
    for name, kind, _, _, relu in layers:
        if kind == "conv":
            x = conv_same(x, params[f"{name}/kernels"], params[f"{name}/bias"])
        elif kind == "bn":
            g, b, m, v = (params[f"{name}/{s}"].astype(np.float64)
                          for s in ("gamma", "beta", "mean", "var"))
            x = g[:, None, None] * (x - m[:, None, None]) / np.sqrt(v[:, None, None] + epsilon) \
                + b[:, None, None]
        elif kind == "pool":
            c, h, w = x.shape
            x = np.maximum.reduce([x[:, i:2 * (h // 2):2, j:2 * (w // 2):2]
                                   for i in (0, 1) for j in (0, 1)])
        elif kind == "gap":
            x = x.reshape(x.shape[0], -1).mean(axis=1)
        elif kind == "dense":
            x = params[f"{name}/weights"].astype(np.float64) @ x \
                + params[f"{name}/bias"].astype(np.float64)
        if relu:
            x = np.where(x > 0, x, 0.0)
        if name == stop_after:
            return x
    return x


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def htk_filterbank(num_bands: int = 64, n_fft: int = 512, sample_rate: int = 16000,
                   fmin: float = 125.0, fmax: float = 7500.0) -> np.ndarray:
    """Triangles on the HTK mel axis, mel = 1127 ln(1 + f/700), peak height 1."""
    def mel(f):
        return 1127.0 * np.log(1.0 + f / 700.0)
    bins = n_fft // 2 + 1
    bin_mel = [mel(j * sample_rate / n_fft) for j in range(bins)]
    lo, hi = mel(fmin), mel(fmax)
    corners = [lo + (hi - lo) * i / (num_bands + 1) for i in range(num_bands + 2)]
    fb = np.zeros((num_bands, bins))
    for m in range(num_bands):
        left, centre, right = corners[m], corners[m + 1], corners[m + 2]
        for j, bm in enumerate(bin_mel):
            if left < bm <= centre:
                fb[m, j] = (bm - left) / (centre - left)
            elif centre < bm < right:
                fb[m, j] = (right - bm) / (right - centre)
    return fb


def log_mel(samples16k: np.ndarray) -> np.ndarray:
    """ln(mel energy + 0.01) of 400-sample periodic-Hann frames every 160 samples."""
    x = np.asarray(samples16k, dtype=np.float64)
    window = np.array([0.5 - 0.5 * np.cos(2.0 * np.pi * i / 400) for i in range(400)])
    fb = htk_filterbank()
    rows = []
    start = 0
    while start + 400 <= len(x):
        spectrum = np.fft.rfft(x[start:start + 400] * window, n=512)
        rows.append(fb @ (np.abs(spectrum) ** 2))
        start += 160
    return np.log(np.array(rows) + 0.01)


def merge_events(probs: list[float], threshold: float, max_gap: int) -> list[tuple]:
    """Maximal spans whose ends are above threshold and whose gaps are short.

    Every (start, last) pair is tried; a pair is an event when both ends
    qualify, no run of non-qualifying seconds inside is longer than
    `max_gap`, and no qualifying second lies within `max_gap` + 1 outside it.
    """
    n = len(probs)
    up = [p >= threshold for p in probs]
    events = []
    for a in range(n):
        for b in range(a, n):
            if not (up[a] and up[b]):
                continue
            gap, ok = 0, True
            for s in range(a, b + 1):
                gap = 0 if up[s] else gap + 1
                ok = ok and gap <= max_gap
            reach = range(max(0, a - max_gap - 1), a)
            beyond = range(b + 1, min(n, b + max_gap + 2))
            if ok and not any(up[s] for s in reach) and not any(up[s] for s in beyond):
                events.append((a, b + 1, max(probs[a:b + 1])))
    return events


def average_precision(scored: list[tuple[float, int]]) -> float:
    """Sum over distinct thresholds t, high to low, of (R(t) - R(t_prev)) * P(t)."""
    positives = sum(1 for _, label in scored if label)
    ap, prev_recall = 0.0, 0.0
    for t in sorted({s for s, _ in scored}, reverse=True):
        chosen = [label for s, label in scored if s >= t]
        tp = sum(1 for label in chosen if label)
        recall = tp / positives
        ap += (recall - prev_recall) * (tp / len(chosen))
        prev_recall = recall
    return ap
