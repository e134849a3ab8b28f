"""Acceptance gate: one test per release criterion.

Each criterion prints a single PASS/FAIL line with its runtime; run with
``pytest -s tests/test_acceptance.py`` to see them. Runtime budgets are
asserted alongside the functional checks.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_bn_stats, run_cli, unfolded_forward
from sawnet import bundle, evaluation, frontend, models, nn, transfer
from sawnet.errors import FormatError, ValidationError
from sawnet.wavio import encode_wav


@contextmanager
def criterion(tag: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {tag}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] {tag}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"{tag} exceeded its {budget_s}s runtime budget"


def test_c01_parameter_fidelity():
    with criterion("C01 parameter-fidelity", 1.0):
        aug = models.count_params(models.build_aug_vggish(50))
        fcn = models.count_params(models.build_fcn_vggish(50))
        assert aug == 4_647_346
        assert fcn == 18_716_338
        assert abs(aug - 4.7e6) / 4.7e6 < 0.012
        assert abs(fcn - 18.7e6) / 18.7e6 < 0.001


def test_c02_architecture_shape():
    with criterion("C02 architecture-shape", 5.0):
        fcn = models.build_fcn_vggish(50)
        feature_convs = [l for l in fcn.layers if l.kind == "conv" and l.kernel == 3]
        assert len(feature_convs) == 8
        assert not any(l.kind == "dense" for l in fcn.layers)

        aug = models.build_aug_vggish(50)
        layers = aug.layers
        convs = [i for i, l in enumerate(layers) if l.kind == "conv"]
        assert len(convs) == 6
        for i in convs:  # one batch norm per conv, immediately after it
            assert layers[i + 1].kind == "batchnorm"
            assert layers[i + 1].channels == layers[i].out_ch
        assert sum(l.kind == "batchnorm" for l in layers) == 6
        assert sum(l.kind == "global_avg_pool" for l in layers) == 1
        denses = [l for l in layers if l.kind == "dense"]
        assert any(d.out_units == 256 for d in denses)
        assert denses[-1].out_units == 50  # terminal layer is the classifier,
        assert not any(d.out_units == 128 for d in denses)  # not a 128-unit dense


def test_c03_dsp_correctness():
    with criterion("C03 dsp-correctness", 5.0):
        # Parseval identity per frame
        rng = np.random.default_rng(300)
        window = frontend._hann_periodic(frontend.FRAME_LEN)
        for _ in range(25):
            frame = rng.normal(0, 1, frontend.FRAME_LEN) * window
            power = np.abs(np.fft.rfft(frame, n=frontend.N_FFT)) ** 2
            full_spectrum = power[0] + power[-1] + 2.0 * power[1:-1].sum()
            energy = np.sum(frame**2)
            assert abs(energy - full_spectrum / frontend.N_FFT) / energy < 1e-6

        # silence spectrogram is the constant log offset, no drift
        silent = frontend.AudioClip(np.zeros(16000, np.float32), 16000)
        spec = frontend.log_mel_spectrogram(silent)
        assert np.all(spec.frames == math.log(0.01))

        # mel scale pin: 1127 * ln 2 at high precision, checked to 1e-3
        assert abs(frontend.hz_to_mel(700.0) - 1127.0 * math.log(2.0)) < 1e-3

        # framing arithmetic
        assert spec.num_frames == 98


def conv2d_reference(x, kernels, bias):
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = x.shape
    pad = k // 2
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for y in range(h):
            for xx in range(w):
                acc = float(bias[o])
                for c in range(in_ch):
                    for dy in range(k):
                        for dx in range(k):
                            yy, xx2 = y + dy - pad, xx + dx - pad
                            if 0 <= yy < h and 0 <= xx2 < w:
                                acc += kernels[o, c, dy, dx] * x[c, yy, xx2]
                out[o, y, xx] = acc
    return out


def test_c04_nn_oracle_equivalence():
    with criterion("C04 nn-oracle-equivalence", 30.0):
        rng = np.random.default_rng(400)
        for _ in range(50):
            in_ch = int(rng.integers(1, 5))
            out_ch = int(rng.integers(1, 5))
            h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            x = rng.normal(0, 1, (in_ch, h, w))
            kernels = rng.normal(0, 1, (out_ch, in_ch, 3, 3))
            bias = rng.normal(0, 1, out_ch)
            got = nn.conv2d_same(x[None], nn.ConvParams(kernels, bias))[0]
            assert np.abs(got - conv2d_reference(x, kernels, bias)).max() < 1e-6

        # the bundle runs its folded network; the reference applies each batch
        # norm to its conv's output, on the stored tensors
        spec = models.build_aug_vggish(50)
        stored = random_bn_stats(spec, seed=402, init_seed=401)
        folded = models.WeightBundle(spec, dict(stored))
        patches = rng.normal(0, 1, (100, 96, 64))
        a = nn.softmax(np.stack([unfolded_forward(spec, stored, folded.epsilon, p[None])
                                 for p in patches]))
        b = nn.softmax(models.forward_batch(folded, patches))
        assert np.abs(a - b).max() < 1e-4
        assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))


def test_c05_gradient_check():
    with criterion("C05 gradient-check", 5.0):
        # the step train_head applies, read back from one full-batch epoch
        # against its no-op lr=0 probe, is the gradient of head_loss
        rng = np.random.default_rng(500)
        n, d, k, lr, h = 60, 16, 5, 0.5, 1e-5
        eset = transfer.EmbeddingSet(items=tuple(
            transfer.EmbeddingItem(clip_id=f"clip-{i:02d}", fold=1, label=int(rng.integers(k)),
                                   vector=rng.normal(0, 1, d))
            for i in range(n)), dim=d, num_classes=k)
        for l2 in (0.0, 1e-3):
            w0, w1 = (transfer.train_head(eset, transfer.TrainConfig(
                learning_rate=rate, batch_size=n, epochs=1, seed=501, l2=l2)) for rate in (0, lr))
            for name in ("weights", "bias"):
                applied = (getattr(w0, name) - getattr(w1, name)) / lr
                numeric = np.empty_like(applied)
                for i in np.ndindex(applied.shape):
                    losses = []
                    for step in (h, -h):
                        bumped = {"weights": w0.weights.copy(), "bias": w0.bias.copy()}
                        bumped[name][i] += step
                        losses.append(transfer.head_loss(nn.DenseParams(**bumped), eset, l2))
                    numeric[i] = (losses[0] - losses[1]) / (2 * h)
                np.testing.assert_allclose(applied, numeric, rtol=1e-4, atol=1e-7)


def test_c06_transfer_harness():
    with criterion("C06 transfer-harness", 120.0):
        rng = np.random.default_rng(600)
        items = []
        for label in range(50):  # 40 items per class, mirroring the 5-fold benchmark
            for i in range(40):
                vec = rng.normal(0.0, 0.1, 64)
                vec[label] += 2.0
                items.append(transfer.EmbeddingItem(
                    clip_id=f"clip-{label:02d}-{i:02d}", fold=(i % 5) + 1,
                    label=label, vector=vec))
        eset = transfer.EmbeddingSet(items=tuple(items), dim=64, num_classes=50)
        results, mean_accuracy = transfer.run_cv(eset, 5, transfer.TrainConfig())
        assert mean_accuracy >= 0.99
        assert all(len(r.per_clip_scores) == 400 for r in results)

        constant = nn.DenseParams(weights=np.zeros((50, 64)), bias=np.eye(50)[0] * 10.0)
        for fold in range(1, 6):
            accuracy, _, _ = transfer.evaluate_head(
                constant, eset.subset(lambda i, f=fold: i.fold == f))
            assert abs(accuracy - 0.02) <= 0.005


def pr_reference(scored):
    thresholds = sorted({s for s, _ in scored}, reverse=True)
    total_pos = sum(1 for _, l in scored if l)
    points, ap, prev_recall = [], Fraction(0), Fraction(0)
    for t in thresholds:
        tp = sum(1 for s, l in scored if s >= t and l)
        fp = sum(1 for s, l in scored if s >= t and not l)
        precision, recall = Fraction(tp, tp + fp), Fraction(tp, total_pos)
        points.append((t, precision, recall))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return points, ap


def test_c07_pr_correctness():
    with criterion("C07 pr-correctness", 30.0):
        rng = np.random.default_rng(700)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            scored = list(zip(scores.tolist(), labels.tolist()))
            curve = evaluation.pr_curve(scored)
            want_points, want_ap = pr_reference(scored)
            assert len(curve.points) == len(want_points)
            for (t, p, r), (wt, wp, wr) in zip(curve.points, want_points):
                assert t == wt and p == float(wp) and r == float(wr)
            assert curve.average_precision == float(want_ap)

        worked = evaluation.pr_curve([(0.9, 1), (0.8, 0), (0.7, 1)])
        assert worked.average_precision == 5 / 6


def test_c08_detector_contract():
    with criterion("C08 detector-contract", 5.0):
        probs = [0.9, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9, 0.9]
        scores = [evaluation.SecondScore("clip", i, p) for i, p in enumerate(probs)]
        strict = evaluation.merge_events(scores, threshold=0.5, max_gap_s=0)
        assert [(e.start_s, e.end_s) for e in strict] == [(0, 3), (5, 10)]
        bridged = evaluation.merge_events(scores, threshold=0.5, max_gap_s=2)
        assert [(e.start_s, e.end_s) for e in bridged] == [(0, 10)]
        assert bridged[0].peak_probability == 0.9


def test_c09_format_roundtrip(tmp_path):
    with criterion("C09 format-roundtrip", 10.0):
        for build, k in ((models.build_aug_vggish, 50), (models.build_fcn_vggish, 50)):
            original = models.init_bundle(build(k), init="random", seed=900)
            first, second = tmp_path / f"{build.__name__}.csnw", tmp_path / "again.csnw"
            bundle.save_bundle(original, first)
            loaded = bundle.load_bundle(first)
            bundle.save_bundle(loaded, second)
            assert first.read_bytes() == second.read_bytes()

        reference = tmp_path / "build_aug_vggish.csnw"
        corrupted = bytearray(reference.read_bytes())
        corrupted[:4] = b"XXXX"
        (tmp_path / "magic.csnw").write_bytes(bytes(corrupted))
        with pytest.raises(FormatError):
            bundle.load_bundle(tmp_path / "magic.csnw")

        (tmp_path / "trunc.csnw").write_bytes(reference.read_bytes()[:-64])
        with pytest.raises(FormatError):
            bundle.load_bundle(tmp_path / "trunc.csnw")

        header = {"tensors": [{"name": "t", "shape": [64], "dtype": "f32", "offset": 0}],
                  "payload_bytes": 63 * 4}
        blob = json.dumps(header).encode()
        mismatch = (b"CSNW" + (1).to_bytes(4, "little") + len(blob).to_bytes(8, "little")
                    + blob + b"\x00" * (63 * 4))
        (tmp_path / "shape.csnw").write_bytes(mismatch)
        with pytest.raises(ValidationError):
            bundle.read_container(tmp_path / "shape.csnw")


def test_c10_end_to_end_smoke(tmp_path):
    with criterion("C10 end-to-end-smoke", 30.0):
        rng = np.random.default_rng(1000)
        t = np.arange(3 * 16000) / 16000.0
        samples = 0.4 * np.sin(2 * np.pi * 880.0 * t) + rng.normal(0, 0.05, t.size)
        wav_path = tmp_path / "tone.wav"
        wav_path.write_bytes(encode_wav(samples, 16000))

        model_path = tmp_path / "model.csnw"
        bundle.save_bundle(
            models.init_bundle(models.build_aug_vggish(2), init="random", seed=1001),
            model_path)

        run = run_cli

        feat_dir = tmp_path / "features"
        featurize = run("featurize", wav_path, "--out-dir", feat_dir)
        assert featurize.returncode == 0, featurize.stderr
        assert (feat_dir / "tone.csnw").is_file()

        infer = run("infer", "--model", model_path, feat_dir / "tone.csnw")
        assert infer.returncode == 0, infer.stderr
        record = json.loads(infer.stdout.strip())
        assert abs(sum(record["probs"]) - 1.0) < 1e-4

        detect = run("detect", "--model", model_path, "--threshold", "0.5",
                     wav_path)
        assert detect.returncode == 0, detect.stderr
        for line in detect.stdout.strip().splitlines():
            event = json.loads(line)  # every line is one well-formed JSON object
            assert set(event) == {"clip_id", "start_s", "end_s", "peak_prob"}
            assert 0 <= event["start_s"] < event["end_s"] <= 3
