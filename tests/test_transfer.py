"""Head training protocol: determinism, convergence, CV discipline."""

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_pids, random_bn_stats
from sawnet import evaluation, frontend, models, nn, transfer, workers
from sawnet.errors import ConfigError, ParseError, SawnetError, ValidationError
from sawnet.nn import DenseParams


def synthetic_set(num_classes: int, per_class: int, dim: int, folds: int,
                  noise: float = 0.1, seed: int = 0, margin: float = 2.0
                  ) -> transfer.EmbeddingSet:
    """Linearly separable clusters: one coordinate axis per class."""
    assert dim >= num_classes
    rng = np.random.default_rng(seed)
    items = []
    for label in range(num_classes):
        for i in range(per_class):
            vec = rng.normal(0.0, noise, dim)
            vec[label] += margin
            items.append(transfer.EmbeddingItem(
                clip_id=f"clip-{label:02d}-{i:03d}",
                fold=(i % folds) + 1,
                label=label,
                vector=vec,
            ))
    return transfer.EmbeddingSet(items=tuple(items), dim=dim, num_classes=num_classes)


def as_dtype(eset: transfer.EmbeddingSet, dtype) -> transfer.EmbeddingSet:
    return dataclasses.replace(eset, items=tuple(
        dataclasses.replace(i, vector=i.vector.astype(dtype)) for i in eset.items))


def esc50_shaped_set(seed: int = 51) -> transfer.EmbeddingSet:
    """The benchmark cache's 50 classes x 1024 dims and spread, float32, one
    clip per class and fold where it has eight."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 0.1, (50, 1024))
    return transfer.EmbeddingSet(items=tuple(
        transfer.EmbeddingItem(f"{fold}-{label:02d}", fold, label,
                               (centres[label] + rng.normal(0.0, 0.03, 1024)).astype(np.float32))
        for fold in range(1, 6) for label in range(50)), dim=1024, num_classes=50)


def reference_train_head(train: transfer.EmbeddingSet, cfg: transfer.TrainConfig) -> DenseParams:
    """The SGD loop written out plainly: coupled L2 gradient, fresh arrays each step."""
    x, y, _ = transfer._design_matrix(train, np.float64)
    n, d = x.shape
    k = train.num_classes
    rng = np.random.default_rng(cfg.seed)
    limit = np.sqrt(6.0 / (d + k))
    w = rng.uniform(-limit, limit, size=(k, d))
    b = np.zeros(k)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            probs = nn.softmax(xb @ w.T + b)
            probs[np.arange(len(idx)), yb] -= 1.0
            probs /= len(idx)
            w -= cfg.learning_rate * (probs.T @ xb + cfg.l2 * w)
            b -= cfg.learning_rate * probs.sum(axis=0)
    return DenseParams(weights=w, bias=b)


class TestTrainHead:
    def test_separable_two_classes_reach_full_accuracy(self):
        eset = synthetic_set(num_classes=2, per_class=50, dim=8, folds=1, seed=1)
        cfg = transfer.TrainConfig(learning_rate=0.1, epochs=20, seed=3)
        params = transfer.train_head(eset, cfg)
        accuracy, _, _ = transfer.evaluate_head(params, eset)
        assert accuracy == 1.0

    def test_zero_learning_rate_is_a_no_op(self):
        eset = synthetic_set(num_classes=3, per_class=10, dim=4, folds=1, seed=2)
        cfg = transfer.TrainConfig(learning_rate=0.0, epochs=5, seed=9)
        params = transfer.train_head(eset, cfg)
        rng = np.random.default_rng(9)
        limit = np.sqrt(6.0 / (4 + 3))
        np.testing.assert_array_equal(params.weights, rng.uniform(-limit, limit, (3, 4)))
        np.testing.assert_array_equal(params.bias, np.zeros(3))

    def test_same_seed_bit_identical(self):
        eset = synthetic_set(num_classes=4, per_class=12, dim=6, folds=1, seed=3)
        cfg = transfer.TrainConfig(epochs=5, seed=17)
        a = transfer.train_head(eset, cfg)
        b = transfer.train_head(eset, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_input_order_does_not_matter(self):
        eset = synthetic_set(num_classes=3, per_class=8, dim=5, folds=1, seed=4)
        reversed_set = transfer.EmbeddingSet(items=tuple(reversed(eset.items)),
                                             dim=eset.dim, num_classes=eset.num_classes)
        cfg = transfer.TrainConfig(epochs=4, seed=5)
        a = transfer.train_head(eset, cfg)
        b = transfer.train_head(reversed_set, cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_full_batch_loss_non_increasing(self):
        eset = synthetic_set(num_classes=3, per_class=15, dim=6, folds=1, seed=6,
                             noise=0.3, margin=1.0)
        # unit-norm embeddings keep the smoothness bound comfortable at lr 1e-3
        items = tuple(
            dataclasses.replace(i, vector=i.vector / np.linalg.norm(i.vector))
            for i in eset.items
        )
        eset = transfer.EmbeddingSet(items=items, dim=eset.dim, num_classes=3)
        losses = []
        for epochs in range(1, 25):
            cfg = transfer.TrainConfig(learning_rate=1e-3, batch_size=len(items),
                                       epochs=epochs, seed=8, l2=1e-4)
            losses.append(transfer.head_loss(transfer.train_head(eset, cfg), eset, l2=1e-4))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_empty_set_rejected(self):
        empty = transfer.EmbeddingSet(items=(), dim=4, num_classes=2)
        with pytest.raises(ConfigError):
            transfer.train_head(empty, transfer.TrainConfig())

    def test_one_class_set_rejected_before_training(self, monkeypatch):
        eset = synthetic_set(num_classes=1, per_class=10, dim=4, folds=5, seed=16)

        def trained(*args):
            raise AssertionError("a head was trained")

        monkeypatch.setattr(transfer, "_sgd", trained)
        monkeypatch.setattr(transfer, "_worker_heads", trained)
        with pytest.raises(ConfigError, match="num_classes >= 2, got 1"):
            transfer.train_head(eset, transfer.TrainConfig())
        with pytest.raises(ConfigError, match="num_classes >= 2, got 1"):
            transfer.run_cv(eset, 5, transfer.TrainConfig())

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ConfigError):
            transfer.TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            transfer.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["batch_size", "epochs"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "4", 0])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            transfer.TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1, 2.0, True, "4", None])
    def test_negative_or_non_integer_seed_rejected(self, value):
        with pytest.raises(ConfigError, match="seed"):
            transfer.TrainConfig(seed=value)

    def test_numpy_integer_counts_accepted(self):
        cfg = transfer.TrainConfig(batch_size=np.int64(4), epochs=np.int32(2))
        assert (cfg.batch_size, cfg.epochs) == (4, 2)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), batch_size=st.integers(1, 48), d=st.integers(1, 12),
           k=st.integers(2, 6), epochs=st.integers(1, 3), seed=st.integers(0, 2**16),
           learning_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
           l2=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
    def test_matches_reference_loop(self, n, batch_size, d, k, epochs, seed, learning_rate, l2):
        rng = np.random.default_rng(seed)
        eset = transfer.EmbeddingSet(
            items=tuple(transfer.EmbeddingItem(f"c{i:03d}", 1, int(rng.integers(k)),
                                               rng.normal(0, 2, d)) for i in range(n)),
            dim=d, num_classes=k)
        cfg = transfer.TrainConfig(learning_rate=learning_rate, batch_size=batch_size,
                                   epochs=epochs, seed=seed, l2=l2)
        got, want = transfer.train_head(eset, cfg), reference_train_head(eset, cfg)
        np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.bias, want.bias, rtol=0, atol=1e-12)

    def test_head_loss_bit_identical_to_its_own_log_sum_exp(self):
        eset = synthetic_set(num_classes=5, per_class=6, dim=7, folds=1, seed=7, noise=1.0)
        params = transfer.train_head(eset, transfer.TrainConfig(epochs=3, seed=2))
        x, y, _ = transfer._design_matrix(eset)
        logits = x @ params.weights.T + params.bias
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        ce = float(np.mean(log_norm - shifted[np.arange(len(y)), y]))
        assert transfer.head_loss(params, eset) == ce
        assert transfer.head_loss(params, eset, l2=1e-3) == \
            ce + 0.5 * 1e-3 * float(np.sum(params.weights ** 2))


class TestRunCV:
    def test_separable_five_folds_perfect(self):
        eset = synthetic_set(num_classes=5, per_class=20, dim=8, folds=5, seed=10)
        results, mean_accuracy = transfer.run_cv(
            eset, 5, transfer.TrainConfig(learning_rate=0.1, epochs=25))
        assert mean_accuracy == 1.0
        assert [r.fold for r in results] == [1, 2, 3, 4, 5]
        for r in results:
            assert len(r.per_clip_scores) == 20  # 100 items / 5 folds

    def test_constant_predictor_scores_base_rate(self):
        eset = synthetic_set(num_classes=50, per_class=5, dim=50, folds=5, seed=11)
        constant = DenseParams(weights=np.zeros((50, 50)), bias=np.eye(50)[0] * 10.0)
        for fold in range(1, 6):
            accuracy, _, _ = transfer.evaluate_head(
                constant, eset.subset(lambda i, f=fold: i.fold == f))
            assert accuracy == pytest.approx(0.02, abs=1e-12)

    def test_fold_isolation(self):
        eset = synthetic_set(num_classes=3, per_class=10, dim=4, folds=5, seed=12)
        fold_of = {i.clip_id: i.fold for i in eset.items}
        results, _ = transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=2))
        seen = set()
        for r in results:
            for score in r.per_clip_scores:
                assert fold_of[score.clip_id] == r.fold
                seen.add(score.clip_id)
        assert seen == set(fold_of)

    def test_accuracy_matches_per_clip_scores(self):
        eset = synthetic_set(num_classes=4, per_class=8, dim=6, folds=4, seed=13, noise=1.5)
        results, _ = transfer.run_cv(eset, 4, transfer.TrainConfig(epochs=3))
        for r in results:
            manual = np.mean([s.predicted == s.true for s in r.per_clip_scores])
            assert r.accuracy == pytest.approx(manual, abs=1e-12)

    def test_matches_reference_trained_heads(self):
        # 500 clips x 20 classes x 64 dims, overlapping enough that folds err;
        # float32 vectors, as loaded from a cache, train in float32 against the
        # float64 reference, so only their probabilities move (1.7e-6 seen)
        eset = synthetic_set(num_classes=20, per_class=25, dim=64, folds=5, seed=16,
                             noise=0.8, margin=1.0)
        cfg = transfer.TrainConfig(epochs=5)
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            eset = as_dtype(eset, dtype)
            results, mean_accuracy = transfer.run_cv(eset, 5, cfg)
            want = [transfer.evaluate_head(
                        reference_train_head(eset.subset(lambda i: i.fold != fold), cfg),
                        eset.subset(lambda i: i.fold == fold))
                    for fold in range(1, 6)]
            assert 0.0 < mean_accuracy < 1.0
            assert mean_accuracy == np.mean([accuracy for accuracy, _, _ in want])
            for fold, (r, (accuracy, macro_f1, scores)) in enumerate(zip(results, want), 1):
                assert (r.fold, r.accuracy, r.macro_f1) == (fold, accuracy, macro_f1)
                assert [(s.clip_id, s.predicted) for s in r.per_clip_scores] == \
                    [(s.clip_id, s.predicted) for s in scores]
                for a, b in zip(r.per_clip_scores, scores):
                    np.testing.assert_allclose(a.probabilities, b.probabilities,
                                               rtol=0, atol=atol)

    def test_folds_bit_identical_to_train_head_on_their_subsets(self):
        eset = synthetic_set(num_classes=4, per_class=12, dim=8, folds=3, seed=17, noise=1.0)
        eset = dataclasses.replace(eset, items=tuple(
            dataclasses.replace(i, vector=i.vector.astype(np.float32)) for i in eset.items))
        cfg = transfer.TrainConfig(epochs=3, batch_size=5)
        results, _ = transfer.run_cv(eset, 3, cfg)
        for r in results:
            params = transfer.train_head(eset.subset(lambda i: i.fold != r.fold), cfg)
            *_, scores = transfer.evaluate_head(params, eset.subset(lambda i: i.fold == r.fold))
            for a, b in zip(r.per_clip_scores, scores, strict=True):
                assert a.clip_id == b.clip_id
                np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_missing_fold_rejected(self):
        eset = synthetic_set(num_classes=2, per_class=8, dim=4, folds=4, seed=14)
        with pytest.raises(ConfigError):
            transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=1))

    def test_out_of_range_fold_rejected(self):
        eset = synthetic_set(num_classes=2, per_class=8, dim=4, folds=6, seed=15)
        with pytest.raises(ConfigError):
            transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=1))


@pytest.fixture
def trained_heads(monkeypatch):
    """The heads trained for this process, in call order: each one `transfer._sgd`
    returns in-process, and `run_cv`'s fold heads, in fold order, where they
    come back from its worker processes (which never see a patch made here)."""
    sgd, from_workers, heads = transfer._sgd, transfer._worker_heads, []

    def record(*args):
        got = from_workers(*args)
        heads.extend(got)
        return got

    monkeypatch.setattr(transfer, "_sgd", lambda *args: heads.append(sgd(*args)) or heads[-1])
    monkeypatch.setattr(transfer, "_worker_heads", record)
    return heads


class TestHeadDtype:
    """The head trains in its embeddings' dtype; float64 sets stay the reference."""

    @pytest.mark.parametrize("vectors, trained", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float32), (np.int64, np.float64)])
    def test_trains_in_the_vectors_dtype(self, trained_heads, vectors, trained):
        eset = as_dtype(synthetic_set(num_classes=3, per_class=10, dim=4, folds=2, seed=50,
                                      margin=4.0), vectors)
        cfg = transfer.TrainConfig(epochs=2)
        assert transfer.head_dtype(eset) == trained
        params = transfer.train_head(eset, cfg)
        results, _ = transfer.run_cv(eset, 2, cfg)
        assert len(trained_heads) == 3 and trained_heads[0] is params
        assert {(h.weights.dtype, h.bias.dtype) for h in trained_heads} == {(np.dtype(trained),) * 2}
        assert {s.probabilities.dtype for r in results for s in r.per_clip_scores} == \
            {np.dtype(np.float64)}

    def test_float32_esc50_shaped_cache_within_bound_of_float64(self, trained_heads):
        e32 = esc50_shaped_set()
        cfg = transfer.TrainConfig()
        (r32, mean32), (r64, mean64) = (transfer.run_cv(e, 5, cfg)
                                        for e in (e32, as_dtype(e32, np.float64)))
        for h32, h64 in zip(trained_heads[:5], trained_heads[5:], strict=True):
            assert h32.weights.dtype == np.float32 and h64.weights.dtype == np.float64
            np.testing.assert_allclose(h32.weights, h64.weights, rtol=0, atol=1e-4)
            np.testing.assert_allclose(h32.bias, h64.bias, rtol=0, atol=1e-4)
        assert mean32 == mean64
        for a, b in zip(r32, r64, strict=True):
            assert (a.accuracy, a.macro_f1) == (b.accuracy, b.macro_f1)
            assert [(s.clip_id, s.predicted) for s in a.per_clip_scores] == \
                [(s.clip_id, s.predicted) for s in b.per_clip_scores]


def cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(workers, "usable_cores", lambda: n)


class TestFoldWorkers:
    """`run_cv` trains its fold heads in worker processes, one per usable core."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_workers_bit_identical_to_in_process(self, monkeypatch, trained_heads, dtype):
        eset, cfg = as_dtype(esc50_shaped_set(), dtype), transfer.TrainConfig()
        cores(monkeypatch, 1)
        want, want_mean = transfer.run_cv(eset, 5, cfg)
        started = []
        popen = subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **kw: started.append(popen(*a, **kw))
                            or started[-1])
        cores(monkeypatch, 2)
        got, got_mean = transfer.run_cv(eset, 5, cfg)
        assert len(started) == 2 and len(trained_heads) == 10
        for a, b in zip(trained_heads[:5], trained_heads[5:], strict=True):
            assert a.weights.dtype == b.weights.dtype == dtype
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert got_mean == want_mean
        for a, b in zip(got, want, strict=True):
            assert (a.fold, a.accuracy, a.macro_f1) == (b.fold, b.accuracy, b.macro_f1)
            for sa, sb in zip(a.per_clip_scores, b.per_clip_scores, strict=True):
                assert (sa.clip_id, sa.predicted, sa.true) == (sb.clip_id, sb.predicted, sb.true)
                np.testing.assert_array_equal(sa.probabilities, sb.probabilities)

    def test_one_core_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a subprocess was started")

        eset = synthetic_set(num_classes=3, per_class=10, dim=4, folds=5, seed=60)
        cores(monkeypatch, 1)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        results, _ = transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=2))
        assert [r.fold for r in results] == [1, 2, 3, 4, 5]

    def test_failed_worker_raises_and_leaves_no_child(self, monkeypatch, tmp_path):
        # the first worker fails at once; the second would sleep for a minute
        # unless it is killed
        scripts, worker = iter(["import sys; sys.exit('worker broke')",
                                "import time; time.sleep(60)"]), workers.Worker

        def start_worker(job):
            monkeypatch.setattr(workers, "_SERVE", next(scripts))
            return worker(job)

        monkeypatch.setattr(workers, "Worker", start_worker)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cores(monkeypatch, 2)
        eset = synthetic_set(num_classes=3, per_class=10, dim=4, folds=3, seed=61)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="pool worker exited.*worker broke") as info:
            transfer.run_cv(eset, 3, transfer.TrainConfig(epochs=1))
        assert not isinstance(info.value, SawnetError)
        assert time.monotonic() - start < 30
        assert child_pids() == set()
        assert list(tmp_path.iterdir()) == []  # the job directory is gone

    def test_worker_dying_mid_fold_raises_and_leaves_no_child(self, monkeypatch, tmp_path):
        # every worker reports ready, then writes to its stderr and is killed
        # in its first fold
        monkeypatch.setattr(workers, "_SERVE", "import os, signal, sys\n"
                            "from sawnet import transfer, workers\n"
                            "def die(*args):\n"
                            "    print('died mid-fold', file=sys.stderr, flush=True)\n"
                            "    os.kill(os.getpid(), signal.SIGKILL)\n"
                            "transfer._sgd = die\n"
                            "workers._serve(sys.argv[1])")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ready, heads = [], transfer._worker_heads
        monkeypatch.setattr(transfer, "_worker_heads",
                            lambda pool, k: ready.append(len(pool.workers)) or heads(pool, k))
        cores(monkeypatch, 2)
        eset = synthetic_set(num_classes=3, per_class=10, dim=4, folds=3, seed=63)
        with pytest.raises(RuntimeError,
                           match=f"pool worker exited with status -{signal.SIGKILL}: "
                                 "died mid-fold$") as info:
            transfer.run_cv(eset, 3, transfer.TrainConfig(epochs=1))
        assert not isinstance(info.value, SawnetError)
        assert ready == [2]  # both workers had started and mapped the rows
        assert child_pids() == set()
        assert list(tmp_path.iterdir()) == []  # the job directory is gone

    def test_workers_get_one_blas_thread_and_environment_unchanged(self, monkeypatch):
        envs, started = [], []
        popen = subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen", lambda *a, env, **kw: envs.append(env) or
                            started.append(popen(*a, env=env, **kw)) or started[-1])
        cores(monkeypatch, 2)
        before = dict(os.environ)
        transfer.run_cv(synthetic_set(num_classes=3, per_class=10, dim=4, folds=2, seed=62),
                        2, transfer.TrainConfig(epochs=1))
        assert dict(os.environ) == before
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                   "1")
        path = os.pathsep.join(map(os.path.abspath, sys.path))
        assert len(envs) == 2
        for env in envs:
            assert env == before | one_thread | {"PYTHONPATH": path}
        # each worker sends its own peak memory back with its heads
        peaks = workers.worker_peaks_mb()
        assert all(10 < peaks[proc.pid] < 500 for proc in started)


class TestBatchedHead:
    """`evaluate_head` scores a whole set at once; the per-clip loop is the reference."""

    def test_evaluate_head_matches_per_clip_loop(self):
        eset = synthetic_set(num_classes=6, per_class=15, dim=12, folds=3, seed=40, noise=1.2)
        params = transfer.train_head(eset.subset(lambda i: i.fold != 1),
                                     transfer.TrainConfig(epochs=4, seed=41))
        held_out = eset.subset(lambda i: i.fold == 1)
        accuracy, macro_f1, scores = transfer.evaluate_head(params, held_out)
        reference = []
        for item in sorted(held_out.items, key=lambda i: i.clip_id):
            probs = nn.softmax(params.weights @ item.vector + params.bias)
            reference.append((item.clip_id, int(np.argmax(probs)), item.label, probs))
        assert [(s.clip_id, s.predicted, s.true) for s in scores] == \
            [r[:3] for r in reference]
        for score, (*_, probs) in zip(scores, reference):
            np.testing.assert_allclose(score.probabilities, probs, rtol=0, atol=1e-12)
        want = evaluation.accuracy_f1([(r[1], r[2]) for r in reference], eset.num_classes)
        assert (accuracy, macro_f1) == want


@pytest.fixture(scope="module")
def embed_bundle():
    return models.init_bundle(models.build_aug_vggish(4), init="random", seed=30)


class TestExtractEmbeddings:

    def test_five_second_clip_averages_five_patches(self, embed_bundle):
        rng = np.random.default_rng(31)
        clip = frontend.AudioClip(rng.uniform(-0.3, 0.3, 80000).astype(np.float32),
                                  16000, "clip-a")
        eset, errors = transfer.extract_embeddings(embed_bundle, [(clip, 0, 1)], num_classes=2)
        assert not errors
        spec = frontend.log_mel_spectrogram(clip)
        patches = frontend.extract_patches(spec)
        assert len(patches) == 5
        manual = np.mean([models.forward_embedding(embed_bundle, p[None])[0] for p in patches],
                         axis=0)
        np.testing.assert_array_equal(eset.items[0].vector, manual)

    def test_batched_fcn_clip_matches_single_patches(self):
        spec = models.build_fcn_vggish(2)
        bundle = models.WeightBundle(spec, random_bn_stats(spec, seed=37, init_seed=36))
        assert bundle.plan[0].per_call < 5  # the clip's patches span two chunks
        clip = frontend.AudioClip(
            np.random.default_rng(38).uniform(-0.3, 0.3, 80000).astype(np.float32),
            16000, "clip-f")
        eset, errors = transfer.extract_embeddings(bundle, [(clip, 0, 1)], num_classes=2)
        assert not errors
        patches = frontend.extract_patches(frontend.log_mel_spectrogram(clip))
        manual = np.mean([models.forward_embedding(bundle, p[None])[0] for p in patches], axis=0)
        np.testing.assert_allclose(eset.items[0].vector, manual, rtol=0, atol=1e-9)

    def test_one_second_clip_single_patch(self, embed_bundle):
        rng = np.random.default_rng(32)
        clip = frontend.AudioClip(rng.uniform(-0.3, 0.3, 16000).astype(np.float32),
                                  16000, "clip-b")
        eset, _ = transfer.extract_embeddings(embed_bundle, [(clip, 1, 2)], num_classes=2)
        patches = frontend.extract_patches(frontend.log_mel_spectrogram(clip))
        assert len(patches) == 1
        np.testing.assert_array_equal(
            eset.items[0].vector, models.forward_embedding(embed_bundle, patches)[0])

    def test_identical_clips_identical_embeddings(self, embed_bundle):
        samples = np.random.default_rng(33).uniform(-0.2, 0.2, 16000).astype(np.float32)
        clips = [
            (frontend.AudioClip(samples, 16000, "dup-1"), 0, 1),
            (frontend.AudioClip(samples.copy(), 16000, "dup-2"), 0, 1),
        ]
        eset, _ = transfer.extract_embeddings(embed_bundle, clips, num_classes=2)
        np.testing.assert_array_equal(eset.items[0].vector, eset.items[1].vector)

    def test_spectrogram_and_its_audio_embed_alike(self, embed_bundle):
        clip = frontend.AudioClip(
            np.random.default_rng(39).uniform(-0.3, 0.3, 40000).astype(np.float32),
            16000, "clip-s")
        spec = frontend.log_mel_spectrogram(clip)
        from_audio, _ = transfer.extract_embeddings(embed_bundle, [(clip, 0, 1)], num_classes=2)
        from_spec, _ = transfer.extract_embeddings(embed_bundle, [(spec, 0, 1)], num_classes=2)
        assert from_spec.items[0].clip_id == "clip-s"
        np.testing.assert_array_equal(from_spec.items[0].vector, from_audio.items[0].vector)

    def test_failures_recorded_not_fatal(self, embed_bundle):
        good = frontend.AudioClip(
            np.random.default_rng(34).uniform(-0.2, 0.2, 16000).astype(np.float32),
            16000, "good")
        bad = frontend.AudioClip(np.zeros(100, np.float32), 16000, "bad")
        eset, errors = transfer.extract_embeddings(embed_bundle, [(bad, 0, 1), (good, 1, 1)],
                                                   num_classes=2)
        assert [i.clip_id for i in eset.items] == ["good"]
        assert len(errors) == 1 and errors[0][0] == "bad"

    def test_programming_errors_propagate(self, embed_bundle, monkeypatch):
        def broken(bundle, patch):
            raise RuntimeError("bug in the forward")

        monkeypatch.setattr(transfer, "forward_embedding", broken)
        clip = frontend.AudioClip(np.zeros(16000, np.float32), 16000, "clip")
        with pytest.raises(RuntimeError, match="bug in the forward"):
            transfer.extract_embeddings(embed_bundle, [(clip, 0, 1)], num_classes=2)

    def test_items_sorted_by_clip_id(self, embed_bundle):
        rng = np.random.default_rng(35)
        clips = [
            (frontend.AudioClip(rng.uniform(-0.1, 0.1, 16000).astype(np.float32),
                                16000, name), 0, 1)
            for name in ("zz", "aa", "mm")
        ]
        eset, _ = transfer.extract_embeddings(embed_bundle, clips, num_classes=2)
        assert [i.clip_id for i in eset.items] == ["aa", "mm", "zz"]


class TestEsc50Folds:
    def test_documented_examples(self):
        assert transfer.assign_esc50_fold("1-100032-A-0.wav") == 1
        assert transfer.assign_esc50_fold("5-9032-A-49.wav") == 5

    def test_path_prefix_ok(self):
        assert transfer.assign_esc50_fold("audio/esc50/3-144827-B-12.wav") == 3

    def test_non_matching_name(self):
        with pytest.raises(ParseError):
            transfer.assign_esc50_fold("chainsaw.wav")
        with pytest.raises(ParseError):
            transfer.assign_esc50_fold("1-2-3.wav")


class TestEmbeddingCache:
    def test_round_trip(self, tmp_path):
        eset = synthetic_set(num_classes=3, per_class=4, dim=7, folds=2, seed=40)
        path = tmp_path / "cache.csnw"
        transfer.save_embeddings(path, eset)
        loaded = transfer.load_embeddings(path)
        assert loaded.dim == 7 and loaded.num_classes == 3
        assert [i.clip_id for i in loaded.items] == [i.clip_id for i in eset.items]
        for a, b in zip(loaded.items, eset.items):
            assert (a.fold, a.label) == (b.fold, b.label)
            np.testing.assert_array_equal(a.vector, b.vector.astype(np.float32))

    def test_repeated_clip_ids_rejected_before_writing(self, tmp_path):
        items = tuple(transfer.EmbeddingItem(c, 1, 0, np.zeros(2)) for c in ("a", "b", "a"))
        path = tmp_path / "cache.csnw"
        with pytest.raises(ValidationError, match=r"repeated clip ids \['a'\]"):
            transfer.save_embeddings(path, transfer.EmbeddingSet(items, dim=2, num_classes=2))
        assert not path.exists()

    def test_unnamed_clips_rejected_before_writing(self, tmp_path, embed_bundle):
        # AudioClip's default source_id is "", so four unnamed clips share one id
        rng = np.random.default_rng(41)
        clips = [(frontend.AudioClip(rng.uniform(-0.2, 0.2, 16000).astype(np.float32), 16000),
                  0, 1) for _ in range(4)]
        eset, errors = transfer.extract_embeddings(embed_bundle, clips, num_classes=2)
        assert not errors and len(eset.items) == 4
        path = tmp_path / "cache.csnw"
        with pytest.raises(ValidationError, match=r"repeated clip ids \[''\]"):
            transfer.save_embeddings(path, eset)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected_at_load(self, tmp_path, bad):
        from sawnet.bundle import write_container

        path = tmp_path / "cache.csnw"
        write_container(path, {"kind": "embeddings", "dim": 2, "num_classes": 2,
                               "clips": {"a": {"fold": 1, "label": 0},
                                         "b": {"fold": 2, "label": 1}}},
                        {"a": np.zeros(2), "b": np.array([0.5, bad])})
        with pytest.raises(ValidationError, match="clip 'b': embedding has non-finite values"):
            transfer.load_embeddings(path)

    def test_header_tensor_mismatch(self, tmp_path):
        from sawnet.bundle import write_container

        path = tmp_path / "broken.csnw"
        write_container(path, {"kind": "embeddings", "dim": 2, "num_classes": 2,
                               "clips": {"a": {"fold": 1, "label": 0}}}, {})
        with pytest.raises(ValidationError):
            transfer.load_embeddings(path)

    @pytest.mark.parametrize("meta", [5, [1, 0], {"fold": "x", "label": 0},
                                      {"fold": 1, "label": 1.5}, {"fold": 1}])
    def test_malformed_clip_metadata_rejected(self, tmp_path, meta):
        from sawnet.bundle import write_container

        path = tmp_path / "broken.csnw"
        write_container(path, {"kind": "embeddings", "dim": 2, "num_classes": 2,
                               "clips": {"a": meta}}, {"a": np.zeros(2)})
        with pytest.raises(ValidationError, match="clip 'a'"):
            transfer.load_embeddings(path)

    def test_dimension_mismatch_rejected(self):
        items = (transfer.EmbeddingItem("a", 1, 0, np.zeros(3)),)
        with pytest.raises(ValidationError):
            transfer.EmbeddingSet(items=items, dim=4, num_classes=2)
