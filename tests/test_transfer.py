"""Head training protocol: determinism, convergence, CV discipline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bn_stats
from sawnet import evaluation, frontend, models, nn, transfer
from sawnet.errors import ConfigError, ParseError, ValidationError
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


def reference_train_head(train: transfer.EmbeddingSet, cfg: transfer.TrainConfig) -> DenseParams:
    """The SGD loop written out plainly: coupled L2 gradient, fresh arrays each step."""
    x, y, _ = transfer._design_matrix(train)
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

    def test_matches_reference_trained_heads(self, monkeypatch):
        # 500 clips x 20 classes x 64 dims, overlapping enough that folds err
        eset = synthetic_set(num_classes=20, per_class=25, dim=64, folds=5, seed=16,
                             noise=0.8, margin=1.0)
        cfg = transfer.TrainConfig(epochs=5)
        results, mean_accuracy = transfer.run_cv(eset, 5, cfg)
        monkeypatch.setattr(transfer, "train_head", reference_train_head)
        want, want_mean = transfer.run_cv(eset, 5, cfg)
        assert 0.0 < mean_accuracy < 1.0 and mean_accuracy == want_mean
        for r, w in zip(results, want):
            assert (r.fold, r.accuracy, r.macro_f1) == (w.fold, w.accuracy, w.macro_f1)
            assert [(s.clip_id, s.predicted) for s in r.per_clip_scores] == \
                [(s.clip_id, s.predicted) for s in w.per_clip_scores]
            for a, b in zip(r.per_clip_scores, w.per_clip_scores):
                np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=0, atol=1e-12)

    def test_missing_fold_rejected(self):
        eset = synthetic_set(num_classes=2, per_class=8, dim=4, folds=4, seed=14)
        with pytest.raises(ConfigError):
            transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=1))

    def test_out_of_range_fold_rejected(self):
        eset = synthetic_set(num_classes=2, per_class=8, dim=4, folds=6, seed=15)
        with pytest.raises(ConfigError):
            transfer.run_cv(eset, 5, transfer.TrainConfig(epochs=1))


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
        bundle = random_bn_stats(
            models.init_bundle(models.build_fcn_vggish(2), init="random", seed=36), seed=37)
        assert models.batch_size(bundle) < 5  # the clip's patches span two chunks
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
