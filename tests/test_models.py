"""Architecture structure, parameter counting, forwards, and BN folding."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import float64_copy, random_bn_stats, random_patch, random_patches, unfolded_forward
from sawnet import frontend, models, nn
from sawnet.errors import ConfigError, ValidationError


def _probs(bundle, patch):
    """Class probabilities of one ``[96, 64]`` patch."""
    return nn.softmax(models.forward_batch(bundle, patch[None]))[0]


class TestBuilders:
    def test_aug_parameter_count_is_exact(self):
        assert models.count_params(models.build_aug_vggish(50)) == 4_647_346

    def test_fcn_parameter_count_is_exact(self):
        assert models.count_params(models.build_fcn_vggish(50)) == 18_716_338

    def test_binary_classifier_contribution(self):
        # head shrinks from 256*50+50 to 256*2+2 parameters
        full = models.count_params(models.build_aug_vggish(50))
        binary = models.count_params(models.build_aug_vggish(2))
        assert full - binary == (256 * 50 + 50) - (256 * 2 + 2)
        assert 256 * 2 + 2 == 514

    def test_num_classes_lower_bound(self):
        for build in (models.build_aug_vggish, models.build_fcn_vggish):
            with pytest.raises(ConfigError):
                build(1)

    def test_aug_structure(self):
        spec = models.build_aug_vggish(50)
        layers = spec.layers
        convs = [l for l in layers if l.kind == "conv"]
        bns = [l for l in layers if l.kind == "batchnorm"]
        assert len(convs) == 6 and len(bns) == 6
        # each conv immediately followed by its batch norm
        for i, layer in enumerate(layers[:-1]):
            if layer.kind == "conv":
                follower = layers[i + 1]
                assert follower.kind == "batchnorm" and follower.channels == layer.out_ch
        assert sum(l.kind == "global_avg_pool" for l in layers) == 1
        denses = [l for l in layers if l.kind == "dense"]
        assert [d.out_units for d in denses] == [256, 50]
        assert not any(d.out_units == 128 for d in denses)

    def test_fcn_structure(self):
        spec = models.build_fcn_vggish(50)
        feature_convs = [l for l in spec.layers if l.kind == "conv" and l.kernel == 3]
        classifier = [l for l in spec.layers if l.kind == "conv" and l.kernel == 1]
        assert len(feature_convs) == 8
        assert len(classifier) == 1 and classifier[0].out_ch == 50
        assert not any(l.kind == "dense" for l in spec.layers)
        assert sum(l.kind == "batchnorm" for l in spec.layers) == 8

    def test_count_params_empty_spec(self):
        empty = models.ModelSpec(arch_id="aug_vggish", num_classes=2, layers=(),
                                 embedding_layer="", embedding_dim=0)
        assert models.count_params(empty) == 0


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        for build, k in ((models.build_aug_vggish, 5), (models.build_fcn_vggish, 4)):
            bundle = models.init_bundle(build(k), init="zeros")
            probs = _probs(bundle, np.zeros((96, 64)))
            np.testing.assert_allclose(probs, np.full(k, 1.0 / k), atol=1e-12)

    def test_probabilities_sum_to_one(self, aug_bundle_small):
        probs = _probs(aug_bundle_small, random_patch(1))
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_classifier_bias_dominates_zero_network(self):
        spec = models.build_aug_vggish(3)
        bundle = models.init_bundle(spec, init="zeros")
        bundle.params["head/bias"] = np.array([10.0, -10.0, 0.0], np.float32)
        bundle.validate()
        probs = _probs(bundle, np.zeros((96, 64)))
        assert int(np.argmax(probs)) == 0

    def test_forward_deterministic(self, aug_bundle_small):
        patch = random_patch(2)
        first = _probs(aug_bundle_small, patch)
        second = _probs(aug_bundle_small, patch)
        assert np.array_equal(first, second)

    def test_fcn_accepts_variable_frame_counts(self, fcn_bundle_small):
        for frames in (32, 96, 192):
            x = np.random.default_rng(frames).normal(0, 1, (1, 1, frames, 64))
            out = models.run_layers(fcn_bundle_small, x)
            assert out.shape == (1, 3)


class TestEmbeddings:
    def test_aug_embedding_width(self, aug_bundle_small):
        emb = models.forward_embedding(aug_bundle_small, random_patch(3)[None])
        assert emb.shape == (1, 256)

    def test_fcn_embedding_width(self, fcn_bundle_small):
        emb = models.forward_embedding(fcn_bundle_small, random_patch(4)[None])
        assert emb.shape == (1, 1024)

    def test_zero_weights_zero_embedding(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        emb = models.forward_embedding(bundle, random_patch(5)[None])
        assert np.all(emb == 0.0)


class TestFoldBatchnorm:
    """A bundle holds and runs its folded network: each conv+BN pair is one conv."""

    def test_identity_fold_keeps_conv(self):
        # init_bundle's identity statistics, with a negligible epsilon
        spec = models.build_aug_vggish(2)
        bundle = models.init_bundle(spec, init="random", seed=1, epsilon=1e-12)
        drawn = random_bn_stats(spec, init_seed=1)
        assert not any(l.kind == "batchnorm" for l in bundle.spec.layers)
        assert not any(key.startswith("bn") for key in bundle.params)
        np.testing.assert_allclose(bundle.params["conv1/kernels"], drawn["conv1/kernels"],
                                   atol=1e-9)
        np.testing.assert_allclose(bundle.params["conv1/bias"], drawn["conv1/bias"], atol=1e-9)

    def test_single_channel_fold_formula(self):
        spec = models.build_aug_vggish(2)
        stored = random_bn_stats(spec, init_seed=2)
        stored.update({"bn1/gamma": np.full(64, 2.0, np.float32),
                       "bn1/beta": np.full(64, 3.0, np.float32),
                       "bn1/mean": np.zeros(64, np.float32), "bn1/var": np.ones(64, np.float32),
                       "conv1/bias": np.full(64, 0.5, np.float32)})
        bundle = models.WeightBundle(spec, dict(stored), epsilon=1e-12)
        np.testing.assert_allclose(bundle.params["conv1/kernels"],
                                   2.0 * stored["conv1/kernels"], rtol=1e-6)
        np.testing.assert_allclose(bundle.params["conv1/bias"], np.full(64, 4.0), rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fold_computed_in_float64_and_rounded_to_the_bundle_dtype(self, dtype):
        spec = models.build_aug_vggish(2)
        stored = {k: v.astype(dtype) for k, v in random_bn_stats(spec, 3, init_seed=4).items()}
        bundle = models.WeightBundle(spec, dict(stored))
        assert bundle.dtype == dtype
        for conv, bn in [("conv1", "bn1"), ("conv6", "bn6")]:
            t = {k: stored[f"{bn}/{k}"].astype(np.float64)
                 for k in ("gamma", "beta", "mean", "var")}
            scale = t["gamma"] / np.sqrt(t["var"] + bundle.epsilon)
            kernels = stored[f"{conv}/kernels"].astype(np.float64) * scale[:, None, None, None]
            bias = (stored[f"{conv}/bias"].astype(np.float64) - t["mean"]) * scale + t["beta"]
            for got, want in ((bundle.params[f"{conv}/kernels"], kernels),
                              (bundle.params[f"{conv}/bias"], bias)):
                assert got.dtype == dtype and not got.flags.writeable
                np.testing.assert_array_equal(got, want.astype(dtype))

    def test_forward_equivalence(self, aug_bundle_small):
        stored = random_bn_stats(models.build_aug_vggish(4), seed=12, init_seed=11)
        for seed in range(5):
            patch = random_patch(seed)
            unfolded_probs = nn.softmax(unfolded_forward(
                models.build_aug_vggish(4), stored, aug_bundle_small.epsilon, patch[None]))
            folded_probs = _probs(aug_bundle_small, patch)
            assert np.abs(unfolded_probs - folded_probs).max() < 1e-4
            assert int(np.argmax(unfolded_probs)) == int(np.argmax(folded_probs))

    def test_fcn_fold_keeps_embedding_path(self, fcn_bundle_small):
        assert models.build_fcn_vggish(3).embedding_layer == "bn8"
        assert fcn_bundle_small.spec.embedding_layer == "conv8"
        stored = random_bn_stats(models.build_fcn_vggish(3), seed=22, init_seed=21)
        patch = random_patch(6)[None]
        a = unfolded_forward(models.build_fcn_vggish(3), stored, fcn_bundle_small.epsilon,
                             patch, stop_after="bn8").mean(axis=(1, 2))
        b = models.forward_embedding(fcn_bundle_small, patch)[0]
        assert np.abs(a - b).max() < 1e-4

    def test_bn_without_conv_rejected(self):
        # a batch norm that does not directly scale a conv's output cannot be
        # folded: after a pool, or after the conv's own ReLU
        for first in (models.LayerDef("pool1", "maxpool"),
                      models.LayerDef("conv1", "conv", in_ch=1, out_ch=1, kernel=3, relu=True)):
            spec = models.ModelSpec("aug_vggish", 2, (
                first, models.LayerDef("bn1", "batchnorm", channels=1, relu=True),
                models.LayerDef("gap", "global_avg_pool"),
                models.LayerDef("head", "dense", in_units=1, out_units=2)), "gap", 1)
            with pytest.raises(ValidationError, match="layer bn1: batch norm does not follow"):
                models.init_bundle(spec, init="zeros")

    def test_stop_after_names_a_running_layer(self, aug_bundle_small):
        x = random_patch(1)[None, None]
        with pytest.raises(ValidationError, match="no layer named 'bn1'"):
            models.run_layers(aug_bundle_small, x, "bn1")
        assert models.run_layers(aug_bundle_small, x, "conv1").min() >= 0  # conv1 owns bn1's ReLU

    def test_folded_layout_is_kept_as_given(self, aug_bundle_small):
        params = dict(aug_bundle_small.params)
        rebuilt = models.WeightBundle(aug_bundle_small.spec, params)
        assert rebuilt.spec == aug_bundle_small.spec
        assert all(params[k] is v for k, v in aug_bundle_small.params.items())


@pytest.fixture(scope="module")
def stored_and_folded():
    """(stored tensors, folded bundle) per (arch, dtype); the last one made is kept."""
    cases = {}

    def get(arch, dtype):
        if (arch, dtype) not in cases:
            cases.clear()
            spec = models.build_arch(arch, 3)
            stored = random_bn_stats(spec, seed=31, init_seed=32)
            cases[arch, dtype] = stored, models.WeightBundle(
                spec, {k: v.astype(dtype) for k, v in stored.items()})
        return cases[arch, dtype]
    return get


class TestFoldedForwardGate:
    """The folded forward against the unfolded float64 reference on the stored tensors."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", [models.ARCH_AUG_VGGISH, models.ARCH_FCN_VGGISH])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6))
    def test_within_1e4_of_unfolded_reference(self, stored_and_folded, arch, dtype, seeds):
        stored, bundle = stored_and_folded(arch, dtype)
        assert bundle.dtype == dtype
        patches = random_patches(seeds)
        got = models.forward_batch(bundle, patches)
        want = np.stack([unfolded_forward(models.build_arch(arch, 3), stored, bundle.epsilon,
                                          patch[None]) for patch in patches])
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)
        top_two = np.sort(want, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-4
        assert np.array_equal(got.argmax(axis=1)[clear], want.argmax(axis=1)[clear])


class TestBundleValidation:
    def test_missing_tensor(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        del bundle.params["conv3/bias"]
        with pytest.raises(ValidationError):
            bundle.validate()

    def test_extra_tensor(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        bundle.params["mystery/weights"] = np.zeros(3, np.float32)
        with pytest.raises(ValidationError):
            bundle.validate()

    def test_shape_mismatch(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        bundle.params["fc1/weights"] = np.zeros((256, 511), np.float32)
        with pytest.raises(ValidationError):
            bundle.validate()

    def test_inconsistent_chain_rejected(self):
        layers = (
            models.LayerDef("conv1", "conv", in_ch=1, out_ch=8, kernel=3),
            models.LayerDef("bn1", "batchnorm", channels=4, relu=True),  # wrong width
            models.LayerDef("gap", "global_avg_pool"),
            models.LayerDef("head", "dense", in_units=8, out_units=2),
        )
        spec = models.ModelSpec(arch_id="aug_vggish", num_classes=2, layers=layers,
                                embedding_layer="gap", embedding_dim=8)
        with pytest.raises(ValidationError):
            models.init_bundle(spec, init="zeros")

    @pytest.mark.parametrize("build", [models.build_aug_vggish, models.build_fcn_vggish])
    def test_embedding_dim_checked_at_construction(self, build):
        # the embedding layer's width (channels, for fcn_vggish's map) is
        # checked when the bundle is made, not when an embedding is asked for
        params = models.init_bundle(build(2)).params
        with pytest.raises(ValidationError, match="is not embedding_dim 99 wide"):
            models.WeightBundle(replace(build(2), embedding_dim=99), params)


@pytest.fixture(scope="module")
def aug_folded_small(aug_bundle_small):
    """The same network built from its already-folded tensors."""
    return models.WeightBundle(aug_bundle_small.spec, dict(aug_bundle_small.params))


@pytest.fixture(scope="module")
def as_float64(request):
    """The float64 copy of a named bundle fixture; the last one made is kept."""
    copies = {}

    def get(name):
        if name not in copies:
            copies.clear()
            copies[name] = float64_copy(request.getfixturevalue(name))
        return copies[name]
    return get


class TestForwardBatch:
    """One forward path for one patch or many: `forward_batch` against single patches."""

    @pytest.mark.parametrize("name", ["aug_bundle_small", "aug_folded_small", "fcn_bundle_small"])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6))
    def test_matches_single_patch_forwards(self, as_float64, name, seeds):
        bundle = as_float64(name)
        patches = random_patches(seeds)
        emb = bundle.spec.embedding_layer
        logits = models.forward_batch(bundle, patches)
        embeddings = models.forward_batch(bundle, patches, stop_after=emb)
        assert logits.shape == (len(patches), bundle.spec.num_classes)
        for i, patch in enumerate(patches):
            x = patch[None, None]
            np.testing.assert_allclose(logits[i], models.run_layers(bundle, x)[0],
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(embeddings[i], models.run_layers(bundle, x, emb)[0],
                                       rtol=0, atol=1e-9)
        # the whole list in one run_layers call, whatever the plan says
        np.testing.assert_allclose(models.run_layers(bundle, patches[:, None]), logits,
                                   rtol=0, atol=1e-9)

    def test_batch_size_rule(self, aug_bundle_small, aug_folded_small, fcn_bundle_small,
                             fcn_folded_small):
        # the first stage's patches per call
        assert aug_bundle_small.plan[0].per_call == 1
        assert aug_folded_small.plan[0].per_call == 1
        assert fcn_bundle_small.plan[0].per_call > 1
        assert fcn_folded_small.plan[0].per_call > 1

    def test_batched_embeddings(self, fcn_bundle_small):
        patches = random_patches(range(5))
        batched = models.forward_embedding(fcn_bundle_small, patches)
        assert batched.shape == (5, 1024)
        for row, patch in zip(batched, patches):
            np.testing.assert_allclose(
                row, models.forward_embedding(fcn_bundle_small, patch[None])[0], rtol=0, atol=1e-9)

    def test_chunks_are_slices_of_the_patches(self, fcn_bundle_small, monkeypatch):
        # 4 patches per call for fcn: 6 patches go as views of [0:4] and [4:6]
        patches = random_patches(range(6))
        seen = []

        def record(bundle, x, stop_after=None, _run=models.run_layers):
            seen.append((x.shape, np.shares_memory(x, patches)))
            return _run(bundle, x, stop_after)

        monkeypatch.setattr(models, "run_layers", record)
        models.forward_batch(fcn_bundle_small, patches, stop_after="conv1")
        assert seen == [((4, 1, 96, 64), True), ((2, 1, 96, 64), True)]

    @pytest.mark.parametrize("name", ["aug_bundle_small", "fcn_bundle_small"])
    @pytest.mark.parametrize("hop", [24, 100])
    def test_strided_patches_match_a_contiguous_copy(self, request, name, hop):
        bundle = request.getfixturevalue(name)
        spec = frontend.LogMelSpectrogram(
            frames=np.random.default_rng(hop).normal(0, 1, (300, 64)))
        patches = frontend.extract_patches(spec, hop)
        assert not patches.flags.c_contiguous
        np.testing.assert_array_equal(models.forward_batch(bundle, patches),
                                      models.forward_batch(bundle, np.ascontiguousarray(patches)))

    def test_unbatched_memory_stays_flat(self, aug_bundle_small):
        patches = random_patches(range(30))
        models.forward_batch(aug_bundle_small, patches[:1])  # first-call allocations
        peaks = []
        for chunk in (patches[:1], patches):
            tracemalloc.start()
            try:
                models.forward_batch(aug_bundle_small, chunk)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @staticmethod
    def _four_patch_peak(bundle):
        patches = random_patches(range(4))
        assert bundle.plan[0].per_call == 4
        models.forward_batch(bundle, patches[:1])  # first-call allocations
        tracemalloc.start()
        try:
            models.forward_batch(bundle, patches)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_in_place_bn_relu_peak(self, as_float64):
        # ReLU writes into conv1's 12.6 MB map (a copy for it took the peak
        # past 24 MB); conv5 and conv6 run 4 patches as 2 products of 2
        # (their kernels outweigh twice a 2-patch im2col block)
        assert self._four_patch_peak(as_float64("fcn_bundle_small")) <= 20e6

    def test_in_place_bn_relu_peak_float32(self, fcn_bundle_small):
        # half the float64 path's maps and im2col
        assert fcn_bundle_small.dtype == np.float32
        assert self._four_patch_peak(fcn_bundle_small) <= 10e6

    @pytest.mark.parametrize("name", ["aug_bundle_small", "aug_folded_small", "fcn_bundle_small"])
    def test_in_place_bn_relu_bit_identical(self, as_float64, monkeypatch, name):
        self._check_in_place_bit_identical(as_float64(name), monkeypatch)

    @pytest.mark.parametrize("name", ["aug_bundle_small", "aug_folded_small", "fcn_bundle_small"])
    def test_in_place_bn_relu_bit_identical_float32(self, request, monkeypatch, name):
        bundle = request.getfixturevalue(name)
        assert bundle.dtype == np.float32
        self._check_in_place_bit_identical(bundle, monkeypatch)

    @staticmethod
    def _check_in_place_bit_identical(bundle, monkeypatch):
        patches = random_patches(range(4))
        emb = bundle.spec.embedding_layer
        in_place = [models.forward_batch(bundle, patches, stop_after=s) for s in (None, emb)]

        monkeypatch.setattr(nn, "relu", lambda x: np.maximum(x, 0))
        for got, stop in zip(in_place, (None, emb)):
            np.testing.assert_array_equal(got, models.forward_batch(bundle, patches, stop))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_run_layers_leaves_its_input_untouched(self, aug_bundle_small, dtype):
        # a chain that starts with an in-place layer would overwrite the input,
        # and the one such chain, batch norm first, cannot be folded
        with pytest.raises(ValidationError, match="layer bn: batch norm does not follow"):
            models.init_bundle(models.ModelSpec(
                models.ARCH_AUG_VGGISH, 2,
                (models.LayerDef("bn", "batchnorm", relu=True, channels=1),
                 models.LayerDef("gap", "global_avg_pool"),
                 models.LayerDef("fc", "dense", in_units=1, out_units=2)),
                "gap", 1), init="random", seed=1)
        x = random_patches(range(2))[:, None].astype(dtype)
        before = x.copy()
        for stop in ("conv1", None):
            models.run_layers(aug_bundle_small, x, stop)
            np.testing.assert_array_equal(x, before)

    def test_empty_and_malformed_input_rejected(self, aug_bundle_small):
        for patches in ([], np.zeros((0, 96, 64)), np.zeros((96, 64))):
            with pytest.raises(ValidationError):
                models.forward_batch(aug_bundle_small, patches)
        for shape in ((96, 64), (1, 1, 1, 96, 64)):
            with pytest.raises(ValidationError):
                models.run_layers(aug_bundle_small, np.zeros(shape))


class TestPlan:
    """`WeightBundle.plan`: the stages a bundle runs in, built at validation."""

    # aug_vggish: one stage of all 13 folded layers; fcn_vggish: conv1..pool5
    # (14 layers) at 4 a call, then conv7, conv8, clf and gap at 25 (56.6 MB
    # of tail weights over 10x conv8's 221 KB im2col block)
    PLANS = {
        "aug_bundle_small": [("conv1", "head", 1)],
        "aug_folded_small": [("conv1", "head", 1)],
        "fcn_bundle_small": [("conv1", "pool5", 4), ("conv7", "gap", 25)],
        "fcn_folded_small": [("conv1", "pool5", 4), ("conv7", "gap", 25)],
    }

    @pytest.mark.parametrize("name", PLANS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_stages(self, request, as_float64, name, dtype):
        bundle = request.getfixturevalue(name) if dtype == "float32" else as_float64(name)
        assert bundle.dtype == dtype
        layers = bundle.spec.layers
        assert [(layers[s.start].name, layers[s.stop - 1].name, s.per_call)
                for s in bundle.plan] == self.PLANS[name]
        # the stages cover the folded layers in order, each once
        assert [i for s in bundle.plan for i in range(s.start, s.stop)] == \
            list(range(len(layers)))

    @pytest.mark.parametrize("name", ["aug_bundle_small", "fcn_bundle_small"])
    def test_unknown_stop_after_rejected_before_any_conv(self, request, monkeypatch, name):
        bundle = request.getfixturevalue(name)
        convs = []
        monkeypatch.setattr(nn, "conv2d_same", lambda x, p: convs.append(len(x)))
        patches = random_patches(range(2))
        with pytest.raises(ValidationError, match="no layer named 'bn1'"):
            models.forward_batch(bundle, patches, stop_after="bn1")
        with pytest.raises(ValidationError, match="no layer named 'bn1'"):
            models.run_layers(bundle, patches[:, None], "bn1")
        assert convs == []


class TestTwoStageForward:
    """fcn_vggish runs the layers after pool5 once per 25 patches, its plan's
    second stage; aug_vggish, whose tail is two small dense layers, runs in
    one stage."""

    T = 25  # fcn_vggish's second stage: patches per call

    @pytest.mark.parametrize("name, expected", [("aug_bundle_small", 1), ("aug_folded_small", 1),
                                                ("fcn_bundle_small", T), ("fcn_folded_small", T)])
    def test_tail_batch_size_same_in_both_dtypes(self, request, as_float64, name, expected):
        assert request.getfixturevalue(name).plan[-1].per_call == expected
        assert as_float64(name).plan[-1].per_call == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_single_patch_forwards(self, fcn_bundle_small, as_float64, dtype):
        bundle = fcn_bundle_small if dtype == np.float32 else as_float64("fcn_bundle_small")
        patches = random_patches(range(2 * self.T + 3))
        emb = bundle.spec.embedding_layer
        # a single-patch forward streams all 75 MB of weights, so the rows
        # checked are those at each end of a group and of a stage-1 chunk
        rows = (0, 1, 3, 4, self.T - 1, self.T, self.T + 4, 2 * self.T, 2 * self.T + 2)
        singles = {i: [models.run_layers(bundle, patches[i, None, None], stop)[0]
                       for stop in (None, emb)] for i in rows}
        for count in (1, self.T, 2 * self.T + 3):
            logits = models.forward_batch(bundle, patches[:count])
            embeddings = models.forward_batch(bundle, patches[:count], stop_after=emb)
            assert logits.dtype == embeddings.dtype == dtype
            assert logits.shape == (count, bundle.spec.num_classes)
            for i in (i for i in rows if i < count):
                np.testing.assert_allclose(logits[i], singles[i][0], rtol=0, atol=1e-9)
                np.testing.assert_allclose(embeddings[i], singles[i][1], rtol=0, atol=1e-9)

    def test_tail_runs_once_per_group(self, fcn_bundle_small, monkeypatch):
        patches = random_patches(range(2 * self.T + 3))
        calls, convs = [], []

        def record(bundle, x, stop_after=None, _run=models.run_layers):
            calls.append((len(x), stop_after))
            return _run(bundle, x, stop_after)

        def conv(x, p, _conv=nn.conv2d_same):
            convs.append((p.in_channels, len(x)))
            return _conv(x, p)

        monkeypatch.setattr(models, "run_layers", record)
        monkeypatch.setattr(nn, "conv2d_same", conv)
        models.forward_batch(fcn_bundle_small, patches)
        # stage 1 restarts its chunks of 4 at each group of 25
        assert calls == [(4, "pool5")] * 6 + [(1, "pool5")] + [(4, "pool5")] * 6 \
            + [(1, "pool5")] + [(3, "pool5")]
        assert [n for c, n in convs if c == 1024] == [25, 25, 25, 25, 3, 3]  # conv8, clf

    def test_aug_makes_the_single_patch_calls(self, aug_bundle_small, monkeypatch):
        patches = random_patches(range(3))
        calls = []

        def record(name, fn):
            def wrapped(*args):
                calls.append((name, [a.shape for a in args if isinstance(a, np.ndarray)],
                              [a for a in args if a is None or isinstance(a, str)]))
                return fn(*args)
            monkeypatch.setattr(*((models, "run_layers") if name == "run_layers" else (nn, name)),
                                wrapped)

        record("run_layers", models.run_layers)
        for op in ("conv2d_same", "relu", "maxpool_2x2", "global_avg_pool", "dense"):
            record(op, getattr(nn, op))
        models.forward_batch(aug_bundle_small, patches)
        batched, calls[:] = list(calls), []
        for p in patches:
            models.run_layers(aug_bundle_small, p[None, None], None)
        assert batched == calls and len(batched) == 3 * (1 + len(aug_bundle_small.spec.layers) + 7)

    def test_memory_flat_in_the_number_of_groups(self, fcn_bundle_small):
        patches = random_patches(range(3 * self.T))
        models.forward_batch(fcn_bundle_small, patches[:self.T])  # first-call allocations
        peaks = []
        for count in (self.T, 3 * self.T):
            tracemalloc.start()
            try:
                models.forward_batch(fcn_bundle_small, patches[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestFloat32Forward:
    """A float32 bundle (what every container loads as) against its float64 copy."""

    @pytest.mark.parametrize("name", ["aug_bundle_small", "aug_folded_small",
                                      "fcn_bundle_small", "fcn_folded_small"])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6))
    def test_within_1e4_of_float64(self, request, as_float64, name, seeds):
        b32, b64 = request.getfixturevalue(name), as_float64(name)
        assert (b32.dtype, b64.dtype) == (np.float32, np.float64)
        patches = random_patches(seeds)
        emb = b32.spec.embedding_layer
        outputs = [
            lambda b: models.forward_batch(b, patches),
            lambda b: models.forward_batch(b, patches, stop_after=emb),
            lambda b: models.forward_embedding(b, patches),
            lambda b: models.run_layers(b, patches[:1, None]),
            lambda b: models.run_layers(b, patches[:1, None], emb),
        ]
        results = [(output(b32), output(b64)) for output in outputs]
        for got, want in results:
            assert (got.dtype, want.dtype) == (np.float32, np.float64)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)
        got, want = results[0]  # logits
        top_two = np.sort(want, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-4
        assert np.array_equal(got.argmax(axis=1)[clear], want.argmax(axis=1)[clear])

    @pytest.mark.parametrize("name, expected", [("aug_bundle_small", 1), ("aug_folded_small", 1),
                                                ("fcn_bundle_small", 4), ("fcn_folded_small", 4)])
    def test_batch_size_same_in_both_dtypes(self, request, as_float64, name, expected):
        assert request.getfixturevalue(name).plan[0].per_call == expected
        assert as_float64(name).plan[0].per_call == expected

    def test_input_rounded_once_at_entry(self, aug_bundle_small):
        # a float64 patch and its float32 rounding (what a feature container
        # stores) give the same float32 forward
        x = random_patch(7)[None, None]
        np.testing.assert_array_equal(models.run_layers(aug_bundle_small, x),
                                      models.run_layers(aug_bundle_small, x.astype(np.float32)))

    def test_float64_bundle_leaves_its_input_untouched(self, as_float64):
        bundle = as_float64("aug_bundle_small")
        x = random_patches(range(2))[:, None]
        before = x.copy()
        for stop in ("conv1", "pool1", None):
            models.run_layers(bundle, x, stop)
            np.testing.assert_array_equal(x, before)


class TestBundleDtype:
    def test_float32_tensors_kept(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="random", seed=3)
        kernels = np.zeros((64, 1, 3, 3), np.float32)
        bundle.params["conv1/kernels"] = kernels
        bundle.validate()
        assert bundle.dtype == np.float32
        assert bundle.params["conv1/kernels"] is kernels and not kernels.flags.writeable
        assert all(a.dtype == np.float32 for a in bundle.params.values())

    def test_any_float64_tensor_makes_a_float64_bundle(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="random", seed=3)
        bundle.params["head/bias"] = np.zeros(2)
        bundle.validate()
        assert bundle.dtype == np.float64
        assert all(a.dtype == np.float64 for a in bundle.params.values())

    def test_other_dtypes_become_float32(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        bundle.params["head/bias"] = np.array([1, -1])
        bundle.params["fc1/bias"] = np.zeros(256, np.float16)
        bundle.validate()
        assert bundle.dtype == np.float32
        assert bundle.params["head/bias"].dtype == bundle.params["fc1/bias"].dtype == np.float32


class TestNonFiniteWeights:
    @pytest.mark.parametrize("key", ["conv2/kernels", "bn3/var", "fc1/bias"])
    def test_validation_rejects(self, key):
        # a batch norm's statistics are scanned as they are folded, a conv's
        # kernels once folded; the error names the layer and the tensor
        spec = models.build_aug_vggish(2)
        stored = random_bn_stats(spec)
        stored[key] = stored[key].copy()
        stored[key].flat[0] = np.nan
        layer, suffix = key.split("/")
        with pytest.raises(ValidationError, match=f"layer {layer}: {suffix} contains non-finite"):
            models.WeightBundle(spec, stored)


_OPS = {"conv": "conv2d_same", "maxpool": "maxpool_2x2", "global_avg_pool": "global_avg_pool",
        "dense": "dense"}


class TestLayerKindTable:
    @pytest.mark.parametrize("name", ["aug_bundle_small", "aug_folded_small",
                                      "fcn_bundle_small", "fcn_folded_small"])
    def test_operators_looked_up_at_call_time(self, request, monkeypatch, name):
        # a tracer tags layers by replacing the operators on the nn module
        bundle = request.getfixturevalue(name)
        calls = dict.fromkeys([*_OPS.values(), "relu"], 0)
        for op in calls:
            def counted(*args, _op=getattr(nn, op), _name=op, **kwargs):
                calls[_name] += 1
                return _op(*args, **kwargs)
            monkeypatch.setattr(nn, op, counted)
        models.run_layers(bundle, random_patches(range(2))[:, None])
        layers = bundle.spec.layers
        expected = {op: sum(l.kind == kind for l in layers) for kind, op in _OPS.items()}
        expected["relu"] = sum(l.relu for l in layers)
        assert calls == expected

    @pytest.mark.parametrize("misplaced, before", [
        (models.LayerDef("x", "conv", in_ch=512, out_ch=512, kernel=3), "fc1"),
        (models.LayerDef("x", "batchnorm", channels=512), "fc1"),
        (models.LayerDef("x", "maxpool"), "fc1"),
        (models.LayerDef("x", "global_avg_pool"), "fc1"),
        (models.LayerDef("x", "dense", in_units=512, out_units=512), "gap"),
        (models.LayerDef("x", "upsample"), "fc1"),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_misplaced_kind_rejected(self, misplaced, before):
        # in aug_vggish, "gap" flattens the map into the [512] vector "fc1" takes
        layers = list(models.build_aug_vggish(2).layers)
        at = next(i for i, l in enumerate(layers) if l.name == before)
        spec = models.ModelSpec(models.ARCH_AUG_VGGISH, 2,
                                tuple(layers[:at] + [misplaced] + layers[at:]), "fc1", 256)
        with pytest.raises(ValidationError, match="layer x"):
            models.init_bundle(spec)

    def test_fcn_needs_32_rows_and_columns(self, fcn_bundle_small):
        rng = np.random.default_rng(4)
        for h, w in ((32, 32), (31, 64), (96, 31)):
            x = rng.normal(0, 1, (1, 1, h, w))
            if min(h, w) >= 32:
                assert models.run_layers(fcn_bundle_small, x).shape == (1, 3)
                continue
            assert models.run_layers(fcn_bundle_small, x, "pool4").shape[-2:] == (h // 16, w // 16)
            with pytest.raises(nn.ShapeError, match="maxpool_2x2"):
                models.run_layers(fcn_bundle_small, x)


@pytest.fixture(scope="module")
def fcn_folded_small(fcn_bundle_small):
    """The same network built from its already-folded tensors."""
    return models.WeightBundle(fcn_bundle_small.spec, dict(fcn_bundle_small.params))


class TestWithHead:
    """A dense head on the embedding becomes the network's classifier."""

    @pytest.mark.parametrize("name", ["aug_bundle_small", "fcn_bundle_small"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_head_becomes_the_classifier(self, request, as_float64, name, dtype):
        backbone = request.getfixturevalue(name) if dtype == "float32" else as_float64(name)
        rng = np.random.default_rng(31)
        d = backbone.spec.embedding_dim
        head = nn.DenseParams(rng.normal(0, 0.1, (5, d)).astype(dtype),
                              rng.normal(0, 0.1, 5).astype(dtype))
        composed = models.with_head(backbone, head)
        arch = backbone.spec.arch_id
        assert composed.spec == models.fold_spec(models.build_arch(arch, 5))
        assert composed.dtype == backbone.dtype
        weights, bias = (("head/weights", "head/bias") if arch == models.ARCH_AUG_VGGISH
                         else ("clf/kernels", "clf/bias"))
        assert set(composed.params) == set(backbone.params)
        for key, arr in backbone.params.items():
            if key not in (weights, bias):
                assert composed.params[key] is arr  # the backbone's own arrays
        np.testing.assert_array_equal(composed.params[weights].reshape(5, d), head.weights)
        np.testing.assert_array_equal(composed.params[bias], head.bias)
        patches = random_patches(range(3))
        embeddings = models.forward_embedding(backbone, patches)
        assert np.array_equal(models.forward_embedding(composed, patches), embeddings)
        want = nn.dense(embeddings, head)
        np.testing.assert_allclose(models.forward_batch(composed, patches), want, rtol=0,
                                   atol=1e-9 if dtype == "float64" else 1e-4)

    @pytest.mark.parametrize("name, key, shape", [
        ("aug_bundle_small", "head/weights", "(3, 1024)"),
        ("fcn_bundle_small", "clf/kernels", "(3, 256, 1, 1)")])
    def test_head_of_another_width_rejected(self, request, name, key, shape):
        backbone = request.getfixturevalue(name)
        d = 1280 - backbone.spec.embedding_dim  # the other network's width
        head = nn.DenseParams(np.zeros((3, d), np.float32), np.zeros(3, np.float32))
        with pytest.raises(ValidationError, match=re.escape(f"'{key}' has shape {shape}")):
            models.with_head(backbone, head)
