"""Operator unit tests against independent oracles.

conv2d_same is checked against a quadruple-loop reference before any worked
examples are asserted.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawnet import models, nn
from sawnet.errors import ShapeError, ValidationError


def conv2d_reference(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Brute-force same-padding convolution; deliberately naive."""
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = x.shape
    pad = k // 2
    out = np.zeros((out_ch, h, w), dtype=np.float64)
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


class TestConv2dSame:
    def test_matches_bruteforce_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            in_ch = int(rng.integers(1, 4))
            out_ch = int(rng.integers(1, 5))
            h = int(rng.integers(1, 8))
            w = int(rng.integers(1, 8))
            k = int(rng.choice([1, 3]))
            x = rng.normal(0, 1, (in_ch, h, w))
            kernels = rng.normal(0, 1, (out_ch, in_ch, k, k))
            bias = rng.normal(0, 1, out_ch)
            got = nn.conv2d_same(x[None], nn.ConvParams(kernels, bias))[0]
            want = conv2d_reference(x, kernels, bias)
            assert np.abs(got - want).max() < 1e-6

    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 5, 6))
        kernels = np.zeros((2, 2, 3, 3))
        kernels[0, 0, 1, 1] = 1.0
        kernels[1, 1, 1, 1] = 1.0
        out = nn.conv2d_same(x[None], nn.ConvParams(kernels, np.zeros(2)))[0]
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_all_ones_edge_counts(self):
        # 3x3 ones against 3x3 ones: in-range tap counts are 9/6/4
        x = np.ones((1, 1, 3, 3))
        out = nn.conv2d_same(x, nn.ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1)))
        np.testing.assert_array_equal(out[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_zero_kernels_give_constant_bias(self):
        x = np.random.default_rng(1).normal(0, 1, (1, 3, 4, 4))
        out = nn.conv2d_same(x, nn.ConvParams(np.zeros((2, 3, 3, 3)), np.array([1.5, -2.0])))[0]
        assert np.all(out[0] == 1.5) and np.all(out[1] == -2.0)

    def test_channel_mismatch_raises(self):
        params = nn.ConvParams(np.zeros((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            nn.conv2d_same(np.zeros((1, 3, 4, 4)), params)

    def test_float32_inputs_stay_float32(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        params = nn.ConvParams(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        assert nn.conv2d_same(x, params).dtype == np.float32

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (1, 3, 6, 6)).astype(np.float32)
        params = nn.ConvParams(rng.normal(0, 1, (4, 3, 3, 3)).astype(np.float32),
                               rng.normal(0, 1, 4).astype(np.float32))
        assert np.array_equal(nn.conv2d_same(x, params), nn.conv2d_same(x, params))


def conv_bn_bundle(kernel, bias, gamma, beta, mean, var, epsilon=1e-5):
    """A float64 bundle of a 1x1 conv (1 -> C channels) and its batch norm,
    stored as given; ``run_layers(b, x, "conv")`` is their folded output."""
    c = len(bias)
    spec = models.ModelSpec("aug_vggish", 2, (
        models.LayerDef("conv", "conv", in_ch=1, out_ch=c, kernel=1),
        models.LayerDef("bn", "batchnorm", channels=c),
        models.LayerDef("gap", "global_avg_pool"),
        models.LayerDef("head", "dense", in_units=c, out_units=2)), "gap", c)
    tensors = {"conv/kernels": np.reshape(kernel, (c, 1, 1, 1)), "conv/bias": bias,
               "bn/gamma": gamma, "bn/beta": beta, "bn/mean": mean, "bn/var": var,
               "head/weights": np.zeros((2, c)), "head/bias": np.zeros(2)}
    return models.WeightBundle(spec, {k: np.asarray(v, np.float64) for k, v in tensors.items()},
                               epsilon=epsilon)


class TestBatchNormInfer:
    """Batch norm at inference, as a bundle folds it into the conv before it."""

    def test_identity_parameters(self):
        x = np.random.default_rng(2).normal(0, 1, (1, 1, 3, 3))
        kernel, bias = np.array([0.5, -2.0]), np.array([1.0, -1.0])
        bundle = conv_bn_bundle(kernel, bias, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2),
                                epsilon=1e-12)
        want = nn.conv2d_same(x, nn.ConvParams(kernel.reshape(2, 1, 1, 1), bias))
        np.testing.assert_allclose(models.run_layers(bundle, x, "conv"), want, atol=1e-9)

    def test_worked_example(self):
        # 3 * (2 - 1) / sqrt(4) + 1 = 2.5
        x = np.full((1, 1, 1, 1), 2.0)
        bundle = conv_bn_bundle([1.0], [0.0], [3.0], [1.0], [1.0], [4.0], epsilon=1e-12)
        assert abs(models.run_layers(bundle, x, "conv")[0, 0, 0, 0] - 2.5) < 1e-9

    def test_zero_gamma_gives_constant_beta(self):
        x = np.random.default_rng(3).normal(0, 5, (1, 1, 4, 4))
        bundle = conv_bn_bundle([1.5], [0.25], [0.0], [7.0], [2.0], [3.0])
        assert np.all(models.run_layers(bundle, x, "conv") == 7.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError, match="layer bn: var entries must be >= 0"):
            conv_bn_bundle([1.0], [0.0], [1.0], [0.0], [0.0], [-1.0])

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1e-5])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValidationError, match="layer bn: epsilon .* must be finite and > 0"):
            conv_bn_bundle([1.0], [0.0], [1.0], [0.0], [0.0], [1.0], epsilon=epsilon)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValidationError, match=r"tensor 'bn/beta' has shape \(3,\)"):
            conv_bn_bundle([1.0, 1.0], [0.0, 0.0], np.ones(2), np.zeros(3), np.zeros(2),
                           np.ones(2))
        spec = models.ModelSpec("aug_vggish", 2, (
            models.LayerDef("conv", "conv", in_ch=1, out_ch=2, kernel=1),
            models.LayerDef("bn", "batchnorm", channels=3),
            models.LayerDef("gap", "global_avg_pool"),
            models.LayerDef("head", "dense", in_units=2, out_units=2)), "gap", 2)
        with pytest.raises(ValidationError, match="layer bn: batch norm does not follow"):
            models.init_bundle(spec)


class TestRelu:
    def test_basic(self):
        np.testing.assert_array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_identity_on_nonnegative(self):
        x = np.abs(np.random.default_rng(4).normal(0, 1, (3, 3)))
        np.testing.assert_array_equal(nn.relu(x.copy()), x)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
    def test_idempotent(self, values):
        once = nn.relu(np.array(values))
        np.testing.assert_array_equal(nn.relu(once.copy()), once)


class TestInPlace:
    """ReLU writes its result into its input and returns it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_into_its_input(self, dtype):
        x = np.random.default_rng(73).normal(0, 1, (2, 3, 4, 5)).astype(dtype)
        want = np.where(x > 0, x, 0).astype(dtype)
        got = nn.relu(x)
        assert got is x and got.dtype == dtype
        np.testing.assert_array_equal(got, want)


class TestMaxPool:
    def test_single_block(self):
        out = nn.maxpool_2x2(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_array_equal(out, [[[[4.0]]]])

    def test_constant_input(self):
        out = nn.maxpool_2x2(np.full((1, 2, 4, 6), 3.25))
        assert out.shape == (1, 2, 2, 3) and np.all(out == 3.25)

    def test_odd_tail_dropped(self):
        x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
        out = nn.maxpool_2x2(x)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[6, 8], [16, 18]])

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            nn.maxpool_2x2(np.zeros((1, 1, 1, 5)))


class TestGlobalAvgPool:
    def test_constant_channel(self):
        out = nn.global_avg_pool(np.full((1, 3, 5, 7), -1.5))
        np.testing.assert_allclose(out, [[-1.5, -1.5, -1.5]])

    def test_worked_mean(self):
        out = nn.global_avg_pool(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out[0, 0] == 2.5

    def test_spatial_permutation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        flat = x.reshape(1, 2, -1)
        perm = rng.permutation(16)
        shuffled = flat[..., perm].reshape(1, 2, 4, 4)
        np.testing.assert_allclose(nn.global_avg_pool(x), nn.global_avg_pool(shuffled),
                                   rtol=1e-12)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        params = nn.DenseParams(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(nn.dense(x, params), x)

    def test_dot_product(self):
        out = nn.dense(np.array([[2.0, 3.0]]), nn.DenseParams(np.array([[1.0, 1.0]]),
                                                              np.array([1.0])))
        np.testing.assert_array_equal(out, [[6.0]])

    def test_zero_weights_give_bias(self):
        out = nn.dense(np.ones((1, 4)), nn.DenseParams(np.zeros((2, 4)), np.array([5.0, -5.0])))
        np.testing.assert_array_equal(out, [[5.0, -5.0]])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nn.dense(np.zeros((1, 3)), nn.DenseParams(np.zeros((2, 4)), np.zeros(2)))


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(nn.softmax(np.array([0.0, math.log(3.0)])),
                                   [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0, 2.2])
        np.testing.assert_allclose(nn.softmax(z), nn.softmax(z + 123.456), atol=1e-12)

    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_probability_vector(self, values):
        out = nn.softmax(np.array(values))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        z = np.random.default_rng(65).normal(0, 5, (4, 7))
        np.testing.assert_allclose(nn.log_softmax(z), np.log(nn.softmax(z)), rtol=0, atol=1e-12)

    def test_large_logits_stay_finite(self):
        np.testing.assert_array_equal(nn.log_softmax(np.array([1000.0, 0.0])), [0.0, -1000.0])

    def test_rows_match_single_vectors(self):
        z = np.random.default_rng(66).normal(0, 10, (5, 6))
        np.testing.assert_array_equal(nn.log_softmax(z), np.stack([nn.log_softmax(r) for r in z]))

    def test_other_ranks_rejected(self):
        for shape in ((), (0,), (2, 3, 4)):
            with pytest.raises(ShapeError):
                nn.log_softmax(np.zeros(shape))


class TestBatchedOperators:
    """A [B, ...] batch gives per item what a batch of one gives. Every call gets
    its own copy, since batch norm and ReLU overwrite their input."""

    B = 5

    @staticmethod
    def per_item(op, batch):
        return np.stack([op(item[None].copy())[0] for item in batch])

    @pytest.mark.parametrize("out_ch", [4, 64])  # one item per product at both sizes
    def test_conv2d_same(self, out_ch):
        rng = np.random.default_rng(60)
        x = rng.normal(0, 1, (self.B, 3, 4, 5))
        kernels = rng.normal(0, 1, (out_ch, 3, 3, 3))
        bias = rng.normal(0, 1, out_ch)
        params = nn.ConvParams(kernels, bias)
        got = nn.conv2d_same(x, params)
        assert got.shape == (self.B, out_ch, 4, 5)
        np.testing.assert_allclose(got, self.per_item(lambda m: nn.conv2d_same(m, params), x),
                                   rtol=0, atol=1e-12)
        want = np.stack([conv2d_reference(m, kernels, bias) for m in x])
        assert np.abs(got - want).max() < 1e-9

    def test_batchnorm_infer(self):
        # a conv with its batch norm folded in
        rng = np.random.default_rng(61)
        x = rng.normal(0, 1, (self.B, 1, 4, 4))
        bundle = conv_bn_bundle(rng.normal(0, 1, 3), rng.normal(0, 1, 3),
                                rng.uniform(0.5, 1.5, 3), rng.normal(0, 1, 3),
                                rng.normal(0, 1, 3), rng.uniform(0.2, 2.0, 3))
        np.testing.assert_allclose(
            models.run_layers(bundle, x, "conv"),
            self.per_item(lambda m: models.run_layers(bundle, m, "conv"), x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op", [nn.relu, nn.maxpool_2x2, nn.global_avg_pool])
    def test_parameterless_map_operators(self, op):
        x = np.random.default_rng(62).normal(0, 1, (self.B, 3, 6, 5))
        np.testing.assert_array_equal(op(x.copy()), self.per_item(op, x))

    def test_dense(self):
        rng = np.random.default_rng(63)
        x = rng.normal(0, 1, (self.B, 7))
        params = nn.DenseParams(rng.normal(0, 1, (4, 7)), rng.normal(0, 1, 4))
        np.testing.assert_allclose(nn.dense(x, params),
                                   self.per_item(lambda v: nn.dense(v, params), x),
                                   rtol=1e-12, atol=1e-12)

    def test_softmax(self):
        z = np.random.default_rng(64).normal(0, 10, (self.B, 6))
        np.testing.assert_array_equal(nn.softmax(z), np.stack([nn.softmax(r) for r in z]))

    @pytest.mark.parametrize("op", [nn.maxpool_2x2, nn.global_avg_pool])
    def test_other_ranks_rejected(self, op):
        for shape in ((2, 4), (1, 1, 2, 4, 4)):
            with pytest.raises(ShapeError):
                op(np.zeros(shape))

    def test_single_item_ranks_rejected(self, aug_bundle_small):
        # a lone [C, H, W] map or [K] vector is no longer read as a batch of one
        conv = nn.ConvParams(np.zeros((2, 2, 3, 3)), np.zeros(2))
        for op in (lambda m: nn.conv2d_same(m, conv), nn.maxpool_2x2, nn.global_avg_pool):
            with pytest.raises(ShapeError, match=r"\[B, C, H, W\]"):
                op(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError, match=r"\[B, K\]"):
            nn.dense(np.zeros(2), nn.DenseParams(np.zeros((3, 2)), np.zeros(3)))
        with pytest.raises(ValidationError, match=r"\[B, C, H, W\]"):
            models.run_layers(aug_bundle_small, np.zeros((1, 96, 64)))


def _reshape_max_pool(x):
    """The reshape-and-reduce 2x2 max pool, as an oracle for the strided one."""
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    blocks = x[..., : 2 * h2, : 2 * w2].reshape(*x.shape[:-2], h2, 2, w2, 2)
    return blocks.max(axis=(-3, -1))


# a [B, C, H, W] batch stored in each memory order the operators meet
_LAYOUTS = {
    "c-contiguous": lambda a: np.ascontiguousarray(a),
    "channel-major": lambda a: np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
    "channels-last": lambda a: np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
}


class TestChannelMajorLayout:
    """A conv stores its output channel-major, ``[C_out, B, H, W]`` memory seen as
    ``[B, C_out, H, W]``; the operators after it accept that order and keep it."""

    @staticmethod
    def params(out_ch, in_ch, seed=70):
        rng = np.random.default_rng(seed)
        return nn.ConvParams(rng.normal(0, 1, (out_ch, in_ch, 3, 3)), rng.normal(0, 1, out_ch))

    def test_single_item_output_is_c_contiguous(self):
        x = np.random.default_rng(71).normal(0, 1, (1, 3, 5, 6))
        out = nn.conv2d_same(x, self.params(4, 3))
        assert out.shape == (1, 4, 5, 6) and out.flags.c_contiguous

    def test_batch_output_is_a_view_of_channel_major_memory(self):
        x = np.random.default_rng(72).normal(0, 1, (3, 2, 5, 6))
        out = nn.conv2d_same(x, self.params(4, 2))
        assert out.shape == (3, 4, 5, 6)
        assert out.transpose(1, 0, 2, 3).flags.c_contiguous
        assert out.base is not None and out.base.size == out.size

    def test_conv_of_a_conv_output_matches_bruteforce(self):
        rng = np.random.default_rng(74)
        x = rng.normal(0, 1, (3, 2, 6, 4))
        first, second = self.params(5, 2, seed=75), self.params(128, 5, seed=76)
        got = nn.conv2d_same(nn.conv2d_same(x, first), second)
        want = np.stack([conv2d_reference(conv2d_reference(m, first.kernels, first.bias),
                                          second.kernels, second.bias) for m in x])
        assert np.abs(got - want).max() < 1e-9

    @given(st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 3, 40]),
           st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 3, 5, 7]),
           st.sampled_from(sorted(_LAYOUTS)), st.integers(0, 2**32 - 1))
    @example(2, 1, 3, 3, 2, 7, "c-contiguous", 0)
    @settings(max_examples=60, deadline=None)
    def test_conv_matches_bruteforce_property(self, b, in_ch, out_ch, h, w, k, layout, seed):
        # 40 output channels make small maps share a product, and 5x5 and 7x7
        # kernels reach past maps narrower than their border
        rng = np.random.default_rng(seed)
        x = _LAYOUTS[layout](rng.normal(0, 1, (b, in_ch, h, w)))
        kernels = rng.normal(0, 1, (out_ch, in_ch, k, k))
        bias = rng.normal(0, 1, out_ch)
        got = nn.conv2d_same(x, nn.ConvParams(kernels, bias))
        want = np.stack([conv2d_reference(m, kernels, bias) for m in x])
        assert np.abs(got - want).max() < 1e-9

    def test_pool_keeps_channel_major_order(self):
        x = nn.conv2d_same(np.random.default_rng(77).normal(0, 1, (2, 3, 6, 4)),
                           self.params(4, 3))
        assert nn.maxpool_2x2(x).transpose(1, 0, 2, 3).flags.c_contiguous

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([np.float32, np.float64]), st.sampled_from(sorted(_LAYOUTS)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_maxpool_equals_reshape_max(self, h, w, b, c, dtype, layout, seed):
        x = np.random.default_rng(seed).normal(0, 1, (b, c, h, w)).astype(dtype)
        x = _LAYOUTS[layout](x)
        got = nn.maxpool_2x2(x)
        assert got.dtype == dtype
        assert np.array_equal(got, _reshape_max_pool(x))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_direct_construction_rejects(self, bad):
        kernels = np.zeros((1, 1, 3, 3))
        kernels[0, 0, 1, 1] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            nn.ConvParams(kernels, np.zeros(1))
        with pytest.raises(ValidationError, match="layer bn: beta contains non-finite"):
            conv_bn_bundle([1.0, 1.0], [0.0, 0.0], np.ones(2), [0.0, bad], np.zeros(2),
                           np.ones(2))
        with pytest.raises(ShapeError, match="non-finite"):
            nn.DenseParams(np.zeros((2, 2)), np.array([bad, 0.0]))
