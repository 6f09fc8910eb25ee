"""Tensor-core operator tests against straight-line scalar oracles."""

import warnings

import numpy as np
import pytest

from moonnet import tensor as T
from moonnet.tensor import ShapeError, Tensor4


def t4(values):
    return Tensor4(np.asarray(values, dtype=np.float32))


class TestTensor4:
    def test_requires_four_dims(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((1, 0, 2, 2)))

    def test_shape_accessors(self):
        x = t4(np.zeros((2, 3, 4, 5)))
        assert (x.n, x.c, x.h, x.w) == (2, 3, 4, 5)


class TestKinkTrace:
    def test_nested_trace_restores_the_outer_one(self):
        with T.KinkTrace() as outer:
            T.relu(t4([[[[-3.0]]]]))
            with T.KinkTrace() as inner:
                T.relu(t4([[[[0.5]]]]))
            T.relu(t4([[[[2.0]]]]))
        assert inner.margins == [0.5]
        assert outer.margins == [3.0, 2.0]
        assert T.KinkTrace.active is None


class TestGlobalAvgPool:
    def test_small_fixture(self):
        x = t4(np.array([1, 2, 3, 4]).reshape(1, 1, 2, 2))
        out, _ = T.global_avg_pool(x)
        assert out.values.reshape(()) == 2.5

    def test_constant(self):
        x = t4(np.full((2, 3, 4, 5), 7.25))
        out, _ = T.global_avg_pool(x)
        assert np.all(out.values == 7.25)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        out, _ = T.global_avg_pool(Tensor4(x))
        for c in range(2):
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    acc += float(x[0, c, i, j])
            assert out.values[0, c, 0, 0] == pytest.approx(acc / 9, rel=1e-6)

    def test_backward_distributes_uniformly(self):
        x = t4(np.arange(8).reshape(1, 2, 2, 2))
        _, bwd = T.global_avg_pool(x)
        (gx,) = bwd(np.array([[[[4.0]], [[8.0]]]], dtype=np.float32))
        assert np.all(gx[0, 0] == 1.0)
        assert np.all(gx[0, 1] == 2.0)


class TestGlobalMaxPool:
    def test_small_fixture(self):
        x = t4(np.array([1, 2, 3, 4]).reshape(1, 1, 2, 2))
        out, _ = T.global_max_pool(x)
        assert out.values.reshape(()) == 4.0

    def test_constant_ties_route_to_first(self):
        x = t4(np.full((1, 1, 3, 3), 5.0))
        out, bwd = T.global_max_pool(x)
        assert out.values.reshape(()) == 5.0
        (gx,) = bwd(np.ones((1, 1, 1, 1), dtype=np.float32))
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(gx, expected)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        out, _ = T.global_max_pool(Tensor4(x))
        for c in range(3):
            best = -np.inf
            for i in range(4):
                for j in range(4):
                    best = max(best, float(x[0, c, i, j]))
            assert out.values[0, c, 0, 0] == np.float32(best)


class TestChannelReduce:
    def test_small_fixture(self):
        x = t4(np.array([3.0, 5.0]).reshape(1, 2, 1, 1))
        avg, _ = T.channel_reduce_avg(x)
        mx, _ = T.channel_reduce_max(x)
        assert avg.values.reshape(()) == 4.0
        assert mx.values.reshape(()) == 5.0

    def test_single_channel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 3, 4)).astype(np.float32)
        avg, _ = T.channel_reduce_avg(Tensor4(x))
        mx, _ = T.channel_reduce_max(Tensor4(x))
        assert np.array_equal(avg.values, x)
        assert np.array_equal(mx.values, x)

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 2, 2)).astype(np.float32)
        avg, _ = T.channel_reduce_avg(Tensor4(x))
        mx, _ = T.channel_reduce_max(Tensor4(x))
        for i in range(2):
            for j in range(2):
                vals = [float(x[0, c, i, j]) for c in range(4)]
                assert avg.values[0, 0, i, j] == pytest.approx(sum(vals) / 4, rel=1e-6)
                assert mx.values[0, 0, i, j] == np.float32(max(vals))


class TestFC:
    def test_identity_weight(self):
        x = t4(np.arange(3).reshape(1, 3, 1, 1))
        out, _ = T.fc(x, np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32))
        assert np.array_equal(out.values, x.values)

    def test_zero_projection(self):
        x = t4(np.random.default_rng(0).standard_normal((2, 4, 1, 1)))
        out, _ = T.fc(x, np.zeros((4, 4), dtype=np.float32), np.zeros(4, dtype=np.float32))
        assert np.all(out.values == 0.0)

    def test_matches_dot_loop(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 5, 1, 1)).astype(np.float32)
        W = rng.standard_normal((3, 5)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out, _ = T.fc(Tensor4(x), W, b)
        for n in range(2):
            for j in range(3):
                acc = float(b[j])
                for i in range(5):
                    acc += float(W[j, i]) * float(x[n, i, 0, 0])
                assert out.values[n, j, 0, 0] == pytest.approx(acc, rel=1e-5)

    def test_dimension_mismatch(self):
        x = t4(np.zeros((1, 4, 1, 1)))
        with pytest.raises(ShapeError):
            T.fc(x, np.zeros((3, 5), dtype=np.float32), np.zeros(3, dtype=np.float32))


class TestConv2d:
    def test_identity_1x1_is_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        kern = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            kern[c, c, 0, 0] = 1.0
        out, _ = T.conv2d(Tensor4(x), kern, np.zeros(3, dtype=np.float32))
        assert np.array_equal(out.values, x)

    def test_zero_kernel(self):
        x = t4(np.random.default_rng(1).standard_normal((1, 2, 5, 5)))
        out, _ = T.conv2d(x, np.zeros((1, 2, 3, 3), dtype=np.float32),
                          np.zeros(1, dtype=np.float32), 1, 1)
        assert np.all(out.values == 0.0)

    def test_matches_six_nested_loops(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        kern = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        out, _ = T.conv2d(Tensor4(x), kern, b, stride=1, pad=1)
        assert out.shape == (1, 1, 5, 5)
        xp = np.zeros((1, 2, 7, 7), dtype=np.float64)
        xp[:, :, 1:6, 1:6] = x
        for o in range(1):
            for i in range(5):
                for j in range(5):
                    acc = float(b[o])
                    for c in range(2):
                        for ki in range(3):
                            for kj in range(3):
                                acc += float(kern[o, c, ki, kj]) * xp[0, c, i + ki, j + kj]
                    assert out.values[0, o, i, j] == pytest.approx(acc, rel=1e-4, abs=1e-5)

    def test_output_size_and_errors(self):
        x = t4(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            T.conv2d(x, np.zeros((1, 1, 5, 5), dtype=np.float32),
                     np.zeros(1, dtype=np.float32), stride=1, pad=0)
        with pytest.raises(ShapeError):  # even kernel
            T.conv2d(x, np.zeros((1, 1, 2, 2), dtype=np.float32),
                     np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError):  # channel mismatch
            T.conv2d(x, np.zeros((1, 2, 3, 3), dtype=np.float32),
                     np.zeros(1, dtype=np.float32))


def _row_major_im2col_conv2d(x, kernel, b, stride, pad):
    """The (n*ho*wo, c*k*k) im2col conv that conv2d's channel-major columns
    replaced, kept as a reference: returns (out, backward)."""
    n, c, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = windows[:, :, ::stride, ::stride]
    M = np.ascontiguousarray(cols.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * k * k)
    Km = kernel.reshape(c_out, c * k * k)
    out = (M @ Km.T).reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2) + b[None, :, None, None]

    def backward(g):
        g_m = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, c_out)
        gk = (g_m.T @ M).reshape(kernel.shape)
        g_cols = (g_m @ Km).reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                    j:j + stride * (wo - 1) + 1:stride] += g_cols[:, :, :, :, i, j]
        return gxp[:, :, pad:pad + h, pad:pad + w], gk, g.sum(axis=(0, 2, 3))

    return out, backward


def _assert_rel_close(a, ref, rel):
    assert a.shape == ref.shape
    assert np.abs(a - ref).max() <= rel * np.abs(ref).max()


class TestConv2dColumnLayout:
    """conv2d against the row-major im2col reference, forward and backward."""

    CASES = [  # (n, c, h, w, c_out, k, stride, pad)
        (2, 3, 9, 7, 4, 1, 1, 0),
        (2, 3, 9, 7, 4, 1, 2, 0),
        (2, 4, 8, 8, 5, 3, 1, 1),
        (2, 4, 9, 8, 5, 3, 2, 1),
        (1, 3, 5, 6, 2, 3, 1, 0),
        (1, 2, 8, 8, 1, 7, 1, 3),   # CBAM's spatial conv
        (2, 3, 10, 9, 2, 7, 2, 3),
        (3, 5, 4, 4, 1, 1, 1, 0),   # the 1x1 head
    ]

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_row_major_im2col(self, case, dtype, rel, bias):
        n, c, h, w, c_out, k, stride, pad = case
        rng = np.random.default_rng(sum(case))
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        kern = rng.standard_normal((c_out, c, k, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        out, bw = T.conv2d(Tensor4(x), kern, b if bias else None, stride=stride, pad=pad)
        ref, ref_bw = _row_major_im2col_conv2d(x, kern, b if bias else np.zeros_like(b),
                                               stride, pad)
        assert out.dtype == dtype
        _assert_rel_close(out.values, ref, rel)
        g = rng.standard_normal(ref.shape).astype(dtype)
        gx, gk, gb = bw(g)
        ref_gx, ref_gk, ref_gb = ref_bw(g)
        _assert_rel_close(gx, ref_gx, rel)
        _assert_rel_close(gk, ref_gk, rel)
        if bias:
            _assert_rel_close(gb, ref_gb, rel)
        else:
            assert gb is None


class TestActivations:
    def test_sigmoid_at_zero_halves(self):
        out, _ = T.sigmoid(t4(np.zeros((1, 1, 1, 1))))
        assert out.values.reshape(()) == 0.5

    def test_tanh_at_zero(self):
        out, _ = T.tanh_act(t4(np.zeros((1, 2, 2, 2))))
        assert np.all(out.values == 0.0)
        assert np.all(1.0 + out.values == 1.0)

    def test_relu_subgradient_zero_at_zero(self):
        x = t4(np.array([[-1.0, 0.0], [0.5, 2.0]]).reshape(1, 1, 2, 2))
        out, bwd = T.relu(x)
        (gx,) = bwd(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert np.array_equal(out.values.reshape(-1), [0, 0, 0.5, 2.0])
        assert np.array_equal(gx.reshape(-1), [0, 0, 1, 1])

    @pytest.mark.parametrize("op", [T.sigmoid, T.tanh_act, T.silu])
    def test_derivative_matches_central_difference(self, op):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 3, 4, 4))
        eps = 1e-6
        _, bwd = op(Tensor4(x))
        (analytic,) = bwd(np.ones_like(x))
        up, _ = op(Tensor4(x + eps))
        dn, _ = op(Tensor4(x - eps))
        fd = (up.values - dn.values) / (2 * eps)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-6

    def test_sigmoid_extreme_inputs_stay_finite(self):
        x = t4(np.array([-500.0, 500.0]).reshape(1, 1, 1, 2))
        out, _ = T.sigmoid(x)
        assert np.all(np.isfinite(out.values))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_extreme_inputs_stay_finite_without_warnings(self, dtype):
        x = Tensor4(np.array([-1000.0, 1000.0], dtype=dtype).reshape(1, 1, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, bwd = T.silu(x)
            (gx,) = bwd(np.ones_like(x.values))
        assert out.dtype == gx.dtype == dtype
        assert np.all(np.isfinite(out.values)) and np.all(np.isfinite(gx))
        assert abs(out.values[0, 0, 0, 0]) < 1e-20 and out.values[0, 0, 0, 1] == 1000.0
        assert abs(gx[0, 0, 0, 0]) < 1e-20 and gx[0, 0, 0, 1] == 1.0


class TestBroadcastMul:
    def test_ones_gate_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        g = np.ones((2, 3, 1, 1), dtype=np.float32)
        out, _ = T.broadcast_mul(Tensor4(x), Tensor4(g))
        assert np.array_equal(out.values, x)

    def test_zero_gate(self):
        x = t4(np.random.default_rng(2).standard_normal((2, 3, 4, 4)))
        out, _ = T.broadcast_mul(x, t4(np.zeros((2, 1, 4, 4))))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("gshape", [(2, 3, 1, 1), (2, 1, 4, 4)])
    def test_matches_explicit_expansion(self, gshape):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        g = rng.standard_normal(gshape).astype(np.float32)
        out, _ = T.broadcast_mul(Tensor4(x), Tensor4(g))
        expanded = np.broadcast_to(g, x.shape)
        assert np.array_equal(out.values, x * expanded)

    def test_backward_conserves_gate_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 4))
        g = rng.standard_normal((2, 3, 1, 1))
        gout = rng.standard_normal((2, 3, 4, 4))
        _, bwd = T.broadcast_mul(Tensor4(x), Tensor4(g))
        gx, gg = bwd(gout)
        assert np.allclose((gout * x).sum(axis=(2, 3), keepdims=True), gg)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.broadcast_mul(t4(np.zeros((1, 3, 4, 4))), t4(np.zeros((1, 2, 1, 1))))


class TestStructural:
    def test_concat_split_round_trip_bitwise(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
        cat, _ = T.concat_channels(Tensor4(a), Tensor4(b))
        ra, rb, _ = T.split_channels(cat, 2)
        assert np.array_equal(ra.values, a)
        assert np.array_equal(rb.values, b)

    def test_add_zero(self):
        x = t4(np.random.default_rng(6).standard_normal((1, 2, 2, 2)))
        out, _ = T.add(x, t4(np.zeros((1, 2, 2, 2))))
        assert np.array_equal(out.values, x.values)

    def test_split_bounds(self):
        with pytest.raises(ShapeError):
            T.split_channels(t4(np.zeros((1, 4, 2, 2))), 4)

    def test_batchnorm_standardizes(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, size=(4, 3, 8, 8)).astype(np.float32)
        out, _ = T.batchnorm(Tensor4(x), np.ones(3, dtype=np.float32),
                             np.zeros(3, dtype=np.float32), eps=1e-5)
        mean = out.values.mean(axis=(0, 2, 3))
        var = out.values.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_batchnorm_eval_uses_running_stats(self):
        x = t4(np.random.default_rng(0).standard_normal((2, 2, 3, 3)))
        rm = np.array([0.0, 1.0], dtype=np.float32)
        rv = np.array([1.0, 4.0], dtype=np.float32)
        out, _ = T.batchnorm(x, np.ones(2, dtype=np.float32), np.zeros(2, dtype=np.float32),
                             eps=0.0, training=False, running_mean=rm, running_var=rv)
        expected = (x.values - rm[None, :, None, None]) / np.sqrt(rv)[None, :, None, None]
        assert np.allclose(out.values, expected, atol=1e-6)


def _batchnorm_backward_three_term(g, xhat, gamma, invstd, training):
    """The textbook backward: gradient through xhat, minus its two projections."""
    c = (None, slice(None), None, None)
    m = g.shape[0] * g.shape[2] * g.shape[3]
    gxhat = g * gamma[c]
    if not training:
        return gxhat * invstd[c]
    return (invstd[c] / m) * (m * gxhat - gxhat.sum(axis=(0, 2, 3), keepdims=True)
                              - xhat * (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True))


class TestBatchnormClosedForm:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 8, 8), (2, 16, 5, 7), (8, 32, 2, 2), (1, 5, 6, 4)])
    def test_backward_matches_three_term_formula(self, shape, training):
        rng = np.random.default_rng(31)
        c = shape[1]
        x = rng.normal(1.5, 3.0, size=shape)
        gamma = rng.standard_normal(c)
        beta = rng.standard_normal(c)
        running_mean = rng.standard_normal(c)
        running_var = rng.uniform(0.5, 2.0, size=c)
        g = rng.standard_normal(shape)
        if training:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = running_mean, running_var
        invstd = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
        _, bwd = T.batchnorm(Tensor4(x), gamma, beta, training=training,
                             running_mean=running_mean.copy(), running_var=running_var.copy())
        gx, ggamma, gbeta = bwd(g)
        ref = _batchnorm_backward_three_term(g, xhat, gamma, invstd, training)
        assert gx.dtype == np.float64
        assert np.abs(gx - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.allclose(ggamma, (g * xhat).sum(axis=(0, 2, 3)), rtol=1e-12, atol=0)
        assert np.allclose(gbeta, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=0)

    def test_training_forward_bit_equal_to_mean_var_reference(self):
        rng = np.random.default_rng(32)
        for shape in [(4, 32, 16, 16), (4, 8, 32, 32), (2, 64, 4, 4)]:
            c = shape[1]
            x = rng.normal(0.7, 2.5, size=shape).astype(np.float32)
            gamma = rng.standard_normal(c).astype(np.float32)
            beta = rng.standard_normal(c).astype(np.float32)
            rm0 = rng.standard_normal(c).astype(np.float32)
            rv0 = rng.uniform(0.5, 2.0, size=c).astype(np.float32)
            rm, rv = rm0.copy(), rv0.copy()
            out, _ = T.batchnorm(Tensor4(x), gamma, beta, training=True,
                                 running_mean=rm, running_var=rv)
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            invstd = 1.0 / np.sqrt(var + 1e-5)
            xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
            ref = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
            assert out.dtype == np.float32
            assert np.array_equal(out.values, ref)
            assert np.array_equal(rm, (rm0 * np.float32(0.9)) + 0.1 * mean)
            assert np.array_equal(rv, (rv0 * np.float32(0.9)) + 0.1 * var)


class TestPoolingInvariants:
    def test_avg_and_max_coincide_on_constants(self):
        for k in [0.0, -2.5, 13.0]:
            x = t4(np.full((2, 3, 4, 5), k))
            avg, _ = T.global_avg_pool(x)
            mx, _ = T.global_max_pool(x)
            assert np.array_equal(avg.values, mx.values)
            assert np.all(avg.values == np.float32(k))
