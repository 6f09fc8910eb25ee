"""SE/CBAM block tests, including straight-line scalar oracles of both
equations and the identity-at-init / halving behaviours."""

import hashlib
import math

import numpy as np
import pytest

from moonnet.attention import (
    CBAMBlock,
    GateKind,
    SEBlock,
    bottleneck_width,
    gate_tensor,
    identity_safe_init,
)
from moonnet.backbone import ConvBlock
from moonnet.tensor import ShapeError, Tensor4
from moonnet.train import SGD


def random_input(shape, seed=0):
    return Tensor4(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


def drawn(block, seed=0):
    """A block as the backbone builds it: W1 and b1 drawn, the rest zero."""
    return block.draw(np.random.default_rng(seed))


def randomize(module, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.value[...] = scale * rng.standard_normal(p.value.shape)


def gate(kind, logit):
    """The multiplier ``gate_tensor`` gives a float64 1x1x1x1 logit."""
    mult, _ = gate_tensor(Tensor4(np.full((1, 1, 1, 1), logit, dtype=np.float64)), kind)
    return float(mult.values[0, 0, 0, 0])


class TestGateTensor:
    def test_residual_tanh_at_zero_is_one(self):
        assert gate(GateKind.RESIDUAL_TANH, 0.0) == 1.0

    def test_sigmoid_at_zero_halves(self):
        assert gate(GateKind.SIGMOID_ORIGINAL, 0.0) == 0.5

    def test_residual_tanh_asymptotes(self):
        assert gate(GateKind.RESIDUAL_TANH, 50.0) == pytest.approx(2.0)
        assert gate(GateKind.RESIDUAL_TANH, -50.0) == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_saturates_without_overflow(self):
        assert 0.0 < gate(GateKind.SIGMOID_ORIGINAL, -1000.0) < 1e-25
        assert gate(GateKind.SIGMOID_ORIGINAL, 1000.0) == 1.0

    def test_ranges(self):
        for z in np.linspace(-10, 10, 41):
            s = gate(GateKind.SIGMOID_ORIGINAL, z)
            r = gate(GateKind.RESIDUAL_TANH, z)
            assert 0.0 < s < 1.0
            assert 0.0 <= r < 2.0


class TestBottleneckWidth:
    @pytest.mark.parametrize("c,r,m", [(64, 16, 8), (256, 16, 16), (8, 4, 8), (1, 7, 8)])
    def test_m_rule(self, c, r, m):
        assert bottleneck_width(c, r) == m
        assert SEBlock(c, r).m == m
        assert CBAMBlock(c, r).m == m

    def test_rejects_nonpositive_reduction(self):
        with pytest.raises(ValueError):
            bottleneck_width(16, 0)


class TestSEIdentity:
    def test_residual_tanh_identity_bitwise(self):
        x = random_input((2, 16, 5, 5), seed=3)
        se = drawn(SEBlock(16, gate=GateKind.RESIDUAL_TANH))
        y = se.forward(x)
        assert np.array_equal(y.values, x.values)

    def test_sigmoid_halves_exactly(self):
        x = random_input((2, 16, 5, 5), seed=3)
        se = drawn(SEBlock(16, gate=GateKind.SIGMOID_ORIGINAL))
        y = se.forward(x)
        assert np.array_equal(y.values, 0.5 * x.values)

    def test_logits_zero_for_any_input(self):
        se = drawn(SEBlock(8))
        for seed in range(3):
            x = random_input((1, 8, 4, 4), seed=seed)
            se.forward(x)
            # z = W2 h + b2 with both zero
            assert np.all(se.w2.value == 0.0) and np.all(se.b2.value == 0.0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            SEBlock(8).forward(random_input((1, 4, 2, 2)))


def se_scalar_oracle(x, w1, b1, w2, b2, gate):
    """Straight-line reimplementation of the SE equations."""
    n, C, H, W = x.shape
    m = w1.shape[0]
    y = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        c = [sum(float(x[ni, ci, i, j]) for i in range(H) for j in range(W)) / (H * W)
             for ci in range(C)]
        h = []
        for a in range(m):
            acc = float(b1[a])
            for ci in range(C):
                acc += float(w1[a, ci]) * c[ci]
            h.append(max(acc, 0.0))
        for ci in range(C):
            z = float(b2[ci])
            for a in range(m):
                z += float(w2[ci, a]) * h[a]
            if gate is GateKind.SIGMOID_ORIGINAL:
                mult = 1.0 / (1.0 + math.exp(-z))
            else:
                mult = 1.0 + math.tanh(z)
            for i in range(H):
                for j in range(W):
                    y[ni, ci, i, j] = float(x[ni, ci, i, j]) * mult
    return y


class TestSEOracle:
    @pytest.mark.parametrize("gate", [GateKind.SIGMOID_ORIGINAL, GateKind.RESIDUAL_TANH])
    def test_matches_scalar_reimplementation(self, gate):
        se = SEBlock(16, 16, gate)
        assert se.m == 8
        randomize(se, seed=5)
        x = random_input((2, 16, 3, 3), seed=6)
        y = se.forward(x)
        ref = se_scalar_oracle(x.values, se.w1.value, se.b1.value,
                               se.w2.value, se.b2.value, gate)
        assert np.allclose(y.values, ref, rtol=1e-5, atol=1e-6)


def cbam_scalar_oracle(x, w1, b1, w2, b2, sk, sb, gate):
    """Straight-line reimplementation of the CBAM equations (shared MLP over
    avg and max statistics, then a k x k conv over channel-reduced maps)."""
    n, C, H, W = x.shape
    m = w1.shape[0]
    k = sk.shape[2]
    p = (k - 1) // 2

    def mlp(vec):
        h = []
        for a in range(m):
            acc = float(b1[a])
            for ci in range(C):
                acc += float(w1[a, ci]) * vec[ci]
            h.append(max(acc, 0.0))
        out = []
        for ci in range(C):
            acc = float(b2[ci])
            for a in range(m):
                acc += float(w2[ci, a]) * h[a]
            out.append(acc)
        return out

    def gmul(z):
        if gate is GateKind.SIGMOID_ORIGINAL:
            return 1.0 / (1.0 + math.exp(-z))
        return 1.0 + math.tanh(z)

    y = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        c_avg = [sum(float(x[ni, ci, i, j]) for i in range(H) for j in range(W)) / (H * W)
                 for ci in range(C)]
        c_max = [max(float(x[ni, ci, i, j]) for i in range(H) for j in range(W))
                 for ci in range(C)]
        e_avg, e_max = mlp(c_avg), mlp(c_max)
        xc = np.zeros((C, H, W))
        for ci in range(C):
            mult = gmul(e_avg[ci] + e_max[ci])
            for i in range(H):
                for j in range(W):
                    xc[ci, i, j] = float(x[ni, ci, i, j]) * mult
        for i in range(H):
            for j in range(W):
                zs = float(sb[0])
                for ki in range(k):
                    for kj in range(k):
                        ii, jj = i + ki - p, j + kj - p
                        if 0 <= ii < H and 0 <= jj < W:
                            f_avg = sum(xc[ci, ii, jj] for ci in range(C)) / C
                            f_max = max(xc[ci, ii, jj] for ci in range(C))
                            zs += float(sk[0, 0, ki, kj]) * f_avg
                            zs += float(sk[0, 1, ki, kj]) * f_max
                mult = gmul(zs)
                for ci in range(C):
                    y[ni, ci, i, j] = xc[ci, i, j] * mult
    return y


class TestCBAM:
    def test_residual_tanh_identity_bitwise(self):
        x = random_input((2, 8, 6, 6), seed=1)
        cb = drawn(CBAMBlock(8, gate=GateKind.RESIDUAL_TANH))
        y = cb.forward(x)
        assert np.array_equal(y.values, x.values)

    def test_sigmoid_quarters_exactly(self):
        x = random_input((2, 8, 6, 6), seed=1)
        cb = drawn(CBAMBlock(8, gate=GateKind.SIGMOID_ORIGINAL))
        y = cb.forward(x)
        assert np.array_equal(y.values, 0.25 * x.values)

    @pytest.mark.parametrize("gate", [GateKind.SIGMOID_ORIGINAL, GateKind.RESIDUAL_TANH])
    def test_matches_scalar_reimplementation(self, gate):
        cb = CBAMBlock(8, reduction=4, kernel_size=7, gate=gate)
        assert cb.m == 8
        randomize(cb, seed=15, scale=0.3)
        x = random_input((1, 8, 5, 5), seed=16)
        y = cb.forward(x)
        ref = cbam_scalar_oracle(x.values, cb.w1.value, cb.b1.value, cb.w2.value,
                                 cb.b2.value, cb.spatial_kernel.value,
                                 cb.spatial_bias.value, gate)
        assert np.allclose(y.values, ref, rtol=1e-4, atol=1e-5)

    def test_parameter_sharing_touches_both_paths(self):
        # perturbing W1 must change both the avg-path and the max-path
        # contributions to the channel logits
        cb = CBAMBlock(8, reduction=4, gate=GateKind.RESIDUAL_TANH)
        randomize(cb, seed=20, scale=0.3)
        cb.b1.value[...] = 1.0  # keep the probed hidden unit on the active side
        x = random_input((1, 8, 4, 4), seed=21)

        def channel_logits():
            c_avg = x.values.mean(axis=(2, 3)).reshape(1, 8, 1, 1)
            c_max = x.values.max(axis=(2, 3)).reshape(1, 8, 1, 1)
            from moonnet.tensor import fc, relu, Tensor4 as T4

            def path(v):
                h, _ = fc(T4(v), cb.w1.value, cb.b1.value)
                h, _ = relu(h)
                e, _ = fc(h, cb.w2.value, cb.b2.value)
                return e.values

            return path(c_avg).copy(), path(c_max).copy()

        a0, m0 = channel_logits()
        cb.w1.value[0, 0] += 0.5
        a1, m1 = channel_logits()
        assert not np.allclose(a0, a1)
        assert not np.allclose(m0, m1)


class TestGateBoundsAndShapes:
    @pytest.mark.parametrize("cls,channels", [(SEBlock, 8), (CBAMBlock, 8)])
    @pytest.mark.parametrize("gate", [GateKind.SIGMOID_ORIGINAL, GateKind.RESIDUAL_TANH])
    def test_shape_preserved_and_bounds(self, cls, channels, gate):
        mod = cls(channels, gate=gate)
        randomize(mod, seed=30, scale=0.4)
        for seed in range(3):
            x = random_input((2, channels, 4, 5), seed=seed)
            y = mod.forward(x)
            assert y.shape == x.shape
            bound = 1.0 if gate is GateKind.SIGMOID_ORIGINAL else 2.0
            if cls is CBAMBlock:
                bound = bound * bound  # two successive gates
            assert np.all(np.abs(y.values) <= bound * np.abs(x.values) + 1e-6)
            # multipliers are strictly positive, so no sign flips; float32
            # tanh saturation can underflow the residual gate to exactly 0
            assert np.all(y.values * x.values >= 0.0)


class TestIdentitySafeInit:
    def test_reinit_restores_identity(self):
        se = SEBlock(16)
        randomize(se, seed=40)
        identity_safe_init(se, seed=41)
        x = random_input((1, 16, 4, 4), seed=42)
        assert np.array_equal(se.forward(x).values, x.values)

    def test_cbam_reinit_zeroes_spatial(self):
        cb = CBAMBlock(8)
        randomize(cb, seed=43)
        identity_safe_init(cb, seed=44)
        assert np.all(cb.spatial_kernel.value == 0.0)
        assert np.all(cb.spatial_bias.value == 0.0)
        x = random_input((1, 8, 4, 4), seed=45)
        assert np.array_equal(cb.forward(x).values, x.values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("cls", [SEBlock, CBAMBlock])
    def test_reinit_equals_construction_with_seed(self, cls, gate, dtype):
        """Blocks are built float32; a block cast to float64 re-initializes to
        the bits of a fresh block cast the same way."""
        for s in (0, 7):
            block = drawn(cls(24, gate=gate), 99).cast(dtype)
            randomize(block, seed=s + 1)
            identity_safe_init(block, s)
            fresh = drawn(cls(24, gate=gate), s).cast(dtype)
            pairs = list(zip(block.named_tensors(), fresh.named_tensors()))
            assert len(pairs) == (6 if cls is CBAMBlock else 4)
            for (name, a), (fresh_name, b) in pairs:
                assert name == fresh_name
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes(), name

    def test_rejects_a_block_that_is_not_attention(self):
        # zeroing every parameter of a ConvBlock would zero its batchnorm gamma
        conv = ConvBlock(3, 8, 3, "conv")
        with pytest.raises(TypeError, match="an SE or CBAM block, got ConvBlock"):
            identity_safe_init(conv, seed=0)
        assert np.all(conv.gamma.value == 1.0)

    # sha256 of every named tensor's name, dtype, shape and bytes, taken when
    # the blocks drew W1 and b1 in their constructors (``rng=default_rng(s)``)
    @pytest.mark.parametrize("cls, seed, digest", [
        (SEBlock, 0, "7de52bb99cfca4e70225e7931ab1db4534f93b34a7164941279f12ad7fabdd62"),
        (SEBlock, 7, "e662a102581b8dbe56937ae013bc0dc8bd22673c097b180935d45a044fd00987"),
        (CBAMBlock, 0, "34c228d28f3818775df13c1ee791371c7369969d118666095e193d3289a1f2cc"),
        (CBAMBlock, 7, "dae996f2213fa64bb7a78bf505caf4a9ae9a4c1708243883ca9e9fb06df57efa"),
    ])
    def test_draw_pinned(self, cls, seed, digest):
        block = cls(24)
        assert block.draw(np.random.default_rng(seed)) is block
        h = hashlib.sha256()
        for name, arr in block.named_tensors():
            h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_gate_activates_after_one_sgd_step(self):
        se = drawn(SEBlock(8, gate=GateKind.RESIDUAL_TANH), 50)
        x = random_input((1, 8, 4, 4), seed=51)
        y = se.forward(x)
        assert np.array_equal(y.values, x.values)
        opt = SGD(se.parameters(), lr=0.1, momentum=0.0)
        opt.zero_grad()
        se.backward(np.ones_like(y.values))  # loss = sum of outputs
        opt.step()
        y2 = se.forward(x)
        assert np.max(np.abs(y2.values - x.values)) > 0.0
