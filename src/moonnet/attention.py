"""SE and CBAM attention blocks with selectable gating.

Both blocks come in two flavours: the classic multiplicative sigmoid gate
``x * sigmoid(z)`` and the residual zero-centered gate ``x * (1 + tanh(z))``.
With identity-safe initialization (last projections zeroed) the residual
gate makes each block exactly the identity function, so it can be dropped
into a trained network without disturbing it at step 0.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tensor import (
    Module,
    Param,
    ShapeError,
    Tensor4,
    broadcast_mul,
    channel_reduce_avg,
    channel_reduce_max,
    clipped_sigmoid,
    concat_channels,
    conv2d,
    fc,
    global_avg_pool,
    global_max_pool,
    relu,
)

__all__ = [
    "GateKind",
    "gate_multiplier",
    "gate_tensor",
    "bottleneck_width",
    "SEBlock",
    "CBAMBlock",
    "identity_safe_init",
]


class GateKind(enum.Enum):
    SIGMOID_ORIGINAL = "sigmoid"
    RESIDUAL_TANH = "residual-tanh"


def gate_multiplier(kind: GateKind, logit: float) -> float:
    """Scalar gate response: sigmoid in (0, 1), residual tanh in (0, 2)."""
    mult, _ = gate_tensor(Tensor4(np.full((1, 1, 1, 1), logit, dtype=np.float64)), kind)
    return float(mult.values[0, 0, 0, 0])


def gate_tensor(z: Tensor4, kind: GateKind):
    """Tensor gate with backward; returns (multiplier, backward)."""
    if kind is GateKind.SIGMOID_ORIGINAL:
        s = mult = clipped_sigmoid(z.values)

        def backward(g):
            return (g * s * (1.0 - s),)
    else:
        t = np.tanh(z.values)
        mult = 1.0 + t

        def backward(g):
            return (g * (1.0 - t * t),)

    return Tensor4(mult), backward


def bottleneck_width(channels: int, reduction: int) -> int:
    """Width of the excitation MLP hidden layer: max(8, floor(C / r))."""
    if reduction <= 0:
        raise ValueError(f"reduction ratio must be positive, got {reduction}")
    return max(8, channels // reduction)


def _uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class SEBlock(Module):
    """Squeeze-and-excitation: global average pool, bottleneck MLP, channel gate.

    Constructed identity-safe: the output projection (W2, b2) starts at zero,
    so the channel logits are zero for any input.
    """

    def __init__(self, channels: int, reduction: int = 16,
                 gate: GateKind = GateKind.RESIDUAL_TANH,
                 rng: np.random.Generator | None = None,
                 dtype=np.float32, name: str = "se"):
        self.channels = channels
        self.m = bottleneck_width(channels, reduction)
        self.gate = gate
        self.dtype = np.dtype(dtype)
        if rng is None:
            rng = np.random.default_rng(0)
        self.w1 = Param(f"{name}/w1", _uniform_init(rng, (self.m, channels), channels, dtype))
        self.b1 = Param(f"{name}/b1", _uniform_init(rng, (self.m,), channels, dtype))
        self.w2 = Param(f"{name}/w2", np.zeros((channels, self.m), dtype=dtype))
        self.b2 = Param(f"{name}/b2", np.zeros((channels,), dtype=dtype))
        self._tape = None

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        if x.c != self.channels:
            raise ShapeError(f"SEBlock built for {self.channels} channels, got {x.c}")
        c, bw_gap = global_avg_pool(x)
        h_pre, bw_fc1 = fc(c, self.w1.value, self.b1.value)
        h, bw_relu = relu(h_pre)
        z, bw_fc2 = fc(h, self.w2.value, self.b2.value)
        mult, bw_gate = gate_tensor(z, self.gate)
        y, bw_mul = broadcast_mul(x, mult)
        self._tape = (bw_gap, bw_fc1, bw_relu, bw_fc2, bw_gate, bw_mul)
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        bw_gap, bw_fc1, bw_relu, bw_fc2, bw_gate, bw_mul = self._tape
        gx_main, gmult = bw_mul(g)
        (gz,) = bw_gate(gmult)
        gh, gw2, gb2 = bw_fc2(gz)
        (gh_pre,) = bw_relu(gh)
        gc, gw1, gb1 = bw_fc1(gh_pre)
        (gx_pool,) = bw_gap(gc)
        self.w1.add_grad(gw1)
        self.b1.add_grad(gb1)
        self.w2.add_grad(gw2)
        self.b2.add_grad(gb2)
        return gx_main + gx_pool


class CBAMBlock(Module):
    """Channel gate (shared MLP over avg- and max-pooled statistics) followed
    by a spatial gate (k x k conv over channel-reduced avg/max maps).

    The same W1/W2 process both the average and max pooled vectors; the two
    excitations are summed into a single channel logit.  The spatial stage
    consumes the channel-gated tensor of the configured gate variant.
    Identity-safe at construction: W2, b2, the spatial kernel, and the
    spatial bias all start at zero.
    """

    def __init__(self, channels: int, reduction: int = 16, kernel_size: int = 7,
                 gate: GateKind = GateKind.RESIDUAL_TANH,
                 rng: np.random.Generator | None = None,
                 dtype=np.float32, name: str = "cbam"):
        if kernel_size % 2 == 0:
            raise ValueError(f"spatial kernel size must be odd, got {kernel_size}")
        self.channels = channels
        self.m = bottleneck_width(channels, reduction)
        self.k = kernel_size
        self.gate = gate
        self.dtype = np.dtype(dtype)
        if rng is None:
            rng = np.random.default_rng(0)
        self.w1 = Param(f"{name}/w1", _uniform_init(rng, (self.m, channels), channels, dtype))
        self.b1 = Param(f"{name}/b1", _uniform_init(rng, (self.m,), channels, dtype))
        self.w2 = Param(f"{name}/w2", np.zeros((channels, self.m), dtype=dtype))
        self.b2 = Param(f"{name}/b2", np.zeros((channels,), dtype=dtype))
        self.spatial_kernel = Param(f"{name}/spatial_kernel",
                                    np.zeros((1, 2, kernel_size, kernel_size), dtype=dtype))
        self.spatial_bias = Param(f"{name}/spatial_bias", np.zeros((1,), dtype=dtype))
        self._tape = None

    def _excite(self, pooled: Tensor4):
        h_pre, bw_fc1 = fc(pooled, self.w1.value, self.b1.value)
        h, bw_relu = relu(h_pre)
        e, bw_fc2 = fc(h, self.w2.value, self.b2.value)
        return e, (bw_fc1, bw_relu, bw_fc2)

    def _excite_backward(self, tape, g):
        bw_fc1, bw_relu, bw_fc2 = tape
        gh, gw2, gb2 = bw_fc2(g)
        (gh_pre,) = bw_relu(gh)
        gpooled, gw1, gb1 = bw_fc1(gh_pre)
        self.w1.add_grad(gw1)
        self.b1.add_grad(gb1)
        self.w2.add_grad(gw2)
        self.b2.add_grad(gb2)
        return gpooled

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        if x.c != self.channels:
            raise ShapeError(f"CBAMBlock built for {self.channels} channels, got {x.c}")
        # channel stage
        c_avg, bw_gap = global_avg_pool(x)
        c_max, bw_gmp = global_max_pool(x)
        e_avg, tape_avg = self._excite(c_avg)
        e_max, tape_max = self._excite(c_max)
        zc = Tensor4(e_avg.values + e_max.values)
        mult_c, bw_gate_c = gate_tensor(zc, self.gate)
        xc, bw_mul_c = broadcast_mul(x, mult_c)
        # spatial stage on the gated tensor
        f_avg, bw_ravg = channel_reduce_avg(xc)
        f_max, bw_rmax = channel_reduce_max(xc)
        f, bw_cat = concat_channels(f_avg, f_max)
        zs, bw_conv = conv2d(f, self.spatial_kernel.value, self.spatial_bias.value,
                             stride=1, pad=(self.k - 1) // 2)
        mult_s, bw_gate_s = gate_tensor(zs, self.gate)
        y, bw_mul_s = broadcast_mul(xc, mult_s)
        self._tape = (bw_gap, bw_gmp, tape_avg, tape_max, bw_gate_c, bw_mul_c,
                      bw_ravg, bw_rmax, bw_cat, bw_conv, bw_gate_s, bw_mul_s)
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        (bw_gap, bw_gmp, tape_avg, tape_max, bw_gate_c, bw_mul_c,
         bw_ravg, bw_rmax, bw_cat, bw_conv, bw_gate_s, bw_mul_s) = self._tape
        # spatial stage
        gxc, gmult_s = bw_mul_s(g)
        (gzs,) = bw_gate_s(gmult_s)
        gf, gsk, gsb = bw_conv(gzs)
        self.spatial_kernel.add_grad(gsk)
        self.spatial_bias.add_grad(gsb)
        gf_avg, gf_max = bw_cat(gf)
        (gxc_avg,) = bw_ravg(gf_avg)
        (gxc_max,) = bw_rmax(gf_max)
        gxc = gxc + gxc_avg + gxc_max
        # channel stage
        gx_main, gmult_c = bw_mul_c(gxc)
        (gzc,) = bw_gate_c(gmult_c)
        gc_avg = self._excite_backward(tape_avg, gzc)
        gc_max = self._excite_backward(tape_max, gzc)
        (gx_gap,) = bw_gap(gc_avg)
        (gx_gmp,) = bw_gmp(gc_max)
        return gx_main + gx_gap + gx_gmp


def identity_safe_init(module, seed: int = 0):
    """Re-initialize a block so it starts as the identity (residual gate) or
    a pure halving (sigmoid gate): first projection seeded uniform with bound
    1/sqrt(fan_in), every last projection zeroed."""
    rng = np.random.default_rng(seed)
    dtype = module.dtype
    module.w1.value[...] = _uniform_init(rng, module.w1.value.shape, module.channels, dtype)
    module.b1.value[...] = _uniform_init(rng, module.b1.value.shape, module.channels, dtype)
    module.w2.value[...] = 0.0
    module.b2.value[...] = 0.0
    if isinstance(module, CBAMBlock):
        module.spatial_kernel.value[...] = 0.0
        module.spatial_bias.value[...] = 0.0
    return module
