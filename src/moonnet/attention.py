"""SE and CBAM attention blocks with selectable gating.

Both blocks come in two flavours: the classic multiplicative sigmoid gate
``x * sigmoid(z)`` and the residual zero-centered gate ``x * (1 + tanh(z))``.
With identity-safe initialization (last projections zeroed) the residual
gate makes each block exactly the identity function, so it can be dropped
into a trained network without disturbing it at step 0.
"""

from __future__ import annotations

import enum

import numpy as np

from .tensor import (
    Module,
    Param,
    ShapeError,
    Tensor4,
    broadcast_mul,
    channel_reduce_avg,
    channel_reduce_max,
    concat_channels,
    conv2d,
    fc,
    global_avg_pool,
    global_max_pool,
    relu,
    sigmoid,
    tanh_act,
)

__all__ = [
    "GateKind",
    "gate_tensor",
    "bottleneck_width",
    "SEBlock",
    "CBAMBlock",
    "identity_safe_init",
]


class GateKind(enum.Enum):
    SIGMOID_ORIGINAL = "sigmoid"
    RESIDUAL_TANH = "residual-tanh"


def gate_tensor(z: Tensor4, kind: GateKind):
    """Tensor gate with backward; returns (multiplier, backward).  The
    sigmoid multiplier lies in (0, 1), the residual tanh one in (0, 2)."""
    if kind is GateKind.SIGMOID_ORIGINAL:
        return sigmoid(z)
    t, backward = tanh_act(z)  # d(1 + tanh)/dz = d tanh/dz
    return Tensor4(1.0 + t.values), backward


def bottleneck_width(channels: int, reduction: int) -> int:
    """Width of the excitation MLP hidden layer: max(8, floor(C / r))."""
    if reduction <= 0:
        raise ValueError(f"reduction ratio must be positive, got {reduction}")
    return max(8, channels // reduction)


class SEBlock(Module):
    """Squeeze-and-excitation: global average pool, bottleneck MLP, channel gate.

    Built with every parameter zero; ``draw(rng)`` fills W1 and b1 (fan-in
    ``channels``).  The output projection (W2, b2) stays zero, so the channel
    logits are zero for any input: the block is identity-safe.
    """

    def __init__(self, channels: int, reduction: int = 16,
                 gate: GateKind = GateKind.RESIDUAL_TANH, name: str = "se"):
        self.channels = channels
        self.m = bottleneck_width(channels, reduction)
        self.gate = gate
        self.w1 = Param(f"{name}/w1", np.zeros((self.m, channels), dtype=np.float32), channels)
        self.b1 = Param(f"{name}/b1", np.zeros((self.m,), dtype=np.float32), channels)
        self.w2 = Param(f"{name}/w2", np.zeros((channels, self.m), dtype=np.float32))
        self.b2 = Param(f"{name}/b2", np.zeros((channels,), dtype=np.float32))

    def _channel_gate(self, x: Tensor4, pools):
        """Run the shared MLP over each pooled vector of ``x``, sum the logits
        in pool order, and gate ``x`` by channel; returns (y, tape)."""
        if x.c != self.channels:
            raise ShapeError(f"{type(self).__name__} built for {self.channels} channels, "
                             f"got {x.c}")
        z, branches = None, []
        for pool in pools:
            c, bw_pool = pool(x)
            h_pre, bw_fc1 = fc(c, self.w1.value, self.b1.value)
            h, bw_relu = relu(h_pre)
            e, bw_fc2 = fc(h, self.w2.value, self.b2.value)
            z = e if z is None else Tensor4(z.values + e.values)
            branches.append((bw_pool, bw_fc1, bw_relu, bw_fc2))
        mult, bw_gate = gate_tensor(z, self.gate)
        y, bw_mul = broadcast_mul(x, mult)
        return y, (branches, bw_gate, bw_mul)

    def _channel_gate_backward(self, tape, g: np.ndarray) -> np.ndarray:
        branches, bw_gate, bw_mul = tape
        gx, gmult = bw_mul(g)
        (gz,) = bw_gate(gmult)
        for bw_pool, bw_fc1, bw_relu, bw_fc2 in branches:
            gh, gw2, gb2 = bw_fc2(gz)
            (gh_pre,) = bw_relu(gh)
            gc, gw1, gb1 = bw_fc1(gh_pre)
            self.w1.add_grad(gw1)
            self.b1.add_grad(gb1)
            self.w2.add_grad(gw2)
            self.b2.add_grad(gb2)
            (gx_pool,) = bw_pool(gc)
            gx = gx + gx_pool
        return gx

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y, tape = self._channel_gate(x, (global_avg_pool,))
        self._tape = tape if training else None
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        return self._channel_gate_backward(self._pop_tape(), g)


class CBAMBlock(SEBlock):
    """SE's channel gate over avg- and max-pooled statistics, followed by a
    spatial gate (k x k conv over channel-reduced avg/max maps).

    The same W1/W2 process both pooled vectors; the two excitations are
    summed into a single channel logit.  The spatial stage consumes the
    channel-gated tensor of the configured gate variant.  Identity-safe at
    construction: W2, b2, the spatial kernel, and the spatial bias all start
    at zero.
    """

    def __init__(self, channels: int, reduction: int = 16, kernel_size: int = 7,
                 gate: GateKind = GateKind.RESIDUAL_TANH, name: str = "cbam"):
        if kernel_size % 2 == 0:
            raise ValueError(f"spatial kernel size must be odd, got {kernel_size}")
        super().__init__(channels, reduction, gate, name)
        self.k = kernel_size
        self.spatial_kernel = Param(f"{name}/spatial_kernel",
                                    np.zeros((1, 2, kernel_size, kernel_size),
                                             dtype=np.float32))
        self.spatial_bias = Param(f"{name}/spatial_bias", np.zeros((1,), dtype=np.float32))

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        # pools are passed per call, not stored, so a patched module-level pool takes effect
        xc, tape_c = self._channel_gate(x, (global_avg_pool, global_max_pool))
        # spatial stage on the gated tensor
        f_avg, bw_ravg = channel_reduce_avg(xc)
        f_max, bw_rmax = channel_reduce_max(xc)
        f, bw_cat = concat_channels(f_avg, f_max)
        zs, bw_conv = conv2d(f, self.spatial_kernel.value, self.spatial_bias.value,
                             stride=1, pad=(self.k - 1) // 2)
        mult_s, bw_gate_s = gate_tensor(zs, self.gate)
        y, bw_mul_s = broadcast_mul(xc, mult_s)
        self._tape = ((tape_c, bw_ravg, bw_rmax, bw_cat, bw_conv, bw_gate_s, bw_mul_s)
                      if training else None)
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        tape_c, bw_ravg, bw_rmax, bw_cat, bw_conv, bw_gate_s, bw_mul_s = self._pop_tape()
        gxc, gmult_s = bw_mul_s(g)
        (gzs,) = bw_gate_s(gmult_s)
        gf, gsk, gsb = bw_conv(gzs)
        self.spatial_kernel.add_grad(gsk)
        self.spatial_bias.add_grad(gsb)
        gf_avg, gf_max = bw_cat(gf)
        (gxc_avg,) = bw_ravg(gf_avg)
        (gxc_max,) = bw_rmax(gf_max)
        return self._channel_gate_backward(tape_c, gxc + gxc_avg + gxc_max)


def identity_safe_init(module, seed: int = 0):
    """Re-initialize an SE or CBAM block to the bits of
    ``Block(...).draw(default_rng(seed))``: every parameter zeroed, then the
    first projection drawn.  The residual gate is then the identity, the
    sigmoid gate a constant scaling by 0.5 (SE) or 0.25 (CBAM)."""
    if not isinstance(module, SEBlock):
        raise TypeError(f"identity_safe_init takes an SE or CBAM block, "
                        f"got {type(module).__name__}")
    for p in module.parameters():
        p.value[...] = 0.0
    return module.draw(np.random.default_rng(seed))
