"""Attention-augmented CNN backbones.

Six published stage arrangements over a YOLO-style pipeline: each stage is a
stride-2 conv block (conv + BN + SiLU), an optional attention block, and a
simplified C2f feature block.  Designs 1-3 run on the base channel ladder
(64, 128, 256, 512, 1024); designs 4-6 (and the attention-free design 0
used as their baseline) run on the doubled ladder, so design 5 at width
0.25 lands on channels (32, 64, 128, 256, 512).

Design 5 is MoonNet: SE and CBAM alternating per stage, starting with SE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .attention import CBAMBlock, GateKind, SEBlock
from .tensor import (
    Module,
    Param,
    ShapeError,
    Tensor4,
    add,
    batchnorm,
    concat_channels,
    conv2d,
    silu,
    split_channels,
)

__all__ = [
    "AttentionKind",
    "StageSpec",
    "BackboneDesign",
    "ConfigError",
    "build_design",
    "Backbone",
    "ConvBlock",
    "per_branch_attention",
    "DESIGN_ATTENTION",
    "BASE_LADDER",
    "DOUBLED_LADDER",
]


class ConfigError(ValueError):
    """Raised for invalid design ids or inconsistent configuration."""


class AttentionKind(enum.Enum):
    NONE = "none"
    SE = "se"
    CBAM = "cbam"


IN_CHANNELS = 3  # RGB
BASE_LADDER = (64, 128, 256, 512, 1024)
DOUBLED_LADDER = (128, 256, 512, 1024, 2048)

_SE, _CB, _NO = AttentionKind.SE, AttentionKind.CBAM, AttentionKind.NONE

# per-stage attention arrangement for each design id
DESIGN_ATTENTION = {
    0: (_NO, _NO, _NO, _NO, _NO),
    1: (_SE, _SE, _SE, _SE, _SE),
    2: (_CB, _CB, _CB, _CB, _CB),
    3: (_CB, _SE, _CB, _SE, _CB),
    4: (_CB, _SE, _CB, _SE, _CB),
    5: (_SE, _CB, _SE, _CB, _SE),  # MoonNet
    6: (_SE, _SE, _CB, _SE, _CB),
}


@dataclass
class StageSpec:
    out_channels: int
    attention: AttentionKind = AttentionKind.NONE
    has_c2f: bool = True


@dataclass
class BackboneDesign:
    stages: list[StageSpec]
    gate: GateKind = GateKind.RESIDUAL_TANH
    reduction: int = 16
    spatial_kernel: int = 7

    @property
    def stage_channels(self):
        return tuple(s.out_channels for s in self.stages)


def _scale(c: int, w: float) -> int:
    return max(1, round(c * w))


def build_design(design_id: int, width_multiplier: float = 1.0,
                 gate: GateKind = GateKind.RESIDUAL_TANH,
                 ladder: tuple[int, ...] | None = None,
                 reduction: int = 16, spatial_kernel: int = 7) -> BackboneDesign:
    """Build one of the seven stage arrangements (0 = attention-free).

    ``ladder`` overrides the per-design default channel ladder; designs 1-3
    default to the base ladder, designs 0 and 4-6 to the doubled one.
    """
    if design_id not in DESIGN_ATTENTION:
        raise ConfigError(f"unknown design id {design_id}; expected 0..6")
    if not 0.0 < width_multiplier <= 1.0:
        raise ConfigError(f"width multiplier must be in (0, 1], got {width_multiplier}")
    if ladder is None:
        ladder = BASE_LADDER if design_id in (1, 2, 3) else DOUBLED_LADDER
    kinds = DESIGN_ATTENTION[design_id]
    stages = [
        StageSpec(out_channels=_scale(c, width_multiplier), attention=kind,
                  has_c2f=(i > 0))
        for i, (c, kind) in enumerate(zip(ladder, kinds))
    ]
    return BackboneDesign(stages=stages, gate=gate, reduction=reduction,
                          spatial_kernel=spatial_kernel)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _conv_init(rng, c_out, c_in, k, dtype):
    bound = 1.0 / np.sqrt(c_in * k * k)
    return rng.uniform(-bound, bound, size=(c_out, c_in, k, k)).astype(dtype)


class ConvBlock(Module):
    """conv -> batchnorm -> SiLU.  The conv has no bias: a training-mode
    batchnorm subtracts the batch mean, which would cancel it."""

    def __init__(self, c_in, c_out, k, rng, dtype, name, stride=1):
        self.stride, self.pad = stride, (k - 1) // 2
        self.weight = Param(f"{name}/weight", _conv_init(rng, c_out, c_in, k, dtype))
        self.gamma = Param(f"{name}/bn_gamma", np.ones((c_out,), dtype=dtype))
        self.beta = Param(f"{name}/bn_beta", np.zeros((c_out,), dtype=dtype))
        self.running_mean = np.zeros((c_out,), dtype=dtype)
        self.running_var = np.ones((c_out,), dtype=dtype)
        self._tape = None

    def named_tensors(self):
        prefix = self.weight.name.rsplit("/", 1)[0]
        return super().named_tensors() + [(f"{prefix}/bn_running_mean", self.running_mean),
                                          (f"{prefix}/bn_running_var", self.running_var)]

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y, bw_conv = conv2d(x, self.weight.value, None, stride=self.stride, pad=self.pad)
        y, bw_bn = batchnorm(y, self.gamma.value, self.beta.value, training=training,
                             running_mean=self.running_mean, running_var=self.running_var)
        y, bw_act = silu(y)
        self._tape = (bw_conv, bw_bn, bw_act)
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        bw_conv, bw_bn, bw_act = self._tape
        (g,) = bw_act(g)
        g, ggamma, gbeta = bw_bn(g)
        self.gamma.add_grad(ggamma)
        self.beta.add_grad(gbeta)
        gx, gk, _ = bw_conv(g)
        self.weight.add_grad(gk)
        return gx


class Bottleneck(Module):
    """Two 3x3 conv blocks with a residual add (channel-preserving)."""

    def __init__(self, channels, rng, dtype, name):
        self.cv1 = ConvBlock(channels, channels, 3, rng, dtype, f"{name}/cv1")
        self.cv2 = ConvBlock(channels, channels, 3, rng, dtype, f"{name}/cv2")
        self._tape = None

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y = self.cv1.forward(x, training)
        y = self.cv2.forward(y, training)
        out, bw_add = add(x, y)
        self._tape = bw_add
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        gx, gy = self._tape(g)
        gy = self.cv2.backward(gy)
        gy = self.cv1.backward(gy)
        return gx + gy


class C2f(Module):
    """Simplified split/bottleneck/concat block: 1x1 conv, split in half,
    run one bottleneck on the second half, concat, 1x1 conv."""

    def __init__(self, channels, rng, dtype, name):
        if channels % 2:
            raise ConfigError(f"C2f needs an even channel count, got {channels}")
        self.channels = channels
        self.cv1 = ConvBlock(channels, channels, 1, rng, dtype, f"{name}/cv1")
        self.block = Bottleneck(channels // 2, rng, dtype, f"{name}/b0")
        self.cv2 = ConvBlock(channels, channels, 1, rng, dtype, f"{name}/cv2")
        self._tape = None

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y = self.cv1.forward(x, training)
        a, b, bw_split = split_channels(y, self.channels // 2)
        b = self.block.forward(b, training)
        y, bw_cat = concat_channels(a, b)
        self._tape = (bw_split, bw_cat)
        return self.cv2.forward(y, training)

    def backward(self, g: np.ndarray) -> np.ndarray:
        bw_split, bw_cat = self._tape
        g = self.cv2.backward(g)
        ga, gb = bw_cat(g)
        gb = self.block.backward(gb)
        (g,) = bw_split(ga, gb)
        return self.cv1.backward(g)


def _make_attention(kind: AttentionKind, channels: int, gate: GateKind, reduction: int,
                    spatial_kernel: int, rng, dtype, name):
    if kind is AttentionKind.SE:
        return SEBlock(channels, reduction, gate, rng=rng, dtype=dtype, name=name)
    if kind is AttentionKind.CBAM:
        return CBAMBlock(channels, reduction, spatial_kernel, gate, rng=rng,
                         dtype=dtype, name=name)
    return None


class Stage(Module):
    """stride-2 conv block -> attention -> optional C2f."""

    def __init__(self, c_in, spec: StageSpec, design: BackboneDesign, seed, idx, dtype):
        # dedicated streams per component so attention draws never shift the
        # conv weights between designs
        conv_rng = np.random.default_rng([seed, idx, 0])
        att_rng = np.random.default_rng([seed, idx, 1])
        c2f_rng = np.random.default_rng([seed, idx, 2])
        self.conv = ConvBlock(c_in, spec.out_channels, 3, conv_rng, dtype,
                              f"stage{idx}/conv", stride=2)
        self.attention = _make_attention(spec.attention, spec.out_channels, design.gate,
                                         design.reduction, design.spatial_kernel,
                                         att_rng, dtype, name=f"stage{idx}/att")
        self.c2f = (C2f(spec.out_channels, c2f_rng, dtype, f"stage{idx}/c2f")
                    if spec.has_c2f else None)

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y = self.conv.forward(x, training)
        if self.attention is not None:
            y = self.attention.forward(y, training)
        if self.c2f is not None:
            y = self.c2f.forward(y, training)
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        if self.c2f is not None:
            g = self.c2f.backward(g)
        if self.attention is not None:
            g = self.attention.backward(g)
        return self.conv.backward(g)


class Backbone(Module):
    """Full stage pipeline; forward emits every stage output for pyramid use."""

    def __init__(self, design: BackboneDesign, seed: int = 0, dtype=np.float32):
        self.stages = []
        c = IN_CHANNELS
        for i, spec in enumerate(design.stages):
            self.stages.append(Stage(c, spec, design, seed, i, dtype=dtype))
            c = spec.out_channels

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def forward(self, x: Tensor4, training: bool = True) -> list[Tensor4]:
        if x.c != IN_CHANNELS:
            raise ShapeError(f"backbone expects {IN_CHANNELS} input channels, got {x.c}")
        div = 2 ** len(self.stages)
        if x.h % div or x.w % div:
            raise ShapeError(f"input {x.h}x{x.w} not divisible by {div}")
        outs = []
        for stage in self.stages:
            x = stage.forward(x, training)
            outs.append(x)
        return outs

    def backward(self, grads: list[np.ndarray | None]) -> np.ndarray:
        """Propagate per-stage output gradients back to the input.

        ``grads[i]`` is the gradient w.r.t. stage i's output (None for zero).
        """
        if len(grads) != len(self.stages):
            raise ShapeError("need one gradient slot per stage")
        g = None
        for stage, gout in zip(reversed(self.stages), reversed(grads)):
            if gout is not None:
                g = gout if g is None else g + gout
            if g is None:
                continue
            g = stage.backward(g)
        if g is None:
            raise ValueError("backward called with no gradients")
        return g


def per_branch_attention(branches: list[Tensor4], kinds: list[AttentionKind],
                         gate: GateKind = GateKind.RESIDUAL_TANH,
                         reduction: int = 16, spatial_kernel: int = 7,
                         seed: int = 0, dtype=np.float32):
    """Apply one dedicated attention block to each multi-resolution branch.

    Shapes are unchanged; with the residual gate at identity-safe init the
    whole operation is the identity, so downstream consumers need no changes.
    Returns (outputs, modules).
    """
    if len(kinds) != len(branches):
        raise ConfigError(f"{len(branches)} branches but {len(kinds)} attention kinds")
    outs, modules = [], []
    for i, (f, kind) in enumerate(zip(branches, kinds)):
        rng = np.random.default_rng([seed, i])
        mod = _make_attention(kind, f.c, gate, reduction, spatial_kernel, rng, dtype,
                              name=f"branch{i}/att")
        modules.append(mod)
        outs.append(f if mod is None else mod.forward(f, training=False))
    return outs, modules
