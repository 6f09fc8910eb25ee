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
    Buffer,
    Module,
    Param,
    ShapeError,
    Tensor4,
    add,
    batchnorm_silu,
    concat_channels,
    conv2d,
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


@dataclass
class BackboneDesign:
    stages: list[StageSpec]
    gate: GateKind = GateKind.RESIDUAL_TANH
    spatial_kernel: int = 7


def _scale(c: int, w: float) -> int:
    return max(1, round(c * w))


def build_design(design_id: int, width_multiplier: float = 1.0,
                 gate: GateKind = GateKind.RESIDUAL_TANH,
                 ladder: tuple[int, ...] | None = None,
                 spatial_kernel: int = 7) -> BackboneDesign:
    """Build one of the seven stage arrangements (0 = attention-free).

    ``ladder`` overrides the per-design default channel ladder; designs 1-3
    default to the base ladder, designs 0 and 4-6 to the doubled one.
    """
    if design_id not in DESIGN_ATTENTION:
        raise ConfigError(f"design_id must be in 0..6, got {design_id}")
    if not 0.0 < width_multiplier <= 1.0:
        raise ConfigError(f"width must be in (0, 1], got {width_multiplier}")
    if ladder is None:
        ladder = BASE_LADDER if design_id in (1, 2, 3) else DOUBLED_LADDER
    kinds = DESIGN_ATTENTION[design_id]
    stages = [
        StageSpec(out_channels=_scale(c, width_multiplier), attention=kind)
        for c, kind in zip(ladder, kinds)
    ]
    for i, spec in enumerate(stages):
        if i > 0 and spec.out_channels % 2:  # every stage but the first has a C2f
            raise ConfigError(f"width {width_multiplier} gives design {design_id} stage {i} "
                              f"{spec.out_channels} channels; its C2f block needs an even count")
    return BackboneDesign(stages=stages, gate=gate, spatial_kernel=spatial_kernel)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

class ConvBlock(Module):
    """conv -> batchnorm -> SiLU.  The conv has no bias: a training-mode
    batchnorm subtracts the batch mean, which would cancel it.  The kernel is
    built zero; ``draw`` fills it.  Batchnorm and SiLU run fused, as
    ``batchnorm_silu``, so a training tape holds two arrays of the output's
    size, batchnorm's ``xhat`` and the output itself, plus a reference to the
    input that the caller holds."""

    def __init__(self, c_in, c_out, k, name, stride=1):
        self.stride, self.pad = stride, (k - 1) // 2
        self.weight = Param(f"{name}/weight", np.zeros((c_out, c_in, k, k), dtype=np.float32),
                            c_in * k * k)
        self.gamma = Param(f"{name}/bn_gamma", np.ones((c_out,), dtype=np.float32))
        self.beta = Param(f"{name}/bn_beta", np.zeros((c_out,), dtype=np.float32))
        self.running_mean = Buffer(f"{name}/bn_running_mean",
                                   np.zeros((c_out,), dtype=np.float32))
        self.running_var = Buffer(f"{name}/bn_running_var", np.ones((c_out,), dtype=np.float32))

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y, bw_conv = conv2d(x, self.weight.value, None, stride=self.stride, pad=self.pad)
        y, bw_act = batchnorm_silu(y, self.gamma.value, self.beta.value, training=training,
                                   running_mean=self.running_mean.value,
                                   running_var=self.running_var.value)
        self._tape = (bw_conv, bw_act) if training else None
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        bw_conv, bw_act = self._pop_tape()
        g, ggamma, gbeta = bw_act(g)
        self.gamma.add_grad(ggamma)
        self.beta.add_grad(gbeta)
        gx, gk, _ = bw_conv(g)
        self.weight.add_grad(gk)
        return gx


class Bottleneck(Module):
    """Two 3x3 conv blocks with a residual add (channel-preserving)."""

    def __init__(self, channels, name):
        self.cv1 = ConvBlock(channels, channels, 3, f"{name}/cv1")
        self.cv2 = ConvBlock(channels, channels, 3, f"{name}/cv2")

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y = self.cv1.forward(x, training)
        y = self.cv2.forward(y, training)
        out, bw_add = add(x, y)
        self._tape = bw_add if training else None
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        gx, gy = self._pop_tape()(g)
        gy = self.cv2.backward(gy)
        gy = self.cv1.backward(gy)
        return gx + gy


class C2f(Module):
    """Simplified split/bottleneck/concat block: 1x1 conv, split in half,
    run one bottleneck on the second half, concat, 1x1 conv."""

    def __init__(self, channels, name):
        self.channels = channels
        self.cv1 = ConvBlock(channels, channels, 1, f"{name}/cv1")
        self.block = Bottleneck(channels // 2, f"{name}/b0")
        self.cv2 = ConvBlock(channels, channels, 1, f"{name}/cv2")

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        y = self.cv1.forward(x, training)
        a, b, bw_split = split_channels(y, self.channels // 2)
        b = self.block.forward(b, training)
        y, bw_cat = concat_channels(a, b)
        self._tape = (bw_split, bw_cat) if training else None
        return self.cv2.forward(y, training)

    def backward(self, g: np.ndarray) -> np.ndarray:
        bw_split, bw_cat = self._pop_tape()
        g = self.cv2.backward(g)
        ga, gb = bw_cat(g)
        gb = self.block.backward(gb)
        (g,) = bw_split(ga, gb)
        return self.cv1.backward(g)


class Stage(Module):
    """stride-2 conv block -> attention -> C2f, which the first stage lacks.
    Attention blocks keep SE's default reduction r = 16."""

    def __init__(self, c_in, spec: StageSpec, design: BackboneDesign, idx):
        c, gate, name = spec.out_channels, design.gate, f"stage{idx}/att"
        self.conv = ConvBlock(c_in, c, 3, f"stage{idx}/conv", stride=2)
        self.attention = None
        if spec.attention is AttentionKind.SE:
            self.attention = SEBlock(c, gate=gate, name=name)
        elif spec.attention is AttentionKind.CBAM:
            self.attention = CBAMBlock(c, kernel_size=design.spatial_kernel, gate=gate, name=name)
        self.c2f = C2f(c, f"stage{idx}/c2f") if idx > 0 else None

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
    """Full stage pipeline; forward emits every stage output for pyramid use.

    Stage ``i``'s parts (conv, attention, c2f) draw from dedicated streams
    ``[seed, i, j]``, so attention draws never shift the conv weights between
    designs.  ``seed=None`` draws nothing: every drawn weight stays zero, for
    a caller that fills them from a checkpoint.
    """

    def __init__(self, design: BackboneDesign, seed: int | None = 0):
        self.stages = []
        c = IN_CHANNELS
        for i, spec in enumerate(design.stages):
            st = Stage(c, spec, design, i)
            for j, part in enumerate((st.conv, st.attention, st.c2f)):
                if seed is not None and part is not None:
                    part.draw(np.random.default_rng([seed, i, j]))
            self.stages.append(st)
            c = spec.out_channels

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

