"""Experiment configuration: flat key=value files and validation.

``ExperimentConfig`` is the only statement of the schema: the file parser,
``to_text()`` and the CLI flags walk its fields and convert through ``CODECS``.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .attention import GateKind
from .augment import AugmentPackage
from .backbone import ConfigError, build_design

__all__ = ["ExperimentConfig", "CODECS", "set_field", "parse_config_text",
           "load_config_file", "ConfigError"]

# field type -> (parse from text, format as text)
CODECS = {
    int: (int, str),
    float: (float, str),
    GateKind: (GateKind, lambda g: g.value),
    AugmentPackage: (lambda s: AugmentPackage[s.upper()], lambda a: a.name.lower()),
}


@dataclass
class ExperimentConfig:
    design_id: int = 5
    gate: GateKind = GateKind.RESIDUAL_TANH
    width: float = 0.25
    input_size: int = 64
    augment: AugmentPackage = AugmentPackage.VER1
    lr: float = 0.01
    momentum: float = 0.9
    batch: int = 4
    epochs: int = 5
    steps_per_epoch: int = 100
    seed: int = 0

    def validate(self):
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size must be a positive multiple of 32, "
                              f"got {self.input_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        # batchnorm in the (input_size/32)^2-pixel last stage needs two values per channel
        if self.batch * (self.input_size // 32) ** 2 < 2:
            raise ConfigError(f"batch * (input_size / 32)^2 must be >= 2, got {self.batch} "
                              f"* ({self.input_size} / 32)^2")
        build_design(self.design_id, self.width, self.gate)  # the id, width and channels
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_text(self) -> str:
        return "".join(f"{f.name}={CODECS[f.type][1](getattr(self, f.name))}\n"
                       for f in fields(self))


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def set_field(cfg: ExperimentConfig, key: str, text: str):
    """Set one config field from its text form."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    try:
        setattr(cfg, key, CODECS[_FIELD_TYPES[key]][0](text))
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from e


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse `key=value` lines (# starts a comment) on top of a base config."""
    cfg = base if base is not None else ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            set_field(cfg, key, value)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from e
    return cfg


def load_config_file(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    return parse_config_text(text, base)
