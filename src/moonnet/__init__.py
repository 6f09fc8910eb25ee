"""Attention-gated CNN components with hand-derived backpropagation.

SE and CBAM blocks in both the classic sigmoid-gated form and the residual
``x * (1 + tanh(z))`` form, six backbone arrangements over a YOLO-style
stage pipeline, box-aware augmentation, detection metrics, and a
finite-difference verification harness.
"""

from .attention import CBAMBlock, GateKind, SEBlock, bottleneck_width, gate_multiplier, identity_safe_init
from .augment import AugmentPackage, BBox, LabeledImage, apply_package, hflip, rotate90, vflip
from .backbone import AttentionKind, Backbone, BackboneDesign, build_design, per_branch_attention
from .config import ExperimentConfig
from .metrics import average_precision, coco_ap, evaluate, iou, mean_box_area
from .tensor import Module, Param, ShapeError, Tensor4

__version__ = "0.1.0"
