"""Span tracing of the moonnet layers from outside the package.

``Tracer.install()`` replaces selected public functions and methods of the
``moonnet`` modules with timing wrappers, in every module namespace that
bound them by name, and ``Tracer.uninstall()`` puts the originals back.
Nothing under ``src/`` changes.

A span is one call of a wrapped function.  Spans nest through a stack, so
each span knows the time of its direct children (for self time) and the
time spent in tensor operators beneath it (for Python glue time).  Spans
are folded into per-name totals as they end; only the totals are kept.
Totals are grouped by *phase*, a label the benchmark sets before each kind
of work (a training step, an ``evaluate()`` call, an inference pass).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# Module -> public callables to time.  "Class.method" names wrap a method.
# Tensor operators return their backward closure as the last tuple element;
# the closure is timed as "<name>.backward".
TENSOR_OPS = (
    "conv2d", "batchnorm", "silu", "fc", "relu", "broadcast_mul",
    "global_avg_pool", "global_max_pool", "channel_reduce_avg",
    "channel_reduce_max", "concat_channels", "split_channels", "add",
)
TIMED = {
    "moonnet.tensor": TENSOR_OPS,
    "moonnet.attention": ("gate_tensor", "SEBlock.forward", "SEBlock.backward",
                          "CBAMBlock.forward", "CBAMBlock.backward"),
    "moonnet.backbone": ("Backbone.forward", "Backbone.backward",
                         "Stage.forward", "Stage.backward"),
    "moonnet.train": ("SyntheticPatchTask.batch", "bce_with_logits", "SGD.step",
                      "SGD.zero_grad", "PatchModel.forward", "PatchModel.backward",
                      "model_detections", "evaluate_model",
                      "save_model_checkpoint", "load_model_checkpoint"),
    "moonnet.augment": ("apply_package",),
    "moonnet.metrics": ("evaluate", "average_precision", "coco_ap", "pr_curve",
                        "precision_recall", "match_detections"),
    "moonnet.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "moonnet.gradcheck": ("run_full_suite", "check_sites", "fd_gradient"),
}
# Called millions of times per evaluate(): counted, never timed, so the
# wrapper does not swamp the spans around it.
COUNTED = {"moonnet.metrics": ("iou",)}
# Ops whose time counts as "operator time" when computing glue (self) time.
OP_SPANS = {f"moonnet.tensor.{op}" for op in TENSOR_OPS} | {"moonnet.attention.gate_tensor"}


class Stat:
    __slots__ = ("total", "self", "glue", "calls")

    def __init__(self):
        self.total = 0.0   # inclusive seconds
        self.self = 0.0    # minus direct child spans
        self.glue = 0.0    # minus all operator spans beneath
        self.calls = 0


def _stage_label(stage) -> str:
    # Stage parameters are named "stage<i>/..." by Backbone.
    return stage.conv.weight.name.split("/", 1)[0]


def conv2d_flop(x, kernel, b, stride=1, pad=0):
    """Computed forward FLOPs and im2col bytes of one conv2d call."""
    n, c, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    rows, cols = n * ho * wo, c * k * k
    return 2 * rows * cols * c_out, rows * cols * x.values.itemsize


class Tracer:
    """Per-phase span totals and counters for one traced run."""

    def __init__(self):
        self.phases: dict[str, dict[str, Stat]] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self.set_phase("default")
        self._stack: list[list[float]] = []
        self._op_depth = 0
        self._op_time = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- phases ---------------------------------------------------------------

    def set_phase(self, phase: str):
        self.stats = self.phases.setdefault(phase, defaultdict(Stat))
        self.counts = self.counters.setdefault(phase, defaultdict(float))

    # -- spans ----------------------------------------------------------------

    def _span(self, name: str, is_op: bool, fn, args, kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        if is_op:
            self._op_depth += 1
        op_before = self._op_time
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if is_op:
                self._op_depth -= 1
                if self._op_depth == 0:
                    self._op_time += dt
            if stack:
                stack[-1][0] += dt
            s = self.stats[name]
            s.total += dt
            s.self += dt - frame[0]
            if not is_op:
                s.glue += dt - (self._op_time - op_before)
            s.calls += 1

    def _timed(self, name: str, fn, label=None, flop_fn=None):
        tracer = self
        is_op = name in OP_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = name if label is None else name.replace("*", label(args[0]))
            flop = 0
            if flop_fn is not None:
                flop, col_bytes = flop_fn(*args, **kwargs)
                tracer.counts[n + ".flop"] += flop
                tracer.counts[n + ".im2col_bytes"] += col_bytes
            result = tracer._span(n, is_op, fn, args, kwargs)
            if isinstance(result, tuple) and result and callable(result[-1]):
                # the conv2d backward pass runs two GEMMs of the forward's size
                bwd = tracer._closure(n + ".backward", is_op, result[-1], 2 * flop)
                result = result[:-1] + (bwd,)
            return result

        return wrapper

    def _closure(self, name: str, is_op: bool, fn, flop: int):
        def backward(*args):
            if flop:
                self.counts[name + ".flop"] += flop
            return self._span(name, is_op, fn, args, {})

        return backward

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fd_gradient(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *rest):
            def counted_f():
                tracer.counts[name + ".loss_evals"] += 1
                return f()

            return tracer._span(name, False, fn, (counted_f, *rest), {})

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, modname: str, attr: str, make):
        original = getattr(sys.modules[modname], attr)
        wrapper = make(f"{modname}.{attr}", original)
        # every moonnet namespace that imported the function by name
        for mod in [m for n, m in sys.modules.items() if n.startswith("moonnet")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        """Wrap every entry of TIMED and COUNTED; idempotent per tracer."""
        if self._patches:
            return self
        import moonnet.backbone
        import moonnet.gradcheck
        import moonnet.tensor
        import moonnet.train  # noqa: F401  (imports the remaining traced modules)

        for modname, names in TIMED.items():
            mod = sys.modules[modname]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    label = _stage_label if cls is moonnet.backbone.Stage else None
                    name = f"{modname}.{'*' if label else cls_name}.{meth}"
                    self._patch(cls, meth, self._timed(name, cls.__dict__[meth], label))
                elif attr == "conv2d":
                    self._patch_function(modname, attr, functools.partial(
                        self._timed, flop_fn=conv2d_flop))
                elif attr == "fd_gradient":
                    self._patch_function(modname, attr, self._fd_gradient)
                else:
                    self._patch_function(modname, attr, self._timed)
        for modname, names in COUNTED.items():
            for attr in names:
                self._patch_function(modname, attr, self._counted)
        kink = moonnet.tensor.KinkTrace
        enter = kink.__dict__["__enter__"]

        def counted_enter(trace):
            self.counts["moonnet.tensor.KinkTrace.enter"] += 1
            return enter(trace)

        self._patch(kink, "__enter__", counted_enter)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
