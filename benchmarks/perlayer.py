"""Per-layer metrics, derived from a traced phase and its untraced twin.

Normalisation: per training step on ``train-*``.  On ``eval-verify``, the
shared layers (``tensor.*``, ``backbone.*``, ``attention.*``) are per verify
unit: one round (evaluate, inference, checkpoint round trip) plus one
gradcheck suite.  ``metrics.*`` are per ``evaluate()`` call on the fixture,
``infer.*`` per inferred image, ``checkpoint.*`` per checkpoint and
``gradcheck.*`` per suite run.
A layer that a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import TENSOR_OPS

OPS = TENSOR_OPS + ("gate_tensor",)
STAGES = 5


def _metric_list():
    out = [
        ("train.data_ms", "ms", "lower"),
        ("augment.apply_ms", "ms", "lower"),
        ("train.loss_ms", "ms", "lower"),
        ("opt.step_ms", "ms", "lower"),
        ("opt.zero_grad_ms", "ms", "lower"),
        ("opt.param_tensors", "count", "lower"),
        ("backbone.fwd_ms", "ms", "lower"),
        ("backbone.bwd_ms", "ms", "lower"),
        ("backbone.self_ms", "ms", "lower"),
    ]
    for i in range(STAGES):
        out += [(f"backbone.stage{i}.fwd_ms", "ms", "lower"),
                (f"backbone.stage{i}.bwd_ms", "ms", "lower")]
    for block in ("se", "cbam"):
        out += [(f"attention.{block}.fwd_ms", "ms", "lower"),
                (f"attention.{block}.bwd_ms", "ms", "lower")]
    for op in OPS:
        out += [(f"tensor.{op}.fwd_ms", "ms", "lower"),
                (f"tensor.{op}.bwd_ms", "ms", "lower"),
                (f"tensor.{op}.calls", "count", "lower")]
    out += [
        ("tensor.conv2d.gflop", "GFLOP", "lower"),
        ("tensor.conv2d.im2col_mb", "MB", "lower"),
        ("tensor.conv2d.gflops_per_s", "GFLOP/s", "higher"),
        ("metrics.match_ms", "ms", "lower"),
        ("metrics.pr_curve_ms", "ms", "lower"),
        ("metrics.precision_recall_ms", "ms", "lower"),
        ("metrics.match_calls", "count", "lower"),
        ("metrics.iou_calls", "count", "lower"),
        ("infer.forward_ms", "ms", "lower"),
        ("infer.detect_ms", "ms", "lower"),
        ("infer.forwards_per_image", "count", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("checkpoint.tensors", "count", "lower"),
        ("gradcheck.fd_ms", "ms", "lower"),
        ("gradcheck.loss_evals", "count", "lower"),
        ("gradcheck.kink_draws", "count", "lower"),
        ("gradcheck.sites", "count", "higher"),
        ("eval_boxes_per_s", "1/s", "higher"),
        ("infer_images_per_s", "1/s", "higher"),
        ("ckpt_save_ms", "ms", "lower"),
        ("ckpt_load_ms", "ms", "lower"),
        ("gradcheck_s", "s", "lower"),
        ("trace.op_ms_mean", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.coverage_pct", "%", "higher"),
    ]
    return out


PER_LAYER = _metric_list()


def _merged(tracer, phases, per):
    """Span totals ([total, self, glue, calls]) and counters summed over the
    named phases and divided by ``per``."""
    stats = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
    counts = defaultdict(float)
    for p in phases:
        for name, s in tracer.phases.get(p, {}).items():
            acc = stats[name]
            acc[0] += s.total / per
            acc[1] += s.self / per
            acc[2] += s.glue / per
            acc[3] += s.calls / per
        for name, v in tracer.counters.get(p, {}).items():
            counts[name] += v / per
    return stats, counts


def _added(a, b):
    stats = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0], {k: list(v) for k, v in a[0].items()})
    for name, v in b[0].items():
        stats[name] = [x + y for x, y in zip(stats[name], v)]
    counts = defaultdict(float, a[1])
    for name, v in b[1].items():
        counts[name] += v
    return stats, counts


def derive(workload, tracer, base, traced) -> dict[str, float]:
    """Every PER_LAYER value for one workload.

    ``base`` and ``traced`` are the PhaseResults of the untraced and the
    traced phase of the same run.
    """
    v = {name: 0.0 for name, _, _ in PER_LAYER}
    is_train = workload.op == "step"
    if is_train:
        stats, counts = _merged(tracer, ["step"], traced.rounds)
    else:
        suites = len(traced.tasks["gradcheck"])
        stats, counts = _added(
            _merged(tracer, ["evaluate", "infer", "save", "load"], traced.rounds),
            _merged(tracer, ["gradcheck"], suites))

    def ms(name):
        return 1e3 * stats[name][0]

    # train and optimizer
    v["train.data_ms"] = ms("moonnet.train.SyntheticPatchTask.batch")
    v["augment.apply_ms"] = ms("moonnet.augment.apply_package")
    v["train.loss_ms"] = ms("moonnet.train.bce_with_logits")
    v["opt.step_ms"] = ms("moonnet.train.SGD.step")
    v["opt.zero_grad_ms"] = ms("moonnet.train.SGD.zero_grad")
    v["opt.param_tensors"] = workload.param_tensors

    # backbone, stages and attention blocks
    v["backbone.fwd_ms"] = ms("moonnet.backbone.Backbone.forward")
    v["backbone.bwd_ms"] = ms("moonnet.backbone.Backbone.backward")
    v["backbone.self_ms"] = 1e3 * (stats["moonnet.backbone.Backbone.forward"][2]
                                   + stats["moonnet.backbone.Backbone.backward"][2])
    for i in range(STAGES):
        v[f"backbone.stage{i}.fwd_ms"] = ms(f"moonnet.backbone.stage{i}.forward")
        v[f"backbone.stage{i}.bwd_ms"] = ms(f"moonnet.backbone.stage{i}.backward")
    for block, cls in (("se", "SEBlock"), ("cbam", "CBAMBlock")):
        v[f"attention.{block}.fwd_ms"] = ms(f"moonnet.attention.{cls}.forward")
        v[f"attention.{block}.bwd_ms"] = ms(f"moonnet.attention.{cls}.backward")

    # tensor operators
    for op in OPS:
        mod = "attention" if op == "gate_tensor" else "tensor"
        name = f"moonnet.{mod}.{op}"
        v[f"tensor.{op}.fwd_ms"] = ms(name)
        v[f"tensor.{op}.bwd_ms"] = ms(name + ".backward")
        v[f"tensor.{op}.calls"] = stats[name][3]
    conv = "moonnet.tensor.conv2d"
    flop = counts[conv + ".flop"] + counts[conv + ".backward.flop"]
    v["tensor.conv2d.gflop"] = flop / 1e9
    v["tensor.conv2d.im2col_mb"] = counts[conv + ".im2col_bytes"] / 1e6
    conv_s = stats[conv][0] + stats[conv + ".backward"][0]
    v["tensor.conv2d.gflops_per_s"] = flop / conv_s / 1e9 if conv_s else 0.0

    if not is_train:
        # metrics: per evaluate() call on the fixture (one per round)
        ev, ev_counts = _merged(tracer, ["evaluate"], traced.rounds)
        v["metrics.match_ms"] = 1e3 * ev["moonnet.metrics.match_detections"][0]
        v["metrics.pr_curve_ms"] = 1e3 * ev["moonnet.metrics.pr_curve"][0]
        v["metrics.precision_recall_ms"] = 1e3 * ev["moonnet.metrics.precision_recall"][0]
        v["metrics.match_calls"] = ev["moonnet.metrics.match_detections"][3]
        v["metrics.iou_calls"] = ev_counts["moonnet.metrics.iou"]

        # inference: per image, evaluate_model's forwards and detection post-processing
        inf, _ = _merged(tracer, ["infer"], workload.INFER_IMAGES * traced.rounds)
        v["infer.forward_ms"] = 1e3 * inf["moonnet.train.PatchModel.forward"][0]
        v["infer.detect_ms"] = 1e3 * inf["moonnet.train.model_detections"][1]
        v["infer.forwards_per_image"] = inf["moonnet.train.PatchModel.forward"][3]

        v["checkpoint.bytes"] = traced.counts["checkpoint.bytes"]
        v["checkpoint.tensors"] = traced.counts["checkpoint.tensors"]

        # gradcheck: per suite run
        gc, gc_counts = _merged(tracer, ["gradcheck"], suites)
        v["gradcheck.fd_ms"] = 1e3 * gc["moonnet.gradcheck.fd_gradient"][0]
        v["gradcheck.loss_evals"] = gc_counts["moonnet.gradcheck.fd_gradient.loss_evals"]
        v["gradcheck.kink_draws"] = gc_counts["moonnet.tensor.KinkTrace.enter"]
        v["gradcheck.sites"] = traced.counts["gradcheck.sites"]

        # the untraced phase's task times
        t = base.tasks
        v["eval_boxes_per_s"] = base.items / base.item_s
        v["infer_images_per_s"] = workload.INFER_IMAGES * len(t["infer"]) / sum(t["infer"])
        v["ckpt_save_ms"] = 1e3 * statistics.fmean(t["save"])
        v["ckpt_load_ms"] = 1e3 * statistics.fmean(t["load"])
        v["gradcheck_s"] = statistics.fmean(t["gradcheck"])

    # tracing overhead and how much of the traced work the layer spans explain
    base_mean = statistics.fmean(base.op_s)
    traced_mean = statistics.fmean(traced.op_s)
    v["trace.op_ms_mean"] = 1e3 * traced_mean
    v["trace.overhead_ms"] = 1e3 * (traced_mean - base_mean)
    v["trace.overhead_pct"] = 100.0 * (traced_mean - base_mean) / base_mean
    if is_train:
        covered = sum(ms(n) for n in (
            "moonnet.train.SyntheticPatchTask.batch", "moonnet.train.bce_with_logits",
            "moonnet.backbone.Backbone.forward", "moonnet.backbone.Backbone.backward",
            "moonnet.train.SGD.step", "moonnet.train.SGD.zero_grad"))
        v["trace.coverage_pct"] = 100.0 * covered / v["trace.op_ms_mean"]
    else:
        covered = (ev["moonnet.metrics.pr_curve"][0] + ev["moonnet.metrics.precision_recall"][0])
        v["trace.coverage_pct"] = 100.0 * covered / ev["moonnet.metrics.evaluate"][0]
    return v
