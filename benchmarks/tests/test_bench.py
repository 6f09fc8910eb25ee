"""Self-tests of the benchmark: the tracer leaves moonnet as it found it and
changes no result, the AP reference agrees with evaluate() and catches a
wrong one, and BENCHMARK.json names exactly what run.py prints.

    PYTHONPATH=src python -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from moonnet import metrics as mmetrics
from moonnet.attention import GateKind
from moonnet.augment import AugmentPackage

import perlayer
import reference
import run
import tracer as tracer_mod
import workloads
from conftest import BENCH, ROOT


def _moonnet_bindings():
    """Every (namespace, name) -> object binding the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("moonnet"):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("moonnet"):
                    for meth, fn in vars(value).items():
                        out[(f"{value.__module__}.{key}", meth)] = fn
    return out


def test_uninstall_restores_every_original():
    before = _moonnet_bindings()
    t = tracer_mod.Tracer()
    with t:
        during = _moonnet_bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("moonnet.backbone", "conv2d") in changed  # imported by name
        assert ("moonnet.tensor", "conv2d") in changed
        assert ("moonnet.backbone.Stage", "forward") in changed
        assert ("moonnet.metrics", "iou") in changed
        assert ("moonnet.tensor.KinkTrace", "__enter__") in changed
    after = _moonnet_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_training_repeats_untraced_losses_bit_for_bit():
    wl = workloads.TrainWorkload(3, 64, GateKind.SIGMOID_ORIGINAL, AugmentPackage.VER3)
    wl.setup()

    def episode(steps=3):
        wl._reset()
        return [wl._step(k).hex() for k in range(steps)]

    plain = episode()
    t = tracer_mod.Tracer()
    t.set_phase("step")
    with t:
        traced = episode()
    assert traced == plain
    stats = t.phases["step"]
    assert stats["moonnet.augment.apply_package"].calls == 3 * 4
    assert stats["moonnet.attention.gate_tensor"].calls > 0
    assert stats["moonnet.backbone.stage4.backward"].calls == 3
    assert t.counters["step"]["moonnet.tensor.conv2d.backward.flop"] == \
        2 * t.counters["step"]["moonnet.tensor.conv2d.flop"]


def test_traced_evaluate_is_identical_and_matches_reference():
    preds, gts = workloads.crowded_fixture(5, n_images=4, n_gt=40, n_pred=40, n_classes=3)
    plain = mmetrics.evaluate(preds, gts, num_classes=3)
    t = tracer_mod.Tracer()
    with t:
        traced = mmetrics.evaluate(preds, gts, num_classes=3)
    assert traced == plain
    assert reference.matches(plain, reference.reference_evaluate(preds, gts, 3))
    # 12 AP sweeps over 3 classes x 4 images, plus one pooled P/R pass per image
    assert t.phases["default"]["moonnet.metrics.match_detections"].calls == 12 * 3 * 4 + 4
    assert t.counters["default"]["moonnet.metrics.iou"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_agrees_with_evaluate(seed):
    preds, gts = workloads.crowded_fixture(seed, n_images=3, n_gt=30, n_pred=30, n_classes=4)
    ref = reference.reference_evaluate(preds, gts, 4)
    assert reference.matches(mmetrics.evaluate(preds, gts, num_classes=4), ref)


def test_reference_rejects_a_wrong_evaluator():
    preds, gts = workloads.crowded_fixture(7, n_images=3, n_gt=60, n_pred=60, n_classes=2,
                                           difficult_frac=0.2)
    ref = reference.reference_evaluate(preds, gts, 2)
    # an evaluator that forgets the difficult flags
    plain = [[replace(g, difficult=False) for g in img] for img in gts]
    assert not reference.matches(mmetrics.evaluate(preds, plain, num_classes=2), ref)
    off = replace(mmetrics.evaluate(preds, gts, num_classes=2))
    off.ap += 1e-9
    assert not reference.matches(off, ref)


def test_eval_verify_round_passes_its_checks(tmp_path):
    wl = workloads.EvalVerifyWorkload(2, str(tmp_path))
    wl.INFER_IMAGES = 2
    wl.setup()
    wl.preds, wl.gts = workloads.crowded_fixture(2, n_images=2, n_gt=20, n_pred=20)
    wl.n_preds = 40
    wl.prepare_checks()
    res = wl.run(1e-9)
    assert (res.attempted, res.failed, res.rounds) == (5, 0, 1)
    assert res.counts["gradcheck.sites"] > 100


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == perlayer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "train-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
