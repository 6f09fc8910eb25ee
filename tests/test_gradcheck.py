"""Finite-difference oracle self-tests plus full module gradchecks."""

import numpy as np
import pytest

from moonnet import attention, backbone
from moonnet import gradcheck as gc
from moonnet import tensor as T
from moonnet.attention import GateKind


class TestFdGradient:
    def test_quadratic(self):
        theta = np.array([1.0, 2.0])
        g = gc.fd_gradient(lambda: float((theta ** 2).sum()), theta, eps=1e-6)
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        theta = np.array([3.0, -1.0, 0.5])
        g = gc.fd_gradient(lambda: 42.0, theta)
        assert np.all(g == 0.0)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            gc.fd_gradient(lambda: 0.0, np.zeros(1), eps=0.0)

    def test_nonfinite_loss_raises(self):
        theta = np.array([0.0])
        with pytest.raises(FloatingPointError):
            gc.fd_gradient(lambda: float("nan"), theta)


class TestRelErr:
    def test_symmetric_and_zero_safe(self):
        a, b = np.array([1.0]), np.array([1.0 + 1e-5])
        assert gc.rel_err(a, b) == gc.rel_err(b, a)
        assert gc.rel_err(np.zeros(1), np.zeros(1)) == 0.0


class TestCheckSites:
    @pytest.mark.parametrize("slope, passed", [(1.0 + 2e-6, True), (1.0 + 1e-3, False)])
    def test_decided_rel_err_skips_floored_elements(self, slope, passed):
        """Element 0 is off by 100% relative but passes on the absolute floor;
        only element 1's error is decided by the relative tolerance."""
        theta = np.array([1.0, 1.0])
        (r,) = gc.check_sites("linear", lambda: float(theta[1]),
                              {"theta": theta}, {"theta": np.array([5e-8, slope])})
        assert r.passed is passed
        assert r.max_rel_err == 1.0
        assert r.decided_rel_err == pytest.approx(slope - 1.0, rel=1e-3)
        assert "decided" in gc.format_reports([r]).splitlines()[0]


class TestOpSuite:
    def test_all_primitive_ops_pass(self):
        reports = gc.check_op_suite(seed=0)
        failures = [r for r in reports if not r.passed]
        assert not failures, "\n" + gc.format_reports(failures)
        # 5+ random shape/op combinations with c in {1, 3, 16}
        assert len(reports) >= 30


class TestModuleChecks:
    @pytest.mark.parametrize("gate", [GateKind.RESIDUAL_TANH, GateKind.SIGMOID_ORIGINAL])
    def test_se(self, gate):
        reports = gc.check_attention("se", (1, 3, 4, 4), gate, seed=1)
        assert all(r.passed for r in reports), gc.format_reports(reports)
        # input + 4 parameter tensors
        assert len(reports) == 5

    @pytest.mark.parametrize("gate", [GateKind.RESIDUAL_TANH, GateKind.SIGMOID_ORIGINAL])
    def test_cbam(self, gate):
        reports = gc.check_attention("cbam", (1, 8, 5, 5), gate, seed=2)
        assert all(r.passed for r in reports), gc.format_reports(reports)
        assert len(reports) == 7

    def test_two_stage_backbone(self):
        reports = gc.check_backbone((1, 3, 8, 8), seed=3)
        assert all(r.passed for r in reports), gc.format_reports(reports)

    def test_reports_name_the_failing_site(self):
        reports = gc.check_attention("se", (1, 3, 4, 4), GateKind.RESIDUAL_TANH, seed=4)
        sites = {r.param_site for r in reports}
        assert "input" in sites
        assert any("w1" in s for s in sites)


class TestDeterminism:
    def test_same_seed_same_reports(self):
        a = gc.check_attention("se", (1, 3, 4, 4), GateKind.RESIDUAL_TANH, seed=9)
        b = gc.check_attention("se", (1, 3, 4, 4), GateKind.RESIDUAL_TANH, seed=9)
        assert [(r.param_site, r.max_rel_err) for r in a] == \
               [(r.param_site, r.max_rel_err) for r in b]


class TestFormatReports:
    def test_table_has_header_and_summary(self):
        reports = gc.check_attention("se", (1, 3, 4, 4), GateKind.RESIDUAL_TANH, seed=5)
        text = gc.format_reports(reports)
        lines = text.splitlines()
        assert "op" in lines[0] and "site" in lines[0]
        assert "0 failures" in lines[-1]


# Every (op, sites) group of run_full_suite(0), in order: 109 sites.
SUITE_SITES = [
    ("global_avg_pool", "x0"),
    ("channel_reduce_avg", "x0"),
    ("gate[sigmoid]", "x0"),
    ("gate[residual-tanh]", "x0"),
    ("silu", "x0"),
    ("add", "x0 x1"),
    ("relu", "x"),
    ("global_max_pool", "x"),
    ("channel_reduce_max", "x"),
    ("global_avg_pool", "x0"),
    ("channel_reduce_avg", "x0"),
    ("gate[sigmoid]", "x0"),
    ("gate[residual-tanh]", "x0"),
    ("silu", "x0"),
    ("add", "x0 x1"),
    ("relu", "x"),
    ("global_max_pool", "x"),
    ("global_avg_pool", "x0"),
    ("channel_reduce_avg", "x0"),
    ("gate[sigmoid]", "x0"),
    ("gate[residual-tanh]", "x0"),
    ("silu", "x0"),
    ("add", "x0 x1"),
    ("relu", "x"),
    ("global_max_pool", "x"),
    ("channel_reduce_max", "x"),
    ("fc", "x W b"),
    ("conv2d(k=3,s=1,p=1)", "x kernel b"),
    ("conv2d(k=3,s=2,p=1)", "x kernel b"),
    ("conv2d(k=1,s=1,p=0)", "x kernel b"),
    ("conv2d(k=3,s=2,p=1,b=None)", "x kernel"),
    ("broadcast_mul(2, 3, 1, 1)", "x gate"),
    ("broadcast_mul(2, 1, 4, 4)", "x gate"),
    ("concat_channels", "a b"),
    ("split_channels", "x"),
    ("batchnorm", "x gamma beta"),
    ("batchnorm_silu", "x gamma beta"),
    ("se[residual-tanh]", "input se/w1 se/b1 se/w2 se/b2"),
    ("cbam[residual-tanh]",
     "input cbam/w1 cbam/b1 cbam/w2 cbam/b2 cbam/spatial_kernel cbam/spatial_bias"),
    ("se[sigmoid]", "input se/w1 se/b1 se/w2 se/b2"),
    ("cbam[sigmoid]",
     "input cbam/w1 cbam/b1 cbam/w2 cbam/b2 cbam/spatial_kernel cbam/spatial_bias"),
    ("backbone[2-stage]",
     "input stage0/conv/weight stage0/conv/bn_gamma stage0/conv/bn_beta stage0/att/w1 "
     "stage0/att/b1 stage0/att/w2 stage0/att/b2 stage1/conv/weight "
     "stage1/conv/bn_gamma stage1/conv/bn_beta stage1/att/w1 stage1/att/b1 "
     "stage1/att/w2 stage1/att/b2 stage1/att/spatial_kernel stage1/att/spatial_bias "
     "stage1/c2f/cv1/weight stage1/c2f/cv1/bn_gamma stage1/c2f/cv1/bn_beta "
     "stage1/c2f/b0/cv1/weight stage1/c2f/b0/cv1/bn_gamma stage1/c2f/b0/cv1/bn_beta "
     "stage1/c2f/b0/cv2/weight stage1/c2f/b0/cv2/bn_gamma stage1/c2f/b0/cv2/bn_beta "
     "stage1/c2f/cv2/weight stage1/c2f/cv2/bn_gamma stage1/c2f/cv2/bn_beta"),
]


class TestFullSuite:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(40))
    def test_passes_at_every_seed(self, seed):
        reports = gc.run_full_suite(seed)
        failures = [r for r in reports if not r.passed]
        assert not failures, "\n" + gc.format_reports(failures)

    def test_site_list_pinned(self):
        reports = gc.run_full_suite(0)
        expected = [(op, site) for op, sites in SUITE_SITES for site in sites.split()]
        assert len(expected) == 109
        assert [(r.op_name, r.param_site) for r in reports] == expected


def _scaled_backward(op, positions, factor):
    """``op`` with the backward's outputs at ``positions`` scaled by ``factor``."""
    def mutated(*args, **kw):
        *outs, backward = op(*args, **kw)

        def scaled(*g):
            grads = list(backward(*g))
            for i in positions:
                grads[i] = grads[i] * factor
            return tuple(grads)

        return (*outs, scaled)

    return mutated


class TestSensitivity:
    """A 3e-4 relative error in any one backward must fail a site of the
    suite: the oracle is no looser than three times its tolerance."""

    @pytest.mark.parametrize("name,positions", [("conv2d", (1,)), ("batchnorm", (0, 1, 2)),
                                                ("silu", (0,)),
                                                ("batchnorm_silu", (0, 1, 2))])
    def test_scaled_backward_fails_a_site(self, monkeypatch, name, positions):
        original = getattr(T, name)
        mutated = _scaled_backward(original, positions, 1.0 + 3e-4)
        for mod in (T, attention, backbone):
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, mutated)
        reports = gc.run_full_suite(0)
        assert any(not r.passed for r in reports)

    @pytest.mark.parametrize("scaled_kind,failing", [
        (GateKind.SIGMOID_ORIGINAL, {"gate[sigmoid]", "se[sigmoid]", "cbam[sigmoid]"}),
        (GateKind.RESIDUAL_TANH, {"gate[residual-tanh]", "se[residual-tanh]",
                                  "cbam[residual-tanh]", "backbone[2-stage]"}),
    ])
    def test_scaled_gate_backward_fails_every_op_that_runs_it(self, monkeypatch, scaled_kind,
                                                               failing):
        original = attention.gate_tensor
        scaled = _scaled_backward(original, (0,), 1.0 + 3e-4)

        def mutated(z, kind):
            return (scaled if kind is scaled_kind else original)(z, kind)

        for mod in (attention, gc):
            monkeypatch.setattr(mod, "gate_tensor", mutated)
        reports = gc.run_full_suite(0)
        assert {r.op_name for r in reports if not r.passed} == failing
