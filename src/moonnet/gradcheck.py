"""Finite-difference gradient oracle.

Central differences in float64 against analytic backward passes recomputed
in float64.  Inputs that land too close to a ReLU zero or a pooling tie are
re-drawn so the oracle stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import CBAMBlock, GateKind, SEBlock
from .backbone import Backbone, build_design
from .tensor import KinkTrace, Module, Tensor4

__all__ = [
    "GradReport",
    "fd_gradient",
    "rel_err",
    "check_sites",
    "check_op_suite",
    "check_attention",
    "check_backbone",
    "run_full_suite",
    "format_reports",
    "DEFAULT_EPS",
    "DEFAULT_TOL",
    "DEFAULT_FLOOR",
]

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4
DEFAULT_FLOOR = 1e-7
KINK_MARGIN = 1e-3


@dataclass
class GradReport:
    op_name: str
    param_site: str
    max_rel_err: float
    max_abs_err: float
    passed: bool


def fd_gradient(f, theta: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. theta (perturbed in place)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grad = np.zeros_like(theta, dtype=np.float64)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite loss at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


def check_sites(op_name, loss_fn, sites, analytic, eps=DEFAULT_EPS, tol=DEFAULT_TOL):
    """Compare analytic gradients against finite differences per site.

    ``sites`` maps site name -> array perturbed in place; ``analytic`` maps
    site name -> analytic gradient (already computed).
    """
    reports = []
    for name, theta in sites.items():
        fd = fd_gradient(loss_fn, theta, eps)
        an = np.asarray(analytic[name], dtype=np.float64)
        abs_err = np.abs(an - fd)
        rel = rel_err(an, fd)
        ok = (rel < tol) | (abs_err < DEFAULT_FLOOR)
        reports.append(GradReport(
            op_name=op_name, param_site=name,
            max_rel_err=float(rel.max()) if rel.size else 0.0,
            max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
            passed=bool(ok.all()),
        ))
    return reports


def _draw(rng, shape):
    return rng.standard_normal(shape).astype(np.float64)


def _draw_safe(make_loss, rng):
    """Redraw (at most 50 times) until no kink margin is below KINK_MARGIN.

    ``make_loss`` draws fresh tensors from rng and returns (loss_fn, sites,
    analytic_fn); loss_fn is probed once under a KinkTrace.
    """
    for _ in range(50):
        loss_fn, sites, analytic = make_loss(rng)
        with KinkTrace() as trace:
            loss_fn()
        if trace.min_margin >= KINK_MARGIN:
            return loss_fn, sites, analytic
    raise RuntimeError("could not draw a kink-free configuration")


# ---------------------------------------------------------------------------
# primitive operator checks
# ---------------------------------------------------------------------------

def _weighted_sum(out_values, weights):
    return float((out_values * weights).sum())


def _op_case(rng, op_name, op, inputs):
    """Gradcheck one operator on fresh draws.

    ``inputs`` maps site name -> shape, or -> a function of the rng for a
    non-standard draw; ``op(*arrays)`` returns ``(*outputs, backward)``.
    The loss weights each output by a draw of its shape, taken after the
    inputs; draws near a kink are redrawn.
    """
    def make(r):
        xs = {k: s(r) if callable(s) else _draw(r, s) for k, s in inputs.items()}
        *outs, _ = op(*xs.values())
        ws = [_draw(r, o.shape) for o in outs]

        def loss():
            *outs, _ = op(*xs.values())
            return sum(_weighted_sum(o.values, w) for o, w in zip(outs, ws))

        def analytic():
            *_, bwd = op(*xs.values())
            return dict(zip(xs, bwd(*ws)))

        return loss, xs, analytic

    loss, sites, analytic = _draw_safe(make, rng)
    return check_sites(op_name, loss, sites, analytic())


def _tensor_op(fn, n_tensors=1, **kw):
    """Adapt an operator taking Tensor4 first arguments to raw arrays."""
    return lambda *a: fn(*(Tensor4(x) for x in a[:n_tensors]), *a[n_tensors:], **kw)


def check_op_suite(seed: int = 0):
    """Gradcheck every primitive operator over a set of shapes."""
    rng = np.random.default_rng(seed)
    cases = []
    for shape in ((1, 3, 4, 4), (2, 1, 5, 2), (1, 16, 2, 5)):
        x0, x = {"x0": shape}, {"x": shape}
        cases += [(name, _tensor_op(getattr(T, name)), x0) for name in
                  ("global_avg_pool", "channel_reduce_avg", "sigmoid", "tanh_act", "silu")]
        cases += [("add", _tensor_op(T.add, 2), {"x0": shape, "x1": shape}),
                  ("relu", _tensor_op(T.relu), x),
                  ("global_max_pool", _tensor_op(T.global_max_pool), x)]
        if shape[1] > 1:
            cases.append(("channel_reduce_max", _tensor_op(T.channel_reduce_max), x))
    cases.append(("fc", _tensor_op(T.fc), {"x": (2, 5, 1, 1), "W": (3, 5), "b": (3,)}))
    for (cin, cout, k, stride, pad, hw) in [(2, 1, 3, 1, 1, 5), (3, 4, 3, 2, 1, 6),
                                            (1, 2, 1, 1, 0, 4)]:
        cases.append((f"conv2d(k={k},s={stride},p={pad})",
                      _tensor_op(T.conv2d, stride=stride, pad=pad),
                      {"x": (1, cin, hw, hw), "kernel": (cout, cin, k, k), "b": (cout,)}))
    for gshape in [(2, 3, 1, 1), (2, 1, 4, 4)]:
        cases.append((f"broadcast_mul{gshape}", _tensor_op(T.broadcast_mul, 2),
                      {"x": (2, 3, 4, 4), "gate": gshape}))
    cases += [
        ("concat_channels", _tensor_op(T.concat_channels, 2),
         {"a": (1, 2, 3, 3), "b": (1, 4, 3, 3)}),
        ("split_channels", _tensor_op(T.split_channels, at=2), {"x": (1, 6, 2, 2)}),
        ("batchnorm", _tensor_op(T.batchnorm),
         {"x": (2, 3, 4, 4), "gamma": lambda r: 1.0 + 0.1 * _draw(r, (3,)),
          "beta": lambda r: 0.1 * _draw(r, (3,))}),
    ]
    reports = []
    for op_name, op, inputs in cases:
        reports += _op_case(rng, op_name, op, inputs)
    return reports


# ---------------------------------------------------------------------------
# module checks
# ---------------------------------------------------------------------------

def _randomize_params(module, rng, scale=0.5):
    for p in module.parameters():
        p.value[...] = scale * rng.standard_normal(p.value.shape)


def _check_module(name, module, input_shape, rng, tol=DEFAULT_TOL):
    """FD-check every parameter of a module plus its input."""
    def make(r):
        x = _draw(r, input_shape)
        out = module.forward(Tensor4(x), training=True)
        wgt = _draw(r, out.shape)

        def loss():
            o = module.forward(Tensor4(x), training=True)
            return _weighted_sum(o.values, wgt)

        sites = {"input": x}
        sites.update({p.name: p.value for p in module.parameters()})

        def analytic():
            module.zero_grad()
            o = module.forward(Tensor4(x), training=True)
            gx = module.backward(wgt)
            grads = {"input": gx}
            grads.update({p.name: p.grad.copy() for p in module.parameters()})
            return grads

        return loss, sites, analytic

    loss, sites, analytic = _draw_safe(make, rng)
    return check_sites(name, loss, sites, analytic(), tol=tol)


def check_attention(kind: str, input_shape, gate: GateKind, seed: int = 0,
                    reduction: int = 4, kernel_size: int = 3):
    """Gradcheck an SE or CBAM block with random (non-identity) parameters."""
    rng = np.random.default_rng(seed)
    c = input_shape[1]
    if kind == "se":
        module = SEBlock(c, reduction, gate, rng=rng, dtype=np.float64)
    elif kind == "cbam":
        module = CBAMBlock(c, reduction, kernel_size, gate, rng=rng, dtype=np.float64)
    else:
        raise ValueError(f"unknown attention kind {kind!r}")
    _randomize_params(module, rng)
    return _check_module(f"{kind}[{gate.value}]", module, input_shape, rng)


def check_backbone(input_shape=(1, 3, 8, 8), seed: int = 0):
    """Gradcheck a 2-stage backbone (narrow channels for tractability)."""
    rng = np.random.default_rng(seed)
    design = build_design(5, gate=GateKind.RESIDUAL_TANH, ladder=(16, 32, 64, 128, 256),
                         width_multiplier=0.25, reduction=4, spatial_kernel=3)
    design.stages = design.stages[:2]
    bb = Backbone(design, seed=seed, dtype=np.float64)
    # perturb every parameter away from the identity-safe zeros so all
    # gradient paths (attention projections included) are active
    for p in bb.parameters():
        p.value[...] = p.value + 0.05 * rng.standard_normal(p.value.shape)

    class Wrapper(Module):
        """The backbone with its stage outputs flattened into one tensor."""

        def __init__(self):
            self.bb = bb

        def forward(self, x, training=True):
            self._outs = bb.forward(x, training)
            flat = np.concatenate([o.values.reshape(-1) for o in self._outs])
            return Tensor4(flat.reshape(1, 1, 1, -1))

        def backward(self, g):
            gf = g.reshape(-1)
            grads, at = [], 0
            for o in self._outs:
                grads.append(gf[at:at + o.values.size].reshape(o.shape))
                at += o.values.size
            return bb.backward(grads)

    return _check_module("backbone[2-stage]", Wrapper(), input_shape, rng)


def run_full_suite(seed: int = 0):
    """The CLI gradcheck entry point: all operators, both attention blocks
    under both gates, and a 2-stage backbone."""
    reports = check_op_suite(seed)
    for gate in (GateKind.RESIDUAL_TANH, GateKind.SIGMOID_ORIGINAL):
        reports += check_attention("se", (1, 3, 4, 4), gate, seed=seed + 1)
        reports += check_attention("cbam", (1, 8, 5, 5), gate, seed=seed + 2)
    reports += check_backbone(seed=seed + 3)
    return reports


def format_reports(reports) -> str:
    lines = [f"{'op':32s} {'site':34s} {'max_rel':>10s} {'max_abs':>10s}  result"]
    for r in reports:
        lines.append(f"{r.op_name:32s} {r.param_site:34s} "
                     f"{r.max_rel_err:10.2e} {r.max_abs_err:10.2e}  "
                     f"{'PASS' if r.passed else 'FAIL'}")
    n_fail = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} sites checked, {n_fail} failures")
    return "\n".join(lines)
