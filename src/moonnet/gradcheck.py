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
from .tensor import KinkTrace, Tensor4

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

DEFAULT_EPS = 1e-6
DEFAULT_TOL = 1e-4
DEFAULT_FLOOR = 1e-7
KINK_MARGIN = 1e-3


@dataclass
class GradReport:
    op_name: str
    param_site: str
    max_rel_err: float
    decided_rel_err: float  # over the elements whose verdict the tolerance decides
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


def check_sites(op_name, loss_fn, sites, analytic):
    """Compare analytic gradients against finite differences per site.

    ``sites`` maps site name -> array perturbed in place; ``analytic`` maps
    site name -> analytic gradient (already computed).
    """
    reports = []
    for name, theta in sites.items():
        fd = fd_gradient(loss_fn, theta)
        an = np.asarray(analytic[name], dtype=np.float64)
        abs_err = np.abs(an - fd)
        rel = rel_err(an, fd)
        ok = (rel < DEFAULT_TOL) | (abs_err < DEFAULT_FLOOR)
        reports.append(GradReport(
            op_name=op_name, param_site=name,
            max_rel_err=float(rel.max(initial=0.0)),
            decided_rel_err=float(rel.max(initial=0.0, where=abs_err >= DEFAULT_FLOOR)),
            max_abs_err=float(abs_err.max(initial=0.0)),
            passed=bool(ok.all()),
        ))
    return reports


def _draw(rng, shape):
    return rng.standard_normal(shape).astype(np.float64)


def _case(rng, name, f, inputs, params=()):
    """Gradcheck one function on fresh draws: every input and every param.

    ``inputs`` maps site name -> shape, or -> a function of the rng for a
    non-standard draw.  ``f(*arrays)`` returns ``(*outputs, backward)``, and
    ``backward(*weights)`` returns the input gradients and leaves those of
    ``params`` in ``Param.grad``.  The loss weights each output by a draw of
    its shape, taken after the inputs.  A draw with a kink margin below
    KINK_MARGIN is redrawn, at most 50 times.
    """
    for _ in range(50):
        xs = {k: s(rng) if callable(s) else _draw(rng, s) for k, s in inputs.items()}
        *outs, _ = f(*xs.values())
        ws = [_draw(rng, o.shape) for o in outs]

        def loss():
            *outs, _ = f(*xs.values())
            return sum(float((o.values * w).sum()) for o, w in zip(outs, ws))

        with KinkTrace() as trace:
            loss()
        if trace.min_margin >= KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a kink-free configuration")
    for p in params:
        p.grad = None
    *_, backward = f(*xs.values())
    analytic = dict(zip(xs, backward(*ws)))
    analytic.update((p.name, p.grad.copy()) for p in params)
    return check_sites(name, loss, {**xs, **{p.name: p.value for p in params}}, analytic)


# ---------------------------------------------------------------------------
# primitive operator checks
# ---------------------------------------------------------------------------

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
    cases.append(("conv2d(k=3,s=2,p=1,b=None)", _tensor_op(T.conv2d, b=None, stride=2, pad=1),
                  {"x": (2, 3, 5, 5), "kernel": (4, 3, 3, 3)}))
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
        reports += _case(rng, op_name, op, inputs)
    return reports


# ---------------------------------------------------------------------------
# module checks
# ---------------------------------------------------------------------------

def check_attention(kind: str, input_shape, gate: GateKind, seed: int = 0):
    """Gradcheck an SE or CBAM block with random (non-identity) parameters."""
    rng = np.random.default_rng(seed)
    c = input_shape[1]
    if kind == "se":
        module = SEBlock(c, gate=gate).draw(rng).cast(np.float64)
    elif kind == "cbam":
        module = CBAMBlock(c, kernel_size=3, gate=gate).draw(rng).cast(np.float64)
    else:
        raise ValueError(f"unknown attention kind {kind!r}")
    for p in module.parameters():
        p.value[...] = 0.5 * rng.standard_normal(p.value.shape)

    def block(x):
        return module.forward(Tensor4(x), training=True), lambda g: (module.backward(g),)

    return _case(rng, f"{kind}[{gate.value}]", block, {"input": input_shape},
                 module.parameters())


def check_backbone(input_shape=(1, 3, 8, 8), seed: int = 0):
    """Gradcheck a 2-stage backbone (narrow channels for tractability)."""
    rng = np.random.default_rng(seed)
    design = build_design(5, gate=GateKind.RESIDUAL_TANH, ladder=(16, 32, 64, 128, 256),
                         width_multiplier=0.25, spatial_kernel=3)
    design.stages = design.stages[:2]
    bb = Backbone(design, seed=seed).cast(np.float64)
    # perturb every parameter away from the identity-safe zeros so all
    # gradient paths (attention projections included) are active
    for p in bb.parameters():
        p.value[...] = p.value + 0.05 * rng.standard_normal(p.value.shape)

    def stages(x):
        """The stage outputs flattened into one output."""
        outs = bb.forward(Tensor4(x), training=True)
        flat = np.concatenate([o.values.reshape(-1) for o in outs])

        def backward(g):
            parts = np.split(g.reshape(-1), np.cumsum([o.values.size for o in outs[:-1]]))
            return (bb.backward([part.reshape(o.shape) for part, o in zip(parts, outs)]),)

        return Tensor4(flat.reshape(1, 1, 1, -1)), backward

    return _case(rng, "backbone[2-stage]", stages, {"input": input_shape}, bb.parameters())


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
    lines = [f"{'op':32s} {'site':34s} {'max_rel':>10s} {'decided':>10s} {'max_abs':>10s}  result"]
    for r in reports:
        lines.append(f"{r.op_name:32s} {r.param_site:34s} {r.max_rel_err:10.2e} "
                     f"{r.decided_rel_err:10.2e} {r.max_abs_err:10.2e}  "
                     f"{'PASS' if r.passed else 'FAIL'}")
    n_fail = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} sites checked, {n_fail} failures")
    return "\n".join(lines)
