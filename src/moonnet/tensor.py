"""Rank-4 (N, C, H, W) tensors and the differentiable operator set.

Every operator returns ``(output, backward)`` where ``backward`` maps the
gradient w.r.t. the output onto gradients w.r.t. each differentiable input,
in argument order.  There is no autograd graph: composite modules call the
closures explicitly in reverse order of their forward pass.

Computation follows the dtype of its inputs (float32 in training, float64
in the gradient-check suite).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor4",
    "Param",
    "Buffer",
    "Module",
    "KinkTrace",
    "global_avg_pool",
    "global_max_pool",
    "channel_reduce_avg",
    "channel_reduce_max",
    "fc",
    "conv2d",
    "relu",
    "sigmoid",
    "clipped_sigmoid",
    "tanh_act",
    "silu",
    "broadcast_mul",
    "concat_channels",
    "split_channels",
    "add",
    "batchnorm",
    "batchnorm_silu",
]


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible with an operator."""


class Tensor4:
    """Dense (n, c, h, w) array."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = np.asarray(values)
        if values.ndim != 4:
            raise ShapeError(f"Tensor4 needs 4 dims, got shape {values.shape}")
        if min(values.shape) < 1:
            raise ShapeError(f"all dims must be >= 1, got {values.shape}")
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def c(self):
        return self.values.shape[1]

    @property
    def h(self):
        return self.values.shape[2]

    @property
    def w(self):
        return self.values.shape[3]

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"Tensor4(shape={self.values.shape}, dtype={self.values.dtype})"


class Param:
    """Named learnable array and its accumulated gradient, None until the
    first ``add_grad`` of a backward and again once ``SGD.step`` has applied
    it.  A Param with a ``fan_in`` is a drawn weight: it is built zero and
    ``draw`` fills it."""

    __slots__ = ("name", "value", "grad", "fan_in")

    def __init__(self, name: str, value: np.ndarray, fan_in: int | None = None):
        self.name = name
        self.value = np.asarray(value)
        self.grad = None
        self.fan_in = fan_in

    def draw(self, rng: np.random.Generator):
        """The package's one weight draw: float32 uniform in
        [-1/sqrt(fan_in), 1/sqrt(fan_in)), written into ``value``; a Param
        without a ``fan_in`` is left as it is.  Parts of 2^16 values, each
        rounded to float32 before it is written, continue one stream."""
        if self.fan_in is not None:
            bound = 1.0 / np.sqrt(self.fan_in)
            flat = self.value.reshape(-1)  # a view: every value array is C-contiguous
            for part in np.split(flat, range(1 << 16, flat.size, 1 << 16)):
                part[...] = rng.uniform(-bound, bound, size=part.size).astype(np.float32)

    def add_grad(self, g):
        # the first gradient is taken by reference: every caller passes a
        # fresh array that nothing else holds
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class Buffer(Param):
    """Named array that is state, not learned, such as a batchnorm running
    statistic: ``named_tensors()`` and ``cast`` walk it, ``parameters()``
    skips it, so it never receives a gradient or an optimizer update."""

    __slots__ = ()


class Module:
    """Base of every layer.  ``parameters()``, ``named_tensors()``,
    ``cast()`` and ``draw()`` walk the instance's ``Param``, ``Buffer``,
    ``Module`` and list-of-``Module`` attributes in assignment order, which
    is the checkpoint order.  Subclasses define ``forward(x, training)`` and
    ``backward(g)``, keeping what backward needs in ``self._tape`` in
    training only: an eval forward records no tape.  A tape lives from a
    training forward to the one backward that consumes it: ``backward``
    takes it with ``_pop_tape``, so its saved arrays are freed as soon as
    that backward returns.  A tape may hold the forward's input by
    reference (``conv2d`` keeps it to rebuild its columns) and its output
    (``batchnorm_silu`` keeps it, with batchnorm's ``xhat``, to rebuild its
    sigmoid), so neither may be written in place before the backward."""

    _tape = None

    def _members(self):
        for v in vars(self).values():
            if isinstance(v, (Param, Module)):
                yield v
            elif isinstance(v, list):
                yield from (m for m in v if isinstance(m, Module))

    def _tensors(self) -> list[Param]:
        """Every Param and Buffer of this module and its members, in order."""
        out = []
        for v in self._members():
            out += [v] if isinstance(v, Param) else v._tensors()
        return out

    def parameters(self) -> list[Param]:
        return [p for p in self._tensors() if not isinstance(p, Buffer)]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.value) for p in self._tensors()]

    def cast(self, dtype):
        """Recast every Param and Buffer to ``dtype`` in place and return the
        module: layers are built float32, and the gradient oracle casts them
        to float64."""
        for p in self._tensors():
            p.value = p.value.astype(dtype)
        return self

    def _pop_tape(self):
        """The tape of the last training forward, which this call consumes."""
        tape, self._tape = self._tape, None
        if tape is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a training forward first")
        return tape

    def draw(self, rng: np.random.Generator):
        """Draw every Param that has a ``fan_in`` from ``rng``, in checkpoint
        order, and return the module.  Layers are built with those weights
        zero, so a model that a checkpoint fills draws nothing."""
        for p in self._tensors():
            p.draw(rng)
        return self


class KinkTrace:
    """Optional recorder for distances to non-smooth points (ReLU zeros,
    max-pool ties).  The gradient checker enables it to re-draw inputs that
    sit too close to a kink for finite differences to be valid."""

    active: "KinkTrace | None" = None

    def __init__(self):
        self.margins: list[float] = []
        self._outer: "KinkTrace | None" = None

    def __enter__(self):
        self._outer, KinkTrace.active = KinkTrace.active, self
        return self

    def __exit__(self, *exc):
        KinkTrace.active = self._outer
        return False

    @property
    def min_margin(self) -> float:
        return min(self.margins, default=np.inf)


def _record_margin(m: float):
    if KinkTrace.active is not None:
        KinkTrace.active.margins.append(float(m))


def _record_gap_to_max(flat: np.ndarray, axis: int):
    """Record the gap between the two largest entries along ``axis``."""
    if KinkTrace.active is None or flat.shape[axis] < 2:
        return
    top2 = np.partition(flat, -2, axis=axis)
    gap = np.take(top2, -1, axis=axis) - np.take(top2, -2, axis=axis)
    _record_margin(gap.min())


# ---------------------------------------------------------------------------
# pooling / reductions
# ---------------------------------------------------------------------------

def global_avg_pool(x: Tensor4):
    """Mean over (h, w) per channel -> (n, c, 1, 1)."""
    n, c, h, w = x.shape
    out = x.values.mean(axis=(2, 3), keepdims=True)

    def backward(g):
        gx = np.broadcast_to(g / (h * w), (n, c, h, w)).copy()
        return (gx,)

    return Tensor4(out), backward


def global_max_pool(x: Tensor4):
    """Max over (h, w) per channel; ties route to the first index in
    row-major scan order, which receives the full gradient."""
    n, c, h, w = x.shape
    flat = x.values.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)  # argmax returns the first maximal index
    out = np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(n, c, 1, 1)
    _record_gap_to_max(flat, axis=2)

    def backward(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[:, :, None], g.reshape(n, c, 1), axis=2)
        return (gflat.reshape(n, c, h, w),)

    return Tensor4(out), backward


def channel_reduce_avg(x: Tensor4):
    """Mean over channels per spatial location -> (n, 1, h, w)."""
    c = x.c
    out = x.values.mean(axis=1, keepdims=True)

    def backward(g):
        gx = np.broadcast_to(g / c, x.shape).copy()
        return (gx,)

    return Tensor4(out), backward


def channel_reduce_max(x: Tensor4):
    """Max over channels per spatial location, first-index tie-break."""
    idx = x.values.argmax(axis=1)
    out = np.take_along_axis(x.values, idx[:, None], axis=1)
    _record_gap_to_max(x.values, axis=1)

    def backward(g):
        gx = np.zeros_like(x.values)
        np.put_along_axis(gx, idx[:, None], g, axis=1)
        return (gx,)

    return Tensor4(out), backward


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def fc(x: Tensor4, W: np.ndarray, b: np.ndarray):
    """Fully-connected layer on a channel vector: (n, c_in, 1, 1) -> (n, c_out, 1, 1)."""
    n, c, h, w = x.shape
    if h != 1 or w != 1:
        raise ShapeError(f"fc expects a (n, c, 1, 1) input, got {x.shape}")
    if W.shape[1] != c:
        raise ShapeError(f"fc weight {W.shape} incompatible with {c} input channels")
    v = x.values.reshape(n, c)
    out = v @ W.T + b

    def backward(g):
        g2 = g.reshape(n, W.shape[0])
        gx = (g2 @ W).reshape(n, c, 1, 1)
        gW = g2.T @ v
        gb = g2.sum(axis=0)
        return gx, gW, gb

    return Tensor4(out.reshape(n, W.shape[0], 1, 1)), backward


def _taps(k: int, stride: int, ho: int, wo: int):
    """(i, j, window) per kernel tap: the (n, c, ho, wo) window of the padded
    input that tap (i, j) multiplies."""
    return [(i, j, np.s_[:, :, i:i + stride * (ho - 1) + 1:stride,
                         j:j + stride * (wo - 1) + 1:stride])
            for i in range(k) for j in range(k)]


def _columns(xv: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """im2col matrix of shape (c*k*k, n*ho*wo), channel-major with the
    spatial positions innermost, so each tap fills one block and the
    contraction is one GEMM.  The padded copy of ``xv`` dies with the call."""
    n, c, h, w = xv.shape
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=xv.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = xv
    else:
        xp = xv
    cols = np.empty((c, k, k, n, ho, wo), dtype=xv.dtype)
    for i, j, win in _taps(k, stride, ho, wo):
        cols[:, i, j] = xp[win].transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * ho * wo)


def conv2d(x: Tensor4, kernel: np.ndarray, b: np.ndarray | None, stride: int = 1,
           pad: int = 0):
    """Cross-correlation with zero padding.

    kernel: (c_out, c_in, k, k) with k odd; output spatial size is
    floor((h + 2*pad - k) / stride) + 1.  ``b`` is a (c_out,) bias, or None
    for no bias, in which case the backward returns None for its gradient.

    The backward keeps a reference to ``x.values``, not the im2col columns,
    and rebuilds the columns from it for the kernel gradient, bit for bit
    the forward's.  So ``x.values`` must not be written in place between
    this call and its backward.
    """
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = kernel.shape
    if c_in != c:
        raise ShapeError(f"kernel expects {c_in} channels, input has {c}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel must be square with odd size, got {kh}x{kw}")
    if stride < 1 or pad < 0:
        raise ShapeError("stride must be >= 1 and pad >= 0")
    k = kh
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"non-positive output size for input {x.shape} with k={k}, "
                         f"stride={stride}, pad={pad}")

    xv = x.values
    Km = kernel.reshape(c_out, c * k * k)
    out = (Km @ _columns(xv, k, stride, pad, ho, wo)).reshape(c_out, n, ho, wo)
    out = out.transpose(1, 0, 2, 3)
    if b is not None:
        out = out + b[None, :, None, None]

    def backward(g):
        gb = None if b is None else g.sum(axis=(0, 2, 3))
        g2 = g.transpose(1, 0, 2, 3).reshape(c_out, n * ho * wo)
        gk = (g2 @ _columns(xv, k, stride, pad, ho, wo).T).reshape(kernel.shape)
        # np.dot: for c_out = 1 this is an outer product, which matmul runs
        # about 4x slower than dot's BLAS call
        g_cols = np.dot(Km.T, g2).reshape(c, k, k, n, ho, wo)
        gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=xv.dtype)
        for i, j, win in _taps(k, stride, ho, wo):
            gxp[win] += g_cols[:, i, j].transpose(1, 0, 2, 3)
        gx = gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp
        return gx, gk, gb

    return Tensor4(out), backward


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def relu(x: Tensor4):
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""
    mask = x.values > 0
    out = np.where(mask, x.values, np.zeros((), dtype=x.dtype))
    _record_margin(np.abs(x.values).min())

    def backward(g):
        return (g * mask,)

    return Tensor4(out), backward


def clipped_sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-v)) with v clipped to [-60, 60], so exp never overflows.
    The result goes into ``out`` (which may be ``v``) or, without one, into
    a new array; every step after the clip runs in place."""
    out = np.clip(v, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid(x: Tensor4):
    s = clipped_sigmoid(x.values)

    def backward(g):
        return (g * s * (1.0 - s),)

    return Tensor4(s), backward


def tanh_act(x: Tensor4):
    t = np.tanh(x.values)

    def backward(g):
        return (g * (1.0 - t * t),)

    return Tensor4(t), backward


def _silu(v: np.ndarray, out: np.ndarray | None = None):
    """SiLU's forward, ``(v * s, s)`` with ``s = clipped_sigmoid(v)``; the
    product goes into ``out``, which may be ``v``."""
    s = clipped_sigmoid(v)
    return np.multiply(v, s, out=out), s


def _silu_backward(g, s, out):
    """SiLU's gradient, g * (s + x * s * (1 - s)), with x * s taken from the
    forward output ``out``: a new array."""
    gx = 1.0 - s
    gx *= out
    gx += s
    gx *= g
    return gx


def silu(x: Tensor4):
    """x * sigmoid(x), the backbone activation.  ``ConvBlock`` runs it
    fused with its batchnorm, as ``batchnorm_silu``."""
    out, s = _silu(x.values)

    def backward(g):
        return (_silu_backward(g, s, out),)

    return Tensor4(out), backward


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def broadcast_mul(x: Tensor4, gate: Tensor4):
    """Elementwise product of x with a (n, c, 1, 1) channel gate or a
    (n, 1, h, w) spatial gate; the gate gradient sums over broadcast axes."""
    n, c, h, w = x.shape
    gs = gate.shape
    if gs == (n, c, 1, 1):
        axes = (2, 3)
    elif gs == (n, 1, h, w):
        axes = (1,)
    elif gs == (n, c, h, w):
        axes = ()
    else:
        raise ShapeError(f"gate shape {gs} incompatible with input {x.shape}")
    out = x.values * gate.values

    def backward(g):
        gx = g * gate.values
        gg = g * x.values
        if axes:
            gg = gg.sum(axis=axes, keepdims=True)
        return gx, gg

    return Tensor4(out), backward


def concat_channels(a: Tensor4, b: Tensor4):
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"cannot concat {a.shape} with {b.shape}")
    ca = a.c
    out = np.concatenate([a.values, b.values], axis=1)

    def backward(g):
        return g[:, :ca], g[:, ca:]

    return Tensor4(out), backward


def split_channels(x: Tensor4, at: int):
    if not 0 < at < x.c:
        raise ShapeError(f"split point {at} outside (0, {x.c})")
    # views of x, not copies: no caller writes them in place (C2f copies ``a``
    # into its concat and only reads ``b``)
    a = x.values[:, :at]
    b = x.values[:, at:]

    def backward(ga, gb):
        return (np.concatenate([ga, gb], axis=1),)

    return Tensor4(a), Tensor4(b), backward


def add(a: Tensor4, b: Tensor4):
    if a.shape != b.shape:
        raise ShapeError(f"cannot add {a.shape} and {b.shape}")
    out = a.values + b.values

    def backward(g):
        return g, g

    return Tensor4(out), backward


def _bn_normalize(x: Tensor4, gamma, beta, eps, training, running_mean, running_var,
                  momentum):
    """Batchnorm's normalize step: ``(xhat, invstd)``, ``xhat`` a new array.
    Training normalizes with the batch statistics over (n, h, w) and, when
    running buffers are given, updates them in place; eval uses them."""
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    m = n * h * w
    mean = x.values.mean(axis=(0, 2, 3)) if training else running_mean
    xhat = x.values - mean[None, :, None, None]
    if training:
        var = np.square(xhat).sum(axis=(0, 2, 3)) / m
        if running_mean is not None:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
            running_var *= 1.0 - momentum
            running_var += momentum * var
    else:
        var = running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat *= invstd[None, :, None, None]
    return xhat, invstd


def _bn_affine(xhat, gamma, beta):
    """gamma * xhat + beta per channel, into a new array."""
    z = np.multiply(gamma[None, :, None, None], xhat)
    z += beta[None, :, None, None]
    return z


def _bn_backward(g, xhat, gamma, invstd, training, work=None, out=None):
    """Batchnorm's backward: ``(gx, ggamma, gbeta)``.  ``work`` receives
    g * xhat and ``out`` the input gradient; without them g * xhat goes into
    a new array, which then becomes gx.  ``out`` may be ``xhat``, which the
    call then consumes."""
    gx = np.multiply(g, xhat, out=work)
    ggamma = gx.sum(axis=(0, 2, 3))
    gbeta = g.sum(axis=(0, 2, 3))
    scale = (gamma * invstd)[None, :, None, None]
    if not training:
        return np.multiply(g, scale, out=out), ggamma, gbeta
    if out is not None:
        gx = out
    m = xhat.size // xhat.shape[1]
    # gamma * invstd * (g - gbeta / m - xhat * ggamma / m)
    np.multiply(xhat, (ggamma / m)[None, :, None, None], out=gx)
    np.subtract(g, gx, out=gx)
    gx -= (gbeta / m)[None, :, None, None]
    gx *= scale
    return gx, ggamma, gbeta


def batchnorm(x: Tensor4, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5,
              training: bool = True, running_mean=None, running_var=None,
              momentum: float = 0.1):
    """Per-channel batch normalization.

    Training mode normalizes with batch statistics over (n, h, w) and, when
    running buffers are supplied, updates them in place.  Eval mode uses the
    stored running statistics.
    """
    xhat, invstd = _bn_normalize(x, gamma, beta, eps, training, running_mean, running_var,
                                 momentum)

    def backward(g):
        return _bn_backward(g, xhat, gamma, invstd, training)

    return Tensor4(_bn_affine(xhat, gamma, beta)), backward


def batchnorm_silu(x: Tensor4, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5,
                   training: bool = True, running_mean=None, running_var=None,
                   momentum: float = 0.1):
    """``silu(batchnorm(x, ...))`` bit for bit, with a smaller tape.

    The forward runs batchnorm's and SiLU's expressions in their order, the
    SiLU product in place.  The backward keeps ``xhat``, ``invstd`` and a
    reference to ``out`` (the next layer's input, which its tape holds
    anyway), not SiLU's ``s``: it rebuilds ``s = clipped_sigmoid(gamma *
    xhat + beta)`` into one scratch array with the forward's expressions,
    applies SiLU's gradient and then batchnorm's, and writes the input
    gradient into ``xhat``.  So the backward closure is single-use, and
    ``out`` must not be written in place before it runs.
    """
    xhat, invstd = _bn_normalize(x, gamma, beta, eps, training, running_mean, running_var,
                                 momentum)
    z = _bn_affine(xhat, gamma, beta)
    out, _ = _silu(z, out=z)

    def backward(g):
        z = _bn_affine(xhat, gamma, beta)
        s = clipped_sigmoid(z, out=z)
        return _bn_backward(_silu_backward(g, s, out), xhat, gamma, invstd, training,
                            work=s, out=xhat)

    return Tensor4(out), backward
