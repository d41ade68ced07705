"""Dense tensors with reverse-mode automatic differentiation.

Small on purpose: only the operations the transformer encoder, the
classification heads, the losses and the gradient oracle build, each with
its own gradient check. Everything is float64 because the whole project is
validated with tight finite-difference gradient checks rather than
throughput benchmarks.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-12
# Bit generators whose ``advance(n)`` passes over exactly the n 64-bit outputs
# that n doubles from ``Generator.random`` would spend.
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)
# Values a dropout draw must skip per run before it is drawn run by run: on
# (B, L, d) and (B, H, L, L) masks (B 8, d 32-128, H 2-4, L 24-64) the run
# draw lost or saved at most 17% below 1,024 skipped values, and from 2,048 it
# took at most 0.72 of the padded draw's time on every shape measured.
_MIN_SKIP_PER_RUN = 2048

# Per-op construction counts, for instrumentation (e.g. proving that the
# multitask forward runs the encoder exactly once per batch).
OP_COUNTS: Counter = Counter()

_grad_enabled = True


def op_counts() -> dict[str, int]:
    """Snapshot of how many graph nodes of each op have been created."""
    return dict(OP_COUNTS)


def reset_op_counts() -> None:
    OP_COUNTS.clear()


@contextmanager
def no_grad():
    """Skip graph construction inside the block (prediction-time shortcut)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus the bookkeeping reverse-mode AD needs.

    ``data`` is treated as immutable once the tensor participates in a
    graph; only ``grad`` is written afterwards, in place once it exists (it
    may be a view of a larger parameter buffer). ``parents`` holds the
    producing operation's inputs and ``backward_fn`` maps an upstream
    gradient to one contribution per parent.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], list] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        if op != "leaf":
            OP_COUNTS[op] += 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    # -- operators ---------------------------------------------------------

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TypeError("Tensor division only supports plain scalars")
        return mul(self, Tensor(1.0 / other))

    def __getitem__(self, key):
        return narrow(self, key)

    def backward(self) -> None:
        backward(self)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _make(op: str, data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward_fn=backward_fn)
    return Tensor(data, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast axes so it matches ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise and structural ops ----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward_fn(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return _make("add", out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward_fn(g):
        return [_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)]

    return _make("mul", out, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes may broadcast.

    Against a 2-D ``b``, ``a``'s leading axes fold into rows, so the forward
    and both grads are each one 2-D gemm and the weight grad needs no batch sum.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs at least 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        out = (a2 @ b.data).reshape(*a.shape[:-1], b.shape[1])

        def folded_backward_fn(g):
            g2 = g.reshape(-1, g.shape[-1])
            return [(g2 @ b.data.T).reshape(a.shape), a2.T @ g2]

        return _make("matmul", out, (a, b), folded_backward_fn)
    out = np.matmul(a.data, b.data)

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return [_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)]

    return _make("matmul", out, (a, b), backward_fn)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes (default: swap the last two)."""
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.transpose(a.data, axes)
    return _make("transpose", out, (a,), lambda g: [np.transpose(g, inverse)])


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return _make("reshape", out, (a,), lambda g: [g.reshape(a.shape)])


def narrow(a: Tensor, key) -> Tensor:
    """Slice/int indexing or a repeat-free integer index, with gradient scatter on the way back."""
    out = a.data[key]

    def backward_fn(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        return [buf]

    return _make("narrow", out, (a,), backward_fn)


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = a.data.sum()

    def backward_fn(g):
        return [np.ascontiguousarray(np.broadcast_to(g, a.shape))]

    return _make("sum", out, (a,), backward_fn)


# -- neural-network ops ------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if x.shape[-1] < 1:
        raise ValueError("softmax over an empty axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return [y * (g - inner)]

    return _make("softmax_rows", y, (x,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ValueError("layer_norm over an empty last dimension")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match feature size {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return [dx, dgamma, dbeta]

    return _make("layer_norm", out, (x, gamma, beta), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation.

    The cube is two products: NumPy sends ``x**3`` through its general
    ``pow`` loop, which costs tens of times as much and agrees within 1 ulp.
    """
    u = _GELU_C * (x.data + _GELU_A * (x.data * x.data * x.data))
    t = np.tanh(u)
    out = 0.5 * x.data * (1.0 + t)

    def backward_fn(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data**2)
        local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du
        return [g * local]

    return _make("gelu", out, (x,), backward_fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"embedding ids must be 1-D, got shape {ids.shape}")
    vocab = table.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise IndexError(f"embedding id {int(bad[0])} out of range [0, {vocab})")
    out = table.data[ids]

    def backward_fn(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return [buf]

    return _make("embedding_lookup", out, (table,), backward_fn)


def _uniforms(rng: np.random.Generator, shape: tuple, draw_shape: tuple) -> np.ndarray:
    """``rng.random(draw_shape)`` cut to its leading ``shape`` block, leaving ``rng`` as that draw would.

    On a PCG64 or PCG64DXSM generator it draws only the kept values when
    that is cheaper: with ``j`` the first axis on which ``shape`` is
    narrower, each index over the axes before ``j`` gets one contiguous run
    of ``shape[j]`` slabs of ``draw_shape[j+1:]``, and ``advance`` passes
    over the rest of its ``draw_shape[j]`` slabs. Elsewhere it takes the
    padded draw.
    """
    block = tuple(slice(0, n) for n in shape)
    j = next((i for i, (n, d) in enumerate(zip(shape, draw_shape)) if n < d), None)
    if j is None:
        return rng.random(draw_shape)
    inner = math.prod(draw_shape[j + 1:])
    run, skip = shape[j] * inner, (draw_shape[j] - shape[j]) * inner
    bitgen = rng.bit_generator
    # ``advance`` drops a buffered 32-bit value, which a padded draw of doubles keeps
    if type(bitgen) not in _ADVANCEABLE or skip < _MIN_SKIP_PER_RUN or bitgen.state["has_uint32"]:
        return rng.random(draw_shape)[block]
    runs = np.empty((math.prod(draw_shape[:j]), run))
    for out in runs:
        rng.random(out=out)
        bitgen.advance(skip)
    return runs.reshape(shape[:j + 1] + draw_shape[j + 1:])[block]


def dropout(x: Tensor, p: float, rng: np.random.Generator, draw_shape: Sequence[int] | None = None) -> Tensor:
    """Inverted dropout; identity when p == 0.

    With ``draw_shape`` (same rank as ``x``, no axis smaller) the mask is the
    leading block of a mask drawn at that shape, and ``rng`` advances exactly
    as it would for a tensor of ``draw_shape``. On a PCG64 generator, when
    enough values fall outside the block, only the kept values are drawn and
    the rest are skipped with the bit generator's ``advance``; the mask and
    the generator state are bit-identical to the padded draw's.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    draw_shape = x.shape if draw_shape is None else tuple(draw_shape)
    if len(draw_shape) != x.ndim or any(d < n for d, n in zip(draw_shape, x.shape)):
        raise ValueError(f"dropout draw shape {draw_shape} does not cover the tensor shape {x.shape}")
    if p == 0.0:
        return x
    mask = (_uniforms(rng, x.shape, draw_shape) >= p) / (1.0 - p)
    return _make("dropout", x.data * mask, (x,), lambda g: [g * mask])


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax of the target class over every row, fused for stability.

    ``targets`` holds one class index per row of the 2-D ``logits``.
    """
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    m, n_classes = logits.shape
    if m == 0:
        raise ValueError("cross_entropy on an empty batch")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (m,):
        raise ValueError(f"targets shape {targets.shape} does not match batch size {m}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError(f"target out of range [0, {n_classes})")

    z = logits.data
    rows = np.arange(m)
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    out = np.asarray((lse - z[rows, targets]).sum() / m)

    def backward_fn(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=-1, keepdims=True)
        p[rows, targets] -= 1.0
        return [p * (float(g) / m)]

    return _make("cross_entropy", out, (logits,), backward_fn)


# -- backward engine ---------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf ``loss`` depends on.

    Adjoints are computed per call and added in place into any gradient
    already present, so repeated calls without resetting accumulate (which
    is what gradient accumulation over micro-batches relies on). Graph
    nodes keep no gradient: each adjoint is dropped once passed on.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward on a tensor that does not require grad")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):  # every consumer of a node comes before it
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.backward_fn is None:  # a leaf keeps its gradient
            node.grad = np.array(g) if node.grad is None else np.add(node.grad, g, out=node.grad)
            continue
        for par, contrib in zip(node.parents, node.backward_fn(g)):
            if not par.requires_grad:
                continue
            key = id(par)
            if key in adjoint:
                adjoint[key] = adjoint[key] + contrib
            else:
                adjoint[key] = contrib


# -- finite-difference oracle -------------------------------------------------


@dataclass
class GradCheckReport:
    op_name: str
    max_rel_error: float
    tolerance: float
    passed: bool


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a scalar-valued ``f`` at ``x``."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    est = np.zeros_like(x.data)
    for idx in np.ndindex(*x.shape):
        est[idx] = finite_diff_coord(f, x, idx, h)
    return Tensor(est)


def finite_diff_coord(f: Callable[[Tensor], Tensor], x: Tensor, idx, h: float = 1e-5) -> float:
    """Central difference of ``f`` along a single coordinate of ``x``."""
    orig = x.data[idx]
    x.data[idx] = orig + h
    fp = float(f(x).data)
    x.data[idx] = orig - h
    fm = float(f(x).data)
    x.data[idx] = orig
    return (fp - fm) / (2.0 * h)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a| + |n|).

    The absolute floor of 1 keeps coordinates whose true gradient is zero
    from turning finite-difference noise into a spurious failure.
    """
    denom = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def grad_check(
    op_name: str,
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    tolerance: float = 1e-4,
    h: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check ``f``'s analytic gradients against central differences.

    ``f`` may return a tensor of any shape; a fixed random projection turns
    it into a scalar so a single backward pass covers every output.
    """
    rng = rng or np.random.default_rng(0)
    probe = f(*inputs)
    weights = Tensor(rng.standard_normal(probe.shape))

    def scalar(*args: Tensor) -> Tensor:
        return tsum(mul(f(*args), weights))

    for x in inputs:
        x.zero_grad()
    loss = scalar(*inputs)
    loss.backward()

    worst = 0.0
    for pos, x in enumerate(inputs):
        if not x.requires_grad:
            continue

        def pinned(moving: Tensor, pos=pos) -> Tensor:
            args = list(inputs)
            args[pos] = moving
            return scalar(*args)

        numeric = finite_diff_grad(pinned, x, h).data
        analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
        worst = max(worst, relative_error(analytic, numeric))
    return GradCheckReport(op_name, worst, tolerance, worst <= tolerance)
