"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays. Every operation appends a node to an
implicit tape (via parent links); ``backward`` on a scalar loss walks the
graph in reverse topological order and accumulates gradients on leaves
that were created with ``requires_grad=True``. Inside ``no_grad()`` no
tape is recorded, for evaluations whose gradient is never taken.

Single-threaded within one graph. Parameters may be shared read-only
across concurrently evaluated graphs.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

NEG_INF = float("-inf")
_FLOAT64 = np.dtype(np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class RankError(ValueError):
    """Operand rank is wrong (e.g. backward on a non-scalar)."""


class DegenerateRowError(ValueError):
    """A softmax row is fully masked; upstream mask construction is broken."""


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block (per thread).

    Op results made inside have no parents, no backward rule and
    ``requires_grad`` False; a leaf keeps the ``requires_grad`` it is made
    with. Values are bit-identical to a taped evaluation. The previous
    mode is restored on exit, also when the block raises.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def grad_enabled() -> bool:
    """Whether ops record a tape in this thread (False inside ``no_grad()``)."""
    return _grad_mode.enabled


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        if _parents and _grad_mode.enabled:
            # requires_grad is propagated: an interior node requires grad iff
            # any ancestor leaf does, so backward can prune dead subgraphs.
            if not requires_grad:
                for p in _parents:
                    if p.requires_grad:
                        requires_grad = True
                        break
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    # __add__, __sub__, __mul__, __truediv__, __matmul__ and __getitem__
    # are the op functions themselves (bound after them, below), which
    # saves a call per node.
    def __radd__(self, other):
        return add(other, self)

    def __rsub__(self, other):
        return sub(other, self)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x)


def parameter(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------

def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, _parents=(a, b), _backward=bwd)


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out, _parents=(a, b), _backward=bwd)


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, _parents=(a, b), _backward=bwd)


def div(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor(out, _parents=(a, b), _backward=bwd)


# -- matmul -------------------------------------------------------------

def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise RankError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    _check_matmul(a.data, b.data)
    out = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return Tensor(out, _parents=(a, b), _backward=bwd)


# -- reductions ---------------------------------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_ = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, a.shape).copy(),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


# -- elementwise nonlinearities -----------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return Tensor(out, _parents=(a,), _backward=bwd)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return Tensor(out, _parents=(a,), _backward=bwd)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return Tensor(out, _parents=(a,), _backward=bwd)


# -- shape manipulation -------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = a.data.transpose(axes)

    def bwd(g):
        return (g.transpose(np.argsort(axes)),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, _parents=tuple(tensors), _backward=bwd)


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Tensor(out, _parents=tuple(tensors), _backward=bwd)


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    out = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(out, _parents=(a,), _backward=bwd)


# operator sugar, see the Tensor class
Tensor.__add__ = add
Tensor.__sub__ = sub
Tensor.__mul__ = mul
Tensor.__truediv__ = div
Tensor.__matmul__ = matmul
Tensor.__getitem__ = getitem


def embedding(table, ids) -> Tensor:
    """Row lookup into `table` [V x d] by an integer id sequence."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range for vocabulary of {table.shape[0]}")
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, _parents=(table,), _backward=bwd)


# -- softmax and normalization ------------------------------------------

def _softmax_rows(z: np.ndarray) -> np.ndarray:
    if not z.shape[-1]:
        raise DegenerateRowError("softmax row is fully masked")
    # np.maximum.reduce and np.add.reduce are what ndarray.max and
    # ndarray.sum call, minus a Python wrapper.
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    # A row is fully masked exactly when its max is -inf; fmin skips the
    # NaN maxima of rows that hold a NaN.
    if np.fmin.reduce(m, axis=None, initial=np.inf) == NEG_INF:
        raise DegenerateRowError("softmax row is fully masked")
    e = np.exp(z - m)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    return e / s


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def _as_mask(mask) -> np.ndarray:
    return mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)


def _softmax_node(logits: Tensor, z: np.ndarray) -> Tensor:
    out = _softmax_rows(z)

    def bwd(g):
        return (_softmax_grad(g, out),)

    return Tensor(out, _parents=(logits,), _backward=bwd)


def masked_softmax(logits, mask) -> Tensor:
    """Softmax(logits + mask) along the last axis.

    `mask` entries are 0 (attendable) or -inf (blocked); -inf positions
    come out exactly 0. A fully-masked row raises rather than emitting NaN.
    """
    logits = as_tensor(logits)
    return _softmax_node(logits, logits.data + _as_mask(mask))


def softmax(logits) -> Tensor:
    """Softmax along the last axis; a row of only -inf raises as in masked_softmax."""
    logits = as_tensor(logits)
    return _softmax_node(logits, logits.data)


# -- fused nodes ----------------------------------------------------------
#
# Each fused op is one node whose forward and backward repeat, numpy call
# for numpy call, the chain of primitive nodes it replaces (named in its
# docstring), so values and gradients are bit-identical to that chain.
# Where the chain sends two gradient terms to the same input, the node
# lists that input once per term in its parents, so ``backward`` adds the
# terms one at a time in the chain's order.

def linear(x, w, b) -> Tensor:
    """``x @ w + b``: the chain matmul, then add."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x.data, w.data)
    prod = x.data @ w.data
    out = prod + b.data

    def bwd(g):
        gb = _unbroadcast(g, b.shape)
        gp = _unbroadcast(g, prod.shape)
        gx = _unbroadcast(gp @ np.swapaxes(w.data, -1, -2), x.shape) if x.requires_grad else None
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ gp, w.shape) if w.requires_grad else None
        return gx, gw, gb

    return Tensor(out, _parents=(x, w, b), _backward=bwd)


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    Replaces the chain mu = mean(x); xc = x - mu; var = mean(xc * xc);
    inv = 1 / sqrt(var + eps); out = xc * inv * gain + bias.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.shape[-1]
    sum_x = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu = sum_x * inv_n
    xc = x.data - mu
    sq = xc * xc
    var = np.add.reduce(sq, axis=-1, keepdims=True) * inv_n
    sd = np.sqrt(var + eps)
    inv = 1.0 / sd
    normed = xc * inv
    scaled = normed * gain.data
    out = scaled + bias.data

    def bwd(g):
        g_bias = _unbroadcast(g, bias.shape)
        g_scaled = _unbroadcast(g, scaled.shape)
        g_gain = _unbroadcast(g_scaled * normed, gain.shape)
        g_normed = _unbroadcast(g_scaled * gain.data, normed.shape)
        g_inv = _unbroadcast(g_normed * xc, inv.shape)
        g_xc = _unbroadcast(g_normed * inv, xc.shape)
        g_sd = _unbroadcast(-g_inv / (sd * sd), sd.shape)
        g_var = (g_sd * 0.5 / sd) * inv_n
        g_sq = np.broadcast_to(g_var, sq.shape).copy()
        # xc * xc sends g_sq * xc to xc twice
        term = g_sq * xc
        g_xc = g_xc + term
        g_xc = g_xc + term
        g_mu = _unbroadcast(-g_xc, mu.shape)
        g_sum_x = _unbroadcast(g_mu * inv_n, sum_x.shape)
        g_x_direct = _unbroadcast(g_xc, x.shape)
        g_x_via_mean = np.broadcast_to(g_sum_x, x.shape).copy()
        return g_x_direct, g_x_via_mean, g_gain, g_bias

    return Tensor(out, _parents=(x, x, gain, bias), _backward=bwd)


def attention(query, keys, wq, wk, wv, wo, heads: int, mask=None) -> Tensor:
    """Multi-head scaled dot-product attention with its four projections.

    query [Lq x d], keys [Lk x d], wq/wk/wv/wo [d x d]; `mask` is None or a
    {0, -inf} array broadcastable to the [Lq x Lk] scores. Replaces the
    chain: q, k, v = query @ wq, keys @ wk, keys @ wv, each split into
    `heads` heads of width d / heads; weights = masked_softmax(q @ k^T *
    (d / heads) ** -0.5, mask); out = (weights @ v, heads merged) @ wo.
    """
    query, keys = as_tensor(query), as_tensor(keys)
    wq, wk, wv, wo = as_tensor(wq), as_tensor(wk), as_tensor(wv), as_tensor(wo)
    qd, kd = query.data, keys.data
    if qd.ndim != 2 or kd.ndim != 2:
        raise RankError(f"attention needs [L x d] query and keys, got {qd.shape}, {kd.shape}")
    lq, d = qd.shape
    lk = kd.shape[0]
    if kd.shape[1] != d or not (wq.shape == wk.shape == wv.shape == wo.shape == (d, d)):
        raise ShapeError(f"attention shapes disagree: query {qd.shape}, keys {kd.shape}, "
                         f"weights {[w.shape for w in (wq, wk, wv, wo)]}")
    if d % heads:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = dh ** -0.5
    q = (qd @ wq.data).reshape((lq, heads, dh)).transpose((1, 0, 2))
    k = (kd @ wk.data).reshape((lk, heads, dh)).transpose((1, 0, 2))
    v = (kd @ wv.data).reshape((lk, heads, dh)).transpose((1, 0, 2))
    k_t = k.transpose((0, 2, 1))
    scores = (q @ k_t) * scale
    if mask is not None:
        scores = scores + _as_mask(mask)
    weights = _softmax_rows(scores)
    merged = (weights @ v).transpose((1, 0, 2)).reshape((lq, d))
    out = merged @ wo.data

    def bwd(g):
        g_wo = np.swapaxes(merged, -1, -2) @ g if wo.requires_grad else None
        g_merged = g @ np.swapaxes(wo.data, -1, -2)
        g_heads = g_merged.reshape((lq, heads, dh)).transpose((1, 0, 2))
        g_weights = g_heads @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(weights, -1, -2) @ g_heads
        g_scores = _softmax_grad(g_weights, weights) * scale
        g_q = g_scores @ np.swapaxes(k_t, -1, -2)
        g_k_t = np.swapaxes(q, -1, -2) @ g_scores
        g_q = g_q.transpose((1, 0, 2)).reshape((lq, d))
        # the chain's two transposes of k, undone in its order
        g_k = g_k_t.transpose((0, 2, 1)).transpose((1, 0, 2)).reshape((lk, d))
        g_v = g_v.transpose((1, 0, 2)).reshape((lk, d))
        g_query = g_q @ np.swapaxes(wq.data, -1, -2) if query.requires_grad else None
        g_keys_k = g_k @ np.swapaxes(wk.data, -1, -2) if keys.requires_grad else None
        g_keys_v = g_v @ np.swapaxes(wv.data, -1, -2) if keys.requires_grad else None
        g_wq = np.swapaxes(query.data, -1, -2) @ g_q if wq.requires_grad else None
        g_wk = np.swapaxes(keys.data, -1, -2) @ g_k if wk.requires_grad else None
        g_wv = np.swapaxes(keys.data, -1, -2) @ g_v if wv.requires_grad else None
        return g_query, g_keys_k, g_keys_v, g_wq, g_wk, g_wv, g_wo

    # keys twice: the k and v projections each send it a gradient term
    return Tensor(out, _parents=(query, keys, keys, wq, wk, wv, wo), _backward=bwd)


def euclidean_distance(a, b) -> Tensor:
    """L2 distance along the last axis (with numpy broadcasting)."""
    d = sub(a, b)
    return sqrt(tsum(d * d, axis=-1))


# -- backward -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Repeated calls accumulate into .grad until it is reset to None.
    """
    if loss.data.size != 1:
        raise RankError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
