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
    if grad.shape == shape:
        return grad
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
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor(out, _parents=(a, b), _backward=bwd)


# -- elementwise nonlinearities -----------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

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
        if all(type(i) in (int, slice) for i in (idx if type(idx) is tuple else (idx,))):
            ga[idx] += g  # basic indexing addresses each element once
        else:
            np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(out, _parents=(a,), _backward=bwd)


# operator sugar, see the Tensor class
Tensor.__add__ = add
Tensor.__sub__ = sub
Tensor.__mul__ = mul
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


def softmax(logits) -> Tensor:
    """Softmax along the last axis; -inf entries come out exactly 0.

    A row of only -inf (a fully masked row) raises rather than emitting NaN.
    """
    logits = as_tensor(logits)
    out = _softmax_rows(logits.data)

    def bwd(g):
        return (_softmax_grad(g, out),)

    return Tensor(out, _parents=(logits,), _backward=bwd)


# -- fused nodes ----------------------------------------------------------
#
# Each fused op is one node whose forward and backward repeat, numpy call
# for numpy call, the chain of primitive nodes it replaces (named in its
# docstring), so values and gradients are bit-identical to that chain.
# Where the chain sends two gradient terms to the same input, the node
# lists that input once per term in its parents, so ``backward`` adds the
# terms one at a time in the chain's order. Parents follow the order in
# which the chain's expression names its inputs, so the tape walk reaches
# the inputs, and sums the terms of inputs shared with other nodes, in the
# chain's order too (``tests/test_fused_ops.py`` checks both, op by op and
# in the whole tracker). On inputs with a leading slot axis [J x ...], a node
# equals J 2-D nodes, one per slot: it lists each shared weight once per slot,
# so ``backward`` adds the slots' terms one at a time in slot order, as
# ((prev + g0) + g1), never as (prev + (g0 + g1)).

def _slots(x: np.ndarray) -> list:
    """One index per slot of `x`'s leading slot axis, or [...] (all of x) without one."""
    return list(range(x.shape[0])) if x.ndim == 3 else [...]


def _weight_terms(slots, *terms):
    """Each (gradient, weight shape) pair's term of each of `slots` in turn, unbroadcast."""
    return tuple(g if g is None else _unbroadcast(g[j], shape)
                 for j in slots for g, shape in terms)


def linear(x, w, b) -> Tensor:
    """``x @ w + b``: the chain matmul, then add."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x.data, w.data)
    prod = x.data @ w.data
    out = prod + b.data
    slots = _slots(x.data)

    def bwd(g):
        g_prod = _unbroadcast(g, prod.shape)
        gx = _unbroadcast(g_prod @ w.data.swapaxes(-1, -2), x.shape) if x.requires_grad else None
        gw = x.data.swapaxes(-1, -2) @ g_prod if w.requires_grad else None
        return (gx, *_weight_terms(slots, (gw, w.shape), (g, b.shape)))

    return Tensor(out, _parents=(x, *(w, b) * len(slots)), _backward=bwd)


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
    slots = _slots(x.data)

    def bwd(g):
        g_scaled = _unbroadcast(g, scaled.shape)
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
        return (g_x_direct, g_x_via_mean,
                *_weight_terms(slots, (g_scaled * normed, gain.shape), (g, bias.shape)))

    return Tensor(out, _parents=(x, x, *(gain, bias) * len(slots)), _backward=bwd)


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
    if not qd.ndim == kd.ndim in (2, 3) or qd.shape[:-2] != kd.shape[:-2]:
        raise RankError(f"attention needs [(J x) L x d] query and keys, got {qd.shape}, {kd.shape}")
    *lead, lq, d = qd.shape
    lk = kd.shape[-2]
    if kd.shape[-1] != d or not (wq.shape == wk.shape == wv.shape == wo.shape == (d, d)):
        raise ShapeError(f"attention shapes disagree: query {qd.shape}, keys {kd.shape}, "
                         f"weights {[w.shape for w in (wq, wk, wv, wo)]}")
    if d % heads:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = dh ** -0.5
    slots = _slots(qd)
    q = (qd @ wq.data).reshape((*lead, lq, heads, dh)).swapaxes(-2, -3)
    k = (kd @ wk.data).reshape((*lead, lk, heads, dh)).swapaxes(-2, -3)
    v = (kd @ wv.data).reshape((*lead, lk, heads, dh)).swapaxes(-2, -3)
    k_t = k.swapaxes(-1, -2)
    scores = (q @ k_t) * scale
    if mask is not None:
        scores = scores + _as_mask(mask)
    weights = _softmax_rows(scores)
    merged = (weights @ v).swapaxes(-2, -3).reshape((*lead, lq, d))
    out = merged @ wo.data

    def bwd(g):
        g_wo = merged.swapaxes(-1, -2) @ g if wo.requires_grad else None
        g_merged = g @ wo.data.swapaxes(-1, -2)
        g_heads = g_merged.reshape((*lead, lq, heads, dh)).swapaxes(-2, -3)
        g_weights = g_heads @ v.swapaxes(-1, -2)
        g_v = weights.swapaxes(-1, -2) @ g_heads
        g_scores = _softmax_grad(g_weights, weights) * scale
        g_q = g_scores @ k_t.swapaxes(-1, -2)
        g_k_t = q.swapaxes(-1, -2) @ g_scores
        g_q = g_q.swapaxes(-2, -3).reshape((*lead, lq, d))
        # the chain's two transposes of k, undone in its order
        g_k = g_k_t.swapaxes(-1, -2).swapaxes(-2, -3).reshape((*lead, lk, d))
        g_v = g_v.swapaxes(-2, -3).reshape((*lead, lk, d))
        g_query = g_q @ wq.data.swapaxes(-1, -2) if query.requires_grad else None
        g_keys_k = g_k @ wk.data.swapaxes(-1, -2) if keys.requires_grad else None
        g_keys_v = g_v @ wv.data.swapaxes(-1, -2) if keys.requires_grad else None
        g_wq = query.data.swapaxes(-1, -2) @ g_q if wq.requires_grad else None
        g_wk = keys.data.swapaxes(-1, -2) @ g_k if wk.requires_grad else None
        g_wv = keys.data.swapaxes(-1, -2) @ g_v if wv.requires_grad else None
        return (g_query, g_keys_k, g_keys_v, *_weight_terms(
            slots, (g_wq, wq.shape), (g_wk, wk.shape), (g_wv, wv.shape), (g_wo, wo.shape)))

    # keys twice: the k and v projections each send it a gradient term
    return Tensor(out, _parents=(query, keys, keys, *(wq, wk, wv, wo) * len(slots)), _backward=bwd)


def gate_mix(a, b, w, bias):
    """Row-wise gated merge ``g * a + (1 - g) * b`` with ``g = sigmoid([a, b] @ w + bias)``:
    the chain concat, linear, sigmoid, mul, sub, mul, add.

    Returns (merged, g), with g as a Tensor outside the tape.
    """
    a, b, w, bias = as_tensor(a), as_tensor(b), as_tensor(w), as_tensor(bias)
    both = np.concatenate([a.data, b.data], axis=-1)
    _check_matmul(both, w.data)
    prod = both @ w.data
    gate = 1.0 / (1.0 + np.exp(-(prod + bias.data)))
    from_a = gate * a.data
    keep = 1.0 - gate
    from_b = keep * b.data
    out = from_a + from_b
    slots = _slots(a.data)

    def bwd(g):
        g_from_a = _unbroadcast(g, from_a.shape)
        g_from_b = _unbroadcast(g, from_b.shape)
        g_gate = _unbroadcast(g_from_a * a.data, gate.shape)
        g_a = _unbroadcast(g_from_a * gate, a.shape)
        g_keep = _unbroadcast(g_from_b * b.data, keep.shape)
        g_b = _unbroadcast(g_from_b * keep, b.shape)
        g_gate = g_gate + _unbroadcast(-g_keep, gate.shape)
        g_pre = g_gate * gate * (1.0 - gate)
        g_prod = _unbroadcast(g_pre, prod.shape)
        g_a_cat = g_b_cat = g_w = None
        if a.requires_grad or b.requires_grad:
            g_both = _unbroadcast(g_prod @ w.data.swapaxes(-1, -2), both.shape)
            g_a_cat, g_b_cat = np.split(g_both, [a.shape[-1]], axis=-1)
        if w.requires_grad:
            g_w = both.swapaxes(-1, -2) @ g_prod
        return (g_a, g_b, g_a_cat, g_b_cat,
                *_weight_terms(slots, (g_w, w.shape), (g_pre, bias.shape)))

    # a and b twice: the products and the concat each send them a gradient term
    merged = Tensor(out, _parents=(a, b, a, b, *(w, bias) * len(slots)), _backward=bwd)
    return merged, Tensor(gate)


def softmax_nll(logits, gold) -> Tensor:
    """Sum over rows of ``-log softmax(logits)[row, gold[row]]``; logits [T x V].

    Replaces the chain softmax, getitem at (rows, gold), log, sum, negate.
    """
    logits = as_tensor(logits)
    probs = _softmax_rows(logits.data)
    idx = (np.arange(logits.shape[0]), np.asarray(gold, dtype=np.int64))
    picked = probs[idx]
    out = np.log(picked).sum() * -1.0

    def bwd(g):
        g_log = np.broadcast_to(g * -1.0, picked.shape).copy()
        g_probs = np.zeros_like(probs)
        np.add.at(g_probs, idx, g_log / picked)
        return (_softmax_grad(g_probs, probs),)

    return Tensor(out, _parents=(logits,), _backward=bwd)


def neg_distance(queries, points) -> Tensor:
    """Negative Euclidean distance of each query row to each point row.

    queries [T x d] (a Tensor), points [V x d] (an array) -> [T x V]. Replaces
    the chain reshape to [T x 1 x d], sub, mul by itself, sum over the last
    axis, sqrt, negate.
    """
    queries = as_tensor(queries)
    t, d = queries.shape
    q = queries.data.reshape((t, 1, d))
    diff = q - np.asarray(points, dtype=np.float64)[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    out = dist * -1.0

    def bwd(g):
        g_sum = (g * -1.0) * 0.5 / dist
        g_sq = np.broadcast_to(np.expand_dims(g_sum, -1), diff.shape).copy()
        # diff * diff sends g_sq * diff to diff twice
        term = g_sq * diff
        return (_unbroadcast(term + term, q.shape).reshape(queries.shape),)

    return Tensor(out, _parents=(queries,), _backward=bwd)


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
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))

    # Tensors hash and compare by identity
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
