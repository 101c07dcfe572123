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
LAYER_NORM_EPS = 1e-5
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

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar: __add__, __mul__ and __getitem__ are the op functions
    # themselves (bound after them, below), which saves a call per node. They
    # are the only operators: a Tensor takes + and * on its left side only,
    # and no -, @ or unary minus.


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


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, _parents=(a, b), _backward=bwd)


# -- shape checks ---------------------------------------------------------

def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise RankError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")


# -- elementwise nonlinearities -----------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return Tensor(out, _parents=(a,), _backward=bwd)


# -- shape manipulation -------------------------------------------------

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
Tensor.__mul__ = mul
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


# -- fused nodes ----------------------------------------------------------
#
# Each fused op is one node whose forward and backward compute the
# floating-point operations of the chain of primitive nodes it replaces
# (named in its docstring) in the chain's order, so values and gradients are
# bit-identical to that chain. The chain's steps that change no value are
# left out: undoing a broadcast where, on the shapes the program gives the
# node (2-D weights, 1-D gains and biases), none happened, and copying a
# broadcast that only feeds an elementwise product. Where the chain sends
# two gradient terms to the same input, the node lists that input once per
# term in its parents, so ``backward`` adds the terms one at a time in the
# chain's order. Parents follow the order in which the chain's expression
# names its inputs, so the tape walk reaches the inputs, and sums the terms
# of inputs shared with other nodes, in the chain's order too
# (``tests/test_fused_ops.py`` checks both, op by op and in the whole
# tracker). On inputs with a leading slot axis [J x ...], a node equals J
# 2-D nodes, one per slot: it lists each shared weight once and returns its
# term stacked over the slots, which ``backward`` adds one slot at a time in
# slot order, as ((prev + g0) + g1), never as (prev + (g0 + g1)).

def _row_sum(g: np.ndarray) -> np.ndarray:
    """A gain's or bias's term: [(J x) T x n] -> [(J x) n], one per slot; [n] as is."""
    return g.sum(axis=-2) if g.ndim > 1 else g


def _sum_kept(g: np.ndarray, axis: int) -> np.ndarray:
    """Undo a broadcast along `axis`; a sum over length 1 would turn -0.0 into 0.0."""
    return g.sum(axis=axis, keepdims=True) if g.shape[axis] > 1 else g


def linear(x, w, b) -> Tensor:
    """``x @ w + b``: the chain matmul, then add."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x.data, w.data)
    out = x.data @ w.data + b.data

    def bwd(g):
        gx = g @ w.data.swapaxes(-1, -2) if x.requires_grad else None
        gw = x.data.swapaxes(-1, -2) @ g if w.requires_grad else None
        return gx, gw, _row_sum(g)

    return Tensor(out, _parents=(x, w, b), _backward=bwd)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    Replaces the chain mu = mean(x); xc = x - mu; var = mean(xc * xc);
    inv = 1 / sqrt(var + LAYER_NORM_EPS); out = xc * inv * gain + bias.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.shape[-1]
    sum_x = np.add.reduce(x.data, axis=-1, keepdims=True)
    xc = x.data - sum_x * inv_n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) * inv_n
    sd = np.sqrt(var + LAYER_NORM_EPS)
    inv = 1.0 / sd
    normed = xc * inv
    out = normed * gain.data + bias.data

    def bwd(g):
        g_normed = g * gain.data
        g_inv = _sum_kept(g_normed * xc, -1)
        g_xc = g_normed * inv
        g_sd = -g_inv / (sd * sd)
        g_var = (g_sd * 0.5 / sd) * inv_n
        # xc * xc sends g_var * xc to xc twice
        term = g_var * xc
        g_xc = g_xc + term
        g_xc = g_xc + term
        g_sum_x = _sum_kept(-g_xc, -1) * inv_n
        # a real array, not a broadcast view, so later matmuls see ordinary strides
        g_x_via_mean = np.broadcast_to(g_sum_x, x.shape).copy()
        return g_xc, g_x_via_mean, _row_sum(g * normed), _row_sum(g)

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
        return g_query, g_keys_k, g_keys_v, g_wq, g_wk, g_wv, g_wo

    # keys twice: the k and v projections each send it a gradient term
    return Tensor(out, _parents=(query, keys, keys, wq, wk, wv, wo), _backward=bwd)


def gate_mix(a, b, w, bias):
    """Row-wise gated merge ``g * a + (1 - g) * b`` with ``g = sigmoid([a, b] @ w + bias)``:
    the chain concat, linear, sigmoid, mul, sub, mul, add.

    Returns (merged, g), with g as a Tensor outside the tape.
    """
    a, b, w, bias = as_tensor(a), as_tensor(b), as_tensor(w), as_tensor(bias)
    both = np.concatenate([a.data, b.data], axis=-1)
    _check_matmul(both, w.data)
    gate = 1.0 / (1.0 + np.exp(-(both @ w.data + bias.data)))
    keep = 1.0 - gate
    out = gate * a.data + keep * b.data

    def bwd(g):
        g_gate = g * a.data
        g_a = g * gate
        g_keep = g * b.data
        g_b = g * keep
        g_gate = g_gate + -g_keep
        g_pre = g_gate * gate * (1.0 - gate)
        g_a_cat = g_b_cat = g_w = None
        if a.requires_grad or b.requires_grad:
            g_a_cat, g_b_cat = np.split(g_pre @ w.data.swapaxes(-1, -2), [a.shape[-1]], axis=-1)
        if w.requires_grad:
            g_w = both.swapaxes(-1, -2) @ g_pre
        return g_a, g_b, g_a_cat, g_b_cat, g_w, _row_sum(g_pre)

    # a and b twice: the products and the concat each send them a gradient term
    merged = Tensor(out, _parents=(a, b, a, b, w, bias), _backward=bwd)
    return merged, Tensor(gate)


def softmax_nll(logits, gold) -> Tensor:
    """Sum over rows of ``-log softmax(logits)[row, gold[row]]``; logits [(J x) T x V],
    gold [(J x) T].

    Replaces the chain softmax, getitem at (rows, gold), log, sum, negate; with a
    slot axis, that chain once per slot, the slots' sums added in slot order.
    """
    logits = as_tensor(logits)
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != logits.shape[:-1]:
        raise ShapeError(f"softmax_nll gold {gold.shape} does not index logits {logits.shape}")
    probs = _softmax_rows(logits.data)
    idx = (*np.indices(gold.shape, sparse=True), gold)
    picked = probs[idx]
    out = np.add.accumulate((np.log(picked).sum(axis=-1) * -1.0).reshape(-1))[-1]

    def bwd(g):
        g_probs = np.zeros_like(probs)
        np.add.at(g_probs, idx, g * -1.0 / picked)
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
        # diff * diff sends g_sum * diff to diff twice
        term = g_sum[..., None] * diff
        return (_sum_kept(term + term, -2).reshape(queries.shape),)

    return Tensor(out, _parents=(queries,), _backward=bwd)


# -- backward -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    A node's rule returns each parent's term in the parent's shape, or, from a
    fused node on a slot axis, with one more leading axis that holds one term
    per slot; those are added one slot at a time in slot order. Repeated calls
    accumulate into .grad until it is reset to None.
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
            for term in (pg if pg.ndim > parent.data.ndim else (pg,)):
                grads[parent] = grads[parent] + term if parent in grads else term
