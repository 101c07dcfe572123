"""Reference oracles that the batched and fused paths of ``maskdst`` must match.

- Primitive nodes that only these chains and the tests use, moved here from
  ``maskdst.autodiff``: ``tsum``, ``tmean``, ``div``, ``sigmoid``, ``exp``,
  ``log``, ``sqrt`` and ``euclidean_distance`` unchanged, and
  ``masked_softmax`` as an add node then ``ad.softmax`` (the same values
  and gradients as its old single node).
- The chains of primitive nodes that the fused ops in ``maskdst.autodiff``
  replaced, kept unchanged: the old ``encoders.multi_head_attention`` body,
  the old ``autodiff.layer_norm``, matmul followed by add, the fusion gate,
  and the value and operation heads' distance and NLL. ``FUSED`` maps each
  fused op's name to its chain, which takes the fused op's arguments, so a
  test can substitute the chains for the fused ops and require
  bit-identical values and gradients. On inputs with a leading slot axis [J x ...], the attention,
  layer norm, linear and gate chains stack each weight once per slot
  (``per_slot``), so that every slot's term reaches the weight on its own.
- Single-turn oracles: ``slot_context`` (one turn of
  ``fusion.slot_context_all``) and ``slot_value_dist`` (one query of
  ``heads.distance_logits`` through a softmax).
- The per-turn operation head: ``PerTurnOpTracker`` is the tracker whose op
  head reads each slot's local contexts through its own chain
  (``op_logits``) and emits one probability vector per turn, scored by
  picking the gold probability of each turn, as it did before both heads
  shared ``nll_from_logits``.
- ``tie_branches``: one set of weights for both fusion branches, so that
  they differ only in their masks.
- The per-slot tracker: ``PerSlotTracker`` runs the hierarchical transform,
  the slot-over-turns attention, the gate and the op head once per slot on
  [T x d] rows, and decodes its beliefs with one ``decode_state`` call per
  turn, as ``StateTracker`` did before those stages took a slot axis and
  ``predict`` decoded in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from maskdst import autodiff as ad
from maskdst import fusion
from maskdst.autodiff import Tensor
from maskdst.data import Dialogue, belief_value, derive_state_ops, op_order
from maskdst.heads import DIRECT, decode_state, distance_logits, joint_loss, nll_from_logits
from maskdst.model import GLOB, LOC, StateTracker


# -- primitives that only the chains use -----------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = ad.as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_ = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, a.shape).copy(),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = ad.as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def div(a, b) -> Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    out = a.data / b.data

    def bwd(g):
        ga = ad._unbroadcast(g / b.data, a.shape)
        gb = ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor(out, _parents=(a, b), _backward=bwd)


def sigmoid(a) -> Tensor:
    a = ad.as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def exp(a) -> Tensor:
    a = ad.as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return Tensor(out, _parents=(a,), _backward=bwd)


def log(a) -> Tensor:
    a = ad.as_tensor(a)
    out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return Tensor(out, _parents=(a,), _backward=bwd)


def sqrt(a) -> Tensor:
    a = ad.as_tensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return Tensor(out, _parents=(a,), _backward=bwd)


def masked_softmax(logits, mask) -> Tensor:
    """Softmax(logits + mask) along the last axis.

    `mask` entries are 0 (attendable) or -inf (blocked); -inf positions
    come out exactly 0. A fully-masked row raises rather than emitting NaN.
    """
    return ad.softmax(ad.as_tensor(logits) + ad.constant(mask))


def euclidean_distance(a, b) -> Tensor:
    """L2 distance along the last axis (with numpy broadcasting)."""
    d = ad.sub(a, b)
    return sqrt(tsum(d * d, axis=-1))


# -- the chains the fused ops replaced --------------------------------------

def per_slot(w, like):
    """`w` as `like` [J x L x d] takes it: stacked once per slot, [J x d x d] for a
    matrix and [J x 1 x d] for a vector, so that each slot's gradient term reaches w
    on its own and in slot order; `w` itself when `like` has no slot axis."""
    if like.ndim != 3:
        return w
    stacked = ad.stack([w] * like.shape[0])
    return stacked if stacked.ndim == 3 else ad.reshape(stacked, (like.shape[0], 1, -1))


def multi_head_attention(params, prefix, query: Tensor, keys: Tensor,
                         heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product multi-head attention; query [Lq x d], keys [Lk x d], or
    both with a leading slot axis.

    `mask` is a {0, -inf} array broadcastable to the [Lq x Lk] score matrix.
    """
    *lead, lq, d = query.shape
    lk = keys.shape[-2]
    dh = d // heads
    swap = (0, 2, 1, 3) if lead else (1, 0, 2)  # rows <-> heads

    def split(x, length):
        return ad.transpose(ad.reshape(x, (*lead, length, heads, dh)), swap)

    q = split(query @ per_slot(params[f"{prefix}.wq"], query), lq)
    k = split(keys @ per_slot(params[f"{prefix}.wk"], keys), lk)
    v = split(keys @ per_slot(params[f"{prefix}.wv"], keys), lk)
    scores = (q @ ad.transpose(k, (0, 1, 3, 2) if lead else (0, 2, 1))) * (dh ** -0.5)
    if mask is None:
        mask = np.zeros(lk)
    weights = masked_softmax(scores, mask)
    out = weights @ v  # [J x] h x Lq x dh
    out = ad.reshape(ad.transpose(out, swap), (*lead, lq, d))
    return out @ per_slot(params[f"{prefix}.wo"], out)


def attention(query, keys, wq, wk, wv, wo, heads: int, mask=None) -> Tensor:
    """``multi_head_attention`` called with the arguments of ``ad.attention``."""
    params = {"ref.wq": wq, "ref.wk": wk, "ref.wv": wv, "ref.wo": wo}
    return multi_head_attention(params, "ref", ad.as_tensor(query), ad.as_tensor(keys),
                                heads, mask)


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    mu = tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = tmean(xc * xc, axis=-1, keepdims=True)
    inv = div(1.0, sqrt(var + eps))
    return xc * inv * per_slot(gain, x) + per_slot(bias, x)


def linear(x, w, b) -> Tensor:
    x = ad.as_tensor(x)
    return x @ per_slot(w, x) + per_slot(b, x)


def gate_mix(a, b, w, bias):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    both = ad.concat([a, b], axis=-1)
    gate = sigmoid(ad.linear(both, w, bias))
    return gate * a + (1.0 - gate) * b, ad.constant(gate.data)


def softmax_nll(logits, gold) -> Tensor:
    probs = ad.softmax(logits)
    rows = np.arange(probs.shape[0])
    picked = probs[(rows, np.asarray(gold, dtype=np.int64))]
    return -tsum(log(picked))


def neg_distance(queries, points) -> Tensor:
    t, d = queries.shape
    q = ad.reshape(queries, (t, 1, d))
    return -euclidean_distance(q, ad.constant(points[None, :, :]))


# fused op name in maskdst.autodiff -> the chain it replaced
FUSED = {
    "attention": attention,
    "layer_norm": layer_norm,
    "linear": linear,
    "gate_mix": gate_mix,
    "softmax_nll": softmax_nll,
    "neg_distance": neg_distance,
}


# -- single-turn oracles ----------------------------------------------------

FULL_PREFIX = "full_prefix"
LAST_N = "last_n"


def slot_context(params, prefix, slot_vec: np.ndarray, hier_out: Tensor,
                 t: int, window: str, heads: int, n: Optional[int] = None) -> Tensor:
    """Single-turn slot context: attention over hier_out rows ending at t.

    `t` is 1-indexed. FULL_PREFIX admits rows 1..t; LAST_N admits rows
    max(1, t-n)..t.
    """
    total = hier_out.shape[0]
    if not 1 <= t <= total:
        raise ad.ShapeError(f"turn {t} outside 1..{total}")
    lo = 0 if window == FULL_PREFIX else max(0, t - 1 - n)
    keys = hier_out[lo:t]
    query = ad.reshape(slot_vec if isinstance(slot_vec, Tensor) else ad.constant(slot_vec),
                       (1, -1))
    out = fusion.multi_head_attention(params, f"{prefix}.slotatt", query, keys, heads)
    return out[0]


@dataclass
class SlotValueDistribution:
    probs: Tensor  # [V], ontology value order
    chosen: int


def slot_value_dist(d_st: Tensor, value_matrix: np.ndarray) -> SlotValueDistribution:
    """The value distribution of one query d_st [d] over value_matrix [V x d]."""
    logits = distance_logits(ad.reshape(d_st, (1, -1)), value_matrix)
    probs = ad.softmax(logits)[0]
    return SlotValueDistribution(probs=probs, chosen=int(np.argmax(probs.data)))


# -- the per-turn operation head --------------------------------------------

def op_logits(params, c_loc: Tensor) -> Tensor:
    """One slot's op logits [T x K] from its local contexts c_loc [T x d]: matmul, then add."""
    return c_loc @ params["op.out.w"] + params["op.out.b"]


def tie_branches(tracker: StateTracker) -> StateTracker:
    """Put each ``glob.*`` tensor of `tracker` under its ``loc.*`` name too, so the
    local branch runs on the global branch's weights; returns the tracker."""
    for name in [n for n in tracker.params if n.startswith(f"{GLOB}.")]:
        tracker.params[LOC + name[len(GLOB):]] = tracker.params[name]
    return tracker


@dataclass
class PerTurnOutput:
    sv_logits: dict      # slot -> Tensor [T x |v_s|]
    op_probs: dict       # slot -> list over turns of Tensor [K]
    contexts: dict       # slot -> (glob, loc, fused) [T x d]


class PerTurnOpTracker(StateTracker):
    """``StateTracker`` with the per-turn op head: its loss and predict as they were, on
    the contexts of ``StateTracker.forward``."""

    def forward(self, dialogue: Dialogue, with_ops: bool = True) -> PerTurnOutput:
        out = StateTracker.forward(self, dialogue, with_ops=False)
        op_probs = {}
        if with_ops:
            # the chains read the local contexts through one node, so that these take
            # the gate's gradient terms before the op head's for every slot, as they
            # do from StateTracker's single op head node
            loc = ad.reshape(out.slot_contexts[1], out.slot_contexts[1].shape)
            for j, slot in enumerate(self.ontology.slot_names):
                logits = op_logits(self.params, loc[j])
                op_probs[slot] = [ad.softmax(logits[t]) for t in range(len(dialogue.turns))]
        return PerTurnOutput(sv_logits=out.sv_logits, op_probs=op_probs, contexts=out.contexts)

    def gold_value_indices(self, dialogue: Dialogue, slot: str) -> np.ndarray:
        values = self.ontology.values_of(slot)
        return np.asarray(
            [values.index(belief_value(t.belief, slot)) for t in dialogue.turns],
            dtype=np.int64,
        )

    def gold_op_indices(self, dialogue: Dialogue, slot: str) -> np.ndarray:
        order = list(op_order(self.cfg.four_class))
        prev = {}
        idx = []
        for turn in dialogue.turns:
            ops = derive_state_ops(prev, turn.belief, self.ontology, self.cfg.four_class)
            idx.append(order.index(ops[slot]))
            prev = turn.belief
        return np.asarray(idx, dtype=np.int64)

    def loss(self, dialogue: Dialogue, sv_only: bool = False):
        out = self.forward(dialogue, with_ops=not sv_only)
        sv_terms = {}
        sop_terms = {}
        for slot in self.ontology.slot_names:
            gold_v = self.gold_value_indices(dialogue, slot)
            sv_terms[slot] = nll_from_logits(out.sv_logits[slot], gold_v)
            if not sv_only:
                gold_o = self.gold_op_indices(dialogue, slot)
                picked = ad.stack([
                    out.op_probs[slot][t][int(gold_o[t])]
                    for t in range(len(dialogue.turns))
                ])
                sop_terms[slot] = -tsum(log(picked))
        return joint_loss(sv_terms, sop_terms)

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        with_ops = mode != DIRECT
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=with_ops)
        slots = self.ontology.slot_names
        beliefs = []
        prev = {}
        for t in range(len(dialogue.turns)):
            sv_argmax = {s: int(np.argmax(out.sv_logits[s].data[t])) for s in slots}
            op_argmax = (
                {s: int(np.argmax(out.op_probs[s][t].data)) for s in slots}
                if with_ops else {s: 0 for s in slots}
            )
            belief = decode_state(
                sv_argmax, op_argmax, self.ontology.values_of, prev,
                self.cfg.four_class, mode,
            )
            beliefs.append(belief)
            prev = belief
        return beliefs


@dataclass
class PerSlotOutput:
    sv_logits: dict      # slot -> Tensor [T x |v_s|]
    op_logits: dict      # slot -> Tensor [T x K]; empty when ops are not run
    contexts: dict       # slot -> (glob, loc, fused) [T x d]


class PerSlotTracker(StateTracker):
    """``StateTracker`` with the fusion stages run once per slot: forward and predict as
    they were."""

    def forward(self, dialogue: Dialogue, with_ops: bool = True) -> PerSlotOutput:
        cfg = self.cfg
        slots = self.ontology.slot_names
        turns = dialogue.turns
        t_total = len(turns)

        slot_queries = ad.constant(np.stack([self.catalog.slot_vecs[s] for s in slots]))
        summaries = self._word_summaries(turns, slot_queries)
        glob_mask = fusion.build_mask(t_total, fusion.GLOBAL)
        loc_mask = fusion.build_mask(t_total, fusion.LOCAL, cfg.n_history)

        # per-branch word-level slot summaries: [J x T x d]
        branch_word = {}
        for i, branch in enumerate((GLOB, LOC)):
            stacked = ad.stack([s[i] for s in summaries], axis=0)  # T x J x d
            branch_word[branch] = ad.transpose(stacked, (1, 0, 2))  # J x T x d

        sv_logits = {}
        ops = {}
        contexts = {}
        for j, slot in enumerate(slots):
            ctx = {}
            for branch, mask in ((GLOB, glob_mask), (LOC, loc_mask)):
                hier_out = fusion.masked_hier_transform(
                    self.params, branch, branch_word[branch][j], mask, cfg.heads, cfg.hier_layers
                )
                ctx[branch] = fusion.slot_context_all(
                    self.params, branch, self.catalog.slot_vecs[slot], hier_out, mask, cfg.heads,
                )
            fused, _gate = fusion.fuse(self.params, ctx[GLOB], ctx[LOC])
            sv_logits[slot] = distance_logits(fused, self.catalog.value_mats[slot])

            if with_ops:
                ops[slot] = op_logits(self.params, ctx[LOC])
            contexts[slot] = (ctx[GLOB], ctx[LOC], fused)
        return PerSlotOutput(sv_logits=sv_logits, op_logits=ops, contexts=contexts)

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=mode != DIRECT)
        sv_argmax = {s: logits.data.argmax(axis=-1).tolist() for s, logits in out.sv_logits.items()}
        op_argmax = {s: ad.softmax(logits).data.argmax(axis=-1).tolist()
                     for s, logits in out.op_logits.items()}
        beliefs = []
        prev = {}
        for t in range(len(dialogue.turns)):
            prev = decode_state(
                {s: idx[t] for s, idx in sv_argmax.items()},
                {s: idx[t] for s, idx in op_argmax.items()},
                self.ontology.values_of, prev, self.cfg.four_class, mode,
            )
            beliefs.append(prev)
        return beliefs
