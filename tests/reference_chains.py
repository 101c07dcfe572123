"""Reference oracles that the batched and fused paths of ``maskdst`` must match.

- Primitive nodes that only these chains and the tests use, moved here from
  ``maskdst.autodiff``: ``sub``, ``matmul``, ``softmax``, ``tsum``, ``tmean``,
  ``div``, ``sigmoid``, ``exp``, ``log``, ``sqrt``, ``reshape``, ``transpose``,
  ``concat`` and ``euclidean_distance`` unchanged, and ``masked_softmax`` as an
  add node then ``softmax`` (the same values and gradients as its old single
  node). ``Tensor`` binds only +, * and indexing, so the chains call these
  functions where they once wrote ``a - b``, ``a @ b`` or ``-x``; ``-x`` was
  the node ``ad.mul(x, -1.0)``, which they now build by name.
- The chains of primitive nodes that the fused ops in ``maskdst.autodiff``
  replaced, kept unchanged: the old ``encoders.multi_head_attention`` body,
  the old ``autodiff.layer_norm``, matmul followed by add, the fusion gate,
  and the value and operation heads' distance and NLL. ``FUSED`` maps each
  fused op's name to its chain, which takes the fused op's arguments, so a
  test can substitute the chains for the fused ops and require
  bit-identical values and gradients. On inputs with a leading slot axis [J x ...], the attention,
  layer norm, linear and gate chains stack each weight once per slot
  (``per_slot``), so that every slot's term reaches the weight on its own,
  and the NLL chain runs once per slot and adds the slots' sums in slot order.
- ``joint_loss_of_slot_terms``: the joint loss of one op loss Tensor per
  slot, added as ((sv0 + sv1) + sv2) + ((sop0 + sop1) + sop2), as the
  program adds its single op term.
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
  [T x d] rows, scores the op head with one NLL node per slot, and decodes
  its beliefs with one ``decode_state`` call per turn, as ``StateTracker``
  did before those stages took a slot axis, its op head kept one tensor and
  ``predict`` decoded in one pass.
- The per-entry catalog encoder: ``encode_catalog_per_entry`` runs one
  ``encode_turn`` pass per slot name and per candidate value, as
  ``encoders.encode_catalog`` did before it batched the entries of each frame
  length.
- ``beliefs_equal``: whether two beliefs agree on every slot, an absent slot
  reading "none"; ``apply_state_ops``: one turn of ops replayed on a belief
  (moved from ``maskdst.data``; ``data.slot_after`` holds the op semantics).
- Views the program no longer keeps: ``contexts_of`` (slot -> its rows of a
  ``DialogueOutput``'s stacked contexts) and ``slot_vecs_of`` (slot -> its row
  of a catalog's ``slot_mat``).
- The per-turn belief decoder: ``decode_state`` builds one turn's belief from
  the belief of the turn before, as ``heads.decode_state`` did before
  ``predict`` replayed each slot's ops on its own and assembled every turn's
  belief in one pass (``heads.replay_ops``, ``heads.assemble_beliefs``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from maskdst import autodiff as ad
from maskdst import encoders, fusion
from maskdst.autodiff import Tensor
from maskdst.data import (
    NONE_VALUE,
    Dialogue,
    belief_value,
    derive_state_ops,
    op_order,
    slot_after,
    tokenize_catalog_entry,
)
from maskdst.heads import DIRECT, distance_logits, joint_loss, nll_from_logits
from maskdst.model import GLOB, LOC, StateTracker


# -- primitives that only the chains use -----------------------------------

def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    out = a.data - b.data

    def bwd(g):
        return ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)

    return Tensor(out, _parents=(a, b), _backward=bwd)


def matmul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    ad._check_matmul(a.data, b.data)
    out = a.data @ b.data

    def bwd(g):
        ga = ad._unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if a.requires_grad else None
        gb = ad._unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor(out, _parents=(a, b), _backward=bwd)


def softmax(logits) -> Tensor:
    """Softmax along the last axis; -inf entries come out exactly 0.

    A row of only -inf (a fully masked row) raises rather than emitting NaN.
    """
    logits = ad.as_tensor(logits)
    out = ad._softmax_rows(logits.data)

    def bwd(g):
        return (ad._softmax_grad(g, out),)

    return Tensor(out, _parents=(logits,), _backward=bwd)


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
    n = a.data.size if axis is None else a.shape[axis]
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


def reshape(a, shape) -> Tensor:
    a = ad.as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def transpose(a, axes) -> Tensor:
    a = ad.as_tensor(a)
    out = a.data.transpose(axes)

    def bwd(g):
        return (g.transpose(np.argsort(axes)),)

    return Tensor(out, _parents=(a,), _backward=bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = [ad.as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, _parents=tuple(tensors), _backward=bwd)


def masked_softmax(logits, mask) -> Tensor:
    """Softmax(logits + mask) along the last axis.

    `mask` entries are 0 (attendable) or -inf (blocked); -inf positions
    come out exactly 0. A fully-masked row raises rather than emitting NaN.
    """
    return softmax(ad.as_tensor(logits) + ad.constant(mask))


def euclidean_distance(a, b) -> Tensor:
    """L2 distance along the last axis (with numpy broadcasting)."""
    d = sub(a, b)
    return sqrt(tsum(d * d, axis=-1))


# -- the chains the fused ops replaced --------------------------------------

def per_slot(w, like):
    """`w` as `like` [J x L x d] takes it: stacked once per slot, [J x d x d] for a
    matrix and [J x 1 x d] for a vector, so that each slot's gradient term reaches w
    on its own and in slot order; `w` itself when `like` has no slot axis."""
    if like.data.ndim != 3:
        return w
    stacked = ad.stack([w] * like.shape[0])
    return stacked if stacked.data.ndim == 3 else reshape(stacked, (like.shape[0], 1, -1))


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
        return transpose(reshape(x, (*lead, length, heads, dh)), swap)

    q = split(matmul(query, per_slot(params[f"{prefix}.wq"], query)), lq)
    k = split(matmul(keys, per_slot(params[f"{prefix}.wk"], keys)), lk)
    v = split(matmul(keys, per_slot(params[f"{prefix}.wv"], keys)), lk)
    scores = matmul(q, transpose(k, (0, 1, 3, 2) if lead else (0, 2, 1))) * (dh ** -0.5)
    if mask is None:
        mask = np.zeros(lk)
    weights = masked_softmax(scores, mask)
    out = matmul(weights, v)  # [J x] h x Lq x dh
    out = reshape(transpose(out, swap), (*lead, lq, d))
    return matmul(out, per_slot(params[f"{prefix}.wo"], out))


def attention(query, keys, wq, wk, wv, wo, heads: int, mask=None) -> Tensor:
    """``multi_head_attention`` called with the arguments of ``ad.attention``."""
    params = {"ref.wq": wq, "ref.wk": wk, "ref.wv": wv, "ref.wo": wo}
    return multi_head_attention(params, "ref", ad.as_tensor(query), ad.as_tensor(keys),
                                heads, mask)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    mu = tmean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = tmean(xc * xc, axis=-1, keepdims=True)
    inv = div(1.0, sqrt(var + ad.LAYER_NORM_EPS))
    return xc * inv * per_slot(gain, x) + per_slot(bias, x)


def linear(x, w, b) -> Tensor:
    x = ad.as_tensor(x)
    return matmul(x, per_slot(w, x)) + per_slot(b, x)


def gate_mix(a, b, w, bias):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    both = concat([a, b], axis=-1)
    gate = sigmoid(ad.linear(both, w, bias))
    return gate * a + sub(1.0, gate) * b, ad.constant(gate.data)


def softmax_nll(logits, gold) -> Tensor:
    """With a slot axis, logits [J x T x V] and gold [J x T], the chain once per slot,
    the slots' sums added in slot order."""
    gold = np.asarray(gold, dtype=np.int64)
    if gold.ndim == 2:
        return sum_in_order([softmax_nll(ad.getitem(logits, j), gold[j])
                             for j in range(len(gold))])
    probs = softmax(logits)
    rows = np.arange(probs.shape[0])
    picked = probs[(rows, np.asarray(gold, dtype=np.int64))]
    return ad.mul(tsum(log(picked)), -1.0)


def neg_distance(queries, points) -> Tensor:
    t, d = queries.shape
    q = reshape(queries, (t, 1, d))
    return ad.mul(euclidean_distance(q, ad.constant(points[None, :, :])), -1.0)


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
    query = reshape(slot_vec if isinstance(slot_vec, Tensor) else ad.constant(slot_vec),
                    (1, -1))
    out = fusion.multi_head_attention(params, f"{prefix}.slotatt", query, keys, heads)
    return out[0]


def encode_catalog_per_entry(ontology, frozen_params, prefix, cfg, vocab):
    """``encoders.encode_catalog`` with one ``encode_turn`` pass per catalog entry."""
    def pooled(text):
        ids = tokenize_catalog_entry(text, vocab)
        return encoders.encode_turn(ids, frozen_params, prefix, cfg).data[0].copy()

    slot_vecs = {s: pooled(s) for s in ontology.slot_names}
    value_mats = {s: np.stack([pooled(v) for v in ontology.values_of(s)])
                  for s in ontology.slot_names}
    return encoders.SlotCatalog(np.stack(list(slot_vecs.values())), value_mats)


def slot_vecs_of(catalog) -> dict:
    """slot -> its row [d] of ``catalog.slot_mat``, slots in ontology order."""
    return dict(zip(catalog.value_mats, catalog.slot_mat))


@dataclass
class SlotValueDistribution:
    probs: Tensor  # [V], ontology value order
    chosen: int


def slot_value_dist(d_st: Tensor, value_matrix: np.ndarray) -> SlotValueDistribution:
    """The value distribution of one query d_st [d] over value_matrix [V x d]."""
    logits = distance_logits(reshape(d_st, (1, -1)), value_matrix)
    probs = softmax(logits)[0]
    return SlotValueDistribution(probs=probs, chosen=int(np.argmax(probs.data)))


# -- the per-turn belief decoder -------------------------------------------

def beliefs_equal(a: dict, b: dict, ontology) -> bool:
    return all(belief_value(a, s) == belief_value(b, s) for s in ontology.slot_names)


def apply_state_ops(prev: dict, ops: dict, cur: dict) -> dict:
    """Replay one turn of operations, reading new values from `cur`."""
    out = dict(prev)
    for slot, op in ops.items():
        value = slot_after(op, belief_value(out, slot), belief_value(cur, slot))
        if value == NONE_VALUE:
            out.pop(slot, None)
        else:
            out[slot] = value
    return out


def decode_state(sv_argmax: dict, op_argmax: dict, values_of, prev_belief: dict,
                 four_class: bool, mode: str = DIRECT) -> dict:
    """Assemble one turn's belief state from per-slot predictions.

    sv_argmax maps slot -> predicted value index; op_argmax maps slot ->
    predicted operation index (ignored in DIRECT mode, where every slot is an
    UPDATE). `values_of` maps a slot to its ontology value list. The ops are
    replayed on prev_belief by `apply_state_ops`, reading the predicted
    values; DIRECT mode builds the same belief without the replay, with the
    body it had before it called a one-pass decoder. Slots resolving to "none"
    are left out of the belief map.
    """
    values = {slot: values_of(slot)[i] for slot, i in sv_argmax.items()}
    if mode == DIRECT:
        live = {slot: v for slot, v in values.items() if v != NONE_VALUE}
        out = {k: live.get(k, v) for k, v in prev_belief.items() if k in live or k not in values}
        out.update(live)
        return out
    order = op_order(four_class)
    ops = {slot: order[op_argmax[slot]] for slot in sv_argmax}
    return apply_state_ops(prev_belief, ops, values)


# -- the per-turn operation head --------------------------------------------

def sum_in_order(terms: list) -> Tensor:
    """((t0 + t1) + t2) + ...: one add node per term after the first."""
    return functools.reduce(ad.add, terms)


def joint_loss_of_slot_terms(sv_terms: dict, sop_terms: dict):
    """``heads.joint_loss`` of per-slot value and op loss Tensors (slot -> scalar; no op
    terms in value-only mode): ((sv0 + sv1) + sv2) + ((sop0 + sop1) + sop2), node for
    node, as the program adds its single op term, whose value sums the slots in order."""
    return joint_loss(list(sv_terms.values()),
                      sum_in_order(list(sop_terms.values())) if sop_terms else None)


def op_logits(params, c_loc: Tensor) -> Tensor:
    """One slot's op logits [T x K] from its local contexts c_loc [T x d]: matmul, then add."""
    return matmul(c_loc, params["op.out.w"]) + params["op.out.b"]


def contexts_of(out) -> dict:
    """slot -> its rows (glob, loc, fused) [T x d] of a ``DialogueOutput``'s slot_contexts."""
    return {s: tuple(c[j] for c in out.slot_contexts) for j, s in enumerate(out.sv_logits)}


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
            loc = reshape(out.slot_contexts[1], out.slot_contexts[1].shape)
            for j, slot in enumerate(self.ontology.slot_names):
                logits = op_logits(self.params, loc[j])
                op_probs[slot] = [softmax(logits[t]) for t in range(len(dialogue.turns))]
        return PerTurnOutput(sv_logits=out.sv_logits, op_probs=op_probs, contexts=contexts_of(out))

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
                sop_terms[slot] = ad.mul(tsum(log(picked)), -1.0)
        return joint_loss_of_slot_terms(sv_terms, sop_terms)

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

        slot_vecs = slot_vecs_of(self.catalog)
        slot_queries = ad.constant(np.stack([slot_vecs[s] for s in slots]))
        summaries = self._word_summaries(turns, slot_queries)
        glob_mask = fusion.build_mask(t_total, fusion.GLOBAL)
        loc_mask = fusion.build_mask(t_total, fusion.LOCAL, cfg.n_history)

        # per-branch word-level slot summaries: [J x T x d]
        branch_word = {}
        for i, branch in enumerate((GLOB, LOC)):
            stacked = ad.stack([s[i] for s in summaries], axis=0)  # T x J x d
            branch_word[branch] = transpose(stacked, (1, 0, 2))  # J x T x d

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
                    self.params, branch, slot_vecs[slot], hier_out, mask, cfg.heads,
                )
            fused, _gate = fusion.fuse(self.params, ctx[GLOB], ctx[LOC])
            sv_logits[slot] = distance_logits(fused, self.catalog.value_mats[slot])

            if with_ops:
                ops[slot] = op_logits(self.params, ctx[LOC])
            contexts[slot] = (ctx[GLOB], ctx[LOC], fused)
        return PerSlotOutput(sv_logits=sv_logits, op_logits=ops, contexts=contexts)

    def loss(self, dialogue: Dialogue, sv_only: bool = False):
        """The loss of ``StateTracker.loss`` before its op head kept one tensor: one NLL
        node per slot for each head."""
        out = self.forward(dialogue, with_ops=not sv_only)
        gold_v, gold_o = self.gold_indices(dialogue)
        sv_terms = {s: nll_from_logits(out.sv_logits[s], gold_v[s]) for s in out.sv_logits}
        sop_terms = {s: nll_from_logits(logits, gold_o[j])
                     for j, (s, logits) in enumerate(out.op_logits.items())}
        return joint_loss_of_slot_terms(sv_terms, sop_terms)

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=mode != DIRECT)
        sv_argmax = {s: logits.data.argmax(axis=-1).tolist() for s, logits in out.sv_logits.items()}
        op_argmax = {s: softmax(logits).data.argmax(axis=-1).tolist()
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
