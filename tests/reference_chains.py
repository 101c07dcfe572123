"""Reference oracles that the batched and fused paths of ``maskdst`` must match.

- The chains of primitive nodes that the fused ops in ``maskdst.autodiff``
  replaced, kept unchanged: the old ``encoders.multi_head_attention`` body,
  the old ``autodiff.layer_norm`` and matmul followed by add.
  ``attention``, ``layer_norm`` and ``linear`` take the fused ops'
  arguments, so a test can substitute them for ``ad.attention``,
  ``ad.layer_norm`` and ``ad.linear`` and require bit-identical values and
  gradients.
- Single-turn oracles: ``slot_context`` (one turn of
  ``fusion.slot_context_all``) and ``slot_value_dist`` (one query of
  ``heads.distance_logits`` through a softmax).
- The per-turn operation head: ``PerTurnOpTracker`` is the tracker whose op
  decoder emitted one probability vector per turn, scored by picking the
  gold probability of each turn, as it did before both heads shared
  ``nll_from_logits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from maskdst import autodiff as ad
from maskdst import fusion
from maskdst.autodiff import Tensor
from maskdst.data import Dialogue, belief_value, derive_state_ops, op_order, tokenize_turn
from maskdst.encoders import encode_turn
from maskdst.heads import DIRECT, decode_state, distance_logits, joint_loss, nll_from_logits
from maskdst.model import GLOB, LOC, StateTracker


def multi_head_attention(params, prefix, query: Tensor, keys: Tensor,
                         heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product multi-head attention; query [Lq x d], keys [Lk x d].

    `mask` is a {0, -inf} array broadcastable to the [Lq x Lk] score matrix.
    """
    lq, d = query.shape
    lk = keys.shape[0]
    dh = d // heads
    q = ad.transpose(ad.reshape(query @ params[f"{prefix}.wq"], (lq, heads, dh)), (1, 0, 2))
    k = ad.transpose(ad.reshape(keys @ params[f"{prefix}.wk"], (lk, heads, dh)), (1, 0, 2))
    v = ad.transpose(ad.reshape(keys @ params[f"{prefix}.wv"], (lk, heads, dh)), (1, 0, 2))
    scores = (q @ ad.transpose(k, (0, 2, 1))) * (dh ** -0.5)
    if mask is None:
        mask = np.zeros(lk)
    weights = ad.masked_softmax(scores, mask)
    out = weights @ v  # h x Lq x dh
    out = ad.reshape(ad.transpose(out, (1, 0, 2)), (lq, d))
    return out @ params[f"{prefix}.wo"]


def attention(query, keys, wq, wk, wv, wo, heads: int, mask=None) -> Tensor:
    """``multi_head_attention`` called with the arguments of ``ad.attention``."""
    params = {"ref.wq": wq, "ref.wk": wk, "ref.wv": wv, "ref.wo": wo}
    return multi_head_attention(params, "ref", ad.as_tensor(query), ad.as_tensor(keys),
                                heads, mask)


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    mu = ad.tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = ad.tmean(xc * xc, axis=-1, keepdims=True)
    inv = ad.div(1.0, ad.sqrt(var + eps))
    return xc * inv * gain + bias


def linear(x, w, b) -> Tensor:
    return ad.as_tensor(x) @ w + b


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

@dataclass
class OpDecoderState:
    hidden: Tensor  # [d]; zero at the start of every (slot, dialogue) stream

    @classmethod
    def initial(cls, d: int):
        return cls(hidden=ad.constant(np.zeros(d)))


@dataclass
class OpDistribution:
    probs: Tensor  # [K] in op_order


def op_decoder_step(params, c_loc: Tensor, state: OpDecoderState):
    """One recurrence step: consume the local context, emit op probabilities."""
    x = ad.reshape(c_loc, (1, -1))
    h = ad.reshape(state.hidden, (1, -1))
    z = ad.sigmoid(x @ params["op.cell.wz"] + h @ params["op.cell.uz"] + params["op.cell.bz"])
    r = ad.sigmoid(x @ params["op.cell.wr"] + h @ params["op.cell.ur"] + params["op.cell.br"])
    cand = ad.tanh(x @ params["op.cell.wh"] + (r * h) @ params["op.cell.uh"] + params["op.cell.bh"])
    new_h = (1.0 - z) * h + z * cand
    logits = ad.linear(new_h, params["op.out.w"], params["op.out.b"])
    probs = ad.softmax(logits)[0]
    return OpDistribution(probs=probs), OpDecoderState(hidden=new_h[0])


@dataclass
class PerTurnOutput:
    sv_logits: dict      # slot -> Tensor [T x |v_s|]
    op_probs: dict       # slot -> list over turns of Tensor [K]
    contexts: dict = field(default_factory=dict)  # slot -> (glob, loc, fused) [T x d]


class PerTurnOpTracker(StateTracker):
    """``StateTracker`` with the per-turn op head: forward, loss and predict as they were."""

    def forward(self, dialogue: Dialogue, keep_contexts: bool = False,
                with_ops: bool = True) -> PerTurnOutput:
        cfg = self.cfg
        enc_cfg = cfg.encoder_config()
        slots = self.slot_names()
        turns = dialogue.turns
        t_total = len(turns)

        encodings = [
            encode_turn(
                tokenize_turn(t.system, t.user, self.vocab, cfg.max_turn_tokens),
                self.params, "turn", enc_cfg, self.vocab,
            )
            for t in turns
        ]

        slot_queries = ad.constant(np.stack([self.catalog.slot_vecs[s] for s in slots]))
        glob_mask = fusion.build_mask(t_total, fusion.GLOBAL)
        loc_mask = fusion.build_mask(t_total, fusion.LOCAL, cfg.n_history)

        # per-branch word-level slot summaries: [J x T x d]
        branch_word = {}
        for branch, _ in ((GLOB, glob_mask), (LOC, loc_mask)):
            prefix = self._branch_prefix(branch)
            per_turn = [
                fusion.word_attention(self.params, prefix, slot_queries, enc, cfg.heads)
                for enc in encodings
            ]
            stacked = ad.stack(per_turn, axis=0)            # T x J x d
            branch_word[branch] = ad.transpose(stacked, (1, 0, 2))  # J x T x d

        sv_logits = {}
        op_probs = {}
        contexts = {}
        for j, slot in enumerate(slots):
            ctx = {}
            for branch, mask in ((GLOB, glob_mask), (LOC, loc_mask)):
                prefix = self._branch_prefix(branch)
                word_seq = branch_word[branch][j]  # T x d
                hier_out = fusion.masked_hier_transform(
                    self.params, prefix, word_seq, mask, cfg.heads, cfg.hier_layers
                )
                ctx[branch] = fusion.slot_context_all(
                    self.params, prefix, self.catalog.slot_vecs[slot], hier_out,
                    mask, cfg.heads,
                )
            fused, _gate = fusion.fuse(self.params, ctx[GLOB], ctx[LOC])
            sv_logits[slot] = distance_logits(fused, self.catalog.value_mats[slot])

            if with_ops:
                state = OpDecoderState.initial(cfg.d)
                probs = []
                for t in range(t_total):
                    dist, state = op_decoder_step(self.params, ctx[LOC][t], state)
                    probs.append(dist.probs)
                op_probs[slot] = probs
            if keep_contexts:
                contexts[slot] = (ctx[GLOB], ctx[LOC], fused)
        return PerTurnOutput(sv_logits=sv_logits, op_probs=op_probs, contexts=contexts)

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
        for slot in self.slot_names():
            gold_v = self.gold_value_indices(dialogue, slot)
            sv_terms[slot] = nll_from_logits(out.sv_logits[slot], gold_v)
            if not sv_only:
                gold_o = self.gold_op_indices(dialogue, slot)
                picked = ad.stack([
                    out.op_probs[slot][t][int(gold_o[t])]
                    for t in range(len(dialogue.turns))
                ])
                sop_terms[slot] = -ad.tsum(ad.log(picked))
        return joint_loss(sv_terms, sop_terms)

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        with_ops = mode != DIRECT
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=with_ops)
        slots = self.slot_names()
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
