"""Prediction heads: distance-softmax slot-value classification and the
state-operation classifier (a linear readout of each slot's local context per
turn), plus the joint loss and inference-time belief assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NONE_VALUE, apply_state_ops, op_order
from .encoders import init_linear

DIRECT = "direct"
OP_GATED = "op_gated"


# -- distance-softmax value head ------------------------------------------

def distance_logits(queries: Tensor, value_matrix: np.ndarray) -> Tensor:
    """Negative Euclidean distances between each query row and each candidate.

    queries [T x d], value_matrix [V x d] -> logits [T x V]; softmax of
    these is the slot-value distribution.
    """
    return ad.neg_distance(queries, value_matrix)


# -- state-operation head --------------------------------------------------

def init_op_decoder(params, d: int, num_ops: int, rng):
    """The operation readout ``op.out`` [d x K]."""
    init_linear(params, "op.out", d, num_ops, rng)


def op_decoder_step(params, loc_ctx: Tensor) -> Tensor:
    """Op logits of every slot and turn, one linear readout of the local contexts.

    loc_ctx [J x T x d] -> logits [J x T x K]: row t of slot j reads only that
    slot's local context at turn t, which already sees turn t and its n history
    turns. ``benchmark/spans.py`` times this head by looking its name up in
    ``model``, so the name stays ``op_decoder_step``.
    """
    return ad.linear(loc_ctx, params["op.out.w"], params["op.out.b"])


# -- losses ----------------------------------------------------------------

@dataclass
class LossReport:
    l_sv: float
    l_sop: float
    l_joint: float
    per_slot: dict = field(default_factory=dict)  # slot -> {"l_sv", "l_sop"}


def nll_from_logits(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Sum of -log softmax(logits)[gold] over rows; logits [T x V]."""
    return ad.softmax_nll(logits, gold)


def joint_loss(sv_terms: dict, sop_terms: dict) -> tuple:
    """Combine per-slot loss tensors into L_joint = L_sv + L_sop.

    sv_terms maps slot -> scalar Tensor; sop_terms likewise (may be empty
    in value-only ablation mode). Returns (loss Tensor, LossReport).
    """
    if sop_terms and set(sop_terms) != set(sv_terms):
        raise ValueError("slot-value and operation losses cover different slots")
    total = None
    per_slot = {}
    l_sv = 0.0
    l_sop = 0.0
    for slot, term in sv_terms.items():
        total = term if total is None else total + term
        entry = {"l_sv": term.item(), "l_sop": 0.0}
        if slot in sop_terms:
            total = total + sop_terms[slot]
            entry["l_sop"] = sop_terms[slot].item()
        l_sv += entry["l_sv"]
        l_sop += entry["l_sop"]
        per_slot[slot] = entry
    report = LossReport(l_sv=l_sv, l_sop=l_sop, l_joint=l_sv + l_sop, per_slot=per_slot)
    return total, report


# -- inference-time belief assembly ----------------------------------------

def decode_state(sv_argmax: dict, op_argmax: dict, values_of, prev_belief: dict,
                 four_class: bool, mode: str = DIRECT) -> dict:
    """Assemble a belief state from per-slot predictions.

    sv_argmax maps slot -> predicted value index; op_argmax maps slot ->
    predicted operation index (ignored in DIRECT mode, where every slot is an
    UPDATE). `values_of` maps a slot to its ontology value list. The ops are
    replayed on prev_belief by `apply_state_ops`, reading the predicted
    values; DIRECT mode builds the same belief without the replay. Slots
    resolving to "none" are left out of the belief map.
    """
    values = {slot: values_of(slot)[i] for slot, i in sv_argmax.items()}
    if mode == DIRECT:
        return direct_beliefs({slot: [v] for slot, v in values.items()}, prev_belief, 1)[0]
    order = op_order(four_class)
    ops = {slot: order[op_argmax[slot]] for slot in sv_argmax}
    return apply_state_ops(prev_belief, ops, values)


def direct_beliefs(values: dict, prev_belief: dict, turns: int) -> list:
    """The DIRECT-mode belief of each of `turns` turns after prev_belief, from each slot's
    predicted value per turn: what replaying an UPDATE of every slot gives, so kept slots
    stay where the belief before has them and new ones follow in slot order."""
    beliefs = []
    for t in range(turns):
        live = {slot: v[t] for slot, v in values.items() if v[t] != NONE_VALUE}
        prev_belief = {**{k: v for k, v in prev_belief.items() if k in live or k not in values},
                       **live}
        beliefs.append(prev_belief)
    return beliefs
