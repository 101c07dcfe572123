"""Prediction heads: distance-softmax slot-value classification and the
recurrent state-operation decoder, plus the joint loss and inference-time
belief assembly.
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


# -- recurrent state-operation decoder ------------------------------------

def init_op_decoder(params, d: int, num_ops: int, rng):
    """Gated recurrent cell (update/reset gates) plus the operation readout."""
    for gate in ("z", "r", "h"):
        params[f"op.cell.w{gate}"] = ad.parameter(rng.normal(0.0, d ** -0.5, (d, d)))
        params[f"op.cell.u{gate}"] = ad.parameter(rng.normal(0.0, d ** -0.5, (d, d)))
        params[f"op.cell.b{gate}"] = ad.parameter(np.zeros(d))
    init_linear(params, "op.out", d, num_ops, rng)


def op_decoder_step(params, x: Tensor, hidden: Tensor):
    """One recurrence step on a local-context row.

    x is [1 x d] and hidden [d] (zero at the start of every (slot,
    dialogue) stream); returns the op logits [1 x K] and the new hidden
    state [d].
    """
    h = ad.reshape(hidden, (1, -1))
    z = ad.gru_gate(x, params["op.cell.wz"], h, params["op.cell.uz"], params["op.cell.bz"])
    r = ad.gru_gate(x, params["op.cell.wr"], h, params["op.cell.ur"], params["op.cell.br"])
    cand = ad.tanh(ad.gru_candidate(x, params["op.cell.wh"], r, h, params["op.cell.uh"],
                                    params["op.cell.bh"]))
    new_h = ad.gru_mix(z, h, cand)
    return ad.linear(new_h, params["op.out.w"], params["op.out.b"]), new_h[0]


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
