"""Prediction heads: distance-softmax slot-value classification and the
recurrent state-operation decoder, plus the joint loss and inference-time
belief assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DONTCARE_VALUE, NONE_VALUE, StateOp, op_order
from .encoders import init_linear

DIRECT = "direct"
OP_GATED = "op_gated"


# -- distance-softmax value head ------------------------------------------

def distance_logits(queries: Tensor, value_matrix: np.ndarray) -> Tensor:
    """Negative Euclidean distances between each query row and each candidate.

    queries [T x d], value_matrix [V x d] -> logits [T x V]; softmax of
    these is the slot-value distribution.
    """
    t, d = queries.shape
    q = ad.reshape(queries, (t, 1, d))
    return -ad.euclidean_distance(q, ad.constant(value_matrix[None, :, :]))


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
    z = ad.sigmoid(x @ params["op.cell.wz"] + h @ params["op.cell.uz"] + params["op.cell.bz"])
    r = ad.sigmoid(x @ params["op.cell.wr"] + h @ params["op.cell.ur"] + params["op.cell.br"])
    cand = ad.tanh(x @ params["op.cell.wh"] + (r * h) @ params["op.cell.uh"] + params["op.cell.bh"])
    new_h = (1.0 - z) * h + z * cand
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
    probs = ad.softmax(logits)
    rows = np.arange(logits.shape[0])
    picked = probs[(rows, np.asarray(gold, dtype=np.int64))]
    return -ad.tsum(ad.log(picked))


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
    predicted operation index (ignored in DIRECT mode). `values_of` maps a
    slot to its ontology value list. Slots resolving to "none" are left out
    of the belief map.
    """
    order = op_order(four_class)
    belief = {}
    for slot, value_idx in sv_argmax.items():
        value = values_of(slot)[value_idx]
        if mode == DIRECT:
            chosen = value
        else:
            op = order[op_argmax[slot]]
            if op is StateOp.CARRYOVER:
                chosen = prev_belief.get(slot, NONE_VALUE)
            elif op is StateOp.DONTCARE:
                chosen = DONTCARE_VALUE
            elif op is StateOp.DELETE:
                chosen = NONE_VALUE
            else:  # UPDATE
                chosen = value
        if chosen != NONE_VALUE:
            belief[slot] = chosen
    return belief
