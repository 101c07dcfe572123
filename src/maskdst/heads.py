"""Prediction heads: distance-softmax slot-value classification and the
state-operation classifier (a linear readout of each slot's local context per
turn, all slots' logits one [J x T x K] tensor that one NLL node scores and one
argmax decodes), plus the joint loss and belief decoding: OP_GATED replays each
slot's predicted ops over its predicted values, then both modes assemble the
beliefs of all turns from each slot's value per turn in one pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NONE_VALUE, slot_after
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


def nll_from_logits(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Sum of -log softmax(logits)[gold] over rows; logits [(J x) T x V], gold [(J x) T]."""
    return ad.softmax_nll(logits, gold)


def joint_loss(sv_terms: list, sop: Tensor | None) -> tuple:
    """L_joint = L_sv + L_sop: the slots' value loss Tensors added in slot order, then the
    op loss Tensor of all slots (None in value-only ablation mode). Returns (loss
    Tensor, LossReport)."""
    total = functools.reduce(ad.add, sv_terms)
    l_sv, l_sop = total.item(), 0.0 if sop is None else sop.item()
    return (total if sop is None else total + sop), LossReport(l_sv, l_sop, l_sv + l_sop)


# -- inference-time belief decoding ----------------------------------------

def replay_ops(values: dict, ops: dict) -> dict:
    """Each slot's value after every turn when its predicted ops are replayed from an
    empty belief: slot -> the predicted value per turn, and slot -> the predicted
    StateOp per turn, give slot -> the value the op leaves (``data.slot_after``)."""
    replayed = {}
    for slot, predicted in values.items():
        held, row = NONE_VALUE, []
        for op, value in zip(ops[slot], predicted):
            held = slot_after(op, held, value)
            row.append(held)
        replayed[slot] = row
    return replayed


def assemble_beliefs(values: dict) -> list:
    """The belief of each turn from each slot's value per turn: a slot that stays set
    keeps its place, one newly set follows in slot order, one resolving to "none" is
    left out, as replaying the turns one by one with the oracle ``apply_state_ops`` in
    ``tests/reference_chains.py`` does."""
    beliefs, prev = [], {}
    for row in zip(*values.values()):
        live = {slot: v for slot, v in zip(values, row) if v != NONE_VALUE}
        prev = {**{k: v for k, v in prev.items() if k in live}, **live}
        beliefs.append(prev)
    return beliefs
