"""``predict`` decodes both modes in one pass: OP_GATED replays each slot's predicted
ops over its predicted values (``heads.replay_ops``), then both modes assemble every
turn's belief at once (``heads.assemble_beliefs``), where it made one
``decode_state`` call per turn: the beliefs and their key order must not change."""

import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst.data import NONE_VALUE, Dialogue, StateOp, Turn, build_vocab, demo_ontology
from maskdst.heads import DIRECT, OP_GATED, assemble_beliefs, replay_ops
from maskdst.model import DialogueOutput, ModelConfig, StateTracker
from reference_chains import decode_state, softmax


def per_turn(ontology, sv_idx, op_idx, four_class, mode):
    """One ``decode_state`` call per turn, each on the belief of the turn before."""
    beliefs, prev = [], {}
    for t in range(len(next(iter(sv_idx.values())))):
        prev = decode_state({s: idx[t] for s, idx in sv_idx.items()},
                            {s: idx[t] for s, idx in op_idx.items()},
                            ontology.values_of, prev, four_class, mode)
        beliefs.append(prev)
    return beliefs


def items(beliefs):
    return [list(b.items()) for b in beliefs]


def one_hot(idx, classes):
    return ad.constant(np.eye(classes)[idx])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("turns", [1, 2, 5, 17, 32])
@pytest.mark.parametrize("four_class", [False, True], ids=["3-class", "4-class"])
@pytest.mark.parametrize("mode", [DIRECT, OP_GATED])
def test_predict_equals_per_turn_decode_state(mode, four_class, turns, seed, monkeypatch):
    """``StateTracker.predict`` on scripted head logits: random argmax sequences, with
    "none" drawn often so that slots leave and come back and the key order moves."""
    onto = demo_ontology()
    rng = np.random.default_rng(seed)
    num_ops = 4 if four_class else 3
    sv_idx, op_idx = {}, {}
    for slot in onto.slot_names:
        values = onto.values_of(slot)
        draws = rng.integers(0, len(values), size=turns)
        sv_idx[slot] = np.where(rng.random(turns) < 0.4, values.index(NONE_VALUE), draws).tolist()
        op_idx[slot] = rng.integers(0, num_ops, size=turns).tolist()
    tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16, four_class=four_class),
                           build_vocab([], onto), onto)
    scripted = DialogueOutput(
        {s: one_hot(idx, len(onto.values_of(s))) for s, idx in sv_idx.items()},
        one_hot(list(op_idx.values()), num_ops) if mode == OP_GATED else None,
        ())
    monkeypatch.setattr(tracker, "forward", lambda dialogue, with_ops=True: scripted)
    got = tracker.predict(Dialogue("scripted", [Turn("", "", {})] * turns), mode)
    assert items(got) == items(per_turn(onto, sv_idx, op_idx, four_class, mode))


@pytest.mark.parametrize("logits, picked, softmax_picks", [
    ([0.0, 1e-17, -5.0], 1, 0),  # softmax rounds the first two to one probability
    ([-1.0, 0.5, 0.5], 1, 1),
    ([0.5, 0.5, 0.5], 0, 0),
], ids=["near-tie", "tie-of-last-two", "tie-of-all"])
def test_op_gated_predict_takes_the_argmax_of_the_raw_op_logits(logits, picked, softmax_picks,
                                                                 monkeypatch):
    """Every slot and turn gets the op of the largest raw logit, and at an exact tie the
    first of them in ``op_order``; the op head's logits pass through no softmax, whose
    argmax differs at a near-tie."""
    onto = demo_ontology()
    turns = 3
    sv_idx = {s: [2] * turns for s in onto.slot_names}  # a value other than none/dontcare
    tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16), build_vocab([], onto), onto)
    scripted = DialogueOutput(
        {s: one_hot(idx, len(onto.values_of(s))) for s, idx in sv_idx.items()},
        ad.constant([[logits] * turns] * len(onto.slot_names)), ())
    monkeypatch.setattr(tracker, "forward", lambda dialogue, with_ops=True: scripted)
    got = tracker.predict(Dialogue("scripted", [Turn("", "", {})] * turns), OP_GATED)
    each_op = [items(per_turn(onto, sv_idx, {s: [k] * turns for s in onto.slot_names},
                              False, OP_GATED)) for k in range(3)]
    assert items(got) == each_op[picked]
    assert len({str(b) for b in each_op}) == 3  # each op gives other beliefs
    assert softmax(ad.constant(logits)).data.argmax() == softmax_picks


def test_a_slot_that_comes_back_follows_the_slots_that_stayed():
    got = assemble_beliefs({"food": ["thai", NONE_VALUE, "greek"], "area": ["north"] * 3})
    assert items(got) == [[("food", "thai"), ("area", "north")],
                          [("area", "north")],
                          [("area", "north"), ("food", "greek")]]


def test_replay_keeps_a_carried_slot_in_its_place():
    ops = {"food": [StateOp.UPDATE, StateOp.CARRYOVER, StateOp.DONTCARE],
           "area": [StateOp.CARRYOVER, StateOp.UPDATE, StateOp.DELETE]}
    values = {"food": ["thai", NONE_VALUE, "greek"], "area": ["south", "north", "north"]}
    replayed = replay_ops(values, ops)
    assert replayed == {"food": ["thai", "thai", "dontcare"],
                        "area": [NONE_VALUE, "north", NONE_VALUE]}
    assert items(assemble_beliefs(replayed)) == [
        [("food", "thai")], [("food", "thai"), ("area", "north")], [("food", "dontcare")]]


def test_no_turns_give_no_beliefs():
    assert replay_ops({"food": [], "area": []}, {"food": [], "area": []}) == {"food": [],
                                                                            "area": []}
    assert assemble_beliefs({"food": [], "area": []}) == []
