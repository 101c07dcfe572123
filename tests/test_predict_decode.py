"""``predict`` decodes DIRECT mode in one pass (``heads.direct_beliefs``), where it
made one ``decode_state`` call per turn: the beliefs and their key order must not
change."""

import numpy as np
import pytest

from maskdst.data import NONE_VALUE, demo_ontology
from maskdst.heads import DIRECT, decode_state, direct_beliefs


def per_turn(ontology, sv_idx, op_idx, four_class):
    """One ``decode_state`` call per turn, each on the belief of the turn before."""
    beliefs, prev = [], {}
    for t in range(len(next(iter(sv_idx.values())))):
        prev = decode_state({s: idx[t] for s, idx in sv_idx.items()},
                            {s: idx[t] for s, idx in op_idx.items()},
                            ontology.values_of, prev, four_class, DIRECT)
        beliefs.append(prev)
    return beliefs


def inline_decode(ontology, sv_idx):
    """The DIRECT-mode body ``decode_state`` had before it called ``direct_beliefs``."""
    beliefs, prev = [], {}
    for t in range(len(next(iter(sv_idx.values())))):
        values = {s: ontology.values_of(s)[idx[t]] for s, idx in sv_idx.items()}
        live = {s: v for s, v in values.items() if v != NONE_VALUE}
        out = {k: live.get(k, v) for k, v in prev.items() if k in live or k not in values}
        out.update(live)
        beliefs.append(out)
        prev = out
    return beliefs


def items(beliefs):
    return [list(b.items()) for b in beliefs]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("turns", [1, 2, 5, 17, 32])
@pytest.mark.parametrize("four_class", [False, True], ids=["3-class", "4-class"])
def test_one_pass_equals_per_turn_decode_state(four_class, turns, seed):
    """Random argmax sequences, with "none" drawn often so that slots leave and come
    back and the key order moves."""
    onto = demo_ontology()
    rng = np.random.default_rng(seed)
    sv_idx = {}
    for slot in onto.slot_names:
        values = onto.values_of(slot)
        none = values.index(NONE_VALUE)
        draws = rng.integers(0, len(values), size=turns)
        sv_idx[slot] = np.where(rng.random(turns) < 0.4, none, draws).tolist()
    op_idx = {s: rng.integers(0, 4 if four_class else 3, size=turns).tolist()
              for s in onto.slot_names}
    values = {s: [onto.values_of(s)[i] for i in idx] for s, idx in sv_idx.items()}
    got = direct_beliefs(values, {}, turns)
    assert items(got) == items(per_turn(onto, sv_idx, op_idx, four_class))
    assert items(got) == items(inline_decode(onto, sv_idx))


def test_one_pass_keeps_slots_outside_the_prediction():
    """A slot of the previous belief that no prediction covers stays where it is."""
    prev = {"other": "x", "food": "thai"}
    got = direct_beliefs({"food": ["none", "greek"], "area": ["north", "north"]}, prev, 2)
    assert items(got) == [[("other", "x"), ("area", "north")],
                          [("other", "x"), ("area", "north"), ("food", "greek")]]
    assert prev == {"other": "x", "food": "thai"}


def test_no_turns_give_no_beliefs_and_no_slots_keep_the_belief():
    assert direct_beliefs({"food": [], "area": []}, {}, 0) == []
    assert direct_beliefs({}, {"food": "thai"}, 2) == [{"food": "thai"}] * 2
