"""An untaped forward reuses per-turn summaries only while the weights are unchanged.

``StateTracker.forward`` without a tape keeps the word-level slot summaries
of the turns of the dialogue it last ran, valid while every parameter and
slot query is the same bit for bit. Every result must be byte-equal to a
cold tracker on the same weights, and a taped forward neither reads nor
writes the held summaries.
"""

import sys
import threading

import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst import model
from maskdst.data import Dialogue, GenShape, build_vocab, demo_ontology, generate_corpus
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import Adam
from reference_chains import tie_branches
from test_fused_ops import MODEL_CASES


@pytest.fixture
def encode_calls(monkeypatch):
    """A one-element list counting the calls of ``encode_turn`` made by the tracker."""
    count = [0]
    encode = model.encode_turn

    def counting(*args, **kwargs):
        count[0] += 1
        return encode(*args, **kwargs)

    monkeypatch.setattr(model, "encode_turn", counting)
    return count


def make_tracker(tie=False, **settings):
    """A d=8 tracker, its branches tied when `tie`, and the 2 dialogues of 5-7
    turns its vocabulary is built from."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 2, seed=11, shape=GenShape(min_turns=5, max_turns=7))
    cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, seed=5, **settings)
    tracker = StateTracker(cfg, build_vocab(corpus, onto), onto)
    return tie_branches(tracker) if tie else tracker, corpus


def cold(tracker):
    return StateTracker(tracker.cfg, tracker.vocab, tracker.ontology,
                        tracker.params, tracker.frozen_params)


def untaped(tracker, dialogue, with_ops=True):
    with ad.no_grad():
        return tracker.forward(dialogue, with_ops=with_ops)


def assert_outputs_equal(out, ref):
    assert out.sv_logits.keys() == ref.sv_logits.keys()
    for slot, logits in out.sv_logits.items():
        assert logits.data.tobytes() == ref.sv_logits[slot].data.tobytes(), slot
    assert (out.op_logits is None) == (ref.op_logits is None)
    assert out.op_logits is None or out.op_logits.data.tobytes() == ref.op_logits.data.tobytes()


def distinct_turns(dialogue):
    return len({(t.system, t.user) for t in dialogue.turns})


@pytest.mark.parametrize("with_ops", [False, True], ids=["direct", "op_gated"])
@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_prefix_sequence_equals_cold_tracker(case, with_ops, encode_calls):
    tracker, corpus = make_tracker(**case)
    for d in corpus:
        encoded = 0
        for t in range(1, len(d.turns) + 1):
            prefix = Dialogue(d.id, d.turns[:t])
            before = encode_calls[0]
            out = untaped(tracker, prefix, with_ops)
            encoded += encode_calls[0] - before
            assert_outputs_equal(out, untaped(cold(tracker), prefix, with_ops))
        assert encoded == distinct_turns(d)  # each turn encoded once over all its prefixes


def flip_zero_sign(params):
    p = params["turn.l0.ln1.b"].data
    assert p[0] == 0.0 and not np.signbit(p[0])
    p[0] = -0.0


def adam_step(tracker, dialogue):
    tracker.zero_grads()
    loss, _ = tracker.loss(dialogue)
    ad.backward(loss)
    Adam(tracker.params, lr=1e-3).step()


@pytest.mark.parametrize("change", [
    lambda tracker, d: tracker.params["turn.embed"].data.__setitem__((3, 1), 0.25),
    lambda tracker, d: tracker.params["glob.wordatt.wv"].data.__setitem__((0, 2), -0.5),
    lambda tracker, d: tracker.params["op.out.b"].data.__setitem__(1, 2.0),
    adam_step,
    lambda tracker, d: flip_zero_sign(tracker.params),
], ids=["turn-embed", "wordatt-weight", "unread-by-stage", "adam-step", "zero-sign"])
def test_weight_change_drops_held_summaries(change, encode_calls):
    tracker, corpus = make_tracker()
    d = corpus[0]
    untaped(tracker, d)
    change(tracker, d)
    before = encode_calls[0]
    out = untaped(tracker, d)
    assert encode_calls[0] - before == distinct_turns(d)
    assert_outputs_equal(out, untaped(cold(tracker), d))


def test_taped_loss_after_predict_neither_reads_nor_writes(encode_calls):
    tracker, (a, b) = make_tracker()
    reference = cold(tracker)
    tracker.predict(a, "op_gated")
    results = []
    for t in (tracker, reference):
        t.zero_grads()
        before = encode_calls[0]
        loss, _ = t.loss(a)
        assert encode_calls[0] - before == len(a.turns)
        ad.backward(loss)
        results.append((loss.data.tobytes(),
                        {k: None if p.grad is None else p.grad.tobytes()
                         for k, p in t.params.items()}))
    assert results[0] == results[1]

    tracker.loss(b)  # taped: the held summaries are still a's
    before = encode_calls[0]
    untaped(tracker, a)
    assert encode_calls[0] == before


def test_holds_only_the_last_dialogue():
    tracker, (a, b) = make_tracker()
    tracker.predict(a)
    tracker.predict(b)
    _snapshot, held = tracker._reuse
    assert set(held) == {(t.system, t.user) for t in b.turns}
    assert not {(t.system, t.user) for t in a.turns} <= set(held)


def test_concurrent_predicts_equal_cold_tracker():
    """Threads predicting on one tracker each replace what is held, never mutate it."""
    tracker, corpus = make_tracker()
    prefixes = [Dialogue(d.id, d.turns[:t]) for d in corpus for t in range(1, len(d.turns) + 1)]
    want = [cold(tracker).predict(p, "op_gated") for p in prefixes]
    errors = []

    def work(order):
        try:
            for _ in range(3):
                for i in order:
                    assert tracker.predict(prefixes[i], "op_gated") == want[i], i
        except Exception as e:  # re-raised below, in the test's thread
            errors.append(e)

    indices = list(range(len(prefixes)))
    orders = [indices, indices[::-1], indices[1::2] + indices[::2], indices[::2] + indices[1::2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
