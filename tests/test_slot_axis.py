"""The leading slot axis of the fused nodes and the fusion stages.

``ad.linear``, ``ad.layer_norm``, ``ad.attention`` and ``ad.gate_mix`` take
inputs [J x ... x d] over shared 2-D weights, and ``fusion.masked_hier_transform``,
``fusion.slot_context_all`` and ``fusion.fuse`` run once per branch on
[J x T x d]. Each must equal, byte for byte in its value and in every
gradient, the loop that calls it once per slot on [T x d] rows; and the whole
tracker must equal ``reference_chains.PerSlotTracker``, which runs those
stages once per slot.
"""

import numpy as np
import pytest

import reference_chains as ref
from maskdst import autodiff as ad
from maskdst import fusion
from maskdst.data import (Dialogue, GenShape, Ontology, Turn, build_vocab, demo_ontology,
                          generate_corpus)
from maskdst.encoders import init_block, init_mha
from maskdst.model import GLOB, LOC, ModelConfig, StateTracker
from maskdst.training import tiny_setup
from test_autodiff import check_op_gradient
from test_fused_ops import MODEL_CASES, count_nodes, loss_and_grads, value_and_grads

D, T, HEADS = 8, 4, 2
MASKS = {
    "none": lambda t: None,
    "global": lambda t: fusion.build_mask(t, fusion.GLOBAL),
    "local1": lambda t: fusion.build_mask(t, fusion.LOCAL, 1),
    "local2": lambda t: fusion.build_mask(t, fusion.LOCAL, 2),
}


def assert_same_bytes(build, oracle, arrays, rng, trainable=None):
    """build and oracle give the same value and the same gradient on every leaf, bytes
    for bytes."""
    trainable = [True] * len(arrays) if trainable is None else trainable
    readout = rng.normal(size=build(*[ad.constant(a) for a in arrays]).shape)
    value, grads = value_and_grads(build, arrays, readout, trainable)
    want, want_grads = value_and_grads(oracle, arrays, readout, trainable)
    assert value.tobytes() == want.tobytes()
    for g, w, t in zip(grads, want_grads, trainable):
        assert (g is None) == (w is None) == (not t)
        assert g is None or g.tobytes() == w.tobytes()


def per_slot(op, slotted):
    """op called once per slot on the rows [j] of its first `slotted` arguments,
    stacked: the chain a slot-axis call replaces."""
    def run(*args):
        slots = args[0].shape[0]
        return ad.stack([op(*[a[j] for a in args[:slotted]], *args[slotted:])
                         for j in range(slots)])
    return run


def first(op):
    return lambda *args: op(*args)[0]


def attention_self(mask):
    return lambda x, wq, wk, wv, wo: ad.attention(x, x, wq, wk, wv, wo, HEADS, mask)


def attention_cross(mask):
    return lambda q, k, wq, wk, wv, wo: ad.attention(q, k, wq, wk, wv, wo, HEADS, mask)


def node_cases(rng, slots, mask):
    """name -> (slot-axis build, per-slot chain, input arrays)."""
    x = rng.normal(size=(slots, T, D))
    mats = [rng.normal(0.0, D ** -0.5, (D, D)) for _ in range(4)]
    return {
        "linear": (ad.linear, per_slot(ad.linear, 1),
                   [x, rng.normal(size=(D, 5)), rng.normal(size=5)]),
        "layer_norm": (ad.layer_norm, per_slot(ad.layer_norm, 1),
                       [x, rng.normal(size=D), rng.normal(size=D)]),
        "self_attention": (attention_self(mask), per_slot(attention_self(mask), 1), [x] + mats),
        "cross_attention": (attention_cross(mask), per_slot(attention_cross(mask), 2),
                            [rng.normal(size=(slots, T, D)), x] + mats),
        "gate_mix": (first(ad.gate_mix), per_slot(first(ad.gate_mix), 2),
                     [x, rng.normal(size=(slots, T, D)), rng.normal(size=(2 * D, D)),
                      rng.normal(size=D)]),
    }


NODES = ["linear", "layer_norm", "self_attention", "cross_attention", "gate_mix"]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("mask_kind", ["none", "global", "local1"])
@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("node", NODES)
def test_slot_axis_node_equals_per_slot_chain(node, slots, mask_kind, seed):
    rng = np.random.default_rng(seed)
    build, oracle, arrays = node_cases(rng, slots, MASKS[mask_kind](T))[node]
    assert_same_bytes(build, oracle, arrays, rng)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("node", NODES)
def test_slot_axis_node_with_constant_inputs_equals_per_slot_chain(node, seed):
    """A random nonempty subset of the inputs is trainable, as the frozen slot
    queries and untrained weights make them."""
    rng = np.random.default_rng(seed)
    build, oracle, arrays = node_cases(rng, 3, MASKS["global"](T))[node]
    keep = rng.random(len(arrays)) < 0.5
    keep[rng.integers(len(arrays))] = True
    assert_same_bytes(build, oracle, arrays, rng, list(keep))


@pytest.mark.parametrize("node", NODES)
def test_rows_without_the_slot_axis_equal_one_slot(node):
    """The 2-D call (no slot axis) equals slot 0 of a one-slot call, gradients too."""
    rng = np.random.default_rng(7)
    build, _oracle, arrays = node_cases(rng, 1, MASKS["local1"](T))[node]
    slotted = 2 if node in ("cross_attention", "gate_mix") else 1

    def rows(*args):
        return build(*[a[0] for a in args[:slotted]], *args[slotted:])

    def one_slot(*args):
        return build(*args)[0]

    assert_same_bytes(rows, one_slot, arrays, rng)


def test_attention_needs_matching_slot_axes():
    w = [ad.constant(np.eye(D))] * 4
    x3 = ad.constant(np.zeros((2, T, D)))
    with pytest.raises(ad.RankError):
        ad.attention(ad.constant(np.zeros((T, D))), x3, *w, HEADS)
    with pytest.raises(ad.RankError):
        ad.attention(x3, ad.constant(np.zeros((3, T, D))), *w, HEADS)
    with pytest.raises(ad.RankError):
        ad.attention(ad.constant(np.zeros((1, 2, T, D))), ad.constant(np.zeros((1, 2, T, D))),
                     *w, HEADS)


# -- the fusion stages -----------------------------------------------------------

def branch_params(rng, hier_layers):
    params = {}
    for branch in (GLOB, LOC):
        for layer in range(hier_layers):
            init_block(params, f"{branch}.hier.l{layer}", D, 16, rng)
        init_mha(params, f"{branch}.slotatt", D, rng)
    params["gate.w"] = ad.parameter(rng.normal(0.0, (2 * D) ** -0.5, (2 * D, D)))
    params["gate.b"] = ad.parameter(rng.normal(size=D))
    return params


def stages(params, names, mask, slot_vecs, hier_layers, loop):
    """Each branch's hier transform and slot attention on its own input, then the
    gate, on every slot at once or (`loop`) once per slot."""
    def run(word_a, word_b, *weights):
        p = dict(zip(names, weights))

        def contexts(w_a, w_b, vecs):
            ctx = [fusion.slot_context_all(
                p, branch, vecs,
                fusion.masked_hier_transform(p, branch, w, mask, HEADS, hier_layers),
                mask, HEADS) for branch, w in ((GLOB, w_a), (LOC, w_b))]
            return fusion.fuse(p, *ctx)[0]

        if loop:
            return ad.stack([contexts(word_a[j], word_b[j], slot_vecs[j])
                             for j in range(slot_vecs.shape[0])])
        return contexts(word_a, word_b, slot_vecs)
    return run


@pytest.mark.parametrize("hier_layers", [1, 2])
@pytest.mark.parametrize("mask_kind", ["global", "local1", "local2"])
@pytest.mark.parametrize("slots", [1, 2, 3])
def test_fusion_stages_equal_per_slot_loop(slots, mask_kind, hier_layers):
    rng = np.random.default_rng(slots + 10 * hier_layers)
    params = branch_params(rng, hier_layers)
    names = sorted(params)
    slot_vecs = rng.normal(size=(slots, D))
    mask = MASKS[mask_kind](T)
    arrays = [rng.normal(size=(slots, T, D)), rng.normal(size=(slots, T, D))] + [
        params[n].data for n in names]
    assert_same_bytes(stages(params, names, mask, slot_vecs, hier_layers, loop=False),
                      stages(params, names, mask, slot_vecs, hier_layers, loop=True),
                      arrays, rng)


# -- finite differences ------------------------------------------------------------

SLOT_OPS = {
    "linear": (lambda rng: (rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3)),
                            rng.normal(size=3)), ad.linear),
    "layer_norm": (lambda rng: (rng.normal(size=(2, 3, 4)), rng.normal(size=4),
                                rng.normal(size=4)), ad.layer_norm),
    "attention": (lambda rng: (rng.normal(size=(2, 3, 4)),) + tuple(
        rng.normal(size=(4, 4)) for _ in range(4)),
        lambda x, wq, wk, wv, wo: ad.attention(x, x, wq, wk, wv, wo, 2,
                                               fusion.build_mask(3, fusion.LOCAL, 1))),
    "gate_mix": (lambda rng: (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
                              rng.normal(size=(8, 4)), rng.normal(size=4)),
                 lambda a, b, w, bias: ad.gate_mix(a, b, w, bias)[0]),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("opname", sorted(SLOT_OPS))
def test_slot_axis_gradients_match_finite_differences(opname, seed):
    make, op = SLOT_OPS[opname]
    check_op_gradient(make, op, seed)


@pytest.mark.parametrize("seed", range(2))
def test_fusion_stages_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = branch_params(rng, 1)
    names = sorted(params)
    slot_vecs = rng.normal(size=(2, D))
    run = stages(params, names, MASKS["global"](3), slot_vecs, 1, loop=False)
    check_op_gradient(lambda r: (r.normal(size=(2, 3, D)), r.normal(size=(2, 3, D)))
                      + tuple(params[n].data.copy() for n in names), run, seed)


# -- a backward that sums the slots' terms in another order ------------------------

def with_reversed_slot_terms(op):
    """``op`` whose taped result's backward rule returns every slot-stacked term (one
    axis more than its parent) from the last slot to the first."""
    def broken(*args):
        result = op(*args)
        node = result[0] if isinstance(result, tuple) else result
        rule, parents = node._backward, node._parents
        if rule is not None:
            node._backward = lambda g: tuple(
                t[::-1] if t is not None and t.ndim > p.data.ndim else t
                for p, t in zip(parents, rule(g)))
        return result
    return broken


def reverse_slot_terms(monkeypatch):
    """Make the four slot-axis nodes add each weight's slot terms from the last slot."""
    for name in ("linear", "layer_norm", "attention", "gate_mix"):
        monkeypatch.setattr(ad, name, with_reversed_slot_terms(getattr(ad, name)))


@pytest.mark.parametrize("node", ["linear", "self_attention"])
def test_weight_terms_in_reversed_slot_order_are_caught(node, monkeypatch):
    rng = np.random.default_rng(5)
    _, oracle, arrays = node_cases(rng, 3, MASKS["global"](T))[node]
    readout = rng.normal(size=oracle(*[ad.constant(a) for a in arrays]).shape)
    trainable = [True] * len(arrays)
    _, want = value_and_grads(oracle, arrays, readout, trainable)
    reverse_slot_terms(monkeypatch)
    build = node_cases(np.random.default_rng(5), 3, MASKS["global"](T))[node][0]
    _, got = value_and_grads(build, arrays, readout, trainable)
    weights = list(zip(got, want))[1:]
    assert all(np.allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max()) for g, w in weights)
    assert not all(g.tobytes() == w.tobytes() for g, w in weights)


@pytest.mark.parametrize("node", NODES)
def test_slot_axis_node_lists_each_weight_once_with_a_stacked_term(node):
    """On a [3 x T x d] input a node lists each weight once, after its other inputs, and
    returns one term of shape (3, *weight shape) for it, one row per slot."""
    rng = np.random.default_rng(3)
    build, _oracle, arrays = node_cases(rng, 3, MASKS["global"](T))[node]
    leaves = [ad.parameter(a) for a in arrays]
    out = build(*leaves)
    weights = [leaf for leaf in leaves if leaf.data.ndim < 3]
    inputs = out._parents[:len(out._parents) - len(weights)]
    assert [id(p) for p in out._parents[len(inputs):]] == [id(w) for w in weights]
    assert not any(p is w for p in inputs for w in weights)
    terms = out._backward(rng.normal(size=out.shape))[len(inputs):]
    assert [t.shape for t in terms] == [(3, *w.shape) for w in weights]


def test_tracker_with_reversed_slot_terms_differs_from_per_slot_oracle(monkeypatch):
    """The default config's summed batch loss, as ``train`` back-propagates it."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=2)
    vocab = build_vocab(corpus, onto)
    tracker = StateTracker(ModelConfig(), vocab, onto)
    oracle = ref.PerSlotTracker(ModelConfig(), vocab, onto)
    want = batch_grads(oracle, corpus)
    assert batch_grads(tracker, corpus) == want
    reverse_slot_terms(monkeypatch)
    got = batch_grads(tracker, corpus)
    differ = [n for n in want if got[n] != want[n]]
    assert differ and all(n.startswith(("glob.", "loc.", "gate.", "op.")) for n in differ)
    assert {"op.out.w", "op.out.b"} <= set(differ)
    for n in differ:
        g, w = np.frombuffer(got[n]), np.frombuffer(want[n])
        assert np.allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max()), n


# -- the whole tracker against the per-slot oracle --------------------------------

def batch_grads(tracker, dialogues):
    """Gradient bytes of one summed batch loss, as ``train`` back-propagates it."""
    tracker.zero_grads()
    total = None
    for d in dialogues:
        loss, _ = tracker.loss(d)
        total = loss if total is None else total + loss
    ad.backward(total * (1.0 / len(dialogues)))
    return {k: p.grad.tobytes() for k, p in tracker.params.items()}


def tracker_pair(case, vocab, onto):
    settings = {k: v for k, v in case.items() if k != "tie"}
    cfg = ModelConfig(d=D, heads=2, encoder_layers=1, ff=16, seed=5, **settings)
    pair = StateTracker(cfg, vocab, onto), ref.PerSlotTracker(cfg, vocab, onto)
    return tuple(ref.tie_branches(t) for t in pair) if case["tie"] else pair


@pytest.mark.parametrize("sv_only", [False, True], ids=["joint", "sv_only"])
@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_tracker_equals_per_slot_oracle(case, sv_only):
    """Bit-identical, except the gradients of tensors that tied branches share: a
    tied tensor takes its 2J terms branch by branch, where the per-slot loop
    interleaved the branches, so those agree to rounding."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
    vocab = build_vocab(corpus, onto)
    tracker, oracle = tracker_pair(case, vocab, onto)
    shared = {n for n in tracker.params if case["tie"] and n.startswith((f"{GLOB}.", f"{LOC}."))}
    for d in corpus:
        loss, report, grads = loss_and_grads(tracker, d, sv_only)
        want_loss, want_report, want_grads = loss_and_grads(oracle, d, sv_only)
        assert loss.tobytes() == want_loss.tobytes() and report == want_report
        for name, g in grads.items():
            w = want_grads[name]
            assert (g is None) == (w is None), name
            if g is None:
                continue
            if name in shared:
                assert np.allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max()), name
            else:
                assert g.tobytes() == w.tobytes(), name
        for mode in ("direct", "op_gated"):
            got, want = tracker.predict(d, mode), oracle.predict(d, mode)
            assert [list(b.items()) for b in got] == [list(b.items()) for b in want]


@pytest.mark.parametrize("seed", range(3))
def test_tiny_setup_equals_per_slot_oracle(seed):
    tracker, dialogue = tiny_setup(seed)
    oracle = ref.PerSlotTracker(tracker.cfg, tracker.vocab, tracker.ontology, tracker.params)
    for sv_only in (False, True):
        loss, report, grads = loss_and_grads(tracker, dialogue, sv_only)
        grads = {k: g.tobytes() for k, g in grads.items() if g is not None}
        want_loss, want_report, want_grads = loss_and_grads(oracle, dialogue, sv_only)
        assert (loss.tobytes(), report) == (want_loss.tobytes(), want_report)
        assert grads == {k: g.tobytes() for k, g in want_grads.items() if g is not None}


def test_default_config_batch_equals_per_slot_oracle():
    onto = demo_ontology()
    corpus = generate_corpus(onto, 8, seed=4)
    vocab = build_vocab(corpus, onto)
    tracker = StateTracker(ModelConfig(), vocab, onto)
    oracle = ref.PerSlotTracker(ModelConfig(), vocab, onto)
    assert batch_grads(tracker, corpus) == batch_grads(oracle, corpus)
    with ad.no_grad():
        for d in corpus:
            got, want = tracker.forward(d), oracle.forward(d)
            for j, slot in enumerate(onto.slot_names):
                assert got.sv_logits[slot].data.tobytes() == want.sv_logits[slot].data.tobytes()
                assert got.op_logits.data[j].tobytes() == want.op_logits[slot].data.tobytes()
                for c, w in zip(ref.contexts_of(got)[slot], want.contexts[slot]):
                    assert c.data.tobytes() == w.data.tobytes()


# -- node counts ------------------------------------------------------------------

def test_default_six_turn_loss_builds_at_most_315_nodes(monkeypatch):
    """349 nodes while the fusion stages ran once per slot."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 1, seed=3, shape=GenShape(min_turns=6, max_turns=6))
    tracker = StateTracker(ModelConfig(), build_vocab(corpus, onto), onto)
    assert len(onto.slot_names) == 3
    assert count_nodes(monkeypatch, lambda: tracker.loss(corpus[0])) <= 315


def test_default_six_turn_loss_builds_at_most_121_nodes(monkeypatch):
    """128 nodes while the op head's logits were split into one [T x K] view and one NLL
    node per slot."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 1, seed=3, shape=GenShape(min_turns=6, max_turns=6))
    tracker = StateTracker(ModelConfig(), build_vocab(corpus, onto), onto)
    assert len(onto.slot_names) == 3
    assert count_nodes(monkeypatch, lambda: tracker.loss(corpus[0])) <= 121


@pytest.mark.parametrize("slots", [2, 3, 5])
def test_loss_scores_the_op_head_with_one_nll_node(slots, monkeypatch):
    """The value head's J [T x V] logits take one NLL node each, the op head's
    [J x T x K] logits one in all, whatever J is."""
    onto = Ontology({f"slot{j}": ["none", "dontcare", "a", "b"] for j in range(slots)})
    corpus = generate_corpus(onto, 1, seed=3, shape=GenShape(min_turns=4, max_turns=4))
    tracker = StateTracker(ModelConfig(d=D, heads=2, ff=16), build_vocab(corpus, onto), onto)
    shapes = []
    honest = ad.softmax_nll

    def recording(logits, gold):
        shapes.append(logits.shape)
        return honest(logits, gold)

    monkeypatch.setattr(ad, "softmax_nll", recording)
    tracker.loss(corpus[0])
    assert shapes[-1] == (slots, 4, 3)
    assert [len(s) for s in shapes] == [2] * slots + [3]


def test_depth_32_live_update_makes_at_most_65_tensors(monkeypatch):
    """A live-tracking update: ``predict`` on a 32-turn prefix right after the 31-turn
    one, as the ``stream`` benchmark runs it, with a turn text not seen before; 105
    tensors while the fusion stages ran once per slot."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 1, seed=5, shape=GenShape(min_turns=31, max_turns=31))
    tracker = StateTracker(ModelConfig(), build_vocab(corpus, onto), onto)
    turns = corpus[0].turns
    tracker.predict(corpus[0])
    update = Dialogue(corpus[0].id, turns + [Turn("a new system text", "a new user text", {})])
    assert count_nodes(monkeypatch, lambda: tracker.predict(update)) <= 65


def test_slot_contexts_rows_are_the_per_slot_contexts():
    tracker, dialogue = tiny_setup(1)
    out = tracker.forward(dialogue, with_ops=False)
    for j, slot in enumerate(tracker.ontology.slot_names):
        for stacked, row in zip(out.slot_contexts, ref.contexts_of(out)[slot]):
            assert np.array_equal(stacked.data[j], row.data)


def test_getitem_tuple_index_gradient_equals_add_at():
    """Basic tuple indices take the ``ga[idx] += g`` path; its bytes equal np.add.at's."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5, 4))
    for idx in [(1, slice(2, 3)), (slice(None), 4), (2, 3), (slice(0, 2), slice(1, 4), 0),
                (0,), (slice(None, None, 2), slice(3, None))]:
        leaf = ad.parameter(x)
        out = leaf[idx]
        g = rng.normal(size=out.shape) * 1e-3
        ad.backward(ref.tsum(out * ad.constant(g)))
        want = np.zeros_like(x)
        np.add.at(want, idx, g)
        assert leaf.grad.tobytes() == want.tobytes(), idx
