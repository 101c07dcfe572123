"""The fused autodiff nodes against the primitive chains they replaced.

Each fused op of ``ad`` (``reference_chains.FUSED`` names them: attention,
layer norm, linear, the fusion gate, and the heads' distance and NLL) repeats the numpy operations
of a chain of primitive nodes (kept in ``reference_chains``), so every value
and every gradient must be bit-identical to that chain, in each op alone and
in the whole tracker. Likewise the op head, which reads every slot's local
contexts through one node and scores them with ``nll_from_logits``, must match
the per-slot, per-turn head of ``reference_chains.PerTurnOpTracker``.
"""

import itertools

import numpy as np
import pytest

import reference_chains as ref
from maskdst import autodiff as ad
from maskdst.data import GenShape, build_vocab, demo_ontology, generate_corpus
from maskdst.fusion import GLOBAL, LOCAL, build_mask
from maskdst.heads import op_decoder_step
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import tiny_setup

D = 8


def value_and_grads(build, arrays, readout, trainable):
    """build(*leaves) and the gradient of sum(build(*leaves) * readout) on each leaf;
    a leaf whose `trainable` entry is False is a constant."""
    leaves = [ad.parameter(a.copy()) if t else ad.constant(a.copy())
              for a, t in zip(arrays, trainable)]
    out = build(*leaves)
    ad.backward(ref.tsum(out * ad.constant(readout)))
    return out.data, [leaf.grad for leaf in leaves]


def assert_bit_identical(fused, reference, arrays, rng, trainable=None):
    trainable = [True] * len(arrays) if trainable is None else trainable
    shape = reference(*[ad.constant(a) for a in arrays]).shape
    readout = rng.normal(size=shape)
    value, grads = value_and_grads(fused, arrays, readout, trainable)
    ref_value, ref_grads = value_and_grads(reference, arrays, readout, trainable)
    assert np.array_equal(value, ref_value)
    assert len(grads) == len(ref_grads)
    for g, ref_g, t in zip(grads, ref_grads, trainable):
        assert (g is None) == (ref_g is None) == (not t)
        assert np.array_equal(g, ref_g)


def weights(rng):
    return [rng.normal(0.0, D ** -0.5, (D, D)) for _ in range(4)]


def pad_mask(rng, length):
    """[PAD] key mask: the last 0..length-1 positions blocked."""
    mask = np.zeros(length)
    mask[length - int(rng.integers(0, length)):] = ad.NEG_INF
    return mask


TURN_MASKS = {
    "none": lambda t: None,
    "global": lambda t: build_mask(t, GLOBAL),
    "local1": lambda t: build_mask(t, LOCAL, 1),
    "local3": lambda t: build_mask(t, LOCAL, 3),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("length", [1, 3, 6])
@pytest.mark.parametrize("mask_kind", sorted(TURN_MASKS))
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_self_attention_matches_chain(heads, mask_kind, length, seed):
    """Self-attention under turn masks, plus the residual the encoder block adds."""
    rng = np.random.default_rng(seed)
    mask = TURN_MASKS[mask_kind](length)

    def build(op):
        return lambda x, wq, wk, wv, wo: x + op(x, x, wq, wk, wv, wo, heads, mask)

    arrays = [rng.normal(size=(length, D))] + weights(rng)
    assert_bit_identical(build(ad.attention), build(ref.attention), arrays, rng)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("queries", [1, 3])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_cross_attention_with_pad_mask_matches_chain(heads, queries, seed):
    """Slot queries over token states with [PAD] keys, as in word attention."""
    rng = np.random.default_rng(seed)
    keys = int(rng.integers(2, 9))
    mask = pad_mask(rng, keys)
    arrays = [rng.normal(size=(queries, D)), rng.normal(size=(keys, D))] + weights(rng)

    def build(op):
        return lambda q, k, wq, wk, wv, wo: op(q, k, wq, wk, wv, wo, heads, mask)

    assert_bit_identical(build(ad.attention), build(ref.attention), arrays, rng)

    # a constant query, as the frozen slot vectors are
    query = ad.constant(arrays[0])

    def build_const(op):
        return lambda k, wq, wk, wv, wo: op(query, k, wq, wk, wv, wo, heads, mask)

    assert_bit_identical(build_const(ad.attention), build_const(ref.attention),
                         arrays[1:], rng)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("mask_kind", ["global", "local1"])
def test_slot_over_turns_attention_matches_chain(heads, mask_kind):
    """Tiled constant slot queries over turn states under a turn mask."""
    rng = np.random.default_rng(heads)
    turns = 5
    mask = TURN_MASKS[mask_kind](turns)
    query = ad.constant(np.repeat(rng.normal(size=(1, D)), turns, axis=0))

    def build(op):
        return lambda k, wq, wk, wv, wo: op(query, k, wq, wk, wv, wo, heads, mask)

    arrays = [rng.normal(size=(turns, D))] + weights(rng)
    assert_bit_identical(build(ad.attention), build(ref.attention), arrays, rng)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", [(D,), (1, D), (5, D), (2, 3, D)])
def test_layer_norm_matches_chain(shape, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape), rng.normal(size=D), rng.normal(size=D)]
    assert_bit_identical(ad.layer_norm, ref.layer_norm, arrays, rng)

    def residual(op):
        return lambda x, g, b: x + op(x, g, b)

    assert_bit_identical(residual(ad.layer_norm), residual(ref.layer_norm), arrays, rng)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("x_shape,out", [((1, D), 16), ((5, D), 3), ((2, 3, D), 4)])
def test_linear_matches_chain(x_shape, out, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=x_shape), rng.normal(size=(D, out)), rng.normal(size=out)]
    assert_bit_identical(ad.linear, ref.linear, arrays, rng)

    square = [arrays[0], rng.normal(size=(D, D)), rng.normal(size=D)]

    def residual(op):
        return lambda x, w, b: x + op(x, w, b)

    assert_bit_identical(residual(ad.linear), residual(ref.linear), square, rng)


def some_trainable(rng, n, mixed):
    """All n leaves trainable, or a random nonempty subset of them when `mixed`."""
    if not mixed:
        return [True] * n
    keep = rng.random(n) < 0.5
    keep[rng.integers(n)] = True
    return list(keep)


ROWS = [1, 4]  # one row and a [T x d] sequence


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mixed", [False, True], ids=["all", "mixed"])
@pytest.mark.parametrize("rows", ROWS)
def test_gate_mix_matches_chain(rows, mixed, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(rows, D)), rng.normal(size=(rows, D)),
              rng.normal(size=(2 * D, D)), rng.normal(size=D)]

    def merged(op):
        return lambda *args: op(*args)[0]

    assert_bit_identical(merged(ad.gate_mix), merged(ref.gate_mix), arrays, rng,
                         some_trainable(rng, 4, mixed))
    # both branches from one input, as tied branches with wide windows give
    assert_bit_identical(lambda a, w, b: ad.gate_mix(a, a * 2.0, w, b)[0],
                         lambda a, w, b: ref.gate_mix(a, a * 2.0, w, b)[0],
                         [arrays[0], arrays[2], arrays[3]], rng)

    _, gate = ad.gate_mix(*arrays)
    _, ref_gate = ref.gate_mix(*arrays)
    assert np.array_equal(gate.data, ref_gate.data)
    assert gate._parents == () and not gate.requires_grad


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rows", ROWS + [(3, 4)],
                         ids=lambda r: "x".join(map(str, np.atleast_1d(r))))
def test_softmax_nll_matches_chain(rows, seed):
    """[T x V] logits, and [J x T x V] ones with gold [J x T] (rows (3, 4)), whose chain
    is the [T x V] chain once per slot, the slots' sums added in slot order."""
    rng = np.random.default_rng(seed)
    gold = rng.integers(0, 5, size=rows)
    logits = rng.normal(size=(*gold.shape, 5)) * 3.0

    def nll(op):
        return lambda x: op(x, gold)

    assert_bit_identical(nll(ad.softmax_nll), nll(ref.softmax_nll), [logits], rng)
    value, (grad,) = value_and_grads(nll(ad.softmax_nll), [logits], 1.0, [True])
    want, (want_grad,) = value_and_grads(nll(ref.softmax_nll), [logits], 1.0, [True])
    assert (value.tobytes(), grad.tobytes()) == (want.tobytes(), want_grad.tobytes())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("points", [1, 5])
def test_neg_distance_matches_chain(points, rows, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(points, D))

    def dist(op):
        return lambda q: op(q, values)

    assert_bit_identical(dist(ad.neg_distance), dist(ref.neg_distance),
                         [rng.normal(size=(rows, D))], rng)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mixed", [False, True], ids=["all", "mixed"])
@pytest.mark.parametrize("turns", [1, 6])
@pytest.mark.parametrize("slots", [1, 3])
def test_op_head_matches_per_slot_chain(slots, turns, mixed, seed):
    """``heads.op_decoder_step`` on [J x T x d] against ``reference_chains.op_logits``
    run once per slot on that slot's [T x d] rows."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(slots, turns, D)), rng.normal(size=(D, 3)), rng.normal(size=3)]

    def head(ctx, w, b):
        return op_decoder_step({"op.out.w": w, "op.out.b": b}, ctx)

    def chain(ctx, w, b):
        return ad.stack([ref.op_logits({"op.out.w": w, "op.out.b": b}, ctx[j])
                         for j in range(slots)])

    assert_bit_identical(head, chain, arrays, rng, some_trainable(rng, 3, mixed))


def test_fused_ops_keep_the_chain_checks():
    x = ad.constant(np.zeros((3, D)))
    with pytest.raises(ad.ShapeError):
        ad.linear(x, ad.constant(np.zeros((D + 1, 2))), ad.constant(np.zeros(2)))
    with pytest.raises(ad.RankError):
        ad.linear(ad.constant(np.zeros(D)), ad.constant(np.zeros((D, 2))), np.zeros(2))
    w = [ad.constant(np.eye(D))] * 4
    with pytest.raises(ad.ShapeError):
        ad.attention(x, ad.constant(np.zeros((3, D + 1))), *w, 2)
    with pytest.raises(ad.ShapeError):
        ad.attention(x, x, *w, 3)
    with pytest.raises(ad.RankError):
        ad.attention(ad.constant(np.zeros(D)), x, *w, 2)
    with pytest.raises(ad.DegenerateRowError):
        ad.attention(x, x, *w, 2, np.full(3, ad.NEG_INF))
    with pytest.raises(ad.ShapeError):
        ad.gate_mix(x, x, ad.constant(np.zeros((D, D))), np.zeros(D))
    with pytest.raises(IndexError):
        ad.softmax_nll(x, [0, 1, D])
    with pytest.raises(ad.ShapeError):
        ad.softmax_nll(x, [0, 1])  # a gold row short; the chain fails to broadcast its index
    with pytest.raises(ad.ShapeError):
        ad.softmax_nll(ad.constant(np.zeros((2, 3, D))), [0, 1, 2])


# -- the whole tracker --------------------------------------------------------

@pytest.fixture
def reference_chains(monkeypatch):
    """Route every use of the fused ops through the primitive chains."""
    def install():
        for name, chain in ref.FUSED.items():
            monkeypatch.setattr(ad, name, chain)
    return install


def loss_and_grads(tracker, dialogue, sv_only=False):
    tracker.zero_grads()
    loss, report = tracker.loss(dialogue, sv_only=sv_only)
    ad.backward(loss)
    grads = {k: p.grad for k, p in tracker.params.items()}
    return loss.data, report, grads


MODEL_CASES = [
    dict(four_class=four, tie=tie, n_history=n, hier_layers=hier)
    for four, tie, n, hier in itertools.product([False, True], [False, True], [1, 3], [1, 2])
]


def case_tracker(case, vocab, onto, tracker_class=StateTracker):
    """The d=8 tracker of a MODEL_CASES entry, its branches tied when ``case["tie"]``."""
    settings = {k: v for k, v in case.items() if k != "tie"}
    cfg = ModelConfig(d=D, heads=2, encoder_layers=1, ff=16, seed=5, **settings)
    tracker = tracker_class(cfg, vocab, onto)
    return ref.tie_branches(tracker) if case["tie"] else tracker


@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_tracker_loss_and_grads_bit_identical_to_chains(case, reference_chains):
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
    vocab = build_vocab(corpus, onto)
    tracker = case_tracker(case, vocab, onto)
    fused = [loss_and_grads(tracker, d) for d in corpus]
    fused_beliefs = [tracker.predict(d, "op_gated") for d in corpus]

    reference_chains()
    reference_tracker = StateTracker(tracker.cfg, vocab, onto)
    for slot in onto.slot_names:
        assert np.array_equal(ref.slot_vecs_of(tracker.catalog)[slot],
                              ref.slot_vecs_of(reference_tracker.catalog)[slot])
        assert np.array_equal(tracker.catalog.value_mats[slot],
                              reference_tracker.catalog.value_mats[slot])
    for d, (loss, report, grads) in zip(corpus, fused):
        ref_loss, ref_report, ref_grads = loss_and_grads(tracker, d)
        assert np.array_equal(loss, ref_loss)
        assert report == ref_report
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert (g is None) == (ref_grads[name] is None), name
            if g is not None:
                assert np.array_equal(g, ref_grads[name]), name
    # a cold tracker on the same weights, so no turn summary made by the fused path is reused
    cold = StateTracker(tracker.cfg, vocab, onto, tracker.params, tracker.frozen_params)
    assert [cold.predict(d, "op_gated") for d in corpus] == fused_beliefs


@pytest.mark.parametrize("sv_only", [False, True], ids=["joint", "sv_only"])
@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_tracker_bit_identical_to_per_turn_op_head(case, sv_only):
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
    vocab = build_vocab(corpus, onto)
    tracker = case_tracker(case, vocab, onto)
    oracle = case_tracker(case, vocab, onto, ref.PerTurnOpTracker)
    for d in corpus:
        loss, report, grads = loss_and_grads(tracker, d, sv_only)
        ref_loss, ref_report, ref_grads = loss_and_grads(oracle, d, sv_only)
        assert np.array_equal(loss, ref_loss)
        assert report == ref_report
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert (g is None) == (ref_grads[name] is None), name
            if g is not None:
                assert np.array_equal(g, ref_grads[name]), name
        for mode in ("direct", "op_gated"):
            assert tracker.predict(d, mode) == oracle.predict(d, mode)


def test_default_config_training_step_bit_identical_to_chains(reference_chains):
    """d=32, four heads: one summed batch loss, as ``train`` back-propagates it."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=2)
    tracker = StateTracker(ModelConfig(seed=0), build_vocab(corpus, onto), onto)

    def batch_grads():
        tracker.zero_grads()
        total = None
        for d in corpus:
            loss, _ = tracker.loss(d)
            total = loss if total is None else total + loss
        ad.backward(total * (1.0 / len(corpus)))
        return total.data, {k: p.grad for k, p in tracker.params.items()}

    total, grads = batch_grads()
    reference_chains()
    ref_total, ref_grads = batch_grads()
    assert np.array_equal(total, ref_total)
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


def test_tiny_setup_loss_builds_at_most_320_nodes(monkeypatch):
    """The grad-check model's taped loss: 696 nodes with the primitive chains."""
    tracker, dialogue = tiny_setup(0)
    count = [0]
    init = ad.Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        count[0] += 1
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    tracker.loss(dialogue)
    assert count[0] <= 320


def count_nodes(monkeypatch, build):
    """The number of Tensors that build() makes."""
    count = [0]
    init = ad.Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        count[0] += 1
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    build()
    monkeypatch.setattr(ad.Tensor, "__init__", init)
    return count[0]


def test_default_six_turn_loss_builds_at_most_140_nodes(monkeypatch):
    """Default config, 3 slots, 6 turns: 706 nodes before the fusion gate and both
    heads' chains were fused, and 295 with a recurrent op decoder."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 1, seed=3, shape=GenShape(min_turns=6, max_turns=6))
    tracker = StateTracker(ModelConfig(), build_vocab(corpus, onto), onto)
    assert len(onto.slot_names) == 3 and len(corpus[0].turns) == 6
    assert count_nodes(monkeypatch, lambda: tracker.loss(corpus[0])) <= 140


def test_tiny_setup_loss_builds_at_most_75_nodes(monkeypatch):
    """The grad-check model's taped loss: 246 nodes before that fusion, and 109 with a
    recurrent op decoder."""
    tracker, dialogue = tiny_setup(0)
    assert count_nodes(monkeypatch, lambda: tracker.loss(dialogue)) <= 75
