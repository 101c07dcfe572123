"""The fused autodiff nodes against the primitive chains they replaced.

``ad.attention``, ``ad.layer_norm`` and ``ad.linear`` each repeat the numpy
operations of a chain of primitive nodes (kept in ``reference_chains``), so
every value and every gradient must be bit-identical to that chain, in each
op alone and in the whole tracker. Likewise the op head, which concatenates
its per-turn logits and scores them with ``nll_from_logits``, must match the
per-turn head it replaced (``reference_chains.PerTurnOpTracker``).
"""

import itertools

import numpy as np
import pytest

import reference_chains as ref
from maskdst import autodiff as ad
from maskdst.data import GenShape, build_vocab, demo_ontology, generate_corpus
from maskdst.fusion import GLOBAL, LOCAL, build_mask
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import tiny_setup

D = 8


def value_and_grads(build, arrays, readout):
    """build(*leaves) and the gradient of sum(build(*leaves) * readout) on each leaf."""
    leaves = [ad.parameter(a.copy()) for a in arrays]
    out = build(*leaves)
    ad.backward(ad.tsum(out * ad.constant(readout)))
    return out.data, [leaf.grad for leaf in leaves]


def assert_bit_identical(fused, reference, arrays, rng):
    shape = reference(*[ad.constant(a) for a in arrays]).shape
    readout = rng.normal(size=shape)
    value, grads = value_and_grads(fused, arrays, readout)
    ref_value, ref_grads = value_and_grads(reference, arrays, readout)
    assert np.array_equal(value, ref_value)
    assert len(grads) == len(ref_grads)
    for g, ref_g in zip(grads, ref_grads):
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
    "global": lambda t: build_mask(t, GLOBAL).entries,
    "local1": lambda t: build_mask(t, LOCAL, 1).entries,
    "local3": lambda t: build_mask(t, LOCAL, 3).entries,
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


# -- the whole tracker --------------------------------------------------------

@pytest.fixture
def reference_chains(monkeypatch):
    """Route every use of the fused ops through the primitive chains."""
    def install():
        monkeypatch.setattr(ad, "attention", ref.attention)
        monkeypatch.setattr(ad, "layer_norm", ref.layer_norm)
        monkeypatch.setattr(ad, "linear", ref.linear)
    return install


def loss_and_grads(tracker, dialogue, sv_only=False):
    tracker.zero_grads()
    loss, report = tracker.loss(dialogue, sv_only=sv_only)
    ad.backward(loss)
    grads = {k: p.grad for k, p in tracker.params.items()}
    return loss.data, report, grads


MODEL_CASES = [
    dict(four_class=four, tie_paths=tie, n_history=n, learned_positions=learned)
    for four, tie, n, learned in itertools.product([False, True], [False, True], [1, 3],
                                                   [False, True])
]


@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_tracker_loss_and_grads_bit_identical_to_chains(case, reference_chains):
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
    vocab = build_vocab(corpus, onto)
    cfg = ModelConfig(d=D, heads=2, encoder_layers=1, ff=16, hier_layers=1, seed=5, **case)
    tracker = StateTracker(cfg, vocab, onto)
    fused = [loss_and_grads(tracker, d) for d in corpus]
    fused_beliefs = [tracker.predict(d, "op_gated") for d in corpus]

    reference_chains()
    reference_tracker = StateTracker(cfg, vocab, onto)
    for slot in onto.slot_names:
        assert np.array_equal(tracker.catalog.slot_vecs[slot],
                              reference_tracker.catalog.slot_vecs[slot])
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
    assert [tracker.predict(d, "op_gated") for d in corpus] == fused_beliefs


@pytest.mark.parametrize("sv_only", [False, True], ids=["joint", "sv_only"])
@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_tracker_bit_identical_to_per_turn_op_head(case, sv_only):
    onto = demo_ontology()
    corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
    vocab = build_vocab(corpus, onto)
    cfg = ModelConfig(d=D, heads=2, encoder_layers=1, ff=16, hier_layers=1, seed=5, **case)
    tracker = StateTracker(cfg, vocab, onto)
    oracle = ref.PerTurnOpTracker(cfg, vocab, onto)
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
