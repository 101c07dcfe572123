import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst import fusion
from maskdst.data import Dialogue, Turn, Vocabulary, demo_ontology, generate_corpus, build_vocab
from maskdst.encoders import ConfigError, init_mha, multi_head_attention, positional_matrix
from maskdst.fusion import (
    GLOBAL,
    LOCAL,
    build_mask,
    format_mask,
    fuse,
    masked_hier_transform,
    slot_context_all,
    word_attention,
)
from maskdst.model import ModelConfig, StateTracker
from reference_chains import FULL_PREFIX, LAST_N, contexts_of, slot_context, tie_branches

NEG = ad.NEG_INF


class TestBuildMask:
    def test_local_window_pattern(self):
        mask = build_mask(4, LOCAL, 1)
        # 1-indexed row 3 attends to turns {2, 3}; row 1 only to itself
        assert list(mask[2]) == [NEG, 0.0, 0.0, NEG]
        assert list(mask[0]) == [0.0, NEG, NEG, NEG]

    def test_global_causal(self):
        mask = build_mask(3, GLOBAL)
        expected = np.array([
            [0.0, NEG, NEG],
            [0.0, 0.0, NEG],
            [0.0, 0.0, 0.0],
        ])
        assert np.array_equal(mask, expected)

    def test_wide_local_equals_global(self):
        local = build_mask(4, LOCAL, 10)
        glob = build_mask(4, GLOBAL)
        assert np.array_equal(local, glob)

    def test_diagonal_always_attendable(self):
        for t in range(1, 9):
            for mask in (build_mask(t, GLOBAL), build_mask(t, LOCAL, 2)):
                assert (np.diag(mask) == 0.0).all()
                assert not np.isneginf(mask).all(axis=1).any()

    def test_invalid_history_length(self):
        with pytest.raises(ConfigError):
            build_mask(4, LOCAL, 0)

    def test_format(self):
        out = format_mask(build_mask(2, GLOBAL))
        assert out == "0 -inf\n0 0"


def make_turn_encoding(rng, length, d):
    return ad.constant(rng.normal(size=(length, d)))


def mha_params(prefix, d, rng):
    params = {}
    init_mha(params, f"{prefix}", d, rng)
    return params


def identity_mha_params(prefix, d):
    params = {}
    eye = np.eye(d)
    for proj in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{proj}"] = ad.constant(eye.copy())
    return params


class TestWordAttention:
    def test_single_token_weight_one(self):
        rng = np.random.default_rng(0)
        d = 8
        params = mha_params("p.wordatt", d, rng)
        turn = make_turn_encoding(rng, 1, d)
        query = ad.constant(rng.normal(size=(1, d)))
        out = word_attention(params, "p", query, turn, heads=2)
        # attention weight is 1 on the only token: output equals its value
        # projection routed through the output projection
        expected = (turn.data @ params["p.wordatt.wv"].data
                    ) @ params["p.wordatt.wo"].data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_identical_tokens_make_output_uniform(self):
        rng = np.random.default_rng(1)
        d = 8
        params = mha_params("p.wordatt", d, rng)
        row = rng.normal(size=d)
        turn = ad.constant(np.tile(row, (5, 1)))
        query = ad.constant(rng.normal(size=(1, d)))
        out = word_attention(params, "p", query, turn, heads=2)
        single = make_turn_encoding(np.random.default_rng(99), 1, d)
        single = ad.constant(row[None, :])
        expected = word_attention(params, "p", query, single, heads=2)
        assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_hand_computed_single_head(self):
        d = 4
        params = identity_mha_params("p.wordatt", d)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(3, d))
        turn = ad.constant(states)
        h_s = rng.normal(size=d)
        out = word_attention(params, "p", ad.constant(h_s[None, :]), turn, heads=1)
        scores = states @ h_s / np.sqrt(d)
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        assert np.allclose(out.data[0], w @ states, atol=1e-12)

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(3)
        d = 8
        params = mha_params("p.wordatt", d, rng)
        states = rng.normal(size=(4, d))
        mask = np.array([0.0, 0.0, NEG, NEG])
        query = ad.constant(rng.normal(size=(1, d)))
        out = multi_head_attention(params, "p.wordatt", query, ad.constant(states), 2, mask)
        # changing the padded rows must not change the output
        states2 = states.copy()
        states2[2:] += 100.0
        out2 = multi_head_attention(params, "p.wordatt", query, ad.constant(states2), 2, mask)
        assert np.array_equal(out.data, out2.data)


def hier_params(prefix, d, ff, layers, rng):
    params = {}
    from maskdst.encoders import init_block
    for layer in range(layers):
        init_block(params, f"{prefix}.hier.l{layer}", d, ff, rng)
    return params


class TestMaskedHierTransform:
    def test_single_turn_base_case(self):
        rng = np.random.default_rng(4)
        d, ff = 8, 16
        params = hier_params("p", d, ff, 1, rng)
        word = ad.constant(rng.normal(size=(1, d)))
        out = masked_hier_transform(params, "p", word, build_mask(1, GLOBAL),
                                    heads=2, hier_layers=1)
        assert out.shape == (1, d)
        # independent of any other content by construction: recompute equal
        out2 = masked_hier_transform(params, "p", word, build_mask(1, GLOBAL),
                                     heads=2, hier_layers=1)
        assert np.array_equal(out.data, out2.data)

    @pytest.mark.parametrize("seed", range(10))
    def test_global_causality_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        d, ff, t = 8, 16, 5
        params = hier_params("p", d, ff, 2, rng)
        base = rng.normal(size=(t, d))
        perturbed = base.copy()
        perturbed[3:] += rng.normal(size=(t - 3, d))
        mask = build_mask(t, GLOBAL)
        out_a = masked_hier_transform(params, "p", ad.constant(base), mask, 2, 2).data
        out_b = masked_hier_transform(params, "p", ad.constant(perturbed), mask, 2, 2).data
        assert np.array_equal(out_a[:3], out_b[:3])

    @pytest.mark.parametrize("seed", range(10))
    def test_local_receptive_field_single_layer(self, seed):
        rng = np.random.default_rng(100 + seed)
        d, ff, t, n = 8, 16, 6, 2
        params = hier_params("p", d, ff, 1, rng)
        base = rng.normal(size=(t, d))
        perturbed = base.copy()
        perturbed[0] += 5.0  # turn j=1, outside the window of rows i >= n+2
        mask = build_mask(t, LOCAL, n)
        out_a = masked_hier_transform(params, "p", ad.constant(base), mask, 2, 1).data
        out_b = masked_hier_transform(params, "p", ad.constant(perturbed), mask, 2, 1).data
        assert np.array_equal(out_a[n + 1:], out_b[n + 1:])
        assert not np.array_equal(out_a[0], out_b[0])

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        params = hier_params("p", 8, 16, 1, rng)
        with pytest.raises(ad.ShapeError):
            masked_hier_transform(params, "p", ad.constant(rng.normal(size=(3, 8))),
                                  build_mask(4, GLOBAL), 2, 1)


class TestSlotContext:
    def test_first_turn_single_key(self):
        rng = np.random.default_rng(6)
        d = 8
        params = mha_params("p.slotatt", d, rng)
        hier_out = ad.constant(rng.normal(size=(4, d)))
        slot_vec = rng.normal(size=d)
        for window, n in ((FULL_PREFIX, None), (LAST_N, 2)):
            out = slot_context(params, "p", slot_vec, hier_out, 1, window, 2, n)
            expected = (hier_out.data[:1] @ params["p.slotatt.wv"].data
                        ) @ params["p.slotatt.wo"].data
            assert np.allclose(out.data, expected[0], atol=1e-12)

    def test_wide_window_equals_full_prefix(self):
        rng = np.random.default_rng(7)
        d = 8
        params = mha_params("p.slotatt", d, rng)
        hier_out = ad.constant(rng.normal(size=(5, d)))
        slot_vec = rng.normal(size=d)
        t = 4
        full = slot_context(params, "p", slot_vec, hier_out, t, FULL_PREFIX, 2)
        wide = slot_context(params, "p", slot_vec, hier_out, t, LAST_N, 2, n=t - 1)
        assert np.array_equal(full.data, wide.data)

    def test_hand_two_row_case(self):
        d = 4
        params = identity_mha_params("p.slotatt", d)
        rows = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        h_s = np.array([1.0, 0, 0, 0])
        out = slot_context(params, "p", h_s, ad.constant(rows), 2, FULL_PREFIX, 1)
        scores = rows @ h_s / 2.0  # sqrt(d)=2
        w = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(out.data, w @ rows, atol=1e-12)

    def test_batched_rows_match_single_turn_calls(self):
        rng = np.random.default_rng(8)
        d = 8
        params = mha_params("p.slotatt", d, rng)
        hier_out = ad.constant(rng.normal(size=(5, d)))
        slot_vec = rng.normal(size=d)
        mask = build_mask(5, GLOBAL)
        batched = slot_context_all(params, "p", slot_vec, hier_out, mask, 2).data
        for t in range(1, 6):
            single = slot_context(params, "p", slot_vec, hier_out, t, FULL_PREFIX, 2)
            assert np.allclose(batched[t - 1], single.data, atol=1e-12)

    def test_turn_out_of_range(self):
        rng = np.random.default_rng(9)
        params = mha_params("p.slotatt", 8, rng)
        hier_out = ad.constant(rng.normal(size=(3, 8)))
        with pytest.raises(ad.ShapeError):
            slot_context(params, "p", np.zeros(8), hier_out, 4, FULL_PREFIX, 2)


class TestFuse:
    def gate_params(self, d, w=None, b=None):
        return {
            "gate.w": ad.constant(np.zeros((2 * d, d)) if w is None else w),
            "gate.b": ad.constant(np.zeros(d) if b is None else b),
        }

    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(10)
        d = 6
        x = rng.normal(size=(1, d))
        params = self.gate_params(d, rng.normal(size=(2 * d, d)), rng.normal(size=d))
        fused, _ = fuse(params, ad.constant(x), ad.constant(x))
        assert np.allclose(fused.data, x, atol=1e-12)

    def test_zero_gate_params_give_midpoint(self):
        d = 4
        a, b = np.ones((1, d)), np.zeros((1, d))
        fused, gate = fuse(self.gate_params(d), ad.constant(a), ad.constant(b))
        assert np.allclose(gate.data, 0.5, atol=1e-15)
        assert np.allclose(fused.data, 0.5, atol=1e-15)

    def test_saturated_gate_selects_global(self):
        d = 4
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        params = self.gate_params(d, b=np.full(d, 20.0))
        fused, _ = fuse(params, ad.constant(a), ad.constant(b))
        assert np.abs(fused.data - a).max() < 1e-8

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        d = 6
        params = self.gate_params(d, rng.normal(size=(2 * d, d)), rng.normal(size=d))
        _, gate = fuse(params, ad.constant(rng.normal(size=(3, d))),
                       ad.constant(rng.normal(size=(3, d))))
        assert (gate.data > 0).all() and (gate.data < 1).all()


class TestPathEquivalenceAndCausality:
    def build_tracker(self, n_history, tie, max_turns=4):
        onto = demo_ontology()
        corpus = generate_corpus(onto, 6, seed=21)
        vocab = build_vocab(corpus, onto)
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1,
                          n_history=n_history, seed=5)
        tracker = StateTracker(cfg, vocab, onto)
        return tie_branches(tracker) if tie else tracker, corpus

    def test_tied_paths_with_wide_history_are_equal(self):
        tracker, corpus = self.build_tracker(n_history=10, tie=True)
        for d in corpus[:3]:
            out = tracker.forward(d, with_ops=False)
            for slot, (glob, loc, _fused) in contexts_of(out).items():
                assert np.abs(glob.data - loc.data).max() < 1e-9

    def test_fused_context_causal_bitwise(self):
        tracker, corpus = self.build_tracker(n_history=1, tie=False)
        d = next(x for x in corpus if len(x.turns) >= 3)
        out_a = tracker.forward(d, with_ops=False)
        modified = Dialogue(d.id, [
            Turn(t.system, t.user, dict(t.belief)) for t in d.turns
        ])
        modified.turns[-1] = Turn("completely new system text",
                                  "and a different user turn that mentions thai",
                                  modified.turns[-1].belief)
        out_b = tracker.forward(modified, with_ops=False)
        keep = len(d.turns) - 1
        for slot in tracker.ontology.slot_names:
            fused_a = contexts_of(out_a)[slot][2].data
            fused_b = contexts_of(out_b)[slot][2].data
            assert np.array_equal(fused_a[:keep], fused_b[:keep])
