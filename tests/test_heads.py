import dataclasses

import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst.data import NONE_VALUE, StateOp, op_order
from maskdst.heads import (
    assemble_beliefs,
    distance_logits,
    init_op_decoder,
    joint_loss,
    nll_from_logits,
    op_decoder_step,
    replay_ops,
)
from reference_chains import apply_state_ops, slot_value_dist, softmax


class TestSlotValueDist:
    def test_exact_match_dominates(self):
        rng = np.random.default_rng(0)
        d = 8
        target = rng.normal(size=d)
        far = np.stack([target + v for v in rng.normal(size=(4, d)) * 0.0 + 10.0])
        mat = np.vstack([target[None, :], far])
        dist = slot_value_dist(ad.constant(target), mat)
        assert dist.chosen == 0
        assert dist.probs.data[0] > 0.9999

    def test_equidistant_candidates_split_evenly(self):
        query = np.zeros(2)
        mat = np.array([[1.0, 0.0], [-1.0, 0.0]])
        dist = slot_value_dist(ad.constant(query), mat)
        assert np.allclose(dist.probs.data, [0.5, 0.5], atol=1e-15)

    def test_distances_one_and_two(self):
        query = np.zeros(1)
        mat = np.array([[1.0], [2.0]])
        dist = slot_value_dist(ad.constant(query), mat)
        expected = np.exp([-1.0, -2.0])
        expected = expected / expected.sum()
        assert np.abs(dist.probs.data - expected).max() < 1e-12
        assert dist.probs.data[0] == pytest.approx(0.7311, abs=1e-4)

    @pytest.mark.parametrize("seed", range(25))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        d, v = 6, 5
        query = rng.normal(size=d)
        mat = rng.normal(size=(v, d))
        shift = rng.normal(size=d) * 10
        a = slot_value_dist(ad.constant(query), mat).probs.data
        b = slot_value_dist(ad.constant(query + shift), mat + shift).probs.data
        assert np.abs(a - b).max() < 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_argmax_is_nearest_neighbor(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d, v = 6, 7
        query = rng.normal(size=d)
        mat = rng.normal(size=(v, d))
        dist = slot_value_dist(ad.constant(query), mat)
        nearest = int(np.argmin(np.linalg.norm(mat - query, axis=1)))
        assert dist.chosen == nearest

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(2)
        dist = slot_value_dist(ad.constant(rng.normal(size=4)), rng.normal(size=(9, 4)))
        assert dist.probs.data.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist.probs.data > 0).all()


def zeroed_decoder_params(d, num_ops):
    params = {}
    init_op_decoder(params, d, num_ops, np.random.default_rng(0))
    for p in params.values():
        p.data = np.zeros_like(p.data)
    return params


def random_decoder_params(d, num_ops, seed=0):
    params = {}
    init_op_decoder(params, d, num_ops, np.random.default_rng(seed))
    return params


class TestOpDecoder:
    def test_zero_everything_gives_uniform(self):
        d, k = 6, 3
        params = zeroed_decoder_params(d, k)
        logits = op_decoder_step(params, ad.constant(np.zeros((2, 4, d))))
        assert logits.shape == (2, 4, k)
        assert np.allclose(softmax(logits).data, 1 / 3, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_each_row_reads_only_its_own_context(self, seed):
        """Changing one slot's context at turn t' changes no other (slot, turn) row."""
        rng = np.random.default_rng(seed)
        slots, turns, d, k = 3, 5, 6, 4
        params = random_decoder_params(d, k, seed=seed)
        ctx = rng.normal(size=(slots, turns, d))
        before = op_decoder_step(params, ad.constant(ctx)).data
        j, t = int(rng.integers(slots)), int(rng.integers(turns))
        ctx[j, t] = rng.normal(size=d)
        after = op_decoder_step(params, ad.constant(ctx)).data
        changed = np.zeros((slots, turns), dtype=bool)
        changed[j, t] = True
        assert np.array_equal(before[~changed], after[~changed])
        assert not np.array_equal(before[j, t], after[j, t])

    def test_readout_gradient_matches_finite_differences(self):
        d, k = 5, 3
        params = random_decoder_params(d, k, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, d))
        gold = [np.array([2, 0, 1]), np.array([1, 1, 0])]

        def loss_tensor():
            logits = op_decoder_step(params, ad.constant(x))
            return nll_from_logits(logits[0], gold[0]) + nll_from_logits(logits[1], gold[1])

        ad.backward(loss_tensor())
        w = params["op.out.w"]
        analytic = w.grad.copy()
        step = 1e-5
        flat = w.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_tensor().item()
            flat[i] = orig - step
            down = loss_tensor().item()
            flat[i] = orig
            num = (up - down) / (2 * step)
            a = analytic.reshape(-1)[i]
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-3))
        assert worst < 1e-4


class TestJointLoss:
    def test_sum_definition(self):
        total, report = joint_loss([ad.constant(2.0), ad.constant(0.25)], ad.constant(0.5))
        assert report.l_joint == report.l_sv + report.l_sop
        assert (report.l_sv, report.l_sop, report.l_joint) == (2.25, 0.5, 2.75)
        assert total.item() == 2.75
        assert [f.name for f in dataclasses.fields(report)] == ["l_sv", "l_sop", "l_joint"]

    def test_value_only_has_no_op_term(self):
        total, report = joint_loss([ad.constant(2.0), ad.constant(0.25)], None)
        assert (total.item(), report.l_sv, report.l_sop, report.l_joint) == (2.25, 2.25, 0.0, 2.25)

    def test_perfect_predictions_zero_loss(self):
        logits = ad.constant(np.array([[0.0, -1000.0]]))
        loss = nll_from_logits(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_three_way_is_ln3(self):
        logits = ad.constant(np.zeros((1, 3)))
        loss = nll_from_logits(logits, np.array([1]))
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)


class TestBeliefDecoding:
    """The decode ``predict`` runs: each slot's ops replayed over its values
    (``replay_ops``, OP_GATED only), then every turn's belief assembled at once
    (``assemble_beliefs``). A belief of the turn before is set up by a first turn
    of UPDATEs."""

    @staticmethod
    def decode(values, ops=None):
        return assemble_beliefs(values if ops is None else replay_ops(values, ops))

    def test_op_gated_all_carryover_is_identity(self):
        out = self.decode({"food": ["indian", "italian"]},
                          {"food": [StateOp.UPDATE, StateOp.CARRYOVER]})
        assert out == [{"food": "indian"}] * 2

    def test_direct_takes_value_argmax(self):
        assert self.decode({"food": ["indian"]}) == [{"food": "indian"}]

    def test_direct_none_leaves_slot_out(self):
        assert self.decode({"food": [NONE_VALUE]}) == [{}]

    def test_op_gated_case_enumeration(self):
        # every (op, predicted value) combination behaves per the taxonomy
        for value in [NONE_VALUE, "dontcare", "indian", "italian"]:
            expected = {StateOp.CARRYOVER: {"food": "italian"},
                        StateOp.DONTCARE: {"food": "dontcare"},
                        StateOp.DELETE: {},
                        StateOp.UPDATE: {} if value == NONE_VALUE else {"food": value}}
            for op, want in expected.items():
                out = self.decode({"food": ["italian", value]}, {"food": [StateOp.UPDATE, op]})
                assert out == [{"food": "italian"}, want], (op, value)

    @pytest.mark.parametrize("four_class", [False, True], ids=["3-class", "4-class"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_replaying_each_turn_with_apply_state_ops(self, seed, four_class):
        """Key order too: a slot that stays set keeps its place in the belief, and one
        newly set follows in slot order. DIRECT mode replays an UPDATE of every slot."""
        rng = np.random.default_rng(seed)
        choices = [NONE_VALUE, "dontcare", "a", "b"]
        ops_of = list(op_order(four_class))
        for _ in range(100):
            slots = list(rng.permutation(list("wxyz"))[:rng.integers(1, 5)])
            turns = int(rng.integers(0, 8))
            values = {s: [str(v) for v in rng.choice(choices, size=turns)] for s in slots}
            ops = {s: [ops_of[i] for i in rng.integers(0, len(ops_of), size=turns)]
                   for s in slots}
            for given in (None, ops):
                want, prev = [], {}
                for t in range(turns):
                    step = {s: StateOp.UPDATE if given is None else given[s][t] for s in slots}
                    prev = apply_state_ops(prev, step, {s: values[s][t] for s in slots})
                    want.append(list(prev.items()))
                assert [list(b.items()) for b in self.decode(values, given)] == want

    def test_op_gated_update_to_prev_value_is_noop(self):
        out = self.decode({"food": ["italian", "italian"]},
                          {"food": [StateOp.UPDATE, StateOp.UPDATE]})
        assert out == [{"food": "italian"}] * 2


class TestDistanceLogitsBatch:
    def test_matches_per_row_distances(self):
        rng = np.random.default_rng(9)
        queries = rng.normal(size=(4, 6))
        mat = rng.normal(size=(5, 6))
        logits = distance_logits(ad.constant(queries), mat).data
        for t in range(4):
            expected = -np.linalg.norm(queries[t][None, :] - mat, axis=1)
            assert np.allclose(logits[t], expected, atol=1e-12)
