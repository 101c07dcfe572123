import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst.data import NONE_VALUE, StateOp, apply_state_ops
from maskdst.heads import (
    DIRECT,
    OP_GATED,
    decode_state,
    distance_logits,
    init_op_decoder,
    joint_loss,
    nll_from_logits,
    op_decoder_step,
)
from reference_chains import slot_value_dist


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
        logits, hidden = op_decoder_step(params, ad.constant(np.zeros((1, d))),
                                         ad.constant(np.zeros(d)))
        assert np.allclose(hidden.data, 0.0, atol=1e-15)
        assert np.allclose(ad.softmax(logits).data, 1 / 3, atol=1e-15)

    def test_state_dependence(self):
        d, k = 6, 3
        params = random_decoder_params(d, k, seed=3)
        rng = np.random.default_rng(4)
        x = ad.constant(rng.normal(size=(1, d)))
        h1 = ad.constant(np.zeros(d))
        h2 = ad.constant(rng.normal(size=d))
        l1, _ = op_decoder_step(params, x, h1)
        l2, _ = op_decoder_step(params, x, h2)
        assert np.abs(ad.softmax(l1).data - ad.softmax(l2).data).max() > 0

    def test_markov_replay_bitwise(self):
        d, k = 6, 3
        params = random_decoder_params(d, k, seed=5)
        rng = np.random.default_rng(6)
        x = ad.constant(rng.normal(size=(1, d)))
        h = ad.constant(rng.normal(size=d))
        a_logits, a_hidden = op_decoder_step(params, x, h)
        b_logits, b_hidden = op_decoder_step(params, x, h)
        assert np.array_equal(a_logits.data, b_logits.data)
        assert np.array_equal(a_hidden.data, b_hidden.data)

    def test_readout_gradient_matches_finite_differences(self):
        d, k = 5, 3
        params = random_decoder_params(d, k, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, d))
        gold = 2

        def loss_tensor():
            logits, _ = op_decoder_step(params, ad.constant(x), ad.constant(np.zeros(d)))
            return nll_from_logits(logits, np.array([gold]))

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
        total, report = joint_loss(
            {"a": ad.constant(2.0)}, {"a": ad.constant(0.5)}
        )
        assert report.l_joint == report.l_sv + report.l_sop
        assert report.l_joint == pytest.approx(2.5)
        assert total.item() == pytest.approx(2.5)

    def test_perfect_predictions_zero_loss(self):
        logits = ad.constant(np.array([[0.0, -1000.0]]))
        loss = nll_from_logits(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_three_way_is_ln3(self):
        logits = ad.constant(np.zeros((1, 3)))
        loss = nll_from_logits(logits, np.array([1]))
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_index_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different slots"):
            joint_loss({"a": ad.constant(1.0)}, {"b": ad.constant(1.0)})


class TestDecodeState:
    values = {
        "food": [NONE_VALUE, "dontcare", "indian", "italian"],
    }

    def values_of(self, slot):
        return self.values[slot]

    def test_op_gated_all_carryover_is_identity(self):
        prev = {"food": "indian"}
        out = decode_state({"food": 3}, {"food": 0}, self.values_of, prev,
                           four_class=False, mode=OP_GATED)
        assert out == prev

    def test_direct_takes_value_argmax(self):
        out = decode_state({"food": 2}, {}, self.values_of, {}, False, DIRECT)
        assert out == {"food": "indian"}

    def test_direct_none_leaves_slot_out(self):
        out = decode_state({"food": 0}, {}, self.values_of, {}, False, DIRECT)
        assert out == {}

    def test_op_gated_case_enumeration(self):
        # every (op, argmax) combination behaves per the taxonomy
        prev = {"food": "italian"}
        ops = {"CARRYOVER": 0, "DONTCARE": 1, "UPDATE": 2, "DELETE": 3}
        for value_idx in range(4):
            out = decode_state({"food": value_idx}, {"food": ops["CARRYOVER"]},
                               self.values_of, prev, True, OP_GATED)
            assert out == prev
            out = decode_state({"food": value_idx}, {"food": ops["DONTCARE"]},
                               self.values_of, prev, True, OP_GATED)
            assert out == {"food": "dontcare"}
            out = decode_state({"food": value_idx}, {"food": ops["DELETE"]},
                               self.values_of, prev, True, OP_GATED)
            assert out == {}
            out = decode_state({"food": value_idx}, {"food": ops["UPDATE"]},
                               self.values_of, prev, True, OP_GATED)
            expected_value = self.values_of("food")[value_idx]
            assert out == ({} if expected_value == NONE_VALUE
                           else {"food": expected_value})

    @pytest.mark.parametrize("seed", range(5))
    def test_direct_equals_replaying_an_update_of_every_slot(self, seed):
        """Key order too: a previous belief's slots keep their places (slots outside
        the prediction included), and new ones follow in slot order."""
        rng = np.random.default_rng(seed)
        values = {s: [NONE_VALUE, "dontcare", "a", "b"] for s in "wxyz"}
        for _ in range(500):
            slots = list(rng.permutation(list("wxyz"))[:rng.integers(0, 5)])
            prev = {str(k): str(rng.choice(["a", "b", "dontcare", "q"]))
                    for k in rng.permutation(list("wxyzuv"))[:rng.integers(0, 7)]}
            sv = {s: int(rng.integers(0, 4)) for s in slots}
            replayed = apply_state_ops(prev, dict.fromkeys(sv, StateOp.UPDATE),
                                       {s: values[s][i] for s, i in sv.items()})
            out = decode_state(sv, {}, values.__getitem__, prev, False, DIRECT)
            assert list(out.items()) == list(replayed.items())

    def test_op_gated_update_to_prev_value_is_noop(self):
        prev = {"food": "italian"}
        out = decode_state({"food": 3}, {"food": 2}, self.values_of, prev,
                           True, OP_GATED)
        assert out == prev


class TestDistanceLogitsBatch:
    def test_matches_per_row_distances(self):
        rng = np.random.default_rng(9)
        queries = rng.normal(size=(4, 6))
        mat = rng.normal(size=(5, 6))
        logits = distance_logits(ad.constant(queries), mat).data
        for t in range(4):
            expected = -np.linalg.norm(queries[t][None, :] - mat, axis=1)
            assert np.allclose(logits[t], expected, atol=1e-12)
