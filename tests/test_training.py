import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst.data import demo_ontology, generate_corpus, build_vocab
from maskdst.encoders import ConfigError
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import (
    Adam,
    GradCheckReport,
    MetricsReport,
    SV_ONLY_MODE,
    TrainConfig,
    compute_metrics,
    evaluate,
    grad_check,
    run_ablation,
    tiny_setup,
    train,
)


@pytest.fixture(scope="module")
def small_world():
    onto = demo_ontology()
    corpus = generate_corpus(onto, 12, seed=31)
    return onto, corpus


def small_model_cfg(**kw):
    base = dict(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestMetrics:
    def onto(self):
        from maskdst.data import Ontology
        return Ontology({
            "a": ["none", "dontcare", "x"],
            "b": ["none", "dontcare", "y"],
            "c": ["none", "dontcare", "z"],
        })

    def test_hand_counted_joint_and_slot(self):
        gold1 = {"a": "x", "b": "y", "c": "z"}
        pred1 = dict(gold1)
        gold2 = {"a": "x", "b": "y", "c": "z"}
        pred2 = {"a": "x", "b": "y"}  # one of three slots wrong
        report = compute_metrics([(gold1, pred1), (gold2, pred2)], self.onto())
        assert report.joint_accuracy == pytest.approx(0.5)
        assert report.slot_accuracy == pytest.approx(5 / 6)

    def test_hand_counted_prf(self):
        from maskdst.data import Ontology
        onto = Ontology({
            "a": ["none", "dontcare", "x"],
            "b": ["none", "dontcare", "y"],
            "c": ["none", "dontcare", "z"],
        })
        gold = {"a": "x", "b": "y"}
        pred = {"a": "x", "c": "z"}
        report = compute_metrics([(gold, pred)], onto)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)

    def test_perfect_predictions(self):
        gold = {"a": "x", "b": "dontcare"}
        report = compute_metrics([(gold, dict(gold))], self.onto())
        assert report.joint_accuracy == 1.0
        assert report.slot_accuracy == 1.0
        assert report.precision == report.recall == report.f1 == 1.0

    def test_f1_identity(self):
        for pairs in (
            [({"a": "x"}, {})],
            [({"a": "x"}, {"a": "x", "b": "y"})],
            [({}, {})],
        ):
            r = compute_metrics(pairs, self.onto())
            if r.precision + r.recall > 0:
                expected = 2 * r.precision * r.recall / (r.precision + r.recall)
                assert r.f1 == pytest.approx(expected, abs=1e-15)
            else:
                assert r.f1 == 0.0

    def test_joint_never_exceeds_slot(self):
        rng = np.random.default_rng(0)
        onto = self.onto()
        slots = onto.slot_names
        pairs = []
        for _ in range(200):
            gold = {s: "x" if rng.random() < 0.4 else "none" for s in slots}
            pred = {s: "x" if rng.random() < 0.4 else "none" for s in slots}
            gold = {s: v for s, v in gold.items() if v != "none"}
            pred = {s: v for s, v in pred.items() if v != "none"}
            gold = {s: onto.values_of(s)[2] for s in gold}
            pred = {s: onto.values_of(s)[2] for s in pred}
            pairs.append((gold, pred))
        r = compute_metrics(pairs, onto)
        assert r.joint_accuracy <= r.slot_accuracy


class TestAdam:
    def test_skips_parameters_without_gradients(self):
        a = ad.parameter(np.ones(3))
        b = ad.parameter(np.ones(3))
        opt = Adam({"a": a, "b": b}, lr=0.1)
        a.grad = np.ones(3)
        before = b.data.copy()
        opt.step()
        assert np.array_equal(b.data, before)
        assert not np.array_equal(a.data, np.ones(3))

    def test_clipping_bounds_update_norm(self):
        p = ad.parameter(np.zeros(4))
        opt = Adam({"p": p}, lr=0.01, clip_norm=1.0)
        p.grad = np.full(4, 1000.0)
        opt.step()
        # first-step Adam update magnitude is at most lr per coordinate
        assert np.abs(p.data).max() <= 0.01 + 1e-12
        assert np.linalg.norm(p.grad) <= 1.0 + 1e-12


class TestTrain:
    def test_determinism_same_seed_same_curve(self, small_world):
        onto, corpus = small_world
        cfg = small_model_cfg()
        tcfg = TrainConfig(epochs=2, seed=3, batch_size=4)
        _, curve_a = train(onto, corpus, cfg, tcfg)
        _, curve_b = train(onto, corpus, cfg, tcfg)
        assert curve_a == curve_b

    def test_sv_only_freezes_op_branch(self, small_world):
        onto, corpus = small_world
        cfg = small_model_cfg()
        vocab = build_vocab(corpus, onto)
        reference = StateTracker(cfg, vocab, onto)
        op_before = {k: p.data.copy() for k, p in reference.params.items()
                     if k.startswith("op.")}
        tracker, curve = train(onto, corpus, cfg,
                               TrainConfig(epochs=2, seed=0, loss_mode=SV_ONLY_MODE))
        assert all(c["l_sop"] == 0.0 for c in curve)
        for k, before in op_before.items():
            assert np.array_equal(tracker.params[k].data, before)

    def test_joint_mode_moves_op_branch(self, small_world):
        onto, corpus = small_world
        cfg = small_model_cfg()
        tracker, curve = train(onto, corpus, cfg, TrainConfig(epochs=1, seed=0))
        assert curve[0]["l_sop"] > 0
        vocab = build_vocab(corpus, onto)
        fresh = StateTracker(cfg, vocab, onto)
        moved = any(
            not np.array_equal(tracker.params[k].data, fresh.params[k].data)
            for k in tracker.params if k.startswith("op.")
        )
        assert moved

    def test_frozen_catalog_constant_across_training(self, small_world):
        onto, corpus = small_world
        cfg = small_model_cfg()
        tracker, _ = train(onto, corpus, cfg, TrainConfig(epochs=1, seed=0))
        vocab = build_vocab(corpus, onto)
        fresh = StateTracker(cfg, vocab, onto)
        for slot in onto.slot_names:
            assert np.array_equal(tracker.catalog.value_mats[slot],
                                  fresh.catalog.value_mats[slot])

    @pytest.mark.parametrize("seed", range(5))
    def test_descent_sanity_small_step(self, seed):
        onto = demo_ontology()
        corpus = generate_corpus(onto, 3, seed=seed + 70)
        cfg = small_model_cfg(seed=seed)
        vocab = build_vocab(corpus, onto)
        tracker = StateTracker(cfg, vocab, onto)

        def batch_loss():
            total = 0.0
            for d in corpus:
                total += tracker.loss(d)[1].l_joint
            return total

        before = batch_loss()
        tracker.zero_grads()
        agg = None
        for d in corpus:
            loss, _ = tracker.loss(d)
            agg = loss if agg is None else agg + loss
        ad.backward(agg)
        for p in tracker.params.values():
            if p.grad is not None:
                p.data = p.data - 1e-4 * p.grad
        assert batch_loss() < before

    def test_evaluate_pure(self, small_world):
        onto, corpus = small_world
        cfg = small_model_cfg()
        vocab = build_vocab(corpus, onto)
        tracker = StateTracker(cfg, vocab, onto)
        a = evaluate(tracker, corpus)
        b = evaluate(tracker, corpus)
        assert a == b


class TestAblation:
    def test_table_shape(self, small_world):
        onto, corpus = small_world
        rows, summary = run_ablation(
            onto, corpus, small_model_cfg(),
            TrainConfig(epochs=1, seed=0), seeds=[0, 1],
        )
        assert len(rows) == 4  # 2 variants x 2 seeds
        assert {r["variant"] for r in rows} == {"JOINT", "SV_ONLY"}
        assert set(summary["per_seed"]) == {0, 1}
        for entry in summary["per_seed"].values():
            assert entry["sign"] in (-1, 0, 1)

    def test_requires_two_seeds(self, small_world):
        onto, corpus = small_world
        with pytest.raises(ValueError):
            run_ablation(onto, corpus, small_model_cfg(),
                         TrainConfig(epochs=1), seeds=[0])


class TestGradCheck:
    def test_passes_on_fresh_init(self):
        report = grad_check(seed=1)
        assert report.passed, report.failures
        assert max(report.max_rel_err.values()) < 1e-4

    def test_corrupted_backward_rule_is_flagged(self, monkeypatch):
        tracker, dialogue = tiny_setup(2)

        def broken_relu(a):
            a = ad.as_tensor(a)
            out = np.maximum(a.data, 0.0)

            def bwd(g):
                return (g * (a.data > 0.0) * 1.5,)  # wrong scale

            return ad.Tensor(out, _parents=(a,), _backward=bwd)

        monkeypatch.setattr(ad, "relu", broken_relu)
        report = grad_check(tracker=tracker, dialogue=dialogue)
        assert not report.passed
        flagged = {name for name, _ in report.failures}
        assert any(".ff1." in name for name in flagged)

    @staticmethod
    def scaled_backward(op):
        """``op`` whose taped result's backward rule returns every term scaled by 1.5."""
        def broken(*args):
            result = op(*args)
            node = result[0] if isinstance(result, tuple) else result
            rule = node._backward
            if rule is not None:
                node._backward = lambda g: tuple(None if t is None else t * 1.5 for t in rule(g))
            return result
        return broken

    @pytest.mark.parametrize("op,prefix", [("linear", "op.out."), ("gate_mix", "gate.")])
    def test_corrupted_fused_backward_rule_is_flagged(self, monkeypatch, op, prefix):
        tracker, dialogue = tiny_setup(2)
        monkeypatch.setattr(ad, op, self.scaled_backward(getattr(ad, op)))
        report = grad_check(tracker=tracker, dialogue=dialogue)
        assert not report.passed
        flagged = {name for name, _ in report.failures}
        assert any(name.startswith(prefix) for name in flagged)

    def test_frozen_tensors_absent_from_report(self):
        report = grad_check(seed=3)
        assert not any(name.startswith("frozen") for name in report.max_rel_err)


class TestTrainConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_mode="BOGUS")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)


class TestModelConfigValidation:
    def test_turn_frame_needs_three_tokens(self):
        with pytest.raises(ConfigError, match="max_turn_tokens"):
            ModelConfig(max_turn_tokens=2)
        assert ModelConfig(max_turn_tokens=3).max_turn_tokens == 3

    def test_dim_head_divisibility(self):
        with pytest.raises(ConfigError, match="not divisible by 4 heads"):
            ModelConfig(d=30, heads=4)
