"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line on
success (pytest's own report gives the FAIL line otherwise). The two
training-based criteria dominate the runtime.
"""

import time

import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst import fusion
from maskdst.data import (
    Dialogue,
    Ontology,
    StateOp,
    Turn,
    apply_state_ops,
    beliefs_equal,
    demo_ontology,
    derive_state_ops,
    generate_corpus,
    repair_inheritance,
)
from maskdst.heads import distance_logits
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import (
    TrainConfig,
    compute_metrics,
    evaluate,
    grad_check,
    run_ablation,
    train,
)
from maskdst.data import build_vocab

from reference_chains import slot_value_dist


def report(name, detail=""):
    print(f"[ACCEPTANCE] {name}: PASS {detail}".rstrip())


def test_criterion_1_gradient_check_five_seeds():
    """Analytic gradients match central differences on every trainable
    tensor across 5 seeds, worst relative error < 1e-4, within 2 minutes."""
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        rep = grad_check(seed=seed, tolerance=1e-4)
        assert rep.passed, f"seed {seed} failures: {rep.failures}"
        worst = max(worst, max(rep.max_rel_err.values()))
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"
    report("criterion-1 gradient-check",
           f"(5 seeds, worst rel err {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_2_mask_semantics_random_cases():
    """200 random (turns, kind, n) cases: masked attention weights are
    exactly zero, unmasked rows sum to 1 within 1e-12, and perturbing a
    future turn leaves every earlier row bit-identical."""
    rng = np.random.default_rng(0)
    for case in range(200):
        t_total = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        kind = fusion.GLOBAL if rng.random() < 0.5 else fusion.LOCAL
        mask = fusion.build_mask(t_total, kind, n if kind == fusion.LOCAL else None)
        logits = ad.constant(rng.normal(size=(t_total, t_total)))
        weights = ad.masked_softmax(logits, mask.entries).data
        blocked = mask.entries == -np.inf
        assert np.all(weights[blocked] == 0.0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12, rtol=0.0)
        # receptive-field probe: perturb one future/out-of-window column
        if t_total > 1:
            i = int(rng.integers(0, t_total - 1))
            j = int(rng.integers(i + 1, t_total))
            bumped = logits.data.copy()
            bumped[:, j] += 100.0
            weights2 = ad.masked_softmax(ad.constant(bumped), mask.entries).data
            assert weights2[i].tobytes() == weights[i].tobytes()
    report("criterion-2 mask-semantics", "(200 random cases)")


def test_criterion_3_wide_local_window_equals_full_prefix():
    """With shared branch weights and a window covering the whole prefix,
    the windowed slot context equals the full-prefix one within 1e-9."""
    onto = demo_ontology()
    dialogues = generate_corpus(onto, 50, seed=77)
    vocab = build_vocab(dialogues, onto)
    cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1,
                      n_history=10, tie_paths=True, seed=0)
    tracker = StateTracker(cfg, vocab, onto)
    worst = 0.0
    for d in dialogues:
        out = tracker.forward(d, keep_contexts=True, with_ops=False)
        for slot in onto.slot_names:
            glob_ctx, loc_ctx, _ = out.contexts[slot]
            worst = max(worst, float(np.abs(glob_ctx.data - loc_ctx.data).max()))
    assert worst < 1e-9, f"max branch divergence {worst:.2e}"
    report("criterion-3 window-equivalence",
           f"(50 dialogues, max diff {worst:.1e})")


def test_criterion_4_label_round_trip_and_repair():
    """Operation labels derived from 1000 generated dialogues reconstruct
    every belief state exactly; repair restores all injected inheritance
    drops and is idempotent; a hand-encoded dialogue gets the expected ops."""
    onto = demo_ontology()
    dialogues = generate_corpus(onto, 1000, seed=13)
    turns_checked = 0
    for d in dialogues:
        prev = {}
        for turn in d.turns:
            ops = derive_state_ops(prev, turn.belief, onto)
            prev = apply_state_ops(prev, ops, turn.belief)
            assert beliefs_equal(prev, turn.belief, onto)
            turns_checked += 1

    # inject inheritance drops, repair must restore exactly those
    injected = 0
    broken = []
    for d in dialogues[:50]:
        turns = [Turn(t.system, t.user, dict(t.belief)) for t in d.turns]
        for prev_t, cur in zip(turns, turns[1:]):
            inherited = [s for s, v in cur.belief.items()
                         if prev_t.belief.get(s) == v]
            if inherited:
                del cur.belief[inherited[0]]
                injected += 1
                break
        broken.append(Dialogue(d.id, turns))
    restored = 0
    for orig, b in zip(dialogues, broken):
        fixed, rep = repair_inheritance(b, onto)
        restored += sum(e["modified"] for e in rep.per_slot.values())
        for ft, ot in zip(fixed.turns, orig.turns):
            assert beliefs_equal(ft.belief, ot.belief, onto)
        again, rep2 = repair_inheritance(fixed, onto)
        assert sum(e["modified"] for e in rep2.per_slot.values()) == 0
    assert restored == injected

    # hand-encoded dialogue: update at turn 2, carryover at 3, re-update at 4
    hand_onto = Ontology({
        "price range": ["none", "dontcare", "cheap"],
        "restaurant-name": ["none", "dontcare", "Royal Spice", "Da Vinci Pizzeria"],
        "food": ["none", "dontcare", "Indian", "Italian"],
    })
    beliefs = [
        {"price range": "cheap"},
        {"price range": "cheap", "restaurant-name": "Royal Spice", "food": "Indian"},
        {"price range": "cheap", "restaurant-name": "Royal Spice", "food": "Indian"},
        {"price range": "cheap", "restaurant-name": "Da Vinci Pizzeria",
         "food": "Italian"},
    ]
    prev = {}
    derived = []
    for b in beliefs:
        derived.append(derive_state_ops(prev, b, hand_onto))
        prev = b
    assert derived[0]["price range"] is StateOp.UPDATE
    assert derived[1]["restaurant-name"] is StateOp.UPDATE
    assert derived[1]["food"] is StateOp.UPDATE
    assert derived[1]["price range"] is StateOp.CARRYOVER
    assert all(op is StateOp.CARRYOVER for op in derived[2].values())
    assert derived[3]["restaurant-name"] is StateOp.UPDATE
    assert derived[3]["food"] is StateOp.UPDATE
    report("criterion-4 label-round-trip",
           f"({turns_checked} turns, {injected} drops restored)")


def test_criterion_5_learning_on_synthetic_corpus():
    """Default configuration fits a 200-dialogue corpus within 50 epochs:
    training joint accuracy >= 0.99, 50-dialogue held-out >= 0.90, under
    15 minutes, with a near-monotone loss curve after warmup."""
    onto = demo_ontology()
    corpus = generate_corpus(onto, 200, 1)
    held = generate_corpus(onto, 50, 999)
    t0 = time.time()
    tracker, curve = train(onto, corpus, ModelConfig(seed=0),
                           TrainConfig(seed=0))
    elapsed = time.time() - t0
    assert len(curve) <= 50
    assert elapsed < 900.0, f"training took {elapsed:.0f}s"
    train_acc = evaluate(tracker, corpus).joint_accuracy
    held_acc = evaluate(tracker, held).joint_accuracy
    assert train_acc >= 0.99, f"train joint accuracy {train_acc:.4f}"
    assert held_acc >= 0.90, f"held-out joint accuracy {held_acc:.4f}"
    joints = [c["l_joint"] for c in curve]
    violations = sum(
        1 for a, b in zip(joints[4:], joints[5:]) if b > a + 1e-9
    )
    assert violations <= 2, f"{violations} loss-curve increases after epoch 5"
    report("criterion-5 learning",
           f"(train {train_acc:.3f}, held-out {held_acc:.3f}, {elapsed:.0f}s, "
           f"{violations} curve violations)")


def test_criterion_6_metric_fixtures():
    """Hand-counted metric fixtures are reproduced exactly and joint
    accuracy never exceeds slot accuracy."""
    onto = Ontology({
        "a": ["none", "dontcare", "x"],
        "b": ["none", "dontcare", "y"],
        "c": ["none", "dontcare", "z"],
    })
    gold = {"a": "x", "b": "y", "c": "z"}
    rep = compute_metrics([(gold, dict(gold)),
                           (gold, {"a": "x", "b": "y"})], onto)
    assert rep.joint_accuracy == pytest.approx(0.5, abs=1e-15)
    assert rep.slot_accuracy == pytest.approx(5 / 6, abs=1e-15)
    rep2 = compute_metrics([({"a": "x", "b": "y"}, {"a": "x", "c": "z"})], onto)
    assert rep2.precision == pytest.approx(0.5, abs=1e-15)
    assert rep2.recall == pytest.approx(0.5, abs=1e-15)
    assert rep2.f1 == pytest.approx(0.5, abs=1e-15)

    rng = np.random.default_rng(1)
    for _ in range(50):
        pairs = []
        for _ in range(20):
            g = {s: "x" if rng.random() < 0.5 else None for s in ("a",)}
            gold_b = {s: onto.values_of(s)[2] for s, v in g.items() if v}
            p = {s: "x" if rng.random() < 0.5 else None for s in ("a", "b")}
            pred_b = {s: onto.values_of(s)[2] for s, v in p.items() if v}
            pairs.append((gold_b, pred_b))
        r = compute_metrics(pairs, onto)
        assert r.joint_accuracy <= r.slot_accuracy + 1e-15
    report("criterion-6 metrics", "(fixtures exact, joint <= slot)")


def test_criterion_7_ablation_runner():
    """Joint vs value-only training across 5 seeds on identical splits
    produces the full 10-row table; the per-seed trend sign is logged."""
    onto = demo_ontology()
    dialogues = generate_corpus(onto, 30, seed=3)
    mcfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1)
    tcfg = TrainConfig(epochs=3, seed=0)
    rows, summary = run_ablation(onto, dialogues, mcfg, tcfg, seeds=range(5))
    assert len(rows) == 10
    assert {r["variant"] for r in rows} == {"JOINT", "SV_ONLY"}
    assert all(0.0 <= r["joint_accuracy"] <= 1.0 for r in rows)
    signs = [entry["sign"] for entry in summary["per_seed"].values()]
    assert len(signs) == 5
    mean_delta = np.mean([e["delta"] for e in summary["per_seed"].values()])
    report("criterion-7 ablation",
           f"(10 runs, per-seed signs {signs}, mean delta {mean_delta:+.4f})")


def test_criterion_8_distance_head_geometry():
    """Slot-value scores equal negative Euclidean distances: invariant to
    joint translation, argmax is the nearest candidate, and the two-value
    fixture probability is exact to 1e-12."""
    rng = np.random.default_rng(4)
    for _ in range(500):
        t_total = int(rng.integers(1, 5))
        n_vals = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        q = rng.normal(size=(t_total, d))
        v = rng.normal(size=(n_vals, d))
        logits = distance_logits(ad.constant(q), v).data
        direct = -np.linalg.norm(q[:, None, :] - v[None, :, :], axis=2)
        assert np.allclose(logits, direct, atol=1e-12, rtol=0.0)
        shift = rng.normal(size=d)
        shifted = distance_logits(ad.constant(q + shift), v + shift).data
        assert np.allclose(shifted, logits, atol=1e-9, rtol=0.0)
        for t in range(t_total):
            nearest = int(np.argmin(np.linalg.norm(v - q[t], axis=1)))
            assert int(np.argmax(logits[t])) == nearest

    # fixture: distances 1 and 2 -> softmax(-1, -2)
    v = np.array([[1.0, 0.0], [2.0, 0.0]])
    probs = slot_value_dist(ad.constant(np.zeros(2)), v).probs.data
    expected = np.exp([-1.0, -2.0])
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-12, rtol=0.0)
    report("criterion-8 distance-head", "(500 random draws + exact fixture)")
