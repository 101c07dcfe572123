"""Training loop (Adam + gradient clipping), evaluation metrics, the
two-variant ablation runner, and the finite-difference gradient checker.

Everything is deterministic given the seeds: parameter init, data order,
and all reductions are serial.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autodiff as ad
from .data import (
    NONE_VALUE,
    Dialogue,
    GenShape,
    Ontology,
    ValidationError,
    Vocabulary,
    belief_value,
    build_vocab,
    generate_corpus,
)
from .heads import DIRECT
from .model import ConfigError, ModelConfig, StateTracker, check_config

JOINT_MODE = "JOINT"
SV_ONLY_MODE = "SV_ONLY"
# Global gradient-norm bound that train() gives Adam; Adam's decay rates and epsilon.
CLIP_NORM = 1.0
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
# Share of the corpus that run_ablation holds out; grad_check's central-difference step.
DEV_FRACTION, FD_STEP = 0.2, 1e-5


class NumericalError(RuntimeError):
    """Training or grad checking hit NaN / out-of-tolerance gradients."""


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 8
    lr: float = 3e-3
    seed: int = 0
    loss_mode: str = JOINT_MODE

    def __post_init__(self):
        check_config(self, {"epochs": 1, "batch_size": 1})
        if not self.lr > 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.lr == math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.loss_mode not in (JOINT_MODE, SV_ONLY_MODE):
            raise ConfigError(f"unknown loss mode {self.loss_mode!r}")


# -- optimizer -----------------------------------------------------------

class Adam:
    def __init__(self, params: dict, lr, clip_norm=None):
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        live = {k: p for k, p in self.params.items() if p.grad is not None}
        if not live:
            return
        if self.clip_norm is not None:
            total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in live.values()))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                for p in live.values():
                    p.grad = p.grad * scale
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for k, p in live.items():
            g = p.grad
            self.m[k] = ADAM_B1 * self.m[k] + (1.0 - ADAM_B1) * g
            self.v[k] = ADAM_B2 * self.v[k] + (1.0 - ADAM_B2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- metrics -------------------------------------------------------------

@dataclass
class MetricsReport:
    joint_accuracy: float
    slot_accuracy: float
    precision: float
    recall: float
    f1: float
    turn_count: int
    per_slot: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def compute_metrics(turn_pairs, ontology: Ontology) -> MetricsReport:
    """Score (gold belief, predicted belief) pairs, one per turn.

    Joint accuracy is exact full-state match; slot accuracy counts "none"
    slots; precision/recall/F1 are micro-averaged over value-bearing
    assignments only.
    """
    slots = ontology.slot_names
    turns = len(turn_pairs)
    joint_hits = 0
    slot_hits = 0
    tp = pred_pos = gold_pos = 0
    per_slot = {s: {"total": 0, "correct": 0} for s in slots}
    for gold, pred in turn_pairs:
        all_ok = True
        for s in slots:
            gv = belief_value(gold, s)
            pv = belief_value(pred, s)
            ok = gv == pv
            all_ok = all_ok and ok
            slot_hits += ok
            per_slot[s]["total"] += 1
            per_slot[s]["correct"] += ok
            if pv != NONE_VALUE:
                pred_pos += 1
                if gv == pv:
                    tp += 1
            if gv != NONE_VALUE:
                gold_pos += 1
        joint_hits += all_ok
    precision = tp / pred_pos if pred_pos else 0.0
    recall = tp / gold_pos if gold_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        joint_accuracy=joint_hits / turns if turns else 0.0,
        slot_accuracy=slot_hits / (turns * len(slots)) if turns else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        turn_count=turns,
        per_slot={
            s: {"accuracy": e["correct"] / e["total"] if e["total"] else 0.0,
                "total": e["total"]}
            for s, e in per_slot.items()
        },
    )


def evaluate(tracker: StateTracker, dialogues, mode: str = DIRECT) -> MetricsReport:
    pairs = []
    for d in dialogues:
        d.validate(tracker.ontology)
        preds = tracker.predict(d, mode)
        for turn, pred in zip(d.turns, preds):
            pairs.append((turn.belief, pred))
    return compute_metrics(pairs, tracker.ontology)


# -- training ------------------------------------------------------------

def train(ontology: Ontology, dialogues, model_cfg: ModelConfig,
          train_cfg: TrainConfig, vocab: Vocabulary = None):
    """Fit a tracker on the corpus; returns (tracker, loss curve).

    The curve holds one record per epoch with per-dialogue average l_sv,
    l_sop and l_joint.
    """
    if not dialogues:
        raise ValidationError("training corpus is empty")
    vocab = vocab or build_vocab(dialogues, ontology)
    tracker = StateTracker(model_cfg, vocab, ontology)
    opt = Adam(tracker.params, train_cfg.lr, clip_norm=CLIP_NORM)
    order_rng = random.Random(train_cfg.seed)
    sv_only = train_cfg.loss_mode == SV_ONLY_MODE

    curve = []
    for epoch in range(1, train_cfg.epochs + 1):
        order = list(range(len(dialogues)))
        order_rng.shuffle(order)
        epoch_sv = epoch_sop = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [dialogues[i] for i in order[start:start + train_cfg.batch_size]]
            tracker.zero_grads()
            total = None
            for d in batch:
                loss, report = tracker.loss(d, sv_only=sv_only)
                if not math.isfinite(report.l_joint):
                    raise NumericalError(
                        f"non-finite loss on dialogue {d.id!r} (epoch {epoch})"
                    )
                epoch_sv += report.l_sv
                epoch_sop += report.l_sop
                total = loss if total is None else total + loss
            ad.backward(total * (1.0 / len(batch)))
            opt.step()
        n = len(dialogues)
        curve.append({
            "epoch": epoch,
            "l_sv": epoch_sv / n,
            "l_sop": epoch_sop / n,
            "l_joint": (epoch_sv + epoch_sop) / n,
        })
    return tracker, curve


def write_csv(rows, path):
    """Write dict rows (a loss curve or an ablation table) as CSV, with the
    keys of the first row as the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# -- ablation runner -----------------------------------------------------

def run_ablation(ontology: Ontology, dialogues, model_cfg: ModelConfig,
                 train_cfg: TrainConfig, seeds):
    """Train the joint and value-only variants per seed on identical splits.

    Returns (rows, summary): rows are dicts variant/seed/joint_accuracy;
    summary holds mean and spread per variant plus the per-seed sign of
    (JOINT - SV_ONLY).
    """
    if len(seeds) < 2:
        raise ConfigError("ablation needs at least 2 seeds")
    n_dev = max(1, int(len(dialogues) * DEV_FRACTION))
    train_set, dev_set = dialogues[:-n_dev], dialogues[-n_dev:]
    rows = []
    per_seed = {}
    for seed in seeds:
        accs = {}
        for variant in (JOINT_MODE, SV_ONLY_MODE):
            mcfg = replace(model_cfg, seed=seed)
            tcfg = replace(train_cfg, seed=seed, loss_mode=variant)
            tracker, _ = train(ontology, train_set, mcfg, tcfg)
            acc = evaluate(tracker, dev_set).joint_accuracy
            rows.append({"variant": variant, "seed": seed, "joint_accuracy": acc})
            accs[variant] = acc
        delta = accs[JOINT_MODE] - accs[SV_ONLY_MODE]
        per_seed[seed] = {"delta": delta, "sign": int(np.sign(delta))}
    summary = {}
    for variant in (JOINT_MODE, SV_ONLY_MODE):
        vals = [r["joint_accuracy"] for r in rows if r["variant"] == variant]
        summary[variant] = {
            "mean": float(np.mean(vals)),
            "spread": float(np.max(vals) - np.min(vals)),
        }
    summary["per_seed"] = per_seed
    return rows, summary


# -- finite-difference gradient check ------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: dict      # tensor name -> worst relative error
    tolerance: float
    failures: list

    @property
    def passed(self):
        return not self.failures


def tiny_setup(seed: int):
    """A deliberately small model/corpus pair for tractable finite differences."""
    ontology = Ontology({
        "food": [NONE_VALUE, "dontcare", "thai", "greek"],
        "area": [NONE_VALUE, "dontcare", "north", "south"],
    })
    dialogues = generate_corpus(ontology, 1, seed, GenShape(min_turns=2, max_turns=2))
    vocab = build_vocab(dialogues, ontology)
    cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1,
                      max_turn_tokens=24, seed=seed)
    tracker = StateTracker(cfg, vocab, ontology)
    return tracker, dialogues[0]


def grad_check(seed: int = 0, tolerance: float = 1e-4,
               tracker: StateTracker = None, dialogue: Dialogue = None) -> GradCheckReport:
    """Compare analytic gradients of the joint loss with central differences.

    Relative error uses a small floor so finite-difference noise on
    near-zero entries does not register as failure. A NaN error (from a
    non-finite gradient or loss) is its tensor's worst and fails it.
    """
    if tracker is None:
        tracker, dialogue = tiny_setup(seed)

    tracker.zero_grads()
    loss, _ = tracker.loss(dialogue)
    ad.backward(loss)
    analytic = {
        k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for k, p in tracker.params.items()
    }

    def loss_value():
        # about 7,000 evaluations per call whose tape would never be used
        with ad.no_grad():
            return tracker.loss(dialogue)[0].item()

    max_rel_err = {}
    failures = []
    for name, p in tracker.params.items():
        worst = 0.0
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss_value()
            flat[i] = orig - FD_STEP
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * FD_STEP)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = np.maximum(worst, rel)  # NaN propagates; max() would drop it
        max_rel_err[name] = worst
        if not worst < tolerance:
            failures.append((name, worst))
    return GradCheckReport(max_rel_err=max_rel_err, tolerance=tolerance,
                           failures=failures)
