"""The three benchmark workloads: train, stream and gradcheck.

Each workload is a closed loop with one caller: it issues its next unit of
work only after the previous one returned. A workload builds its inputs
from the workload seed with ``generate_corpus(demo_ontology(), ...)`` (the
gradcheck workload through ``training.tiny_setup``), so the program only
ever sees generated inputs. Correctness is checked after the timed loop,
outside the timed and traced sections; a unit that fails a check counts as
failed work and is never skipped.

A workload object has:

* ``setup()`` builds the inputs and the model; the benchmark times it;
* ``step()`` runs one call of the program (a ``train()`` call, a live
  dialogue, a grad-check seed) and appends ``(seconds, turns, turn_ms)``
  to ``units`` for each unit of work in it, where ``turn_ms`` lists the
  latency of each turn, or holds the unit's time per turn where turns are
  not timed one by one. A unit is the finest step the public API shows: an
  optimizer step, a belief update, a loss evaluation; a 30 s run gets more
  than a hundred of them, enough for a steady tail;
* ``check()`` returns ``(attempted, failed)`` over every unit run so far;
* ``detail()`` returns workload-specific figures for the detail line;
* ``TAILS`` holds the percentiles of the two bounded tails, of turn
  latency and of unit time, each chosen so that a run of the length in
  ``BENCHMARK.json`` has at least ten samples beyond it (100: the slowest).

A "turn" is the unit the workload's throughput counts: a trained dialogue
turn on train, a belief update on stream, and a turn inside one loss
evaluation on gradcheck.
"""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

from maskdst import checkpoint, training
from maskdst.data import (
    Dialogue,
    GenShape,
    ValidationError,
    build_vocab,
    demo_ontology,
    generate_corpus,
)
from maskdst.model import ModelConfig, StateTracker
from timing import clock


class Train:
    """``training.train()`` with the default configs on short dialogues.

    The only workload with backward and Adam, and the one the op decoder
    runs on. A step is one ``train()`` call for a fixed number of epochs;
    every call trains a fresh tracker on the same corpus, so every call
    must return the same, finite loss curve. A unit is one optimizer step
    (the forward passes of a batch, backward and ``Adam.step``), timed from
    its first ``StateTracker.loss`` call to the end of its ``Adam.step``;
    each call is also timed whole, for ``train_turns_per_s``.
    """

    name = "train"
    TAILS = (90.0, 90.0)  # 6 optimizer steps a call, 120 to 180 a run
    DIALOGUES = 48
    EPOCHS = 1

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.n_dialogues, self.epochs = (4, 1) if quick else (self.DIALOGUES, self.EPOCHS)
        self.units = []
        self.call_s = []
        self.curves = []  # per call: the loss curve, or None when train() raised

    def setup(self):
        self.ontology = demo_ontology()
        self.dialogues = generate_corpus(self.ontology, self.n_dialogues, self.seed)
        self.vocab = build_vocab(self.dialogues, self.ontology)
        self.corpus_turns = sum(len(d.turns) for d in self.dialogues)

    def step(self):
        cfg = training.TrainConfig(epochs=self.epochs)
        # Resolved now, so a traced run times the traced methods.
        loss, adam_step = StateTracker.loss, training.Adam.step
        batch = []  # [start, turns] of the open optimizer step

        def timed_loss(tracker, dialogue, *args, **kwargs):
            if not batch:
                batch[:] = [clock(), 0]
            batch[1] += len(dialogue.turns)
            return loss(tracker, dialogue, *args, **kwargs)

        def timed_step(opt, *args, **kwargs):
            result = adam_step(opt, *args, **kwargs)
            self._close(batch)
            return result

        StateTracker.loss, training.Adam.step = timed_loss, timed_step
        t0 = clock()
        try:
            _, curve = training.train(self.ontology, self.dialogues, ModelConfig(), cfg,
                                      vocab=self.vocab)
        except training.NumericalError:
            curve = None
        finally:
            StateTracker.loss, training.Adam.step = loss, adam_step
        self.call_s.append(clock() - t0)
        if batch:  # a call that raised leaves its last optimizer step open
            self._close(batch)
        self.curves.append(curve)

    def _close(self, batch):
        start, turns = batch
        seconds = clock() - start
        self.units.append((seconds, turns, [1e3 * seconds / turns]))
        batch.clear()

    def _curve_ok(self, curve):
        return (
            curve is not None
            and len(curve) == self.epochs
            and all(math.isfinite(rec[k]) for rec in curve for k in ("l_sv", "l_sop", "l_joint"))
            and curve == self.curves[0]
        )

    def check(self):
        return len(self.curves), sum(not self._curve_ok(c) for c in self.curves)

    def detail(self):
        first = self.curves[0]
        return {
            "train_loss_final": first[-1]["l_joint"] if first else None,
            "train_turns_per_s": len(self.call_s) * self.epochs * self.corpus_turns
            / sum(self.call_s),
            "calls": len(self.curves), "dialogues": self.n_dialogues,
            "epochs": self.epochs, "turns_per_epoch": self.corpus_turns,
        }


class Stream:
    """Live tracking of 32-turn dialogues with today's API.

    For every turn t the caller runs ``StateTracker.predict`` on the prefix
    ``turns[:t]`` and keeps the last belief: forward only, ``direct`` mode,
    no op decoder, and long T, where re-encoding every turn and the
    quadratic hierarchical and slot attention dominate. The tracker is
    built from a fixed seed and goes through a checkpoint round trip, as
    ``maskdst eval`` does. A unit is one whole dialogue, so every run sees
    each depth 1..32 equally often; each belief update is timed on its own.
    """

    name = "stream"
    TAILS = (95.0, 100.0)  # 1,000 to 2,300 belief updates, 33 to 72 dialogues a run
    TURNS = 32
    POOL = 16          # distinct dialogues, cycled when a run needs more
    TRACKER_SEED = 0
    DEPTHS = (1, 8, 32)

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.pool_size = 1 if quick else self.POOL
        self.workdir = workdir
        self.units = []
        self.updates = []  # (dialogue index, depth, belief)

    def setup(self):
        self.ontology = demo_ontology()
        shape = GenShape(min_turns=self.TURNS, max_turns=self.TURNS)
        self.dialogues = generate_corpus(self.ontology, self.pool_size, self.seed, shape)
        vocab = build_vocab(self.dialogues, self.ontology)
        tracker = StateTracker(ModelConfig(seed=self.TRACKER_SEED), vocab, self.ontology)
        path = self.workdir / f"stream-{os.getpid()}.ckpt"
        try:
            checkpoint.save_checkpoint(tracker, path)
            self.tracker = checkpoint.load_checkpoint(path)
        finally:
            for p in (path, Path(checkpoint.manifest_path(path))):
                p.unlink(missing_ok=True)

    def step(self):
        index = len(self.units) % len(self.dialogues)
        dialogue = self.dialogues[index]
        turn_ms = []
        for t in range(1, len(dialogue.turns) + 1):
            prefix = Dialogue(dialogue.id, dialogue.turns[:t])
            t0 = clock()
            belief = self.tracker.predict(prefix)[-1]
            turn_ms.append(1e3 * (clock() - t0))
            self.updates.append((index, t, belief))
        self.units.append((sum(turn_ms) / 1e3, len(turn_ms), turn_ms))

    def _belief_valid(self, belief):
        try:
            for slot, value in belief.items():
                self.ontology.validate_assignment(slot, value)
        except ValidationError:
            return False
        return True

    def check(self):
        """Each prefix belief must equal ``predict`` on the full dialogue at that turn."""
        reference = {
            i: self.tracker.predict(self.dialogues[i])
            for i in sorted({i for i, _, _ in self.updates})
        }
        failed = sum(
            belief != reference[i][t - 1] or not self._belief_valid(belief)
            for i, t, belief in self.updates
        )
        return len(self.updates), failed

    def detail(self):
        depth_ms = {
            f"t{depth}": statistics.median(ms[depth - 1] for _, _, ms in self.units)
            for depth in self.DEPTHS
        }
        return {"turn_ms_median_at_depth": depth_ms, "samples_per_depth": len(self.units)}


class GradCheck:
    """``training.grad_check`` on ``tiny_setup`` (d=8, T=2, J=2).

    About 7,000 tiny loss evaluations whose tape is never used, so the
    workload measures per-node Python overhead; it is also the unit of the
    criterion-1 acceptance gate. A step is one seed at tolerance 1e-4; the
    first step uses the workload seed and each further one the next.

    A seed takes longer than a run, so a whole seed would give one sample
    per run, and its time moves with the host's fast and slow stretches
    (see ``README.md``). So a unit is one loss evaluation, timed through
    the tracker's ``loss`` as ``grad_check`` calls it; the seconds per seed
    go to the detail line.
    """

    name = "gradcheck"
    TOLERANCE = 1e-4
    TAILS = (95.0, 95.0)  # about 7,000 loss evaluations a seed

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.units = []
        self.reports = []
        self.seed_s = []
        self.evaluations = []

    def _build(self, seed):
        tracker, dialogue = training.tiny_setup(seed)
        if self.quick:
            # Same code path at a quarter of the parameters, for the self-test.
            cfg = ModelConfig(d=4, heads=1, encoder_layers=1, ff=4, hier_layers=1,
                              max_turn_tokens=24, seed=seed)
            tracker = StateTracker(cfg, tracker.vocab, tracker.ontology)
        return tracker, dialogue

    def setup(self):
        self.tracker, self.dialogue = self._build(self.seed)

    def step(self):
        seed = self.seed + len(self.reports)
        if self.reports:
            self.tracker, self.dialogue = self._build(seed)
        loss = self.tracker.loss  # resolved now, so a traced run times the traced method
        eval_s = []

        def timed_loss(*args, **kwargs):
            t0 = clock()
            try:
                return loss(*args, **kwargs)
            finally:
                eval_s.append(clock() - t0)

        self.tracker.loss = timed_loss
        t0 = clock()
        try:
            report = training.grad_check(seed, tolerance=self.TOLERANCE,
                                         tracker=self.tracker, dialogue=self.dialogue)
        finally:
            del self.tracker.loss
        self.seed_s.append(clock() - t0)
        turns = len(self.dialogue.turns)
        self.units.extend((s, turns, [1e3 * s / turns]) for s in eval_s)
        self.evaluations.append(len(eval_s))
        self.reports.append(report)

    def check(self):
        return len(self.reports), sum(not r.passed for r in self.reports)

    def detail(self):
        return {"s_per_seed": self.seed_s, "loss_evaluations": self.evaluations,
                "worst_rel_err": [max(r.max_rel_err.values()) for r in self.reports]}


WORKLOADS = {w.name: w for w in (Train, Stream, GradCheck)}
