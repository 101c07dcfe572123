"""Run acceptance criterion 5 under each floating-point setting this host can give it.

    python scripts/criterion5_sweep.py [--src <checkout>/src]

Criterion 5 (``tests/test_acceptance.py::test_criterion_5_learning_on_synthetic_corpus``)
trains the default tracker for 40 epochs on a 200-dialogue corpus and requires
train joint accuracy >= 0.99, held-out joint accuracy >= 0.90 and at most 2
loss rises after epoch 5. The BLAS kernel and numpy's SIMD level choose the
order of every sum, so the 40-epoch trajectory, and with it the result,
differs from host to host. This script repeats the test's exact calls, each
run in a fresh Python process, under:

- the host's own kernels (``default``);
- each OpenBLAS kernel among Haswell, Sandybridge and Nehalem whose
  instructions the host has, chosen by ``OPENBLAS_CORETYPE``;
- numpy at its baseline SIMD, by ``NPY_DISABLE_CPU_FEATURES``;
- three gradient perturbations (seeds 1-3): every gradient that reaches
  ``training.Adam.step`` is multiplied elementwise by ``1 + 1e-15 * u``, with
  ``u`` uniform in [-1, 1] from a seeded generator, as a kernel that rounds
  differently would perturb it.

Per run it prints train and held-out joint accuracy, the loss rises after
epoch 5, the training time, and the held-out joint accuracy after each epoch.
The per-epoch numbers come from wrapping ``training.Adam.step`` here; the
evaluation reads the weights and changes none of them. The script exits 1 if
any run fails the test's bounds or does not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"
# OpenBLAS kernel -> the numpy CPU feature the host needs to run it
CORETYPES = {"Haswell": "AVX2", "Sandybridge": "AVX", "Nehalem": "SSE42"}
BASELINE_SIMD = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
PERTURB_SEEDS = (1, 2, 3)
PERTURB_SCALE = 1e-15
# criterion 5's bounds
MAX_EPOCHS, MAX_TRAIN_S, MIN_TRAIN, MIN_HELD, MAX_RISES = 50, 900.0, 0.99, 0.90, 2


def run_criterion5(src: Path, perturb_seed):
    """Criterion 5's calls in this process; returns its numbers as a dict."""
    sys.path.insert(0, str(src))
    import numpy as np

    from maskdst import training
    if src not in Path(training.__file__).resolve().parents:
        raise SystemExit(f"maskdst imported from {training.__file__}, not {src}")
    from maskdst.data import demo_ontology, generate_corpus
    from maskdst.model import ModelConfig
    from maskdst.training import TrainConfig, evaluate, train

    onto = demo_ontology()
    corpus = generate_corpus(onto, 200, 1)
    held = generate_corpus(onto, 50, 999)
    model_cfg, train_cfg = ModelConfig(seed=0), TrainConfig(seed=0)

    trackers = []

    class RecordedTracker(training.StateTracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trackers.append(self)

    training.StateTracker = RecordedTracker
    steps_per_epoch = math.ceil(len(corpus) / train_cfg.batch_size)
    step = training.Adam.step
    rng = None if perturb_seed is None else np.random.default_rng(perturb_seed)
    calls, held_per_epoch, eval_s = [0], [], [0.0]

    def wrapped_step(opt):
        if rng is not None:
            for p in opt.params.values():
                if p.grad is not None:
                    p.grad = p.grad * (1.0 + PERTURB_SCALE * rng.uniform(-1.0, 1.0, p.grad.shape))
        step(opt)
        calls[0] += 1
        if calls[0] % steps_per_epoch == 0:
            t0 = time.time()
            held_per_epoch.append(evaluate(trackers[-1], held).joint_accuracy)
            eval_s[0] += time.time() - t0

    training.Adam.step = wrapped_step
    t0 = time.time()
    tracker, curve = train(onto, corpus, model_cfg, train_cfg)
    train_s = time.time() - t0 - eval_s[0]

    joints = [c["l_joint"] for c in curve]
    return {
        "train": evaluate(tracker, corpus).joint_accuracy,
        "held_out": evaluate(tracker, held).joint_accuracy,
        "rises": sum(1 for a, b in zip(joints[4:], joints[5:]) if b > a + 1e-9),
        "epochs": len(curve),
        "train_s": train_s,
        "held_per_epoch": held_per_epoch,
    }


def settings():
    """(name, extra environment, perturbation seed) of every run this host can make."""
    from numpy._core._multiarray_umath import __cpu_features__ as features
    runs = [("default", {}, None)]
    runs += [(f"OPENBLAS_CORETYPE={core}", {"OPENBLAS_CORETYPE": core}, None)
             for core, needs in CORETYPES.items() if features.get(needs)]
    runs.append(("baseline SIMD", {"NPY_DISABLE_CPU_FEATURES": BASELINE_SIMD}, None))
    runs += [(f"perturb seed {s}", {}, s) for s in PERTURB_SEEDS]
    return runs


def passes(result) -> bool:
    return (result["epochs"] <= MAX_EPOCHS and result["train_s"] < MAX_TRAIN_S
            and result["train"] >= MIN_TRAIN and result["held_out"] >= MIN_HELD
            and result["rises"] <= MAX_RISES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the src directory of the checkout to run (default: this one's)")
    parser.add_argument("--run", help=argparse.SUPPRESS)  # one run, in a child process
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.run is not None:
        perturb_seed = json.loads(args.run)
        print(json.dumps(run_criterion5(src, perturb_seed)))
        return 0

    print(f"criterion 5 sweep of {src}")
    print("| run | train | held-out | rises | train s | result |")
    print("|---|---|---|---|---|---|")
    runs, failed, per_epoch = settings(), 0, []
    for name, extra_env, perturb_seed in runs:
        proc = subprocess.run(
            [sys.executable, __file__, "--src", str(src), "--run", json.dumps(perturb_seed)],
            env={**os.environ, **extra_env}, capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"| {name} | | | | | FAIL (exit {proc.returncode}: {last}) |")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = passes(result)
        failed += not ok
        print(f"| {name} | {result['train']:.4f} | {result['held_out']:.4f} | "
              f"{result['rises']} | {result['train_s']:.0f} | {'pass' if ok else 'FAIL'} |",
              flush=True)
        per_epoch.append((name, result["held_per_epoch"]))
    print("\nheld-out joint accuracy after each epoch:")
    for name, accs in per_epoch:
        print(f"{name}: " + " ".join(f"{a:.3f}" for a in accs))
    print(f"\n{failed} of {len(runs)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
