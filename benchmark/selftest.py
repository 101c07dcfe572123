"""Self-test of the benchmark itself.

    python3 benchmark/selftest.py

Runs every workload in quick mode, untraced and traced, and checks that:

* each run is correct and prints exactly the metrics ``BENCHMARK.json``
  names, each with its unit (the table of them is printed);
* the traced runs reproduce the known call structure: op decoder steps
  per turn equal the slot count on train and gradcheck and are 0 on
  stream; turn encodings per turn are 1 on train and gradcheck and
  (T+1)/2 on stream; span self times sum to the traced CPU time within
  10%;
* injected faults count as failed work: a belief that differs from the
  full-dialogue prediction, a belief outside the ontology, a non-finite
  loss inside training and in the returned loss curve, and a wrong
  gradient;
* without the program's sources the benchmark exits non-zero and prints
  no result.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys

import run

STREAM_TURNS = 32
SLOTS = {"train": 3, "stream": 3, "gradcheck": 2}
COVERAGE_TOLERANCE = 0.10


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            self.failures.append(what)


def quick(workload, trace):
    result, _ = run.run(workload, seed=0, seconds=0, trace=trace, quick=True)
    return result


def check_metrics(checks, workload, trace, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    checks.expect(got == want, f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
    checks.expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{workload} trace={trace}: every metric value is finite")
    checks.expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, {result['attempted']} attempted, "
                  f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"      {name:48s} {m['value']:>14.6g} {m['unit']}")


def check_structure(checks, workload, result):
    m = {name: v["value"] for name, v in result["metrics"].items()}
    ops = m["heads.op_decoder_step.calls_per_turn"]
    encodes = m["encoders.encode_turn.calls_per_turn"]
    want_ops = 0.0 if workload == "stream" else float(SLOTS[workload])
    want_encodes = (STREAM_TURNS + 1) / 2 if workload == "stream" else 1.0
    checks.expect(ops == want_ops, f"{workload}: op decoder steps per turn {ops} == {want_ops}")
    checks.expect(encodes == want_encodes,
                  f"{workload}: turn encodings per turn {encodes} == {want_encodes}")
    share = m["trace.self_time_share"]
    checks.expect(abs(share - 1.0) <= COVERAGE_TOLERANCE,
                  f"{workload}: span self times cover {share:.3f} of the traced CPU time")


def check_fault(checks, what, workload, owner, attr, make):
    with patched(owner, attr, make):
        result = quick(workload, trace=0)
    checks.expect(result["failed"] >= 1 and not result["correct"],
                  f"{what}: counted as failed ({result['failed']} of {result['attempted']})")


def wrong_prefix_belief(predict):
    """Change the belief at turn 3 only when predicting on the 3-turn prefix."""
    def faulty(self, dialogue, *args, **kwargs):
        beliefs = predict(self, dialogue, *args, **kwargs)
        if len(dialogue.turns) == 3:
            slot = self.ontology.slot_names[0]
            other = next(v for v in self.ontology.real_values(slot)
                         if v != beliefs[-1].get(slot))
            beliefs[-1] = {**beliefs[-1], slot: other}
        return beliefs
    return faulty


def invalid_belief(predict):
    """Put a value outside the ontology at turn 3 of every prediction, prefix and full."""
    def faulty(self, dialogue, *args, **kwargs):
        beliefs = predict(self, dialogue, *args, **kwargs)
        if len(beliefs) >= 3:
            beliefs[2] = {**beliefs[2], self.ontology.slot_names[0]: "not-in-ontology"}
        return beliefs
    return faulty


def nan_loss_report(loss):
    def faulty(self, dialogue, *args, **kwargs):
        total, report = loss(self, dialogue, *args, **kwargs)
        report.l_joint = float("nan")
        return total, report
    return faulty


def nan_curve(train):
    def faulty(*args, **kwargs):
        tracker, curve = train(*args, **kwargs)
        curve[-1]["l_joint"] = float("nan")
        return tracker, curve
    return faulty


def scaled_gradient(backward):
    """Back-propagate from 1.5 x the loss, so every analytic gradient is 50% off."""
    def faulty(loss):
        backward(loss * 1.5)
    return faulty


def check_no_sources(checks):
    """Copy only BENCHMARK.json and the benchmark into a bare directory and run it there."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "train", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    checks.expect(proc.returncode != 0 and not printed_result,
                  f"without sources: exit code {proc.returncode}, no result printed")


def main():
    run.import_program()
    from maskdst import autodiff, model, training

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    checks = Checks()
    for workload in ("train", "stream", "gradcheck"):
        for trace in (0, 1):
            print(f"{workload}, trace={trace}")
            result = quick(workload, trace)
            kind = "per_layer" if trace else "end_to_end"
            check_metrics(checks, workload, trace, result, declared[kind])
            if trace:
                check_structure(checks, workload, result)

    print("injected faults")
    check_fault(checks, "stream: prefix belief differs from full-dialogue belief", "stream",
                model.StateTracker, "predict", wrong_prefix_belief)
    check_fault(checks, "stream: belief outside the ontology", "stream",
                model.StateTracker, "predict", invalid_belief)
    check_fault(checks, "train: non-finite loss during training", "train",
                model.StateTracker, "loss", nan_loss_report)
    check_fault(checks, "train: non-finite loss in the returned curve", "train",
                training, "train", nan_curve)
    check_fault(checks, "gradcheck: wrong analytic gradient", "gradcheck",
                autodiff, "backward", scaled_gradient)

    print("bare directory")
    check_no_sources(checks)

    print(f"{len(checks.failures)} check(s) failed" if checks.failures else "all checks passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
