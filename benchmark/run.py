"""maskdst benchmark: one workload per process, one JSON result line.

Run from the root of a checkout:

    python3 benchmark/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads are ``train``, ``stream`` and ``gradcheck`` (see
``benchmark/README.md``). With ``--trace 0`` the run times the workload
untraced and reports the end-to-end metrics. With ``--trace 1`` it runs
the workload untraced and then traced, each for half of ``--seconds``,
and reports per-layer metrics plus the tracing overhead; the spans go to
``benchmark/out/``.

Standard output holds a ``host`` line, a ``detail`` line and, last, the
result: ``{"correct", "attempted", "failed", "metrics"}``. Without the
program's sources under ``src/maskdst`` the run exits with code 1 and
prints no result.
"""

import os

# The model is interpreter-bound at d=32; one BLAS thread keeps timings
# free of thread start-up and contention. Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from timing import clock  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up runs SETUP_RUNS // 2 times before the timed loop, once after every
# step and, at the end, until it has run SETUP_RUNS times; setup_s is the
# median. Host speed drifts over tens of seconds, so spreading the set-ups
# over the loop samples it the way the units do.
SETUP_RUNS = 10

# The end-to-end timings are tails because on a shared host the same work
# runs up to 2x faster for stretches of a run: medians move with the share
# of those stretches, while the slow side of a run is steadier from run to
# run. Medians go to the detail line. Each workload fixes the percentile of
# its tails (TAILS), so that a tail never changes percentile with the
# number of samples a run happens to get.


def host_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def measure(workload, seconds, after_step=None):
    """Closed loop: run steps until `seconds` of wall time have passed (at least one).

    Calls `after_step()`, if given, after every step. Returns the wall and
    CPU seconds of the loop; their gap is the time the host gave to other
    processes.
    """
    t0, c0 = time.perf_counter(), clock()
    while True:
        workload.step()
        if after_step is not None:
            after_step()
        if time.perf_counter() >= t0 + seconds:
            return time.perf_counter() - t0, clock() - c0


def timed_setup(workload, times):
    t0 = clock()
    workload.setup()
    times.append(clock() - t0)


def run_untraced(cls, seed, seconds, quick):
    workload = cls(seed, quick, OUT_DIR)
    setups = []
    for _ in range(SETUP_RUNS // 2):
        timed_setup(workload, setups)
    wall_s, cpu_s = measure(workload, seconds, lambda: timed_setup(workload, setups))
    while len(setups) < SETUP_RUNS:
        timed_setup(workload, setups)
    attempted, failed = workload.check()
    turn_ms = [ms for _, _, unit in workload.units for ms in unit]
    unit_s = [s for s, _, _ in workload.units]
    turn_p, unit_p = cls.TAILS
    turn_tail, unit_tail = percentile(turn_ms, turn_p), percentile(unit_s, unit_p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "turn_ms_tail": (turn_tail, "ms"),
        "unit_s_tail": (unit_tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "turn_ms_p50": statistics.median(turn_ms),
        "turn_ms_tail_percentile": turn_p,
        "turn_ms_samples": len(turn_ms),
        "unit_s_p50": statistics.median(unit_s),
        "unit_s_tail_percentile": unit_p,
        "unit_s_samples": len(unit_s),
        "turns_per_s": sum(t for _, t, _ in workload.units) / sum(unit_s),
        "setup_runs": len(setups),
        "loop_wall_s": wall_s,
        "loop_cpu_s": cpu_s,
        **workload.detail(),
    }
    return attempted, failed, metrics, detail


def run_traced(cls, seed, seconds, quick, spans_path):
    from spans import Tracer, layer_metrics

    plain = cls(seed, quick, OUT_DIR)
    plain.setup()
    measure(plain, seconds / 2)

    traced = cls(seed, quick, OUT_DIR)
    tracer = Tracer()
    with tracer.installed():
        t0 = clock()
        traced.setup()
        measure(traced, seconds / 2)
        traced_s = clock() - t0
    tracer.write(spans_path)

    turns = sum(t for _, t, _ in traced.units)
    metrics, self_total = layer_metrics(tracer, turns)
    per_turn = [sum(s for s, _, _ in w.units) / sum(t for _, t, _ in w.units)
                for w in (plain, traced)]
    metrics["trace.overhead_pct"] = (100.0 * (per_turn[1] / per_turn[0] - 1.0), "%")
    metrics["trace.self_time_share"] = (self_total / traced_s, "ratio")
    metrics["trace.nodes_per_turn"] = (tracer.nodes / turns, "count")

    attempted, failed = (a + b for a, b in zip(plain.check(), traced.check()))
    detail = {
        "turns": turns,
        "traced_cpu_s": traced_s,
        "span_self_s": self_total,
        "spans": len(tracer.name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced": plain.detail(),
        "traced": traced.detail(),
    }
    return attempted, failed, metrics, detail


def run(workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (result dict, detail dict)."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    cls = WORKLOADS[workload]
    if trace:
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
        attempted, failed, metrics, detail = run_traced(cls, seed, seconds, quick, spans_path)
    else:
        attempted, failed, metrics, detail = run_untraced(cls, seed, seconds, quick)
    result = {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def import_program():
    """Put the checkout's src/ first on the path and check maskdst comes from there."""
    if not (SRC / "maskdst" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {SRC / 'maskdst'}")
    sys.path.insert(0, str(SRC))
    import maskdst

    if SRC.resolve() not in Path(maskdst.__file__).resolve().parents:
        raise SystemExit(f"benchmark: maskdst imported from {maskdst.__file__}, not {SRC}")


def main(argv=None):
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    host = host_info()
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, **detail}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
