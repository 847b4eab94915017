"""Benchmark of the landau solver: end-to-end and per-layer timings with checks.

    python3 perfbench/run.py                     # all workloads, end to end
    python3 perfbench/run.py --workload bkw2d --seed 3 --seconds 25 --trace 1

Run from the repository root. A run repeats whole rounds of one workload for
--seconds seconds; each round is a fresh Python process (perfbench/worker.py)
with BLAS and OpenMP pools held to one thread. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates traced and untraced rounds
and reports the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

# Every run, including its last round, must end well within 180 s.
DEADLINE_S = 170.0

# Seeds of the rounds of one run: ROUND_SEEDS * seed + round index.
ROUND_SEEDS = 1000

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def spawn_round(workload, seed, traced, time_left):
    """Run one round in a fresh process and return its JSON result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced))]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(time_left, 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q):
    """The q-th percentile by the nearest-rank rule (0 for no samples)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, -(-q * len(xs) // 100) - 1))]


def metric_units(kind):
    """(name, unit) of the 'end_to_end' or 'per_layer' metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def run_workload(workload, seed, seconds, trace):
    """Repeat rounds for `seconds` and aggregate them.

    Round r takes its inputs from seed ROUND_SEEDS * seed + r, so that a run
    averages over inputs whose cost varies (coulomb3d's most of all). With
    `trace`, rounds come in pairs on the same inputs, traced first.
    """
    start = time.monotonic()
    rounds = []
    while True:
        i = len(rounds)
        traced = trace and i % 2 == 0
        round_seed = ROUND_SEEDS * seed + (i // 2 if trace else i)
        elapsed = time.monotonic() - start
        res = spawn_round(workload, round_seed, traced, DEADLINE_S - elapsed)
        rounds.append((traced, res))
        print(f"{workload} round seed {round_seed}{' traced' if traced else ''}: "
              f"wall setup {res['wall_setup_s']:.3f} s, run {res['wall_run_s']:.3f} s; "
              f"calibration {res['calibration_s']:.3f} s", file=sys.stderr)
        done = time.monotonic() - start >= seconds
        if done and (not trace or len(rounds) % 2 == 0):
            break
    plain = [r for t, r in rounds if not t]
    traced_rounds = [r for t, r in rounds if t and "layers" in r]  # none if the solver raised
    for _, r in rounds:
        for name, ok, detail in r["checks"]:
            if not ok:
                print(f"FAILED {workload}: {name}: {detail}", file=sys.stderr)
    attempted = sum(r["attempted"] for _, r in rounds)
    failed = sum(r["failed"] for _, r in rounds)
    if trace:
        metrics = {}
        for name, unit in metric_units("per_layer"):
            if name == "trace.overhead_s":
                value = _median(t["wall_run_s"] - p["wall_run_s"]
                                for t, p in zip(traced_rounds, plain))
            elif name.endswith(("_p50", "_p95")):
                base, pct = name.rsplit("_p", 1)
                key = {"collision.step_ms": "step_ms", "vpl.step_ms": "vpl_step_ms",
                       "diagnostics.kde_ms": "kde_ms"}[base]
                value = _percentile([x for r in traced_rounds for x in r[key]], int(pct))
            else:
                value = _median(r["layers"][name] for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": _median(r[name] for r in plain), "unit": unit}
                   for name, unit in metric_units("end_to_end")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": len(rounds)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one after the other)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the round under way.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "landau" / "__init__.py").is_file():
        print(f"error: no solver source at {ROOT / 'src' / 'landau'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"{name}: {res['rounds']} rounds, {res['attempted']} operations, "
                  f"{res['failed']} failed")
            for metric, m in res["metrics"].items():
                print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        out = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
