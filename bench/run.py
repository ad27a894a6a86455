"""diffcomb benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The workloads (see workloads.py) are
window_dump (the CSV/JSON writers), homometry_ensemble (seed ensembles of
bernoullised Rudin-Shapiro combs) and exact_order (exact RS check, patch
counts, block entropy, periodic closed form).  ``--workload all`` runs the
three in turn and prefixes each metric name with its workload.

Each run spawns the run process (worker.py), which sets up (imports
diffcomb.cli from ./src and writes the workload's input files) and then runs
the workload's command script in a closed loop for T seconds, one client, no
extra threads (BLAS is pinned to one thread).  Before and after it, SETUP_PROBES
fresh interpreters in all, half on each side and one after another, only set
up, so that set-up time is sampled across the run.  Nothing else runs while a
pass is timed.

With --trace 0 the result carries the end-to-end metrics:
  wall_s        median wall time of one pass of the command script
  setup_s       median time from spawning an interpreter until it is ready
  peak_rss_mb   peak resident set of the run process (ru_maxrss)
  success_rate  1 - error_rate: commands that exited as expected, gave the
                right verdict and wrote correct files, over commands attempted
With --trace 1 it carries the per-layer metrics of tracing.PER_LAYER, from
traced passes interleaved with untraced ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is not 0, and no result is printed, when a
run cannot be made (for example without the diffcomb sources).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from worker import PINNED_ENV, UNSET_ENV

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

SETUP_PROBES = 16
PROBE_TIMEOUT_S = 30.0
RUN_LIMIT_S = 170.0


def spawn(worker_args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; returns (spawn-to-ready seconds, its result)."""
    env = {key: value for key, value in os.environ.items() if key not in UNSET_ENV}
    env.update(PINNED_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *worker_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        raise SystemExit(f"benchmark: worker ran past its {timeout:.0f} s limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 of {n} samples beyond it"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.1f} {ordered[n - 11]:.4f}"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload; prints its summary and returns its result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]

    def probes(count: int) -> list[float]:
        return [spawn([*common, "--seconds", "0", "--setup-only"],
                      min(PROBE_TIMEOUT_S, deadline - time.monotonic()))[0]
                for _ in range(count)]

    setup = probes(SETUP_PROBES // 2)
    ready, run = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)],
                       deadline - time.monotonic())
    setup += [ready, *probes(SETUP_PROBES - SETUP_PROBES // 2)]

    walls = run["wall_s"]
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {name}, seed {seed}, {seconds} s closed loop, one client;"
          f" warm-up pass {run['warmup_wall_s']:.4f} s")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    if not run["counts_repeat"]:
        print("  FAILED computed counts differ between passes or runs")

    if trace:
        layers = run["layers"]
        metrics = {metric: {"value": layers[metric], "unit": unit}
                   for metric, unit in tracing.PER_LAYER.items()}
        print(f"  traced passes {len(run['traced_wall_s'])}, untraced passes {len(walls)}")
        for metric, entry in metrics.items():
            print(f"  {metric:46s} {entry['value']:.6g} {entry['unit']}")
        shares = ", ".join(f"{layer} {share:.0%}" for layer, share in run["shares"].items())
        print(f"  self-time shares of traced command time: {shares}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        print(f"  wall_s       median {metrics['wall_s']['value']:.4f} s, {tail(walls)}, n={len(walls)}")
        print(f"  setup_s      median {metrics['setup_s']['value']:.4f} s, {tail(setup)}, n={len(setup)}")
        print(f"  peak_rss_mb  {run['peak_rss_mb']:.1f} MiB")
        print(f"  error_rate   {failed / attempted:.4g} ratio ({failed} failed of {attempted} commands,"
              f" {run['digest_checked']} checked against recorded digests)")
    return {"correct": failed == 0 and run["counts_repeat"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diffcomb benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:  # model seeds S..S+49 must fit the 64-bit seed range
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:  # one result whose metric names carry the workload as a prefix
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in workloads.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
