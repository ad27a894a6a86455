"""One benchmark run process: set up, then run a workload's command script in a closed loop.

Started by run.py in a fresh interpreter.  It puts the checkout's ``src`` on
the import path, imports ``diffcomb.cli``, writes the workload's input files
and notes the monotonic time at which it became ready.  With --setup-only it
stops there.  Otherwise it runs one warm-up pass (the first pass in a fresh
process is 10-40% slower) and then measured passes, one client, each command
through ``diffcomb.cli.main(argv)`` after the previous one returned, until the
next pass would end after --seconds.  Outputs are checked after every pass,
outside the timed region.

With --trace 1 every second measured pass is traced (see tracing.py); the
untraced passes in between give the overhead of tracing.  The last stdout
line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_work"
MAX_PROBLEMS = 10
# Environment of every benchmark interpreter: one BLAS thread (no extra threads,
# and a summation order that does not depend on the thread count), a fixed
# hash seed, and the default window cap.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
UNSET_ENV = ("DIFFCOMB_MAX_WINDOW",)


def import_cli():
    """diffcomb.cli from this checkout's sources, never from an installed copy."""
    package = ROOT / "src" / "diffcomb"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark worker: no diffcomb sources at {package}")
    sys.path.insert(0, str(package.parent))
    from diffcomb import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark worker: imported diffcomb from {cli.__file__}")
    return cli


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources, which together fix the counts."""
    import hashlib

    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "diffcomb").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(cli, work, tracer=None):
    """Run the command script once; returns (wall s, cpu s, [(command, code, stdout, stderr)])."""
    for path in work.workdir.iterdir():
        if path.name not in work.inputs:
            path.unlink()
    if tracer is not None:
        tracer.install()
    results = []
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        for command in work.commands:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.begin("cli." + command.name.replace("-", "_")) if tracer else None
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(command.argv))
            except Exception as exc:  # reported as a failed command, the loop goes on
                code = -1
                err.write(repr(exc))
            finally:
                if tracer is not None:
                    tracer.end(span)
            results.append((command, code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, results


class Tally:
    """Commands attempted and failed, with the first problems found."""

    def __init__(self, work, digests):
        self.work = work
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.problems: list[str] = []

    def check(self, results) -> None:
        for command, code, stdout, stderr in results:
            self.attempted += 1
            problem, by_digest = workloads.check_command(self.work, command, code, stdout, self.digests)
            self.digest_checked += by_digest
            if problem:
                self.failed += 1
                if len(self.problems) < MAX_PROBLEMS:
                    detail = f" ({stderr.strip()})" if stderr.strip() else ""
                    self.problems.append(f"{command.name}: {problem}{detail}")


def counts_repeat(workload: str, seed: int, counts: dict) -> bool:
    """Compare the pass counts with those of earlier runs of the same sources and seed."""
    path = WORK_DIR / "counts" / f"{workload}-{seed}-{source_digest()}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="ascii")) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="ascii")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_cli()
    work = workloads.build(args.workload, args.seed, WORK_DIR / args.workload)
    work.write_inputs()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    # Imported once the process is ready, so that set-up time carries none of
    # the benchmark's own tracing code.
    if args.trace:
        import statistics

        import tracing

    tally = Tally(work, workloads.load_digests())
    warmup_wall, _, results = run_pass(cli, work)
    tally.check(results)

    untraced_walls, untraced_cpu, traced_walls = [], [], []
    traced: dict[int, tracing.Tracer] = {}
    layer_runs = []
    min_passes = 4 if args.trace else 3
    started = time.perf_counter()
    index = 0
    while True:
        tracer = tracing.Tracer() if args.trace and index % 2 == 1 else None
        wall, cpu, results = run_pass(cli, work, tracer)
        tally.check(results)
        if tracer is None:
            untraced_walls.append(wall)
            untraced_cpu.append(cpu)
        else:
            traced[index] = tracer
            traced_walls.append(wall)
            layer_runs.append(tracing.pass_metrics(tracer.spans))
        index += 1
        elapsed = time.perf_counter() - started
        if index >= min_passes and elapsed * (index + 1) / index > args.seconds:
            break

    result = {
        "ready": ready,
        "warmup_wall_s": warmup_wall,
        "wall_s": untraced_walls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "digest_checked": tally.digest_checked,
        "problems": tally.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts_repeat": True,
    }
    if args.trace:
        counts = {name: layer_runs[0][name] for name in tracing.COUNTS}
        same_between_passes = all(
            {name: run[name] for name in tracing.COUNTS} == counts for run in layer_runs
        )
        result["counts_repeat"] = same_between_passes and counts_repeat(
            args.workload, args.seed, counts
        )
        layers = {
            name: counts[name] if name in counts else statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        layers["process.cpu_s"] = statistics.median(untraced_cpu)
        layers["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        result["layers"] = layers
        result["traced_wall_s"] = traced_walls
        shares = [tracing.layer_shares(tracer.spans) for tracer in traced.values()]
        result["shares"] = {
            layer: statistics.median(share.get(layer, 0.0) for share in shares) for layer in shares[0]
        }
        tracing.write_spans(work.workdir / "spans.json", traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
