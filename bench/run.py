"""Fixed-seed parlab benchmark: one workload per process.

    python3 bench/run.py --workload train_quickstart --seed 0 --seconds 20 --trace 0

Runs whole passes over the workload's inputs until ``--seconds`` have been
measured, checks every op's output, and prints one JSON result as the last
line of stdout. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics. The
line before the result carries provenance. Spans and results go to
``.bench_run/`` at the repository root.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 7
PROBE_LOOPS = 10_000
# setup_s is given in seconds on a host where the probe takes this long.
PROBE_REFERENCE_S = 0.001
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv, workloads: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="run setup once, print the clock and exit"
    )
    return parser.parse_args(argv)


def clock() -> float:
    """CLOCK_MONOTONIC is one clock for every process on the host, so a child's
    reading can be compared with its parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args) -> dict:
    import numpy

    from workloads import NPROC

    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "eval_threads": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
    }


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    The shared host this was built on switches between speeds about 2x apart
    every few seconds to minutes, and the probe slows with it, so an op's
    latency divided by the probe times around it is far steadier than the
    latency itself (see README.md, Steadiness).
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Timing(NamedTuple):
    seconds: float  # wall time of the op
    relative: float  # seconds / mean of the probe times just before and after


class Runner:
    """Times whole passes of a workload and checks every op's output."""

    def __init__(self, workload, pins: list[str] | None, tracer=None) -> None:
        self.workload = workload
        self.pins = pins
        self.tracer = tracer
        self.first_digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seconds: float) -> tuple[list[Timing], list[Timing]]:
        """Untraced and traced op timings, from whole passes whose op time
        sums to at least ``seconds``.

        With a tracer, ops alternate between untraced and traced, and each
        input changes side from one pass to the next, so host drift within
        the run falls on both sides alike.
        """
        untraced: list[Timing] = []
        traced: list[Timing] = []
        passes = 0
        while (
            sum(t.seconds for t in untraced + traced) < seconds
            or not untraced
            or (self.tracer is not None and not traced)
        ):
            for k in range(self.workload.n_ops):
                if self.tracer is not None and (k + passes) % 2:
                    self.tracer.install()
                    try:
                        traced.append(self.run_op(k))
                    finally:
                        self.tracer.uninstall()
                else:
                    untraced.append(self.run_op(k))
            passes += 1
        return untraced, traced

    def run_op(self, k: int) -> Timing:
        before = probe()
        elapsed = self.time_op(k)
        return Timing(elapsed, elapsed / ((before + probe()) / 2))

    def time_op(self, k: int) -> float:
        """Wall seconds of op ``k``; its output is checked after the clock stops."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            output = self.workload.run_op(k)
        except Exception as exc:  # every failure mode counts against the op
            elapsed = time.perf_counter() - start
            self.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        digest, problems = self.workload.check(k, output)
        first = self.first_digests.setdefault(k, digest)
        if first != digest:
            problems.append("output differs from the first pass")
        if self.pins is not None and (k >= len(self.pins) or self.pins[k] != digest):
            problems.append("output digest differs from the pinned one")
        if problems:
            self.failures.append(f"op {k}: {'; '.join(problems)}")
        return elapsed


def setup_seconds(args) -> tuple[float, float]:
    """Set-up time, as (seconds at the reference host speed, wall seconds).

    Each is a median over ``SETUP_REPEATS`` fresh processes of the time from
    starting the process to the end of the workload's setup: interpreter
    start, imports, task generation, snapshot load and hash check, and
    replay input recording. The first is each process's time divided by the
    probe times around it, times ``PROBE_REFERENCE_S``.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    argv += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = clock()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(done.stdout.split()[-1]) - start)
        scaled.append(wall[-1] * PROBE_REFERENCE_S / ((before + probe()) / 2))
    return statistics.median(scaled), statistics.median(wall)


def wall_figures(timings: list[Timing]) -> dict:
    """Op latency in wall time; reported beside the result, not gated."""
    ms = [1000.0 * t.seconds for t in timings]
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": percentile(ms, 0.9),
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
    }


def end_to_end(timings: list[Timing], setup_s: float) -> dict:
    relative = [t.relative for t in timings]
    return {
        "op_rel.p50": statistics.median(relative),
        "op_rel.p90": percentile(relative, 0.9),
        "op_rel.mean": statistics.fmean(relative),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    if not (ROOT / "src" / "parlab" / "__init__.py").is_file():
        print(f"no parlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the only worker threads are eval's rollout threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer, layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload]()
        if args.setup_only:
            workload.setup(args.seed, workdir)
            print(clock())
            return 0
        setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds(args)
        pins = None
        if args.seed == workloads.DEFAULT_SEED:
            pins = workloads.load_pins()["digests"].get(args.workload, [])
        tracer = Tracer() if args.trace else None
        # Traced runs trace setup too, for task_gen.gen.
        if tracer:
            tracer.install()
        try:
            workload.setup(args.seed, workdir)
        finally:
            if tracer:
                tracer.uninstall()

        runner = Runner(workload, pins, tracer)
        untraced, traced = runner.run(args.seconds)
        if tracer is None:
            metrics = end_to_end(untraced, setup_s)
        else:
            spans = tracer.spans()
            metrics = layer_metrics(spans, tracer.counters(), len(traced))
            metrics["failed_frac"] = len(runner.failures) / runner.attempted
            metrics["tracing.overhead_ms"] = (
                wall_figures(traced)["op_ms.p50"] - wall_figures(untraced)["op_ms.p50"]
            )
            spans.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "provenance": provenance(args),
        "ops_measured": len(untraced) + len(traced),
        "wall": {**wall_figures(untraced), "setup_s": setup_wall_s},
        "failures": runner.failures[:10],
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, **result}, indent=1) + "\n"
    )
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
