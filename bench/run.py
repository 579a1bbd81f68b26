#!/usr/bin/env python3
"""structsql benchmark: one workload, one run, one JSON result line.

Usage:
  python3 bench/run.py --workload pipeline-local|pipeline-remote|offline-wide
                       --seed N --seconds S --trace 0|1

Builds the inputs from the seed, sets up several times (median reported),
then runs whole rounds over the corpus through the program's entry points
for about S seconds, checking every round's outputs.  End-to-end times are
scaled to the CPU's reference speed (see speed.py); the raw wall-time
figures go to stderr.  With ``--trace 1`` half
the time goes to untraced rounds and half to a traced replica of the round,
and the per-layer metrics are printed instead of the end-to-end ones.  The
last stdout line is the result object.  Run from the repository root.
"""

import time

_T0 = time.perf_counter()

from speed import SpeedMeter  # noqa: E402

METER = SpeedMeter()
METER.start()
_START = (_T0, 0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pipeline-local", "pipeline-remote", "offline-wide")
SETUP_REPS = 5


def _rounds(work, outputs, check, budget_s: float) -> tuple[list[float], list[float]]:
    """Whole rounds until the next one would overrun the budget of wall time
    (at least one).  Only ``work`` is timed, in wall seconds and in seconds
    at the reference speed; its outputs are checked after each round."""
    wall: list[float] = []
    scaled: list[float] = []
    while not wall or sum(wall) + wall[-1] <= budget_s:
        start = METER.mark()
        produced = work()
        end = METER.mark()
        wall.append(end[0] - start[0])
        scaled.append(METER.scaled(start, end))
        check(outputs(produced))
    return wall, scaled


def _one_cpu() -> None:
    """Keep the run, and the scorer host it starts, on one CPU.  On a 2-vCPU
    VM, cross-CPU wake-ups (the pool threads handing over the interpreter
    lock, each scorer round trip) made runs of identical work differ by up
    to 2x; on one CPU they repeat within a few percent."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.trace:  # per-layer times are raw: no probes inside the spans
        METER.stop()
        METER.samples.clear()

    src = ROOT / "src"
    if not (src / "structsql" / "__init__.py").is_file():
        METER.stop()
        print(f"error: no structsql sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    os.environ.pop("STRUCTSQL_SCORER_ENDPOINT", None)  # would redirect extern scorers
    _one_cpu()

    from tracing import Tracer
    from workloads import layer_metrics, make_workload

    imported = METER.mark()
    run_dir = BENCH / "runs" / args.workload  # the latest run of each workload
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = make_workload(args.workload, args.seed, run_dir)

    try:
        setup_busy = []
        for _ in range(SETUP_REPS):
            workload.stop()
            start = METER.mark()
            workload.setup()
            setup_busy.append(METER.busy(start, METER.mark()))
        setup_raw = METER.busy(_START, imported) + statistics.median(setup_busy)
        setup_s = setup_raw / METER.slowdown(_START, METER.mark())

        n = workload.n_examples
        failed_ops = 0
        bad_rounds: list[dict[int, str]] = []

        def check(outputs) -> None:
            nonlocal failed_ops
            bad = workload.failures(outputs)
            failed_ops += len(bad)
            if not set(bad) <= workload.expected_failures:
                bad_rounds.append(bad)

        if args.trace:
            budget = args.seconds / 2
            untraced, _ = _rounds(workload.run_round, lambda _: workload.outputs(), check, budget)
            tracer, counts = Tracer(), Counter()
            traced, _ = _rounds(
                lambda: workload.traced_round(tracer, counts), lambda o: o, check, budget
            )
            attempted = n * (len(untraced) + len(traced))
            metrics = layer_metrics(
                tracer, counts, n * len(traced),
                untraced_s_per_example=statistics.median(untraced) / n,
                traced_s_per_example=statistics.median(traced) / n,
                synth_s=workload.corpus.synth_s,
                remote=args.workload == "pipeline-remote",
            )
            tracer.write(BENCH / "traces" / f"{args.workload}-s{args.seed}.json")
        else:
            wall, scaled = _rounds(
                workload.run_round, lambda _: workload.outputs(), check, args.seconds
            )
            attempted = n * len(wall)
            print(
                f"raw: setup {setup_raw:.4f} s, {statistics.median(n / t for t in wall):.3f}"
                f" examples/s over {len(wall)} rounds; CPU at"
                f" {100 * METER.slowdown(_START, METER.mark()):.1f} % of the reference probe time",
                file=sys.stderr,
            )
            metrics = {
                "setup_s": (setup_s, "s"),
                "examples_per_s": (statistics.median(n / t for t in scaled), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        METER.stop()
        workload.stop()

    for bad in bad_rounds[:1]:
        for i, reason in sorted(bad.items())[:5]:
            print(f"check failed: example {i}: {reason}", file=sys.stderr)
    result = {
        "correct": not bad_rounds,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
