#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as ``BENCH_<workload>.json``.

Usage:
  python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
                                 [--seeds 101-110] [--held-out SEEDS]
                                 [--seconds 30] [--out FILE]

Refuses to run, exiting 2, while either checkout holds a ``__pycache__``
directory under ``src/``, ``bench/`` or ``scripts/``, and runs every child
with ``PYTHONDONTWRITEBYTECODE=1``, so that both sides compile their code
alike.  For every seed, runs ``python3 bench/run.py --workload W --seed SEED
--seconds S --trace 0`` once in each checkout, back to back: the parent
first at odd seeds, the change first at even ones, so that a drift in host
speed falls on both sides alike.  A run's result is its last stdout line.
The summary covers the ``--seeds`` pairs (``--held-out`` pairs are run and
kept, but not summarized): for each end-to-end metric of the change's
``BENCHMARK.json``, both sides' quartiles and the number of pairs in which
the change was better.  The output goes to ``BENCH_<workload>.json`` in the
current directory unless ``--out`` names a file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = (
    "one pair per seed, run back to back; the parent runs first at odd seeds,"
    " the change at even seeds"
)
QUARTILES = "statistics.quantiles(n=4), default (exclusive) method, over the summary seeds"
# Compiled bytecode here would spare one side the compiling at import.
CODE_DIRS = ("src", "bench", "scripts")


def parse_seeds(text: str) -> list[int]:
    """``101-110``, ``117`` or a comma-separated list of both."""
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_command(workload: str, seed, seconds: float) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def bytecode_dirs(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's code directories."""
    return sorted(p for top in CODE_DIRS for p in (checkout / top).rglob("__pycache__"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = bench_command(workload, seed, seconds)
    done = subprocess.run([sys.executable, *argv[1:]], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited with {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def revision(checkout: Path) -> str:
    """The checkout's short commit id, or its directory name outside git."""
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 3), "median": round(median, 3), "q3": round(q3, 3)}


def summarize(runs: list[dict], metrics: list[dict], seeds: list[int]) -> dict:
    """Per metric, each side's quartiles over the pairs of ``seeds`` and the
    share of those pairs in which the change was better."""
    pairs = [r for r in runs if r["seed"] in seeds]
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        value = {side: [r[side]["metrics"][name]["value"] for r in pairs]
                 for side in ("parent", "change")}
        better = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
        summary[name] = {
            "parent": _quartiles(value["parent"]),
            "change": _quartiles(value["change"]),
            "change_better_pairs": f"{better}/{len(pairs)}",
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-110", type=parse_seeds)
    parser.add_argument("--held-out", default="", type=parse_seeds)
    parser.add_argument("--seconds", default=30.0, type=float)
    parser.add_argument("--out", default=None, type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    stale = [p for side in sides.values() for p in bytecode_dirs(side)]
    if stale:
        print("remove compiled bytecode before measuring, so that both sides compile"
              " alike:\n" + "\n".join(f"  {p}" for p in stale), file=sys.stderr)
        return 2
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for seed in args.seeds + args.held_out:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        result = {side: run_once(sides[side], args.workload, seed, args.seconds)
                  for side in order}
        runs.append({"seed": seed, "first": order[0],
                     "parent": result["parent"], "change": result["change"]})
        print(f"seed {seed}: " + ", ".join(
            f"{side} {result[side]['metrics']['examples_per_s']['value']:.1f}"
            for side in ("parent", "change")) + " examples_per_s", file=sys.stderr)

    doc = {
        "workload": args.workload,
        "command": " ".join(bench_command(args.workload, "SEED", args.seconds)),
        "parent": revision(sides["parent"]),
        "hardware": f"{os.cpu_count()}-vCPU {platform.machine()} {platform.system()}, Python"
                    f" {platform.python_version()}; run.py pins itself to one CPU and scales"
                    " rates to its reference CPU speed",
        "order": ORDER,
        "quartiles": QUARTILES,
        "summary_over_seeds": args.seeds,
        "held_out_seeds": args.held_out,
        "summary": summarize(runs, metrics, args.seeds),
        "runs": runs,
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
