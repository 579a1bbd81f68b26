"""``scripts/search_replay.py`` runs one round of the ``pipeline-local``
benchmark corpus and reports its three times."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_reports_decode_annotate_and_search():
    # A subprocess, since the script pins the process that runs it to one CPU.
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_replay.py"),
         "--workload", "pipeline-local", "--seed", "101", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"pipeline-local seed 101: \d+ examples, \d+ scorer calls,"
                        r" \d+ hypotheses, \d+ candidates", lines[0])
    times = {}
    for line in lines[2:]:
        name, low, median = re.fullmatch(r"\s*(\w+)\s+([\d.]+) / ([\d.]+)", line).groups()
        times[name] = float(low)
        assert float(low) == float(median)  # one round
    assert list(times) == ["decode", "annotate", "search"]
    assert 0 < times["annotate"] < times["decode"]
    assert times["search"] > 0
