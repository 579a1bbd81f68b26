"""``scripts/wire_replay.py`` replays one round of the ``pipeline-remote``
benchmark corpus through both ends' wire code and reports its phases."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_reports_each_phase_and_the_bytes_each_way():
    # A subprocess, since the script pins the process that runs it to one CPU.
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "wire_replay.py"), "--seed", "101",
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"pipeline-remote seed 101: \d+ examples, \d+ messages,"
                        r" \d+ hypotheses, \d+ candidates", lines[0])
    sent, received = map(int, re.fullmatch(
        r"bytes per round: client to server (\d+), server to client (\d+)", lines[1]).groups())
    candidates = int(lines[0].rsplit(" ", 2)[1])
    assert sent > 0 and received > 8 * candidates  # every score, plus the headers
    times = {}
    for line in lines[3:]:
        name, low, median = re.fullmatch(r"\s*(\w+(?: \w+)?)\s+([\d.]+) / ([\d.]+)", line).groups()
        times[name] = float(low)
        assert float(low) == float(median)  # one round
    assert list(times) == ["client encode", "server decode", "server encode", "client decode",
                           "wire total"]
    assert all(t > 0 for t in times.values())
    assert abs(times["wire total"] - sum(list(times.values())[:4])) < 0.05
