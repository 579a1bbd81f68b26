"""``scripts/bench_pairs.py`` on two stand-in checkouts, whose ``bench/run.py``
logs the order of its runs and prints a fixed result line."""

import json
import runpy
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_PAIRS = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))

FAKE_RUN = """\
import json, sys
import helper  # a module of the checkout, which Python may compile to __pycache__
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open({log!r}, "a") as log:
    log.write(f"{{seed}} {side}\\n")
print("a line before the result")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
    "setup_s": {{"value": 0.5, "unit": "s"}},
    "examples_per_s": {{"value": {rate} + seed % 3, "unit": "1/s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}))
"""


def _checkout(path: Path, log: Path, side: str, rate: float, rss: float) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(
        FAKE_RUN.format(log=str(log), side=side, rate=rate, rss=rss), encoding="utf-8"
    )
    (path / "bench" / "helper.py").write_text("", encoding="utf-8")
    shutil.copy(ROOT / "BENCHMARK.json", path)
    return path


def _pair_args(parent: Path, change: Path, out: Path) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--workload", "offline-wide",
            "--seeds", "101-102", "--seconds", "0.5", "--out", str(out)]


def test_pairs_alternate_and_summary_counts_the_change_wins(tmp_path):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path / "parent", log, "parent", rate=100.0, rss=24.0)
    change = _checkout(tmp_path / "change", log, "change", rate=110.0, rss=24.5)
    out = tmp_path / "BENCH_offline-wide.json"
    assert BENCH_PAIRS["main"]([
        "--parent", str(parent), "--change", str(change), "--workload", "offline-wide",
        "--seeds", "101-103", "--held-out", "105", "--seconds", "0.5", "--out", str(out),
    ]) == 0

    # The parent runs first at odd seeds, the change at even ones.
    assert log.read_text().split("\n") == [
        "101 parent", "101 change", "102 change", "102 parent", "103 parent", "103 change",
        "105 parent", "105 change", "",
    ]
    doc = json.loads(out.read_text())
    assert doc["command"] == (
        "python3 bench/run.py --workload offline-wide --seed SEED --seconds 0.5 --trace 0"
    )
    assert doc["summary_over_seeds"] == [101, 102, 103] and doc["held_out_seeds"] == [105]
    assert [(r["seed"], r["first"]) for r in doc["runs"]] == [
        (101, "parent"), (102, "change"), (103, "parent"), (105, "parent"),
    ]
    # Rates 101, 102, 100 against 111, 112, 110: the held-out pair is left out.
    summary = doc["summary"]
    assert summary["examples_per_s"] == {
        "parent": {"q1": 100.0, "median": 101.0, "q3": 102.0},
        "change": {"q1": 110.0, "median": 111.0, "q3": 112.0},
        "change_better_pairs": "3/3",
    }
    assert summary["peak_rss_mb"]["change_better_pairs"] == "0/3"  # lower is better
    assert summary["setup_s"]["change_better_pairs"] == "0/3"  # a tie is no win


def test_seed_ranges():
    assert BENCH_PAIRS["parse_seeds"]("101-103,117") == [101, 102, 103, 117]
    assert BENCH_PAIRS["parse_seeds"]("") == []


def test_refuses_checkouts_that_hold_compiled_bytecode(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path / "parent", log, "parent", rate=100.0, rss=24.0)
    change = _checkout(tmp_path / "change", log, "change", rate=110.0, rss=24.5)
    stale = [parent / "src" / "pkg" / "__pycache__", change / "scripts" / "__pycache__"]
    for path in stale:
        path.mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    assert BENCH_PAIRS["main"](_pair_args(parent, change, out)) != 0
    assert not log.exists() and not out.exists()  # nothing ran
    err = capsys.readouterr().err
    assert all(str(path) in err for path in stale)


def test_children_write_no_bytecode(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path / "parent", log, "parent", rate=100.0, rss=24.0)
    change = _checkout(tmp_path / "change", log, "change", rate=110.0, rss=24.5)
    assert BENCH_PAIRS["main"](_pair_args(parent, change, tmp_path / "BENCH.json")) == 0
    assert len(log.read_text().split()) == 8  # each side ran at both seeds
    assert not list(tmp_path.rglob("__pycache__"))
