#!/usr/bin/env python3
"""Time scorer wire round trips against a scorer that does no work.

Usage: python3 scripts/wire_roundtrip.py

Pins itself to one CPU (the child inherits the pin, as ``bench/run.py`` pins
a run and its ``lm_host.py``), starts a child process serving a zero-cost
scorer through ``ScorerServer``, and times ``score_batch`` round trips of two
reference shapes.  Each example in them has 5 prefixes of 11 ids, 5 x 63
candidates and a 115-token source of its own, the mean shape of one
example's decode step in ``pipeline-remote`` at seed 101.  "one example"
sends one such example per message, as a search driven alone does;
"lockstep step" sends 35, the examples ``run`` steps together at the start
of that round.  Each shape has a connection of its own and sends the same
requests again and again, so only its first message brings the sources and
candidate lists; every later one is warm.  For each shape it prints that
first (cold) message's microseconds, and the p50 and p90 microseconds per
message and per example-step (a message's time over its examples) over the
timed warm calls that ``SHAPES`` gives, after its untimed warm-up calls.
What is measured is encoding, decoding, checks and transport, never
scoring.  Only the standard library and ``src`` are used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from structsql.decode import (  # noqa: E402
    EOS_TOKEN,
    ScoreRequest,
    ScorerServer,
    TokenScorer,
    Vocabulary,
    external_scorer_connect,
)

VOCAB_SIZE = 600
PREFIXES, PREFIX_LEN, CANDIDATES, SOURCE_LEN = 5, 11, 63, 115
# Examples per message, timed calls, warm-up calls.
SHAPES = {"one example": (1, 3000, 300), "lockstep step": (35, 300, 30)}


class ZeroScorer(TokenScorer):
    def score_batch(self, requests):
        return [[[0.0] * len(c) for c in r.candidate_lists] for r in requests]


def vocabulary() -> Vocabulary:
    return Vocabulary([EOS_TOKEN, *(f"t{i}" for i in range(1, VOCAB_SIZE))])


def serve() -> int:
    """Child: print the endpoint, serve until standard input closes."""
    server = ScorerServer(ZeroScorer(vocabulary()))
    try:
        print(server.endpoint, flush=True)
        sys.stdin.read()
    finally:
        server.close()
    return 0


def reference_requests(examples: int) -> list[ScoreRequest]:
    prefixes = [tuple((7 * i + 3 * j) % VOCAB_SIZE for j in range(PREFIX_LEN))
                for i in range(PREFIXES)]
    candidates = [tuple(range(i, i + 5 * CANDIDATES, 5)) for i in range(PREFIXES)]
    return [
        ScoreRequest(tuple(f"w{(i + k) % 40}" for i in range(SOURCE_LEN)), str(k), prefixes,
                     candidates)
        for k in range(examples)
    ]


def time_call(scorer, requests) -> float:
    start = time.perf_counter()
    for _ in scorer.score_batch(requests):  # unpack every example
        pass
    return time.perf_counter() - start


def measure() -> dict[str, tuple[float, list[float]]]:
    """Per shape: the first message's seconds and the timed warm ones'."""
    child = subprocess.Popen(
        [sys.executable, __file__, "--serve"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    timings: dict[str, tuple[float, list[float]]] = {}
    try:
        endpoint = child.stdout.readline().strip()
        if not endpoint:
            raise RuntimeError("the scorer child exited before serving")
        for name, (examples, calls, warmup) in SHAPES.items():
            requests = reference_requests(examples)
            scorer = external_scorer_connect(endpoint, vocabulary())
            try:
                first = time_call(scorer, requests)
                times = [time_call(scorer, requests) for _ in range(warmup + calls)]
            finally:
                scorer.close()
            timings[name] = first, times[warmup:]
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()
    return timings


def main() -> int:
    if sys.argv[1:] == ["--serve"]:
        return serve()
    if sys.argv[1:]:
        sys.exit(__doc__)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name, (first, times) in measure().items():
        times.sort()
        examples = SHAPES[name][0]
        p50, p90 = (times[int(q * (len(times) - 1))] * 1e6 for q in (0.5, 0.9))
        print(
            f"{name}: first (cold) message {first * 1e6:.0f} us;"
            f" {len(times)} warm round trips of {examples} example(s)"
            f"  per message p50 {p50:.0f} us p90 {p90:.0f} us"
            f"  per example-step p50 {p50 / examples:.0f} us p90 {p90 / examples:.0f} us"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
