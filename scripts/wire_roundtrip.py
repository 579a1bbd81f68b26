#!/usr/bin/env python3
"""Time scorer wire round trips against a scorer that does no work.

Usage: python3 scripts/wire_roundtrip.py

Pins itself to one CPU (the child inherits the pin, as ``bench/run.py`` pins
a run and its ``lm_host.py``), starts a child process serving a zero-cost
scorer through ``ScorerServer``, and sends one reference request per call:
5 prefixes of 11 ids, 5 x 63 candidates and a 115-token source, the mean
shape of an untraced ``pipeline-local`` decode step at seed 101.  Prints the
p50 and p90 microseconds per ``score_batch`` round trip over CALLS calls
that follow WARMUP untimed ones, so what is measured is encoding, decoding,
checks and transport, never scoring.  Only the standard library and ``src``
are used.
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
    ScorerServer,
    TokenScorer,
    Vocabulary,
    external_scorer_connect,
)

VOCAB_SIZE = 600
PREFIXES, PREFIX_LEN, CANDIDATES, SOURCE_LEN = 5, 11, 63, 115
CALLS, WARMUP = 3000, 300


class ZeroScorer(TokenScorer):
    def score_batch(self, source, prefixes, candidate_lists, example_id=None):
        return [[0.0] * len(c) for c in candidate_lists]


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


def reference_request() -> tuple[tuple, list, list]:
    source = tuple(f"w{i % 40}" for i in range(SOURCE_LEN))
    prefixes = [tuple((7 * i + 3 * j) % VOCAB_SIZE for j in range(PREFIX_LEN))
                for i in range(PREFIXES)]
    candidates = [tuple(range(i, i + 5 * CANDIDATES, 5)) for i in range(PREFIXES)]
    return source, prefixes, candidates


def measure() -> list[float]:
    child = subprocess.Popen(
        [sys.executable, __file__, "--serve"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        endpoint = child.stdout.readline().strip()
        if not endpoint:
            raise RuntimeError("the scorer child exited before serving")
        scorer = external_scorer_connect(endpoint, vocabulary())
        try:
            source, prefixes, candidates = reference_request()
            timings = []
            for i in range(WARMUP + CALLS):
                start = time.perf_counter()
                scorer.score_batch(source, prefixes, candidates, str(i // 20))
                timings.append(time.perf_counter() - start)
        finally:
            scorer.close()
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()
    return timings[WARMUP:]


def main() -> int:
    if sys.argv[1:] == ["--serve"]:
        return serve()
    if sys.argv[1:]:
        sys.exit(__doc__)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    timings = sorted(measure())
    p50, p90 = (timings[int(q * (len(timings) - 1))] * 1e6 for q in (0.5, 0.9))
    print(f"round trips {len(timings)}  p50 {p50:.0f} us  p90 {p90:.0f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
