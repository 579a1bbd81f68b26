"""Serve the stand-in LM over the scorer wire protocol from its own process.

Usage: python3 bench/lm_host.py --dir <corpus dir> --seed N

Loads the corpus files the benchmark wrote, starts ``ScorerServer`` on a
free loopback port, prints ``host:port`` on one line, and serves until its
standard input closes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from structsql.decode import ScorerServer  # noqa: E402

from corpus import corpus_paths  # noqa: E402
from standin import build_standin  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = ScorerServer(build_standin(corpus_paths(Path(args.dir)), args.seed))
    try:
        print(server.endpoint, flush=True)
        sys.stdin.read()
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
