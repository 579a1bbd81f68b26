#!/usr/bin/env python3
"""Wire encode and decode times of one ``pipeline-remote`` round, replayed in one process.

Usage:
  python3 scripts/wire_replay.py --seed N [--rounds R]

Makes the benchmark corpus of ``--seed`` with ``bench/corpus.py`` and its
stand-in LM with ``bench/standin.py``, writing their files to a temporary
directory (nothing under ``bench/``), and records one ``_decode_all`` round
as ``run_pipeline`` drives it (default config, content values on): every
``score_batch`` call's requests and the stand-in's score lists.  Each timed
round then sends the recorded calls, in order, through a new
``RemoteScorer`` whose socket hands each message straight to
``ScorerServer``'s message handler in the same process, and the handler's
wrapped scorer returns the recorded score lists.  So no socket is opened
and nothing is scored: what is timed is the wire code of both ends.  A
round has four phases:

* client encode: ``score_batch`` up to the send of its message;
* server decode: the handler, from the message to the requests it hands
  its scorer;
* server encode: the handler, from its scorer's lists to the reply;
* client decode: from the reply to the last score list the caller reads.

Prints the min and median milliseconds per round of each phase and of
their sum, and the bytes each side sends per round.  A round whose decoded
scores are not bit-identical to the recorded ones stops the script with an
error.  Pins itself to one CPU, as ``bench/run.py`` does.
"""

import argparse
import io
import os
import statistics
import sys
import tempfile
import time
from array import array
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from structsql.cli import PipelineConfig, _decode_all, _load_inputs  # noqa: E402
from structsql.decode import (  # noqa: E402
    LexiconConstraint,
    RemoteScorer,
    ScorerServer,
    TokenScorer,
    build_trie,
)

from corpus import pipeline_corpus, write_files  # noqa: E402
from standin import build_standin  # noqa: E402

PHASES = ("client encode", "server decode", "server encode", "client decode")


class Recorder(TokenScorer):
    """The wrapped scorer, keeping each ``score_batch`` call's requests and
    score lists."""

    def __init__(self, inner: TokenScorer):
        super().__init__(inner.vocab)
        self.inner = inner
        self.calls: list[tuple[list, list[list[list[float]]]]] = []

    def score_batch(self, requests):
        lists = list(self.inner.score_batch(requests))
        self.calls.append((list(requests), lists))
        return lists


class Clock:
    """Time stamps at the phase boundaries of one message, summed per phase."""

    def __init__(self):
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.marks: dict[str, float] = {}

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    def close_message(self, end: float) -> None:
        m = self.marks
        self.spent["client encode"] += m["sent"] - m["start"]
        self.spent["server decode"] += m["scoring"] - m["sent"]
        self.spent["server encode"] += m["replied"] - m["scored"]
        self.spent["client decode"] += end - m["replied"]


class ReplayScorer(TokenScorer):
    """The server side's scorer: the recorded lists of each call in turn."""

    def __init__(self, vocab, calls, clock: Clock):
        super().__init__(vocab)
        self.lists = iter([lists for _, lists in calls])
        self.clock = clock

    def score_batch(self, requests):
        self.clock.mark("scoring")
        lists = next(self.lists)
        self.clock.mark("scored")
        return lists


class LoopbackSocket:
    """Stands in for the client's socket: each message sent is answered at
    once by ``server``'s handler, on one connection's tables."""

    def __init__(self, server: ScorerServer, clock: Clock):
        self.server, self.clock = server, clock
        self.tables: tuple[list, list] = ([], [])
        self.reply = io.BytesIO()
        self.sent = self.received = 0

    def settimeout(self, timeout) -> None:
        pass

    def makefile(self, mode):
        return self

    def sendall(self, message: bytes) -> None:
        self.clock.mark("sent")
        line, _, body = message.partition(b"\n")
        reply, keep = self.server._answer(line + b"\n", io.BytesIO(body), self.tables)
        if not keep:
            raise SystemExit(f"the server refused a recorded message: {reply[:200]!r}")
        self.sent += len(message)
        self.received += len(reply)
        self.reply = io.BytesIO(reply)
        self.clock.mark("replied")

    def readline(self) -> bytes:
        return self.reply.readline()

    def read(self, size: int) -> bytes:
        return self.reply.read(size)

    def close(self) -> None:
        pass


def replay_round(vocab, calls) -> tuple[dict[str, float], int, int]:
    """One connection's worth of the recorded calls through both ends' wire
    code: seconds per phase, and the bytes sent each way."""
    clock = Clock()
    server = ScorerServer.__new__(ScorerServer)  # its handler only: no listening socket
    server.scorer = ReplayScorer(vocab, calls, clock)
    sock = LoopbackSocket(server, clock)
    client = RemoteScorer(vocab, sock)
    for requests, lists in calls:
        clock.mark("start")
        got = list(client.score_batch(requests))
        clock.close_message(time.perf_counter())
        if _bits(got) != _bits(lists):
            raise SystemExit("decoded scores differ from the recorded ones")
        del got  # freed outside the timed span, as the search frees its scores
    return clock.spent, sock.sent, sock.received


def _bits(per_request) -> bytes:
    return array("d", chain.from_iterable(chain.from_iterable(per_request))).tobytes()


def record(seed: int):
    """The ``pipeline-remote`` corpus of ``seed``: its vocabulary, its
    examples, and one ``_decode_all`` round's calls as ``Recorder`` keeps
    them."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(pipeline_corpus(seed), Path(tmp))
        lm = build_standin(paths, seed)
        config = PipelineConfig(
            data=str(paths["examples"]), tables=str(paths["tables"]),
            content=str(paths["content"]), out_dir=tmp, include_values=True,
        )
        schemas, examples = _load_inputs(config.tables, config.content, config.data)
        constraints = {
            db: LexiconConstraint(build_trie(s, lm.vocab), lm.vocab) for db, s in schemas.items()
        }
        recorder = Recorder(lm)
        _decode_all(examples, schemas, constraints, config, lambda i: recorder)
    return lm.vocab, examples, recorder.calls


def _one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--rounds", default=10, type=int)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    _one_cpu()

    vocab, examples, calls = record(args.seed)
    times: dict[str, list[float]] = {name: [] for name in (*PHASES, "wire total")}
    for _ in range(args.rounds):
        spent, sent, received = replay_round(vocab, calls)
        for name, seconds in spent.items():
            times[name].append(seconds)
        times["wire total"].append(sum(spent.values()))

    lists = [scores for _, per_request in calls for request in per_request for scores in request]
    print(f"pipeline-remote seed {args.seed}: {len(examples)} examples, {len(calls)} messages,"
          f" {len(lists)} hypotheses, {sum(map(len, lists))} candidates")
    print(f"bytes per round: client to server {sent}, server to client {received}")
    print(f"ms per round over {args.rounds} rounds: min / median")
    for name, values in times.items():
        print(f"  {name:<15}{1e3 * min(values):8.2f} / {1e3 * statistics.median(values):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
