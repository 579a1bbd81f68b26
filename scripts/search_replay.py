#!/usr/bin/env python3
"""Decode, annotate and search times of one benchmark round, the scores replayed.

Usage:
  python3 scripts/search_replay.py --workload pipeline-local --seed N [--rounds R]

Makes the benchmark corpus of ``--seed`` with ``bench/corpus.py`` and its
stand-in LM with ``bench/standin.py``, writing their files to a temporary
directory (nothing under ``bench/``), and decodes the corpus as
``run_pipeline`` does: ``_decode_all`` with the default config and content
values on, pinned to one CPU.  One untimed round records every score list the
stand-in gives and every annotated input.  Each timed round then measures:

* decode: ``_decode_all`` with the stand-in, annotation included;
* annotate: the part of that decode spent annotating;
* search: ``_decode_all`` with the recorded annotations and a scorer that
  returns the recorded score lists in order, so the beam search and the
  lockstep scheduler alone.

Every round loads the schemas and builds the constraints afresh, as
``run_pipeline`` does, outside the timed spans.  A timed round whose decoded
texts differ from the recorded round's stops the script with an error.
Prints the min and median milliseconds per round of each.  The
``pipeline-remote`` workload runs the same search behind the wire protocol,
so only ``pipeline-local`` is offered.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from structsql import cli  # noqa: E402
from structsql.cli import PipelineConfig, _decode_all, _load_inputs  # noqa: E402
from structsql.decode import LexiconConstraint, TokenScorer, build_trie  # noqa: E402

from corpus import pipeline_corpus, write_files  # noqa: E402
from standin import build_standin  # noqa: E402


class Recorder(TokenScorer):
    """The wrapped scorer, keeping each ``score_batch`` call's score lists."""

    def __init__(self, inner: TokenScorer):
        super().__init__(inner.vocab)
        self.inner = inner
        self.calls: list[list[list[list[float]]]] = []

    def score_batch(self, requests):
        lists = list(self.inner.score_batch(requests))
        self.calls.append(lists)
        return lists


class Replay(TokenScorer):
    """The recorded calls' score lists, one call after another."""

    def __init__(self, vocab, calls):
        super().__init__(vocab)
        self.calls = iter(calls)

    def score_batch(self, requests):
        return next(self.calls)


def _one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline-local",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--rounds", default=10, type=int)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    _one_cpu()

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(pipeline_corpus(args.seed), Path(tmp))
        lm = build_standin(paths, args.seed)
        config = PipelineConfig(
            data=str(paths["examples"]), tables=str(paths["tables"]),
            content=str(paths["content"]), out_dir=tmp, include_values=True,
        )

        def inputs():
            schemas, examples = _load_inputs(config.tables, config.content, config.data)
            vocab = lm.vocab
            constraints = {
                db: LexiconConstraint(build_trie(s, vocab), vocab) for db, s in schemas.items()
            }
            return examples, schemas, constraints

        # _decode_all annotates each turn inside its chain, through the module's
        # _annotation_for: swapping that times the annotation or replays it.
        annotate = cli._annotation_for
        annotations: dict[int, object] = {}
        spent = [0.0]

        def recording(example, *rest):
            annotations[example.index] = annotated = annotate(example, *rest)
            return annotated

        def timed(*call):
            start = time.perf_counter()
            annotated = annotate(*call)
            spent[0] += time.perf_counter() - start
            return annotated

        def clock(name, scorer):
            examples, schemas, constraints = inputs()
            start = time.perf_counter()
            decoded = _decode_all(examples, schemas, constraints, config, lambda i: scorer)[1]
            elapsed = time.perf_counter() - start
            if decoded != expected:
                raise SystemExit(f"{name}: decoded texts differ from the recorded round")
            return elapsed

        recorder = Recorder(lm)
        times: dict[str, list[float]] = {"decode": [], "annotate": [], "search": []}
        try:
            cli._annotation_for = recording
            expected = _decode_all(*inputs(), config, lambda i: recorder)[1]
            for _ in range(args.rounds):
                spent[0] = 0.0
                cli._annotation_for = timed
                times["decode"].append(clock("decode", lm))
                times["annotate"].append(spent[0])
                cli._annotation_for = lambda example, *rest: annotations[example.index]
                times["search"].append(clock("search", Replay(lm.vocab, recorder.calls)))
        finally:
            cli._annotation_for = annotate

    lists = [scores for call in recorder.calls for request in call for scores in request]
    print(f"{args.workload} seed {args.seed}: {len(expected)} examples, {len(recorder.calls)}"
          f" scorer calls, {len(lists)} hypotheses, {sum(map(len, lists))} candidates")
    print(f"ms per round over {args.rounds} rounds: min / median")
    for name, values in times.items():
        print(f"  {name:<9}{1e3 * min(values):8.2f} / {1e3 * statistics.median(values):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
