"""A seeded stand-in language model behind the public ``TokenScorer`` contract.

Each example has a target token sequence.  At every step the target token
(``target[len(prefix)]``, or EOS past the end) scores exactly 0; every other
candidate gets a distinct score in (-2, -1].  All scores are log-scores
(<= 0), so the target path has score 0 and every other path is at most -1:
exact constrained beam search must return the target, while the beam still
carries tie-free competitors as a real model's beam does.

Distinctness is by construction, not by luck: for one call the other
candidates' scores are ``-1 - k(c) * 2**-52`` with ``k(c) = (a*c + b) mod 2**52``
and ``a`` odd, a bijection on ids below 2**52, and every such value is an
exact double.  ``a`` and ``b`` are drawn from a hash of the seed, the example,
the prefix length and the last emitted token.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from structsql.cli import load_examples
from structsql.decode import TokenScorer, Vocabulary
from structsql.schema import load_schemas
from structsql.sql_ast import SqlQuery, parse_sql, render_sql

_M64 = (1 << 64) - 1
_K_BITS = 52
_K_MASK = (1 << _K_BITS) - 1
_K_SCALE = 2.0 ** -_K_BITS


def mix64(*values: int) -> int:
    """Small integer hash (multiply-xorshift), stable across processes."""
    h = 0x243F6A8885A308D3
    for v in values:
        h = ((h ^ (v & _M64)) * 0x9E3779B97F4A7C15) & _M64
        h ^= h >> 29
    return h


class StandInLM(TokenScorer):
    """Scores the next token of a per-example target; see the module docstring.

    ``targets`` maps the example id the beam passes (``str(index)``) to target
    token ids.  The source tokens are ignored, which is what lets the same
    object serve in process and behind ``ScorerServer`` (which sends none).
    """

    def __init__(self, vocab: Vocabulary, targets: Mapping[str, Sequence[int]], seed: int):
        super().__init__(vocab)
        self.targets = {k: tuple(v) for k, v in targets.items()}
        self.seed = seed

    def expected(self, example_id: str, prefix: Sequence[int]) -> int:
        target = self.targets[example_id]
        n = len(prefix)
        return target[n] if n < len(target) else self.eos_id

    def score_candidates(self, source, prefix, candidates, example_id=None):
        if example_id is None:
            raise ValueError("the stand-in LM scores per example and needs its id")
        expected = self.expected(example_id, prefix)
        h = mix64(self.seed, int(example_id), len(prefix), prefix[-1] if prefix else -1)
        a = (h | 1) & _K_MASK
        b = mix64(h) & _K_MASK
        return [
            0.0 if c == expected else -1.0 - (((a * c + b) & _K_MASK) * _K_SCALE)
            for c in candidates
        ]


def strip_joins(query: SqlQuery) -> SqlQuery:
    """FROM cut to its first table and JOIN conditions dropped, at the top
    level and along the set-operation chain (the levels completion repairs)."""
    if len(query.from_tables) > 1:
        query = replace(query, from_tables=query.from_tables[:1], join_conditions=())
    if query.set_op is not None:
        query = replace(query, set_op=(query.set_op[0], strip_joins(query.set_op[1])))
    return query


def stripped_text(gold: str, schema) -> str:
    """The stand-in's target for one gold query: the model emits no JOINs."""
    return render_sql(strip_joins(parse_sql(gold, schema)))


def build_standin(paths: Mapping[str, Path], seed: int) -> StandInLM:
    """The stand-in for a written corpus, over the vocabulary ``run_pipeline``
    builds from the same files (so token ids and the handshake agree)."""
    schemas = load_schemas(paths["tables"], paths["content"])
    examples = load_examples(paths["examples"])
    vocab = Vocabulary.build(schemas.values(), corpus_texts=[e.query for e in examples])
    lines = Path(paths["stripped"]).read_text(encoding="utf-8").splitlines()
    targets = {str(e.index): vocab.tokenize(line) for e, line in zip(examples, lines)}
    return StandInLM(vocab, targets, seed)
