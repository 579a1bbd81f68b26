"""Benchmark inputs, made from ``--seed`` by the program's own ``synth`` module.

The program only ever receives the files written here.  The seed picks the
schemas and queries; the make-up is fixed, so every seed asks for about the
same work:

* schema widths: ``SCHEMAS_PER_WIDTH`` schemas of each table count in the
  workload's width list, each width contributing the same number of examples;
* interactions follow ``TURN_CYCLE`` on one database each (multi-turn
  examples carry all their turns, oldest first);
* examples alternate multi-table and single-table gold queries, so exactly
  half are "stripped" (the stand-in emits them without JOINs);
* picks from a larger synth pool keep the running means of target tokens,
  numeric literals and question words within ``TOLERANCE`` of ``TARGET``
  (the natural means of synth's queries), since decode cost follows the
  first two and linking cost the third;
* ``offline-wide`` appends a fixed, seed-independent block of predictions
  whose missing table sits inside a nested ``IN (SELECT ...)``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from structsql.decode import pieces
from structsql.schema import load_schema
from structsql.sql_ast import parse_sql
from structsql.synth import generate_synthetic_corpus

from standin import stripped_text

# Interaction lengths, cycled: 3 single-turn, one 2-turn, one 3-turn -> 8 examples.
TURN_CYCLE = (1, 2, 1, 3, 1)
SCHEMAS_PER_WIDTH = 2

PIPELINE_WIDTHS = (2, 3, 4, 5, 6, 7, 8)  # synth's default range
PIPELINE_PER_WIDTH = 8
PIPELINE_POOL = 64  # synth queries drawn per width
OFFLINE_WIDTHS = (6, 7, 8, 9, 10, 12, 13, 14, 15, 16)  # both sides of the exact/greedy cut
OFFLINE_PER_WIDTH = 24
OFFLINE_POOL = 96
NESTED_DB = "nested_fixed"
NESTED_EXAMPLES = 24

# Per-example means (target tokens, numeric literals, question words) and the
# largest drift of a running sum from its mean path.
TARGET = (19.0, 0.9, 9.0)
TOLERANCE = (4.0, 1.0, 3.0)


@dataclass
class Corpus:
    schema_docs: list[dict]
    content: dict[str, dict[str, list[str]]]
    examples: list[dict]
    # The JOIN-stripped form of each gold query: the stand-in's target in the
    # pipeline workloads, the prediction file in offline-wide.
    stripped: list[str]
    nested: frozenset[int] = field(default_factory=frozenset)
    synth_s: float = 0.0  # time inside generate_synthetic_corpus

    def turn_mix(self) -> dict[int, int]:
        sizes: dict[str, int] = {}
        for ex in self.examples:
            sizes[ex["interaction_id"]] = sizes.get(ex["interaction_id"], 0) + 1
        mix: dict[int, int] = {}
        for n in sizes.values():
            mix[n] = mix.get(n, 0) + 1
        return dict(sorted(mix.items()))


@dataclass
class _Candidate:
    example: dict
    stripped: str
    features: tuple[float, ...]


class _Picker:
    """Running feature sums of the examples taken so far."""

    def __init__(self) -> None:
        self.sums = [0.0] * len(TARGET)
        self.taken = 0

    def drift(self, c: _Candidate) -> float:
        k = self.taken + 1
        return max(
            abs(s + f - k * t) / tol
            for s, f, t, tol in zip(self.sums, c.features, TARGET, TOLERANCE)
        )

    def take(self, queue: list[_Candidate]) -> _Candidate:
        """The first candidate that keeps every running sum on its path, else
        the one that strays least."""
        drifts = [self.drift(c) for c in queue]
        fits = [i for i, d in enumerate(drifts) if d <= 1]
        best = fits[0] if fits else min(range(len(queue)), key=drifts.__getitem__)
        c = queue.pop(best)
        self.sums = [s + f for s, f in zip(self.sums, c.features)]
        self.taken += 1
        return c


def _candidates(synth, tag: str) -> tuple[list[dict], dict, dict[str, dict[bool, list[_Candidate]]]]:
    """Rename db ids (several synth corpora share one tables.json) and queue
    the pool per database and per multi-table flag."""
    docs = [dict(d, db_id=f"{tag}_{d['db_id']}") for d in synth.schema_docs]
    content = {f"{tag}_{db}": v for db, v in synth.content.items()}
    schemas = {d["db_id"]: load_schema(d, content.get(d["db_id"])) for d in docs}
    queues: dict[str, dict[bool, list[_Candidate]]] = {
        db: {True: [], False: []} for db in sorted(schemas)
    }
    for ex in synth.examples:
        ex = dict(ex, db_id=f"{tag}_{ex['db_id']}")
        stripped = stripped_text(ex["query"], schemas[ex["db_id"]])
        toks = pieces(stripped)
        features = (len(toks), sum(t.isdigit() for t in toks), len(ex["question"].split()))
        queues[ex["db_id"]][stripped != ex["query"]].append(_Candidate(ex, stripped, features))
    return docs, content, queues


def _interactions(queues, n_examples: int, picker: _Picker, prefix: str):
    """Same-database interactions along TURN_CYCLE, databases in turn,
    alternating multi-table and single-table golds."""
    dbs = list(queues)
    examples: list[dict] = []
    stripped: list[str] = []
    j = 0
    while len(examples) < n_examples:
        length = min(TURN_CYCLE[j % len(TURN_CYCLE)], n_examples - len(examples))
        db = dbs[j % len(dbs)]
        turns: list[str] = []
        for _ in range(length):
            queue = queues[db][picker.taken % 2 == 0]
            if not queue:
                raise RuntimeError("synthetic pool too small for the interaction plan")
            c = picker.take(queue)
            turns.append(c.example["question"])
            examples.append(
                {
                    "db_id": db,
                    "interaction_id": f"{prefix}{j:03d}",
                    "question": turns[0] if length == 1 else list(turns),
                    "query": c.example["query"],
                }
            )
            stripped.append(c.stripped)
        j += 1
    return examples, stripped


def _draw(seed: int, widths, per_width: int, pool: int, tag: str) -> Corpus:
    """``per_width`` examples on ``SCHEMAS_PER_WIDTH`` schemas of each width."""
    corpus = Corpus([], {}, [], [])
    picker = _Picker()
    for w in widths:
        start = time.perf_counter()
        synth = generate_synthetic_corpus(
            seed * 100 + w, SCHEMAS_PER_WIDTH, pool,
            with_values=True, min_tables=w, max_tables=w,
        )
        corpus.synth_s += time.perf_counter() - start
        docs, content, queues = _candidates(synth, f"{tag}{w}")
        examples, stripped = _interactions(queues, per_width, picker, f"{tag}{w}_")
        corpus.schema_docs += docs
        corpus.content.update(content)
        corpus.examples += examples
        corpus.stripped += stripped
    return corpus


def pipeline_corpus(seed: int) -> Corpus:
    return _draw(seed, PIPELINE_WIDTHS, PIPELINE_PER_WIDTH, PIPELINE_POOL, "p")


# A fixed chain schema for the nested-subquery block; it does not depend on
# the seed, so the failing share is the same in every run.
_NESTED_TABLES = (
    "leagues", "clubs", "players", "contracts", "agents", "agencies",
    "cities", "regions", "countries", "continents", "planets", "systems",
)


def _nested_doc() -> dict:
    columns: list[list] = [[-1, "*"]]
    types = ["text"]
    pks: list[int] = []
    fks: list[list[int]] = []
    for t, name in enumerate(_NESTED_TABLES):
        pks.append(len(columns))
        columns.append([t, "id"])
        types.append("integer")
        columns.append([t, "name"])
        types.append("text")
        columns.append([t, "rank"])
        types.append("integer")
        if t:
            fks.append([len(columns), pks[t - 1]])
            columns.append([t, f"{_NESTED_TABLES[t - 1]}_id"])
            types.append("integer")
    return {
        "db_id": NESTED_DB,
        "table_names_original": list(_NESTED_TABLES),
        "column_names_original": columns,
        "column_types": types,
        "primary_keys": pks,
        "foreign_keys": fks,
    }


def _nested_block(start: int) -> tuple[list[dict], list[str]]:
    """Predictions whose inner level filters on a table it does not select
    from; the gold joins that table in.  Outer levels are complete."""
    examples, predictions = [], []
    n = len(_NESTED_TABLES)
    for k in range(NESTED_EXAMPLES):
        inner = 1 + k % (n - 1)  # child table; its parent is inner - 1
        parent = _NESTED_TABLES[inner - 1]
        child = _NESTED_TABLES[inner]
        outer = _NESTED_TABLES[(inner + 1 + k // (n - 1)) % n]
        fk = f"{child}.{parent}_id"
        prediction = (
            f"SELECT {outer}.name FROM {outer} WHERE {outer}.id IN "
            f"(SELECT {child}.id FROM {child} WHERE {parent}.rank = {1 + k})"
        )
        gold = (
            f"SELECT {outer}.name FROM {outer} WHERE {outer}.id IN "
            f"(SELECT {child}.id FROM {child} JOIN {parent} ON {fk} = {parent}.id "
            f"WHERE {parent}.rank = {1 + k})"
        )
        examples.append(
            {
                "db_id": NESTED_DB,
                "interaction_id": f"n{start + k:04d}",
                "question": f"show name of {outer} whose {child} has {parent} rank {1 + k}",
                "query": gold,
            }
        )
        predictions.append(prediction)
    return examples, predictions


def offline_corpus(seed: int) -> Corpus:
    corpus = _draw(seed, OFFLINE_WIDTHS, OFFLINE_PER_WIDTH, OFFLINE_POOL, "w")
    nested_examples, nested_predictions = _nested_block(len(corpus.examples))
    corpus.nested = frozenset(
        range(len(corpus.examples), len(corpus.examples) + len(nested_examples))
    )
    corpus.schema_docs.append(_nested_doc())
    nested_schema = load_schema(corpus.schema_docs[-1])
    for ex, pred in zip(nested_examples, nested_predictions):
        parse_sql(ex["query"], nested_schema)  # self-check: the block parses
        parse_sql(pred, nested_schema)
    corpus.examples += nested_examples
    corpus.stripped += nested_predictions
    return corpus


def corpus_paths(out_dir: Path) -> dict[str, Path]:
    return {
        name: out_dir / f"{name}.{ext}"
        for name, ext in (
            ("tables", "json"), ("content", "json"), ("examples", "json"),
            ("gold", "sql"), ("stripped", "sql"),
        )
    }


def write_files(corpus: Corpus, out_dir: Path) -> dict[str, Path]:
    """tables.json, content.json, examples.json, gold.sql and stripped.sql."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = corpus_paths(out_dir)
    paths["tables"].write_text(json.dumps(corpus.schema_docs, indent=1) + "\n", encoding="utf-8")
    paths["content"].write_text(json.dumps(corpus.content, indent=1) + "\n", encoding="utf-8")
    paths["examples"].write_text(json.dumps(corpus.examples, indent=1) + "\n", encoding="utf-8")
    paths["gold"].write_text("".join(e["query"] + "\n" for e in corpus.examples), encoding="utf-8")
    paths["stripped"].write_text("".join(s + "\n" for s in corpus.stripped), encoding="utf-8")
    return paths
