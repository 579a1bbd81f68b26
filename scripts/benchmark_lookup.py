#!/usr/bin/env python3
"""Measure allowed-token lookup latency across schema sizes.

The per-step mask lookup must not scale with schema width: the inactive-state
mask is precomputed and per-node masks are cached, so a lookup is a dictionary
probe whether the schema has ten columns or ten thousand.
"""

import argparse
import time

from structsql.decode import DecodeState, LexiconConstraint, Vocabulary, build_trie
from structsql.schema import ColumnDef, ColumnType, DatabaseSchema, TableDef


def grid_schema(n_tables: int, cols_per_table: int) -> DatabaseSchema:
    tables = tuple(
        TableDef(
            name=f"t{t:03d}",
            columns=tuple(
                ColumnDef(f"c{j:03d}", ColumnType.TEXT) for j in range(cols_per_table)
            ),
        )
        for t in range(n_tables)
    )
    return DatabaseSchema(db_id=f"grid_{n_tables}x{cols_per_table}", tables=tables)


def mean_latency(schema: DatabaseSchema, calls: int) -> float:
    vocab = Vocabulary.build([schema])
    trie = build_trie(schema, vocab)
    constraint = LexiconConstraint(trie, vocab)
    first = schema.tables[0].name
    states = [
        DecodeState(),
        DecodeState(tokens=(0,), node=trie.node_at(vocab.tokenize(f"{first}."))),
        DecodeState(tokens=(0,), node=trie.node_at(vocab.tokenize(f"{first}.c000"))),
    ]
    for s in states:
        constraint.candidate_ids(s)
    start = time.perf_counter()
    for i in range(calls):
        constraint.candidate_ids(states[i % 3])
    return (time.perf_counter() - start) / calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=100_000)
    args = parser.parse_args()

    shapes = [(1, 10), (10, 10), (10, 100), (100, 100)]
    baseline = None
    print(f"{'columns':>8} {'mean ns/call':>14} {'vs smallest':>12}")
    for n_tables, cols in shapes:
        schema = grid_schema(n_tables, cols)
        latency = min(mean_latency(schema, args.calls) for _ in range(3))
        baseline = baseline or latency
        print(f"{n_tables * cols:>8} {latency * 1e9:>14.0f} {latency / baseline:>11.2f}x")


if __name__ == "__main__":
    main()
