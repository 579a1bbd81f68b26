"""SQL completion: infer missing FROM/JOIN tables and join keys from the schema graph.

Mentioned tables are treated as terminals; the connector is the smallest
table set whose induced table-link subgraph is connected, found at every
schema size by one exact search (Dreyfus-Wagner over hop counts).  Every graph
question is one breadth-first search (:func:`~structsql.schema.bfs`) over the
neighbour bitmasks: whether every terminal is reachable, hop counts, whether a
table set is connected, the join order (the BFS tree over the connector), and
the terminal-pair paths behind each rationale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations
from operator import add
from typing import Iterable, Sequence

from structsql.schema import ColumnRef, DatabaseSchema, SchemaGraph, bfs
from structsql.sql_ast import SqlQuery, _iter_refs, map_query

logger = logging.getLogger(__name__)

# Nothing in src reads this; bench/workloads.py imports it to label its trace spans.
EXACT_TABLE_LIMIT = 10


class Disconnected(ValueError):
    """No join path exists between two required tables."""

    def __init__(self, a: str, b: str):
        super().__init__(f"no join path between {a!r} and {b!r}")


@dataclass(frozen=True)
class CompletionPlan:
    """Record of what completion added and why."""

    added_tables: tuple[str, ...] = ()
    join_conditions: tuple[tuple[ColumnRef, ColumnRef], ...] = ()
    rationale: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.added_tables or self.join_conditions)


def connect_terminals(graph: SchemaGraph, terminals: Iterable[str]) -> list[str]:
    """Minimal table set containing the terminals whose induced table-link
    subgraph is connected, in schema declaration order.

    Raises :class:`Disconnected` naming the lowest terminal and the lowest one
    unreachable from it.  One exact search serves every schema size; among
    minimal connectors it returns the first in (size, then lexicographic tuple
    of added declaration indices) order.
    """
    term_indices = sorted({graph.table_index(t) for t in terminals})
    if not term_indices:
        raise ValueError("at least one terminal table is required")
    adj, root, t = graph.adj, 1 << term_indices[0], len(term_indices)
    term_mask = sum(1 << i for i in term_indices)
    if len(bfs(adj, root, term_mask)) == t:  # the terminals alone are connected
        return [graph.tables[i] for i in term_indices]
    reached = bfs(adj, root)
    missing = next((i for i in term_indices if i not in reached), None)
    if missing is not None:
        raise Disconnected(graph.tables[term_indices[0]], graph.tables[missing])
    # A non-terminal table with at most one neighbour left is in no minimal connector.
    alive = sum(1 << i for i in reached)
    while leaves := sum(1 << i for i in reached if (alive & ~term_mask) >> i & 1
                        and (adj[i] & alive).bit_count() <= 1):
        alive ^= leaves
    nodes = [i for i in range(len(adj)) if alive >> i & 1]
    hops = []  # hops[k][j]: links on a shortest path from nodes[k] to nodes[j]
    for i in nodes:
        depth = {-1: -1}
        for child, parent in bfs(adj, 1 << i, alive).items():
            depth[child] = depth[parent] + 1
        hops.append([depth[j] for j in nodes])
    # Dreyfus-Wagner: cost[s][k] is the fewest links in a tree that joins
    # nodes[k] to the terminal subset s; it branches at some node or is a path.
    cost = {1 << b: hops[nodes.index(i)] for b, i in enumerate(term_indices)}
    for s in range(3, 1 << t):
        if s & (s - 1):
            halves, a = [], s
            while a := (a - 1) & s:  # the proper submasks of s: 3^t in all
                if a & s & -s:  # each split once, by the half with the lowest terminal
                    halves.append(map(add, cost[a], cost[s ^ a]))
            branch = list(map(min, zip(*halves)))
            cost[s] = [min(map(add, branch, row)) for row in hops]
    links = min(full := cost[(1 << t) - 1])
    # Equal-size sets order by the lowest table in their symmetric difference,
    # so dropping the tables on no minimal connector keeps the tie-break.
    on = [i for i, c in zip(nodes, full) if c == links and not term_mask >> i & 1]
    masks = (term_mask | sum(1 << i for i in combo) for combo in combinations(on, links + 1 - t))
    mask = next(m for m in masks if len(bfs(adj, root, m)) == m.bit_count())
    return [graph.tables[i] for i in range(len(graph.tables)) if mask >> i & 1]


def _scope_tables(q: SqlQuery, graph: SchemaGraph) -> list[str]:
    """Tables mentioned by this query level (its own clauses, not subqueries)."""
    seen: dict[str, None] = {}
    for t in q.from_tables:
        seen.setdefault(graph.canonical(t), None)
    for ref in _iter_refs(q):
        if ref.table:
            seen.setdefault(graph.canonical(ref.table), None)
    return list(seen)


def _conditions_span(from_tables: Sequence[str], conditions) -> bool:
    """Whether the ON pairs join every FROM table into one component."""
    index = {t.lower(): i for i, t in enumerate(from_tables)}
    adj = [0] * len(from_tables)
    for a, b in conditions:
        ia, ib = index.get((a.table or "").lower()), index.get((b.table or "").lower())
        if ia is not None and ib is not None:
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
    return len(bfs(adj, 1)) == len(from_tables)


def _first_fk(graph: SchemaGraph, a: str, b: str) -> tuple[ColumnRef, ColumnRef]:
    # Every table link comes from a foreign key pair, so there is at least one.
    fks = graph.foreign_keys_between(a, b)
    if len(fks) > 1:
        logger.info(
            "tables %r and %r share %d foreign keys; using the first declared",
            a, b, len(fks),
        )
    return fks[0]


def _rationale(graph: SchemaGraph, added: Sequence[str], terminals: list[str]) -> list[str]:
    if not added:
        return []
    paths = [
        (a, b, graph.path(1 << graph.table_index(a), 1 << graph.table_index(b))[1:-1])
        for a, b in combinations(terminals, 2)
    ]
    notes = []
    for table in added:
        i = graph.table_index(table)
        pairs = (f"on the join path between {a} and {b}" for a, b, inner in paths if i in inner)
        notes.append(f"{table}: {next(pairs, 'required to connect the join graph')}")
    return notes


def complete_sql(
    q: SqlQuery, schema: DatabaseSchema, graph: SchemaGraph
) -> tuple[SqlQuery, CompletionPlan]:
    """Rewrite the FROM clause of every query level so that each level's
    mentioned tables are join-connected.

    Each level (the query itself, nested subqueries in condition values, and
    set-operation branches) is completed on its own from the tables its own
    clauses mention; the plan concatenates the levels' plans in
    :func:`~structsql.sql_ast.map_query` order.  Already-connected levels come
    back unchanged, so a connected query has an empty plan.  Added join
    conditions always take the first-declared foreign key of each edge,
    rendered child-key = parent-key.  Clauses other than FROM are untouched.
    """
    plans: list[CompletionPlan] = []

    def complete_level(level: SqlQuery) -> SqlQuery:
        fixed, plan = _complete_level(level, graph)
        plans.append(plan)
        return fixed

    completed = map_query(q, complete_level)
    return completed, CompletionPlan(
        added_tables=tuple(t for p in plans for t in p.added_tables),
        join_conditions=tuple(c for p in plans for c in p.join_conditions),
        rationale=tuple(r for p in plans for r in p.rationale),
    )


def _complete_level(q: SqlQuery, graph: SchemaGraph) -> tuple[SqlQuery, CompletionPlan]:
    terminals = _scope_tables(q, graph)
    if not terminals:
        return q, CompletionPlan()
    connector = connect_terminals(graph, terminals)
    from_set = {t.lower() for t in q.from_tables}
    if {t.lower() for t in connector} <= from_set and _conditions_span(
        q.from_tables, q.join_conditions
    ):
        return q, CompletionPlan()
    # Every FROM table is itself a terminal, so the connector covers it.
    # The join order is the BFS tree over the connector from the first table.
    root = graph.table_index(q.from_tables[0] if q.from_tables else connector[0])
    within = sum(1 << graph.table_index(t) for t in connector)
    tree = list(bfs(graph.adj, 1 << root, within).items())
    order = [graph.tables[i] for i, _ in tree]
    conditions = tuple(_first_fk(graph, graph.tables[p], graph.tables[i]) for i, p in tree[1:])
    added = tuple(t for t in order if t.lower() not in from_set)
    plan = CompletionPlan(
        added_tables=added,
        join_conditions=conditions,
        rationale=tuple(_rationale(graph, added, terminals)),
    )
    return replace(q, from_tables=tuple(order), join_conditions=conditions), plan
