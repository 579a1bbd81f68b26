"""SQL completion: infer missing FROM/JOIN tables and join keys from the schema graph.

Mentioned tables are treated as terminals; the connector is the smallest
table set whose induced table-link subgraph is connected, found exactly at
every schema size at a cost that follows the schema: a tree left after
stripping is its own connector, else the cheaper of trying added table sets
by size and Dreyfus-Wagner over hop counts.  Every graph
question is one breadth-first search (:func:`~structsql.schema.bfs`) over the
neighbour bitmasks: whether every terminal is reachable, hop counts, whether a
table set is connected, the join order (the BFS tree over the connector), and
the terminal-pair paths behind each rationale.  A level's tables are
declaration indices from its mentions to its rewrite; names are built only
for the plan and the rewritten FROM list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations
from operator import add
from typing import Iterable

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
    unreachable from it.  Among minimal connectors it returns the first in
    (size, then lexicographic tuple of added declaration indices) order.
    Non-terminal leaves are stripped first; a tree left is the only minimal
    connector.  Otherwise, with m non-terminals left, added sets are tried
    by size when 2^m <= 3^t, and Dreyfus-Wagner's 3^t steps run when not.
    """
    mask = _connector(graph, sorted({graph.table_index(t) for t in terminals}))
    return [t for i, t in enumerate(graph.tables) if mask >> i & 1]


def _connector(graph: SchemaGraph, term_indices: list[int]) -> int:
    """:func:`connect_terminals` over ascending distinct table indices, as a
    bitmask."""
    if not term_indices:
        raise ValueError("at least one terminal table is required")
    adj, root, t = graph.adj, 1 << term_indices[0], len(term_indices)
    term_mask = sum(1 << i for i in term_indices)
    if len(bfs(adj, root, term_mask)) == t:  # the terminals alone are connected
        return term_mask
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
    if sum((adj[i] & alive).bit_count() for i in nodes) == 2 * (len(nodes) - 1):
        return alive  # a tree whose leaves are terminals: the only connector
    free = [i for i in nodes if not term_mask >> i & 1]
    if 2 ** len(free) <= 3 ** t:  # fewer added sets than Dreyfus-Wagner's steps: try each
        combos = (c for k in range(1, len(free) + 1) for c in combinations(free, k))
    else:
        links, on = _steiner_links(adj, nodes, alive, term_indices)
        combos = combinations(on, links + 1 - t)
    masks = (term_mask | sum(1 << i for i in combo) for combo in combos)
    return next(m for m in masks if len(bfs(adj, root, m)) == m.bit_count())


def _steiner_links(adj, nodes: list[int], alive: int, term_indices: list[int]):
    """Dreyfus-Wagner over hop counts: the fewest links that join the
    terminals within ``alive``, and the non-terminal ``nodes`` that lie on
    some tree of that size."""
    hops = []  # hops[k][j]: links on a shortest path from nodes[k] to nodes[j]
    for i in nodes:
        depth = {-1: -1}
        for child, parent in bfs(adj, 1 << i, alive).items():
            depth[child] = depth[parent] + 1
        hops.append([depth[j] for j in nodes])
    # cost[s][k] is the fewest links in a tree that joins nodes[k] to the
    # terminal subset s; it branches at some node or is a path.
    t = len(term_indices)
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
    return links, [i for i, c in zip(nodes, full) if c == links and i not in term_indices]


def _first_fk(graph: SchemaGraph, i: int, j: int) -> tuple[ColumnRef, ColumnRef]:
    # Every table link comes from a foreign key pair, so there is at least one.
    fks = graph.link_keys[min(i, j), max(i, j)]
    if len(fks) > 1:
        logger.info(
            "tables %r and %r share %d foreign keys; using the first declared",
            graph.tables[i], graph.tables[j], len(fks),
        )
    return fks[0]


def _rationale(graph: SchemaGraph, added: list[int], terminals: list[int]) -> list[str]:
    if not added:
        return []
    names = graph.tables
    paths = [(a, b, graph.path(1 << a, 1 << b)[1:-1]) for a, b in combinations(terminals, 2)]
    notes = []
    for i in added:
        pairs = (f"on the join path between {names[a]} and {names[b]}"
                 for a, b, inner in paths if i in inner)
        notes.append(f"{names[i]}: {next(pairs, 'required to connect the join graph')}")
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

    ``q`` must be resolved against ``schema`` (``parse_sql(text, schema)``):
    completion works in the tables' declaration indices and reads every
    qualified reference as a schema table.
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
    index = graph.table_index
    from_indices = [index(t) for t in q.from_tables]
    # The level's own tables as terminals, in mention order: FROM, then its
    # clauses' qualified references.
    terminals = list(dict.fromkeys(
        [*from_indices, *(index(ref.table) for ref in _iter_refs(q) if ref.table)]
    ))
    if not terminals:
        return q, CompletionPlan()
    connector = _connector(graph, sorted(terminals))
    from_mask = sum(1 << i for i in set(from_indices))
    # Complete as it stands: the connector is the FROM list, and the ON pairs
    # join every FROM table into one component (so no FROM table repeats).
    if connector == from_mask:
        on = [0] * len(graph.tables)
        for a, b in q.join_conditions:
            i, j = index(a.table), index(b.table)
            on[i] |= 1 << j
            on[j] |= 1 << i
        if len(bfs(on, 1 << from_indices[0])) == len(from_indices):
            return q, CompletionPlan()
    # Every FROM table is itself a terminal, so the connector covers it.
    # The join order is the BFS tree over the connector from the first table.
    root = from_indices[0] if from_indices else (connector & -connector).bit_length() - 1
    tree = bfs(graph.adj, 1 << root, connector)
    conditions = tuple(_first_fk(graph, p, i) for i, p in tree.items() if p >= 0)
    added = [i for i in tree if not from_mask >> i & 1]
    names = graph.tables
    plan = CompletionPlan(
        added_tables=tuple(names[i] for i in added),
        join_conditions=conditions,
        rationale=tuple(_rationale(graph, added, terminals)),
    )
    return replace(q, from_tables=tuple(names[i] for i in tree), join_conditions=conditions), plan
