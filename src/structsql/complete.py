"""SQL completion: infer missing FROM/JOIN tables and join keys from the schema graph.

Mentioned tables are treated as terminals; the connector is the smallest
table set whose induced table-link subgraph is connected.  Small graphs are
solved exactly by subset enumeration, larger ones by greedy pairwise merging
of closest components.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Sequence

from structsql.schema import ColumnRef, DatabaseSchema, SchemaGraph
from structsql.sql_ast import SqlQuery, _iter_refs, map_query

logger = logging.getLogger(__name__)

EXACT_TABLE_LIMIT = 10


class Disconnected(ValueError):
    """No join path exists between two required tables."""

    def __init__(self, a: str, b: str):
        super().__init__(f"no join path between {a!r} and {b!r}")
        self.pair = (a, b)


class MissingJoinKey(RuntimeError):
    """A table-link edge has no foreign key pair (impossible by construction)."""


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

    Graphs of up to ``EXACT_TABLE_LIMIT`` tables are solved exactly by subset
    enumeration, larger ones by greedy pairwise component merge along
    shortest paths.  Ties are broken toward smaller declaration indices, so
    results are deterministic.
    """
    term_indices = sorted({graph.table_index(t) for t in terminals})
    if not term_indices:
        raise ValueError("at least one terminal table is required")
    if len(graph.tables) <= EXACT_TABLE_LIMIT:
        indices = _connect_exact(graph, term_indices)
    else:
        indices = _connect_greedy(graph, term_indices)
    return [graph.tables[i] for i in sorted(indices)]


def _adjacency_masks(graph: SchemaGraph) -> list[int]:
    masks = [0] * len(graph.tables)
    for i, name in enumerate(graph.tables):
        for neighbor in graph.neighbors(name):
            masks[i] |= 1 << graph.table_index(neighbor)
    return masks


def _mask_connected(mask: int, adj: list[int]) -> bool:
    seed = mask & -mask
    reach = seed
    while True:
        grown = reach
        probe = reach
        while probe:
            low = probe & -probe
            grown |= adj[low.bit_length() - 1] & mask
            probe ^= low
        if grown == reach:
            break
        reach = grown
    return reach == mask


def _connect_exact(graph: SchemaGraph, term_indices: list[int]) -> list[int]:
    adj = _adjacency_masks(graph)
    term_mask = 0
    for i in term_indices:
        term_mask |= 1 << i
    others = [i for i in range(len(graph.tables)) if not term_mask >> i & 1]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            mask = term_mask
            for i in combo:
                mask |= 1 << i
            if _mask_connected(mask, adj):
                return [i for i in range(len(graph.tables)) if mask >> i & 1]
    a, b = _first_disconnected_pair(graph, term_indices)
    raise Disconnected(a, b)


def _first_disconnected_pair(graph: SchemaGraph, term_indices: list[int]) -> tuple[str, str]:
    for i, j in combinations(term_indices, 2):
        if not graph.connected(graph.tables[i], graph.tables[j]):
            return graph.tables[i], graph.tables[j]
    return graph.tables[term_indices[0]], graph.tables[term_indices[-1]]


def _connect_greedy(graph: SchemaGraph, term_indices: list[int]) -> list[int]:
    components: list[set[int]] = [{i} for i in term_indices]
    while len(components) > 1:
        best: tuple | None = None
        for a, b in combinations(range(len(components)), 2):
            path = graph.index_path(components[a], components[b])
            if path is None:
                continue
            key = (len(path), tuple(path), a, b)
            if best is None or key < best[0]:
                best = (key, a, b, path)
        if best is None:
            a = graph.tables[min(components[0])]
            b = graph.tables[min(components[1])]
            raise Disconnected(a, b)
        _, a, b, path = best
        merged = components[a] | components[b] | set(path)
        components = [
            c for k, c in enumerate(components) if k not in (a, b)
        ] + [merged]
    return sorted(components[0])


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
    return _mask_connected((1 << len(from_tables)) - 1, adj)


def _first_fk(graph: SchemaGraph, a: str, b: str) -> tuple[ColumnRef, ColumnRef]:
    fks = graph.foreign_keys_between(a, b)
    if not fks:
        raise MissingJoinKey(f"table link {a!r}-{b!r} lost its foreign key")
    if len(fks) > 1:
        logger.info(
            "tables %r and %r share %d foreign keys; using the first declared",
            a, b, len(fks),
        )
    return fks[0]


def _join_order(
    graph: SchemaGraph, connector: list[str], root: str
) -> tuple[list[str], list[tuple[ColumnRef, ColumnRef]]]:
    """BFS over the connector's induced subgraph: join order and FK conditions."""
    in_connector = {t.lower() for t in connector}
    order = [root]
    conditions: list[tuple[ColumnRef, ColumnRef]] = []
    visited = {root.lower()}
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        for neighbor in graph.neighbors(current):
            low = neighbor.lower()
            if low in in_connector and low not in visited:
                visited.add(low)
                order.append(neighbor)
                conditions.append(_first_fk(graph, current, neighbor))
                frontier.append(neighbor)
    return order, conditions


def _rationale(graph: SchemaGraph, added: list[str], terminals: list[str]) -> list[str]:
    notes = []
    for table in added:
        note = f"{table}: required to connect the join graph"
        for a, b in combinations(terminals, 2):
            path = graph.shortest_path(a, b)
            if path and table in path[1:-1]:
                note = f"{table}: on the join path between {a} and {b}"
                break
        notes.append(note)
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
    root = graph.canonical(q.from_tables[0]) if q.from_tables else connector[0]
    order, conditions = _join_order(graph, connector, root)
    added = tuple(t for t in order if t.lower() not in from_set)
    plan = CompletionPlan(
        added_tables=added,
        join_conditions=tuple(conditions),
        rationale=tuple(_rationale(graph, list(added), terminals)),
    )
    return replace(q, from_tables=tuple(order), join_conditions=tuple(conditions)), plan
