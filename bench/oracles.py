"""Independent checks of the program's outputs.

Written apart from ``structsql.complete``: the schema graph comes straight
from the Spider document's ``foreign_keys`` (not ``SchemaGraph``), query
levels are walked here (not with the package's walkers), and the minimal
connector is found by exhaustive subset enumeration with union-find (not
bitmask search or greedy merging).  Only the parser is shared, to read SQL
text into a tree.
"""

from __future__ import annotations

from itertools import combinations

from structsql.schema import ColumnRef
from structsql.sql_ast import SqlQuery, parse_sql


class SchemaFacts:
    """Table indices, table-link edges and FK column pairs of one Spider doc."""

    def __init__(self, doc: dict):
        self.names = set(doc["table_names_original"])
        self.tables = [t.lower() for t in doc["table_names_original"]]
        self.index = {t: i for i, t in enumerate(self.tables)}
        cols = doc["column_names_original"]
        self.edges: set[tuple[int, int]] = set()
        self.fk_pairs: set[frozenset] = set()
        for child, parent in doc["foreign_keys"]:
            ct, cn = cols[child]
            pt, pn = cols[parent]
            if ct != pt:
                self.edges.add((min(ct, pt), max(ct, pt)))
            self.fk_pairs.add(
                frozenset({(self.tables[ct], cn.lower()), (self.tables[pt], pn.lower())})
            )


def _components(nodes: set[int], edges) -> int:
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    return len({find(v) for v in nodes})


def brute_force_min_connector(facts: SchemaFacts, terminals: set[str]) -> int | None:
    """Size of the smallest table set containing ``terminals`` whose induced
    table-link subgraph is connected; None when none exists."""
    term = {facts.index[t.lower()] for t in terminals}
    if len(term) <= 1:
        return len(term)
    others = [i for i in range(len(facts.tables)) if i not in term]
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            if _components(term | set(extra), facts.edges) == 1:
                return len(term) + size
    return None


def query_levels(q: SqlQuery) -> list[SqlQuery]:
    """Every SELECT level in pre-order: the level itself, then subqueries in
    WHERE and HAVING values (in clause order), then the set-operation chain."""
    out = [q]
    for clause in (q.where, q.having):
        for cond in clause.conditions if clause is not None else ():
            for value in cond.values:
                if isinstance(value, SqlQuery):
                    out += query_levels(value)
    if q.set_op is not None:
        out += query_levels(q.set_op[1])
    return out


def level_mentions(level: SqlQuery) -> set[str]:
    """Tables named by this level's own FROM and column references (not by
    its subqueries), lowercased."""
    refs = [e.ref for e in level.select]
    refs += [r for pair in level.join_conditions for r in pair]
    for clause in (level.where, level.having):
        for cond in clause.conditions if clause is not None else ():
            refs.append(cond.left.ref)
            refs += [v for v in cond.values if isinstance(v, ColumnRef)]
    refs += list(level.group_by)
    refs += [o.expr.ref for o in level.order_by]
    named = {t.lower() for t in level.from_tables}
    return named | {r.table.lower() for r in refs if r.table}


def completion_violations(prediction: str, completed: str, facts: SchemaFacts) -> list[str]:
    """Reasons a completed line is not a minimal, connected repair of its
    prediction; empty when it is.  Levels are paired in walk order."""
    before = query_levels(parse_sql(prediction))
    after = query_levels(parse_sql(completed))
    if len(before) != len(after):
        return [f"{len(before)} query levels became {len(after)}"]
    problems = []
    for depth, (p, c) in enumerate(zip(before, after)):
        from_set = {t.lower() for t in c.from_tables}
        missing = (level_mentions(p) | level_mentions(c)) - from_set
        if missing:
            problems.append(f"level {depth}: {sorted(missing)} mentioned but not in FROM")
            continue
        links = []
        for a, b in c.join_conditions:
            pair = frozenset({(a.table.lower(), a.column.lower()), (b.table.lower(), b.column.lower())})
            if pair not in facts.fk_pairs:
                problems.append(f"level {depth}: {a} = {b} is not a declared foreign key")
            links.append((facts.index[a.table.lower()], facts.index[b.table.lower()]))
        if _components({facts.index[t] for t in from_set}, links) != 1:
            problems.append(f"level {depth}: join conditions leave FROM {sorted(from_set)} unconnected")
        minimum = brute_force_min_connector(facts, level_mentions(p))
        if minimum is None or len(from_set) > minimum:
            problems.append(f"level {depth}: FROM has {len(from_set)} tables, minimum is {minimum}")
    return problems
