"""Parse, render, and canonicalize the SQL subset used by the target datasets.

The grammar covers single-level SELECT cores with aggregates, explicit or
comma-form joins, flat AND/OR condition lists, GROUP BY / HAVING / ORDER BY /
LIMIT, set operations, and nested queries as condition values.  Anything
outside that subset is rejected loudly.  Aliases are resolved away at parse
time so the AST is always alias-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Union

from structsql.linking import normalize_value
from structsql.schema import ColumnRef, ColumnType, DatabaseSchema, STAR


class SqlSyntaxError(ValueError):
    """Input text is outside the supported grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaResolutionError(ValueError):
    """Base class for schema lookup failures during resolution."""


class UnknownTable(SchemaResolutionError):
    pass


class UnresolvableColumn(SchemaResolutionError):
    pass


class AmbiguousColumn(SchemaResolutionError):
    pass


class Agg(Enum):
    NONE = ""
    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


COMPARE_OPS = ("<=", ">=", "!=", "<>", "=", "<", ">")
SET_OPS = ("UNION", "INTERSECT", "EXCEPT")

_RESERVED = frozenset(
    """select distinct from join on where group by having order limit and or not
    in like between union intersect except count sum avg min max asc desc as""".split()
)


@dataclass(frozen=True)
class Literal:
    kind: str  # "number" | "string"
    text: str


@dataclass(frozen=True)
class ColumnExpr:
    ref: ColumnRef
    agg: Agg = Agg.NONE
    distinct: bool = False


Value = Union[Literal, ColumnRef, "SqlQuery"]


@dataclass(frozen=True)
class Condition:
    left: ColumnExpr
    op: str
    values: tuple[Value, ...]


@dataclass(frozen=True)
class ConditionList:
    """Flat boolean tree: conditions joined by AND/OR connectors in order."""

    conditions: tuple[Condition, ...]
    connectors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.conditions and len(self.connectors) != len(self.conditions) - 1:
            raise ValueError("connector count must be len(conditions) - 1")


@dataclass(frozen=True)
class OrderItem:
    expr: ColumnExpr
    desc: bool = False


@dataclass(frozen=True)
class SqlQuery:
    select: tuple[ColumnExpr, ...]
    distinct: bool = False
    from_tables: tuple[str, ...] = ()
    join_conditions: tuple[tuple[ColumnRef, ColumnRef], ...] = ()
    where: ConditionList | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: ConditionList | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    set_op: tuple[str, "SqlQuery"] | None = None


@dataclass(frozen=True)
class ComponentSet:
    """Order-insensitive canonical decomposition of a query, clause by clause.

    Select items and conditions are multisets (frozensets of (key, count)
    pairs); FROM is a table set with join conditions deliberately excluded;
    ORDER BY stays ordered.
    """

    select: frozenset
    distinct: bool
    from_tables: frozenset
    where: frozenset
    where_connectors: frozenset
    group_by: frozenset
    having: frozenset
    having_connectors: frozenset
    order_by: tuple
    limit: int | None
    set_op: tuple | None


# --------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "number" | "string" | "op" | "punct" | "end"
    text: str
    pos: int


_NAME_RE = re.compile(r"[^\W\d]\w*", re.UNICODE)
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n:
                if text[j] == quote:
                    if quote == "'" and j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            if j >= n:
                raise SqlSyntaxError("unterminated string literal", i)
            tokens.append(_Token("string", "".join(buf), i))
            i = j + 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        matched_op = next((op for op in COMPARE_OPS if text.startswith(op, i)), None)
        if matched_op:
            tokens.append(_Token("op", "!=" if matched_op == "<>" else matched_op, i))
            i += len(matched_op)
            continue
        if ch in "(),.*;":
            tokens.append(_Token("punct", ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text.upper() in words

    def accept_keyword(self, *words: str) -> str | None:
        if self.at_keyword(*words):
            return self.advance().text.upper()
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {word}, found {tok.text or 'end'!r}", tok.pos)

    def accept_punct(self, ch: str) -> bool:
        if self.peek().kind == "punct" and self.peek().text == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.accept_punct(ch):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {ch!r}, found {tok.text or 'end'!r}", tok.pos)

    def fail(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.peek().pos)

    # -- grammar ----------------------------------------------------------

    def query(self) -> SqlQuery:
        core = self.select_core()
        op = self.accept_keyword(*SET_OPS)
        if op:
            rhs = self.query()
            core = replace(core, set_op=(op, rhs))
        return core

    def select_core(self) -> SqlQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        items = [self.column_expr()]
        while self.accept_punct(","):
            items.append(self.column_expr())

        tables: list[str] = []
        joins: list[tuple[ColumnRef, ColumnRef]] = []
        aliases: dict[str, str] = {}
        if self.accept_keyword("FROM"):
            self.table_source(tables, aliases)
            while True:
                if self.accept_keyword("JOIN"):
                    self.table_source(tables, aliases)
                    if self.accept_keyword("ON"):
                        joins.append(self.join_condition())
                        while self.accept_keyword("AND"):
                            joins.append(self.join_condition())
                elif self.accept_punct(","):
                    self.table_source(tables, aliases)
                else:
                    break

        where = self.condition_list() if self.accept_keyword("WHERE") else None
        group: list[ColumnRef] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group.append(self.column_ref())
            while self.accept_punct(","):
                group.append(self.column_ref())
        having = self.condition_list() if self.accept_keyword("HAVING") else None
        order: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order.append(self.order_item())
            while self.accept_punct(","):
                order.append(self.order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            tok = self.advance()
            if tok.kind != "number" or "." in tok.text:
                raise SqlSyntaxError("LIMIT takes an integer", tok.pos)
            limit = int(tok.text)

        query = SqlQuery(
            select=tuple(items),
            distinct=distinct,
            from_tables=tuple(tables),
            join_conditions=tuple(joins),
            where=where,
            group_by=tuple(group),
            having=having,
            order_by=tuple(order),
            limit=limit,
        )
        return _strip_aliases(query, aliases)

    def table_source(self, tables: list[str], aliases: dict[str, str]) -> None:
        tok = self.advance()
        if tok.kind != "name":
            raise SqlSyntaxError("expected table name", tok.pos)
        if tok.text.lower() in _RESERVED:
            raise SqlSyntaxError(f"reserved word {tok.text!r} cannot name a table", tok.pos)
        name = tok.text
        if self.accept_keyword("AS"):
            alias = self.advance()
            if alias.kind != "name":
                raise SqlSyntaxError("expected alias name", alias.pos)
            aliases[alias.text.lower()] = name
        elif self.peek().kind == "name" and not self.peek().text.lower() in _RESERVED:
            aliases[self.advance().text.lower()] = name
        tables.append(name)

    def join_condition(self) -> tuple[ColumnRef, ColumnRef]:
        left = self.column_ref()
        tok = self.advance()
        if tok.kind != "op" or tok.text != "=":
            raise SqlSyntaxError("join conditions must use '='", tok.pos)
        right = self.column_ref()
        return (left, right)

    def column_expr(self) -> ColumnExpr:
        tok = self.peek()
        if tok.kind == "name" and tok.text.upper() in Agg.__members__ and tok.text.upper() != "NONE":
            if self.peek(1).kind == "punct" and self.peek(1).text == "(":
                agg = Agg[self.advance().text.upper()]
                self.expect_punct("(")
                distinct = self.accept_keyword("DISTINCT") is not None
                ref = self.column_ref()
                self.expect_punct(")")
                return ColumnExpr(ref, agg, distinct)
        return ColumnExpr(self.column_ref())

    def column_ref(self) -> ColumnRef:
        tok = self.advance()
        if tok.kind == "punct" and tok.text == STAR:
            return ColumnRef(None, STAR)
        if tok.kind != "name":
            raise SqlSyntaxError("expected column reference", tok.pos)
        if tok.text.lower() in _RESERVED:
            raise SqlSyntaxError(f"reserved word {tok.text!r} cannot name a column", tok.pos)
        if self.peek().kind == "punct" and self.peek().text == ".":
            self.advance()
            nxt = self.advance()
            if nxt.kind == "punct" and nxt.text == STAR:
                return ColumnRef(tok.text, STAR)
            if nxt.kind != "name":
                raise SqlSyntaxError("expected column name after '.'", nxt.pos)
            return ColumnRef(tok.text, nxt.text)
        return ColumnRef(None, tok.text)

    def condition_list(self) -> ConditionList:
        conditions = [self.condition()]
        connectors: list[str] = []
        while True:
            word = self.accept_keyword("AND", "OR")
            if word is None:
                break
            connectors.append(word)
            conditions.append(self.condition())
        return ConditionList(tuple(conditions), tuple(connectors))

    def condition(self) -> Condition:
        left = self.column_expr()
        negated = self.accept_keyword("NOT") is not None
        tok = self.peek()
        if tok.kind == "op":
            if negated:
                raise SqlSyntaxError("NOT cannot precede a comparison operator", tok.pos)
            op = self.advance().text
            return Condition(left, op, (self.value(),))
        word = self.accept_keyword("IN", "LIKE", "BETWEEN")
        if word == "BETWEEN":
            if negated:
                raise self.fail("NOT BETWEEN is not supported")
            lo = self.value()
            self.expect_keyword("AND")
            hi = self.value()
            return Condition(left, "BETWEEN", (lo, hi))
        if word == "LIKE":
            return Condition(left, "NOT LIKE" if negated else "LIKE", (self.value(),))
        if word == "IN":
            self.expect_punct("(")
            if self.at_keyword("SELECT"):
                values: tuple[Value, ...] = (self.query(),)
            else:
                items = [self.value()]
                while self.accept_punct(","):
                    items.append(self.value())
                values = tuple(items)
            self.expect_punct(")")
            return Condition(left, "NOT IN" if negated else "IN", values)
        raise self.fail("expected a condition operator")

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal("number", tok.text)
        if tok.kind == "string":
            self.advance()
            return Literal("string", tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            sub = self.query()
            self.expect_punct(")")
            return sub
        if tok.kind == "name":
            return self.column_ref()
        raise SqlSyntaxError("expected a value", tok.pos)

    def order_item(self) -> OrderItem:
        expr = self.column_expr()
        word = self.accept_keyword("ASC", "DESC")
        return OrderItem(expr, desc=(word == "DESC"))


# --------------------------------------------------------------------------
# Walker: the one place that lists a level's clauses and walks the level tree


def _map_conditions(
    cl: ConditionList | None,
    fix_left: Callable[[ColumnExpr], ColumnExpr],
    fix_value: Callable[[Value], Value],
) -> ConditionList | None:
    if cl is None:
        return None
    return ConditionList(
        tuple(
            Condition(fix_left(c.left), c.op, tuple(fix_value(v) for v in c.values))
            for c in cl.conditions
        ),
        cl.connectors,
    )


def map_refs(level: SqlQuery, fix_ref: Callable[[ColumnRef], ColumnRef]) -> SqlQuery:
    """Copy of one SELECT level with ``fix_ref`` applied to the column
    references of its own clauses, in clause order: SELECT, JOIN ON, WHERE,
    HAVING (left sides and ``ColumnRef`` values), GROUP BY, ORDER BY.
    Subqueries and the set-operation chain are left as they are."""

    def fix_expr(e: ColumnExpr) -> ColumnExpr:
        return ColumnExpr(fix_ref(e.ref), e.agg, e.distinct)

    def fix_value(v: Value) -> Value:
        return fix_ref(v) if isinstance(v, ColumnRef) else v

    return replace(
        level,
        select=tuple(fix_expr(e) for e in level.select),
        join_conditions=tuple((fix_ref(a), fix_ref(b)) for a, b in level.join_conditions),
        where=_map_conditions(level.where, fix_expr, fix_value),
        having=_map_conditions(level.having, fix_expr, fix_value),
        group_by=tuple(fix_ref(r) for r in level.group_by),
        order_by=tuple(OrderItem(fix_expr(o.expr), o.desc) for o in level.order_by),
    )


def map_query(q: SqlQuery, fn: Callable[[SqlQuery], SqlQuery]) -> SqlQuery:
    """Apply ``fn`` to every SELECT level in pre-order and rebuild the tree.

    The order is the level itself, then the subqueries among its WHERE and
    HAVING values in clause order, then its set-operation chain.  ``fn`` sees
    a level whose subqueries and set operation are not mapped yet; those of
    its result are mapped next.
    """
    level = fn(q)

    def same(e: ColumnExpr) -> ColumnExpr:
        return e

    def fix_value(v: Value) -> Value:
        return map_query(v, fn) if isinstance(v, SqlQuery) else v

    return replace(
        level,
        where=_map_conditions(level.where, same, fix_value),
        having=_map_conditions(level.having, same, fix_value),
        set_op=None if level.set_op is None else (level.set_op[0], map_query(level.set_op[1], fn)),
    )


def _iter_refs(level: SqlQuery) -> list[ColumnRef]:
    """Column references of one level's own clauses, in clause order."""
    refs: list[ColumnRef] = []

    def note(ref: ColumnRef) -> ColumnRef:
        refs.append(ref)
        return ref

    map_refs(level, note)
    return refs


def _strip_aliases(q: SqlQuery, aliases: dict[str, str]) -> SqlQuery:
    if not aliases:
        return q

    def fix_ref(ref: ColumnRef) -> ColumnRef:
        if ref.table and ref.table.lower() in aliases:
            return ColumnRef(aliases[ref.table.lower()], ref.column)
        return ref

    return map_refs(q, fix_ref)


def parse_sql(text: str, schema: DatabaseSchema | None = None) -> SqlQuery:
    """Parse SQL text into a canonical AST; resolve against a schema if given.

    Aliases are always resolved away.  With a schema, unqualified columns are
    attributed to their unique owning table among the FROM tables or rejected
    (:class:`UnresolvableColumn` / :class:`AmbiguousColumn`).
    """
    if not text.strip():
        raise SqlSyntaxError("empty query", 0)
    parser = _Parser(_lex(text))
    query = parser.query()
    trailing = parser.peek()
    if trailing.kind == "punct" and trailing.text == ";":
        parser.advance()
        trailing = parser.peek()
    if trailing.kind != "end":
        raise SqlSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    if schema is not None:
        query = resolve(query, schema)
    return query


# --------------------------------------------------------------------------
# Schema resolution


def resolve(q: SqlQuery, schema: DatabaseSchema) -> SqlQuery:
    """Return a copy with canonical table casing and qualified columns.

    Each query level resolves unqualified columns against its own FROM tables.
    """

    def resolve_level(level: SqlQuery) -> SqlQuery:
        tables: list[str] = []
        for name in level.from_tables:
            table = schema.table(name)
            if table is None:
                raise UnknownTable(f"table {name!r} not in schema {schema.db_id!r}")
            tables.append(table.name)

        def fix_ref(ref: ColumnRef) -> ColumnRef:
            if ref.column == STAR:
                if ref.table is None:
                    return ref
                table = schema.table(ref.table)
                if table is None:
                    raise UnknownTable(f"table {ref.table!r} not in schema")
                return ColumnRef(table.name, STAR)
            if ref.table is not None:
                table = schema.table(ref.table)
                if table is None:
                    raise UnknownTable(f"table {ref.table!r} not in schema")
                col = table.column(ref.column)
                if col is None:
                    raise UnresolvableColumn(f"{ref.table}.{ref.column} not in schema")
                return ColumnRef(table.name, col.name)
            owners = [
                t for t in tables
                if schema.table(t) is not None and schema.table(t).column(ref.column) is not None
            ]
            if len(owners) == 1:
                return ColumnRef(owners[0], schema.table(owners[0]).column(ref.column).name)
            if not owners:
                raise UnresolvableColumn(f"column {ref.column!r} not in any FROM table")
            raise AmbiguousColumn(f"column {ref.column!r} owned by {owners}")

        resolved = replace(map_refs(level, fix_ref), from_tables=tuple(tables))
        table_set = {t.lower() for t in tables}
        for pair in resolved.join_conditions:
            for ref in pair:
                if (ref.table or "").lower() not in table_set:
                    raise UnresolvableColumn(
                        f"join condition references {ref}, not in FROM clause"
                    )
        return resolved

    return map_query(q, resolve_level)


# --------------------------------------------------------------------------
# Rendering


def _render_expr(e: ColumnExpr) -> str:
    if e.agg is Agg.NONE:
        return str(e.ref)
    inner = ("DISTINCT " if e.distinct else "") + str(e.ref)
    return f"{e.agg.value}({inner})"


def _render_value(v: Value) -> str:
    if isinstance(v, Literal):
        if v.kind == "string":
            return "'" + v.text.replace("'", "''") + "'"
        return v.text
    if isinstance(v, SqlQuery):
        return f"({render_sql(v)})"
    return str(v)


def _render_condition(c: Condition) -> str:
    left = _render_expr(c.left)
    if c.op == "BETWEEN":
        return f"{left} BETWEEN {_render_value(c.values[0])} AND {_render_value(c.values[1])}"
    if c.op in ("IN", "NOT IN"):
        if len(c.values) == 1 and isinstance(c.values[0], SqlQuery):
            return f"{left} {c.op} ({render_sql(c.values[0])})"
        return f"{left} {c.op} ({', '.join(_render_value(v) for v in c.values)})"
    return f"{left} {c.op} {_render_value(c.values[0])}"


def _render_condition_list(cl: ConditionList) -> str:
    parts = [_render_condition(cl.conditions[0])]
    for connector, cond in zip(cl.connectors, cl.conditions[1:]):
        parts.append(connector)
        parts.append(_render_condition(cond))
    return " ".join(parts)


def _render_from(q: SqlQuery) -> str:
    if not q.from_tables:
        return ""
    pos = {t.lower(): i for i, t in enumerate(q.from_tables)}
    conds_at: dict[int, list[str]] = {}
    for a, b in q.join_conditions:
        anchor = max(pos.get((a.table or "").lower(), 0), pos.get((b.table or "").lower(), 0))
        conds_at.setdefault(anchor, []).append(f"{a} = {b}")
    parts = [f"FROM {q.from_tables[0]}"]
    for i, table in enumerate(q.from_tables[1:], start=1):
        clause = f"JOIN {table}"
        if i in conds_at:
            clause += " ON " + " AND ".join(conds_at[i])
        parts.append(clause)
    return " ".join(parts)


def render_sql(q: SqlQuery) -> str:
    """Canonical surface form: uppercase keywords, explicit JOIN ... ON,
    explicit ASC/DESC, single spaces."""
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_expr(e) for e in q.select))
    from_part = _render_from(q)
    if from_part:
        parts.append(from_part)
    if q.where is not None:
        parts.append("WHERE " + _render_condition_list(q.where))
    if q.group_by:
        parts.append("GROUP BY " + ", ".join(str(r) for r in q.group_by))
    if q.having is not None:
        parts.append("HAVING " + _render_condition_list(q.having))
    if q.order_by:
        rendered = ", ".join(
            f"{_render_expr(o.expr)} {'DESC' if o.desc else 'ASC'}" for o in q.order_by
        )
        parts.append("ORDER BY " + rendered)
    if q.limit is not None:
        parts.append(f"LIMIT {q.limit}")
    if q.set_op is not None:
        parts.append(q.set_op[0])
        parts.append(render_sql(q.set_op[1]))
    return " ".join(parts)


# --------------------------------------------------------------------------
# Component sets


_PLACEHOLDER = "value"


def _expr_key(e: ColumnExpr) -> tuple:
    return (e.agg.name, e.distinct, e.ref.key())


def _value_key(v: Value, hint: ColumnType | None, value_sensitive: bool, schema):
    if isinstance(v, Literal):
        if not value_sensitive:
            return ("lit", _PLACEHOLDER)
        return ("lit", normalize_value(v.text, hint))
    if isinstance(v, ColumnRef):
        return ("col", v.key())
    return ("sub", component_set(v, value_sensitive=value_sensitive, schema=schema))


def _multiset(items: Iterable) -> frozenset:
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return frozenset(counts.items())


def _condition_keys(cl: ConditionList | None, value_sensitive: bool, schema) -> tuple[frozenset, frozenset]:
    if cl is None:
        return frozenset(), frozenset()
    keys = []
    for cond in cl.conditions:
        hint = schema.column_type(cond.left.ref) if schema is not None else None
        keys.append(
            (
                _expr_key(cond.left),
                cond.op,
                tuple(_value_key(v, hint, value_sensitive, schema) for v in cond.values),
            )
        )
    return _multiset(keys), _multiset(cl.connectors)


def component_set(
    q: SqlQuery, *, value_sensitive: bool = False, schema: DatabaseSchema | None = None
) -> ComponentSet:
    """Canonical clause decomposition used by set-match comparison.

    By default condition literals are replaced by a placeholder
    (value-insensitive convention); ``value_sensitive=True`` compares
    normalized literal values instead.  A schema supplies type hints for
    value normalization.
    """
    where_keys, where_conn = _condition_keys(q.where, value_sensitive, schema)
    having_keys, having_conn = _condition_keys(q.having, value_sensitive, schema)
    return ComponentSet(
        select=_multiset(_expr_key(e) for e in q.select),
        distinct=q.distinct,
        from_tables=frozenset(t.lower() for t in q.from_tables),
        where=where_keys,
        where_connectors=where_conn,
        group_by=frozenset(r.key() for r in q.group_by),
        having=having_keys,
        having_connectors=having_conn,
        order_by=tuple((_expr_key(o.expr), o.desc) for o in q.order_by),
        limit=q.limit,
        set_op=(
            (q.set_op[0], component_set(q.set_op[1], value_sensitive=value_sensitive, schema=schema))
            if q.set_op is not None
            else None
        ),
    )
