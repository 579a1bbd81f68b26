"""Parse, render, and canonicalize the SQL subset used by the target datasets.

The grammar covers single-level SELECT cores with aggregates, explicit or
comma-form joins, flat AND/OR condition lists, GROUP BY / HAVING / ORDER BY /
LIMIT, set operations, and nested queries as condition values.  Anything
outside that subset is rejected loudly.  The parser builds each SELECT level
once, after its FROM list: aliases are resolved away, so the AST is always
alias-free, and given a schema every table and column is resolved then too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable, NamedTuple, Union

from structsql.schema import STAR, ColumnRef, ColumnType, DatabaseSchema, normalize_value


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


SET_OPS = ("UNION", "INTERSECT", "EXCEPT")
_AGGS = {agg.value: agg for agg in Agg if agg is not Agg.NONE}

# The words render_sql writes, in the scorer vocabulary's order.
KEYWORDS: tuple[str, ...] = (
    "SELECT", "DISTINCT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", *SET_OPS, *_AGGS, "ASC", "DESC",
)
_RESERVED = frozenset([*(word.lower() for word in KEYWORDS), "as"])

# The most SELECT levels one parse may hold along a nesting path and its
# set-operation chains, so that parsing and every walk over the tree stay
# well inside Python's recursion limit.
MAX_QUERY_LEVELS = 100


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


class _Token(NamedTuple):
    kind: str  # "name" | "number" | "string" | "op" | "punct" | "end"
    text: str
    pos: int
    # What the parser matches: a name upper-cased, an operator or punctuation
    # mark as lexed ("<>" becomes "!="), "" for a literal and the end.
    key: str


# Tried in order after any whitespace; the last three are the errors and the end.
_TOKEN_RE = re.compile(
    r"""\s*(?:'(?P<single>(?:[^']|'')*)'(?!')
    | "(?P<double>[^"]*)"
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[^\W\d]\w*)
    | (?P<op><=|>=|!=|<>|=|<|>)
    | (?P<punct>[(),.*;])
    | (?P<quote>['"])
    | (?P<bad>\S)
    | $)""",
    re.VERBOSE,
)
_token = partial(tuple.__new__, _Token)  # _Token(...) without NamedTuple's Python-level __new__


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # only whitespace is left
            break
        word, pos = m[kind], m.start(kind)
        if kind == "name":
            tokens.append(_token((kind, word, pos, word.upper())))
        elif kind == "op" or kind == "punct":
            word = "!=" if word == "<>" else word
            tokens.append(_token((kind, word, pos, word)))
        elif kind == "number":
            tokens.append(_token((kind, word, pos, "")))
        elif kind == "single":  # a string token sits at its opening quote
            tokens.append(_token(("string", word.replace("''", "'"), pos - 1, "")))
        elif kind == "double":
            tokens.append(_token(("string", word, pos - 1, "")))
        elif kind == "quote":
            raise SqlSyntaxError("unterminated string literal", pos)
        else:
            raise SqlSyntaxError(f"unexpected character {word!r}", pos)
    tokens.append(_Token("end", "", len(text), ""))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], schema: DatabaseSchema | None):
        self.tokens = tokens
        self.i = 0
        self.schema = schema
        self.depth = 0  # SELECT levels open along the current nesting path and chain
        # The first resolution error in pre-order (SELECT token order), with that index.
        self.failure: tuple[int, SchemaResolutionError] | None = None

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def accept(self, *keys: str) -> str | None:
        """Consume the next token if its key is one of ``keys``; return the key."""
        key = self.tokens[self.i].key
        if key in keys:
            self.i += 1
            return key
        return None

    def expect(self, key: str) -> None:
        if self.accept(key) is None:
            tok = self.peek()
            wanted = key if key.isalpha() else repr(key)
            raise SqlSyntaxError(f"expected {wanted}, found {tok.text or 'end'!r}", tok.pos)

    def commas(self, item: Callable[[], object]) -> list:
        """One or more ``item``s, separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    # -- grammar ----------------------------------------------------------

    def query(self) -> SqlQuery:
        start = self.i
        self.depth += 1
        if self.depth > MAX_QUERY_LEVELS:
            raise SqlSyntaxError(
                f"more than {MAX_QUERY_LEVELS} nested or chained SELECT levels", self.peek().pos
            )
        self.expect("SELECT")
        distinct = self.accept("DISTINCT") is not None
        items = self.commas(self.column_expr)

        tables: list[str] = []
        joins: list[tuple] = []
        aliases: dict[str, str] = {}
        if self.accept("FROM"):
            self.table_source(tables, aliases)
            while (sep := self.accept("JOIN", ",")) is not None:
                self.table_source(tables, aliases)
                if sep == "JOIN" and self.accept("ON"):
                    joins.append(self.join_condition())
                    while self.accept("AND"):
                        joins.append(self.join_condition())

        where = self.condition_list() if self.accept("WHERE") else None
        group: list[tuple] = []
        if self.accept("GROUP"):
            self.expect("BY")
            group = self.commas(self.column_ref)
        having = self.condition_list() if self.accept("HAVING") else None
        order: list[tuple] = []
        if self.accept("ORDER"):
            self.expect("BY")
            order = self.commas(self.order_item)
        limit = None
        if self.accept("LIMIT"):
            tok = self.advance()
            if tok.kind != "number" or not tok.text.isdecimal():
                raise SqlSyntaxError("LIMIT takes an integer", tok.pos)
            limit = int(tok.text)
        op = self.accept(*SET_OPS)
        set_op = (op, self.query()) if op else None
        self.depth -= 1

        try:
            return self.build(tables, aliases, distinct, items, joins, where, having, group, order,
                              limit, set_op)
        except SchemaResolutionError as exc:
            # Held until the whole text has parsed, so that a syntax error wins;
            # parse_sql raises it and never returns the stand-in below.
            if self.failure is None or start < self.failure[0]:
                self.failure = (start, exc)
            return SqlQuery(select=())

    def build(self, tables, aliases, distinct, items, joins, where, having, group, order, limit,
              set_op) -> SqlQuery:
        """The level's one frozen build from the grammar methods' plain tuples,
        where a raw column reference is (table as written or None, column):
        aliases removed and, given a schema, every reference resolved against
        the level's own FROM tables, failing in clause order (keyword order below)."""
        schema = self.schema
        if schema is not None:
            defs = [schema.table(name) for name in tables]
            for name, table in zip(tables, defs):
                if table is None:
                    raise UnknownTable(f"table {name!r} not in schema {schema.db_id!r}")
            tables = [t.name for t in defs]

        def ref(raw: tuple) -> ColumnRef:
            table, column = raw
            if table is None:
                if schema is None or column == STAR:
                    return ColumnRef(None, column)
                owners = [(t.name, col.name) for t in defs if (col := t.column(column)) is not None]
                if len(owners) == 1:
                    return ColumnRef(*owners[0])
                if not owners:
                    raise UnresolvableColumn(f"column {column!r} not in any FROM table")
                raise AmbiguousColumn(f"column {column!r} owned by {[t for t, _ in owners]}")
            table = aliases.get(table.lower(), table)
            if schema is None:
                return ColumnRef(table, column)
            if (found := schema.table(table)) is None:
                raise UnknownTable(f"table {table!r} not in schema")
            if column == STAR:
                return ColumnRef(found.name, STAR)
            if (col := found.column(column)) is None:
                raise UnresolvableColumn(f"{table}.{column} not in schema")
            return ColumnRef(found.name, col.name)

        def expr(e: tuple) -> ColumnExpr:
            return ColumnExpr(ref(e[0]), e[1], e[2])

        def conditions(cl: tuple | None) -> ConditionList | None:
            return None if cl is None else ConditionList(tuple([
                Condition(expr(e), op, tuple([ref(v) if type(v) is tuple else v for v in values]))
                for e, op, values in cl[0]
            ]), cl[1])

        level = SqlQuery(
            select=tuple([expr(e) for e in items]),
            distinct=distinct,
            from_tables=tuple(tables),
            join_conditions=tuple([(ref(a), ref(b)) for a, b in joins]),
            where=conditions(where),
            having=conditions(having),
            group_by=tuple([ref(r) for r in group]),
            order_by=tuple([OrderItem(expr(e), desc) for e, desc in order]),
            limit=limit,
            set_op=set_op,
        )
        if schema is not None:
            names = {t.lower() for t in tables}
            for pair in level.join_conditions:
                for r in pair:
                    if (r.table or "").lower() not in names:
                        raise UnresolvableColumn(f"join condition references {r}, not in FROM clause")
        return level

    def table_source(self, tables: list[str], aliases: dict[str, str]) -> None:
        tok = self.advance()
        if tok.kind != "name":
            raise SqlSyntaxError("expected table name", tok.pos)
        if tok.text.lower() in _RESERVED:
            raise SqlSyntaxError(f"reserved word {tok.text!r} cannot name a table", tok.pos)
        name = tok.text
        if self.accept("AS"):
            alias = self.advance()
            if alias.kind != "name":
                raise SqlSyntaxError("expected alias name", alias.pos)
            aliases[alias.text.lower()] = name
        elif self.peek().kind == "name" and not self.peek().text.lower() in _RESERVED:
            aliases[self.advance().text.lower()] = name
        tables.append(name)

    def join_condition(self) -> tuple:
        left = self.column_ref()
        if self.accept("=") is None:
            raise SqlSyntaxError("join conditions must use '='", self.peek().pos)
        return (left, self.column_ref())

    def column_expr(self) -> tuple:
        agg = _AGGS.get(self.peek().key)
        if agg is not None and self.tokens[self.i + 1].key == "(":  # an aggregate is never the end
            self.i += 2
            distinct = self.accept("DISTINCT") is not None
            ref = self.column_ref()
            self.expect(")")
            return (ref, agg, distinct)
        return (self.column_ref(), Agg.NONE, False)

    def column_ref(self) -> tuple:
        tok = self.advance()
        if tok.key == STAR:
            return (None, STAR)
        if tok.kind != "name":
            raise SqlSyntaxError("expected column reference", tok.pos)
        if tok.text.lower() in _RESERVED:
            raise SqlSyntaxError(f"reserved word {tok.text!r} cannot name a column", tok.pos)
        if self.accept("."):
            nxt = self.advance()
            if nxt.key == STAR:
                return (tok.text, STAR)
            if nxt.kind != "name":
                raise SqlSyntaxError("expected column name after '.'", nxt.pos)
            return (tok.text, nxt.text)
        return (None, tok.text)

    def condition_list(self) -> tuple:
        conditions = [self.condition()]
        connectors: list[str] = []
        while True:
            word = self.accept("AND", "OR")
            if word is None:
                break
            connectors.append(word)
            conditions.append(self.condition())
        return (conditions, tuple(connectors))

    def condition(self) -> tuple:
        left = self.column_expr()
        negated = self.accept("NOT") is not None
        tok = self.peek()
        if tok.kind == "op":
            if negated:
                raise SqlSyntaxError("NOT cannot precede a comparison operator", tok.pos)
            op = self.advance().text
            return (left, op, (self.value(),))
        word = self.accept("IN", "LIKE", "BETWEEN")
        if word == "BETWEEN":
            if negated:
                raise SqlSyntaxError("NOT BETWEEN is not supported", tok.pos)
            lo = self.value()
            self.expect("AND")
            hi = self.value()
            return (left, "BETWEEN", (lo, hi))
        if word == "LIKE":
            return (left, "NOT LIKE" if negated else "LIKE", (self.value(),))
        if word == "IN":
            self.expect("(")
            if self.peek().key == "SELECT":
                values: tuple = (self.query(),)
            else:
                values = tuple(self.commas(self.value))
            self.expect(")")
            return (left, "NOT IN" if negated else "IN", values)
        raise SqlSyntaxError("expected a condition operator", tok.pos)

    def value(self) -> Value | tuple:
        tok = self.peek()
        if tok.kind == "number" or tok.kind == "string":
            self.advance()
            return Literal(tok.kind, tok.text)
        if self.accept("("):
            sub = self.query()
            self.expect(")")
            return sub
        if tok.kind == "name":
            return self.column_ref()
        raise SqlSyntaxError("expected a value", tok.pos)

    def order_item(self) -> tuple:
        return (self.column_expr(), self.accept("ASC", "DESC") == "DESC")


# --------------------------------------------------------------------------
# Walker: map_query over the levels, _iter_refs over one level's references


def _map_conditions(cl: ConditionList | None, fn: Callable[[SqlQuery], SqlQuery]):
    """``cl`` with ``map_query`` applied to its subqueries; ``cl`` itself
    when it holds none."""
    if cl is None or not any(isinstance(v, SqlQuery) for c in cl.conditions for v in c.values):
        return cl
    return ConditionList(
        tuple(
            Condition(c.left, c.op, tuple(
                map_query(v, fn) if isinstance(v, SqlQuery) else v for v in c.values
            ))
            for c in cl.conditions
        ),
        cl.connectors,
    )


def map_query(q: SqlQuery, fn: Callable[[SqlQuery], SqlQuery]) -> SqlQuery:
    """Apply ``fn`` to every SELECT level in pre-order and rebuild the tree.

    The order is the level itself, then the subqueries among its WHERE and
    HAVING values in clause order, then its set-operation chain.  ``fn`` sees
    a level whose subqueries and set operation are not mapped yet; those of
    its result are mapped next.  A level with neither comes back as ``fn``
    gave it.
    """
    level = fn(q)
    where, having = _map_conditions(level.where, fn), _map_conditions(level.having, fn)
    if where is level.where and having is level.having and level.set_op is None:
        return level
    set_op = None if level.set_op is None else (level.set_op[0], map_query(level.set_op[1], fn))
    return replace(level, where=where, having=having, set_op=set_op)


def _iter_refs(level: SqlQuery) -> list[ColumnRef]:
    """Column references of one level's own clauses, in clause order: SELECT,
    JOIN ON, WHERE and HAVING (each condition's left side, then its column
    values), GROUP BY, ORDER BY."""
    refs = [e.ref for e in level.select]
    for pair in level.join_conditions:
        refs += pair
    for cl in (level.where, level.having):
        for c in cl.conditions if cl is not None else ():
            refs.append(c.left.ref)
            refs += [v for v in c.values if isinstance(v, ColumnRef)]
    refs += level.group_by
    refs += [o.expr.ref for o in level.order_by]
    return refs


def parse_sql(text: str, schema: DatabaseSchema | None = None) -> SqlQuery:
    """Parse SQL text into a canonical AST, building each SELECT level once.

    Aliases are always resolved away.  With a schema, each level is resolved
    against its own FROM tables as it is built: unqualified columns go to their
    unique owning table or are rejected (:class:`UnresolvableColumn` /
    :class:`AmbiguousColumn`).  A syntax error anywhere wins; of several
    resolution errors, the first in :func:`map_query` pre-order is raised.
    """
    if not text.strip():
        raise SqlSyntaxError("empty query", 0)
    parser = _Parser(_lex(text), schema)
    query = parser.query()
    parser.accept(";")
    trailing = parser.peek()
    if trailing.kind != "end":
        raise SqlSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    if parser.failure is not None:
        raise parser.failure[1]
    return query


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
        # A condition on the first table alone is written at the first JOIN.
        anchor = max(pos.get((a.table or "").lower(), 0), pos.get((b.table or "").lower(), 0), 1)
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
