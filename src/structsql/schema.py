"""Relational schema ingestion, validation, and graph construction.

Schemas arrive as Spider-format documents (``tables.json`` entries) and are
turned into immutable :class:`DatabaseSchema` values.  A :class:`SchemaGraph`
of foreign-key links between tables, built once per schema as
``DatabaseSchema.graph`` and searched by :func:`bfs`, backs join-path
discovery.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

logger = logging.getLogger(__name__)

STAR = "*"

REQUIRED_DOC_FIELDS = (
    "db_id",
    "table_names_original",
    "column_names_original",
    "column_types",
    "primary_keys",
    "foreign_keys",
)

_CJK_RE = re.compile(r"[\u3400-\u9fff\uf900-\ufaff]")
_NAME_SPLIT_RE = re.compile(r"[_\s]+")
_SPACES_RE = re.compile(r"\s+")
_COMMA_RE = re.compile(r"\s*,\s*")


def _stem(token: str) -> str:
    if len(token) > 3 and token.endswith("s"):
        return token[:-1]
    return token


def name_tokens(name: str) -> tuple[str, ...]:
    """Normalized token decomposition of a schema name."""
    out: list[str] = []
    for piece in _NAME_SPLIT_RE.split(name.strip()):
        if not piece:
            continue
        if _CJK_RE.search(piece):
            out.extend(_stem(ch.lower()) for ch in piece)
        else:
            out.append(_stem(piece.lower()))
    return tuple(out)


class SchemaError(ValueError):
    """Base class for schema ingestion failures."""


class MalformedDocument(SchemaError):
    """Document is missing fields or has an unusable shape."""


class DanglingReference(SchemaError):
    """A key or foreign key points at a column that does not exist."""


class DuplicateName(SchemaError):
    """Table or column names collide case-insensitively."""


class ColumnType(Enum):
    INTEGER = "Integer"
    REAL = "Real"
    TEXT = "Text"
    DATE = "Date"
    BOOLEAN = "Boolean"
    OTHER = "Other"


_TYPE_ALIASES: dict[str, ColumnType] = {
    "int": ColumnType.INTEGER,
    "integer": ColumnType.INTEGER,
    "bigint": ColumnType.INTEGER,
    "smallint": ColumnType.INTEGER,
    "number": ColumnType.REAL,
    "numeric": ColumnType.REAL,
    "real": ColumnType.REAL,
    "float": ColumnType.REAL,
    "double": ColumnType.REAL,
    "decimal": ColumnType.REAL,
    "text": ColumnType.TEXT,
    "string": ColumnType.TEXT,
    "varchar": ColumnType.TEXT,
    "char": ColumnType.TEXT,
    "date": ColumnType.DATE,
    "datetime": ColumnType.DATE,
    "time": ColumnType.DATE,
    "timestamp": ColumnType.DATE,
    "year": ColumnType.DATE,
    "bool": ColumnType.BOOLEAN,
    "boolean": ColumnType.BOOLEAN,
    "bit": ColumnType.BOOLEAN,
    "others": ColumnType.OTHER,
    "other": ColumnType.OTHER,
}


def parse_column_type(label: str) -> ColumnType:
    """Map a raw type label to the closed enum; unknown labels become OTHER."""
    mapped = _TYPE_ALIASES.get(label.strip().lower())
    if mapped is None:
        logger.warning("unknown column type %r mapped to Other", label)
        return ColumnType.OTHER
    return mapped


_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%b %d, %Y",
    "%B %d, %Y",
    "%b %d %Y",
    "%B %d %Y",
    "%d %b %Y",
    "%d %B %Y",
    "%Y-%m-%d %H:%M:%S",
)


_MONTHS = (
    "january", "february", "march", "april", "may", "june", "july", "august",
    "september", "october", "november", "december",
)
_MONTH_NUMBERS = {n: i for i, name in enumerate(_MONTHS, 1) for n in (name, name[:3])}

# The patterns datetime.strptime builds for these formats in the C locale,
# compiled once: _strptime caches only five formats, and trying ten in turn
# rebuilt one on almost every call.  They mirror CPython 3.11's
# _strptime.TimeRE; on a Python upgrade, run
# tests/test_schema.py::test_parse_date_matches_strptime_formats, which
# compares this parser with the strptime loop.
_DIRECTIVE_RES = {
    "d": r"(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])",
    "m": r"(?P<m>1[0-2]|0[1-9]|[1-9])",
    "Y": r"(?P<Y>\d\d\d\d)",
    "H": r"(?P<H>2[0-3]|[0-1]\d|\d)",
    "M": r"(?P<M>[0-5]\d|\d)",
    "S": r"(?P<S>6[0-1]|[0-5]\d|\d)",
    "b": f"(?P<b>{'|'.join(name[:3] for name in _MONTHS)})",
    "B": f"(?P<B>{'|'.join(sorted(_MONTHS, key=len, reverse=True))})",
}
_DATE_RES = tuple(
    re.compile(
        re.sub(r"%(.)", lambda m: _DIRECTIVE_RES[m[1]], fmt.replace(" ", r"\s+")),
        re.IGNORECASE,
    )
    for fmt in _DATE_FORMATS
)


def _parse_date(raw: str) -> str | None:
    """ISO date of the first of ``_DATE_FORMATS`` that ``datetime.strptime``
    accepts, None if none does; the same result, without strptime."""
    cleaned = _COMMA_RE.sub(", ", _SPACES_RE.sub(" ", raw.strip()))
    for pattern in _DATE_RES:
        found = pattern.match(cleaned)
        if found is None or found.end() != len(cleaned):
            continue
        parts = found.groupdict()
        name = parts.get("b") or parts.get("B")
        month = int(parts["m"]) if name is None else _MONTH_NUMBERS.get(name.lower())
        if month is None:
            continue
        try:
            when = datetime(
                int(parts["Y"]), month, int(parts["d"]),
                int(parts.get("H", 0)), int(parts.get("M", 0)), int(parts.get("S", 0)),
            )
        except ValueError:  # no such day, or second 60/61
            continue
        return when.date().isoformat()
    return None


def _canonical_number(raw: str) -> str | None:
    """Canonical text of a finite decimal number, None for anything else.

    Every significant digit is kept and trailing zeros go.  A number below
    1E+28 and no finer than 1E-1000026, the range of Decimal's default
    context, prints in plain form (``1200``, ``0.05``); any other prints as
    its exact mantissa and exponent (``1E+30``, ``1E-10000000``), so a huge
    exponent builds no long string."""
    try:
        dec = Decimal(raw.strip().replace(",", "").replace(" ", ""))
    except InvalidOperation:
        return None
    if not dec.is_finite():
        return None
    sign, digits, exp = dec.as_tuple()
    n = len(digits)
    while n and not digits[n - 1]:
        n -= 1
    if not n:
        return "0"
    exp += len(digits) - n
    dec = Decimal((sign, digits[:n], exp))  # built from its digits, so nothing rounds
    if dec.adjusted() < 28 and exp >= -1000026:
        return format(dec, "f")
    return str(dec)


def _normalize_text(raw: str) -> str:
    return _SPACES_RE.sub(" ", raw.strip().lower())


def normalize_value(raw: str, hint: ColumnType | None = None) -> str:
    """Canonicalize a cell value or question span for comparison.

    Dates become ISO-8601, finite numbers canonical decimals (no separators,
    no leading zeros), text is lowercased with whitespace collapsed.  A value
    that fails to parse as its hint's type falls back to text normalization.
    """
    if hint is ColumnType.DATE:
        parsed = _parse_date(raw)
        if parsed is not None:
            return parsed
        logger.debug("date-hinted value %r not parseable; using text form", raw)
        return _normalize_text(raw)
    if hint in (ColumnType.INTEGER, ColumnType.REAL, None):
        number = _canonical_number(raw)
        if number is not None:
            return number
    return _normalize_text(raw)


@dataclass(frozen=True)
class ColumnRef:
    """Reference to a column, optionally qualified by its table."""

    table: str | None
    column: str

    def key(self) -> tuple[str, str]:
        return ((self.table or "").lower(), self.column.lower())

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class ColumnDef:
    name: str
    col_type: ColumnType = ColumnType.TEXT
    is_primary: bool = False
    # None means "no content available", distinct from an empty list.
    sample_values: tuple[str, ...] | None = None
    # Original type label, as the document spelled it.
    raw_type: str | None = None


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: str | None = None
    # Composite declarations beyond the first; kept for lossless round-trip.
    extra_primary_keys: tuple[str, ...] = ()

    @cached_property
    def _column_map(self) -> dict[str, ColumnDef]:
        return {col.name.lower(): col for col in reversed(self.columns)}  # the first one wins

    def column(self, name: str) -> ColumnDef | None:
        return self._column_map.get(name.lower())


class NameIndex(NamedTuple):
    """Normalized table and column names, indexed for n-gram linking.

    ``targets`` lists ``(table, column)`` pairs in schema order, each table
    (column ``None``) followed by its columns.  ``exact`` maps a normalized
    name to the targets bearing it; ``partial`` maps every proper contiguous
    sub-tuple of a name to the targets containing it.  Target lists ascend
    without repeats; a name that normalizes to nothing is in neither map.
    """

    targets: tuple[tuple[str, str | None], ...]
    exact: dict[tuple[str, ...], list[int]]
    partial: dict[tuple[str, ...], list[int]]


class SerialTemplate(NamedTuple):
    """The question-independent part of the schema serialization.

    ``index`` maps a ``(table, column)`` key, column ``None`` for a table,
    both as the schema spells it and lower-cased, to its position: the
    tables first, then the columns, each in schema order.  ``runs`` keeps
    the unlinked serialization of each flag pair, as ``annotate`` flattens
    it on first use: it lives and dies with the schema.
    """

    index: dict[tuple[str, str | None], int]
    runs: dict[tuple[bool, bool], tuple[tuple[str, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class DatabaseSchema:
    """An immutable relational schema: tables, columns, keys.

    Name lookups are case-insensitive; original casing is preserved for
    rendering.  Foreign keys are ordered (child column, parent column) pairs.
    """

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[tuple[ColumnRef, ColumnRef], ...] = ()
    # Raw type label of the "*" pseudo-column entry; None if the source
    # document had no star entry.
    star_label: str | None = "text"

    def __post_init__(self) -> None:
        seen_tables: set[str] = set()
        for table in self.tables:
            low = table.name.lower()
            if low in seen_tables:
                raise DuplicateName(f"duplicate table name {table.name!r}")
            seen_tables.add(low)
            seen_cols: set[str] = set()
            for col in table.columns:
                if col.name.lower() in seen_cols:
                    raise DuplicateName(
                        f"duplicate column {col.name!r} in table {table.name!r}"
                    )
                seen_cols.add(col.name.lower())
            for key in (table.primary_key, *table.extra_primary_keys):
                if key is not None and table.column(key) is None:
                    raise DanglingReference(
                        f"primary key {key!r} not a column of {table.name!r}"
                    )
        for src, dst in self.foreign_keys:
            for ref in (src, dst):
                if ref.table is None or self.column(ref) is None:
                    raise DanglingReference(f"foreign key endpoint {ref} unresolved")

    @cached_property
    def _table_map(self) -> dict[str, TableDef]:
        return {t.name.lower(): t for t in self.tables}

    def table(self, name: str) -> TableDef | None:
        return self._table_map.get(name.lower())

    @cached_property
    def name_index(self) -> NameIndex:
        targets = tuple(
            (table.name, column)
            for table in self.tables
            for column in (None, *(c.name for c in table.columns))
        )
        exact: dict[tuple[str, ...], list[int]] = {}
        partial: dict[tuple[str, ...], list[int]] = {}
        for i, (table, column) in enumerate(targets):
            toks = name_tokens(table if column is None else column)
            if not toks:
                continue
            exact.setdefault(toks, []).append(i)
            n = len(toks)
            for sub in {toks[a:b] for a in range(n) for b in range(a + 1, n + 1) if b - a < n}:
                partial.setdefault(sub, []).append(i)
        return NameIndex(targets, exact, partial)

    @cached_property
    def graph(self) -> SchemaGraph:
        """The table-link graph of the foreign keys, built once."""
        return SchemaGraph(self)

    @cached_property
    def serial_template(self) -> SerialTemplate:
        """The schema's serialization less the per-question links, built once."""
        keys = [(t.name, None) for t in self.tables]
        keys += ((t.name, c.name) for t, c in self.iter_columns())
        index = {(t.lower(), None if c is None else c.lower()): i for i, (t, c) in enumerate(keys)}
        index.update((key, i) for i, key in enumerate(keys))
        return SerialTemplate(index, {})

    @cached_property
    def value_index(self) -> dict[ColumnType, dict[str, list[tuple[str, str, str]]]]:
        """Column type -> normalized cell value -> its ``(table, column,
        value)`` holders in schema column order, each column holding the
        first of its values with that normalized form; empty without content."""
        index: dict[ColumnType, dict[str, list[tuple[str, str, str]]]] = {}
        for table, col in self.iter_columns():
            first: dict[str, str] = {}
            for value in col.sample_values or ():
                first.setdefault(normalize_value(value, col.col_type), value)
            for key, value in first.items():
                holder = (table.name, col.name, value)
                index.setdefault(col.col_type, {}).setdefault(key, []).append(holder)
        return index

    @cached_property
    def value_prefixes(self) -> frozenset[str]:
        """Every ``value_index`` key, and each of its prefixes that ends
        before a space: the text keys that a longer n-gram can still match."""
        prefixes: set[str] = set()
        for keys in self.value_index.values():
            for key in keys:
                words = key.split(" ")
                prefixes.update(" ".join(words[:n]) for n in range(1, len(words) + 1))
        return frozenset(prefixes)

    def column(self, ref: ColumnRef) -> ColumnDef | None:
        if ref.table is None:
            return None
        table = self.table(ref.table)
        return table.column(ref.column) if table else None

    def column_type(self, ref: ColumnRef) -> ColumnType | None:
        col = self.column(ref)
        return col.col_type if col else None

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def iter_columns(self) -> Iterable[tuple[TableDef, ColumnDef]]:
        for table in self.tables:
            for col in table.columns:
                yield table, col

    def qualified_column_names(self) -> list[str]:
        return [f"{t.name}.{c.name}" for t, c in self.iter_columns()]

    def surface_forms(self) -> list[str]:
        """All decodable schema surface forms: tables, Table.Column, "*"."""
        return self.table_names() + self.qualified_column_names() + [STAR]


def _typed(value, kind: type, field: str):
    """``value`` if its type is exactly ``kind`` (a bool is no int), else
    :class:`MalformedDocument` naming ``field``."""
    if type(value) is not kind:
        raise MalformedDocument(f"{field}: expected {kind.__name__}, got {value!r}")
    return value


def load_schema(doc: Mapping, content: dict[str, list[str]] | None = None) -> DatabaseSchema:
    """Build a validated DatabaseSchema from one Spider-format document.

    ``content`` optionally maps "Table.Column" to a list of cell values;
    absence simply disables value linking.  Names must be strings and indices
    ints; a cell value with no non-space character is dropped, since it spells
    no token.
    """
    for fieldname in REQUIRED_DOC_FIELDS:
        if fieldname not in doc:
            raise MalformedDocument(f"missing field {fieldname!r}")
    table_names = [_typed(t, str, "table_names_original") for t in doc["table_names_original"]]
    if not table_names:
        raise MalformedDocument("schema document declares zero tables")

    star_label: str | None = None
    columns_by_table: dict[int, list[tuple[int, str, str]]] = {i: [] for i in range(len(table_names))}
    col_entries = list(doc["column_names_original"])
    col_types = list(doc["column_types"])
    if len(col_types) != len(col_entries):
        raise MalformedDocument(
            f"column_types length {len(col_types)} != column count {len(col_entries)}"
        )
    global_refs: list[ColumnRef | None] = []
    for idx, entry in enumerate(col_entries):
        try:
            t_idx, name = entry
        except (TypeError, ValueError) as exc:
            raise MalformedDocument(f"bad column entry at index {idx}: {entry!r}") from exc
        where = f"column_names_original[{idx}]"
        t_idx, name = _typed(t_idx, int, where), _typed(name, str, where)
        if t_idx == -1:
            if name != STAR:
                raise MalformedDocument(f"table-less column {name!r} at index {idx}")
            star_label = str(col_types[idx])
            global_refs.append(None)
            continue
        if not 0 <= t_idx < len(table_names):
            raise DanglingReference(f"column {name!r} references table index {t_idx}")
        columns_by_table[t_idx].append((idx, name, str(col_types[idx])))
        global_refs.append(ColumnRef(table_names[t_idx], name))

    primary_by_table: dict[int, list[str]] = {}
    for pk_idx in doc["primary_keys"]:
        _typed(pk_idx, int, "primary_keys")
        if not 0 <= pk_idx < len(global_refs) or global_refs[pk_idx] is None:
            raise DanglingReference(f"primary key index {pk_idx} out of range")
        ref = global_refs[pk_idx]
        t_idx = next(i for i, n in enumerate(table_names) if n == ref.table)
        primary_by_table.setdefault(t_idx, []).append(ref.column)

    content_map = {
        k.lower(): tuple(v for v in map(str, _typed(vals, list, f"content {k!r}")) if v.strip())
        for k, vals in _typed(content or {}, dict, f"content of {doc['db_id']!r}").items()
    }

    tables: list[TableDef] = []
    for t_idx, name in enumerate(table_names):
        pk_cols = primary_by_table.get(t_idx, [])
        if len(pk_cols) > 1:
            logger.warning(
                "table %r declares composite primary key %s; using %r",
                name, pk_cols, pk_cols[0],
            )
        primary = pk_cols[0] if pk_cols else None
        cols = []
        for _, col_name, type_label in columns_by_table[t_idx]:
            values = content_map.get(f"{name}.{col_name}".lower())
            cols.append(
                ColumnDef(
                    name=col_name,
                    col_type=parse_column_type(type_label),
                    is_primary=(primary is not None and col_name == primary),
                    sample_values=values,
                    raw_type=type_label,
                )
            )
        tables.append(
            TableDef(
                name=name,
                columns=tuple(cols),
                primary_key=primary,
                extra_primary_keys=tuple(pk_cols[1:]),
            )
        )

    fks: list[tuple[ColumnRef, ColumnRef]] = []
    for pair in doc["foreign_keys"]:
        try:
            a, b = pair
        except (TypeError, ValueError) as exc:
            raise MalformedDocument(f"bad foreign key entry {pair!r}") from exc
        for i in (a, b):
            if not 0 <= _typed(i, int, "foreign_keys") < len(global_refs) or global_refs[i] is None:
                raise DanglingReference(f"foreign key index {i} out of range")
        fks.append((global_refs[a], global_refs[b]))

    return DatabaseSchema(
        db_id=str(doc["db_id"]),
        tables=tuple(tables),
        foreign_keys=tuple(fks),
        star_label=star_label,
    )


def load_schemas(
    tables_path: str | Path, content_path: str | Path | None = None
) -> dict[str, DatabaseSchema]:
    """Load every schema in a tables.json file, keyed by db_id.

    ``content_path`` points at an optional sidecar mapping
    db_id -> {"Table.Column": [values, ...]}.
    """
    with open(tables_path, encoding="utf-8") as f:
        docs = json.load(f)
    content_all: dict = {}
    if content_path is not None:
        with open(content_path, encoding="utf-8") as f:
            content_all = _typed(json.load(f), dict, "content file")
    schemas: dict[str, DatabaseSchema] = {}
    for doc in docs:
        schema = load_schema(doc, content=content_all.get(doc.get("db_id")))
        schemas[schema.db_id] = schema
    return schemas


def bfs(adj: Sequence[int], sources: int, within: int = -1) -> dict[int, int]:
    """Breadth-first search over neighbour bitmasks.

    ``adj[i]`` has bit ``j`` set when nodes ``i`` and ``j`` are linked.  The
    search starts from every node in the bitmask ``sources`` and enters only
    nodes in the bitmask ``within``.  It returns each reached node's parent
    (-1 for a source) in visit order.  Sources, and each node's new
    neighbours, are visited in ascending order, so the parents spell the
    lexicographically smallest shortest path from a source to each node.
    """
    parent: dict[int, int] = {}
    queue, free = [-1], within & ~sources
    for node in queue:  # nodes appended below extend the loop: FIFO order
        if node < 0:
            new = sources
        else:
            new = adj[node] & free
            free ^= new
        while new:
            low = new & -new
            child = low.bit_length() - 1
            parent[child] = node
            queue.append(child)
            new ^= low
    return parent


class SchemaGraph:
    """Undirected table-link graph, immutable after construction.

    Two tables are linked when a foreign key joins them.  ``adj`` holds each
    table's neighbours as a bitmask over declaration indices; every path and
    connectivity query is one :func:`bfs` over it.
    """

    def __init__(self, schema: DatabaseSchema):
        self.tables: tuple[str, ...] = tuple(schema.table_names())
        self._index = {name.lower(): i for i, name in enumerate(self.tables)}

        link_pairs: dict[tuple[int, int], list[tuple[ColumnRef, ColumnRef]]] = {}
        for src, dst in schema.foreign_keys:
            i, j = self._index[src.table.lower()], self._index[dst.table.lower()]
            if i == j:
                continue  # self-referencing keys induce no table link
            pair = (min(i, j), max(i, j))
            link_pairs.setdefault(pair, []).append((src, dst))
        # Linked table pairs, ordered by declaration index.
        self.links: tuple[tuple[str, str], ...] = tuple(
            (self.tables[i], self.tables[j]) for i, j in sorted(link_pairs)
        )
        adj = [0] * len(self.tables)
        for i, j in link_pairs:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj: tuple[int, ...] = tuple(adj)
        # FK column pairs of each linked pair (i, j), i < j, in declaration order.
        self.link_keys = {pair: tuple(fks) for pair, fks in link_pairs.items()}

    def table_index(self, name: str) -> int:
        return self._index[name.lower()]

    def neighbors(self, name: str) -> list[str]:
        mask = self.adj[self.table_index(name)]
        return [t for j, t in enumerate(self.tables) if mask >> j & 1]

    def foreign_keys_between(self, a: str, b: str) -> tuple[tuple[ColumnRef, ColumnRef], ...]:
        """FK column pairs linking two tables, in declaration order."""
        i, j = self.table_index(a), self.table_index(b)
        return self.link_keys.get((min(i, j), max(i, j)), ())

    def path(self, src: int, dst: int) -> list[int] | None:
        """Shortest table-link path, as table indices, from a table in the
        bitmask ``src`` to one in ``dst``; None when there is none.

        Among equal-length paths the lexicographically smallest index
        sequence wins, so results are deterministic.
        """
        parent = bfs(self.adj, src)
        node = next((i for i in parent if dst >> i & 1), -1)
        if node < 0:
            return None
        path = []
        while node >= 0:
            path.append(node)
            node = parent[node]
        return path[::-1]


def build_schema_graph(schema: DatabaseSchema) -> SchemaGraph:
    """The table-link graph of a validated schema (``schema.graph``)."""
    return schema.graph
