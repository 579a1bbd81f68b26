"""Relational schema ingestion, validation, and graph construction.

Schemas arrive as Spider-format documents (``tables.json`` entries) and are
turned into immutable :class:`DatabaseSchema` values.  A :class:`SchemaGraph`
of foreign-key links between tables backs join-path discovery.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

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


def _stem(token: str) -> str:
    if len(token) > 3 and token.endswith("s"):
        return token[:-1]
    return token


def name_tokens(name: str) -> tuple[str, ...]:
    """Normalized token decomposition of a schema name."""
    raw = re.split(r"[_\s]+", name.strip())
    out: list[str] = []
    for piece in raw:
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
    # Original type label, kept so re-serialization is lossless.
    raw_type: str | None = None

    def type_label(self) -> str:
        return self.raw_type if self.raw_type is not None else self.col_type.name.lower()


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: str | None = None
    # Composite declarations beyond the first; kept for lossless round-trip.
    extra_primary_keys: tuple[str, ...] = ()

    def column(self, name: str) -> ColumnDef | None:
        low = name.lower()
        for col in self.columns:
            if col.name.lower() == low:
                return col
        return None


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

    def has_content(self) -> bool:
        return any(c.sample_values for _, c in self.iter_columns())


def load_schema(doc: Mapping, content: Mapping[str, list[str]] | None = None) -> DatabaseSchema:
    """Build a validated DatabaseSchema from one Spider-format document.

    ``content`` optionally maps "Table.Column" to a list of cell values;
    absence simply disables value linking.
    """
    for fieldname in REQUIRED_DOC_FIELDS:
        if fieldname not in doc:
            raise MalformedDocument(f"missing field {fieldname!r}")
    table_names = list(doc["table_names_original"])
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
        if not 0 <= pk_idx < len(global_refs) or global_refs[pk_idx] is None:
            raise DanglingReference(f"primary key index {pk_idx} out of range")
        ref = global_refs[pk_idx]
        t_idx = next(i for i, n in enumerate(table_names) if n == ref.table)
        primary_by_table.setdefault(t_idx, []).append(ref.column)

    content_map = {k.lower(): tuple(str(v) for v in vals) for k, vals in (content or {}).items()}

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
            if not 0 <= i < len(global_refs) or global_refs[i] is None:
                raise DanglingReference(f"foreign key index {i} out of range")
        fks.append((global_refs[a], global_refs[b]))

    return DatabaseSchema(
        db_id=str(doc["db_id"]),
        tables=tuple(tables),
        foreign_keys=tuple(fks),
        star_label=star_label,
    )


def to_spider_doc(schema: DatabaseSchema) -> dict:
    """Re-serialize to the Spider document format (the fields this toolkit reads)."""
    column_names: list[list] = []
    column_types: list[str] = []
    index_of: dict[tuple[str, str], int] = {}
    if schema.star_label is not None:
        column_names.append([-1, STAR])
        column_types.append(schema.star_label)
    for t_idx, table in enumerate(schema.tables):
        for col in table.columns:
            index_of[(table.name.lower(), col.name.lower())] = len(column_names)
            column_names.append([t_idx, col.name])
            column_types.append(col.type_label())
    primary_keys = []
    for table in schema.tables:
        for key in ((table.primary_key,) if table.primary_key else ()) + table.extra_primary_keys:
            primary_keys.append(index_of[(table.name.lower(), key.lower())])
    foreign_keys = [
        [index_of[src.key()], index_of[dst.key()]] for src, dst in schema.foreign_keys
    ]
    return {
        "db_id": schema.db_id,
        "table_names_original": [t.name for t in schema.tables],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


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
            content_all = json.load(f)
    schemas: dict[str, DatabaseSchema] = {}
    for doc in docs:
        schema = load_schema(doc, content=content_all.get(doc.get("db_id")))
        schemas[schema.db_id] = schema
    return schemas


class SchemaGraph:
    """Undirected table-link graph, immutable after construction.

    Two tables are linked when a foreign key joins them.  Path queries run
    over these links.
    """

    def __init__(self, schema: DatabaseSchema):
        self.db_id = schema.db_id
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
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.tables))}
        for i, j in link_pairs:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {i: tuple(sorted(n)) for i, n in adj.items()}
        self._fk_between = {pair: tuple(fks) for pair, fks in link_pairs.items()}

    def table_index(self, name: str) -> int:
        return self._index[name.lower()]

    def canonical(self, name: str) -> str:
        return self.tables[self.table_index(name)]

    def neighbors(self, name: str) -> list[str]:
        return [self.tables[j] for j in self._adj[self.table_index(name)]]

    def foreign_keys_between(self, a: str, b: str) -> tuple[tuple[ColumnRef, ColumnRef], ...]:
        """FK column pairs linking two tables, in declaration order."""
        i, j = self.table_index(a), self.table_index(b)
        return self._fk_between.get((min(i, j), max(i, j)), ())

    def connected(self, a: str, b: str) -> bool:
        return self.index_path({self.table_index(a)}, {self.table_index(b)}) is not None

    def shortest_path(self, a: str, b: str) -> list[str] | None:
        """Shortest table-link path from a to b, endpoints included.

        Among equal-length paths the one whose table indices are
        lexicographically smallest wins, so results are deterministic.
        """
        path = self.index_path({self.table_index(a)}, {self.table_index(b)})
        return None if path is None else [self.tables[i] for i in path]

    def index_path(self, src: set[int], dst: set[int]) -> list[int] | None:
        """Shortest table-link path, as table indices, from any table in
        ``src`` to any table in ``dst``; None when there is none.

        Among equal-length paths the lexicographically smallest index
        sequence wins.
        """
        heap: list[tuple[int, tuple[int, ...], int]] = [(0, (i,), i) for i in sorted(src)]
        best: dict[int, tuple[int, tuple[int, ...]]] = {}
        while heap:
            dist, path, node = heappop(heap)
            if node in dst:
                return list(path)
            known = best.get(node)
            if known is not None and known <= (dist, path):
                continue
            best[node] = (dist, path)
            for nxt in self._adj[node]:
                if nxt not in path:
                    heappush(heap, (dist + 1, path + (nxt,), nxt))
        return None


def build_schema_graph(schema: DatabaseSchema) -> SchemaGraph:
    """Construct the table-link graph for a validated schema."""
    return SchemaGraph(schema)
