"""Structure-marked input serialization for a seq2seq scorer.

Layout: current question turn, prior turns newest-to-oldest, previous SQL,
linearized schema with mark prefixes, then table relation statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from structsql.linking import LinkAnnotation, MatchKind, QuestionTokens
from structsql.schema import DatabaseSchema
from structsql.sql_ast import SqlQuery, render_sql

TABLE_MARK = "[TABLE]"
COLUMN_MARK = "[COLUMN]"
AMP = "&"
PRIMARY_KEY_MARK = "Primary-Key"
LINKS_TO = "links to"
TURN_SEPARATOR = "|"

MATCH_MARKS = {
    MatchKind.EXACT: "Exact-Match",
    MatchKind.PARTIAL: "Partial-Match",
    MatchKind.VALUE: "Value-Match",
}


class UnknownLinkTarget(ValueError):
    """An annotation references a schema item that does not exist."""


@dataclass(frozen=True)
class MarkConfig:
    """Toggles for the three mark families (all on reproduces the full input)."""

    schema_property: bool = True
    database_structure: bool = True
    discourse: bool = True


@dataclass(frozen=True)
class AnnotatedInput:
    """Serialized, structure-marked token sequence of one example."""

    tokens: tuple[str, ...]
    example_id: str | None = None

    def render(self) -> str:
        return " ".join(self.tokens)


# Match kinds as bits of a mask, and the marks each mask writes before a
# column's own marks (each followed by "&") and before a table (joined
# by "&").
_KIND_BITS = {kind: 1 << i for i, kind in enumerate(MatchKind)}
_COLUMN_PREFIXES = tuple(
    tuple(tok for kind, bit in _KIND_BITS.items() if mask & bit for tok in (MATCH_MARKS[kind], AMP))
    for mask in range(1 << len(MatchKind))
)
_TABLE_PREFIXES = tuple(prefix[:-1] for prefix in _COLUMN_PREFIXES)


def _unlinked_run(schema: DatabaseSchema, schema_property: bool, database_structure: bool):
    """The serialization without links as one token tuple, and where each
    template position's segment (a table's name, a column's marks and name)
    starts in it, then its length.  Flattened once per flag pair and kept in
    the schema's ``serial_template``."""
    runs = schema.serial_template.runs
    run = runs.get((schema_property, database_structure))
    if run is None:
        flat, bounds = [TABLE_MARK], []
        for table in schema.tables:
            bounds.append(len(flat))
            flat.append(table.name)
        flat.append(COLUMN_MARK)
        for table, col in schema.iter_columns():
            bounds.append(len(flat))
            if schema_property:
                flat += (PRIMARY_KEY_MARK, AMP) * col.is_primary + (col.col_type.value,)
            flat.append(f"{table.name}.{col.name}" if database_structure else col.name)
        bounds.append(len(flat))
        run = runs[schema_property, database_structure] = (tuple(flat), tuple(bounds))
    return run


def linearize_schema(
    schema: DatabaseSchema,
    links: list[LinkAnnotation] | tuple = (),
    include_values: bool = False,
    *,
    schema_property: bool = True,
    database_structure: bool = True,
) -> list[str]:
    """Flatten the schema into mark-prefixed surface tokens.

    Column marks are joined with "&" in fixed order: match kinds, then
    Primary-Key, then the column type.  A type mark is emitted for every
    column.  With ``include_values``, matched cell values follow the column,
    each preceded by "&".  The unlinked serialization is copied in runs
    between the linked positions, whose marks and values are spliced in.
    The first link naming no schema item raises ``UnknownLinkTarget`` before
    any output.
    """
    index = schema.serial_template.index
    kinds: dict[int, int] = {}
    values: dict[int, list[str]] = {}
    for _, _, kind, table, column, value in links:
        pos = index.get((table.lower(), None if column is None else column.lower()))
        if pos is None:
            if schema.table(table) is None:
                raise UnknownLinkTarget(f"no table {table!r} in schema {schema.db_id!r}")
            raise UnknownLinkTarget(f"no column {table}.{column} in schema {schema.db_id!r}")
        kinds[pos] = kinds.get(pos, 0) | _KIND_BITS[kind]
        if kind is MatchKind.VALUE and column is not None:
            bucket = values.setdefault(pos, [])
            if value not in bucket:
                bucket.append(value)

    flat, bounds = _unlinked_run(schema, schema_property, database_structure)
    n_tables = len(schema.tables)
    out: list[str] = []
    at = 0  # flat[:at] is in out
    for pos in sorted(kinds):
        if schema_property:
            out += flat[at : bounds[pos]]
            out += (_TABLE_PREFIXES if pos < n_tables else _COLUMN_PREFIXES)[kinds[pos]]
            at = bounds[pos]
        if include_values and pos in values:
            out += flat[at : bounds[pos + 1]]
            for value in values[pos]:
                out += (AMP, value)
            at = bounds[pos + 1]
    out += flat[at:]
    return out


def render_relations(schema: DatabaseSchema, graph=None) -> list[str]:
    """One "T1 links to T2" statement per table-link edge, in declaration order.

    Foreign-key column pairs are not rendered separately; the table relation
    subsumes them.
    """
    out: list[str] = []
    for a, b in (graph or schema.graph).links:
        out.extend((a, LINKS_TO, b))
    return out


def build_input(
    turns: QuestionTokens,
    schema: DatabaseSchema,
    links: list[LinkAnnotation] | tuple = (),
    prev_sql: SqlQuery | None = None,
    include_values: bool = False,
    config: MarkConfig = MarkConfig(),
    *,
    example_id: str | None = None,
    graph=None,
) -> AnnotatedInput:
    """Assemble the full serialized input for one example.

    Question turns appear in reverse chronological order (current turn first)
    separated by "|"; the previous-turn SQL is inserted only when the
    discourse family is enabled.
    """
    tokens: list[str] = []
    for offset, turn in enumerate(reversed(turns.turns)):
        if offset:
            tokens.append(TURN_SEPARATOR)
        tokens.extend(turn)

    if config.discourse and prev_sql is not None:
        tokens.extend(render_sql(prev_sql).split(" "))

    tokens.extend(
        linearize_schema(
            schema,
            links if config.schema_property else (),
            include_values,
            schema_property=config.schema_property,
            database_structure=config.database_structure,
        )
    )
    if config.database_structure:
        tokens.extend(render_relations(schema, graph))
    return AnnotatedInput(tuple(tokens), example_id=example_id)
