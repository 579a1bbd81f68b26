"""Structure-marked input serialization for a seq2seq scorer.

Layout: current question turn, prior turns newest-to-oldest, previous SQL,
linearized schema with mark prefixes, then table relation statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from structsql.linking import LinkAnnotation, MatchKind, QuestionTokens
from structsql.schema import ColumnType, DatabaseSchema, build_schema_graph
from structsql.sql_ast import SqlQuery, render_sql

TABLE_MARK = "[TABLE]"
COLUMN_MARK = "[COLUMN]"
AMP = "&"
LINKS_TO = "links to"
PRIMARY_KEY_MARK = "Primary-Key"
TURN_SEPARATOR = "|"

MATCH_MARKS = {
    MatchKind.EXACT: "Exact-Match",
    MatchKind.PARTIAL: "Partial-Match",
    MatchKind.VALUE: "Value-Match",
}

MARK_VOCABULARY = frozenset(
    {TABLE_MARK, COLUMN_MARK, PRIMARY_KEY_MARK, AMP, LINKS_TO}
    | set(MATCH_MARKS.values())
    | {t.value for t in ColumnType}
)


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


def _validate_links(schema: DatabaseSchema, links: list[LinkAnnotation]) -> None:
    for ann in links:
        table = schema.table(ann.table)
        if table is None:
            raise UnknownLinkTarget(f"no table {ann.table!r} in schema {schema.db_id!r}")
        if ann.column is not None and table.column(ann.column) is None:
            raise UnknownLinkTarget(
                f"no column {ann.table}.{ann.column} in schema {schema.db_id!r}"
            )


def _group_links(links: list[LinkAnnotation]):
    kinds: dict[tuple[str, str | None], set[MatchKind]] = {}
    values: dict[tuple[str, str], list[str]] = {}
    for ann in links:
        key = ann.target_key()
        kinds.setdefault(key, set()).add(ann.kind)
        if ann.kind is MatchKind.VALUE and ann.column is not None:
            bucket = values.setdefault((key[0], key[1]), [])
            if ann.value not in bucket:
                bucket.append(ann.value)
    return kinds, values


def _mark_prefix(marks: list[str]) -> list[str]:
    tokens: list[str] = []
    for i, mark in enumerate(marks):
        if i:
            tokens.append(AMP)
        tokens.append(mark)
    return tokens


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
    each preceded by "&".
    """
    _validate_links(schema, links)
    kinds, values = _group_links(links)

    out: list[str] = [TABLE_MARK]
    for table in schema.tables:
        if schema_property:
            present = kinds.get((table.name.lower(), None), set())
            out.extend(_mark_prefix([MATCH_MARKS[k] for k in MatchKind if k in present]))
        out.append(table.name)

    out.append(COLUMN_MARK)
    for table, col in schema.iter_columns():
        key = (table.name.lower(), col.name.lower())
        if schema_property:
            present = kinds.get(key, set())
            marks = [MATCH_MARKS[k] for k in MatchKind if k in present]
            if col.is_primary:
                marks.append(PRIMARY_KEY_MARK)
            marks.append(col.col_type.value)
            out.extend(_mark_prefix(marks))
        out.append(f"{table.name}.{col.name}" if database_structure else col.name)
        if include_values:
            for value in values.get(key, ()):
                out.extend((AMP, value))
    return out


def render_relations(schema: DatabaseSchema, graph=None) -> list[str]:
    """One "T1 links to T2" statement per table-link edge, in declaration order.

    Foreign-key column pairs are not rendered separately; the table relation
    subsumes them.
    """
    graph = graph or build_schema_graph(schema)
    out: list[str] = []
    for a, b in graph.links:
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
