"""Deterministic synthetic schemas, queries, and questions for desk-scale runs.

Everything is driven by an explicit random.Random instance so a seed fully
determines the generated corpus, byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from structsql.schema import (
    ColumnRef,
    DatabaseSchema,
    SchemaGraph,
    build_schema_graph,
    load_schema,
)
from structsql.sql_ast import (
    Agg,
    ColumnExpr,
    Condition,
    ConditionList,
    Literal,
    OrderItem,
    SqlQuery,
    parse_sql,
    render_sql,
)

_TABLE_WORDS = (
    "orders", "users", "products", "reviews", "stores", "cities", "drivers",
    "routes", "tickets", "events", "teams", "games", "authors", "books",
    "loans", "branches", "courses", "students", "grades", "flights",
    "airports", "hotels", "bookings", "artists", "albums", "tracks",
    "suppliers", "parts", "projects", "employees",
)

_COLUMN_WORDS = (
    "name", "code", "status", "category", "price", "amount", "score",
    "rating", "year", "level", "country", "city", "title", "weight",
    "length", "budget", "age", "grade", "color", "brand",
)

_VALUE_WORDS = (
    "red", "blue", "green", "gold", "silver", "north", "south", "east",
    "west", "alpha", "beta", "gamma", "delta", "prime", "major", "minor",
)

_COLUMN_TYPES = ("integer", "real", "text")


def random_schema_doc(rng: random.Random, db_id: str, min_tables: int = 2, max_tables: int = 8,
                      with_values: bool = False) -> tuple[dict, dict]:
    """One Spider-format document plus its content sidecar entry.

    Foreign keys follow a chain or star pattern over the tables.
    """
    n_tables = rng.randint(min_tables, max_tables)
    tables = rng.sample(_TABLE_WORDS, n_tables)
    pattern = rng.choice(("chain", "star"))
    columns: list[list] = [[-1, "*"]]
    types: list[str] = ["text"]
    primary_keys: list[int] = []
    foreign_keys: list[list[int]] = []
    index_of: dict[tuple[str, str], int] = {}
    content: dict[str, list[str]] = {}

    for t_idx, table in enumerate(tables):
        pk_name = "id"
        index_of[(table, pk_name)] = len(columns)
        primary_keys.append(len(columns))
        columns.append([t_idx, pk_name])
        types.append("integer")
        for word in rng.sample(_COLUMN_WORDS, rng.randint(1, 4)):
            col_type = rng.choice(_COLUMN_TYPES)
            index_of[(table, word)] = len(columns)
            columns.append([t_idx, word])
            types.append(col_type)
            if with_values and col_type == "text" and rng.random() < 0.5:
                content[f"{table}.{word}"] = sorted(
                    rng.sample(_VALUE_WORDS, rng.randint(1, 3))
                )
        if t_idx > 0:
            parent = tables[t_idx - 1] if pattern == "chain" else tables[0]
            fk_name = f"{parent}_id"
            index_of[(table, fk_name)] = len(columns)
            columns.append([t_idx, fk_name])
            types.append("integer")
            foreign_keys.append([index_of[(table, fk_name)], index_of[(parent, "id")]])

    doc = {
        "db_id": db_id,
        "table_names_original": tables,
        "column_names_original": columns,
        "column_types": types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }
    return doc, content


def _join_subset(rng: random.Random, graph: SchemaGraph, size: int) -> list[str]:
    """Random connected table subset grown along table-link edges."""
    current = [rng.choice(graph.tables)]
    while len(current) < size:
        frontier = sorted(
            {n for t in current for n in graph.neighbors(t) if n not in current}
        )
        if not frontier:
            break
        current.append(rng.choice(frontier))
    return current


def _join_conditions(graph: SchemaGraph, tables: list[str]) -> list[tuple[ColumnRef, ColumnRef]]:
    conditions = []
    joined = [tables[0]]
    for table in tables[1:]:
        anchor = next(t for t in joined if graph.foreign_keys_between(t, table))
        conditions.append(graph.foreign_keys_between(anchor, table)[0])
        joined.append(table)
    return conditions


def _random_value(rng: random.Random, schema: DatabaseSchema, ref: ColumnRef) -> Literal:
    col = schema.column(ref)
    if col is not None and col.col_type.name in ("INTEGER", "REAL"):
        return Literal("number", str(rng.randint(1, 500)))
    if col is not None and col.sample_values:
        return Literal("string", rng.choice(sorted(col.sample_values)))
    return Literal("string", rng.choice(_VALUE_WORDS))


def random_query(rng: random.Random, schema: DatabaseSchema, graph: SchemaGraph,
                 allow_set_op: bool = True) -> SqlQuery:
    """A random valid query whose FROM clause is already join-connected."""
    size = rng.choice((1, 1, 2, 2, 3))
    tables = _join_subset(rng, graph, min(size, len(graph.tables)))

    def pick_column() -> ColumnRef:
        table = schema.table(rng.choice(tables))
        col = rng.choice(table.columns)
        return ColumnRef(table.name, col.name)

    select: list[ColumnExpr] = []
    if rng.random() < 0.2:
        select.append(ColumnExpr(ColumnRef(None, "*"), Agg.COUNT))
    for _ in range(rng.randint(1, 2) - len(select)):
        agg = Agg.NONE if rng.random() < 0.75 else rng.choice((Agg.MAX, Agg.MIN, Agg.AVG, Agg.SUM, Agg.COUNT))
        select.append(ColumnExpr(pick_column(), agg, distinct=(agg is Agg.COUNT and rng.random() < 0.3)))
    if not select:
        select.append(ColumnExpr(pick_column()))

    where = None
    n_conds = rng.choice((0, 0, 1, 1, 2))
    if n_conds:
        conds = []
        for _ in range(n_conds):
            ref = pick_column()
            roll = rng.random()
            if roll < 0.1:
                lo = rng.randint(1, 100)
                conds.append(
                    Condition(
                        ColumnExpr(ref), "BETWEEN",
                        (Literal("number", str(lo)), Literal("number", str(lo + rng.randint(1, 50)))),
                    )
                )
            elif roll < 0.2 and len(graph.tables) > 1:
                other = schema.table(rng.choice(graph.tables))
                sub_col = rng.choice(other.columns)
                sub = SqlQuery(
                    select=(ColumnExpr(ColumnRef(other.name, sub_col.name)),),
                    from_tables=(other.name,),
                )
                conds.append(Condition(ColumnExpr(ref), rng.choice(("IN", "NOT IN")), (sub,)))
            else:
                op = rng.choice(("=", "=", "!=", "<", ">", "<=", ">="))
                conds.append(Condition(ColumnExpr(ref), op, (_random_value(rng, schema, ref),)))
        connectors = tuple(rng.choice(("AND", "AND", "OR")) for _ in range(len(conds) - 1))
        where = ConditionList(tuple(conds), connectors)

    group_by: tuple[ColumnRef, ...] = ()
    having = None
    if any(e.agg is not Agg.NONE for e in select) and rng.random() < 0.4:
        plain = [e.ref for e in select if e.agg is Agg.NONE and e.ref.column != "*"]
        if plain:
            group_by = (plain[0],)
            if rng.random() < 0.3:
                having = ConditionList(
                    (Condition(ColumnExpr(ColumnRef(None, "*"), Agg.COUNT), ">",
                               (Literal("number", str(rng.randint(1, 5))),)),),
                )

    order_by: tuple[OrderItem, ...] = ()
    if rng.random() < 0.3:
        order_by = (OrderItem(ColumnExpr(pick_column()), desc=rng.random() < 0.5),)

    limit = rng.randint(1, 10) if order_by and rng.random() < 0.5 else None

    query = SqlQuery(
        select=tuple(select),
        distinct=rng.random() < 0.1,
        from_tables=tuple(tables),
        join_conditions=tuple(_join_conditions(graph, tables)),
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
    )
    if allow_set_op and rng.random() < 0.08:
        rhs = random_query(rng, schema, graph, allow_set_op=False)
        query = replace(query, set_op=(rng.choice(("UNION", "INTERSECT", "EXCEPT")), rhs))
    return query


def question_for(rng: random.Random, query: SqlQuery) -> str:
    """A templated natural-language-ish question naming query columns and tables."""
    def words(name: str) -> str:
        return name.replace("_", " ").replace(".", " ")

    cols = ", ".join(
        "everything" if e.ref.column == "*" else words(e.ref.column) for e in query.select
    )
    tables = " and ".join(words(t) for t in query.from_tables) or "the data"
    text = f"show {cols} of {tables}"
    if query.where is not None:
        cond = query.where.conditions[0]
        value = cond.values[0]
        if isinstance(value, Literal):
            text += f" where {words(cond.left.ref.column)} is {value.text}"
    if query.order_by:
        text += f" sorted by {words(query.order_by[0].expr.ref.column)}"
    return text


@dataclass(frozen=True)
class SyntheticCorpus:
    schema_docs: list[dict]
    content: dict[str, dict[str, list[str]]]
    examples: list[dict]


def generate_synthetic_corpus(
    seed: int,
    n_schemas: int,
    n_queries: int,
    *,
    with_values: bool = False,
    min_tables: int = 2,
    max_tables: int = 8,
) -> SyntheticCorpus:
    """Random schemas plus valid rendered target queries, deterministic per seed.

    Every generated query is checked to parse and schema-resolve.
    """
    if n_schemas < 1 or n_queries < 1:
        raise ValueError("need at least one schema and one query")
    rng = random.Random(seed)
    schema_docs: list[dict] = []
    content: dict[str, dict[str, list[str]]] = {}
    loaded: list[DatabaseSchema] = []
    graphs: list[SchemaGraph] = []
    for i in range(n_schemas):
        db_id = f"synth_{i:03d}"
        doc, values = random_schema_doc(
            rng, db_id, min_tables=min_tables, max_tables=max_tables, with_values=with_values
        )
        schema_docs.append(doc)
        if values:
            content[db_id] = values
        schema = load_schema(doc, content=values or None)
        loaded.append(schema)
        graphs.append(build_schema_graph(schema))

    examples: list[dict] = []
    for i in range(n_queries):
        pick = rng.randrange(n_schemas)
        schema, graph = loaded[pick], graphs[pick]
        query = random_query(rng, schema, graph)
        text = render_sql(query)
        parse_sql(text, schema)  # self-check: every target parses and resolves
        examples.append(
            {
                "db_id": schema.db_id,
                "interaction_id": f"i{i:04d}",
                "question": question_for(rng, query),
                "query": text,
            }
        )
    return SyntheticCorpus(schema_docs, content, examples)


def write_corpus(corpus: SyntheticCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write tables.json, examples.json, and content.json (when present)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "tables": out / "tables.json",
        "examples": out / "examples.json",
    }
    paths["tables"].write_text(
        json.dumps(corpus.schema_docs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["examples"].write_text(
        json.dumps(corpus.examples, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if corpus.content:
        paths["content"] = out / "content.json"
        paths["content"].write_text(
            json.dumps(corpus.content, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return paths
