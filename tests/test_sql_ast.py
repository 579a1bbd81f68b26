import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.complete import _scope_tables
from structsql.schema import ColumnRef, build_schema_graph, load_schema
from structsql.sql_ast import (
    Agg,
    AmbiguousColumn,
    ColumnExpr,
    ConditionList,
    SqlQuery,
    SqlSyntaxError,
    UnknownTable,
    UnresolvableColumn,
    _iter_refs,
    component_set,
    map_query,
    parse_sql,
    render_sql,
)
from structsql.synth import random_query, random_schema_doc


def make_corpus(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        doc, content = random_schema_doc(rng, f"db{len(out)}", with_values=True)
        schema = load_schema(doc, content=content or None)
        graph = build_schema_graph(schema)
        for _ in range(min(n - len(out), 5)):
            out.append((schema, random_query(rng, schema, graph)))
    return out


# -- parsing -----------------------------------------------------------------


def test_minimal_query():
    q = parse_sql("SELECT * FROM T")
    assert q.select == (ColumnExpr(ColumnRef(None, "*")),)
    assert q.from_tables == ("T",)


def test_set_op_shape():
    q = parse_sql("SELECT A UNION SELECT B")
    assert q.set_op is not None
    op, rhs = q.set_op
    assert op == "UNION"
    assert rhs.select[0].ref.column == "B"


def test_join_with_aliases_resolved_away(tennis):
    q = parse_sql(
        "SELECT T1.First_name FROM Players AS T1 JOIN Matches AS T2 "
        "ON T2.Winner_id = T1.Player_id",
        tennis,
    )
    assert q.from_tables == ("Players", "Matches")
    assert q.select[0].ref == ColumnRef("Players", "First_name")
    a, b = q.join_conditions[0]
    assert (str(a), str(b)) == ("Matches.Winner_id", "Players.Player_id")


def test_aggregate_distinct_and_having(tennis):
    q = parse_sql(
        "SELECT Players.Country, COUNT(DISTINCT Players.Player_id) FROM Players "
        "GROUP BY Players.Country HAVING COUNT(*) > 3",
        tennis,
    )
    assert q.select[1].agg is Agg.COUNT and q.select[1].distinct
    assert q.group_by == (ColumnRef("Players", "Country"),)
    assert q.having.conditions[0].op == ">"


def test_between_and_in_subquery(tennis):
    q = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year BETWEEN 2010 AND 2016 "
        "AND Ranking.Player_id IN (SELECT Matches.Winner_id FROM Matches)",
        tennis,
    )
    between, in_sub = q.where.conditions
    assert between.op == "BETWEEN" and len(between.values) == 2
    assert in_sub.op == "IN" and isinstance(in_sub.values[0], SqlQuery)
    assert q.where.connectors == ("AND",)


def test_not_in_and_string_values(tennis):
    q = parse_sql(
        "SELECT Players.First_name FROM Players WHERE Players.Country NOT IN ('USA', 'France')",
        tennis,
    )
    cond = q.where.conditions[0]
    assert cond.op == "NOT IN"
    assert [v.text for v in cond.values] == ["USA", "France"]


def test_syntax_error_position():
    with pytest.raises(SqlSyntaxError) as err:
        parse_sql("SELECT FROM T")
    assert err.value.position >= 7


def test_negative_number_literal_rejected_at_minus():
    # Numeric literals are unsigned in the supported grammar.
    text = "SELECT Players.First_name FROM Players WHERE Players.Player_id > -1"
    with pytest.raises(SqlSyntaxError) as err:
        parse_sql(text)
    assert err.value.position == text.index("-")


def test_empty_query_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_sql("   ")


def test_vendor_specific_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT a FROM t WINDOW w AS (PARTITION BY b)")


def test_unresolvable_and_ambiguous(tennis):
    with pytest.raises(UnresolvableColumn):
        parse_sql("SELECT Nope FROM Players", tennis)
    with pytest.raises(AmbiguousColumn):
        # Player_id exists in both Players and Ranking
        parse_sql("SELECT Player_id FROM Players JOIN Ranking", tennis)
    with pytest.raises(UnknownTable):
        parse_sql("SELECT x FROM NotATable", tennis)


def test_unqualified_column_resolved_to_unique_owner(tennis):
    q = parse_sql("SELECT First_name FROM Players JOIN Matches", tennis)
    assert q.select[0].ref == ColumnRef("Players", "First_name")


def test_join_condition_must_reference_from_tables(tennis):
    with pytest.raises(UnresolvableColumn):
        parse_sql(
            "SELECT Players.First_name FROM Players JOIN Matches "
            "ON Ranking.Player_id = Players.Player_id",
            tennis,
        )


def test_case_insensitive_resolution(tennis):
    q = parse_sql("select players.first_name from PLAYERS", tennis)
    assert q.from_tables == ("Players",)
    assert q.select[0].ref == ColumnRef("Players", "First_name")


# -- rendering ----------------------------------------------------------------


def test_render_minimal():
    assert render_sql(parse_sql("SELECT * FROM T")) == "SELECT * FROM T"


def test_render_uses_explicit_join_syntax(tennis):
    q = parse_sql(
        "SELECT Players.First_name FROM Players, Matches "
        "WHERE Matches.Winner_id = Players.Player_id",
        tennis,
    )
    assert "FROM Players JOIN Matches" in render_sql(q)


def test_render_string_escaping():
    q = parse_sql("SELECT a FROM t WHERE b = 'o''brien'")
    assert "'o''brien'" in render_sql(q)
    assert parse_sql(render_sql(q)) == q


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_generated(seed):
    for schema, query in make_corpus(seed, 40):
        text = render_sql(query)
        parsed = parse_sql(text, schema)
        assert parsed == query, text


@pytest.mark.parametrize("seed", [3, 4])
def test_render_parse_render_idempotent(seed):
    for schema, query in make_corpus(seed, 30):
        text = render_sql(query)
        assert render_sql(parse_sql(text, schema)) == text


# -- mentioned schema: what the walker visits ------------------------------------


def walked(q):
    """FROM tables and column references that ``map_query`` and
    ``_iter_refs`` visit, over every level of the query."""
    tables, refs = set(), set()

    def note(level):
        tables.update(level.from_tables)
        refs.update(_iter_refs(level))
        return level

    map_query(q, note)
    return tables, refs


def test_mentioned_fig_incomplete(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players JOIN Ranking WHERE Ranking.Ranking = 1",
        tennis,
    )
    assert _scope_tables(q, tennis_graph) == ["Players", "Ranking"]


def test_mentioned_star():
    tables, refs = walked(parse_sql("SELECT * FROM T"))
    assert tables == {"T"}
    assert refs == {ColumnRef(None, "*")}


def test_mentioned_nested_union_matches_flat_walk(tennis):
    q = parse_sql(
        "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
        "(SELECT Matches.Winner_id FROM Matches WHERE Matches.Score = 'w') "
        "UNION SELECT Ranking.Year FROM Ranking",
        tennis,
    )
    tables, refs = walked(q)
    tables |= {ref.table for ref in refs}
    columns = {str(ref) for ref in refs}

    # Oracle: flatten the AST generically and collect every ColumnRef/table.
    import dataclasses

    seen_tables, seen_columns = set(), set()

    def walk(node):
        if isinstance(node, SqlQuery):
            seen_tables.update(node.from_tables)
        if isinstance(node, ColumnRef):
            if node.table:
                seen_tables.add(node.table)
                seen_columns.add(f"{node.table}.{node.column}")
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            for f in dataclasses.fields(node):
                walk(getattr(node, f.name))
        elif isinstance(node, (tuple, list)):
            for item in node:
                walk(item)

    walk(q)
    assert tables == seen_tables
    assert columns == seen_columns


def test_mentioned_monotone_adding_clause(tennis):
    base = parse_sql("SELECT Players.First_name FROM Players", tennis)
    extended = parse_sql(
        "SELECT Players.First_name FROM Players ORDER BY Players.Country ASC", tennis
    )
    t1, r1 = walked(base)
    t2, r2 = walked(extended)
    assert t1 <= t2 and r1 < r2


# -- component sets -------------------------------------------------------------


def test_component_reflexive(tennis):
    q = parse_sql("SELECT Players.First_name FROM Players WHERE Players.Country = 'USA'", tennis)
    assert component_set(q) == component_set(q)


def test_component_conjunct_permutation(tennis):
    a = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016 AND Ranking.Ranking = 1",
        tennis,
    )
    b = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1 AND Ranking.Year = 2016",
        tennis,
    )
    assert component_set(a) == component_set(b)


def test_component_conjunct_permutation_oracle(tennis):
    # permutation oracle: every ordering of three conjuncts compares equal
    import itertools

    conds = [
        "Ranking.Year = 2016",
        "Ranking.Ranking = 1",
        "Ranking.Player_id = 5",
    ]
    reference = None
    for perm in itertools.permutations(conds):
        q = parse_sql(
            "SELECT Ranking.Year FROM Ranking WHERE " + " AND ".join(perm), tennis
        )
        cs = component_set(q)
        if reference is None:
            reference = cs
        assert cs == reference


def test_component_value_insensitive_by_default(tennis):
    a = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016", tennis)
    b = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 1999", tennis)
    assert component_set(a) == component_set(b)
    assert component_set(a, value_sensitive=True) != component_set(b, value_sensitive=True)


def test_component_differing_limit(tennis):
    a = parse_sql("SELECT Ranking.Year FROM Ranking ORDER BY Ranking.Year ASC LIMIT 1", tennis)
    b = parse_sql("SELECT Ranking.Year FROM Ranking ORDER BY Ranking.Year ASC LIMIT 5", tennis)
    assert component_set(a) != component_set(b)


def test_component_select_order_insensitive(tennis):
    a = parse_sql("SELECT Players.First_name, Players.Country FROM Players", tennis)
    b = parse_sql("SELECT Players.Country, Players.First_name FROM Players", tennis)
    assert component_set(a) == component_set(b)


def test_component_join_operand_swap(tennis):
    a = parse_sql(
        "SELECT Players.First_name FROM Players JOIN Matches "
        "ON Matches.Winner_id = Players.Player_id",
        tennis,
    )
    b = parse_sql(
        "SELECT Players.First_name FROM Matches JOIN Players "
        "ON Players.Player_id = Matches.Winner_id",
        tennis,
    )
    assert component_set(a) == component_set(b)


def test_component_alias_renaming(tennis):
    a = parse_sql(
        "SELECT T1.First_name FROM Players AS T1 JOIN Matches AS T2 "
        "ON T2.Winner_id = T1.Player_id",
        tennis,
    )
    b = parse_sql(
        "SELECT Z.First_name FROM Players AS Z JOIN Matches AS W "
        "ON W.Winner_id = Z.Player_id",
        tennis,
    )
    assert component_set(a) == component_set(b)


def test_component_aggregate_difference(tennis):
    a = parse_sql("SELECT SUM(Ranking.Ranking) FROM Ranking", tennis)
    b = parse_sql("SELECT AVG(Ranking.Ranking) FROM Ranking", tennis)
    assert component_set(a) != component_set(b)


def test_component_and_or_multiset_differs(tennis):
    a = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016 AND Ranking.Ranking = 1",
        tennis,
    )
    b = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016 OR Ranking.Ranking = 1",
        tennis,
    )
    assert component_set(a) != component_set(b)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_component_invariant_under_conjunct_shuffle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    doc, _ = random_schema_doc(rng, "db")
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    query = random_query(rng, schema, graph)
    if query.where is None or len(query.where.conditions) < 2:
        return
    order = list(range(len(query.where.conditions)))
    rng.shuffle(order)
    if all(c == "AND" for c in query.where.connectors):
        import dataclasses

        shuffled = dataclasses.replace(
            query,
            where=ConditionList(
                tuple(query.where.conditions[i] for i in order),
                query.where.connectors,
            ),
        )
        assert component_set(query, schema=schema) == component_set(shuffled, schema=schema)
