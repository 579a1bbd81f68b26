import dataclasses
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsql.complete import _scope_tables
from structsql.schema import STAR, ColumnRef, load_schema
from structsql.sql_ast import (
    SET_OPS,
    Agg,
    AmbiguousColumn,
    ColumnExpr,
    Condition,
    ConditionList,
    SchemaResolutionError,
    SqlQuery,
    SqlSyntaxError,
    UnknownTable,
    UnresolvableColumn,
    _iter_refs,
    _lex,
    component_set,
    map_query,
    parse_sql,
    render_sql,
)
from structsql.synth import random_query, random_schema_doc

from util_checks import reference_lex, reference_map_query, reference_map_refs, reference_resolve


def make_corpus(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        doc, content = random_schema_doc(rng, f"db{len(out)}", with_values=True)
        schema = load_schema(doc, content=content or None)
        for _ in range(min(n - len(out), 5)):
            out.append((schema, random_query(rng, schema)))
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


@pytest.mark.parametrize("count", ["1e3", "1E3", "1.5", "2.0e1"])
def test_non_integer_limit_rejected_at_its_token(count):
    text = f"SELECT Players.First_name FROM Players LIMIT {count}"
    with pytest.raises(SqlSyntaxError, match="LIMIT takes an integer") as err:
        parse_sql(text)
    assert err.value.position == text.index(count)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("SELECT a FROM t GROUP x", "expected BY, found 'x'", 22),
        ("SELECT a FROM t ORDER", "expected BY, found 'end'", 21),
        ("SELECT a FROM t WHERE a IN 1", "expected '(', found '1'", 27),
        ("SELECT COUNT(a", "expected ')', found 'end'", 14),
    ],
)
def test_expect_message_names_the_wanted_and_found_token(text, message, position):
    with pytest.raises(SqlSyntaxError) as err:
        parse_sql(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("SELECT a FROM select", "reserved word 'select' cannot name a table", 14),
        ("SELECT a FROM t AS (", "expected alias name", 19),
        ("SELECT a FROM t JOIN u ON t.a < u.b", "join conditions must use '='", 30),
        ("SELECT t.( FROM t", "expected column name after '.'", 9),
        ("SELECT a FROM t WHERE a NOT = 1", "NOT cannot precede a comparison operator", 28),
        # Like NOT =, NOT BETWEEN is reported at the word NOT negates.
        ("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2", "NOT BETWEEN is not supported", 28),
        ("SELECT a FROM t WHERE a 1", "expected a condition operator", 24),
        ("SELECT a FROM t WHERE a = ,", "expected a value", 26),
    ],
)
def test_parser_error_message_and_position(text, message, position):
    with pytest.raises(SqlSyntaxError) as err:
        parse_sql(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


# Pieces that meet at every lexer boundary: both quote kinds and the doubled
# quote, '<>' and the other operators, exponents, Unicode whitespace, and
# non-ASCII letters and digits.
_SQL_PIECES = [
    "'", '"', "''", "'it''s'", '"q"', "<>", "<", ">", "=", "!", "!=", "<=", ">=",
    "-", "+", "1", "07", "2.5", "1.", ".5", "1e3", "1E+3", "2.0e-1", "5e", "e",
    "E", ".", "x", "_a",
    "select", "FROM", "é", "名", "٣", "²", " ", "\t", "\n", "\u00a0",
    "\u2028", "\x1c", "(", ")", ",", "*", ";", "#", "\\", "`",
]


def _lexed(lex, text):
    try:
        return [(t.kind, t.text, t.pos) for t in lex(text)]
    except SqlSyntaxError as exc:
        return (str(exc), exc.position)


# Any code point, half of them from the first 12k (Latin to Devanagari digits
# and the Unicode spaces).  ``st.text()`` would first build Hypothesis's
# Unicode table, about 2.5 s in a fresh checkout.
_ANY_CHAR = st.one_of(st.integers(0, 0x2FFF), st.integers(0, sys.maxunicode)).map(chr)


@given(
    st.one_of(
        st.lists(st.sampled_from(_SQL_PIECES), max_size=30),
        st.lists(st.one_of(st.sampled_from(_SQL_PIECES), _ANY_CHAR), max_size=40),
    ).map("".join)
)
@example("SELECT 'abc''")  # unterminated: reported at the opening quote
@example('""""')
@example("a<>1.e3 AND b<=.5E-3;")
@example("'it''s'\t\n名٣ ² ſ")
@settings(max_examples=200, deadline=None)
def test_lexer_matches_reference(text):
    assert _lexed(_lex, text) == _lexed(reference_lex, text)


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


# -- every walk against the reference walkers ----------------------------------


def _nested_query(rng, schema, depth):
    """A synth query with more to walk: an ``id IN (subquery)`` and a
    column-to-column condition in WHERE or HAVING, and a set-operation branch,
    nested up to ``depth`` levels.  Every qualified reference names a table of
    its own level's FROM."""
    q = random_query(rng, schema)
    own = ColumnExpr(ColumnRef(q.from_tables[0], "id"))
    extra = []
    if depth and rng.random() < 0.6:
        sub = _nested_query(rng, schema, depth - 1)
        extra.append(Condition(own, rng.choice(("IN", "NOT IN")), (sub,)))
    if rng.random() < 0.3:
        extra.append(Condition(own, "=", (ColumnRef(q.from_tables[-1], "id"),)))
    if extra:
        clause = rng.choice(("where", "having"))
        old = getattr(q, clause) or ConditionList(())
        conditions = old.conditions + tuple(extra)
        connectors = old.connectors + ("AND",) * (len(conditions) - 1 - len(old.connectors))
        q = dataclasses.replace(q, **{clause: ConditionList(conditions, connectors)})
    if depth and q.set_op is None and rng.random() < 0.3:
        q = dataclasses.replace(
            q, set_op=(rng.choice(SET_OPS), _nested_query(rng, schema, depth - 1))
        )
    return q


def _bad_ref(ref, rng, schema):
    table, column = ref.table, ref.column
    return rng.choice(
        (
            ColumnRef(None, column),  # unique, ambiguous or in no FROM table
            ColumnRef(table and table.upper(), column.swapcase()),
            ColumnRef("Nowhere", column),
            ColumnRef(table, "nothing"),
            ColumnRef(rng.choice(schema.table_names()), column),  # maybe outside FROM
            ColumnRef(table and table.swapcase(), STAR),
        )
    )


def _bad_from(tables, rng):
    tables = list(tables)
    i = rng.randrange(len(tables))
    kind = rng.randrange(4)
    if kind == 0:
        tables[i] = tables[i].lower()
    elif kind == 1:
        tables[i] = "Nowhere"
    elif kind == 2:
        del tables[i]  # its join and unqualified references fall outside FROM
    else:
        tables.append(tables[i])  # its unqualified columns become ambiguous
    return tuple(tables)


def _mutated(node, rng, schema):
    """Copy of the tree, built field by field, with some references and FROM
    lists broken, independently on every level."""
    if isinstance(node, ColumnRef):
        return _bad_ref(node, rng, schema) if rng.random() < 0.1 else node
    if isinstance(node, tuple):
        return tuple(_mutated(item, rng, schema) for item in node)
    if not dataclasses.is_dataclass(node):
        return node
    fields = {f.name: _mutated(getattr(node, f.name), rng, schema) for f in dataclasses.fields(node)}
    if isinstance(node, SqlQuery) and node.from_tables and rng.random() < 0.15:
        fields["from_tables"] = _bad_from(node.from_tables, rng)
    return type(node)(**fields)


def _aliased(text, rng):
    """The query text with every FROM and JOIN table given an alias, which
    every qualified reference uses instead of the table name."""
    text = re.sub(r"\b([A-Za-z_]\w*)\.", r"A_\1.", text)
    return re.sub(
        r"\b(FROM|JOIN) (\w+)",
        lambda m: f"{m[1]} {m[2]} {rng.choice(('AS ', ''))}a_{m[2].lower()}",
        text,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SqlSyntaxError, SchemaResolutionError) as exc:
        return type(exc), str(exc)


def _reference_parse(text, schema):
    return reference_resolve(parse_sql(text), schema)


@given(seed=st.integers(0, 2**32 - 1), aliased=st.booleans())
@example(seed=9, aliased=True)  # three levels: a subquery and a set operation
@settings(max_examples=150, deadline=None)
def test_walks_match_reference_walkers(seed, aliased):
    rng = random.Random(seed)
    doc, content = random_schema_doc(rng, "db", with_values=True)
    schema = load_schema(doc, content=content or None)
    clean = _nested_query(rng, schema, depth=2)
    q = _mutated(clean, rng, schema)
    text = render_sql(q)
    assert _outcome(parse_sql, text, schema) == _outcome(_reference_parse, text, schema)

    levels, reference_levels = [], []
    assert map_query(q, lambda level: levels.append(level) or level) == q
    reference_map_query(q, lambda level: reference_levels.append(level) or level)
    assert levels == reference_levels
    for level in levels:
        refs = []
        reference_map_refs(level, lambda ref: refs.append(ref) or ref)
        assert _iter_refs(level) == refs

    if aliased:
        text = render_sql(clean)
        alias_text = _aliased(text, rng)
        assert parse_sql(alias_text) == parse_sql(text), alias_text
        assert parse_sql(alias_text, schema) == parse_sql(text, schema) == clean


@given(seed=st.integers(0, 2**32 - 1), aliased=st.booleans(), mutated=st.booleans(), text=st.none())
# (a) The outer ORDER BY and the WHERE subquery both fail: the outer level's
# error comes first in pre-order, though the subquery is built first.
@example(
    seed=0, aliased=False, mutated=False,
    text="SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
    "(SELECT Ranking.Player_id FROM Rankings) ORDER BY Players.Nothing ASC",
)
# (b) A resolution error, then a syntax error later in the text: the syntax
# error wins, inside a later level or as trailing input.
@example(
    seed=0, aliased=False, mutated=False,
    text="SELECT Nope FROM Players WHERE Players.Player_id IN (SELECT Ranking.Player_id FROM)",
)
@example(seed=0, aliased=False, mutated=False, text="SELECT Nope FROM Players LIMIT 3 extra")
# (c) A bad column in a set-operation branch, alone and after a failing
# WHERE subquery of the level before it.
@example(
    seed=0, aliased=False, mutated=False,
    text="SELECT Players.First_name FROM Players UNION SELECT Ranking.Nope FROM Ranking",
)
@example(
    seed=0, aliased=False, mutated=False,
    text="SELECT Players.Country FROM Players WHERE Players.Player_id IN (SELECT Id FROM Matches "
    "JOIN Ranking ON Ranking.Player_id = Players.Player_id) EXCEPT SELECT Year FROM Matches",
)
@settings(max_examples=200, deadline=None)
def test_parse_with_schema_matches_reference_resolve(tennis, seed, aliased, mutated, text):
    """``parse_sql(text, schema)`` builds each level once, resolving as it
    goes; it returns what the reference parse-then-resolve returns, or raises
    the same error class and message.  A drawn case renders a nested synth
    query on a synth schema, broken by ``_mutated`` if ``mutated``, with
    aliases if ``aliased``; a pinned ``text`` is on the tennis schema."""
    schema = tennis
    if text is None:
        rng = random.Random(seed)
        doc, content = random_schema_doc(rng, "db", with_values=True)
        schema = load_schema(doc, content=content or None)
        q = _nested_query(rng, schema, depth=2)
        text = render_sql(_mutated(q, rng, schema) if mutated else q)
        if aliased:
            text = _aliased(text, rng)
    assert _outcome(parse_sql, text, schema) == _outcome(_reference_parse, text, schema), text


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


def test_render_keeps_a_join_condition_on_the_first_table(tennis):
    # Both references name the first FROM table: the condition is written at
    # the first JOIN, not dropped.
    q = parse_sql(
        "SELECT Players.First_name FROM Players JOIN Matches "
        "ON Players.Player_id = Players.Player_id",
        tennis,
    )
    assert q.join_conditions
    assert parse_sql(render_sql(q), tennis) == q


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


@pytest.mark.parametrize(
    "text",
    [
        "SELECT Players.First_name FROM Players WHERE Players.First_name LIKE '%an%'",
        "SELECT Players.First_name FROM Players WHERE Players.Country NOT LIKE 'U%'",
        "SELECT Ranking.Player_id FROM Ranking "
        "WHERE Ranking.Ranking = (SELECT MIN(Ranking.Ranking) FROM Ranking)",
        "SELECT Players.First_name FROM Players WHERE Players.Country IN ('USA', 'Spain')",
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year NOT IN (2015, 2016)",
        "SELECT Players.First_name FROM Players JOIN Matches "
        "ON Matches.Winner_id = Players.Player_id AND Matches.Id = Players.Player_id",
        "SELECT Players.Country, Players.First_name, COUNT(*) FROM Players "
        "GROUP BY Players.Country, Players.First_name",
        "SELECT Players.First_name FROM Players "
        "ORDER BY Players.Country DESC, Players.First_name ASC",
        "SELECT T1.* FROM Players AS T1 JOIN Matches AS T2 ON T2.Winner_id = T1.Player_id",
        "SELECT Matches.Id FROM Matches WHERE Matches.Winner_id = Matches.Id",
    ],
    ids=["like", "not-like", "scalar-subquery", "in-list", "not-in-list", "two-on-conjuncts",
         "group-by-two", "order-by-two", "table-star", "column-value"],
)
def test_grammar_path_round_trips(tennis, text):
    q = parse_sql(text, tennis)
    assert parse_sql(render_sql(q), tennis) == q


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


def test_component_column_valued_condition(tennis):
    def cs(where):
        return component_set(parse_sql("SELECT Matches.Id FROM Matches WHERE " + where, tennis))

    same = cs("Matches.Winner_id = Matches.Id AND Matches.Score = 'x'")
    assert cs("Matches.Score = 'x' AND Matches.Winner_id = Matches.Id") == same
    # a column operand is compared by name, even value-insensitively
    assert cs("Matches.Winner_id = Matches.Score AND Matches.Score = 'x'") != same


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
    query = random_query(rng, schema)
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
