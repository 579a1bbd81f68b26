import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.complete import (
    Disconnected,
    _connect_exact,
    _connect_greedy,
    complete_sql,
    connect_terminals,
)
from structsql.schema import ColumnRef, build_schema_graph, load_schema
from structsql.sql_ast import (
    ColumnExpr,
    Condition,
    ConditionList,
    SqlQuery,
    component_set,
    parse_sql,
    render_sql,
)
from structsql.synth import random_query, random_schema_doc

from util_checks import brute_force_connector


def chain_schema(names, extra_fk=()):
    """Tables linked in a chain, optionally with extra FK edges (i, j)."""
    columns = [[-1, "*"]]
    types = ["text"]
    pks = []
    fks = []
    index = {}
    for t, name in enumerate(names):
        index[(t, "id")] = len(columns)
        pks.append(len(columns))
        columns.append([t, "id"])
        types.append("integer")
        if t > 0:
            index[(t, "prev_id")] = len(columns)
            columns.append([t, "prev_id"])
            types.append("integer")
            fks.append([index[(t, "prev_id")], index[(t - 1, "id")]])
    for i, j in extra_fk:
        col = f"link{j}_id"
        index[(i, col)] = len(columns)
        columns.append([i, col])
        types.append("integer")
        fks.append([index[(i, col)], index[(j, "id")]])
    return load_schema(
        {
            "db_id": "chain",
            "table_names_original": list(names),
            "column_names_original": columns,
            "column_types": types,
            "primary_keys": pks,
            "foreign_keys": fks,
        }
    )


def graph_edges(graph):
    return [(graph.table_index(a), graph.table_index(b)) for a, b in graph.links]


# -- connect_terminals ---------------------------------------------------------


def test_fig_connector(tennis_graph):
    assert connect_terminals(tennis_graph, ["Players", "Ranking"]) == [
        "Players",
        "Matches",
        "Ranking",
    ]


def test_singleton(tennis_graph):
    assert connect_terminals(tennis_graph, ["Matches"]) == ["Matches"]


def test_duplicate_terminals(tennis_graph):
    assert connect_terminals(tennis_graph, ["Matches", "matches"]) == ["Matches"]


def test_disconnected_raises():
    schema = chain_schema(["a", "b"])
    # strip the FK: two isolated tables
    doc = {
        "db_id": "iso",
        "table_names_original": ["a", "b"],
        "column_names_original": [[-1, "*"], [0, "id"], [1, "id"]],
        "column_types": ["text", "integer", "integer"],
        "primary_keys": [1, 2],
        "foreign_keys": [],
    }
    graph = build_schema_graph(load_schema(doc))
    with pytest.raises(Disconnected):
        connect_terminals(graph, ["a", "b"])


def test_empty_terminals_rejected(tennis_graph):
    with pytest.raises(ValueError):
        connect_terminals(tennis_graph, [])


@pytest.mark.parametrize("connect", [_connect_exact, _connect_greedy], ids=["exact", "greedy"])
def test_methods_sound_on_random_graphs(connect):
    rng = random.Random(11)
    for _ in range(30):
        doc, _ = random_schema_doc(rng, "db", min_tables=3, max_tables=8)
        schema = load_schema(doc)
        graph = build_schema_graph(schema)
        size = rng.randint(1, min(4, len(graph.tables)))
        terminals = sorted(rng.sample(range(len(graph.tables)), size))
        nodes = set(connect(graph, terminals))
        assert set(terminals) <= nodes
        # induced subgraph connectivity via brute force
        got = brute_force_connector(
            len(graph.tables),
            [e for e in graph_edges(graph) if e[0] in nodes and e[1] in nodes],
            nodes,
        )
        assert got == nodes, f"connector not connected: {sorted(nodes)}"


def test_exact_matches_brute_force_cardinality():
    rng = random.Random(23)
    for _ in range(25):
        doc, _ = random_schema_doc(rng, "db", min_tables=4, max_tables=8)
        graph = build_schema_graph(load_schema(doc))
        n = len(graph.tables)
        edges = graph_edges(graph)
        for size in (1, 2, 3):
            for terminals in combinations(range(n), size):
                expected = brute_force_connector(n, edges, set(terminals))
                got = _connect_exact(graph, list(terminals))
                assert expected is not None
                assert len(got) == len(expected)


def test_deterministic_under_terminal_permutation(tennis_graph):
    a = connect_terminals(tennis_graph, ["Players", "Ranking"])
    b = connect_terminals(tennis_graph, ["Ranking", "Players"])
    assert a == b


def test_greedy_counterexample_graph_exact_mode_optimal():
    # Cycle of three terminals with a hub: greedy pairwise merging can pick 5
    # tables, the exact connector needs only 4.
    doc = {
        "db_id": "hub",
        "table_names_original": ["k1", "k2", "k3", "a", "b", "c", "hub"],
        "column_names_original": [
            [-1, "*"],
            [0, "id"], [1, "id"], [2, "id"],
            [3, "id"], [3, "k1_id"], [3, "k2_id"],
            [4, "id"], [4, "k2_id"], [4, "k3_id"],
            [5, "id"], [5, "k3_id"], [5, "k1_id"],
            [6, "id"], [6, "k1_id"], [6, "k2_id"], [6, "k3_id"],
        ],
        "column_types": ["text"] + ["integer"] * 16,
        "primary_keys": [1, 2, 3, 4, 7, 10, 13],
        "foreign_keys": [
            [5, 1], [6, 2],
            [8, 2], [9, 3],
            [11, 3], [12, 1],
            [14, 1], [15, 2], [16, 3],
        ],
    }
    graph = build_schema_graph(load_schema(doc))
    connector = connect_terminals(graph, ["k1", "k2", "k3"])  # auto -> exact
    assert connector == ["k1", "k2", "k3", "hub"]


# -- complete_sql ----------------------------------------------------------------


def test_fig_completion(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players JOIN Ranking WHERE Ranking.Ranking = 1",
        tennis,
    )
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert plan.added_tables == ("Matches",)
    assert ("Matches.Winner_id", "Players.Player_id") in {
        (str(a), str(b)) for a, b in plan.join_conditions
    }
    rendered = render_sql(fixed)
    assert "JOIN Matches ON" in rendered
    assert set(fixed.from_tables) >= {"Players", "Matches", "Ranking"}


def test_already_connected_unchanged(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players JOIN Matches "
        "ON Matches.Winner_id = Players.Player_id",
        tennis,
    )
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert fixed == q
    assert not plan.changed


def test_single_table_unchanged(tennis, tennis_graph):
    q = parse_sql("SELECT Players.First_name FROM Players", tennis)
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert fixed == q and not plan.changed


def test_missing_on_conditions_added_without_new_tables(tennis, tennis_graph):
    q = parse_sql("SELECT Players.First_name FROM Players, Matches", tennis)
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert plan.added_tables == ()
    assert plan.join_conditions
    assert "ON Matches.Winner_id = Players.Player_id" in render_sql(fixed)


def test_on_joining_two_of_three_from_tables_gets_the_third_condition():
    schema = chain_schema(["a", "b", "c"])
    graph = build_schema_graph(schema)
    q = parse_sql("SELECT a.id FROM a JOIN b JOIN c ON b.prev_id = a.id", schema)
    fixed, plan = complete_sql(q, schema, graph)
    assert plan.added_tables == ()
    assert fixed.from_tables == ("a", "b", "c")
    conds = {(str(x), str(y)) for x, y in fixed.join_conditions}
    assert conds == {("b.prev_id", "a.id"), ("c.prev_id", "b.id")}


def test_chain_completion_two_conditions():
    schema = chain_schema(["a", "b", "c"])
    graph = build_schema_graph(schema)
    q = parse_sql("SELECT a.id FROM a WHERE c.id = 1", schema)
    fixed, plan = complete_sql(q, schema, graph)
    assert fixed.from_tables == ("a", "b", "c")
    conds = {(str(x), str(y)) for x, y in fixed.join_conditions}
    assert conds == {("b.prev_id", "a.id"), ("c.prev_id", "b.id")}
    assert plan.added_tables == ("b", "c")


def test_idempotence_random():
    rng = random.Random(31)
    for _ in range(25):
        doc, _ = random_schema_doc(rng, "db", min_tables=2, max_tables=6)
        schema = load_schema(doc)
        graph = build_schema_graph(schema)
        q = random_query(rng, schema, graph)
        once, _ = complete_sql(q, schema, graph)
        twice, plan2 = complete_sql(once, schema, graph)
        assert once == twice
        assert not plan2.changed


def test_soundness_output_connected_and_fk_backed():
    rng = random.Random(5)
    for _ in range(25):
        doc, _ = random_schema_doc(rng, "db", min_tables=3, max_tables=7)
        schema = load_schema(doc)
        graph = build_schema_graph(schema)
        q = random_query(rng, schema, graph)
        fixed, plan = complete_sql(q, schema, graph)
        fk_pairs = {
            (str(a), str(b)) for a, b in schema.foreign_keys
        } | {(str(b), str(a)) for a, b in schema.foreign_keys}
        for a, b in plan.join_conditions:
            assert (str(a), str(b)) in fk_pairs
        # reachability over the rewritten FROM via its join conditions
        tables = [t.lower() for t in fixed.from_tables]
        adj = {t: set() for t in tables}
        for a, b in fixed.join_conditions:
            adj[a.table.lower()].add(b.table.lower())
            adj[b.table.lower()].add(a.table.lower())
        seen = {tables[0]}
        frontier = [tables[0]]
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(tables)


def test_non_interference_of_other_clauses(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players WHERE Ranking.Ranking = 1 "
        "ORDER BY Players.First_name ASC LIMIT 3",
        tennis,
    )
    fixed, _ = complete_sql(q, tennis, tennis_graph)
    before = component_set(q, schema=tennis)
    after = component_set(fixed, schema=tennis)
    assert before.select == after.select
    assert before.where == after.where
    assert before.group_by == after.group_by
    assert before.order_by == after.order_by
    assert before.limit == after.limit


def test_set_op_branches_completed(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players "
        "UNION SELECT Players.First_name FROM Players WHERE Ranking.Year = 2016",
        tennis,
    )
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert "Matches" in fixed.set_op[1].from_tables
    assert "Matches" in plan.added_tables


def test_nested_subquery_level_completed(tennis, tennis_graph):
    q = parse_sql(
        "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
        "(SELECT Matches.Winner_id FROM Matches WHERE Ranking.Ranking = 1)",
        tennis,
    )
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert render_sql(fixed) == (
        "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
        "(SELECT Matches.Winner_id FROM Matches JOIN Ranking "
        "ON Ranking.Player_id = Matches.Winner_id WHERE Ranking.Ranking = 1)"
    )
    assert plan.added_tables == ("Ranking",)


def test_enclosing_level_reference_joined_into_inner_level(tennis, tennis_graph):
    # Correlated subqueries are out of scope: a reference to a table that only
    # the enclosing level's FROM lists counts as a missing table of the inner
    # level, which gets its own copy of that table.
    q = parse_sql(
        "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
        "(SELECT Matches.Winner_id FROM Matches WHERE Matches.Score = Players.Player_id)",
        tennis,
    )
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert render_sql(fixed) == (
        "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
        "(SELECT Matches.Winner_id FROM Matches JOIN Players "
        "ON Matches.Winner_id = Players.Player_id WHERE Matches.Score = Players.Player_id)"
    )
    assert plan.added_tables == ("Players",)


def _levels(q):
    """Every SELECT level in pre-order, walked here apart from the package."""
    out = [q]
    for cl in (q.where, q.having):
        for cond in cl.conditions if cl is not None else ():
            for v in cond.values:
                if isinstance(v, SqlQuery):
                    out += _levels(v)
    if q.set_op is not None:
        out += _levels(q.set_op[1])
    return out


def _mentions(level):
    """Lowercased tables named by one level's FROM and its own column references."""
    refs = [e.ref for e in level.select] + [r for pair in level.join_conditions for r in pair]
    for cl in (level.where, level.having):
        for cond in cl.conditions if cl is not None else ():
            refs.append(cond.left.ref)
            refs += [v for v in cond.values if isinstance(v, ColumnRef)]
    refs += list(level.group_by) + [o.expr.ref for o in level.order_by]
    return {t.lower() for t in level.from_tables} | {r.table.lower() for r in refs if r.table}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_nested_levels_completed_minimal_and_fk_backed(seed, data):
    rng = random.Random(seed)
    doc, _ = random_schema_doc(rng, "db", min_tables=2, max_tables=7)
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    outer = random_query(rng, schema, graph)
    inner = random_query(rng, schema, graph)
    keep = data.draw(st.sets(st.sampled_from(inner.from_tables), min_size=1))
    inner = replace(
        inner,
        from_tables=tuple(t for t in inner.from_tables if t in keep),
        join_conditions=tuple(
            (a, b) for a, b in inner.join_conditions if a.table in keep and b.table in keep
        ),
    )
    host = schema.table(outer.from_tables[0])
    nest = Condition(ColumnExpr(ColumnRef(host.name, host.columns[0].name)), "IN", (inner,))
    where = outer.where or ConditionList(())
    q = replace(
        outer,
        where=ConditionList(
            where.conditions + (nest,), where.connectors + (("AND",) if where.conditions else ())
        ),
    )

    fixed, _ = complete_sql(q, schema, graph)
    fk_pairs = {frozenset({a.key(), b.key()}) for a, b in schema.foreign_keys}
    index = {t.lower(): i for i, t in enumerate(graph.tables)}
    before, after = _levels(q), _levels(fixed)
    assert len(before) == len(after)
    for depth, (p, c) in enumerate(zip(before, after)):
        from_set = {t.lower() for t in c.from_tables}
        assert _mentions(c) <= from_set, f"level {depth}"
        for a, b in c.join_conditions:
            assert frozenset({a.key(), b.key()}) in fk_pairs, f"level {depth}: {a} = {b}"
        minimum = brute_force_connector(
            len(graph.tables), graph_edges(graph), {index[t] for t in _mentions(p)}
        )
        assert len(from_set) == len(minimum), f"level {depth}"


def test_first_declared_fk_wins_between_table_pair():
    # two FK edges between the same pair of tables
    doc = {
        "db_id": "dual",
        "table_names_original": ["game", "player"],
        "column_names_original": [
            [-1, "*"],
            [0, "id"], [0, "winner_id"], [0, "loser_id"],
            [1, "id"],
        ],
        "column_types": ["text", "integer", "integer", "integer", "integer"],
        "primary_keys": [1, 4],
        "foreign_keys": [[2, 4], [3, 4]],
    }
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    q = parse_sql("SELECT game.id FROM game WHERE player.id = 2", schema)
    fixed, _ = complete_sql(q, schema, graph)
    conds = [(str(a), str(b)) for a, b in fixed.join_conditions]
    assert conds == [("game.winner_id", "player.id")]


def test_generated_corpus_is_completion_fixed_point():
    # Generated FROM clauses are already join-connected, so completion must
    # leave the whole corpus untouched.
    from structsql.synth import generate_synthetic_corpus

    corpus = generate_synthetic_corpus(17, 6, 40)
    schemas = {d["db_id"]: load_schema(d) for d in corpus.schema_docs}
    graphs = {db: build_schema_graph(s) for db, s in schemas.items()}
    for ex in corpus.examples:
        schema = schemas[ex["db_id"]]
        q = parse_sql(ex["query"], schema)
        fixed, plan = complete_sql(q, schema, graphs[ex["db_id"]])
        assert fixed == q
        assert not plan.changed


def test_completion_on_disconnected_mentions_raises():
    doc = {
        "db_id": "iso2",
        "table_names_original": ["a", "b"],
        "column_names_original": [[-1, "*"], [0, "id"], [1, "id"]],
        "column_types": ["text", "integer", "integer"],
        "primary_keys": [1, 2],
        "foreign_keys": [],
    }
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    q = parse_sql("SELECT a.id FROM a WHERE b.id = 1", schema)
    with pytest.raises(Disconnected):
        complete_sql(q, schema, graph)
