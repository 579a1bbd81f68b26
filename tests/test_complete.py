import random
import time
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.annotate import render_relations
from structsql.complete import (
    EXACT_TABLE_LIMIT,
    CompletionPlan,
    Disconnected,
    complete_sql,
    connect_terminals,
)
from structsql.metrics import score_corpus
from structsql.schema import ColumnRef, build_schema_graph, load_schema
from structsql.sql_ast import (
    MAX_QUERY_LEVELS,
    ColumnExpr,
    Condition,
    ConditionList,
    SqlQuery,
    SqlSyntaxError,
    component_set,
    parse_sql,
    render_sql,
)
from structsql.synth import random_query, random_schema_doc

from util_checks import brute_force_connector, brute_force_path, fifo_bfs_tree


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


# One search serves every schema size; these ids name the two size regimes it
# replaced: exact subset search up to EXACT_TABLE_LIMIT tables, greedy above.
SIZE_REGIMES = ["exact", "greedy"]


@pytest.mark.parametrize("n", [EXACT_TABLE_LIMIT - 2, EXACT_TABLE_LIMIT + 2], ids=SIZE_REGIMES)
def test_disconnected_names_lowest_terminal_and_first_unreached(n):
    # t0..t{n-2} form a chain and t{n-1} links to nothing.
    doc = {
        "db_id": "chain_and_island",
        "table_names_original": [f"t{t}" for t in range(n)],
        "column_names_original": [[-1, "*"]]
        + [[t, "id"] for t in range(n)]
        + [[t, "prev_id"] for t in range(1, n - 1)],
        "column_types": ["text"] + ["integer"] * (2 * n - 2),
        "primary_keys": list(range(1, n + 1)),
        # prev_id of table t is column n + t; id of table t is column 1 + t.
        "foreign_keys": [[n + t, t] for t in range(1, n - 1)],
    }
    graph = build_schema_graph(load_schema(doc))
    island = f"t{n - 1}"
    with pytest.raises(Disconnected, match=rf"^no join path between 't0' and '{island}'$"):
        connect_terminals(graph, [island, "t5", "t0"])


def test_empty_terminals_rejected(tennis_graph):
    with pytest.raises(ValueError):
        connect_terminals(tennis_graph, [])


@pytest.mark.parametrize(
    "min_tables,max_tables", [(3, 8), (EXACT_TABLE_LIMIT + 1, EXACT_TABLE_LIMIT + 4)], ids=SIZE_REGIMES
)
def test_methods_sound_on_random_graphs(min_tables, max_tables):
    rng = random.Random(11)
    for _ in range(30):
        doc, _ = random_schema_doc(rng, "db", min_tables=min_tables, max_tables=max_tables)
        graph = build_schema_graph(load_schema(doc))
        size = rng.randint(1, min(4, len(graph.tables)))
        terminals = sorted(rng.sample(range(len(graph.tables)), size))
        nodes = {graph.table_index(t) for t in connect_terminals(graph, [graph.tables[i] for i in terminals])}
        assert set(terminals) <= nodes
        # induced subgraph connectivity via brute force
        got = brute_force_connector(
            len(graph.tables),
            [e for e in graph_edges(graph) if e[0] in nodes and e[1] in nodes],
            nodes,
        )
        assert got == nodes, f"connector not connected: {sorted(nodes)}"


def test_exact_matches_brute_force_cardinality():
    # Every terminal set of up to three tables, where the property test samples.
    rng = random.Random(23)
    for _ in range(25):
        doc, _ = random_schema_doc(rng, "db", min_tables=4, max_tables=8)
        graph = build_schema_graph(load_schema(doc))
        n = len(graph.tables)
        edges = graph_edges(graph)
        for size in (1, 2, 3):
            for terminals in combinations(range(n), size):
                expected = brute_force_connector(n, edges, set(terminals))
                got = connect_terminals(graph, [graph.tables[i] for i in terminals])
                assert expected is not None
                assert len(got) == len(expected)


def test_deterministic_under_terminal_permutation(tennis_graph):
    a = connect_terminals(tennis_graph, ["Players", "Ranking"])
    b = connect_terminals(tennis_graph, ["Ranking", "Players"])
    assert a == b


def test_greedy_counterexample_graph_exact_mode_optimal():
    # Cycle of three terminals with a hub, and a chain of five tables hanging
    # off a to take the graph past 10 tables: greedy pairwise merging of the
    # closest components picks 5 tables, the minimal connector needs only 4.
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
    for k in range(5):  # c{k} is table 7 + k, its id column 17 + 2k
        doc["table_names_original"].append(f"c{k}")
        doc["column_names_original"] += [[7 + k, "id"], [7 + k, "prev_id"]]
        doc["column_types"] += ["integer", "integer"]
        doc["primary_keys"].append(17 + 2 * k)
        doc["foreign_keys"].append([18 + 2 * k, 15 + 2 * k if k else 4])
    graph = build_schema_graph(load_schema(doc))
    assert len(graph.tables) == 12
    assert connect_terminals(graph, ["k1", "k2", "k3"]) == ["k1", "k2", "k3", "hub"]


def rewired_doc(seed, drop, extra):
    """A ``random_schema_doc`` of 2-20 tables with the FKs at positions in
    ``drop`` removed and ``extra`` (i, j) pairs linking table i's id to table
    j's id appended, so graphs may be disconnected or have equal-length
    alternative paths."""
    doc, _ = random_schema_doc(random.Random(seed), "db", min_tables=2, max_tables=20)
    ids = [c for c, (_, name) in enumerate(doc["column_names_original"]) if name == "id"]
    n = len(ids)
    fks = [fk for k, fk in enumerate(doc["foreign_keys"]) if k not in drop]
    fks += [[ids[i % n], ids[j % n]] for i, j in extra if i % n != j % n]
    return {**doc, "foreign_keys": fks}


def doc_edges(doc):
    col_table = [t for t, _ in doc["column_names_original"]]
    return [(col_table[a], col_table[b]) for a, b in doc["foreign_keys"]
            if col_table[a] != col_table[b]]


rewired = st.builds(
    rewired_doc,
    st.integers(0, 2**32 - 1),
    st.sets(st.integers(0, 19), max_size=4),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=4),
)


@settings(max_examples=80, deadline=None)
@given(doc=rewired, src=st.integers(1, 2**20 - 1), dst=st.integers(1, 2**20 - 1))
def test_path_is_smallest_shortest_simple_path(doc, src, dst):
    graph = build_schema_graph(load_schema(doc))
    n = len(graph.tables)
    src, dst = src % (1 << n) or 1, dst % (1 << n) or 1 << (n - 1)
    members = [{i for i in range(n) if mask >> i & 1} for mask in (src, dst)]
    assert graph.path(src, dst) == brute_force_path(n, doc_edges(doc), *members)


@settings(max_examples=80, deadline=None)
@given(doc=rewired, data=st.data())
def test_connector_matches_brute_force(doc, data):
    graph = build_schema_graph(load_schema(doc))
    n = len(graph.tables)
    if data.draw(st.booleans(), label="terminals outnumber free tables"):
        terms = data.draw(st.permutations(range(n)))[: data.draw(st.integers(n // 2 + 1, n))]
    else:
        terms = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(6, n),
                                   unique=True))
    names = [graph.tables[i] for i in terms]
    expected = brute_force_connector(n, doc_edges(doc), set(terms))
    for order in (names, names[::-1]):
        if expected is None:
            with pytest.raises(Disconnected):
                connect_terminals(graph, order)
        else:
            assert connect_terminals(graph, order) == [graph.tables[i] for i in sorted(expected)]


def test_many_terminals_on_a_grid_are_fast():
    # 16 terminals on a 4x5 grid took 40 s when the search cost 3^t in the
    # terminals; with 4 free tables left it now tries at most 2^4 sets.
    # Table 5r + c links to its right and lower neighbours.
    links = [(i, i + 1) for i in range(20) if i % 5 != 4] + [(i, i + 5) for i in range(15)]
    graph = build_schema_graph(load_schema({
        "db_id": "grid", "table_names_original": [f"t{i}" for i in range(20)],
        "column_names_original": [[i, "id"] for i in range(20)]
        + [[i, f"to{j}"] for i, j in links],
        "column_types": ["integer"] * (20 + len(links)), "primary_keys": list(range(20)),
        "foreign_keys": [[20 + k, j] for k, (_, j) in enumerate(links)],
    }))
    assert len(graph.links) == 31
    for column in (1, 2, 3):  # every table but one column's: the rest are not joined
        terms = [i for i in range(20) if i % 5 != column]
        start = time.perf_counter()
        got = connect_terminals(graph, [graph.tables[i] for i in terms])
        assert time.perf_counter() - start < 2.0
        expected = brute_force_connector(20, graph_edges(graph), set(terms))
        assert got == [graph.tables[i] for i in sorted(expected)]


def test_connector_tie_break_on_folded_chain():
    # A chain folded into rows of 4, each table also linked to the one 4 on,
    # has many minimal connectors of equal size; random schemas seldom do.
    n = 16
    schema = chain_schema([f"t{i}" for i in range(n)], [(i + 4, i) for i in range(n - 4)])
    graph = build_schema_graph(schema)
    rng = random.Random(7)
    for _ in range(40):
        terms = rng.sample(range(n), rng.randint(2, 5))
        expected = brute_force_connector(n, graph_edges(graph), set(terms))
        got = connect_terminals(graph, [graph.tables[i] for i in terms])
        assert got == [graph.tables[i] for i in sorted(expected)]


@settings(max_examples=80, deadline=None)
@given(doc=rewired, data=st.data())
def test_join_order_and_conditions_match_fifo_bfs(doc, data):
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    n, edges = len(graph.tables), doc_edges(doc)
    terms = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True))
    if brute_force_connector(n, edges, set(terms)) is None:
        with pytest.raises(Disconnected):
            connect_terminals(graph, [graph.tables[i] for i in terms])
        return
    names = [graph.tables[i] for i in terms]
    where = " AND ".join(f"{t}.id = {k}" for k, t in enumerate(names[1:]))
    fixed, plan = complete_sql(
        parse_sql(f"SELECT {names[0]}.id FROM {names[0]} WHERE {where}", schema), schema, graph
    )
    connector = {graph.table_index(t) for t in connect_terminals(graph, names)}
    tree = fifo_bfs_tree(edges, connector, terms[0])
    assert fixed.from_tables == tuple(graph.tables[i] for i, _ in tree)
    first_fk = {}
    for a, b in schema.foreign_keys:
        first_fk.setdefault(frozenset({a.table, b.table}), (a, b))
    assert fixed.join_conditions == tuple(
        first_fk[frozenset({graph.tables[i], graph.tables[p]})] for i, p in tree[1:]
    )
    paths = [(a, b, brute_force_path(n, edges, {a}, {b})) for a, b in combinations(terms, 2)]
    assert len(plan.rationale) == len(plan.added_tables)
    for table, note in zip(plan.added_tables, plan.rationale):
        i = graph.table_index(table)
        pair = next(((a, b) for a, b, path in paths if i in path[1:-1]), None)
        why = "required to connect the join graph" if pair is None else (
            f"on the join path between {graph.tables[pair[0]]} and {graph.tables[pair[1]]}"
        )
        assert note == f"{table}: {why}"


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
        q = random_query(rng, schema)
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
        q = random_query(rng, schema)
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
    outer = random_query(rng, schema)
    inner = random_query(rng, schema)
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


def test_self_referencing_key_makes_no_link_and_completion_joins_through_others():
    schema = load_schema(
        {
            "db_id": "staff",
            "table_names_original": ["department", "employee", "project"],
            "column_names_original": [
                [-1, "*"], [0, "id"], [1, "id"], [1, "manager_id"], [1, "dept_id"],
                [2, "id"], [2, "lead_id"],
            ],
            "column_types": ["text", *["integer"] * 6],
            "primary_keys": [1, 2, 5],
            # employee.manager_id -> employee.id refers to its own table
            "foreign_keys": [[3, 2], [4, 1], [6, 2]],
        }
    )
    graph = schema.graph
    assert graph.links == (("department", "employee"), ("employee", "project"))
    assert graph.neighbors("employee") == ["department", "project"]
    assert graph.foreign_keys_between("employee", "employee") == ()
    assert " ".join(render_relations(schema)) == (
        "department links to employee employee links to project"
    )
    q = parse_sql("SELECT department.id FROM department WHERE project.id = 1", schema)
    fixed, plan = complete_sql(q, schema, graph)
    assert plan.added_tables == ("employee", "project")
    conds = {(str(a), str(b)) for a, b in fixed.join_conditions}
    assert conds == {("employee.dept_id", "department.id"), ("project.lead_id", "employee.id")}


def test_level_without_tables_comes_back_unchanged(tennis, tennis_graph):
    q = parse_sql("SELECT COUNT(*)", tennis)
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert fixed is q
    assert plan == CompletionPlan()


def _limit_query(join: str, n: int) -> str:
    # Every level names Players and Ranking and joins neither.
    level = "SELECT Players.Player_id FROM Players WHERE Ranking.Year = 2016"
    if join == "chained":
        return " UNION ".join([level] * n)
    outer = "SELECT Players.Player_id FROM Players WHERE Ranking.Player_id IN ("
    return outer * (n - 1) + level + ")" * (n - 1)


@pytest.mark.parametrize("join", ["nested", "chained"])
def test_query_at_the_level_limit_completes_renders_and_scores(tennis, tennis_graph, join):
    q = parse_sql(_limit_query(join, MAX_QUERY_LEVELS), tennis)
    fixed, plan = complete_sql(q, tennis, tennis_graph)
    assert plan.added_tables == ("Matches", "Ranking") * MAX_QUERY_LEVELS
    rendered = render_sql(fixed)
    assert render_sql(parse_sql(rendered, tennis)) == rendered
    # A gold text that differs from the prediction's is scored by component walks.
    report = score_corpus([rendered], [rendered.replace("SELECT", "select")],
                          db_ids=["tennis"], schemas={"tennis": tennis})
    assert (report.em, report.lx) == (1.0, 1.0)
    with pytest.raises(SqlSyntaxError, match=f"more than {MAX_QUERY_LEVELS} nested or chained"):
        parse_sql(_limit_query(join, MAX_QUERY_LEVELS + 1), tennis)
