import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.schema import (
    ColumnType,
    DanglingReference,
    DuplicateName,
    MalformedDocument,
    build_schema_graph,
    load_schema,
    load_schemas,
    to_spider_doc,
)
from structsql.synth import random_schema_doc

from util_checks import transitive_closure_connected


def test_fixture_tables_load(tables_path):
    schemas = load_schemas(tables_path)
    assert set(schemas) == {"tennis", "concert_singer", "warehouse"}


def test_tennis_shape(tennis):
    assert tennis.table_names() == ["Players", "Matches", "Ranking"]
    fks = [(str(a), str(b)) for a, b in tennis.foreign_keys]
    assert fks == [
        ("Matches.Winner_id", "Players.Player_id"),
        ("Ranking.Player_id", "Matches.Winner_id"),
    ]
    assert tennis.table("matches").primary_key == "Winner_id"
    assert tennis.column_type(tennis.foreign_keys[0][0]) is ColumnType.INTEGER


def test_concert_counts_match_raw_file(tables_path):
    # Independent count over the raw document, no loader involved.
    with open(tables_path, encoding="utf-8") as f:
        doc = next(d for d in json.load(f) if d["db_id"] == "concert_singer")
    raw_tables = len(doc["table_names_original"])
    raw_columns = sum(1 for t, _ in doc["column_names_original"] if t >= 0)
    per_table = {}
    for t, _ in doc["column_names_original"]:
        if t >= 0:
            per_table[t] = per_table.get(t, 0) + 1

    schema = load_schema(doc)
    assert len(schema.tables) == raw_tables == 4
    assert sum(len(t.columns) for t in schema.tables) == raw_columns == 21
    for idx, table in enumerate(schema.tables):
        assert len(table.columns) == per_table[idx]


def test_zero_tables_rejected():
    doc = {
        "db_id": "empty",
        "table_names_original": [],
        "column_names_original": [[-1, "*"]],
        "column_types": ["text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    with pytest.raises(MalformedDocument):
        load_schema(doc)


@pytest.mark.parametrize("missing", ["db_id", "column_types", "foreign_keys"])
def test_missing_field_rejected(tennis_doc, missing):
    doc = {k: v for k, v in tennis_doc.items() if k != missing}
    with pytest.raises(MalformedDocument):
        load_schema(doc)


def test_dangling_foreign_key(tennis_doc):
    doc = dict(tennis_doc)
    doc["foreign_keys"] = [[6, 99]]
    with pytest.raises(DanglingReference):
        load_schema(doc)


def test_dangling_primary_key(tennis_doc):
    doc = dict(tennis_doc)
    doc["primary_keys"] = [42]
    with pytest.raises(DanglingReference):
        load_schema(doc)


def test_duplicate_table_name(tennis_doc):
    doc = dict(tennis_doc)
    doc["table_names_original"] = ["Players", "players", "Ranking"]
    with pytest.raises(DuplicateName):
        load_schema(doc)


def test_duplicate_column_name(tennis_doc):
    doc = dict(tennis_doc)
    cols = [list(c) for c in doc["column_names_original"]]
    cols[2] = [0, "PLAYER_ID"]  # clashes with Player_id case-insensitively
    doc["column_names_original"] = cols
    with pytest.raises(DuplicateName):
        load_schema(doc)


def test_unknown_type_maps_to_other_with_original_label(tables_path):
    schema = load_schemas(tables_path)["warehouse"]
    col = schema.table("shipments").column("route_code")
    assert col.col_type is ColumnType.OTHER
    assert col.raw_type == "geometry"


def test_composite_primary_key_first_wins(tables_path):
    schema = load_schemas(tables_path)["warehouse"]
    table = schema.table("shipments")
    assert table.primary_key == "shipment_id"
    assert table.extra_primary_keys == ("route_code",)
    assert table.column("shipment_id").is_primary
    assert not table.column("route_code").is_primary


def test_star_pseudo_column_recorded(tennis):
    assert tennis.star_label == "text"
    assert "*" in tennis.surface_forms()
    assert "*" not in build_schema_graph(tennis).tables


def test_content_sidecar_attached(tennis, tennis_plain):
    assert tennis.table("Ranking").column("Year").sample_values == ("2013", "2016")
    assert tennis_plain.table("Ranking").column("Year").sample_values is None
    assert tennis.has_content() and not tennis_plain.has_content()


def test_round_trip_all_fixtures(tables_path):
    with open(tables_path, encoding="utf-8") as f:
        docs = json.load(f)
    for doc in docs:
        assert to_spider_doc(load_schema(doc)) == doc


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_generated_docs(seed):
    doc, _ = random_schema_doc(random.Random(seed), "db")
    assert to_spider_doc(load_schema(doc)) == doc


def test_graph_fig_topology(tennis_graph):
    assert set(tennis_graph.links) == {("Players", "Matches"), ("Matches", "Ranking")}
    assert tennis_graph.shortest_path("Players", "Ranking") == [
        "Players",
        "Matches",
        "Ranking",
    ]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_graph_edges_match_brute_force(seed):
    doc, _ = random_schema_doc(random.Random(seed), "db", min_tables=3, max_tables=8)
    schema = load_schema(doc)
    graph = build_schema_graph(schema)

    # Independent re-derivation of table links from the raw FK list.
    names = doc["table_names_original"]
    col_table = {i: t for i, (t, _) in enumerate(doc["column_names_original"])}
    expected = set()
    for a, b in doc["foreign_keys"]:
        ta, tb = col_table[a], col_table[b]
        if ta != tb:
            pair = tuple(sorted((ta, tb)))
            expected.add((names[pair[0]], names[pair[1]]))
    got = [(graph.table_index(a), graph.table_index(b)) for a, b in graph.links]
    assert got == sorted(set(got))  # each pair once, in declaration order
    assert {(names[i], names[j]) for i, j in got} == expected


@given(seed=st.integers(min_value=0, max_value=10_000), pair=st.integers(min_value=0, max_value=399))
@settings(max_examples=40, deadline=None)
def test_connectivity_matches_transitive_closure(seed, pair):
    doc, _ = random_schema_doc(random.Random(seed), "db", min_tables=2, max_tables=20)
    schema = load_schema(doc)
    graph = build_schema_graph(schema)
    n = len(graph.tables)
    col_table = {i: t for i, (t, _) in enumerate(doc["column_names_original"])}
    edges = [
        (col_table[a], col_table[b])
        for a, b in doc["foreign_keys"]
        if col_table[a] != col_table[b]
    ]
    a, b = pair % n, (pair // n) % n
    assert graph.connected(graph.tables[a], graph.tables[b]) == transitive_closure_connected(
        n, edges, a, b
    )


def test_graph_deterministic(tennis):
    g1 = build_schema_graph(tennis)
    g2 = build_schema_graph(tennis)
    assert g1.links == g2.links
    assert g1.tables == g2.tables
