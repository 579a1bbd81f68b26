import calendar
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsql.schema import (
    _DATE_FORMATS,
    ColumnRef,
    ColumnType,
    DanglingReference,
    DatabaseSchema,
    DuplicateName,
    MalformedDocument,
    build_schema_graph,
    load_schema,
    load_schemas,
    _parse_date,
)
from structsql.synth import random_schema_doc

from util_checks import reference_parse_date, to_spider_doc, transitive_closure_connected


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


def test_schema_rejects_keys_that_name_no_column(tennis_plain):
    # load_schema builds keys from column indices; a schema built directly
    # is checked too.
    players = tennis_plain.table("Players")
    with pytest.raises(DanglingReference, match="primary key 'nope' not a column of 'Players'"):
        DatabaseSchema("db", (replace(players, primary_key="nope"),))
    fk = (ColumnRef("Players", "nope"), ColumnRef("Players", "Player_id"))
    with pytest.raises(DanglingReference, match="foreign key endpoint Players.nope unresolved"):
        DatabaseSchema("db", (players,), (fk,))


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
    assert tennis.value_index[ColumnType.INTEGER]["2016"] == [("Ranking", "Year", "2016")]
    assert tennis.value_index[ColumnType.TEXT]["usa"] == [("Players", "Country", "USA")]
    assert tennis_plain.value_index == {}


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


def test_interleaved_doc_comes_back_grouped_by_table():
    doc = {
        "db_id": "db",
        "table_names_original": ["A", "B"],
        "column_names_original": [[-1, "*"], [0, "a_id"], [1, "b_id"], [0, "a_name"], [1, "a_ref"]],
        "column_types": ["text", "number", "time", "text", "number"],
        "primary_keys": [2, 1],
        "foreign_keys": [[4, 1]],
    }
    grouped = to_spider_doc(load_schema(doc))
    assert grouped == {
        "db_id": "db",
        "table_names_original": ["A", "B"],
        "column_names_original": [[-1, "*"], [0, "a_id"], [0, "a_name"], [1, "b_id"], [1, "a_ref"]],
        "column_types": ["text", "number", "text", "time", "number"],
        "primary_keys": [1, 3],
        "foreign_keys": [[4, 1]],
    }
    assert load_schema(grouped) == load_schema(doc)
    assert to_spider_doc(load_schema(grouped)) == grouped


def test_graph_fig_topology(tennis_graph):
    assert set(tennis_graph.links) == {("Players", "Matches"), ("Matches", "Ranking")}
    players, ranking = (tennis_graph.table_index(t) for t in ("Players", "Ranking"))
    assert [tennis_graph.tables[i] for i in tennis_graph.path(1 << players, 1 << ranking)] == [
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
    assert (graph.path(1 << a, 1 << b) is not None) == transitive_closure_connected(
        n, edges, a, b
    )


def test_graph_deterministic(tennis, tennis_plain):
    g1 = build_schema_graph(tennis)
    g2 = build_schema_graph(tennis_plain)
    assert g1 is tennis.graph  # built once per schema
    assert g1 is not g2
    assert g1.links == g2.links
    assert g1.tables == g2.tables


# -- date normalization ---------------------------------------------------------

_MONTHS = [*calendar.month_abbr[1:], *calendar.month_name[1:], "Sept", "Mayo", "ſep"]


def _field(low, high, wide, width=1):
    """Mostly in range, sometimes past it; with and without zero padding."""
    value = st.one_of(st.integers(low, high), st.integers(low, high), st.integers(0, wide))
    return value.flatmap(lambda v: st.sampled_from([str(v), f"{v:0{width}d}"]))


_DATE_PIECES = {
    "Y": _field(1000, 2999, 99999, width=4),
    "m": _field(1, 12, 13, width=2),
    "d": _field(1, 28, 32, width=2) | st.integers(1, 9).map(" {}".format),
    "H": _field(0, 23, 25),
    "M": _field(0, 59, 61, width=2),
    "S": _field(0, 59, 62, width=2),
    "b": st.sampled_from(_MONTHS).flatmap(lambda n: st.sampled_from([n, n.upper(), n.lower()])),
}
_DATE_PIECES["B"] = _DATE_PIECES["b"]
_NOISE = st.sampled_from(["", "", " ", "  ", "\t", "\n ", ","])


@st.composite
def date_like(draw):
    """A string in one of the date formats, its fields drawn in and out of
    range, with whitespace and comma noise around and between them."""
    fmt = draw(st.sampled_from(_DATE_FORMATS))
    filled = re.sub(r"%(.)", lambda m: draw(_DATE_PIECES[m[1]]), fmt)
    filled = re.sub(r"[ ,]", lambda m: draw(st.sampled_from([m[0], m[0], " ,", " , ", "  "])),
                    filled)
    return draw(_NOISE) + filled + draw(_NOISE)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    date_like(),
    st.text(alphabet="0123456789 ,-/:JanFebMayjunSEPtember\t", max_size=24),
    st.text(max_size=16),
))
@example("Jan 5, 2016")
@example("jan 5 , 2016")
@example("5 January 2016")
@example("2016-01-05 10:20:60")
@example("2016-02-30")
@example("0000-01-01")
@example("٢٠١٦-٠١-٠٥")
@example("ſep 5 2016")
def test_parse_date_matches_strptime_formats(raw):
    assert _parse_date(raw) == reference_parse_date(raw)
