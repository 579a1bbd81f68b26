import gc
import random
import re
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.annotate import (
    AMP,
    COLUMN_MARK,
    LINKS_TO,
    MATCH_MARKS,
    PRIMARY_KEY_MARK,
    MarkConfig,
    TABLE_MARK,
    UnknownLinkTarget,
    build_input,
    linearize_schema,
    render_relations,
)
from structsql.linking import LinkAnnotation, MatchKind, QuestionTokens, name_link, value_link
from structsql.schema import ColumnType, load_schema, load_schemas
from structsql.sql_ast import parse_sql, render_sql
from structsql.synth import generate_synthetic_corpus, random_schema_doc
from util_checks import reference_linearize_schema

# Every mark word the serialization emits.
MARK_VOCABULARY = frozenset(
    {TABLE_MARK, COLUMN_MARK, PRIMARY_KEY_MARK, AMP, LINKS_TO}
    | set(MATCH_MARKS.values())
    | {t.value for t in ColumnType}
)


def _column_segment(tokens, column):
    """Tokens from the start of this column's mark prefix to the column token."""
    mark_words = MARK_VOCABULARY - {AMP, TABLE_MARK, COLUMN_MARK, LINKS_TO}
    idx = tokens.index(column)
    start = idx
    if start >= 1 and tokens[start - 1] in mark_words:
        start -= 1
        while start >= 2 and tokens[start - 1] == AMP and tokens[start - 2] in mark_words:
            start -= 2
    return tokens[start : idx + 1]


def test_golden_structure_mark(tennis):
    q = QuestionTokens.from_text("Who is the best player")
    links = name_link(q, tennis)
    tokens = linearize_schema(tennis, links)
    segment = _column_segment(tokens, "Ranking.Player_id")
    assert " ".join(segment) == "Partial-Match & Primary-Key & Integer Ranking.Player_id"


def test_minimal_schema_layout():
    doc = {
        "db_id": "mini",
        "table_names_original": ["T"],
        "column_names_original": [[-1, "*"], [0, "c1"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    schema = load_schema(doc)
    assert linearize_schema(schema) == ["[TABLE]", "T", "[COLUMN]", "Text", "T.c1"]


def test_value_attachment(tennis):
    links = [
        LinkAnnotation(0, 1, MatchKind.VALUE, "Ranking", "Year", value="2016"),
    ]
    tokens = linearize_schema(tennis, links, include_values=True)
    idx = tokens.index("Ranking.Year")
    assert tokens[idx + 1 : idx + 3] == ["&", "2016"]


def test_unknown_link_target(tennis):
    good = LinkAnnotation(0, 1, MatchKind.EXACT, "Players", "Country")
    for table, column, message in (
        ("Nonexistent", None, "no table 'Nonexistent' in schema 'tennis'"),
        ("Players", "Nonexistent", "no column Players.Nonexistent in schema 'tennis'"),
        ("Ranking", "First_name", "no column Ranking.First_name in schema 'tennis'"),
    ):
        bad = LinkAnnotation(1, 2, MatchKind.EXACT, table, column)
        with pytest.raises(UnknownLinkTarget, match=f"^{re.escape(message)}$"):
            linearize_schema(tennis, [good, bad])


def test_relations_fig_statements(tennis):
    tokens = render_relations(tennis)
    text = " ".join(tokens)
    assert "Matches links to Ranking" in text
    assert "Players links to Matches" in text


def test_relations_empty_without_fks():
    doc = {
        "db_id": "nofk",
        "table_names_original": ["A", "B"],
        "column_names_original": [[-1, "*"], [0, "x"], [1, "y"]],
        "column_types": ["text", "text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    assert render_relations(load_schema(doc)) == []


def test_relations_chain_brute_force():
    doc = {
        "db_id": "chain",
        "table_names_original": ["A", "B", "C"],
        "column_names_original": [
            [-1, "*"],
            [0, "id"],
            [1, "id"], [1, "a_id"],
            [2, "id"], [2, "b_id"],
        ],
        "column_types": ["text"] + ["integer"] * 5,
        "primary_keys": [1, 2, 4],
        "foreign_keys": [[3, 1], [5, 2]],
    }
    schema = load_schema(doc)
    statements = " ".join(render_relations(schema))
    # Brute-force expectation straight from the FK list.
    assert statements == "A links to B B links to C"


def test_marks_within_closed_vocabulary(tennis):
    q = QuestionTokens.from_text("player ranking year in 2016 from usa")
    links = name_link(q, tennis) + value_link(q, tennis)
    annotated = build_input(q, tennis, links, include_values=True)
    # Past the question, every token that names no schema item or linked
    # value is a mark.
    schema_part = annotated.tokens[annotated.tokens.index(TABLE_MARK) :]
    names = set(tennis.surface_forms()) | {a.value for a in links if a.kind is MatchKind.VALUE}
    marks = [tok for tok in schema_part if tok not in names]
    assert "Value-Match" in marks
    assert set(marks) <= MARK_VOCABULARY


def test_single_table_and_column_markers(tennis):
    q = QuestionTokens.from_text("year")
    annotated = build_input(q, tennis)
    assert annotated.tokens.count(TABLE_MARK) == 1
    assert annotated.tokens.count(COLUMN_MARK) == 1
    table_pos = annotated.tokens.index(TABLE_MARK)
    column_pos = annotated.tokens.index(COLUMN_MARK)
    assert table_pos < column_pos
    # Question, tables, columns and relations, in that order.
    assert annotated.tokens[:table_pos] == ("year",)
    assert LINKS_TO in annotated.tokens[column_pos:]


def test_reverse_chronological_turns(tennis):
    q = QuestionTokens.from_text(["first question", "second one", "third now"])
    annotated = build_input(q, tennis)
    question = annotated.tokens[: annotated.tokens.index(TABLE_MARK)]
    assert list(question) == "third now | second one | first question".split()


def test_prev_sql_region_round_trip(tennis):
    prev = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1", tennis)
    q = QuestionTokens.from_text(["show years", "only the top one"])
    annotated = build_input(q, tennis, prev_sql=prev)
    question = "only the top one | show years".split()
    assert list(annotated.tokens[: len(question)]) == question
    region = annotated.tokens[len(question) : annotated.tokens.index(TABLE_MARK)]
    assert list(region) == render_sql(prev).split()


def test_discourse_toggle_drops_prev_sql(tennis):
    prev = parse_sql("SELECT Ranking.Year FROM Ranking", tennis)
    q = QuestionTokens.from_text("show years")
    annotated = build_input(q, tennis, prev_sql=prev, config=MarkConfig(discourse=False))
    assert annotated.tokens[: annotated.tokens.index(TABLE_MARK)] == ("show", "years")


def test_vanilla_layout_when_all_marks_off(tennis):
    q = QuestionTokens.from_text("show the ranking year")
    config = MarkConfig(schema_property=False, database_structure=False, discourse=False)
    annotated = build_input(q, tennis, links=name_link(q, tennis), config=config)
    expected = (
        "show the ranking year [TABLE] Players Matches Ranking [COLUMN] "
        "Player_id First_name Country Birth_date Id Winner_id Score "
        "Player_id Ranking Year"
    )
    assert annotated.render() == expected
    assert LINKS_TO not in annotated.tokens


def test_columns_fully_qualified_in_structured_mode(tennis):
    q = QuestionTokens.from_text("year")
    annotated = build_input(q, tennis)
    pattern = re.compile(r"[^.\s]+\.[^.\s]+$")
    end = len(annotated.tokens) - len(render_relations(tennis))
    region = annotated.tokens[annotated.tokens.index(COLUMN_MARK) + 1 : end]
    columns = [tok for tok in region if tok not in MARK_VOCABULARY]
    assert len(columns) == sum(1 for _ in tennis.iter_columns())
    for token in columns:
        assert pattern.match(token), token


def test_mark_order_regular_language(tennis, concert):
    # Prefix grammar per column: (Exact &)? (Partial &)? (Value &)? (PK &)? Type
    mark_run = re.compile(
        r"^((Exact-Match & )?(Partial-Match & )?(Value-Match & )?(Primary-Key & )?"
        r"(Integer|Real|Text|Date|Boolean|Other) )?[^.\s]+\.[^.\s]+$"
    )
    for schema in (tennis, concert):
        q = QuestionTokens.from_text("player ranking year name country in 2016")
        links = name_link(q, schema)
        tokens = linearize_schema(schema, links, include_values=False)
        body = tokens[tokens.index(COLUMN_MARK) + 1 :]
        # split on column tokens
        current: list[str] = []
        for tok in body:
            current.append(tok)
            if "." in tok and tok not in MARK_VOCABULARY:
                assert mark_run.match(" ".join(current)), current
                current = []
        assert current == []


def test_serialization_injective_on_generated_corpus():
    corpus = generate_synthetic_corpus(11, 12, 1, with_values=True)
    from structsql.schema import load_schema as _load

    rng = random.Random(5)
    seen: dict[str, tuple] = {}
    count = 0
    for doc in corpus.schema_docs:
        schema = _load(doc, content=corpus.content.get(doc["db_id"]))
        for qtext in ("show everything", "list the name", "count the rows now"):
            for turns in ([qtext], [qtext, "and then more"]):
                q = QuestionTokens.from_text(turns)
                links = name_link(q, schema)
                annotated = build_input(q, schema, links)
                fingerprint = (doc["db_id"], tuple(turns))
                rendered = annotated.render()
                count += 1
                for other, other_render in seen.items():
                    if other != fingerprint:
                        assert other_render != rendered
                seen[fingerprint] = rendered
    assert count >= 72


_CASES = (str, str.lower, str.upper, str.title)
_TYPE_LABELS = ("int", "real", "text", "date", "bool", "others")
_LINK_VALUES = ("2016", "red", "Red", "New York")


@st.composite
def serialization_cases(draw):
    """A synth schema with names in any case and columns of every type;
    links onto a few of its tables and columns, so that targets collect
    several match kinds and repeated values, naming them in any case and now
    and then naming a table or column the schema lacks; and the three
    serialization toggles.  All but the toggles come from one drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    doc, content = random_schema_doc(rng, "db", max_tables=5, with_values=True)
    rename = rng.choice(_CASES)
    doc["table_names_original"] = [rename(t) for t in doc["table_names_original"]]
    doc["column_names_original"] = [[t, rename(c)] for t, c in doc["column_names_original"]]
    doc["column_types"] = [rng.choice(_TYPE_LABELS) for _ in doc["column_types"]]
    schema = load_schema(doc, content)
    targets = rng.sample(schema.name_index.targets, min(4, len(schema.name_index.targets)))
    links = []
    for _ in range(rng.randint(0, 14)):
        table, column = rng.choice(targets)
        roll = rng.random()
        if roll < 0.02:
            table = "nowhere"
        elif roll < 0.04:
            column = "nowhere"
        elif roll < 0.06 and column is not None:
            table = rng.choice(schema.tables).name  # maybe a table without it
        kind = rng.choice(list(MatchKind))
        value = rng.choice(_LINK_VALUES) if kind is MatchKind.VALUE else None
        spell = rng.choice(_CASES)
        column = None if column is None else spell(column)
        links.append(LinkAnnotation(0, 1, kind, spell(table), column, value=value))
    flags = draw(st.fixed_dictionaries({
        "include_values": st.booleans(),
        "schema_property": st.booleans(),
        "database_structure": st.booleans(),
    }))
    return schema, links, flags


@given(serialization_cases())
@settings(max_examples=200, deadline=None)
def test_linearize_schema_matches_reference(case):
    schema, links, flags = case

    def outcome(linearize):
        try:
            return linearize(schema, links, **flags)
        except UnknownLinkTarget as exc:
            return str(exc)

    assert outcome(linearize_schema) == outcome(reference_linearize_schema)


# Links at the edges of the flattened serialization and its runs: the first
# table, a value after the last column, a VALUE link naming a table (it marks
# the table and attaches no value), repeated values on one column, none.
_SPLICE_CASES = {
    "first-table": [LinkAnnotation(0, 1, MatchKind.EXACT, "players")],
    "last-column": [
        LinkAnnotation(0, 1, MatchKind.EXACT, "Ranking", "Year"),
        LinkAnnotation(2, 3, MatchKind.VALUE, "Ranking", "year", value="2016"),
    ],
    "value-on-table": [LinkAnnotation(0, 1, MatchKind.VALUE, "Matches", value="2016")],
    "repeated-values": [
        LinkAnnotation(0, 1, MatchKind.VALUE, "Players", "Country", value="USA"),
        LinkAnnotation(1, 2, MatchKind.PARTIAL, "Players", "Country"),
        LinkAnnotation(2, 3, MatchKind.VALUE, "Players", "Country", value="France"),
        LinkAnnotation(3, 4, MatchKind.VALUE, "Players", "Country", value="USA"),
    ],
    "no-links": [],
}
_FLAGS = [
    {"include_values": v, "schema_property": p, "database_structure": d}
    for v, p, d in product((False, True), repeat=3)
]


@pytest.mark.parametrize("case", sorted(_SPLICE_CASES))
def test_linearize_schema_splice_boundaries(tennis, case):
    links = _SPLICE_CASES[case]
    for flags in _FLAGS:
        expected = reference_linearize_schema(tennis, links, **flags)
        assert linearize_schema(tennis, links, **flags) == expected, flags
        # A second call reuses the flattened run the first one kept.
        assert linearize_schema(tennis, links, **flags) == expected, flags


def test_dropped_schema_is_collected_with_its_runs(tables_path, content_path):
    # The flattened runs live on the schema's template, in no module-level
    # cache, so a schema that is dropped after use is freed.
    schema = load_schemas(tables_path, content_path)["tennis"]
    q = QuestionTokens.from_text("player ranking year in 2016 from usa")
    links = name_link(q, schema) + value_link(q, schema)
    for flags in _FLAGS:
        linearize_schema(schema, links, **flags)
    assert len(schema.serial_template.runs) == 4
    dropped = weakref.ref(schema)
    del schema
    gc.collect()
    assert dropped() is None
