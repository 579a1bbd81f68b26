import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.linking import (
    LinkAnnotation,
    MatchKind,
    QuestionTokens,
    name_link,
    normalize_value,
    value_link,
)
from structsql.schema import ColumnType, load_schema, name_tokens
from structsql.synth import random_schema_doc

from util_checks import reference_name_link


def by_target(links):
    out = {}
    for ann in links:
        out.setdefault((ann.table, ann.column), []).append(ann)
    return out


_FILLER = ("the", "of", "show", "all", "with", "per", "is", "s")
_PUNCT = (",", "?", "'", "-", "(", ".", "_")


@st.composite
def linking_cases(draw):
    """A synth schema plus names it never makes (CJK, repeated pieces, one that
    normalizes to nothing) and questions made of its name pieces."""
    doc, _ = random_schema_doc(random.Random(draw(st.integers(0, 2**32 - 1))), "db", max_tables=6)
    extra = len(doc["table_names_original"])
    doc["table_names_original"].append("排名_年份")
    doc["column_names_original"] += [[extra, "_"], [extra, "id_id"], [extra, "年份"], [extra, "City_Code"]]
    doc["column_types"] += ["text"] * 4
    schema = load_schema(doc)

    names = [t.name for t in schema.tables] + [c.name for _, c in schema.iter_columns()]
    pieces = sorted({p for name in names for p in re.split(r"_+", name) if p})
    pool = pieces + [p + "s" for p in pieces] + [f"{p} {p}" for p in pieces] + list("排名年份")
    pool += list(_FILLER) + list(_PUNCT)
    words = st.sampled_from(pool).map(lambda w: w.upper() if len(w) == 2 else w)
    turns = draw(st.lists(st.lists(words, min_size=1, max_size=12), min_size=1, max_size=3))
    language = draw(st.sampled_from(["en", "zh"]))
    question = QuestionTokens.from_text([" ".join(t) for t in turns], language)
    return question, schema


@given(linking_cases())
@settings(max_examples=60, deadline=None)
def test_name_link_matches_reference_scan(case):
    question, schema = case
    assert name_link(question, schema) == reference_name_link(question, schema)


def test_player_token_partial_matches_player_id(tennis):
    q = QuestionTokens.from_text("Who is the best player")
    links = by_target(name_link(q, tennis))
    kinds = {k.kind for k in links[("Ranking", "Player_id")]}
    assert kinds == {MatchKind.PARTIAL}


def test_no_lexical_overlap_empty(tennis):
    q = QuestionTokens.from_text("hello world")
    assert name_link(q, tennis) == []


def test_ranking_year_exact_matches(tennis):
    q = QuestionTokens.from_text("ranking year")
    links = name_link(q, tennis)
    got = {(ann.table, ann.column, ann.kind) for ann in links}
    assert ("Ranking", None, MatchKind.EXACT) in got
    assert ("Ranking", "Year", MatchKind.EXACT) in got


def test_exact_matches_agree_with_brute_force(tennis):
    # Exhaustive n-gram x name comparison, written without the linker's helpers.
    text = "ranking year of the player in France"
    tokens = text.lower().split()

    def norm(tok):
        return tok[:-1] if len(tok) > 3 and tok.endswith("s") else tok

    names = {}
    for table in tennis.tables:
        names[(table.name, None)] = [norm(p) for p in table.name.lower().split("_")]
        for col in table.columns:
            names[(table.name, col.name)] = [norm(p) for p in col.name.lower().split("_")]
    expected_exact = set()
    for n in range(1, 6):
        for s in range(len(tokens) - n + 1):
            gram = [norm(t) for t in tokens[s : s + n]]
            for target, toks in names.items():
                if gram == toks:
                    expected_exact.add(target)

    q = QuestionTokens.from_text(text)
    got_exact = {
        (ann.table, ann.column)
        for ann in name_link(q, tennis)
        if ann.kind is MatchKind.EXACT
    }
    assert got_exact == expected_exact


def test_longest_match_preference_same_kind(tennis):
    # "first name" exact-matches First_name as a bigram; the contained
    # unigram "name" partial for the same target must be suppressed.
    q = QuestionTokens.from_text("first name of the player")
    links = by_target(name_link(q, tennis))
    anns = links[("Players", "First_name")]
    assert len(anns) == 1
    assert (anns[0].start, anns[0].end, anns[0].kind) == (0, 2, MatchKind.EXACT)


def test_no_overlapping_spans_per_target(tennis):
    q = QuestionTokens.from_text("player ranking year ranking of the player id")
    for target, anns in by_target(name_link(q, tennis)).items():
        spans = sorted((a.start, a.end) for a in anns)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, f"overlap for {target}: {spans}"


def test_exact_and_partial_disjoint_per_span_target(tennis):
    q = QuestionTokens.from_text("ranking year player country")
    seen = {}
    for ann in name_link(q, tennis):
        key = (ann.start, ann.end, ann.table, ann.column)
        assert key not in seen
        seen[key] = ann.kind


@given(upper=st.booleans(), shout=st.booleans())
@settings(max_examples=8, deadline=None)
def test_case_invariance(tennis, upper, shout):
    text = "Ranking Year of the Player"
    variant = text.upper() if upper else (text.lower() if shout else text)
    base = {
        (a.start, a.end, a.kind, a.table.lower(), (a.column or "").lower())
        for a in name_link(QuestionTokens.from_text(text), tennis)
    }
    got = {
        (a.start, a.end, a.kind, a.table.lower(), (a.column or "").lower())
        for a in name_link(QuestionTokens.from_text(variant), tennis)
    }
    assert base == got


def test_schema_name_case_invariance(tennis_doc):
    from structsql.schema import load_schema

    mangled = dict(tennis_doc)
    mangled["table_names_original"] = [t.upper() for t in tennis_doc["table_names_original"]]
    mangled["column_names_original"] = [
        [t, c.lower() if t >= 0 else c] for t, c in tennis_doc["column_names_original"]
    ]
    q = QuestionTokens.from_text("ranking year of the player")
    base = {
        (a.start, a.end, a.kind, a.table.lower(), (a.column or "").lower())
        for a in name_link(q, load_schema(tennis_doc))
    }
    got = {
        (a.start, a.end, a.kind, a.table.lower(), (a.column or "").lower())
        for a in name_link(q, load_schema(mangled))
    }
    assert base == got


def test_chinese_per_character_tokens():
    q = QuestionTokens.from_text("排名年份", language="zh")
    assert q.all_tokens() == ["排", "名", "年", "份"]


def test_value_link_year(tennis):
    q = QuestionTokens.from_text("players ranked in 2016")
    links = [a for a in value_link(q, tennis) if a.kind is MatchKind.VALUE]
    assert any(
        (a.table, a.column, a.value) == ("Ranking", "Year", "2016") for a in links
    )


def test_value_link_without_content_is_empty(tennis_plain):
    q = QuestionTokens.from_text("players ranked in 2016")
    assert value_link(q, tennis_plain) == []


def test_value_link_date_normalization(tennis):
    q = QuestionTokens.from_text("players born on Jan 5, 2016")
    links = value_link(q, tennis)
    assert any(
        (a.table, a.column, a.value) == ("Players", "Birth_date", "2016-01-05")
        for a in links
    )


def test_value_link_text_case(tennis):
    q = QuestionTokens.from_text("who comes from usa")
    links = value_link(q, tennis)
    assert any(
        (a.table, a.column, a.value) == ("Players", "Country", "USA") for a in links
    )


def test_value_annotation_carries_value(tennis):
    for ann in value_link(QuestionTokens.from_text("ranked in 2016"), tennis):
        assert ann.kind is MatchKind.VALUE
        assert ann.value is not None


def test_annotation_invariants():
    with pytest.raises(ValueError):
        LinkAnnotation(2, 2, MatchKind.EXACT, "T")
    with pytest.raises(ValueError):
        LinkAnnotation(0, 1, MatchKind.VALUE, "T", "c", value=None)


def test_question_tokens_invariants():
    with pytest.raises(ValueError):
        QuestionTokens(turns=((),))


# -- normalize_value ---------------------------------------------------------


def test_normalize_integer_separators():
    assert normalize_value("1,200", ColumnType.INTEGER) == "1200"


def test_normalize_leading_zeros_and_trailing():
    assert normalize_value("007", ColumnType.INTEGER) == "7"
    assert normalize_value("3.50", ColumnType.REAL) == "3.5"
    assert normalize_value("1200.0", ColumnType.REAL) == "1200"


def test_normalize_date_formats():
    assert normalize_value("Jan 5, 2016", ColumnType.DATE) == "2016-01-05"
    assert normalize_value("2016/01/05", ColumnType.DATE) == "2016-01-05"


def test_normalize_text_trim_lower():
    assert normalize_value("  USA ", ColumnType.TEXT) == "usa"
    assert normalize_value("New   York", ColumnType.TEXT) == "new york"


def test_normalize_unparseable_date_falls_back():
    assert normalize_value("sometime soon", ColumnType.DATE) == "sometime soon"


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_normalize_number_roundtrip(n):
    assert normalize_value(str(n), ColumnType.INTEGER) == str(n)


def test_name_tokens_splitting():
    assert name_tokens("Song_release_year") == ("song", "release", "year")
    assert name_tokens("Players") == ("player",)
