import random
import re
from decimal import Context, Decimal, Inexact, InvalidOperation

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsql.linking import (
    LinkAnnotation,
    MatchKind,
    QuestionTokens,
    name_link,
    tokenize,
    value_link,
)
from structsql.schema import (
    ColumnType,
    _canonical_number,
    load_schema,
    name_tokens,
    normalize_value,
)
from structsql.synth import random_schema_doc

from util_checks import reference_canonical_number, reference_name_link, reference_value_link


def by_target(links):
    out = {}
    for ann in links:
        out.setdefault((ann.table, ann.column), []).append(ann)
    return out


_FILLER = ("the", "of", "show", "all", "with", "per", "is", "s")
_PUNCT = (",", "?", "'", "-", "(", ".", "_")
# Lower-casing that is context- or length-sensitive (final sigma, dotted I),
# Unicode digits, number-like words without a digit, and dates.
_UNUSUAL = ("ΟΔΟΣ", "İstanbul", "٢٠١٦", "nan", "Infinity", "2016-01-05", "5/1/2016", "Jan 5, 2016")


@st.composite
def linking_cases(draw):
    """A synth schema plus names it never makes (CJK, repeated pieces, one that
    normalizes to nothing) and questions made of its name pieces."""
    doc, _ = random_schema_doc(random.Random(draw(st.integers(0, 2**32 - 1))), "db", max_tables=6)
    extra = len(doc["table_names_original"])
    doc["table_names_original"].append("排名_年份")
    doc["column_names_original"] += [[extra, "_"], [extra, "id_id"], [extra, "年份"], [extra, "City_Code"]]
    doc["column_names_original"] += [[extra, "ΟΔΟΣ_İstanbul"], [extra, "nan_2016"]]
    doc["column_types"] += ["text"] * 6
    schema = load_schema(doc)

    names = [t.name for t in schema.tables] + [c.name for _, c in schema.iter_columns()]
    pieces = sorted({p for name in names for p in re.split(r"_+", name) if p})
    pool = pieces + [p + "s" for p in pieces] + [f"{p} {p}" for p in pieces] + list("排名年份")
    pool += list(_FILLER) + list(_PUNCT) + list(_UNUSUAL)
    words = st.sampled_from(pool).map(lambda w: w.upper() if len(w) == 2 else w)
    turns = draw(st.lists(st.lists(words, min_size=1, max_size=12), min_size=1, max_size=3))
    language = draw(st.sampled_from(["en", "zh"]))
    question = QuestionTokens.from_text([" ".join(t) for t in turns], language)
    return question, schema


_PINNED_NAMES = load_schema({
    "db_id": "db", "table_names_original": ["Οδοί", "İstanbul_ΟΔΟΣ"],
    "column_names_original": [[0, "ΟΔΟΣ"], [1, "İstanbul"], [1, "nan"]],
    "column_types": ["text"] * 3, "primary_keys": [], "foreign_keys": [],
})


@given(linking_cases())
@example((QuestionTokens.from_text("the İSTANBUL ΟΔΟΣ , İstanbul οδος nan ?"), _PINNED_NAMES))
@settings(max_examples=60, deadline=None)
def test_name_link_matches_reference_scan(case):
    question, schema = case
    assert name_link(question, schema) == reference_name_link(question, schema)


# Cell values, some sharing a normalized form under their column's type.
_VALUES = (
    "1,200", "1200", "1200.0", "007", "7", "3.50", "3.5", "2016",
    "Jan 5, 2016", "2016-01-05", "2016/01/05", "sometime soon",
    "USA", " usa", "New York", "new   york", "France",
    *_UNUSUAL, "οδος", "٢٠١٦/01/05", "Studio 54",
)
_TYPE_LABELS = ("int", "real", "text", "date", "others")
_COLUMN_NAMES = ("id", "name", "year", "country", "code")
_QUESTION_WORDS = sorted({tok for v in _VALUES for tok in tokenize(v)})
_QUESTION_WORDS += [*_VALUES, *_FILLER, *_PUNCT]


@st.composite
def value_linking_cases(draw):
    """A schema whose columns of every type hold values that share normalized
    forms (or hold none, or have no content at all), and a question made of
    those values' tokens, fillers and punctuation.  Drawn from one seed, so a
    draw costs the engine one integer."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    doc = {"db_id": "db", "table_names_original": [], "column_names_original": [],
           "column_types": [], "primary_keys": [], "foreign_keys": []}
    content: dict[str, list[str]] = {}
    for t in range(rng.randint(1, 3)):
        doc["table_names_original"].append(f"t{t}")
        for column in rng.sample(_COLUMN_NAMES, rng.randint(1, 3)):
            doc["column_names_original"].append([t, column])
            doc["column_types"].append(rng.choice(_TYPE_LABELS))
            if rng.random() < 0.8:  # otherwise the column has no content
                content[f"t{t}.{column}"] = rng.choices(_VALUES, k=rng.randint(0, 4))
    turns = [rng.choices(_QUESTION_WORDS, k=rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    return QuestionTokens.from_text([" ".join(t) for t in turns]), load_schema(doc, content)


_PINNED_VALUES = load_schema(
    {"db_id": "db", "table_names_original": ["t0"],
     "column_names_original": [[0, "name"], [0, "born"], [0, "year"]],
     "column_types": ["text", "date", "int"], "primary_keys": [], "foreign_keys": []},
    {"t0.name": ["ΟΔΟΣ", "İstanbul"], "t0.born": ["2016-01-05", "5/1/2016", "Studio 54"],
     "t0.year": ["2016", "Studio 54"]},
)

# Spans that link only as a whole: a date led by a month name, a number split
# across tokens, a text value of two words.
_PINNED_SPANS = load_schema(
    {"db_id": "db", "table_names_original": ["t0"],
     "column_names_original": [[0, "born"], [0, "pop"], [0, "city"]],
     "column_types": ["date", "int", "text"], "primary_keys": [], "foreign_keys": []},
    {"t0.born": ["Jan 5, 2016"], "t0.pop": ["1200"], "t0.city": ["New York"]},
)


@given(value_linking_cases())
@example((QuestionTokens.from_text("from οδος or İSTANBUL , ΟΔΟΣ ?"), _PINNED_VALUES))
@example((QuestionTokens.from_text("born 2016-01-05 , 5/1/2016 or ٢٠١٦ at Studio 54"), _PINNED_VALUES))
@example((QuestionTokens.from_text("born on jan 5 , 2016"), _PINNED_SPANS))
@example((QuestionTokens.from_text("towns of 1 , 200 people"), _PINNED_SPANS))
@example((QuestionTokens.from_text("towns of _ 1200"), _PINNED_SPANS))  # "_" is in no number
@example((QuestionTokens.from_text("flights to new york"), _PINNED_SPANS))
@settings(max_examples=200, deadline=None)
def test_value_link_matches_reference(case):
    question, schema = case
    assert value_link(question, schema) == reference_value_link(question, schema)


# Decimal drops underscores: it reads these as 2016, 10, 1E+5, 0.5 and 1000.
_UNDERSCORED = ["_2016", "1__0", "1e_5", "._5", "1_000"]


@pytest.mark.parametrize("raw", _UNDERSCORED)
def test_text_with_an_underscore_is_no_number(raw):
    assert _canonical_number(raw) is None
    assert normalize_value(raw, ColumnType.REAL) == raw


def test_a_span_with_an_underscore_links_to_no_number():
    schema = load_schema(
        {"db_id": "db", "table_names_original": ["t0"], "column_names_original": [[0, "n"]],
         "column_types": ["real"], "primary_keys": [], "foreign_keys": []},
        {"t0.n": ["2016", "10", "100000", "0.5", "1000", "1200"]},
    )
    for raw in _UNDERSCORED:
        assert value_link(QuestionTokens.from_text(f"towns of {raw}"), schema) == []
    # "1200" links alone, not with the "_" before it.
    [link] = value_link(QuestionTokens.from_text("towns of _ 1200"), schema)
    assert (link.start, link.end, link.value) == (3, 4, "1200")


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


def test_value_link_numeric_date(tennis):
    # "2016-01-05" is five tokens; spaced they read as no date, unspaced they do.
    q = QuestionTokens.from_text("players born on 2016-01-05")
    links = value_link(q, tennis)
    assert LinkAnnotation(3, 8, MatchKind.VALUE, "Players", "Birth_date", "2016-01-05") in links
    assert links == reference_value_link(q, tennis)


def test_value_link_logs_nothing_for_question_spans(tennis, caplog):
    tennis.value_index  # cells log their own fallbacks when the index is built
    q = QuestionTokens.from_text("which players from the USA were born in 2013")
    with caplog.at_level("DEBUG", logger="structsql"):
        links = value_link(q, tennis)
    assert len(links) == 2
    assert caplog.records == []


def test_value_link_unparseable_date_cell(tennis_doc):
    # A DATE cell that no date format reads is indexed under its text form,
    # and a question span reaches it the same way.
    schema = load_schema(tennis_doc, {"Players.Birth_date": ["2013"]})
    question = QuestionTokens.from_text("players born in 2013")
    links = value_link(question, schema)
    assert [(a.table, a.column, a.value) for a in links] == [("Players", "Birth_date", "2013")]
    assert links == reference_value_link(question, schema)


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


@pytest.mark.parametrize("token", ["", "New  York", "a b", "x\t", "\u00a0"])
def test_question_tokens_reject_empty_and_whitespace_tokens(token):
    # value_link's text key joins tokens with single spaces, so a token must
    # be what tokenize makes: non-empty, with no whitespace.
    with pytest.raises(ValueError):
        QuestionTokens(turns=(("in", token),))
    assert QuestionTokens.from_text(f"in {token}").all_tokens() == ["in", *token.split()]


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


_NUMBER_PIECES = [*"0123456789.eE+-,", " ", "inf", "infinity", "nan", "snan"]
_HINTS = [None, *ColumnType]


@given(
    st.lists(st.sampled_from(_NUMBER_PIECES), max_size=12).map("".join),
    st.sampled_from(_HINTS),
)
@example("inf", ColumnType.INTEGER)
@example("-Infinity", ColumnType.REAL)
@example("snan", None)
@example("NaN", ColumnType.INTEGER)
@example("1e28", None)
@example("1.5e40", ColumnType.REAL)
@example("1" * 29, ColumnType.INTEGER)
@example("-0e50", ColumnType.INTEGER)
@example("-1e-999999999", ColumnType.REAL)
@example("1e999999999", ColumnType.INTEGER)
@example("1,200", ColumnType.INTEGER)
@settings(deadline=None)
def test_normalize_value_never_raises_and_keeps_number_forms(raw, hint):
    got = normalize_value(raw, hint)
    assert isinstance(got, str)
    if hint not in (None, ColumnType.INTEGER, ColumnType.REAL):
        return
    try:
        dec = Decimal(raw.strip().replace(",", "").replace(" ", ""))
    except InvalidOperation:
        dec = None
    if dec is None or not dec.is_finite():
        assert got == " ".join(raw.lower().split())  # compared as text
        return
    # equal numbers normalize equal, however they are spelled
    assert normalize_value(format(dec, "E"), hint) == got
    try:
        dec.normalize(Context(traps=[Inexact]))
    except Inexact:
        return  # the old normalization rounded here, in Decimal's default context
    try:
        before = reference_canonical_number(raw)
    except InvalidOperation:
        return  # the old normalization raised here
    assert got == before


def test_normalize_keeps_every_significant_digit():
    # Each pair rounded to one 28-digit form, a false LX match and value link.
    assert normalize_value("0.12345678901234567890123456789012") == (
        "0.12345678901234567890123456789012")
    assert normalize_value("0.12345678901234567890123456789013") == (
        "0.12345678901234567890123456789013")
    assert normalize_value("12345678901234567890123456789.5", ColumnType.REAL) == (
        "12345678901234567890123456789.5")
    assert normalize_value("12345678901234567890123456790") == "1.234567890123456789012345679E+28"
    assert normalize_value("1e-10000000", ColumnType.REAL) == "1E-10000000"
    assert normalize_value("0") == "0"
    # the plain form is kept in the range of Decimal's default context
    assert normalize_value("1.50") == "1.5"
    assert normalize_value("0.0000001e-2") == "0.000000001"


def test_normalize_huge_numbers_by_value():
    forms = {normalize_value(raw) for raw in ("1e30", "1E+30", "1" + "0" * 30, "10e29")}
    assert len(forms) == 1
    assert normalize_value("1e30") != normalize_value("1e31")
    assert normalize_value("1e999999999") == "1E+999999999"


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_normalize_number_roundtrip(n):
    assert normalize_value(str(n), ColumnType.INTEGER) == str(n)


def test_name_tokens_splitting():
    assert name_tokens("Song_release_year") == ("song", "release", "year")
    assert name_tokens("Players") == ("player",)
