import json
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsql.cli import _write_json
from structsql.metrics import (
    EmptyCorpus,
    MismatchedLengths,
    exact_set_match,
    logical_form_match,
    score_corpus,
)
from structsql.schema import load_schema
from structsql.sql_ast import Agg, Condition, ConditionList, Literal, SqlQuery, parse_sql, render_sql
from structsql.synth import random_query, random_schema_doc


def test_identical_queries_match(tennis):
    q = parse_sql("SELECT Players.First_name FROM Players", tennis)
    assert exact_set_match(q, q, tennis)
    assert logical_form_match(q, q, tennis)


def test_conjunct_permutation_matches(tennis):
    a = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016 AND Ranking.Ranking = 1",
        tennis,
    )
    b = parse_sql(
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1 AND Ranking.Year = 2016",
        tennis,
    )
    assert exact_set_match(a, b, tennis)
    assert logical_form_match(a, b, tennis)


def test_different_aggregate_no_match(tennis):
    a = parse_sql("SELECT SUM(Ranking.Ranking) FROM Ranking", tennis)
    b = parse_sql("SELECT AVG(Ranking.Ranking) FROM Ranking", tennis)
    assert not exact_set_match(a, b, tennis)


def test_em_ignores_values_lx_does_not(tennis):
    a = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 5", tennis)
    b = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 6", tennis)
    assert exact_set_match(a, b, tennis)
    assert not logical_form_match(a, b, tennis)


def test_lx_normalizes_value_formats(tennis):
    a = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = '1,200'", tennis)
    b = parse_sql("SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 1200", tennis)
    assert logical_form_match(a, b, tennis)


def test_scores_all_correct(tennis):
    golds = [
        "SELECT Players.First_name FROM Players",
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016",
    ]
    report = score_corpus(golds, golds, db_ids=["tennis", "tennis"], schemas={"tennis": tennis})
    assert report.qm == report.em == report.lx == 1.0
    assert report.im is None
    assert report.counts == {
        "decode_failure": 0, "parse_failure": 0, "schema_violation": 0, "mismatch": 0
    }


def test_multi_turn_interaction_rates(tennis):
    golds = [
        "SELECT Players.First_name FROM Players",
        "SELECT Ranking.Year FROM Ranking",
        "SELECT Players.Country FROM Players",
        "SELECT Matches.Score FROM Matches",
    ]
    preds = list(golds)
    preds[1] = "SELECT Ranking.Ranking FROM Ranking"  # wrong turn in interaction A
    report = score_corpus(
        preds,
        golds,
        interaction_ids=["A", "A", "B", "B"],
        db_ids=["tennis"] * 4,
        schemas={"tennis": tennis},
    )
    assert report.qm == 0.75
    assert report.im == 0.5
    assert report.n_interactions == 2


def test_parse_failure_counted_and_scored_zero(tennis):
    report = score_corpus(
        ["SELEC nope", "SELECT Players.First_name FROM Players"],
        ["SELECT Players.First_name FROM Players"] * 2,
        db_ids=["tennis"] * 2,
        schemas={"tennis": tennis},
    )
    assert report.counts["parse_failure"] == 1
    assert report.qm == 0.5


def test_huge_literal_scores_and_matches_its_spellings(tennis):
    gold = "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1e30"
    preds = [gold, "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1" + "0" * 30]
    report = score_corpus(
        preds, [gold, gold], db_ids=["tennis", "tennis"], schemas={"tennis": tennis}
    )
    assert report.qm == report.lx == 1.0


def test_limit_with_exponent_is_a_parse_failure(tennis):
    report = score_corpus(
        ["SELECT Players.First_name FROM Players LIMIT 1e3"],
        ["SELECT Players.First_name FROM Players LIMIT 1000"],
        db_ids=["tennis"],
        schemas={"tennis": tennis},
    )
    assert report.counts["parse_failure"] == 1
    assert report.qm == 0.0


def test_schema_violation_counted(tennis):
    report = score_corpus(
        ["SELECT Players.Nope FROM Players"],
        ["SELECT Players.First_name FROM Players"],
        db_ids=["tennis"],
        schemas={"tennis": tennis},
    )
    assert report.counts["schema_violation"] == 1
    assert report.qm == 0.0


def test_gold_must_parse(tennis):
    with pytest.raises(ValueError):
        score_corpus(["SELECT 1"], ["definitely not sql"], db_ids=["tennis"], schemas={"tennis": tennis})


def test_unparseable_date_literal_logs_no_warning(tennis, caplog):
    # 'last year' is no date: it compares as text, which is no fault of the run.
    query = "SELECT Players.First_name FROM Players WHERE Players.Birth_date > 'last year'"
    with caplog.at_level("DEBUG", logger="structsql.schema"):
        report = score_corpus(
            [query] * 3, [query] * 3, db_ids=["tennis"] * 3, schemas={"tennis": tennis}
        )
    assert report.em == 1.0
    assert any(r.name == "structsql.schema" for r in caplog.records)
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        score_corpus([], [], db_ids=[], schemas={})


def test_mismatched_lengths(tennis):
    schemas = {"tennis": tennis}
    with pytest.raises(MismatchedLengths):
        score_corpus(["SELECT a FROM t"], [], db_ids=[], schemas=schemas)
    with pytest.raises(MismatchedLengths):
        score_corpus(
            ["SELECT a FROM t"], ["SELECT a FROM t"], db_ids=["tennis"], schemas=schemas,
            interaction_ids=["x", "y"],
        )
    with pytest.raises(MismatchedLengths, match="db id count"):
        score_corpus(
            ["SELECT a FROM t"], ["SELECT a FROM t"], db_ids=["tennis", "tennis"], schemas=schemas
        )


def test_order_shuffle_invariance(tennis):
    golds = [
        "SELECT Players.First_name FROM Players",
        "SELECT Ranking.Year FROM Ranking",
        "SELECT Matches.Score FROM Matches",
        "SELECT Players.Country FROM Players",
    ]
    preds = list(golds)
    preds[2] = "SELECT COUNT(*) FROM Matches"
    ids = ["A", "A", "B", "B"]
    base = score_corpus(preds, golds, interaction_ids=ids, db_ids=["tennis"] * 4, schemas={"tennis": tennis})
    order = [2, 0, 3, 1]
    shuffled = score_corpus(
        [preds[i] for i in order],
        [golds[i] for i in order],
        interaction_ids=[ids[i] for i in order],
        db_ids=["tennis"] * 4,
        schemas={"tennis": tennis},
    )
    assert (base.qm, base.im, base.lx) == (shuffled.qm, shuffled.im, shuffled.lx)


def random_corpus(seed):
    """Random corpus with uniform interaction sizes.

    IM <= QM is a theorem only when every interaction has the same number of
    turns (a matched short interaction beside a failed long one can push IM
    above QM); the generated corpora therefore use one turn count each.
    """
    rng = random.Random(seed)
    doc, _ = random_schema_doc(rng, "db", min_tables=2, max_tables=5)
    schema = load_schema(doc)
    turns = rng.randint(1, 3)
    n_interactions = rng.randint(1, 4)
    golds, preds, ids = [], [], []
    for i in range(n_interactions):
        for _ in range(turns):
            gold = random_query(rng, schema)
            golds.append(render_sql(gold))
            roll = rng.random()
            if roll < 0.5:
                preds.append(golds[-1])
            elif roll < 0.8:
                preds.append(render_sql(random_query(rng, schema)))
            else:
                preds.append("BROKEN (")
            ids.append(f"i{i}")
    return preds, golds, ids, schema


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_im_never_exceeds_qm(seed):
    preds, golds, ids, schema = random_corpus(seed)
    report = score_corpus(
        preds, golds, interaction_ids=ids, db_ids=[schema.db_id] * len(golds),
        schemas={schema.db_id: schema},
    )
    if report.im is not None:
        assert report.im <= report.qm + 1e-12


def test_reflexivity_on_random_corpora():
    for seed in range(10):
        _, golds, ids, schema = random_corpus(seed)
        report = score_corpus(
            golds, golds, interaction_ids=ids, db_ids=[schema.db_id] * len(golds),
            schemas={schema.db_id: schema},
        )
        assert report.qm == report.lx == 1.0
        if report.im is not None:
            assert report.im == 1.0


def test_report_serialization(tennis):
    report = score_corpus(
        ["SELECT Players.First_name FROM Players"],
        ["SELECT Players.First_name FROM Players"],
        db_ids=["tennis"],
        schemas={"tennis": tennis},
    )
    payload = report.to_dict()
    assert payload["qm"] == 1.0
    assert payload["verdicts"][0]["em"] is True
    assert "EM" in report.summary()


def test_report_json_is_the_asdict_form(tennis, tmp_path):
    # One example per error class, a match, and one turn per interaction
    # (so im is None): report.json holds the bytes dataclasses.asdict gives.
    right = "SELECT Players.First_name FROM Players"
    predictions = ["", "SELECT FROM", "SELECT Players.Nope FROM Players",
                   "SELECT Players.Country FROM Players", right]
    report = score_corpus(
        predictions, [right] * len(predictions), db_ids=["tennis"] * len(predictions),
        schemas={"tennis": tennis},
    )
    assert report.im is None
    assert all(report.counts.values())
    out = tmp_path / "report.json"
    _write_json(out, report.to_dict())
    expected = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    assert out.read_text(encoding="utf-8") == expected
    # The dict is the caller's: changing it leaves the report as it was.
    before = asdict(report)
    payload = report.to_dict()
    payload["counts"]["mismatch"] += 1
    payload["verdicts"][0]["em"] = True
    assert asdict(report) == before


def _perturb(rng: random.Random, q: SqlQuery) -> SqlQuery:
    """A copy of ``q`` with some literals respelled ("5" as "5.0" or "05",
    "red" as "RED" or " red ") or replaced, some aggregates swapped and its
    conjuncts in another order."""

    def expr(e):
        return replace(e, agg=rng.choice(list(Agg))) if rng.random() < 0.1 else e

    def value(v):
        roll = rng.random()
        if not isinstance(v, Literal) or roll < 0.4:
            return v
        if roll < 0.85:
            number = v.kind == "number"
            spellings = (v.text + ".0", "0" + v.text) if number else (v.text.upper(), f" {v.text} ")
            return Literal(v.kind, rng.choice(spellings))
        return Literal(v.kind, "7" if v.kind == "number" else "blue")

    def conditions(cl):
        if cl is None:
            return None
        conds = [Condition(expr(c.left), c.op, tuple(map(value, c.values))) for c in cl.conditions]
        rng.shuffle(conds)
        return ConditionList(tuple(conds), cl.connectors)

    return replace(
        q,
        select=tuple(expr(e) for e in q.select),
        where=conditions(q.where),
        having=conditions(q.having),
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_logical_form_match_implies_exact_set_match(seed):
    rng = random.Random(seed)
    doc, content = random_schema_doc(rng, "db", min_tables=2, max_tables=5, with_values=True)
    schema = load_schema(doc, content)
    gold = random_query(rng, schema)
    preds = [random_query(rng, schema)] + [_perturb(rng, gold) for _ in range(4)]
    for pred in preds:
        for hints in (schema, None):
            if logical_form_match(pred, gold, hints):
                assert exact_set_match(pred, gold, hints)
