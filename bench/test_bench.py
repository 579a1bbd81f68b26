"""Quick tests of the benchmark's own stand-in LM, checks and inputs.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from structsql.decode import LexiconConstraint, Vocabulary, beam_search, build_trie  # noqa: E402
from structsql.schema import load_schemas  # noqa: E402

from corpus import (  # noqa: E402
    NESTED_EXAMPLES,
    PIPELINE_PER_WIDTH,
    PIPELINE_WIDTHS,
    offline_corpus,
    pipeline_corpus,
)
from oracles import SchemaFacts, brute_force_min_connector, completion_violations  # noqa: E402
from speed import MIN_SAMPLES, REFERENCE_S, SpeedMeter  # noqa: E402
from standin import StandInLM, stripped_text  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"

# The nested query of ROADMAP item 4: the inner level filters on Ranking,
# which is missing from its FROM.
NESTED = (
    "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
    "(SELECT Matches.Winner_id FROM Matches WHERE Ranking.Ranking = 1)"
)
NESTED_FIXED = (
    "SELECT Players.First_name FROM Players WHERE Players.Player_id IN "
    "(SELECT Matches.Winner_id FROM Matches JOIN Ranking "
    "ON Ranking.Player_id = Matches.Winner_id WHERE Ranking.Ranking = 1)"
)


@pytest.fixture(scope="module")
def docs() -> dict[str, dict]:
    with open(FIXTURES / "tables.json", encoding="utf-8") as f:
        return {d["db_id"]: d for d in json.load(f)}


@pytest.fixture(scope="module")
def tennis(docs) -> SchemaFacts:
    return SchemaFacts(docs["tennis"])


@pytest.mark.parametrize(
    "terminals, size",
    [
        ({"Players"}, 1),
        ({"Players", "Matches"}, 2),
        ({"Matches", "Ranking"}, 2),
        ({"Players", "Ranking"}, 3),  # through Matches
    ],
)
def test_min_connector_tennis(tennis, terminals, size):
    assert brute_force_min_connector(tennis, terminals) == size


def test_min_connector_concert(docs):
    facts = SchemaFacts(docs["concert_singer"])
    # stadium - concert - singer_in_concert - singer
    assert brute_force_min_connector(facts, {"stadium", "singer"}) == 4
    assert brute_force_min_connector(facts, {"concert", "singer"}) == 3


def test_nested_level_left_unconnected_is_caught(tennis):
    problems = completion_violations(NESTED, NESTED, tennis)
    assert problems == ["level 1: ['ranking'] mentioned but not in FROM"]


def test_nested_level_completed_passes(tennis):
    assert completion_violations(NESTED, NESTED_FIXED, tennis) == []


def test_top_level_completion_passes(tennis):
    before = "SELECT Players.First_name FROM Players WHERE Ranking.Ranking = 1"
    after = (
        "SELECT Players.First_name FROM Players JOIN Matches ON Matches.Winner_id = "
        "Players.Player_id JOIN Ranking ON Ranking.Player_id = Matches.Winner_id "
        "WHERE Ranking.Ranking = 1"
    )
    assert completion_violations(before, after, tennis) == []


def test_oversized_from_is_caught(tennis):
    before = "SELECT Matches.Score FROM Matches WHERE Ranking.Ranking = 1"
    after = (
        "SELECT Matches.Score FROM Matches JOIN Ranking ON Ranking.Player_id = "
        "Matches.Winner_id JOIN Players ON Matches.Winner_id = Players.Player_id "
        "WHERE Ranking.Ranking = 1"
    )
    assert completion_violations(before, after, tennis) == [
        "level 0: FROM has 3 tables, minimum is 2"
    ]


def test_unjoined_from_is_caught(tennis):
    before = "SELECT Matches.Score FROM Matches WHERE Ranking.Ranking = 1"
    after = "SELECT Matches.Score FROM Matches, Ranking WHERE Ranking.Ranking = 1"
    assert completion_violations(before, after, tennis) == [
        "level 0: join conditions leave FROM ['matches', 'ranking'] unconnected"
    ]


def test_non_key_join_is_caught(tennis):
    before = "SELECT Matches.Score FROM Matches WHERE Ranking.Ranking = 1"
    after = (
        "SELECT Matches.Score FROM Matches JOIN Ranking ON Ranking.Year = Matches.Id "
        "WHERE Ranking.Ranking = 1"
    )
    assert completion_violations(before, after, tennis) == [
        "level 0: Ranking.Year = Matches.Id is not a declared foreign key"
    ]


@pytest.fixture(scope="module")
def tennis_lm():
    schemas = load_schemas(FIXTURES / "tables.json", FIXTURES / "content.json")
    gold = (
        "SELECT Players.First_name FROM Players JOIN Matches ON Matches.Winner_id = "
        "Players.Player_id WHERE Matches.Score = 'won'"
    )
    target = stripped_text(gold, schemas["tennis"])
    vocab = Vocabulary.build(schemas.values(), corpus_texts=[gold])
    return schemas["tennis"], vocab, target, StandInLM(vocab, {"0": vocab.tokenize(target)}, seed=3)


def test_standin_scores(tennis_lm):
    _, vocab, target, lm = tennis_lm
    ids = vocab.tokenize(target)
    everything = list(vocab.all_ids)
    for n in range(len(ids) + 1):
        prefix = ids[:n]
        expected = ids[n] if n < len(ids) else vocab.eos_id
        scores = lm.score_candidates((), prefix, everything, "0")
        assert scores[expected] == 0.0
        assert all(s <= 0.0 for s in scores)
        others = [s for c, s in zip(everything, scores) if c != expected]
        assert max(others) < 0.0  # the target is strictly best
        assert len(set(scores)) == len(scores)  # pairwise distinct


def test_standin_target_is_decoded(tennis_lm):
    schema, vocab, target, lm = tennis_lm
    assert target == "SELECT Players.First_name FROM Players WHERE Matches.Score = 'won'"
    constraint = LexiconConstraint(build_trie(schema, vocab), vocab)
    hyps = beam_search(lm, ["q"], constraint, beam_width=5, example_id="0")
    assert hyps[0].text(vocab) == target
    assert len({h.score for h in hyps}) == len(hyps)  # tie-free competitors


def test_pipeline_corpus_make_up():
    corpus = pipeline_corpus(5)
    n = len(PIPELINE_WIDTHS) * PIPELINE_PER_WIDTH
    assert len(corpus.examples) == n
    multi = sum(s != e["query"] for s, e in zip(corpus.stripped, corpus.examples))
    assert multi * 2 == n
    assert corpus.turn_mix() == {1: 21, 2: 7, 3: 7}
    assert pipeline_corpus(5).examples == corpus.examples


def test_offline_nested_block_ignores_seed():
    a, b = offline_corpus(1), offline_corpus(2)
    assert len(a.nested) == len(b.nested) == NESTED_EXAMPLES
    assert [a.stripped[i] for i in sorted(a.nested)] == [b.stripped[i] for i in sorted(b.nested)]
    assert len(a.examples) == len(b.examples)


def test_speed_scaling_arithmetic():
    meter = SpeedMeter()
    meter.samples = [REFERENCE_S] * MIN_SAMPLES + [2 * REFERENCE_S] * 10
    since, until = (1.0, MIN_SAMPLES), (3.0, MIN_SAMPLES + 10)
    assert meter.busy(since, until) == pytest.approx(2.0 - 20 * REFERENCE_S)
    assert meter.slowdown(since, until) == pytest.approx(2.0)
    assert meter.scaled(since, until) == pytest.approx((2.0 - 20 * REFERENCE_S) / 2)
    # a span with two probes borrows the six before it
    short = (2.9, MIN_SAMPLES + 8)
    assert meter.slowdown(short, until) == pytest.approx(2.0)
    assert meter.slowdown((0.0, 0), (0.5, 2)) == pytest.approx(1.0)
    assert SpeedMeter().scaled((0.0, 0), (0.5, 0)) == pytest.approx(0.5)


def test_speed_probes_run_while_the_main_thread_works():
    meter = SpeedMeter()
    meter.start()
    try:
        start = meter.mark()
        end_at = start[0] + 0.45
        while meter.mark()[0] < end_at:
            sum(range(1000))
        end = meter.mark()
    finally:
        meter.stop()
    assert end[1] - start[1] >= 2
    assert 0 < meter.busy(start, end) < end[0] - start[0]
