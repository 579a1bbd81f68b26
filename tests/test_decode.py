import random
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsql.decode import (
    EOS_TOKEN,
    LITERAL,
    DecodeState,
    LexiconConstraint,
    NoValidHypothesis,
    OracleScorer,
    RandomScorer,
    TokenScorer,
    TrieNode,
    Untokenizable,
    Vocabulary,
    _mix,
    beam_search,
    build_trie,
    oracle_scorer,
)
from structsql.schema import DatabaseSchema, load_schema
from structsql.sql_ast import parse_sql, render_sql
from structsql.synth import generate_synthetic_corpus, random_query, random_schema_doc

from util_checks import (
    AdversarialScorer,
    MixedMagnitudeScorer,
    QuantizedScorer,
    advance,
    identifier_run_violations,
    iter_terminals,
    node_at,
    reference_beam_search,
    sequence_explained,
    state_key,
)


def surfaces(vocab, ids):
    return [vocab.surface(i) for i in ids]


def terminal_paths(trie):
    return {path for path, _ in iter_terminals(trie)}


def spelled(vocab, forms):
    return {tuple(vocab.tokenize(form)) for form in forms}


def sample_values(schema):
    return {v for _, col in schema.iter_columns() for v in col.sample_values or ()}


@pytest.fixture(scope="module")
def tennis_kit(tennis):
    corpus = [
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016",
        "SELECT Players.First_name FROM Players WHERE Players.Country = 'USA'",
    ]
    vocab = Vocabulary.build([tennis], corpus_texts=corpus)
    trie = build_trie(tennis, vocab)
    return vocab, trie


# -- vocabulary ---------------------------------------------------------------


def test_vocab_categories(tennis_kit):
    vocab, _ = tennis_kit
    assert vocab.id_of("SELECT") in vocab.keyword_ids
    assert vocab.id_of("2") in vocab.literal_ids  # a number is spelled digit by digit
    with pytest.raises(Untokenizable):
        vocab.id_of("2016")
    assert vocab.id_of("USA") in vocab.literal_ids  # observed inside quotes
    assert vocab.id_of("Ranking") not in vocab.literal_ids
    assert vocab.eos_id not in vocab.literal_ids


def test_detokenize_round_trip(tennis_kit):
    vocab, _ = tennis_kit
    text = "SELECT Players.First_name FROM Players WHERE Players.Country = 'USA'"
    assert vocab.detokenize(vocab.tokenize(text)) == text


# Literal forms the grammar admits that a whole-number, space-dropping
# token space could not spell back.
EXACT_LITERALS = ["'a  b'", "' lead'", "'a,b'", "'ümlaut-x'", "'1 2'", "'O''Brien'", "1.5"]


def literal_query(tennis, literal):
    text = f"SELECT Players.First_name FROM Players WHERE Players.Country = {literal}"
    return render_sql(parse_sql(text, tennis))


@pytest.mark.parametrize("literal", EXACT_LITERALS)
def test_token_round_trip_is_exact(tennis, literal):
    text = literal_query(tennis, literal)
    assert literal in text
    vocab = Vocabulary.build([tennis], corpus_texts=[text])
    assert vocab.detokenize(vocab.tokenize(text)) == text


def test_token_round_trip_synth_queries():
    corpus = generate_synthetic_corpus(5, 6, 200, with_values=True)
    schemas = {d["db_id"]: load_schema(d, corpus.content.get(d["db_id"])) for d in corpus.schema_docs}
    texts = [render_sql(parse_sql(e["query"], schemas[e["db_id"]])) for e in corpus.examples]
    vocab = Vocabulary.build(schemas.values(), corpus_texts=texts)
    for text in texts:
        assert vocab.detokenize(vocab.tokenize(text)) == text


def test_free_mask_holds_no_corpus_number():
    # Numbers are spelled with digit tokens, so the free mask does not grow
    # with the corpus.  Words quoted in the gold still enter it; they are set
    # aside here, since they are not what this test is about.
    masks = []
    for n in (50, 200, 800):
        corpus = generate_synthetic_corpus(0, 4, n)
        schemas = [load_schema(d) for d in corpus.schema_docs]
        texts = [e["query"] for e in corpus.examples]
        vocab = Vocabulary.build(schemas, corpus_texts=texts)
        quoted = {w for t in texts for run in t.split("'")[1::2] for w in run.split()}
        constraint = LexiconConstraint(build_trie(schemas[0], vocab), vocab)
        free = {vocab.surface(i) for i in constraint.candidate_ids(DecodeState())}
        masks.append(free - quoted)
    assert masks[0] == masks[1] == masks[2]
    assert set("0123456789") <= masks[0]


def test_tokenize_unknown_raises(tennis_kit):
    vocab, _ = tennis_kit
    with pytest.raises(Untokenizable):
        vocab.tokenize("Unseen_token_xyz")


# -- trie ---------------------------------------------------------------------


def test_trie_terminals_fig(tennis_kit):
    vocab, trie = tennis_kit
    paths = terminal_paths(trie)
    assert spelled(vocab, ["Ranking.Player_id", "Matches", "*"]) <= paths


def test_trie_empty_schema_star_only():
    schema = DatabaseSchema(db_id="empty", tables=())
    vocab = Vocabulary.build([schema])
    trie = build_trie(schema, vocab)
    assert terminal_paths(trie) == spelled(vocab, ["*"])


def test_trie_value_mode(tennis, tennis_kit):
    vocab, trie = tennis_kit  # tennis carries sample values: value mode
    node = node_at(trie, vocab.tokenize("2016"))
    assert node is not None and node.terminal
    assert tuple(vocab.tokenize("USA")) in terminal_paths(trie)
    forms = tennis.surface_forms() + sorted(sample_values(tennis))
    assert terminal_paths(trie) == spelled(vocab, forms)


def test_trie_terminal_count_membership_oracle():
    rng = random.Random(42)
    doc, _ = random_schema_doc(rng, "db", min_tables=5, max_tables=8)
    schema = load_schema(doc)
    vocab = Vocabulary.build([schema])
    trie = build_trie(schema, vocab)  # no content: names only
    # Independent membership scan: every surface form must be reachable by
    # walking children maps, and the terminal count must equal the name count.
    forms = set(schema.surface_forms())
    for form in forms:
        node = trie
        for token_id in vocab.tokenize(form):
            node = node.children[token_id]
        assert node.terminal
    assert sum(1 for _ in iter_terminals(trie)) == len(forms)
    assert terminal_paths(trie) == spelled(vocab, forms)


def test_trie_untokenizable_name():
    doc = {
        "db_id": "bad",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "c"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    schema = load_schema(doc)
    vocab = Vocabulary([">", "</s>"])  # no schema pieces at all
    with pytest.raises(Untokenizable):
        build_trie(schema, vocab)


# -- candidate_ids ---------------------------------------------------------------


def allowed_set(constraint, state):
    """The legal next ids of ``state``, checked to come in ascending order."""
    ids = constraint.candidate_ids(state)
    assert list(ids) == sorted(set(ids))
    return set(ids)


def test_allowed_mid_path_children_only(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    prefix = vocab.tokenize("Ranking.")
    node = node_at(trie, prefix)
    state = DecodeState(tokens=tuple(prefix), node=node)
    allowed = allowed_set(constraint, state)
    expected = {vocab.id_of("Player_id"), vocab.id_of("Ranking"), vocab.id_of("Year")}
    assert allowed == expected


def test_allowed_fresh_state_with_empty_trie():
    schema = DatabaseSchema(db_id="empty", tables=())
    vocab = Vocabulary.build([schema], corpus_texts=["SELECT 1 FROM x WHERE y = 'z'"])
    trie = build_trie(schema, vocab)
    constraint = LexiconConstraint(trie, vocab)
    allowed = allowed_set(constraint, DecodeState())
    star_root = set(trie.children)
    assert allowed == vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id} | star_root


def test_allowed_at_terminal_without_extension(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    ids = vocab.tokenize("Ranking.Year")
    node = node_at(trie, ids)
    assert node.terminal and not node.children
    state = DecodeState(tokens=tuple(ids), node=node)
    allowed = allowed_set(constraint, state)
    assert allowed == vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id}


def test_allowed_at_terminal_with_extension(tennis_kit):
    vocab, trie = tennis_kit
    # "Ranking" is a table terminal and a prefix of "Ranking.Year"
    ids = vocab.tokenize("Ranking")
    node = node_at(trie, ids)
    assert node.terminal and node.children
    constraint = LexiconConstraint(trie, vocab)
    state = DecodeState(tokens=tuple(ids), node=node)
    allowed = allowed_set(constraint, state)
    assert vocab.id_of(".") in allowed
    assert vocab.id_of("FROM") in allowed
    assert vocab.eos_id in allowed


def test_allowed_inside_literal_suspends_trie(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    state = DecodeState(tokens=(vocab.quote_id,), node=LITERAL)
    allowed = allowed_set(constraint, state)
    assert vocab.eos_id not in allowed
    assert len(allowed) == len(vocab) - 1


def test_number_cursor(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    two, five, dot = vocab.id_of("2"), vocab.id_of("5"), vocab.id_of(".")
    free = allowed_set(constraint, DecodeState())
    assert dot not in free
    # The tennis cells 2013, 2016 and 2016-01-05 make "2" a trie root child
    # too: the number cursor comes first.
    after_two = advance(constraint, DecodeState(), two, 0.0)
    assert [s.node for s in after_two] == [constraint.number, trie.children[two]]
    number = after_two[0]
    # The number may end (EOS, keywords), go on, or take a fraction.
    free_base = vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id}
    assert allowed_set(constraint, number) == free_base | {dot}
    assert [s.node for s in advance(constraint, number, five, 0.0)] == [constraint.number]
    (point,) = advance(constraint, number, dot, 0.0)
    assert allowed_set(constraint, point) == vocab.digit_ids
    assert [s.node for s in advance(constraint, point, five, 0.0)] == [constraint.number]


def test_no_keyword_leak_mid_identifier(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    prefix = vocab.tokenize("Players.")
    state = DecodeState(tokens=tuple(prefix), node=node_at(trie, prefix))
    allowed = allowed_set(constraint, state)
    assert not allowed & vocab.keyword_ids
    assert vocab.eos_id not in allowed


@given(seed=st.integers(0, 2**32 - 1), with_values=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_advance_successors_have_distinct_keys(seed, with_values, data):
    # Cell values are trie terminals and free literals at once, so a value
    # token can both open a trie path and stand alone.
    doc, content = random_schema_doc(random.Random(seed), "db", max_tables=4, with_values=with_values)
    schema = load_schema(doc, content=content or None)
    vocab = Vocabulary.build([schema], corpus_texts=["SELECT 1 FROM x WHERE y = 'z'"])
    constraint = LexiconConstraint(build_trie(schema, vocab), vocab)
    state = DecodeState()
    for _ in range(data.draw(st.integers(1, 30))):
        candidates = [c for c in constraint.candidate_ids(state) if c != vocab.eos_id]
        successors = advance(constraint, state, data.draw(st.sampled_from(candidates)), 0.0)
        keys = [state_key(succ) for succ in successors]
        assert len(set(keys)) == len(keys), keys
        state = data.draw(st.sampled_from(successors))


# -- beam search -----------------------------------------------------------------


GOLD_QUERIES = [
    "SELECT * FROM Matches",
    "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016",
    "SELECT COUNT(*) FROM Players WHERE Players.Country = 'USA'",
    "SELECT Players.First_name FROM Players JOIN Matches ON Matches.Winner_id = Players.Player_id",
]


@pytest.mark.parametrize("gold", GOLD_QUERIES)
@pytest.mark.parametrize("width", [1, 3, 5])
def test_oracle_reproduces_gold(tennis, gold, width):
    vocab = Vocabulary.build([tennis], corpus_texts=GOLD_QUERIES)
    constraint = LexiconConstraint(build_trie(tennis, vocab), vocab)
    hyps = beam_search(oracle_scorer(gold, vocab), ["q"], constraint, beam_width=width, max_len=120)
    assert hyps[0].text(vocab) == gold


@pytest.mark.parametrize("literal", ["'O''Brien'", "'a  b'", "1.5"])
@pytest.mark.parametrize("width", [1, 5])
def test_oracle_reproduces_exact_literals(tennis, literal, width):
    gold = literal_query(tennis, literal)
    vocab = Vocabulary.build([tennis], corpus_texts=[gold])
    constraint = LexiconConstraint(build_trie(tennis, vocab), vocab)
    hyps = beam_search(oracle_scorer(gold, vocab), ["q"], constraint, beam_width=width, max_len=60)
    assert hyps[0].text(vocab) == gold


def test_width_one_equals_manual_greedy(tennis_kit):
    vocab, trie = tennis_kit
    gold = "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016"
    scorer = oracle_scorer(gold, vocab)
    constraint = LexiconConstraint(trie, vocab)

    # Manual argmax-with-mask loop, re-implemented without beam_search.
    state = DecodeState()
    out = []
    for _ in range(100):
        candidates = constraint.candidate_ids(state)
        scores = scorer.score_candidates([], state.tokens, candidates)
        best = max(zip(candidates, scores), key=lambda p: (p[1], -p[0]))[0]
        if best == vocab.eos_id:
            break
        out.append(best)
        state = advance(constraint, state, best, 0.0)[0]

    hyp = beam_search(scorer, ["q"], constraint, beam_width=1, max_len=100)[0]
    assert list(hyp.token_ids) == out


def test_oracle_eos_behavior(tennis_kit):
    vocab, _ = tennis_kit
    scorer = oracle_scorer("SELECT * FROM Matches", vocab)
    target = vocab.tokenize("SELECT * FROM Matches")
    longer = tuple(target) + (vocab.id_of("FROM"),)
    scores = scorer.score_candidates([], longer, [vocab.eos_id, vocab.id_of("SELECT")])
    assert scores == [1.0, 0.0]


def test_oracle_empty_target_rejected(tennis_kit):
    vocab, _ = tennis_kit
    with pytest.raises(ValueError):
        oracle_scorer("", vocab)


def test_oracle_against_schema_violating_target(tennis):
    # The target references a token outside the schema; masking makes it
    # unreachable, so no hypothesis ever contains it and the target is never
    # reproduced.
    vocab = Vocabulary.build([tennis], corpus_texts=["Nation"])
    constraint = LexiconConstraint(build_trie(tennis, vocab), vocab)
    target = [vocab.id_of(t) for t in ["SELECT", "Nation", "FROM", "Players"]]
    scorer = OracleScorer(vocab, target)
    hyps = beam_search(scorer, ["q"], constraint, beam_width=3, max_len=12)
    for hyp in hyps:
        assert vocab.id_of("Nation") not in hyp.token_ids
        assert list(hyp.token_ids) != target


def test_adversarial_lure_blocked(tennis):
    gold = "SELECT Players.Country FROM Players"
    vocab = Vocabulary.build([tennis], corpus_texts=[gold, "Nation"])
    constraint = LexiconConstraint(build_trie(tennis, vocab), vocab)
    adv = AdversarialScorer(
        vocab, vocab.tokenize(gold), vocab.id_of("Country"), vocab.id_of("Nation")
    )
    unconstrained = beam_search(adv, ["q"], constraint, beam_width=1, max_len=40, constrained=False)
    constrained = beam_search(adv, ["q"], constraint, beam_width=1, max_len=40)
    assert "Nation" in unconstrained[0].text(vocab)
    assert "Nation" not in constrained[0].text(vocab)
    assert "Country" in constrained[0].text(vocab)


@given(
    seed=st.integers(-(2**70), 2**70),
    prefix=st.lists(st.integers(-1, 2**66), max_size=5),
    candidates=st.lists(st.integers(-(2**66), 2**66), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_random_scorer_scores_are_mix_bit_for_bit(tennis_kit, seed, prefix, candidates):
    last = prefix[-1] if prefix else -1
    expected = [_mix(seed, len(prefix), last, c) / float(1 << 64) for c in candidates]
    got = RandomScorer(tennis_kit[0], seed=seed).score_candidates(["q"], prefix, candidates)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


class EosAverseScorer(RandomScorer):
    """Continuations always outrank finishing; forces max_len exhaustion."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        return [
            -1.0 if c == self.vocab.eos_id else s for c, s in zip(candidates, scores)
        ]


def test_all_beams_pruned_raises(tennis_kit):
    vocab, trie = tennis_kit
    constraint = LexiconConstraint(trie, vocab)
    with pytest.raises(NoValidHypothesis):
        beam_search(EosAverseScorer(vocab, seed=4), ["q"], constraint, beam_width=2, max_len=8)


@pytest.mark.parametrize("terminal", [True, False])
def test_beam_that_empties_early_returns_what_finished(terminal):
    # The trie spells one form, "a".  Ended there, only EOS may follow it;
    # left unended, nothing may.  Either way the beam is empty after two of
    # ten steps, with fewer than five hypotheses finished.
    vocab = Vocabulary([EOS_TOKEN, "a"])
    a = vocab.id_of("a")
    root = TrieNode()
    root.children[a] = TrieNode()
    root.children[a].terminal = terminal
    steps = []

    class CountingScorer(RandomScorer):
        def score_candidates(self, source, prefix, candidates, example_id=None):
            steps.append(len(prefix))
            return super().score_candidates(source, prefix, candidates, example_id)

    args = (CountingScorer(vocab, seed=1), ["q"], LexiconConstraint(root, vocab))
    if terminal:
        assert [h.token_ids for h in beam_search(*args, beam_width=5, max_len=10)] == [(a,)]
    else:
        with pytest.raises(NoValidHypothesis):
            beam_search(*args, beam_width=5, max_len=10)
    assert steps == [0, 1]


def test_beam_parameter_validation(tennis_kit):
    vocab, trie = tennis_kit
    scorer = oracle_scorer("SELECT * FROM Matches", vocab)
    constraint = LexiconConstraint(trie, vocab)
    with pytest.raises(ValueError):
        beam_search(scorer, ["q"], constraint, beam_width=0)
    with pytest.raises(ValueError):
        beam_search(scorer, ["q"], constraint, max_len=0)


class JitteredOracle(OracleScorer):
    """Oracle plus a small deterministic per-candidate jitter."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        base = super().score_candidates(source, prefix, candidates, example_id)
        return [
            s + ((hash((len(prefix), c)) % 997) / 997 - 0.5) * 0.001
            for s, c in zip(base, candidates)
        ]


def test_ranking_deterministic(tennis_kit):
    vocab, trie = tennis_kit
    gold = "SELECT Ranking.Year FROM Ranking"
    constraint = LexiconConstraint(trie, vocab)
    a = beam_search(JitteredOracle(vocab, vocab.tokenize(gold)), ["q"], constraint, beam_width=3, max_len=30)
    b = beam_search(JitteredOracle(vocab, vocab.tokenize(gold)), ["q"], constraint, beam_width=3, max_len=30)
    assert [h.token_ids for h in a] == [h.token_ids for h in b]
    assert all(x.score >= y.score for x, y in zip(a, a[1:]))


def test_oracle_property_random_queries(tennis):
    rng = random.Random(77)
    corpus = [render_sql(random_query(rng, tennis)) for _ in range(25)]
    vocab = Vocabulary.build([tennis], corpus_texts=corpus)
    constraint = LexiconConstraint(build_trie(tennis, vocab), vocab)
    for gold in corpus:
        width = rng.choice((1, 2, 5))
        hyps = beam_search(oracle_scorer(gold, vocab), ["q"], constraint, beam_width=width, max_len=150)
        assert hyps[0].text(vocab) == gold


class MaskedScorer(RandomScorer):
    """Random scores with a seeded third of the candidates at -inf, and
    every candidate at -inf after about one prefix in six."""

    def __init__(self, vocab, seed=0):
        super().__init__(vocab, seed)
        self.mask = RandomScorer(vocab, seed=seed + 1)

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        masks = self.mask.score_candidates(source, prefix, [-1, *candidates], example_id)
        if masks[0] < 1 / 6:
            return [-inf] * len(scores)
        return [-inf if m < 1 / 3 else s for s, m in zip(scores, masks[1:])]


def _outcome(search, scorer, trie, **kwargs):
    # An unconstrained search (trie None) never consults its constraint.
    constraint = LexiconConstraint(trie or TrieNode(), scorer.vocab)
    try:
        return [(h.token_ids, h.score) for h in search(scorer, ["q"], constraint, **kwargs)]
    except NoValidHypothesis:
        return NoValidHypothesis


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    with_values=st.booleans(),
    beam=st.integers(min_value=1, max_value=8),
    max_len=st.integers(min_value=1, max_value=60),
    constrained=st.booleans(),
    kind=st.sampled_from(["oracle", "scrambled", "random", "quantized", "mixed", "masked"]),
)
# Draws where a bare value enters the beam twice (value-trie cursor and free
# literal) with equal score: the result depends on the successors' order.
@example(seed=163, with_values=True, beam=1, max_len=20, constrained=True, kind="scrambled")
@example(seed=182, with_values=True, beam=1, max_len=20, constrained=True, kind="scrambled")
@settings(max_examples=60, deadline=None)
def test_beam_search_matches_reference(seed, with_values, beam, max_len, constrained, kind):
    rng = random.Random(seed)
    doc, content = random_schema_doc(rng, "db", max_tables=4, with_values=with_values)
    schema = load_schema(doc, content=content or None)
    corpus = [render_sql(random_query(rng, schema)) for _ in range(3)]
    vocab = Vocabulary.build([schema], corpus_texts=corpus)
    if kind == "oracle":
        scorer = oracle_scorer(corpus[0], vocab)
    elif kind == "scrambled":
        # Oracle of a random token string: mostly masked, so 0.0 ties, and
        # bare values that the trie and the literal set both accept.
        tokens = [i for i in vocab.all_ids if i != vocab.eos_id]
        scorer = OracleScorer(vocab, rng.choices(tokens, k=12))
    else:
        scorer = {"random": RandomScorer, "quantized": QuantizedScorer,
                  "mixed": MixedMagnitudeScorer, "masked": MaskedScorer}[kind](vocab, seed=seed)
    trie = build_trie(schema, vocab) if constrained else None
    kwargs = dict(beam_width=beam, max_len=max_len, constrained=constrained)
    assert _outcome(beam_search, scorer, trie, **kwargs) == _outcome(
        reference_beam_search, scorer, trie, **kwargs
    )


class TableScorer(TokenScorer):
    """Scores looked up by prefix, -8 for a token the prefix's row lacks;
    every prefix scored is logged, in order."""

    def __init__(self, vocab, table):
        super().__init__(vocab)
        self.table, self.prefixes = table, []

    def score_candidates(self, source, prefix, candidates, example_id=None):
        self.prefixes.append(tuple(prefix))
        row = self.table.get(tuple(prefix), {})
        return [row.get(c, -8.0) for c in candidates]


def test_rounded_tie_at_the_cut_goes_to_the_lower_token():
    # After "a" (summed score 2**20) the raw scores of EOS, "c" and "b"
    # fall in that order but all round to the same sum, which is also the
    # beam-1 step's 2nd and last place: EOS takes the first and "b", the
    # lower id, the second, though "c" scored higher.
    vocab = Vocabulary([EOS_TOKEN, "a", "b", "c", "d"])
    eos, a, b, c = (vocab.id_of(t) for t in (EOS_TOKEN, "a", "b", "c"))
    table = {
        (): {a: 2.0**20},
        (a,): {eos: 2.0**-39, c: 2.0**-40, b: 2.0**-41},
        (a, b): {eos: 0.0},
    }
    assert len({2.0**20 + v for v in table[(a,)].values()}) == 1
    runs = []
    for search in (beam_search, reference_beam_search):
        scorer = TableScorer(vocab, table)
        runs.append((_outcome(search, scorer, None, beam_width=1, max_len=4,
                              constrained=False), scorer.prefixes))
    assert runs[0] == runs[1]
    assert runs[0] == ([((a,), 2.0**20)], [(), (a,), (a, b)])


class HalfQuantizedScorer(RandomScorer):
    """Random scores rounded to halves: EOS ties other tokens at most steps."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        return [round(s * 2) / 2 for s in scores]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beam=st.integers(min_value=1, max_value=6),
    max_len=st.integers(min_value=1, max_value=30),
    constrained=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_beam_search_matches_reference_eos_not_first(seed, beam, max_len, constrained):
    # Vocabulary.build puts EOS at id 0, where ranking it by its id is the
    # same as ranking it first; move it so a wrong EOS tie key shows.
    rng = random.Random(seed)
    doc, content = random_schema_doc(rng, "db", max_tables=3, with_values=True)
    schema = load_schema(doc, content=content or None)
    corpus = [render_sql(random_query(rng, schema))]
    built = Vocabulary.build([schema], corpus_texts=corpus)
    tokens = [built.surface(i) for i in built.all_ids if i != built.eos_id]
    tokens.insert(rng.randrange(1, len(tokens) + 1), EOS_TOKEN)
    vocab = Vocabulary(tokens, [built.surface(i) for i in built.literal_ids])
    assert vocab.eos_id > 0
    scorer = HalfQuantizedScorer(vocab, seed=seed)
    trie = build_trie(schema, vocab) if constrained else None
    kwargs = dict(beam_width=beam, max_len=max_len, constrained=constrained)
    assert _outcome(beam_search, scorer, trie, **kwargs) == _outcome(
        reference_beam_search, scorer, trie, **kwargs
    )


class SharedTokensScorer(OracleScorer):
    """Oracle plus quantized noise (ties everywhere) that counts the steps at
    which two live hypotheses hold equal tokens."""

    def __init__(self, vocab, target_ids, seed):
        super().__init__(vocab, target_ids)
        self.noise = QuantizedScorer(vocab, seed=seed)
        self.shared_steps = 0

    def score_candidates(self, source, prefix, candidates, example_id=None):
        oracle = super().score_candidates(source, prefix, candidates, example_id)
        noise = self.noise.score_candidates(source, prefix, candidates, example_id)
        return [a + b / 2 for a, b in zip(oracle, noise)]

    def score_batch(self, requests):
        for request in requests:
            self.shared_steps += len(set(map(tuple, request.prefixes))) < len(request.prefixes)
        return super().score_batch(requests)


# "a" is a table and the prefix of the table "a b", and "b" is a table: after
# "a b" one hypothesis is inside "a b" and one has started "b", so two parents
# hold equal tokens with different cursors, and a keyword after either gives
# both the same successor.
SHARED_DOC = {
    "db_id": "shared",
    "table_names_original": ["a", "b", "a b"],
    "column_names_original": [[-1, "*"], [0, "x"], [1, "y"], [2, "x"]],
    "column_types": ["text", "number", "number", "number"],
    "primary_keys": [1],
    "foreign_keys": [],
}
SHARED_GOLD = "SELECT a b.x FROM a b"


@pytest.mark.parametrize("beam", [1, 2, 5])
def test_beam_search_matches_reference_shared_tokens(beam):
    schema = load_schema(SHARED_DOC)
    gold = SHARED_GOLD
    vocab = Vocabulary.build([schema], corpus_texts=[gold])
    trie = build_trie(schema, vocab)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    after_a = DecodeState((a,), node_at(trie, (a,)))
    assert len(advance(LexiconConstraint(trie, vocab), after_a, b, 0.0)) == 2
    # Plain quantized scores also tie successors of parents whose scores and
    # tokens rank in opposite orders.
    shared = 0
    kwargs = dict(beam_width=beam, max_len=12, constrained=True)
    for seed in range(10):
        tied = SharedTokensScorer(vocab, vocab.tokenize(gold), seed)
        for scorer in (tied, QuantizedScorer(vocab, seed=seed)):
            assert _outcome(beam_search, scorer, trie, **kwargs) == _outcome(
                reference_beam_search, scorer, trie, **kwargs
            ), (seed, type(scorer).__name__)
        shared += tied.shared_steps
    assert shared > 0 or beam == 1


class SteppedScorer(OracleScorer):
    """Oracle of a target plus random noise rounded to multiples of
    ``quantum``, each nudged up by ``nudge`` or not: the summed scores of
    different parents tie exactly or differ by a nudge.  EOS noise lies in
    the top quarter, so hypotheses finish at most steps.  Every prefix
    scored is logged, in order."""

    def __init__(self, vocab, target_ids, seed, quantum, nudge):
        super().__init__(vocab, target_ids)
        self.noise = RandomScorer(vocab, seed=seed)
        self.quantum, self.nudge = quantum, nudge
        self.prefixes = []

    def _step(self, raw, candidate):
        if candidate == self.eos_id:
            raw = (raw + 3) / 4
        return round(raw / self.quantum) * self.quantum + self.nudge * (int(raw * 1024) & 1)

    def score_candidates(self, source, prefix, candidates, example_id=None):
        self.prefixes.append(tuple(prefix))
        oracle = super().score_candidates(source, prefix, candidates, example_id)
        noise = self.noise.score_candidates(source, prefix, candidates, example_id)
        return [a + self._step(raw, c) for a, raw, c in zip(oracle, noise, candidates)]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shared=st.booleans(),
    beam=st.integers(min_value=1, max_value=5),
    max_len=st.integers(min_value=1, max_value=24),
    constrained=st.booleans(),
    quantum=st.sampled_from([1 / 4, 1 / 16, 1 / 64]),
    nudge=st.sampled_from([0.0, 2.0**-30]),
)
# Ties at the floor: a later parent's candidate sums exactly to the floor, and
# its smaller tokens rank it before the full parent's 2*beam-th.
@example(seed=2612, shared=True, beam=4, max_len=16, constrained=False, quantum=1 / 4, nudge=0.0)
# Merged keys: two parents with equal tokens reach the same (token, cursor),
# which is one pool key however many parents reach it.
@example(seed=6212, shared=True, beam=5, max_len=8, constrained=True, quantum=1 / 4, nudge=2.0**-30)
@settings(max_examples=60, deadline=None)
def test_beam_search_matches_reference_at_the_score_floor(
    seed, shared, beam, max_len, constrained, quantum, nudge
):
    # Coarse steps tie the summed scores of many live parents, so a step's
    # score floor often equals, or lies a nudge from, later candidates'.
    rng = random.Random(seed)
    if shared:
        schema, corpus = load_schema(SHARED_DOC), [SHARED_GOLD]
    else:
        doc, content = random_schema_doc(rng, "db", max_tables=3, with_values=True)
        schema = load_schema(doc, content=content or None)
        corpus = [render_sql(random_query(rng, schema)) for _ in range(2)]
    vocab = Vocabulary.build([schema], corpus_texts=corpus)
    trie = build_trie(schema, vocab) if constrained else None
    kwargs = dict(beam_width=beam, max_len=max_len, constrained=constrained)
    # The scored prefixes are every step's live hypotheses, in beam order.
    runs = []
    for search in (beam_search, reference_beam_search):
        scorer = SteppedScorer(vocab, vocab.tokenize(corpus[0]), seed, quantum, nudge)
        runs.append((_outcome(search, scorer, trie, **kwargs), scorer.prefixes))
    assert runs[0] == runs[1]


# -- schema faithfulness fuzz -----------------------------------------------------


def fuzz_steps(schema, vocab, trie, seed, n_steps, max_len=50):
    """Greedy random-scorer stepping; returns emitted surface sequences."""
    constraint = LexiconConstraint(trie, vocab)
    scorer = RandomScorer(vocab, seed=seed)
    sequences = []
    steps = 0
    session = 0
    while steps < n_steps:
        state = DecodeState()
        session += 1
        scorer.seed = seed + session
        for _ in range(max_len):
            candidates = constraint.candidate_ids(state)
            scores = scorer.score_candidates([], state.tokens, candidates)
            best = max(zip(candidates, scores), key=lambda p: (p[1], -p[0]))[0]
            steps += 1
            if best == vocab.eos_id or steps >= n_steps:
                break
            state = advance(constraint, state, best, 0.0)[0]
        sequences.append([vocab.surface(t) for t in state.tokens])
    return sequences


def test_fuzz_constrained_no_out_of_schema_runs(tennis):
    vocab = Vocabulary.build(
        [tennis],
        corpus_texts=["SELECT Ranking.Year FROM Ranking WHERE Players.Country = 'USA'"],
    )
    trie = build_trie(tennis, vocab)
    forms = set(tennis.surface_forms())
    keywords = {vocab.surface(i) for i in vocab.keyword_ids}
    literals = {vocab.surface(i) for i in vocab.literal_ids}
    for seq in fuzz_steps(tennis, vocab, trie, seed=3, n_steps=2000):
        assert identifier_run_violations(seq, forms, keywords, literals) == 0


def test_finished_hypotheses_fully_explained(tennis_kit, tennis):
    vocab, trie = tennis_kit
    forms = set(tennis.surface_forms())
    keywords = {vocab.surface(i) for i in vocab.keyword_ids}
    literals = {vocab.surface(i) for i in vocab.literal_ids}
    scorer = RandomScorer(vocab, seed=123)
    hyps = beam_search(scorer, ["q"], LexiconConstraint(trie, vocab), beam_width=4, max_len=25)
    for hyp in hyps:
        seq = surfaces(vocab, hyp.token_ids)
        assert sequence_explained(seq, forms, keywords, literals), seq
