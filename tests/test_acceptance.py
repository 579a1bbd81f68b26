"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them inline)."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from structsql.complete import connect_terminals
from structsql.decode import (
    DecodeState,
    LexiconConstraint,
    RandomScorer,
    Vocabulary,
    beam_search,
    build_trie,
    oracle_scorer,
)
from structsql.linking import QuestionTokens, name_link
from structsql.annotate import linearize_schema
from structsql.metrics import score_corpus
from structsql.schema import (
    ColumnDef,
    ColumnType,
    DatabaseSchema,
    TableDef,
    build_schema_graph,
    load_schema,
)
from structsql.sql_ast import component_set, parse_sql, render_sql
from structsql.synth import generate_synthetic_corpus, random_query, random_schema_doc

from util_checks import (
    AdversarialScorer,
    advance,
    brute_force_connector,
    identifier_run_violations,
    node_at,
    to_spider_doc,
)


@contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds budget {budget}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")


def test_criterion_1_golden_structure_mark(tennis):
    with criterion("1 golden structure mark", budget=1.0):
        question = QuestionTokens.from_text("Who is the best player")
        links = name_link(question, tennis)
        tokens = linearize_schema(tennis, links)
        idx = tokens.index("Ranking.Player_id")
        rendered = " ".join(tokens[idx - 5 : idx + 1])
        assert rendered == "Partial-Match & Primary-Key & Integer Ranking.Player_id"


def test_criterion_2_oracle_completeness():
    with criterion("2 oracle completeness: 200 queries, QM = 1.0", budget=60.0):
        corpus = generate_synthetic_corpus(2024, 20, 200, with_values=True)
        schemas = {
            doc["db_id"]: load_schema(doc, content=corpus.content.get(doc["db_id"]))
            for doc in corpus.schema_docs
        }
        vocab = Vocabulary.build(
            schemas.values(), corpus_texts=[e["query"] for e in corpus.examples]
        )
        constraints = {
            db: LexiconConstraint(build_trie(schema, vocab), vocab)
            for db, schema in schemas.items()
        }
        predictions = []
        for ex in corpus.examples:
            gold = ex["query"]
            hyps = beam_search(
                oracle_scorer(gold, vocab),
                [ex["question"]],
                constraints[ex["db_id"]],
                beam_width=5,
                max_len=200,
            )
            predictions.append(hyps[0].text(vocab))
        report = score_corpus(
            predictions,
            [e["query"] for e in corpus.examples],
            db_ids=[e["db_id"] for e in corpus.examples],
            schemas=schemas,
        )
        assert report.qm == 1.0, report.summary()


def _greedy_fuzz_steps(constraint, vocab, seed, budget_steps, max_len=40):
    scorer = RandomScorer(vocab, seed=seed)
    sequences = []
    steps = 0
    session = 0
    while steps < budget_steps:
        session += 1
        scorer.seed = seed * 1_000 + session
        state = DecodeState()
        for _ in range(max_len):
            candidates = constraint.candidate_ids(state)
            scores = scorer.score_candidates([], state.tokens, candidates)
            best = max(zip(candidates, scores), key=lambda p: (p[1], -p[0]))[0]
            steps += 1
            if best == vocab.eos_id or steps >= budget_steps:
                break
            state = advance(constraint, state, best, 0.0)[0]
        sequences.append([vocab.surface(t) for t in state.tokens])
    return sequences, steps


def test_criterion_3_schema_faithfulness_fuzz():
    with criterion("3 schema faithfulness: 10,000 constrained steps, 0 violations"):
        rng = random.Random(99)
        total_steps = 0
        schema_index = 0
        while total_steps < 10_000:
            doc, content = random_schema_doc(rng, f"fuzz{schema_index}", with_values=True)
            schema_index += 1
            schema = load_schema(doc, content=content or None)
            vocab = Vocabulary.build([schema], corpus_texts=["SELECT 1 FROM x WHERE y = 'word salad'"])
            trie = build_trie(schema, vocab)
            constraint = LexiconConstraint(trie, vocab)
            forms = set(schema.surface_forms()) | {
                v for _, c in schema.iter_columns() for v in (c.sample_values or ())
            }
            keywords = {vocab.surface(i) for i in vocab.keyword_ids}
            literals = {vocab.surface(i) for i in vocab.literal_ids}
            sequences, steps = _greedy_fuzz_steps(
                constraint, vocab, seed=schema_index, budget_steps=2_000
            )
            total_steps += steps
            for seq in sequences:
                assert identifier_run_violations(seq, forms, keywords, literals) == 0, seq
        assert total_steps >= 10_000

    with criterion("3b constraint effect direction: lure leaks only when off"):
        schema = DatabaseSchema(
            db_id="people",
            tables=(
                TableDef(
                    name="People",
                    columns=(
                        ColumnDef("Citizenship", ColumnType.TEXT),
                        ColumnDef("Name", ColumnType.TEXT),
                    ),
                ),
            ),
        )
        gold = "SELECT People.Citizenship FROM People"
        vocab = Vocabulary.build([schema], corpus_texts=[gold, "Nation"])
        constraint = LexiconConstraint(build_trie(schema, vocab), vocab)
        adv = AdversarialScorer(
            vocab, vocab.tokenize(gold), vocab.id_of("Citizenship"), vocab.id_of("Nation")
        )
        forms = set(schema.surface_forms())
        keywords = {vocab.surface(i) for i in vocab.keyword_ids}
        literals = {vocab.surface(i) for i in vocab.literal_ids}

        off = beam_search(adv, ["q"], constraint, beam_width=1, max_len=30, constrained=False)
        off_tokens = [vocab.surface(t) for t in off[0].token_ids]
        assert identifier_run_violations(off_tokens, forms, keywords, literals) >= 1

        on = beam_search(adv, ["q"], constraint, beam_width=1, max_len=30)
        on_tokens = [vocab.surface(t) for t in on[0].token_ids]
        assert identifier_run_violations(on_tokens, forms, keywords, literals) == 0
        assert "Citizenship" in " ".join(on_tokens)
        assert "Nation" not in " ".join(on_tokens)


def _random_graph_doc(rng, n_tables):
    """Spider-format doc over a random (not necessarily connected) edge set,
    denser than the corpus generator's chains and stars."""
    columns = [[-1, "*"]]
    types = ["text"]
    pks = []
    fks = []
    possible = list(itertools.combinations(range(n_tables), 2))
    chosen = [e for e in possible if rng.random() < 0.35]
    # lay out columns table by table, adding one fk column per incident edge
    incident = {t: [] for t in range(n_tables)}
    for i, j in chosen:
        incident[j].append(i)  # the later table holds the key
    index = {}
    for t in range(n_tables):
        index[(t, "id")] = len(columns)
        pks.append(len(columns))
        columns.append([t, "id"])
        types.append("integer")
        for k, parent in enumerate(incident[t]):
            name = f"ref{parent}_{k}"
            index[(t, name)] = len(columns)
            columns.append([t, name])
            types.append("integer")
    for i, j in chosen:
        k = incident[j].index(i)
        fks.append([index[(j, f"ref{i}_{k}")], index[(i, "id")]])
    doc = {
        "db_id": "rnd",
        "table_names_original": [f"t{t}" for t in range(n_tables)],
        "column_names_original": columns,
        "column_types": types,
        "primary_keys": pks,
        "foreign_keys": fks,
    }
    return doc, [(i, j) for i, j in chosen]


def test_criterion_4_completion_optimality(tennis, tennis_graph):
    from structsql.complete import Disconnected

    with criterion("4 connector optimality vs exhaustive oracle", budget=120.0):
        rng = random.Random(4242)
        for g in range(100):
            n = rng.randint(2, 8)
            doc, edges = _random_graph_doc(rng, n)
            graph = build_schema_graph(load_schema(doc))
            for size in range(1, min(4, n) + 1):
                for terminals in itertools.combinations(range(n), size):
                    expected = brute_force_connector(n, edges, set(terminals))
                    names = [graph.tables[i] for i in terminals]
                    if expected is None:
                        with pytest.raises(Disconnected):
                            connect_terminals(graph, names)
                        continue
                    got = connect_terminals(graph, names)
                    assert len(got) == len(expected), (names, got, expected)
                    # deterministic tie-break: permuted terminals, same result
                    assert connect_terminals(graph, list(reversed(names))) == got

    with criterion("4b worked join-path example reproduces"):
        from structsql.complete import complete_sql

        assert connect_terminals(tennis_graph, ["Players", "Ranking"]) == [
            "Players", "Matches", "Ranking",
        ]
        q = parse_sql(
            "SELECT Players.First_name FROM Players JOIN Ranking WHERE Ranking.Ranking = 1",
            tennis,
        )
        fixed, plan = complete_sql(q, tennis, tennis_graph)
        assert plan.added_tables == ("Matches",)
        assert ("Matches.Winner_id", "Players.Player_id") in {
            (str(a), str(b)) for a, b in plan.join_conditions
        }
        assert "JOIN Matches ON" in render_sql(fixed)


def _uniform_corpus(rng):
    doc, _ = random_schema_doc(rng, "db", min_tables=2, max_tables=5)
    schema = load_schema(doc)
    turns = rng.randint(1, 3)
    n_interactions = rng.randint(1, 4)
    golds, preds, ids = [], [], []
    for i in range(n_interactions):
        for _ in range(turns):
            golds.append(render_sql(random_query(rng, schema)))
            roll = rng.random()
            if roll < 0.55:
                preds.append(golds[-1])
            elif roll < 0.85:
                preds.append(render_sql(random_query(rng, schema)))
            else:
                preds.append("NOT ( SQL")
            ids.append(f"i{i}")
    return preds, golds, ids, schema


def test_criterion_5_metric_properties():
    with criterion("5 IM <= QM on 1,000 random corpora"):
        rng = random.Random(555)
        checked = 0
        for _ in range(1_000):
            preds, golds, ids, schema = _uniform_corpus(rng)
            report = score_corpus(
                preds, golds, interaction_ids=ids, db_ids=[schema.db_id] * len(golds),
                schemas={schema.db_id: schema},
            )
            if report.im is not None:
                assert report.im <= report.qm + 1e-12
                checked += 1
        assert checked > 300

    with criterion("5b conjunct-permutation EM invariance on 500 pairs"):
        rng = random.Random(556)
        pairs = 0
        while pairs < 500:
            doc, _ = random_schema_doc(rng, "db", with_values=True)
            schema = load_schema(doc)
            query = random_query(rng, schema)
            if query.where is None or len(query.where.conditions) < 2:
                continue
            if not all(c == "AND" for c in query.where.connectors):
                continue
            import dataclasses

            from structsql.sql_ast import ConditionList

            order = list(range(len(query.where.conditions)))
            rng.shuffle(order)
            permuted = dataclasses.replace(
                query,
                where=ConditionList(
                    tuple(query.where.conditions[i] for i in order),
                    query.where.connectors,
                ),
            )
            assert component_set(query, schema=schema) == component_set(permuted, schema=schema)
            pairs += 1

    with criterion("5c gold-vs-gold rates are 1.0"):
        rng = random.Random(557)
        for _ in range(20):
            _, golds, ids, schema = _uniform_corpus(rng)
            report = score_corpus(
                golds, golds, interaction_ids=ids, db_ids=[schema.db_id] * len(golds),
                schemas={schema.db_id: schema},
            )
            assert report.qm == report.em == report.lx == 1.0
            if report.im is not None:
                assert report.im == 1.0


def _grid_schema(n_tables, cols_per_table):
    tables = []
    for t in range(n_tables):
        cols = tuple(
            ColumnDef(f"c{j:03d}", ColumnType.TEXT) for j in range(cols_per_table)
        )
        tables.append(TableDef(name=f"t{t:03d}", columns=cols))
    return DatabaseSchema(db_id=f"grid{n_tables}x{cols_per_table}", tables=tuple(tables))


def _mean_lookup_latency(schema, calls):
    vocab = Vocabulary.build([schema])
    trie = build_trie(schema, vocab)
    constraint = LexiconConstraint(trie, vocab)
    first_table = schema.tables[0].name
    mid = node_at(trie, vocab.tokenize(f"{first_table}."))
    terminal = node_at(trie, vocab.tokenize(f"{first_table}.c000"))
    states = [
        DecodeState(),
        DecodeState(tokens=(0,), node=mid),
        DecodeState(tokens=(0,), node=terminal),
    ]
    for s in states:  # warm the per-node caches
        constraint.candidate_ids(s)
    start = time.perf_counter()
    for i in range(calls):
        constraint.candidate_ids(states[i % 3])
    return (time.perf_counter() - start) / calls


def test_criterion_6_constant_time_lookup():
    with criterion("6 allowed-token lookup latency ratio <= 2x", budget=120.0):
        small = _grid_schema(1, 10)       # 10 columns
        big = _grid_schema(100, 100)      # 10,000 columns
        calls = 100_000
        # interleave measurements to damp drift; keep the best of 3 runs each
        small_best = min(_mean_lookup_latency(small, calls) for _ in range(3))
        big_best = min(_mean_lookup_latency(big, calls) for _ in range(3))
        ratio = big_best / small_best
        print(f"    mean latency small={small_best*1e9:.0f}ns big={big_best*1e9:.0f}ns ratio={ratio:.2f}")
        assert ratio <= 2.0, f"latency ratio {ratio:.2f} exceeds 2x"


def test_criterion_7_round_trips(tables_path):
    with criterion("7 parse/render identity on 1,000 generated queries"):
        rng = random.Random(777)
        produced = 0
        while produced < 1_000:
            doc, content = random_schema_doc(rng, "db", with_values=True)
            schema = load_schema(doc, content=content or None)
            for _ in range(10):
                query = random_query(rng, schema)
                assert parse_sql(render_sql(query), schema) == query
                produced += 1

    with criterion("7b schema load/re-serialize identity on bundled fixtures"):
        import json

        with open(tables_path, encoding="utf-8") as f:
            docs = json.load(f)
        assert len(docs) >= 3
        for doc in docs:
            assert to_spider_doc(load_schema(doc)) == doc


@pytest.mark.skip(
    reason="headline benchmark accuracies need a trained large neural scorer; "
    "attach one through the external scorer protocol to attempt them"
)
def test_criterion_8_headline_accuracies():
    pass
