import base64
import json
import math
import socket
import socketserver
import struct
import threading
import time

import pytest

from structsql import cli
from structsql.annotate import build_input
from structsql.cli import PipelineConfig, load_examples, run_pipeline
from structsql.decode import (
    LexiconConstraint,
    NoValidHypothesis,
    ProtocolViolation,
    RandomScorer,
    ScorerServer,
    ScorerTimeout,
    TokenScorer,
    TransportError,
    Vocabulary,
    beam_search,
    build_trie,
    external_scorer_connect,
    oracle_scorer,
)
from structsql.linking import QuestionTokens, name_link
from structsql.schema import load_schemas
from structsql.synth import generate_synthetic_corpus, write_corpus

from util_checks import MixedMagnitudeScorer, QuantizedScorer


@pytest.fixture(scope="module")
def kit(tennis):
    gold = "SELECT Ranking.Year FROM Ranking WHERE Ranking.Year = 2016"
    vocab = Vocabulary.build([tennis], corpus_texts=[gold])
    return vocab, LexiconConstraint(build_trie(tennis, vocab), vocab), gold


def packed(scores):
    return base64.b64encode(struct.pack(f"<{len(scores)}d", *scores)).decode("ascii")


class MisbehavingServer(socketserver.ThreadingTCPServer):
    """Protocol v2 server with scriptable faults; ``ended`` is set once a
    client connection has closed."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, vocab, mode):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    request = json.loads(raw)
                    if request["type"] == "hello":
                        reply = {
                            "type": "vocab",
                            "protocol": 2,
                            "size": len(vocab),
                            "eos_id": vocab.eos_id,
                            "tokenizer_tag": "wordpiece-v1",
                        }
                        if mode == "bad_vocab":
                            reply.update(size=1, eos_id=0, tokenizer_tag="x")
                        elif mode == "missing_field":
                            del reply["eos_id"], reply["tokenizer_tag"]
                        elif mode == "v1_hello":
                            del reply["protocol"]
                        elif mode == "v3_hello":
                            reply["protocol"] = 3
                    else:
                        n = sum(request["lengths"])
                        reply = {
                            "type": "scores",
                            "example_id": request["example_id"],
                            "scores": packed([0.0] * n),
                        }
                        if mode == "short_scores":
                            reply["scores"] = packed([0.5])
                        elif mode == "wrong_example":
                            reply["example_id"] = "nope"
                        elif mode == "not_json":
                            self.wfile.write(b"garbage\n")
                            self.wfile.flush()
                            continue
                        elif mode == "slow":
                            time.sleep(0.8)
                        elif mode == "nan":
                            reply["scores"] = packed([float("nan")] * n)
                        elif mode == "bad_base64":
                            # Stray characters that a lax decoder would skip.
                            reply["scores"] = "!" + packed([0.0] * n)
                        elif mode == "odd_bytes":
                            reply["scores"] = base64.b64encode(bytes(8 * n - 3)).decode()
                    self.wfile.write((json.dumps(reply) + "\n").encode())
                    self.wfile.flush()
                outer.ended.set()

        self.ended = threading.Event()
        super().__init__(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server_address
        return f"{host}:{port}"

    def close(self):
        self.shutdown()
        self.server_close()


class CountingServer(ScorerServer):
    """Reference server that keeps every ``score`` request it answers."""

    def __init__(self, scorer):
        self.score_requests = []
        super().__init__(scorer)

    def _respond(self, request):
        if request.get("type") == "score":
            self.score_requests.append(request)
        return super()._respond(request)


def test_handshake_echoes_vocab(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        assert scorer.tokenizer_tag == "wordpiece-v1"
        scorer.close()
    finally:
        server.close()


def test_request_with_two_candidates_gets_two_scores(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        target = vocab.tokenize(gold)
        scores = scorer.score_candidates([], [], [target[0], vocab.eos_id], "ex0")
        assert len(scores) == 2
        assert scores == [1.0, 0.0]
        scorer.close()
    finally:
        server.close()


def test_remote_decode_matches_local(kit):
    vocab, constraint, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        local = beam_search(oracle_scorer(gold, vocab), ["q"], constraint, beam_width=2, max_len=80)
        via_wire = beam_search(remote, ["q"], constraint, beam_width=2, max_len=80)
        assert [h.token_ids for h in via_wire] == [h.token_ids for h in local]
        remote.close()
    finally:
        server.close()


def test_server_close_returns_promptly(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    start = time.perf_counter()
    server.close()
    assert time.perf_counter() - start < 0.25


def test_short_scores_is_protocol_violation(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "short_scores")
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(ProtocolViolation):
            scorer.score_candidates([], [], [1, 2], "ex")
        scorer.close()
    finally:
        server.close()


@pytest.mark.parametrize(
    "mode", ["wrong_example", "not_json", "nan", "bad_base64", "odd_bytes"]
)
def test_bad_responses_are_protocol_violations(kit, mode):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, mode)
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(ProtocolViolation):
            scorer.score_candidates([], [], [1, 2], "ex")
        scorer.close()
    finally:
        server.close()


def test_vocab_mismatch_rejected(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "bad_vocab")
    try:
        with pytest.raises(ProtocolViolation):
            external_scorer_connect(server.endpoint, vocab)
    finally:
        server.close()


def test_missing_handshake_field_rejected(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "missing_field")
    try:
        with pytest.raises(ProtocolViolation):
            external_scorer_connect(server.endpoint, vocab)
    finally:
        server.close()


@pytest.mark.parametrize("mode", ["v1_hello", "v3_hello"])
def test_hello_without_protocol_2_rejected(kit, mode):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, mode)
    try:
        with pytest.raises(ProtocolViolation, match="protocol"):
            external_scorer_connect(server.endpoint, vocab)
    finally:
        server.close()


@pytest.mark.parametrize("hello", [{"type": "hello"}, {"type": "hello", "protocol": 1}])
def test_server_answers_other_protocols_with_an_error(kit, hello):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps(hello) + "\n")
            stream.flush()
            reply = json.loads(stream.readline())
        assert reply["type"] == "error" and "protocol" in reply["message"]
    finally:
        server.close()


@pytest.mark.parametrize("source", [None, "q", [1, 2], ["q", None]])
def test_server_rejects_a_score_message_without_a_string_list_source(kit, source):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    request = {"type": "score", "example_id": "e", "prefixes": [[]], "lengths": [1],
               "candidates": base64.b64encode(struct.pack("<i", 1)).decode("ascii")}
    if source is not None:
        request["source"] = source
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            reply = json.loads(stream.readline())
        assert reply["type"] == "error" and "source" in reply["message"]
    finally:
        server.close()


@pytest.mark.parametrize(
    "prefixes, lengths",
    [([[], [3]], [-1, 2]), ([[]], [1.0]), ([[]], [True]), ([["a"]], [1]), ([None], [1]),
     ([[]], 1)],
    ids=["negative-length", "float-length", "bool-length", "string-prefix", "null-prefix",
         "scalar-lengths"],
)
def test_server_rejects_malformed_lengths_and_prefixes(kit, prefixes, lengths):
    # Each request has one candidate id, so the length sum alone checks nothing here.
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    request = {"type": "score", "example_id": "e", "source": ["q"], "prefixes": prefixes,
               "lengths": lengths,
               "candidates": base64.b64encode(struct.pack("<i", 1)).decode("ascii")}
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            reply = json.loads(stream.readline())
        assert reply["type"] == "error" and "lengths" in reply["message"]
    finally:
        server.close()


def test_timeout(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "slow")
    try:
        scorer = external_scorer_connect(server.endpoint, vocab, timeout=0.2)
        with pytest.raises(ScorerTimeout):
            scorer.score_candidates([], [], [1], "ex")
        scorer.close()
    finally:
        server.close()


def test_unreachable_endpoint_is_transport_error(kit):
    vocab, _, _ = kit
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listening here any more
    with pytest.raises(TransportError):
        external_scorer_connect(f"127.0.0.1:{port}", vocab, timeout=0.5)


def test_bad_endpoint_spec(kit):
    vocab, _, _ = kit
    with pytest.raises(TransportError):
        external_scorer_connect("nonsense", vocab)


def test_env_var_overrides_extern_endpoint(kit, monkeypatch):
    from structsql.cli import SCORER_ENDPOINT_ENV, make_scorer

    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        monkeypatch.setenv(SCORER_ENDPOINT_ENV, server.endpoint)
        factory = make_scorer("extern:10.255.255.1:9", vocab)  # spec endpoint ignored
        scorer = factory(0)
        target = vocab.tokenize(gold)
        assert scorer.score_candidates([], [], [target[0]], "e") == [1.0]
        scorer.close()
    finally:
        server.close()


# -- one message per decode step, and the same search -------------------------


def _search(scorer, constraint, **kwargs):
    try:
        return [(h.token_ids, h.score) for h in beam_search(scorer, ["q"], constraint, **kwargs)]
    except NoValidHypothesis:
        return NoValidHypothesis


@pytest.mark.parametrize("beam", [1, 5])
def test_one_score_message_per_decode_step(kit, beam):
    vocab, constraint, gold = kit
    server = CountingServer(oracle_scorer(gold, vocab))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        hyps = beam_search(remote, ["q"], constraint, beam_width=beam, max_len=80, example_id="7")
        remote.close()
    finally:
        server.close()
    # Step k scores every live hypothesis, and each has k tokens: one message
    # per step means message k carries exactly the prefixes of length k.
    requests = server.score_requests
    assert [{len(p) for p in r["prefixes"]} for r in requests] == [
        {k} for k in range(len(requests))
    ]
    assert all(r["example_id"] == "7" for r in requests)
    assert all(len(r["prefixes"]) <= beam for r in requests)
    output_tokens = len(hyps[0].token_ids)
    if beam == 1:
        assert len(requests) == output_tokens + 1  # the tokens, then EOS
    else:
        # The step after the best hypothesis ends may still be needed to
        # finish beam_width of them.
        assert len(requests) <= output_tokens + 2


class PerExampleScorer(TokenScorer):
    """Routes each call to the scorer of its example id."""

    def __init__(self, vocab, scorers):
        super().__init__(vocab)
        self.scorers = scorers

    def score_candidates(self, source, prefix, candidates, example_id=None):
        return self.scorers[example_id].score_candidates(source, prefix, candidates, example_id)


@pytest.mark.parametrize("kind", ["random", "quantized", "mixed"])
def test_remote_search_equals_in_process_search_exactly(kit, kind):
    vocab, constraint, _ = kit
    scorer_class = {
        "random": RandomScorer,
        "quantized": QuantizedScorer,
        "mixed": MixedMagnitudeScorer,
    }[kind]
    scorers = {str(seed): scorer_class(vocab, seed=seed) for seed in range(3)}
    server = ScorerServer(PerExampleScorer(vocab, scorers))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        for example_id, scorer in scorers.items():
            for constrained in (True, False):
                kwargs = dict(
                    constraint=constraint, beam_width=4, max_len=25,
                    constrained=constrained, example_id=example_id,
                )
                # Exact float equality: packed float64 loses nothing.
                assert _search(remote, **kwargs) == _search(scorer, **kwargs)
        remote.close()
    finally:
        server.close()


class RecordingScorer(RandomScorer):
    """Random scorer that keeps the source and example id of every call."""

    def __init__(self, vocab):
        super().__init__(vocab, seed=1)
        self.calls = []

    def score_candidates(self, source, prefix, candidates, example_id=None):
        self.calls.append((source, example_id))
        return super().score_candidates(source, prefix, candidates, example_id)


def test_wrapped_scorer_receives_the_source_on_every_call(kit, tennis):
    vocab, constraint, _ = kit
    question = QuestionTokens.from_text("what year is the ranking of players", "en")
    annotated = build_input(question, tennis, name_link(question, tennis), example_id="3")
    recorder = RecordingScorer(vocab)
    server = ScorerServer(recorder)
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        beam_search(remote, annotated, constraint, beam_width=3, max_len=20)
        remote.close()
    finally:
        server.close()
    assert recorder.calls
    assert set(recorder.calls) == {(annotated.tokens, "3")}


class FixedScorer(TokenScorer):
    def __init__(self, vocab, values):
        super().__init__(vocab)
        self.values = values

    def score_candidates(self, source, prefix, candidates, example_id=None):
        return [self.values[c % len(self.values)] for c in candidates]


def test_packed_scores_come_back_bit_identical(kit):
    vocab, _, _ = kit
    values = [-0.0, 5e-324, -1e308, -1 - 2**-52]
    server = ScorerServer(FixedScorer(vocab, values))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        batch = remote.score_batch([], [[], [3]], [[0, 1], [2, 3, 0]], "ex")
        remote.close()
    finally:
        server.close()
    want = [values[:2], values[2:] + values[:1]]
    assert [struct.pack(f"<{len(s)}d", *s) for s in batch] == [
        struct.pack(f"<{len(s)}d", *s) for s in want
    ]
    assert math.copysign(1.0, batch[0][0]) == -1.0


def test_score_batch_default_loops_score_candidates(kit):
    vocab, _, _ = kit
    scorer = RandomScorer(vocab, seed=5)
    prefixes, candidate_lists = [(), (4, 9)], [(1, 2, 3), (0, 7)]
    assert scorer.score_batch(["q"], prefixes, candidate_lists, "e") == [
        scorer.score_candidates(["q"], p, c, "e") for p, c in zip(prefixes, candidate_lists)
    ]


# -- run_pipeline and the extern connection -----------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(generate_synthetic_corpus(3, 2, 5, with_values=True), out)
    schemas = load_schemas(out / "tables.json", out / "content.json")
    examples = load_examples(out / "examples.json")
    vocab = Vocabulary.build(schemas.values(), corpus_texts=[e.query for e in examples])
    return out, vocab


def _extern_config(corpus, out_dir, endpoint):
    return PipelineConfig(
        data=str(corpus / "examples.json"),
        tables=str(corpus / "tables.json"),
        content=str(corpus / "content.json"),
        out_dir=str(out_dir),
        scorer=f"extern:{endpoint}",
        beam_width=2,
        max_len=12,
    )


def test_run_pipeline_closes_the_extern_connection_it_opened(small_corpus, tmp_path, monkeypatch):
    corpus, vocab = small_corpus
    server = MisbehavingServer(vocab, "ok")
    ended_before_evaluation = []
    score_corpus = cli.metrics_mod.score_corpus

    def evaluate(*args, **kwargs):
        # Evaluation comes after decoding and before run_pipeline returns.
        ended_before_evaluation.append(server.ended.wait(timeout=5))
        return score_corpus(*args, **kwargs)

    monkeypatch.setattr(cli.metrics_mod, "score_corpus", evaluate)
    try:
        run_pipeline(_extern_config(corpus, tmp_path / "out", server.endpoint))
    finally:
        server.close()
    assert ended_before_evaluation == [True]


def test_run_pipeline_leaves_an_injected_scorer_open(small_corpus, tmp_path):
    corpus, vocab = small_corpus
    server = MisbehavingServer(vocab, "ok")
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        config = _extern_config(corpus, tmp_path / "out", "unused:1")
        run_pipeline(config, scorer_factory=lambda i: remote)
        assert not server.ended.is_set()
        assert remote.score_candidates([], [], [1, 2], "e") == [0.0, 0.0]
        remote.close()
        assert server.ended.wait(timeout=5)
    finally:
        server.close()
