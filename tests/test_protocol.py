import dataclasses
import json
import math
import os
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from itertools import chain
from pathlib import Path

import pytest

from structsql import cli
from structsql.annotate import build_input
from structsql.cli import PipelineConfig, load_examples, run_pipeline
from structsql.decode import (
    LexiconConstraint,
    NoValidHypothesis,
    ProtocolViolation,
    RandomScorer,
    RemoteScorer,
    ScoreRequest,
    ScorerServer,
    ScorerTimeout,
    TOKENIZER_TAG,
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


HELLO = b'{"type": "hello", "protocol": 5}\n'


def scores_message(example_ids, scores, size=None):
    """A ``scores`` message; ``size`` overrides the header's byte count."""
    body = struct.pack(f"<{len(scores)}d", *scores)
    header = {"type": "scores", "example_ids": example_ids,
              "bytes": len(body) if size is None else size}
    return (json.dumps(header) + "\n").encode() + body


def score_request(example_id, prefixes, candidates, source=("q",)):
    return ScoreRequest(source, example_id, prefixes, candidates)


def candidate_counts(request, body, lists):
    """Each example's number of candidates in the ``score`` message of
    header ``request`` and ``body``, once the lengths of its new lists are
    appended to ``lists``, its connection's."""
    ids = struct.unpack(f"<{len(body) // 4}i", body)
    lists += request["lists"]
    at, counts = sum(request["lists"]), []
    for e in request["examples"]:
        at += sum(e["prefix_lengths"])
        picks = ids[at:at + len(e["prefix_lengths"])]
        at += len(picks)
        counts.append(sum(lists[j] for j in picks))
    return counts


class MisbehavingServer(socketserver.ThreadingTCPServer):
    """Protocol v5 server with scriptable faults; ``ended`` is set once a
    client connection has closed, and ``raw_requests`` keeps the bytes of
    every score message received."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, vocab, mode):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                try:
                    self.serve()
                finally:
                    outer.ended.set()

            def serve(self):
                lists = []  # the lengths of the connection's candidate lists
                while line := self.rfile.readline():
                    request = json.loads(line)
                    if request["type"] == "hello":
                        reply = {
                            "type": "vocab",
                            "protocol": 5,
                            "size": len(vocab),
                            "eos_id": vocab.eos_id,
                            "tokenizer_tag": "wordpiece-v2",
                        }
                        if mode == "bad_vocab":
                            reply.update(size=1, eos_id=0, tokenizer_tag="x")
                        elif mode == "bad_tag":
                            reply["tokenizer_tag"] = "x"
                        elif mode == "missing_field":
                            del reply["eos_id"], reply["tokenizer_tag"]
                        elif mode == "v1_hello":
                            del reply["protocol"]
                        elif mode == "v2_hello":
                            reply["protocol"] = 2
                        elif mode == "v3_hello":
                            reply["protocol"] = 3
                        elif mode == "v4_hello":
                            reply["protocol"] = 4
                        self.wfile.write((json.dumps(reply) + "\n").encode())
                        continue
                    body = self.rfile.read(request["bytes"])
                    outer.raw_requests.append(line + body)
                    example_ids = [e["example_id"] for e in request["examples"]]
                    counts = candidate_counts(request, body, lists)
                    n = sum(counts)
                    reply = scores_message(example_ids, [0.0] * n)
                    if mode == "short_scores":
                        reply = scores_message(example_ids, [0.5])
                    elif mode == "odd_bytes":
                        reply = scores_message(example_ids, [], size=8 * n - 3) + bytes(8 * n - 3)
                    elif mode == "non_int_bytes":
                        reply = scores_message(example_ids, [0.0] * n, size=f"{8 * n}")
                    elif mode == "first_example_bytes":
                        reply = scores_message(example_ids, [0.0] * counts[0])
                    elif mode == "wrong_example":
                        reply = scores_message(["nope"] * len(example_ids), [0.0] * n)
                    elif mode == "swapped_examples":
                        reply = scores_message(example_ids[::-1], [0.0] * n)
                    elif mode == "not_json":
                        reply = b"garbage\n"
                    elif mode == "slow":
                        time.sleep(0.8)
                    elif mode == "nan":
                        reply = scores_message(example_ids, [float("nan")] * n)
                    elif mode == "last_inf":
                        reply = scores_message(example_ids, [0.0] * (n - 1) + [-math.inf])
                    elif mode == "cut_body":
                        self.wfile.write(reply[:-5])
                        return
                    elif mode == "golden":
                        reply = GOLDEN_RESPONSES[len(outer.raw_requests) - 1]
                    elif mode == "desync":
                        # A non-int byte count, then an answer that would fit
                        # the next request if the client read on.
                        reply = scores_message(example_ids, [], size=f"{8 * n}")
                        reply += scores_message(example_ids, [0.0] * n)
                    self.wfile.write(reply)

        self.ended = threading.Event()
        self.raw_requests = []
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


class BatchRecorder(TokenScorer):
    """Wraps a scorer and keeps every batch it is asked to score, as the
    server decoded it: one list of requests per call."""

    def __init__(self, inner, batches):
        super().__init__(inner.vocab)
        self.inner, self.batches = inner, batches

    def score_batch(self, requests):
        self.batches.append(list(requests))
        return self.inner.score_batch(requests)


class CountingServer(ScorerServer):
    """Reference server that keeps the requests of every ``score`` message it
    answers."""

    def __init__(self, scorer):
        self.score_requests = []
        super().__init__(BatchRecorder(scorer, self.score_requests))


def test_handshake_echoes_vocab(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        assert scorer.handshake() == {
            "type": "vocab", "protocol": 5, "size": len(vocab), "eos_id": vocab.eos_id,
            "tokenizer_tag": TOKENIZER_TAG,
        }
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


def test_server_close_ends_live_connections(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    before = set(threading.enumerate())
    remote = external_scorer_connect(server.endpoint, vocab)
    try:
        target = vocab.tokenize(gold)
        assert list(remote.score_batch([score_request("ex0", [[]], [[target[0]]])])) == [[[1.0]]]
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()
        with pytest.raises(TransportError):
            remote.score_batch([score_request("ex0", [[]], [[target[0]]])])
        handlers = set(threading.enumerate()) - before
        assert not [t for t in handlers if "process_request" in t.name]
    finally:
        remote.close()
        server.close()


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
    "mode", ["wrong_example", "not_json", "nan", "non_int_bytes", "odd_bytes"]
)
def test_bad_responses_are_protocol_violations(kit, mode):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, mode)
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(ProtocolViolation):
            scorer.score_candidates([], [], [1, 2], "ex")
        # The stream may be out of step now: the scorer does not use it again.
        with pytest.raises(TransportError):
            scorer.score_candidates([], [], [1, 2], "ex")
        assert len(server.raw_requests) == 1
        scorer.close()
    finally:
        server.close()


@pytest.mark.parametrize("mode", ["first_example_bytes", "last_inf", "swapped_examples"])
def test_client_rejects_a_faulty_reply_to_several_examples(kit, mode):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, mode)
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        requests = [score_request("a", [[]], [[1, 2]]),
                    score_request("b", [[3], [4]], [[1], [2, 5]])]
        # The whole reply is checked before any example's scores are handed out.
        with pytest.raises(ProtocolViolation):
            scorer.score_batch(requests)
        with pytest.raises(TransportError, match="unusable"):
            scorer.score_batch(requests)
        assert len(server.raw_requests) == 1
        scorer.close()
    finally:
        server.close()


def test_one_message_scores_several_examples_as_each_alone(kit):
    vocab, _, _ = kit
    local = SourceScorer(vocab)
    server = CountingServer(local)
    requests = [score_request("1", [[], [5]], [[1, 2], [3]]),
                score_request("2", [[4]], [[0, 6, 7]], ("r", "s")),
                score_request("3", [], [])]
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        got = list(remote.score_batch(requests))
        remote.close()
    finally:
        server.close()
    assert got == list(local.score_batch(requests))
    assert server.score_requests == [requests]


def test_a_body_cut_short_is_a_transport_error(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "cut_body")
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(TransportError, match="closed"):
            scorer.score_candidates([], [], [1, 2], "ex")
        scorer.close()
    finally:
        server.close()


def test_a_violation_leaves_the_rest_of_the_stream_unread(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "desync")
    try:
        scorer = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(ProtocolViolation, match="bytes|body"):
            scorer.score_batch([score_request("ex", [[]], [[1, 2]], source=())])
        # A well-formed answer for exactly this request waits on the socket;
        # reading it would make the call succeed.
        with pytest.raises(TransportError, match="unusable"):
            scorer.score_batch([score_request("ex", [[]], [[1, 2]], source=())])
        assert len(server.raw_requests) == 1
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


def test_other_tokenizer_rejected(kit):
    # Same vocabulary size and EOS id, but another tokenizer's ids.
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "bad_tag")
    try:
        with pytest.raises(ProtocolViolation, match="tokenizer='x'"):
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


@pytest.mark.parametrize("mode", ["v1_hello", "v2_hello", "v3_hello", "v4_hello"])
def test_hello_of_another_protocol_rejected(kit, mode):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, mode)
    try:
        with pytest.raises(ProtocolViolation, match="protocol"):
            external_scorer_connect(server.endpoint, vocab)
    finally:
        server.close()


# -- the reference server on raw connections ----------------------------------


def entry(prefixes=((),), picks=(0,), **fields):
    """One ``examples`` entry of a ``score`` message, and its body ids: its
    prefixes, then the index of each prefix's candidate list.  ``fields``
    override the entry's fields, and a field set to ``...`` is left out."""
    fields = {"example_id": "e", "source": 0, "prefix_lengths": [len(p) for p in prefixes],
              **fields}
    return {k: v for k, v in fields.items() if v is not ...}, [*chain(*prefixes), *picks]


def score_message(*entries, new_lists=((1,),), **fields):
    """A ``score`` message on a new connection: it brings the source ``q``
    and ``new_lists``, and carries ``entries`` (one default entry when none
    are given).  ``fields`` override header fields, and a field set to
    ``...`` is left out."""
    entries = entries or [entry()]
    ids = [*chain(*new_lists), *chain.from_iterable(run for _, run in entries)]
    header = {"type": "score", "sources": [["q"]], "lists": [len(c) for c in new_lists],
              "examples": [e for e, _ in entries], "bytes": 4 * len(ids), **fields}
    header = {k: v for k, v in header.items() if v is not ...}
    return (json.dumps(header) + "\n").encode() + struct.pack(f"<{len(ids)}i", *ids)


def exchange(server, data):
    """Send ``data`` on a new connection and read the reply's header; then
    hand the connection to a client.  The reply, and whether the client's
    next call, its handshake, was answered: on a connection the server has
    closed, that call raises TransportError."""
    sock = socket.create_connection((server.host, server.port), timeout=5)
    with sock.makefile("rb") as stream:
        sock.sendall(data)
        reply = json.loads(stream.readline())
    client = RemoteScorer(server.scorer.vocab, sock, timeout=5)
    try:
        client.handshake()
        answered = True
    except TransportError:
        answered = False
    finally:
        client.close()
    return reply, answered


# Every fault closes the connection, a refused hello included: protocol 4
# kept a connection open after a fault that left its stream framed.
@pytest.mark.parametrize("hello", [{"type": "hello"}, {"type": "hello", "protocol": 1},
                                   {"type": "hello", "protocol": 2},
                                   {"type": "hello", "protocol": 3},
                                   {"type": "hello", "protocol": 4}])
def test_server_answers_other_protocols_with_an_error(kit, hello):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, (json.dumps(hello) + "\n").encode())
        assert reply["type"] == "error" and "protocol" in reply["message"]
        assert not answered
    finally:
        server.close()


@pytest.mark.parametrize("source", [None, "q", [1, 2], ["q", None]])
def test_server_rejects_a_score_message_without_a_string_list_source(kit, source):
    # Each value is an item of "sources"; None leaves the field out.
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(
            server, score_message(sources=... if source is None else [source])
        )
        assert reply["type"] == "error" and "source" in reply["message"]
        assert not answered
    finally:
        server.close()


@pytest.mark.parametrize(
    "prefix_lengths, lists, word",
    [([0, 1], [-1, 2], "lists"), ([0], [1.0], "lists"), ([0], [True], "lists"),
     (["a"], [1], "prefix_lengths"), ([None], [1], "prefix_lengths"), ([0], 1, "lists")],
    ids=["negative-length", "float-length", "bool-length", "string-prefix", "null-prefix",
         "scalar-lengths"],
)
def test_server_rejects_malformed_lengths_and_prefixes(kit, prefix_lengths, lists, word):
    # Each message has a body of one id: the byte count alone checks nothing here.
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(
            server, score_message(entry(prefix_lengths=prefix_lengths), lists=lists, bytes=4)
        )
        assert reply["type"] == "error" and word in reply["message"]
        assert not answered  # the body cannot be framed: the server hangs up
    finally:
        server.close()


@pytest.mark.parametrize(
    "size", [..., -4, 12, 4.0, "4", None, True],
    ids=["missing", "negative", "mismatched", "float", "string", "null", "bool"],
)
def test_server_closes_a_connection_whose_body_it_cannot_frame(kit, size):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, score_message(bytes=size))
        assert reply["type"] == "error" and "bytes" in reply["message"]
        assert not answered
    finally:
        server.close()


def test_server_refuses_more_candidates_than_the_vocabulary(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        huge = 10**17  # a body this size could never be allocated
        header = {"type": "score", "sources": [], "lists": [huge], "examples": [],
                  "bytes": 4 * huge}
        reply, answered = exchange(server, (json.dumps(header) + "\n").encode())
        assert reply["type"] == "error" and "vocabulary" in reply["message"]
        assert not answered
    finally:
        server.close()


# A sound first entry, so each fault below sits in a later entry.
FIRST = entry(example_id="a", prefixes=((3,),))


@pytest.mark.parametrize(
    "message, word",
    [
        (score_message(examples={"example_id": "e"}), "examples"),
        (score_message(examples=...), "examples"),
        (score_message(FIRST, ("e", [])), "examples"),
        # Two prefixes need two list indices; the body carries one.
        (score_message(FIRST, entry(prefix_lengths=[0, 0])), "bytes"),
        # The second new list's length is above the vocabulary size.
        (score_message(FIRST, entry(), lists=[1, 10**6]), "vocabulary"),
        (score_message(FIRST, entry(), bytes=4 * (1 + len(FIRST[1]))), "bytes"),
    ],
    ids=["examples-not-a-list", "examples-missing", "entry-not-an-object",
         "unequal-lengths", "lengths-above-vocabulary", "bytes-of-one-entry"],
)
def test_server_closes_on_an_examples_entry_it_cannot_frame(kit, message, word):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, message)
        assert reply["type"] == "error" and word in reply["message"]
        assert not answered
    finally:
        server.close()


@pytest.mark.parametrize(
    "faulty, word",
    [(entry(source=["q", 1]), "source"), (entry(example_id=...), "example_id")],
    ids=["non-string-source", "missing-example-id"],
)
def test_server_closes_a_connection_whose_framed_entry_is_faulty(kit, faulty, word):
    # Protocol 4 kept this connection open, since its stream stayed framed;
    # under protocol 5 every fault closes it.
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, score_message(FIRST, faulty))
        assert reply["type"] == "error" and word in reply["message"]
        assert not answered
    finally:
        server.close()


@pytest.mark.parametrize(
    "message, word",
    [
        (score_message(entry(source=1)), "source"),
        (score_message(entry(source=-1)), "source"),
        (score_message(entry(source="0")), "source"),
        (score_message(entry(picks=(1,))), "list"),
        (score_message(entry(picks=(-1,))), "list"),
    ],
    ids=["source-past-the-table", "negative-source", "string-source", "list-past-the-table",
         "negative-list"],
)
def test_server_closes_on_an_index_it_has_not_carried(kit, message, word):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, message)
        assert reply["type"] == "error" and word in reply["message"]
        assert not answered
    finally:
        server.close()


def test_tables_belong_to_their_connection(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        scores = remote.score_candidates(["q"], [], [1, 2], "e")
        # A new connection has carried nothing: its source 0 and list 0 are unknown.
        reply, answered = exchange(server, score_message(new_lists=(), sources=[]))
        assert reply["type"] == "error" and "source" in reply["message"]
        assert not answered
        # The first connection still has its tables.
        assert remote.score_candidates(["q"], [], [1, 2], "e") == scores
        remote.close()
    finally:
        server.close()


@pytest.mark.parametrize("bad", ["negative", "vocabulary-size"])
def test_server_refuses_a_candidate_id_outside_the_vocabulary(kit, bad):
    vocab, _, gold = kit
    batches = []
    server = ScorerServer(BatchRecorder(oracle_scorer(gold, vocab), batches))
    token = {"negative": -1, "vocabulary-size": len(vocab)}[bad]
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        with pytest.raises(ProtocolViolation, match="candidate ids must lie in"):
            remote.score_candidates(["q"], [], [1, token], "e")
        with pytest.raises(TransportError, match="unusable"):
            remote.score_candidates(["q"], [], [1], "e")
        remote.close()
        # The raw message gets the same answer, and the connection is closed.
        reply, answered = exchange(server, score_message(new_lists=((1, token),)))
        assert reply["type"] == "error" and "candidate ids" in reply["message"]
        assert not answered
    finally:
        server.close()
    assert batches == []  # the wrapped scorer never saw the id


def test_server_reads_a_huge_announced_body_only_as_it_arrives(kit, capsys):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        huge = 10**17
        # The new list's id, the prefix's ids and its list index.
        message = score_message(entry(prefix_lengths=[huge]), bytes=4 * (1 + huge + 1))
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            with sock.makefile("rb") as stream:
                sock.sendall(message)
                sock.shutdown(socket.SHUT_WR)  # hang up inside the body
                assert stream.read() == b""  # no reply; the server closed
        remote = external_scorer_connect(server.endpoint, vocab)
        assert remote.score_candidates([], [], [vocab.tokenize(gold)[0]], "e") == [1.0]
        remote.close()
        assert "Traceback" not in capsys.readouterr().err
    finally:
        server.close()


def test_server_closes_on_a_header_that_is_not_json(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    try:
        reply, answered = exchange(server, b"\x00\x01garbage\n")
        assert reply["type"] == "error" and "JSON" in reply["message"]
        assert not answered
    finally:
        server.close()


def _handler_threads():
    return [t for t in threading.enumerate() if "process_request_thread" in t.name]


def test_server_serves_a_second_client_while_one_is_stuck_inside_a_body(kit):
    vocab, _, gold = kit
    server = ScorerServer(oracle_scorer(gold, vocab))
    before = len(_handler_threads())
    try:
        stuck = socket.create_connection((server.host, server.port), timeout=5)
        with stuck:
            stuck.sendall(score_message(new_lists=((1, 2, 3),))[:-5])
            remote = external_scorer_connect(server.endpoint, vocab)
            target = vocab.tokenize(gold)
            assert remote.score_candidates([], [], [target[0]], "e") == [1.0]
            remote.close()
        # The stuck client hung up inside its body: its handler returns.
        deadline = time.monotonic() + 5
        while len(_handler_threads()) > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_handler_threads()) == before
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


def _closed_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listening here any more
    return port


def test_unreachable_endpoint_is_transport_error(kit):
    vocab, _, _ = kit
    with pytest.raises(TransportError):
        external_scorer_connect(f"127.0.0.1:{_closed_port()}", vocab, timeout=0.5)


def test_bad_endpoint_spec(kit):
    vocab, _, _ = kit
    with pytest.raises(TransportError):
        external_scorer_connect("nonsense", vocab)


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
    assert all(len(message) == 1 for message in server.score_requests)
    requests = [message[0] for message in server.score_requests]
    assert [{len(p) for p in r.prefixes} for r in requests] == [
        {k} for k in range(len(requests))
    ]
    assert all(r.example_id == "7" for r in requests)
    assert all(len(r.prefixes) <= beam for r in requests)
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
    top = sys.float_info.max
    values = [-0.0, 5e-324, -1e308, -1 - 2**-52, top, -top]
    server = ScorerServer(FixedScorer(vocab, values))
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        # The third list sums past the largest double, the fourth below the
        # smallest: every score is still finite.
        [batch] = remote.score_batch([score_request(
            "ex", [[], [3], [1], [2]], [[0, 1], [2, 3, 0], [4, 4, 5], [5, 2, 4]], source=()
        )])
        remote.close()
    finally:
        server.close()
    want = [values[:2], values[2:4] + values[:1], [top, top, -top], [-top, -1e308, top]]
    assert [struct.pack(f"<{len(s)}d", *s) for s in batch] == [
        struct.pack(f"<{len(s)}d", *s) for s in want
    ]
    assert math.copysign(1.0, batch[0][0]) == -1.0


# The README's scoring example, byte for byte: little-endian on every host.
# Two messages on one connection: the first brings two sources and three
# candidate lists, the second only refers to them.
GOLDEN_REQUEST = (
    b'{"type": "score", "sources": [["how", "many", "|", "singer"], ["list", "|", "concert"]], '
    b'"lists": [3, 2, 2], "examples": [{"example_id": "17", "source": 0, '
    b'"prefix_lengths": [2, 2]}, {"example_id": "18", "source": 1, "prefix_lengths": [1]}], '
    b'"bytes": 60}\n'
    + bytes.fromhex("07 00 00 00 0c 00 00 00 00 00 00 00"
                    "05 00 00 00 00 00 00 00"
                    "09 00 00 00 00 00 00 00"
                    "04 00 00 00 5b 00 00 00 04 00 00 00 0c 00 00 00 00 00 00 00 01 00 00 00"
                    "04 00 00 00 02 00 00 00")
)
GOLDEN_RESPONSE = (
    b'{"type": "scores", "example_ids": ["17", "18"], "bytes": 56}\n'
    + bytes.fromhex("9a 99 99 99 99 99 c9 bf cd cc cc cc cc cc 08 c0 cd cc cc cc cc cc 23 c0"
                    "00 00 00 00 00 00 e0 bf 00 00 00 00 00 00 f4 bf"
                    "00 00 00 00 00 00 e8 bf 00 00 00 00 00 00 00 c0")
)
GOLDEN_WARM_REQUEST = (
    b'{"type": "score", "sources": [], "lists": [], "examples": [{"example_id": "17", '
    b'"source": 0, "prefix_lengths": [3, 3]}, {"example_id": "18", "source": 1, '
    b'"prefix_lengths": [2]}], "bytes": 44}\n'
    + bytes.fromhex("04 00 00 00 5b 00 00 00 07 00 00 00 04 00 00 00 0c 00 00 00 05 00 00 00"
                    "01 00 00 00 02 00 00 00"
                    "04 00 00 00 09 00 00 00 00 00 00 00")
)
GOLDEN_WARM_RESPONSE = (
    b'{"type": "scores", "example_ids": ["17", "18"], "bytes": 56}\n'
    + bytes.fromhex("00 00 00 00 00 00 d0 bf 00 00 00 00 00 00 10 c0"
                    "00 00 00 00 00 00 f8 bf 00 00 00 00 00 00 c0 bf"
                    "00 00 00 00 00 00 d8 bf 00 00 00 00 00 00 04 c0 00 00 00 00 00 00 18 c0")
)
GOLDEN_MESSAGES = [GOLDEN_REQUEST, GOLDEN_WARM_REQUEST]
GOLDEN_RESPONSES = [GOLDEN_RESPONSE, GOLDEN_WARM_RESPONSE]
SINGER, CONCERT = ("how", "many", "|", "singer"), ("list", "|", "concert")
GOLDEN_REQUESTS = [
    [ScoreRequest(SINGER, "17", [[4, 91], [4, 12]], [[7, 12, 0], [5, 0]]),
     ScoreRequest(CONCERT, "18", [[4]], [[9, 0]])],
    [ScoreRequest(SINGER, "17", [[4, 91, 7], [4, 12, 5]], [[5, 0], [9, 0]]),
     ScoreRequest(CONCERT, "18", [[4, 9]], [[7, 12, 0]])],
]
GOLDEN_SCORES = [
    [[[-0.2, -3.1, -9.9], [-0.5, -1.25]], [[-0.75, -2.0]]],
    [[[-0.25, -4.0], [-1.5, -0.125]], [[-0.375, -2.5, -6.0]]],
]


class GoldenScorer(TokenScorer):
    """The README example's scores, for its requests only, in their order."""

    def __init__(self, vocab):
        super().__init__(vocab)
        self.calls = 0

    def score_batch(self, requests):
        assert requests == GOLDEN_REQUESTS[self.calls]
        self.calls += 1
        return GOLDEN_SCORES[self.calls - 1]


def test_readme_example_is_the_wire_bytes():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Scorer wire protocol", 1)[1].split("```")[1]
    messages = []
    for line in block.splitlines():
        if line.startswith(("-> ", "<- ")):
            messages.append(line[3:].encode() + b"\n")
        elif line.strip():
            messages[-1] += bytes.fromhex(line)
    assert messages[0] == HELLO
    assert messages[2:] == [GOLDEN_REQUEST, GOLDEN_RESPONSE,
                            GOLDEN_WARM_REQUEST, GOLDEN_WARM_RESPONSE]


def test_client_sends_and_reads_the_golden_bytes(kit):
    vocab, _, _ = kit
    server = MisbehavingServer(vocab, "golden")
    try:
        remote = external_scorer_connect(server.endpoint, vocab)
        scores = [list(remote.score_batch(requests)) for requests in GOLDEN_REQUESTS]
        remote.close()
    finally:
        server.close()
    assert server.raw_requests == GOLDEN_MESSAGES
    assert scores == GOLDEN_SCORES


def test_server_answers_the_golden_request_with_the_golden_bytes(kit):
    vocab, _, _ = kit
    server = ScorerServer(GoldenScorer(vocab))
    replies = []
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            with sock.makefile("rb") as stream:
                for message in GOLDEN_MESSAGES:
                    sock.sendall(message)
                    line = stream.readline()
                    replies.append(line + stream.read(json.loads(line)["bytes"]))
    finally:
        server.close()
    assert replies == GOLDEN_RESPONSES
    assert server.scorer.calls == 2


class SourceScorer(TokenScorer):
    """Scores that tell which example and source asked."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        return [float(1000 * int(example_id) + 100 * len(source) + c) for c in candidates]


def test_threads_sharing_a_remote_scorer_get_their_own_scores(kit):
    vocab, _, _ = kit
    server = ScorerServer(SourceScorer(vocab))
    remote = external_scorer_connect(server.endpoint, vocab)
    wrong = []

    def worker(k):
        # Each message brings a candidate list no earlier message carried,
        # and the first of each thread a new source: the indices the client
        # gives them must follow the order in which the messages go out.
        # A worker's exception would only warn, so it is kept as a failure.
        source = ("q",) * k
        for step in range(120):
            lists = [[k, 7 + step // 10, 20 + step % 10, 40 + i] for i in range(4)]
            try:
                got = list(remote.score_batch([score_request(str(k), [[step]] * 4, lists,
                                                             source)]))
            except Exception as exc:  # noqa: BLE001
                wrong.append((k, step, exc))
                return
            if got != [[[1100.0 * k + c for c in candidates] for candidates in lists]]:
                wrong.append((k, step, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 7)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        remote.close()
        server.close()
    assert wrong == []


def test_score_batch_default_loops_score_candidates(kit):
    vocab, _, _ = kit
    scorer = SourceScorer(vocab)
    requests = [score_request("2", [(), (4, 9)], [(1, 2, 3), (0, 7)]),
                score_request("5", [(3,)], [(6, 8)], source=("r", "s"))]
    assert list(scorer.score_batch(requests)) == [
        [scorer.score_candidates(r.source, p, c, r.example_id)
         for p, c in zip(r.prefixes, r.candidate_lists)]
        for r in requests
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


def _run_argv(corpus, out_dir, endpoint):
    return [
        "run", "--data", str(corpus / "examples.json"), "--tables", str(corpus / "tables.json"),
        "--content", str(corpus / "content.json"), "--out-dir", str(out_dir),
        "--scorer", f"extern:{endpoint}", "--beam", "2", "--max-len", "12",
    ]


def test_run_uses_the_scorer_its_config_names(small_corpus, tmp_path, monkeypatch):
    # No environment variable redirects the scorer a run's config names.
    corpus, vocab = small_corpus
    monkeypatch.setenv("STRUCTSQL_SCORER_ENDPOINT", f"127.0.0.1:{_closed_port()}")
    server = MisbehavingServer(vocab, "ok")
    try:
        assert cli.main(_run_argv(corpus, tmp_path / "out", server.endpoint)) == 0
    finally:
        server.close()
    assert server.raw_requests
    resolved = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
    assert resolved["scorer"] == f"extern:{server.endpoint}"


def test_unreachable_extern_scorer_is_a_scorer_stage_error(small_corpus, tmp_path, capsys):
    corpus, _ = small_corpus
    endpoint = f"127.0.0.1:{_closed_port()}"
    assert cli.main(_run_argv(corpus, tmp_path / "out", endpoint)) == cli.EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith(
        f"stage error: [scorer] cannot connect to {endpoint}: "
    )
    assert not (tmp_path / "out").exists()


def test_a_failed_handshake_is_a_scorer_stage_error(small_corpus, tmp_path, capsys):
    corpus, vocab = small_corpus
    server = MisbehavingServer(vocab, "bad_tag")
    try:
        code = cli.main(_run_argv(corpus, tmp_path / "out", server.endpoint))
    finally:
        server.close()
    assert code == cli.EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith("stage error: [scorer] scorer vocabulary mismatch")
    assert not (tmp_path / "out").exists()


# -- lockstep decoding in run_pipeline ------------------------------------------

# Interleaved interactions over two schemas, in corpus order A1 B1 A2 C1 B2 A3.
LOCKSTEP_EXAMPLES = [
    ("A", "tennis", "how many players are there", "SELECT COUNT(*) FROM Players"),
    ("B", "concert_singer", "list the singer names", "SELECT singer.Name FROM singer"),
    ("A", "tennis", "what are their first names", "SELECT Players.First_name FROM Players"),
    ("C", "tennis", "which years are ranked", "SELECT Ranking.Year FROM Ranking"),
    ("B", "concert_singer", "and their ages", "SELECT singer.Name, singer.Age FROM singer"),
    ("A", "tennis", "only those from France",
     "SELECT Players.First_name FROM Players WHERE Players.Country = 'France'"),
]
# Example 1 gets a random scorer that finishes no hypothesis within max_len.
LOCKSTEP_RANDOM = 1
LOCKSTEP_ARTIFACTS = ("annotated.src", "annotated.tgt", "decoded.sql", "completed.sql",
                      "plan.jsonl", "report.json")


class StepCounter(TokenScorer):
    """Routes each request to its example's scorer and counts the requests
    of each example, which is its decode steps."""

    def __init__(self, vocab, scorers):
        super().__init__(vocab)
        self.scorers, self.steps = scorers, {}

    def score_batch(self, requests):
        out = []
        for r in requests:
            self.steps[r.example_id] = self.steps.get(r.example_id, 0) + 1
            out += self.scorers[r.example_id].score_batch([r])
        return out


class CallCounter(TokenScorer):
    """One example's own scorer, keeping the number of requests of each
    ``score_batch`` call it answers."""

    def __init__(self, inner):
        super().__init__(inner.vocab)
        self.inner, self.calls = inner, []

    def score_batch(self, requests):
        self.calls.append(len(requests))
        return self.inner.score_batch(requests)


def _sequential_decode(examples, schemas, constraints, config, factory):
    """The decode stage one example at a time in corpus order; each turn sees
    the latest prediction of its interaction as the previous turn."""
    sources, decoded, last = [], [], {}
    for ex in examples:
        prev = last.get(ex.interaction_id) if config.discourse else None
        annotated = cli._annotation_for(ex, schemas[ex.db_id], config, prev)
        sources.append(annotated.render())
        scorer = factory(ex.index)
        try:
            text = beam_search(
                scorer, annotated, constraints[ex.db_id], beam_width=config.beam_width,
                max_len=config.max_len, constrained=config.constrained,
                example_id=str(ex.index),
            )[0].text(scorer.vocab)
        except NoValidHypothesis:
            text = ""
        decoded.append(text)
        last[ex.interaction_id] = text
    return sources, decoded


@pytest.mark.parametrize("discourse", [True, False])
def test_lockstep_run_equals_a_sequential_run(tmp_path, monkeypatch, tables_path, content_path,
                                             discourse):
    data = tmp_path / "examples.json"
    data.write_text(json.dumps([
        {"interaction_id": i, "db_id": db, "question": q, "query": sql}
        for i, db, q, sql in LOCKSTEP_EXAMPLES
    ]))
    schemas = load_schemas(tables_path, content_path)
    vocab = Vocabulary.build(schemas.values(), corpus_texts=[sql for *_, sql in LOCKSTEP_EXAMPLES])
    scorers = {
        str(i): RandomScorer(vocab, seed=0) if i == LOCKSTEP_RANDOM else oracle_scorer(sql, vocab)
        for i, (*_, sql) in enumerate(LOCKSTEP_EXAMPLES)
    }
    config = PipelineConfig(
        data=str(data), tables=str(tables_path), content=str(content_path),
        beam_width=2, max_len=16, discourse=discourse,
    )

    reference = StepCounter(vocab, scorers)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_decode_all", _sequential_decode)
        run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "sequential")),
                     scorer_factory=lambda i: reference)
    server = CountingServer(StepCounter(vocab, scorers))
    try:
        run_pipeline(dataclasses.replace(
            config, out_dir=str(tmp_path / "lockstep"), scorer=f"extern:{server.endpoint}"
        ))
    finally:
        server.close()

    # The same run with each example's scorer object of its own, in process.
    own = {i: CallCounter(scorer) for i, scorer in scorers.items()}
    run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "own")),
                 scorer_factory=lambda i: own[str(i)])

    for name in LOCKSTEP_ARTIFACTS:
        want = (tmp_path / "sequential" / name).read_bytes()
        assert (tmp_path / "lockstep" / name).read_bytes() == want, name
        assert (tmp_path / "own" / name).read_bytes() == want, name
    # An example's own scorer is asked once per decode step, for it alone.
    assert {i: scorer.calls for i, scorer in own.items()} == {
        i: [1] * steps for i, steps in reference.steps.items()
    }
    decoded = (tmp_path / "sequential" / "decoded.sql").read_text().splitlines()
    assert decoded[LOCKSTEP_RANDOM] == "" and all(
        text for i, text in enumerate(decoded) if i != LOCKSTEP_RANDOM
    )
    sources = (tmp_path / "sequential" / "annotated.src").read_text().splitlines()
    assert (decoded[0] in sources[2]) is discourse  # A2 saw A1's prediction
    # Each step of the run is one message for every example then in flight,
    # and each turn of a chain starts the step after the one before it ends.
    chains = {}
    for i, (interaction, *_) in enumerate(LOCKSTEP_EXAMPLES):
        chains.setdefault(interaction if discourse else i, []).append(reference.steps[str(i)])
    assert len(server.score_requests) == max(map(sum, chains.values()))
    assert server.scorer.inner.steps == reference.steps


def test_a_host_exits_when_its_stdin_closes_even_with_a_client_inside_a_body(kit):
    vocab, _, _ = kit
    host = subprocess.Popen(
        [sys.executable, "-c",
         "import sys\n"
         "from structsql.decode import ScorerServer, Vocabulary, EOS_TOKEN, RandomScorer\n"
         "server = ScorerServer(RandomScorer(Vocabulary([EOS_TOKEN, 'a']), seed=1))\n"
         "print(server.endpoint, flush=True)\n"
         "sys.stdin.read()\n"
         "server.close()\n"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        host_name, _, port = host.stdout.readline().strip().rpartition(":")
        with socket.create_connection((host_name, int(port)), timeout=5) as stuck:
            stuck.sendall(score_message(new_lists=((1, 0),))[:-3])
            host.stdin.close()
            assert host.wait(timeout=10) == 0
    finally:
        if host.poll() is None:
            host.kill()
            host.wait()
        host.stdout.close()
