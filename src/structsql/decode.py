"""Lexicon-constrained beam search over a schema prefix trie.

No SQL grammar automaton is involved: keywords and literals decode freely,
but once a token starts a schema surface form the following tokens must spell
a complete trie path.  The trie is suspended inside quoted string literals.
The neural scorer is abstracted behind :class:`TokenScorer`, whose one
method, ``score_candidates``, scores the allowed next tokens of a prefix.
The beam asks once per step, for every live hypothesis, through
``score_batch``; a wire protocol that sends one message per step lets an
external model plug in.
"""

from __future__ import annotations

import base64
import json
import math
import re
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from heapq import nsmallest
from typing import Iterable, Sequence

from structsql.annotate import AnnotatedInput
from structsql.schema import DatabaseSchema, STAR

EOS_TOKEN = "</s>"
QUOTE_TOKEN = "'"

SQL_KEYWORD_TOKENS: tuple[str, ...] = (
    "SELECT", "DISTINCT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY",
    "HAVING", "ORDER", "LIMIT", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN",
    "UNION", "INTERSECT", "EXCEPT", "COUNT", "SUM", "AVG", "MIN", "MAX",
    "ASC", "DESC", "=", "!=", "<", ">", "<=", ">=", "(", ")", ",",
)

_PIECE_RE = re.compile(r"\d+\.\d+|\d+|\w+|<=|>=|!=|<>|[^\w\s]", re.UNICODE)
_NUMBER_RE = re.compile(r"\d+(\.\d+)?$")
_NO_SPACE_BEFORE = {".", ",", ")", ";"}
_NO_SPACE_AFTER = {".", "("}
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

TOKENIZER_TAG = "wordpiece-v1"


class Untokenizable(ValueError):
    """A surface form cannot be spelled with the scorer vocabulary."""


class NoValidHypothesis(RuntimeError):
    """Every beam was pruned before a hypothesis could finish."""


class TransportError(RuntimeError):
    """The external scorer connection failed."""


class ScorerTimeout(TransportError):
    """The external scorer did not answer in time."""


class ProtocolViolation(RuntimeError):
    """The external scorer answered outside the wire protocol."""


def pieces(text: str) -> list[str]:
    """Deterministic sub-word split shared by the vocabulary and tokenizers."""
    return _PIECE_RE.findall(text)


class Vocabulary:
    """Token id <-> surface form map with keyword/literal categories.

    ``keyword_ids`` are SQL keywords and punctuation; ``literal_ids`` are
    tokens that may appear as free-standing values (numbers, the quote, and
    words observed inside string literals or cell values).
    """

    def __init__(self, tokens: Sequence[str], literal_forms: Iterable[str] = ()):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        for tok in tokens:
            if tok not in self._index:
                self._index[tok] = len(self._tokens)
                self._tokens.append(tok)
        if EOS_TOKEN not in self._index:
            raise ValueError("vocabulary must contain the end-of-sequence token")
        self.eos_id: int = self._index[EOS_TOKEN]
        self.quote_id: int | None = self._index.get(QUOTE_TOKEN)
        self.keyword_ids: frozenset[int] = frozenset(
            self._index[t] for t in SQL_KEYWORD_TOKENS if t in self._index
        )
        literal = {self._index[t] for t in literal_forms if t in self._index}
        if self.quote_id is not None:
            literal.add(self.quote_id)
        literal |= {i for i, t in enumerate(self._tokens) if _NUMBER_RE.match(t)}
        literal.discard(self.eos_id)
        self.literal_ids: frozenset[int] = frozenset(literal)
        self.all_ids: tuple[int, ...] = tuple(range(len(self._tokens)))

    @classmethod
    def build(
        cls,
        schemas: Iterable[DatabaseSchema],
        corpus_texts: Iterable[str] = (),
    ) -> "Vocabulary":
        """Assemble a vocabulary covering keywords, schema names, and corpus text.

        Words observed inside quoted literals of ``corpus_texts`` and all cell
        values become literal tokens; everything else stays plain.
        """
        ordered: list[str] = [EOS_TOKEN, *SQL_KEYWORD_TOKENS, QUOTE_TOKEN, ".", STAR]
        literal_forms: list[str] = []
        for schema in schemas:
            for form in schema.surface_forms():
                ordered.extend(pieces(form))
            for _, col in schema.iter_columns():
                for value in col.sample_values or ():
                    value_pieces = pieces(value)
                    ordered.extend(value_pieces)
                    literal_forms.extend(value_pieces)
        for text in corpus_texts:
            in_quote = False
            for piece in pieces(text):
                if piece == QUOTE_TOKEN:
                    in_quote = not in_quote
                    continue
                ordered.append(piece)
                if in_quote:
                    literal_forms.append(piece)
        return cls(ordered, literal_forms=literal_forms)

    def __len__(self) -> int:
        return len(self._tokens)

    def surface(self, token_id: int) -> str:
        return self._tokens[token_id]

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise Untokenizable(f"token {token!r} not in vocabulary") from None

    def tokenize(self, text: str) -> list[int]:
        split = pieces(text)
        if not split:
            raise Untokenizable(f"nothing to tokenize in {text!r}")
        return [self.id_of(p) for p in split]

    def detokenize(self, ids: Sequence[int]) -> str:
        out: list[str] = []
        in_quote = False
        for i, token_id in enumerate(ids):
            tok = self.surface(token_id)
            if not out:
                out.append(tok)
            elif tok == QUOTE_TOKEN:
                out.append(tok if in_quote else " " + tok)
            elif in_quote:
                prev = self.surface(ids[i - 1])
                out.append(tok if prev == QUOTE_TOKEN else " " + tok)
            elif tok in _NO_SPACE_BEFORE or self.surface(ids[i - 1]) in _NO_SPACE_AFTER:
                out.append(tok)
            elif tok == "(" and self.surface(ids[i - 1]) in _AGGREGATES:
                out.append(tok)
            else:
                out.append(" " + tok)
            if tok == QUOTE_TOKEN:
                in_quote = not in_quote
        return "".join(out)


# --------------------------------------------------------------------------
# Prefix trie


class TrieNode:
    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[int, TrieNode] = {}
        self.terminal = False


def build_trie(schema: DatabaseSchema, vocab: Vocabulary) -> TrieNode:
    """Root of a trie over scorer-vocabulary token ids spelling every table
    name, qualified column, the "*" pseudo-column, and every attached cell
    value (value mode, on when the schema carries sample values).
    """
    root = TrieNode()
    values = [v for _, col in schema.iter_columns() for v in col.sample_values or ()]
    for surface in schema.surface_forms() + values:
        try:
            ids = vocab.tokenize(surface)
        except Untokenizable as exc:
            raise Untokenizable(f"schema surface form {surface!r}: {exc}") from None
        node = root
        for token_id in ids:
            node = node.children.setdefault(token_id, TrieNode())
        node.terminal = True
    return root


# --------------------------------------------------------------------------
# Decode state and constraint

# Cursor sentinels beside ``None`` (free) and trie nodes: inside a quoted
# literal, and after EOS.  Neither has children or is terminal.
LITERAL = TrieNode()
FINISHED = TrieNode()


@dataclass(frozen=True)
class DecodeState:
    """Beam hypothesis: emitted ids, cursor and summed score.

    The cursor is ``None`` (free), ``LITERAL``, ``FINISHED`` or a trie node.
    """

    tokens: tuple[int, ...] = ()
    node: TrieNode | None = None
    score: float = 0.0

    @property
    def in_literal(self) -> bool:
        return self.node is LITERAL

    def key(self) -> tuple:
        return (self.tokens, id(self.node))


class LexiconConstraint:
    """Per-cursor allowed-token masks and transitions derived from the trie.

    Masks live in one table keyed by cursor identity, so a lookup costs a
    dictionary probe regardless of schema size.  The free and literal masks
    are filled at construction, trie-node masks on first use.
    """

    def __init__(self, root: TrieNode, vocab: Vocabulary):
        self.root = root
        self.vocab = vocab
        self._free_base = vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id}
        self._allowed: dict[int, tuple[int, ...]] = {
            id(None): tuple(sorted(self._free_base | set(root.children))),
            id(LITERAL): tuple(i for i in vocab.all_ids if i != vocab.eos_id),
        }

    def candidate_ids(self, state: DecodeState) -> tuple[int, ...]:
        """Legal next token ids for a hypothesis, in ascending order.

        Free cursor: keywords, trie-root children, literals, EOS.
        Mid-path: trie children only.  At a terminal: children plus the
        free set (the identifier may end here or extend).  Inside a quoted
        literal: every id but EOS.
        """
        node = state.node
        allowed = self._allowed.get(id(node))
        if allowed is None:
            ids = set(node.children)
            if node.terminal:
                ids |= self._free_base
            allowed = self._allowed[id(node)] = tuple(sorted(ids))
        return allowed

    def _next(self, cursor: TrieNode | None, token_id: int) -> tuple[TrieNode | None, ...]:
        """Cursors after emitting a non-EOS token, in successor order.

        A terminal node that is also a prefix of a longer form yields both a
        deeper cursor and a fresh one.  The cursors are distinct, so
        successors never share a ``key()``.
        """
        if cursor is LITERAL:
            return (None,) if token_id == self.vocab.quote_id else (LITERAL,)
        out: tuple[TrieNode | None, ...] = ()
        if cursor is not None:
            child = cursor.children.get(token_id)
            if child is not None:
                out = (child,)
            if not cursor.terminal:
                return out
        # A fresh identifier run, a literal or a keyword starts here.
        if token_id == self.vocab.quote_id:
            return out + (LITERAL,)
        child = self.root.children.get(token_id)
        if child is not None:
            out += (child,)
        if token_id in self.vocab.keyword_ids or token_id in self.vocab.literal_ids:
            out += (None,)
        return out

    def advance(self, state: DecodeState, token_id: int, score: float) -> list[DecodeState]:
        """Successor states after emitting a non-EOS token."""
        tokens = state.tokens + (token_id,)
        new_score = state.score + score
        return [DecodeState(tokens, c, new_score) for c in self._next(state.node, token_id)]

    def can_finish(self, state: DecodeState) -> bool:
        """Whether EOS may follow: at a free cursor or a trie terminal, never
        inside a literal or an unfinished identifier."""
        return state.node is None or state.node.terminal


# --------------------------------------------------------------------------
# Scorers


class TokenScorer:
    """Behavioral contract standing in for an autoregressive language model.

    Implementations provide a vocabulary (which fixes the end-of-sequence
    id) and one method, :meth:`score_candidates`.  ``beam_search`` calls
    :meth:`score_batch` once per step; its default loops over
    ``score_candidates``, and a scorer that can batch (a remote host, a GPU
    model) overrides it.  Batching changes no score, so the exactness
    contract below holds either way.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    @property
    def eos_id(self) -> int:
        return self.vocab.eos_id

    def score_candidates(
        self,
        source: Sequence[str],
        prefix: Sequence[int],
        candidates: Sequence[int],
        example_id: str | None = None,
    ) -> list[float]:
        """Additive log-scores of ``candidates`` as the next token after
        ``prefix``, one per candidate and in the same order.

        A score must be deterministic and depend only on the example (its
        source and id), the prefix and the candidate token itself, never on
        which other candidates are in the list: ``beam_search`` advances
        only each hypothesis's best ``2*beam`` candidates, and that cut is
        exact only under this contract.
        """
        raise NotImplementedError

    def score_batch(
        self,
        source: Sequence[str],
        prefixes: Sequence[Sequence[int]],
        candidate_lists: Sequence[Sequence[int]],
        example_id: str | None = None,
    ) -> list[list[float]]:
        """``score_candidates`` for several prefixes of one example: one
        score list per prefix, each equal to what ``score_candidates`` gives
        for that prefix and its candidates."""
        return [
            self.score_candidates(source, prefix, candidates, example_id)
            for prefix, candidates in zip(prefixes, candidate_lists)
        ]


class OracleScorer(TokenScorer):
    """Deterministic testing double: 1.0 for the next target token, else 0."""

    def __init__(self, vocab: Vocabulary, target_ids: Sequence[int]):
        super().__init__(vocab)
        self.target_ids = tuple(target_ids)

    def _expected(self, prefix: Sequence[int]) -> int:
        if len(prefix) < len(self.target_ids):
            return self.target_ids[len(prefix)]
        return self.eos_id

    def score_candidates(self, source, prefix, candidates, example_id=None):
        expected = self._expected(prefix)
        return [1.0 if c == expected else 0.0 for c in candidates]


def oracle_scorer(target: Sequence[int] | str, vocab: Vocabulary) -> OracleScorer:
    """Build an oracle scorer from target token ids or target text."""
    ids = vocab.tokenize(target) if isinstance(target, str) else list(target)
    if not ids:
        raise ValueError("oracle target must be non-empty")
    return OracleScorer(vocab, ids)


_MASK64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= (v + 0x9E3779B97F4A7C15 + ((h << 6) & _MASK64) + (h >> 2)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 31
    return h


class RandomScorer(TokenScorer):
    """Seeded pseudo-random scores, deterministic for fixed inputs and seed."""

    def __init__(self, vocab: Vocabulary, seed: int = 0):
        super().__init__(vocab)
        self.seed = seed

    def _score_one(self, prefix_len: int, last: int, candidate: int) -> float:
        return _mix(self.seed, prefix_len, last, candidate) / float(1 << 64)

    def score_candidates(self, source, prefix, candidates, example_id=None):
        last = prefix[-1] if prefix else -1
        return [self._score_one(len(prefix), last, c) for c in candidates]


# --------------------------------------------------------------------------
# Beam search


@dataclass(frozen=True)
class Hypothesis:
    token_ids: tuple[int, ...]
    score: float

    def text(self, vocab: Vocabulary) -> str:
        return vocab.detokenize(self.token_ids)


def _rank(state: DecodeState) -> tuple:
    """Step ranking: higher summed score first, then lower token ids."""
    return (-state.score, state.tokens)


def beam_search(
    scorer: TokenScorer,
    source: AnnotatedInput | Sequence[str],
    constraint: LexiconConstraint,
    beam_width: int = 5,
    max_len: int = 200,
    *,
    constrained: bool = True,
    example_id: str | None = None,
) -> list[Hypothesis]:
    """Constrained beam search; returns finished hypotheses, best first.

    Every finished hypothesis leaves no dangling schema prefix: EOS is only
    reachable outside an identifier run or at a trie terminal.  With
    ``constrained=False`` every token is a candidate and every hypothesis
    keeps the free cursor.  Ties are broken lexicographically on token ids for
    reproducibility; a finished hypothesis is its tokens without EOS, so it
    ranks before its equal-scored siblings.
    """
    if beam_width < 1 or max_len < 1:
        raise ValueError("beam width and max length must be >= 1")
    if isinstance(source, AnnotatedInput):
        if example_id is None:
            example_id = source.example_id
        source = source.tokens
    src = tuple(source)
    eos = scorer.eos_id
    all_sorted = tuple(scorer.vocab.all_ids)
    step = constraint._next if constrained else lambda cursor, token_id: (None,)

    live: list[DecodeState] = [DecodeState()]
    # The hypotheses that finish in one step have as many tokens as that
    # step's live ones, and the pool keeps one per token tuple: no two
    # finished hypotheses share tokens.
    done: list[DecodeState] = []
    for _ in range(max_len):
        if not live:
            break
        pool: dict[tuple, DecodeState] = {}
        if constrained:
            candidate_lists = [constraint.candidate_ids(state) for state in live]
        else:
            candidate_lists = [all_sorted] * len(live)
        # One scorer call per step, for every live hypothesis at once.
        batch = scorer.score_batch(
            src, [state.tokens for state in live], candidate_lists, example_id
        )
        for state, candidates, scores in zip(live, candidate_lists, batch):
            # Every pair yields at least one successor, so a pair outside its
            # parent's top 2*beam has 2*beam distinct states ranked above it
            # and cannot reach the step's top 2*beam: only those pairs are
            # advanced.  The key is the summed score the successor will
            # carry, tie-broken as the step is: on the token, with EOS (whose
            # successor keeps the parent's shorter tokens) first.
            base, node = state.score, state.node
            finishable = state.tokens and constraint.can_finish(state)
            pairs = []
            for token_id, token_score in zip(candidates, scores):
                if token_id != eos:
                    pairs.append((-(base + token_score), token_id))
                elif finishable:
                    pairs.append((-(base + token_score), -1))
            for neg_score, token_id in nsmallest(2 * beam_width, pairs):
                if token_id < 0:
                    tokens, cursors = state.tokens, (FINISHED,)
                else:
                    tokens, cursors = state.tokens + (token_id,), step(node, token_id)
                for cursor in cursors:
                    succ = DecodeState(tokens, cursor, -neg_score)
                    key = succ.key()
                    prev = pool.get(key)
                    if prev is None or succ.score > prev.score:
                        pool[key] = succ

        # Finished candidates within the step's top 2*beam go to the done
        # pool; the best beam_width unfinished ones stay live.
        live = []
        for s in nsmallest(2 * beam_width, pool.values(), key=_rank):
            if s.node is FINISHED:
                done.append(s)
            elif len(live) < beam_width:
                live.append(s)

        # Stop once no live hypothesis can still beat the kept finished set
        # (exact for non-increasing scores, a standard heuristic otherwise).
        if len(done) >= beam_width:
            done = nsmallest(beam_width, done, key=_rank)
            if live and max(s.score for s in live) < done[-1].score:
                break

    if not done:
        raise NoValidHypothesis(
            f"no hypothesis finished within {max_len} steps (beam {beam_width})"
        )

    return [Hypothesis(s.tokens, s.score) for s in sorted(done, key=_rank)[:beam_width]]


# --------------------------------------------------------------------------
# External scorer wire protocol, version 2
#
# Line-delimited JSON over a TCP socket, one scoring message per decode step.
#   handshake: {"type": "hello", "protocol": 2}
#           -> {"type": "vocab", "protocol": 2, "size": N, "eos_id": E,
#               "tokenizer_tag": T}
#   scoring:   {"type": "score", "example_id": X, "source": [s_1, ...],
#               "prefixes": [[...], ...], "lengths": [n_1, ...], "candidates": B}
#           -> {"type": "scores", "example_id": X, "scores": S}
# The source is the annotated input's token strings, sent with every message
# so that a stateless host can condition on it.
# B is base64 of little-endian int32: the candidate ids of every prefix back
# to back, lengths[i] of them for prefixes[i].  S is base64 of little-endian
# float64, one score per id of B in the same order; packed float64 is
# bit-exact, so the wire changes no score.  All fields are mandatory; any
# deviation, a protocol version other than 2 included, is a
# ProtocolViolation.

PROTOCOL_VERSION = 2


def _require(message: dict, field_name: str):
    if field_name not in message:
        raise ProtocolViolation(f"response missing field {field_name!r}: {message}")
    return message[field_name]


def _pack(code: str, values: Sequence) -> str:
    """Base64 of ``values`` as little-endian struct ``code`` items."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def _unpack(code: str, text, what: str) -> tuple:
    """Inverse of :func:`_pack`; malformed input is a ProtocolViolation."""
    if not isinstance(text, str):
        raise ProtocolViolation(f"{what} must be a base64 string, got {text!r}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error included
        raise ProtocolViolation(f"{what} is not valid base64: {exc}") from exc
    size = struct.calcsize(code)
    if len(data) % size:
        raise ProtocolViolation(f"{what}: {len(data)} bytes is not a multiple of {size}")
    return struct.unpack(f"<{len(data) // size}{code}", data)


def _split(flat: Sequence, lengths: Sequence[int]) -> list[list]:
    """``flat`` cut into consecutive runs of the given lengths."""
    out, start = [], 0
    for n in lengths:
        out.append(list(flat[start:start + n]))
        start += n
    return out


class RemoteScorer(TokenScorer):
    """TokenScorer proxy speaking the wire protocol: one round trip per
    ``score_batch`` call, so one per decode step."""

    def __init__(self, vocab: Vocabulary, sock: socket.socket, timeout: float = 10.0):
        super().__init__(vocab)
        self._sock = sock
        self._sock.settimeout(timeout)
        self._reader = sock.makefile("r", encoding="utf-8")
        self._writer = sock.makefile("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.tokenizer_tag: str | None = None

    def _roundtrip(self, request: dict) -> dict:
        with self._lock:
            try:
                self._writer.write(json.dumps(request) + "\n")
                self._writer.flush()
                line = self._reader.readline()
            except socket.timeout as exc:
                raise ScorerTimeout("scorer did not answer in time") from exc
            except OSError as exc:
                raise TransportError(f"scorer connection failed: {exc}") from exc
        if not line:
            raise TransportError("scorer closed the connection")
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolViolation(f"response is not valid JSON: {line!r}") from exc
        if not isinstance(message, dict):
            raise ProtocolViolation(f"response is not an object: {message!r}")
        return message

    def handshake(self) -> dict:
        message = self._roundtrip({"type": "hello", "protocol": PROTOCOL_VERSION})
        if _require(message, "type") != "vocab":
            raise ProtocolViolation(f"expected vocab response, got {message}")
        protocol = _require(message, "protocol")
        if protocol != PROTOCOL_VERSION:
            raise ProtocolViolation(
                f"scorer speaks protocol {protocol!r}, this client {PROTOCOL_VERSION}"
            )
        size = _require(message, "size")
        eos_id = _require(message, "eos_id")
        self.tokenizer_tag = _require(message, "tokenizer_tag")
        if size != len(self.vocab) or eos_id != self.vocab.eos_id:
            raise ProtocolViolation(
                f"scorer vocabulary mismatch: remote size={size} eos={eos_id}, "
                f"local size={len(self.vocab)} eos={self.vocab.eos_id}"
            )
        return message

    def score_batch(self, source, prefixes, candidate_lists, example_id=None):
        """One round trip for the whole batch."""
        lengths = [len(c) for c in candidate_lists]
        request = {
            "type": "score",
            "example_id": example_id if example_id is not None else "0",
            "source": list(source),
            "prefixes": [list(p) for p in prefixes],
            "lengths": lengths,
            "candidates": _pack("i", [i for c in candidate_lists for i in c]),
        }
        message = self._roundtrip(request)
        if _require(message, "type") != "scores":
            raise ProtocolViolation(f"expected scores response, got {message}")
        if _require(message, "example_id") != request["example_id"]:
            raise ProtocolViolation("response example_id does not match request")
        scores = _unpack("d", _require(message, "scores"), "scores")
        if len(scores) != sum(lengths):
            raise ProtocolViolation(f"expected {sum(lengths)} scores, got {len(scores)}")
        if not all(map(math.isfinite, scores)):
            raise ProtocolViolation("scores must be finite")
        return _split(scores, lengths)

    def score_candidates(self, source, prefix, candidates, example_id=None):
        return self.score_batch(source, [prefix], [candidates], example_id)[0]

    def close(self) -> None:
        # The socket stays open while a file made from it is open.
        for stream in (self._writer, self._reader, self._sock):
            try:
                stream.close()
            except OSError:
                pass


def external_scorer_connect(
    endpoint: str, vocab: Vocabulary, timeout: float = 10.0
) -> RemoteScorer:
    """Connect to host:port, run the handshake, and return a scorer proxy."""
    host, _, port_text = endpoint.rpartition(":")
    if not host or not port_text.isdigit():
        raise TransportError(f"endpoint must be host:port, got {endpoint!r}")
    try:
        sock = socket.create_connection((host, int(port_text)), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {endpoint}: {exc}") from exc
    scorer = RemoteScorer(vocab, sock, timeout=timeout)
    try:
        scorer.handshake()
    except Exception:
        scorer.close()
        raise
    return scorer


class ScorerServer:
    """Reference protocol server wrapping an in-process scorer.

    Meant for tests and for bridging a locally loaded model; each connection
    is served on its own thread, and each scoring message is one
    ``score_batch`` call on the wrapped scorer.
    """

    def __init__(self, scorer: TokenScorer, host: str = "127.0.0.1", port: int = 0):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                for raw in self.rfile:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    try:
                        request = json.loads(line)
                        response = outer._respond(request)
                    except Exception as exc:  # noqa: BLE001 - report, keep serving
                        response = {"type": "error", "message": str(exc)}
                    self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                    self.wfile.flush()

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self.scorer = scorer
        self._server = Server((host, port), Handler)
        self.host, self.port = self._server.server_address
        # shutdown() waits for serve_forever's next poll; a short interval
        # keeps close() prompt.
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _respond(self, request: dict) -> dict:
        kind = request.get("type")
        if kind == "hello":
            if request.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolViolation(
                    f"client protocol {request.get('protocol')!r}, "
                    f"this server speaks {PROTOCOL_VERSION}"
                )
            return {
                "type": "vocab",
                "protocol": PROTOCOL_VERSION,
                "size": len(self.scorer.vocab),
                "eos_id": self.scorer.eos_id,
                "tokenizer_tag": TOKENIZER_TAG,
            }
        if kind == "score":
            source = request.get("source")
            if not isinstance(source, list) or not all(isinstance(t, str) for t in source):
                raise ProtocolViolation("source must be a list of strings")
            prefixes, lengths = request["prefixes"], request["lengths"]
            ids = _unpack("i", request["candidates"], "candidates")
            if len(prefixes) != len(lengths) or len(ids) != sum(lengths):
                raise ProtocolViolation(
                    f"{len(prefixes)} prefixes, {len(lengths)} lengths and "
                    f"{len(ids)} candidate ids do not match"
                )
            batch = self.scorer.score_batch(
                tuple(source), prefixes, _split(ids, lengths), request["example_id"]
            )
            return {
                "type": "scores",
                "example_id": request["example_id"],
                "scores": _pack("d", [s for scores in batch for s in scores]),
            }
        return {"type": "error", "message": f"unknown request type {kind!r}"}

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
