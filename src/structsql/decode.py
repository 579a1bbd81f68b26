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
from dataclasses import dataclass, replace
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
        extra_tokens: Iterable[str] = (),
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
        ordered.extend(extra_tokens)
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

    def __contains__(self, token: str) -> bool:
        return token in self._index

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


class PrefixTrie:
    """Trie over scorer-vocabulary token ids spelling schema surface forms."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.root = TrieNode()

    def insert(self, surface: str) -> None:
        try:
            ids = self.vocab.tokenize(surface)
        except Untokenizable as exc:
            raise Untokenizable(f"schema surface form {surface!r}: {exc}") from None
        node = self.root
        for token_id in ids:
            node = node.children.setdefault(token_id, TrieNode())
        node.terminal = True

    def node_at(self, ids: Sequence[int]) -> TrieNode | None:
        node = self.root
        for token_id in ids:
            node = node.children.get(token_id)
            if node is None:
                return None
        return node


def build_trie(schema: DatabaseSchema, vocab: Vocabulary) -> PrefixTrie:
    """Trie over every table name, qualified column, the "*" pseudo-column,
    and every attached cell value (value mode, on when the schema carries
    sample values).
    """
    trie = PrefixTrie(vocab)
    for form in schema.surface_forms():
        trie.insert(form)
    for _, col in schema.iter_columns():
        for value in col.sample_values or ():
            trie.insert(value)
    return trie


# --------------------------------------------------------------------------
# Decode state and constraint


@dataclass(frozen=True)
class DecodeState:
    """Beam hypothesis: emitted ids, trie cursor (None = inactive), literal flag."""

    tokens: tuple[int, ...] = ()
    node: TrieNode | None = None
    in_literal: bool = False
    score: float = 0.0

    def key(self) -> tuple:
        return (self.tokens, id(self.node), self.in_literal)


class LexiconConstraint:
    """Per-step allowed-token masks derived from the trie.

    Lookups are cached so a call costs a dictionary probe regardless of
    schema size; the inactive-state mask is precomputed at construction.
    """

    def __init__(self, trie: PrefixTrie, vocab: Vocabulary):
        self.trie = trie
        self.vocab = vocab
        self._free_base = vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id}
        self._inactive_sorted = tuple(sorted(self._free_base | set(trie.root.children)))
        self._literal_sorted = tuple(i for i in vocab.all_ids if i != vocab.eos_id)
        self._node_sorted: dict[int, tuple[int, ...]] = {}

    def candidate_ids(self, state: DecodeState) -> tuple[int, ...]:
        """Legal next token ids for a hypothesis, in ascending order.

        Inactive cursor: keywords, trie-root children, literals, EOS.
        Mid-path: trie children only.  At a terminal: children plus the
        free set (the identifier may end here or extend).  Inside a quoted
        literal: every id but EOS.
        """
        if state.in_literal:
            return self._literal_sorted
        node = state.node
        if node is None:
            return self._inactive_sorted
        cached = self._node_sorted.get(id(node))
        if cached is None:
            allowed = set(node.children)
            if node.terminal:
                allowed |= self._free_base
            cached = tuple(sorted(allowed))
            self._node_sorted[id(node)] = cached
        return cached

    def advance(self, state: DecodeState, token_id: int, score: float) -> list[DecodeState]:
        """Successor states after emitting a token.

        A terminal node that is also a prefix of a longer form yields both
        continuations as separate hypotheses.
        """
        tokens = state.tokens + (token_id,)
        new_score = state.score + score
        if state.in_literal:
            closing = token_id == self.vocab.quote_id
            return [
                DecodeState(tokens, None, in_literal=not closing, score=new_score)
            ]
        out: list[DecodeState] = []
        node = state.node
        if node is not None:
            child = node.children.get(token_id)
            if child is not None:
                out.append(DecodeState(tokens, child, score=new_score))
            if node.terminal:
                out.extend(self._fresh(tokens, token_id, new_score))
        else:
            out.extend(self._fresh(tokens, token_id, new_score))
        seen: set[tuple] = set()
        unique = []
        for s in out:
            if s.key() not in seen:
                seen.add(s.key())
                unique.append(s)
        return unique

    def _fresh(self, tokens: tuple[int, ...], token_id: int, score: float) -> list[DecodeState]:
        out = []
        if token_id == self.vocab.quote_id:
            out.append(DecodeState(tokens, None, in_literal=True, score=score))
            return out
        child = self.trie.root.children.get(token_id)
        if child is not None:
            out.append(DecodeState(tokens, child, score=score))
        if token_id in self.vocab.keyword_ids or token_id in self.vocab.literal_ids:
            out.append(DecodeState(tokens, None, score=score))
        return out

    def can_finish(self, state: DecodeState) -> bool:
        if state.in_literal:
            return False
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


class AdversarialScorer(OracleScorer):
    """Oracle that prefers a lure token wherever the target expects a victim.

    Unconstrained decoding therefore emits the lure; constraint masking
    forces the victim back.
    """

    def __init__(self, vocab: Vocabulary, target_ids: Sequence[int], victim_id: int, lure_id: int):
        super().__init__(vocab, target_ids)
        self.victim_id = victim_id
        self.lure_id = lure_id

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        if self._expected(prefix) == self.victim_id:
            scores = [
                2.0 if c == self.lure_id else s for c, s in zip(candidates, scores)
            ]
        return scores


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


def _source_tokens(source) -> tuple[str, ...]:
    if isinstance(source, AnnotatedInput):
        return source.tokens
    return tuple(source)


def beam_search(
    scorer: TokenScorer,
    source: AnnotatedInput | Sequence[str],
    trie: PrefixTrie | LexiconConstraint | None,
    beam_width: int = 5,
    max_len: int = 200,
    *,
    constrained: bool = True,
    example_id: str | None = None,
) -> list[Hypothesis]:
    """Constrained beam search; returns finished hypotheses, best first.

    Every finished hypothesis leaves no dangling schema prefix: EOS is only
    reachable outside an identifier run or at a trie terminal.  Ties are
    broken lexicographically on token ids for reproducibility.
    """
    if beam_width < 1 or max_len < 1:
        raise ValueError("beam width and max length must be >= 1")
    if isinstance(trie, LexiconConstraint):
        constraint = trie
    elif trie is not None:
        constraint = LexiconConstraint(trie, scorer.vocab)
    else:
        constraint = None
        constrained = False
    if example_id is None and isinstance(source, AnnotatedInput):
        example_id = source.example_id
    src = _source_tokens(source)
    vocab = scorer.vocab
    eos = scorer.eos_id
    all_sorted = tuple(vocab.all_ids)

    live: list[DecodeState] = [DecodeState()]
    done: dict[tuple[int, ...], DecodeState] = {}
    for _ in range(max_len):
        if not live:
            break
        pool: dict[tuple, DecodeState] = {}
        finished: dict[tuple[int, ...], DecodeState] = {}
        if constrained:
            candidate_lists = [constraint.candidate_ids(state) for state in live]
        else:
            candidate_lists = [all_sorted] * len(live)
        # One scorer call per step, for every live hypothesis at once.
        batch = scorer.score_batch(
            src, [state.tokens for state in live], candidate_lists, example_id
        )
        for state, candidates, scores in zip(live, candidate_lists, batch):
            # Each non-EOS candidate yields at least one successor, so a pair
            # outside its parent's top 2*beam has 2*beam distinct states
            # ranked above it and cannot reach the step's top 2*beam: only
            # those pairs are advanced.  The key is the summed score the
            # successor will carry, tie-broken on the token as the step is.
            pairs = []
            for token_id, token_score in zip(candidates, scores):
                if token_id != eos:
                    pairs.append((-(state.score + token_score), token_id, token_score))
                elif state.tokens and not state.in_literal and (
                    not constrained or constraint.can_finish(state)
                ):
                    final = replace(state, score=state.score + token_score)
                    prev = finished.get(final.tokens)
                    if prev is None or final.score > prev.score:
                        finished[final.tokens] = final
            for _, token_id, token_score in nsmallest(2 * beam_width, pairs):
                if constrained:
                    successors = constraint.advance(state, token_id, token_score)
                else:
                    successors = [
                        DecodeState(
                            state.tokens + (token_id,),
                            None,
                            score=state.score + token_score,
                        )
                    ]
                for succ in successors:
                    prev = pool.get(succ.key())
                    if prev is None or succ.score > prev.score:
                        pool[succ.key()] = succ

        # Finished candidates within the step's top 2*beam go to the done
        # pool; the best beam_width unfinished ones stay live.
        ranked = nsmallest(
            2 * beam_width,
            list(pool.values()) + list(finished.values()),
            key=lambda s: (-s.score, s.tokens),
        )
        live = []
        for s in ranked:
            if finished.get(s.tokens) is s:
                prev = done.get(s.tokens)
                if prev is None or s.score > prev.score:
                    done[s.tokens] = s
            elif len(live) < beam_width:
                live.append(s)

        # Stop once no live hypothesis can still beat the kept finished set
        # (exact for non-increasing scores, a standard heuristic otherwise).
        if len(done) >= beam_width:
            kept = nsmallest(
                beam_width, done.values(), key=lambda s: (-s.score, s.tokens)
            )
            done = {s.tokens: s for s in kept}
            if live and max(s.score for s in live) < kept[-1].score:
                break

    if not done:
        raise NoValidHypothesis(
            f"no hypothesis finished within {max_len} steps (beam {beam_width})"
        )

    ranked_done = sorted(done.values(), key=lambda s: (-s.score, s.tokens))[:beam_width]
    return [Hypothesis(s.tokens, s.score) for s in ranked_done]


# --------------------------------------------------------------------------
# External scorer wire protocol, version 2
#
# Line-delimited JSON over a TCP socket, one scoring message per decode step.
#   handshake: {"type": "hello", "protocol": 2}
#           -> {"type": "vocab", "protocol": 2, "size": N, "eos_id": E,
#               "tokenizer_tag": T}
#   scoring:   {"type": "score", "example_id": X, "prefixes": [[...], ...],
#               "lengths": [n_1, ...], "candidates": B}
#           -> {"type": "scores", "example_id": X, "scores": S}
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
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
            prefixes, lengths = request["prefixes"], request["lengths"]
            ids = _unpack("i", request["candidates"], "candidates")
            if len(prefixes) != len(lengths) or len(ids) != sum(lengths):
                raise ProtocolViolation(
                    f"{len(prefixes)} prefixes, {len(lengths)} lengths and "
                    f"{len(ids)} candidate ids do not match"
                )
            batch = self.scorer.score_batch(
                (), prefixes, _split(ids, lengths), request["example_id"]
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
