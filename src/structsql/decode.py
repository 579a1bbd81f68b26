"""Lexicon-constrained beam search over a schema prefix trie.

No SQL grammar automaton is involved: keywords and literals decode freely,
but once a token starts a schema surface form the following tokens must spell
a complete trie path.  The trie is suspended inside quoted string literals,
and a number is spelled one digit token at a time.
The neural scorer is abstracted behind :class:`TokenScorer`, whose one
method, ``score_candidates``, scores the allowed next tokens of a prefix.
The search itself is a generator, ``beam_steps``: each decode step it yields
one :class:`ScoreRequest` for every live hypothesis of its example and is
sent back the scores.  ``beam_search`` drives one such search; a caller that
drives several at once asks ``score_batch`` for all of their requests in
one call, and the wire protocol carries that call as one message, so an
external model scores every ready example of a step in one round trip.
Both ends of a connection keep the sources and candidate lists it has
carried, so each crosses the connection once and is named by its index
after that.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import struct
import sys
import threading
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from heapq import nsmallest
from itertools import chain, islice
from math import inf, isfinite
from typing import Generator, Iterable, Iterator, NamedTuple, Sequence

from structsql.annotate import AnnotatedInput
from structsql.schema import DatabaseSchema, STAR
from structsql.sql_ast import KEYWORDS, Agg

EOS_TOKEN = "</s>"
QUOTE_TOKEN = "'"

SQL_KEYWORD_TOKENS: tuple[str, ...] = (*KEYWORDS, "=", "!=", "<", ">", "<=", ">=", "(", ")", ",")

_PIECE_RE = re.compile(r"\d+\.\d+|\d+|\w+|<=|>=|!=|<>|[^\w\s]", re.UNICODE)
# The vocabulary's split: every digit is a token and a word starts with a
# non-digit; inside single quotes every whitespace character is a token too.
_PLAIN_RE = re.compile(r"\d|[^\W\d]\w*|<=|>=|!=|<>|[^\w\s]")
_QUOTED_RE = re.compile(r"\d|[^\W\d]\w*|<=|>=|!=|<>|[^\w\s]|\s")
_WORD = re.compile(r"\w")
_NO_SPACE_BEFORE = {".", ",", ")", ";"}
_NO_SPACE_AFTER = {".", "("}
_AGGREGATES = {agg.value for agg in Agg if agg is not Agg.NONE}

TOKENIZER_TAG = "wordpiece-v2"


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
    """Deterministic sub-word split of ``text`` with numbers kept whole.  It
    is not the scorer vocabulary's split, which spells a number digit by
    digit (``Vocabulary.tokenize``)."""
    return _PIECE_RE.findall(text)


def _token_split(text: str) -> list[str]:
    """The vocabulary's tokens of ``text``."""
    if QUOTE_TOKEN not in text:
        return _PLAIN_RE.findall(text)
    runs = text.split(QUOTE_TOKEN)
    out = _PLAIN_RE.findall(runs[0])
    for i in range(1, len(runs)):
        out.append(QUOTE_TOKEN)
        out += (_QUOTED_RE if i % 2 else _PLAIN_RE).findall(runs[i])
    return out


def _token_split_all(texts: Iterable[str]) -> tuple[list[str], list[str]]:
    """The vocabulary's tokens of ``texts`` in order, save whitespace inside
    quotes, and every token inside quotes.  A token never spans a quote, and
    inside quotes the split differs only by its whitespace tokens, so one
    regex pass over the joined texts finds the first list and one over
    their quoted runs the second."""
    texts = list(texts)
    joined = " ".join(texts)
    quoted: list[str] = []
    if QUOTE_TOKEN in joined:
        runs = (run for text in texts for run in text.split(QUOTE_TOKEN)[1::2])
        quoted = _QUOTED_RE.findall(" ".join(runs))
    return _PLAIN_RE.findall(joined), quoted


class Vocabulary:
    """Token id <-> surface form map with keyword/literal categories.

    ``keyword_ids`` are SQL keywords and punctuation; ``literal_ids`` are
    tokens that may appear as free-standing values (the digits, the quote,
    and the words observed inside string literals or cell values).  A number is
    spelled one digit token at a time, and so is every whitespace character
    inside quotes, so quoted text comes back exactly.
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
        self.digit_ids: frozenset[int] = frozenset(
            i for i, t in enumerate(self._tokens) if len(t) == 1 and t.isdecimal()
        )
        # Punctuation and whitespace spell quoted text; only a word stands
        # for a value.
        literal = {self._index[t] for t in literal_forms if t in self._index and _WORD.match(t)}
        if self.quote_id is not None:
            literal.add(self.quote_id)
        literal |= self.digit_ids
        literal.discard(self.eos_id)
        self.literal_ids: frozenset[int] = frozenset(literal)
        self.all_ids: tuple[int, ...] = tuple(range(len(self._tokens)))

    @classmethod
    def build(
        cls,
        schemas: Iterable[DatabaseSchema],
        corpus_texts: Iterable[str] = (),
    ) -> "Vocabulary":
        """Assemble a vocabulary covering keywords, digits, schema names, and
        corpus text.

        Words observed inside quoted literals of ``corpus_texts`` and all cell
        values become literal tokens; everything else stays plain.
        """
        ordered: list[str] = [EOS_TOKEN, *SQL_KEYWORD_TOKENS, QUOTE_TOKEN, ".", STAR, *"0123456789", " "]
        literal_forms: list[str] = []
        for schema in schemas:
            ordered += chain(*_token_split_all(schema.surface_forms()))
            values = _token_split_all(
                v for _, col in schema.iter_columns() for v in col.sample_values or ()
            )
            ordered += chain(*values)
            literal_forms += chain(*values)
        tokens, quoted = _token_split_all(corpus_texts)
        return cls(ordered + tokens + quoted, literal_forms=literal_forms + quoted)

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
        split = _token_split(text)
        if not split:
            raise Untokenizable(f"nothing to tokenize in {text!r}")
        index = self._index
        try:
            return [index[p] for p in split]
        except KeyError as exc:
            raise Untokenizable(f"token {exc.args[0]!r} not in vocabulary") from None

    def detokenize(self, ids: Sequence[int]) -> str:
        """Text of ``ids``: quoted text joined with nothing added, a digit
        run outside quotes joined into one number, and other tokens spaced
        by the renderer's rules."""
        out: list[str] = []
        in_quote = False
        prev, prev_id = "", -1
        for token_id in ids:
            tok = self.surface(token_id)
            if in_quote or not out:
                out.append(tok)
            elif tok == QUOTE_TOKEN:
                # A quote right after a closing one reopens it: a '' escape.
                out.append(tok if prev == QUOTE_TOKEN else " " + tok)
            elif (
                tok in _NO_SPACE_BEFORE
                or prev in _NO_SPACE_AFTER
                or (tok == "(" and prev in _AGGREGATES)
                or (token_id in self.digit_ids and prev_id in self.digit_ids)
            ):
                out.append(tok)
            else:
                out.append(" " + tok)
            if tok == QUOTE_TOKEN:
                in_quote = not in_quote
            prev, prev_id = tok, token_id
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

# Cursor sentinel beside ``None`` (free) and trie nodes: inside a quoted
# literal.  It has no children and is not terminal.
LITERAL = TrieNode()


class DecodeState(NamedTuple):
    """Beam hypothesis: emitted ids, cursor and summed score.

    The cursor is ``None`` (free), ``LITERAL`` or a trie node, the
    constraint's number cursor included.
    """

    tokens: tuple[int, ...] = ()
    node: TrieNode | None = None
    score: float = 0.0


class LexiconConstraint:
    """Per-cursor allowed-token masks and transitions derived from the trie.

    Masks live in one table keyed by cursor identity, so a lookup costs a
    dictionary probe regardless of schema size.  The free and literal masks
    are filled at construction, trie-node masks on first use.

    A digit moves to the terminal ``number`` cursor, where the number may
    end or go on: another digit keeps it, and its only child, ".", leads to
    the digits of a fraction.  So "." is never free after a name.
    """

    def __init__(self, root: TrieNode, vocab: Vocabulary):
        self.root = root
        self.vocab = vocab
        self.number = TrieNode()
        self.number.terminal = True
        with suppress(Untokenizable):  # a vocabulary without "." spells no fraction
            point = TrieNode()
            point.children = dict.fromkeys(vocab.digit_ids, self.number)
            self.number.children[vocab.id_of(".")] = point
        self._free_base = vocab.keyword_ids | vocab.literal_ids | {vocab.eos_id}
        self._allowed: dict[int, tuple[int, ...]] = {
            id(None): tuple(sorted(self._free_base | set(root.children))),
            id(LITERAL): tuple(i for i in vocab.all_ids if i != vocab.eos_id),
        }

    def candidate_ids(self, state: DecodeState) -> tuple[int, ...]:
        """Legal next token ids for a hypothesis, in ascending order.

        Free cursor: keywords, trie-root children, literals (digits among
        them), EOS.  Mid-path: trie children only.  At a terminal, the
        number cursor included: children plus the free set (the identifier
        or number may end here or extend).  Inside a quoted literal: every
        id but EOS.
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
        deeper cursor and a fresh one.  A digit yields the number cursor
        first, and a digit after a digit only that.  The cursors are
        distinct, so successors never share tokens and cursor.
        """
        if cursor is LITERAL:
            return (None,) if token_id == self.vocab.quote_id else (LITERAL,)
        digit = token_id in self.vocab.digit_ids
        if digit and cursor is self.number:
            return (cursor,)
        out: tuple[TrieNode | None, ...] = ()
        if cursor is not None:
            child = cursor.children.get(token_id)
            if child is not None:
                out = (child,)
            if not cursor.terminal:
                return out
        # A fresh identifier run, a number, a literal or a keyword starts here.
        if token_id == self.vocab.quote_id:
            return out + (LITERAL,)
        if digit:
            out = (self.number, *out)
        child = self.root.children.get(token_id)
        if child is not None:
            out += (child,)
        if not digit and (token_id in self.vocab.keyword_ids or token_id in self.vocab.literal_ids):
            out += (None,)
        return out


# --------------------------------------------------------------------------
# Scorers


class ScoreRequest(NamedTuple):
    """One example's share of a scoring call: its source and id, and the
    prefixes of one decode step with the candidate ids of each."""

    source: tuple[str, ...]
    example_id: str | None
    prefixes: Sequence[Sequence[int]]
    candidate_lists: Sequence[Sequence[int]]


class TokenScorer:
    """Behavioral contract standing in for an autoregressive language model.

    Implementations provide a vocabulary (which fixes the end-of-sequence
    id) and one method, :meth:`score_candidates`.  Searches ask through
    :meth:`score_batch`, once per step for every search they drive; its
    default loops over ``score_candidates``, and a scorer that can batch (a
    remote host, a GPU model) overrides it.  A score depends only on its own
    example, prefix and token, so batching, within an example or across
    examples, changes no score and the exactness contract below holds
    either way.
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
        which other candidates are in the list.  ``beam_search`` advances
        only each hypothesis's best ``2*beam`` candidates, and of those only
        the ones at or above the step's score floor, set by an earlier
        hypothesis that advanced a full ``2*beam``.  Both cuts are exact
        only under this contract: the floor also relies on two hypotheses
        with equal tokens getting equal scores for the same candidate.
        A score may be ``-inf``; a NaN score is outside the contract.
        """
        raise NotImplementedError

    def score_batch(self, requests: Sequence[ScoreRequest]) -> Iterable[list[list[float]]]:
        """``score_candidates`` for the requests of several examples: per
        request, in order, one score list per prefix, each equal to what
        ``score_candidates`` gives for that prefix and its candidates.  Each
        request's lists are made only as the caller iterates to them, so a
        caller that uses them one request at a time holds one request's
        scores at a time."""
        return (
            [
                self.score_candidates(source, prefix, candidates, example_id)
                for prefix, candidates in zip(prefixes, candidate_lists)
            ]
            for source, example_id, prefixes, candidate_lists in requests
        )


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


def oracle_scorer(target: str, vocab: Vocabulary) -> OracleScorer:
    """Build an oracle scorer from target text; blank text raises
    :class:`Untokenizable`."""
    return OracleScorer(vocab, vocab.tokenize(target))


_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)


def _mix(*values: int) -> int:
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= (v + 0x9E3779B97F4A7C15 + ((h << 6) & _MASK64) + (h >> 2)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 31
    return h


class RandomScorer(TokenScorer):
    """Seeded pseudo-random scores, deterministic for fixed inputs and seed:
    ``_mix(seed, len(prefix), last token or -1, candidate) / 2**64``."""

    def __init__(self, vocab: Vocabulary, seed: int = 0):
        super().__init__(vocab)
        self.seed = seed

    def score_candidates(self, source, prefix, candidates, example_id=None):
        # _mix folds left to right: the state before the candidate is shared,
        # and each candidate finishes its own last round.
        h = _mix(self.seed, len(prefix), prefix[-1] if prefix else -1)
        base = 0x9E3779B97F4A7C15 + ((h << 6) & _MASK64) + (h >> 2)
        return [
            ((x := (h ^ (c + base) & _MASK64) * 0xBF58476D1CE4E5B9 & _MASK64) ^ x >> 31)
            / _TWO64
            for c in candidates
        ]


# --------------------------------------------------------------------------
# Beam search


@dataclass(frozen=True)
class Hypothesis:
    token_ids: tuple[int, ...]
    score: float

    def text(self, vocab: Vocabulary) -> str:
        return vocab.detokenize(self.token_ids)


def _rank(hyp: Hypothesis) -> tuple:
    """Result ranking: higher summed score first, then lower token ids."""
    return (-hyp.score, hyp.token_ids)


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

    Drives one :func:`beam_steps` search, with one ``score_batch`` call per
    step; a beam width or maximum length below 1 raises ValueError before
    any scoring.
    """
    search = beam_steps(
        scorer.vocab, source, constraint, beam_width, max_len,
        constrained=constrained, example_id=example_id,
    )
    try:
        request = next(search)
        while True:
            [scores] = scorer.score_batch([request])
            request = search.send(scores)
    except StopIteration as stop:
        return stop.value


def beam_steps(
    vocab: Vocabulary,
    source: AnnotatedInput | Sequence[str],
    constraint: LexiconConstraint,
    beam_width: int = 5,
    max_len: int = 200,
    *,
    constrained: bool = True,
    example_id: str | None = None,
) -> Generator[ScoreRequest, list[list[float]], list[Hypothesis]]:
    """Constrained beam search over the scorer vocabulary ``vocab``, one
    decode step per yield.

    Each step yields a :class:`ScoreRequest` for every live hypothesis and
    must be sent one score list per prefix, as ``score_batch`` gives them.
    The search returns its finished hypotheses, best first, or raises
    NoValidHypothesis.

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
    eos = vocab.eos_id
    all_sorted = tuple(vocab.all_ids)
    step = constraint._next if constrained else lambda cursor, token_id: (None,)

    live: list[DecodeState] = [DecodeState()]
    # The hypotheses that finish in one step have as many tokens as that
    # step's live ones, and the pool keeps one per token tuple: no two
    # finished hypotheses share tokens.
    done: list[Hypothesis] = []
    for _ in range(max_len):
        if not live:
            break
        if constrained:
            candidate_lists = [constraint.candidate_ids(state) for state in live]
        else:
            candidate_lists = [all_sorted] * len(live)
        # One request per step, for every live hypothesis at once.  A
        # suspended search holds no scores: they live only inside _expand.
        live, finished = _expand(live, candidate_lists, (yield ScoreRequest(
            src, example_id, [state.tokens for state in live], candidate_lists
        )), eos, step, beam_width)
        done += finished

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

    return sorted(done, key=_rank)[:beam_width]


def _expand(
    live: list[DecodeState],
    candidate_lists: list[Sequence[int]],
    batch: Iterable[list[float]],
    eos: int,
    step,
    beam_width: int,
) -> tuple[list[DecodeState], list[Hypothesis]]:
    """One decode step of ``beam_steps``: the live hypotheses after scoring
    ``candidate_lists`` with ``batch``, and the ones that finished."""
    # Live states hold equally many tokens, so successors' tokens compare
    # as (parent's rank among the live tuples, token), EOS being -1 with
    # cursor None.  The pool maps (rank, token, cursor) to (-score, rank,
    # token, insertion index, cursor), which sorts plainly and, on equal
    # tokens, in insertion order; tokens, states and hypotheses are built
    # only for the step's winners.  Each key is inserted once: live
    # hypotheses with equal tokens have equal prefixes, per-token scores and
    # order of additions, so their sums on a token are bit-equal.
    prefixes = sorted({state.tokens for state in live})
    rank_of = {tokens: rank for rank, tokens in enumerate(prefixes)}
    pool: dict[tuple, tuple] = {}
    # A parent that advances a full 2*beam puts as many distinct keys
    # (one per token) in the pool at or above its lowest summed score,
    # and a key keeps its first score.  So a later parent's candidate
    # strictly below that floor cannot reach the step's top 2*beam, and it
    # is not advanced.  Ties at the floor are kept.
    width = 2 * beam_width
    floor = -inf
    for (tokens, node, base), candidates, scores in zip(live, candidate_lists, batch):
        # Every candidate yields at least one successor, so one outside its
        # parent's top 2*beam cannot reach the step's top 2*beam: only those
        # are advanced.  Adding base is monotone, so the raw scores sorted
        # in C order the sums too, save ties that rounding makes.  The walk
        # takes sums down to the floor, which rises to the 2*beam-th; so the
        # head holds every sum that ties it, and its sort settles ties as
        # the step does, by token with EOS (-1) first.  Equal raw scores are
        # found at ascending indices.  EOS cannot end the empty prefix.
        head = []
        at, last = -1, None
        for v in sorted(scores, reverse=True):
            s = base + v
            if s < floor:
                break
            at = scores.index(v, at + 1 if v == last else 0)
            last, token_id = v, candidates[at]
            if token_id == eos:
                if not tokens:
                    continue
                token_id = -1
            head.append((-s, token_id))
            if len(head) == width:
                floor = s
        head.sort()
        rank = rank_of[tokens]
        for neg, token_id in head[:width]:
            for cursor in (None,) if token_id < 0 else step(node, token_id):
                key = (rank, token_id, id(cursor))
                if key not in pool:
                    pool[key] = (neg, rank, token_id, len(pool), cursor)

    # Finished candidates within the step's top 2*beam go to the done
    # pool; the best beam_width unfinished ones stay live.
    successors: list[DecodeState] = []
    finished: list[Hypothesis] = []
    for neg, rank, token_id, _, cursor in sorted(pool.values())[:width]:
        if token_id < 0:
            finished.append(Hypothesis(prefixes[rank], -neg))
        elif len(successors) < beam_width:
            successors.append(DecodeState(prefixes[rank] + (token_id,), cursor, -neg))
    return successors, finished


# --------------------------------------------------------------------------
# External scorer wire protocol, version 6
#
# One message per ``score_batch`` call over a TCP socket, so one per decode
# step for every example a caller steps together.  Every message is one
# UTF-8 JSON header line; a `score` or `scores` header is followed by a raw
# body of exactly "bytes" bytes, and `hello`, `vocab` and `error` have no
# body.
#   handshake: {"type": "hello", "protocol": 6}
#           -> {"type": "vocab", "protocol": 6, "size": N, "eos_id": E,
#               "tokenizer_tag": T}
#   scoring:   {"type": "score", "sources": [[s_1, ...], ...],
#               "lists": [n_1, ...], "examples": [X, ...], "bytes": B}
#              + little-endian int32 in five sections, examples and their
#                prefixes in request order: the new lists' ids back to back;
#                each example's source index and prefix count; the length of
#                every prefix; the list index of every prefix; the ids of
#                every prefix back to back
#           -> {"type": "scores", "example_ids": [X, ...],
#               "bytes": 8 * (the lengths of every prefix's list)}
#              + little-endian float64: one score per candidate id, in order
# Both ends of a connection keep two append-only tables: the sources (an
# annotated input's token strings) and the candidate lists it has carried.
# A message first appends its `sources` and, with `lists` giving their
# lengths, its new lists; source and list indices then count from 0 over
# everything the connection has carried.  So each source and each list
# crosses a connection once, and the tables live as long as the connection.
# Packed float64 is bit-exact, so the wire changes no score.  All header
# fields are mandatory; any deviation, a protocol version other than 6 or a
# tokenizer_tag other than TOKENIZER_TAG included, is a ProtocolViolation.
# Message order carries the tables, and a binary body can leave a stream out
# of step, so a client encodes under its connection's lock and uses a
# connection no more after a fault, and the server answers every fault with
# `error` and closes the connection.

PROTOCOL_VERSION = 6

_SWAP = sys.byteorder != "little"


def _require(message: dict, field_name: str):
    if field_name not in message:
        raise ProtocolViolation(f"message missing field {field_name!r}: {message}")
    return message[field_name]


def _header(line: bytes) -> dict:
    try:
        message = json.loads(line)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ProtocolViolation(f"header is not valid JSON: {line[:200]!r}") from exc
    if not isinstance(message, dict):
        raise ProtocolViolation(f"header is not an object: {message!r}")
    return message


def _line(message: dict) -> bytes:
    return (json.dumps(message) + "\n").encode()


def _pack(code: str, values: list) -> bytes:
    """``values`` as little-endian ``code`` items ("i" int32, "d" float64)."""
    return struct.pack(f"<{len(values)}{code}", *values)


def _unpack(code: str, body: bytes) -> array:
    """The little-endian ``code`` items of ``body``."""
    values = array(code)
    values.frombytes(body)
    if _SWAP:
        values.byteswap()
    return values


def _split(flat: Sequence, lengths: Sequence[int]) -> list:
    """``flat`` cut into consecutive runs of the given lengths."""
    out, start = [], 0
    for n in lengths:
        out.append(flat[start:start + n])
        start += n
    return out


def _finite(body: bytes) -> bool:
    """Whether every little-endian float64 of ``body`` is finite.  A float64
    is non-finite exactly when its 11 exponent bits are all set, so only a
    value whose high byte is 0x7F or 0xFF needs a closer look."""
    high = body[7::8]
    return (b"\x7f" not in high and b"\xff" not in high) or all(map(isfinite, _unpack("d", body)))


def _per_example(body: bytes, lengths: list[list[int]]) -> Iterator[list[list[float]]]:
    """Each request's score lists, decoded from the float64 ``body`` only
    when reached."""
    scores = _unpack("d", body) if _SWAP else memoryview(body).cast("d")
    start = 0
    for example_lengths in lengths:
        lists = []
        for n in example_lengths:
            lists.append(scores[start:start + n].tolist())
            start += n
        yield lists


def _index(table: dict[tuple, int], by_id: dict[int, tuple[tuple, int]], seq: Sequence) -> int:
    """The index of ``seq`` in ``table``, which gives a sequence it lacks the
    next one.  A tuple looked up once is found by identity after that:
    ``by_id`` holds it, so its id names no other object while it is there."""
    hit = by_id.get(id(seq))
    if hit is not None:
        return hit[1]
    index = table.setdefault(tuple(seq), len(table))
    if type(seq) is tuple:
        by_id[id(seq)] = seq, index
    return index


class RemoteScorer(TokenScorer):
    """TokenScorer proxy speaking the wire protocol: one round trip per
    ``score_batch`` call, whatever the number of examples in it.  It keeps
    the connection's tables of the sources and candidate lists it has sent.
    After any exception inside a call, when the stream or the tables may be
    out of step with the host, every call raises TransportError without
    touching the connection again."""

    def __init__(self, vocab: Vocabulary, sock: socket.socket, timeout: float = 10.0):
        super().__init__(vocab)
        self._sock = sock
        self._sock.settimeout(timeout)
        self._reader = sock.makefile("rb")
        self._lock = threading.Lock()
        self._broken: str | None = None
        # The index of each source and candidate list sent on the connection,
        # and by object id (see _index): a search reuses its source tuple,
        # and a constraint hands out cached candidate tuples.
        self._sources: dict[tuple[str, ...], int] = {}
        self._lists: dict[tuple[int, ...], int] = {}
        self._source_ids: dict[int, tuple[tuple, int]] = {}
        self._list_ids: dict[int, tuple[tuple, int]] = {}

    @contextmanager
    def _exclusive(self):
        with self._lock:
            if self._broken is not None:
                raise TransportError(f"scorer connection unusable after: {self._broken}")
            try:
                yield
            except Exception as exc:
                self._broken = f"{type(exc).__name__}: {exc}"
                raise

    def _roundtrip(self, message: bytes, body_bytes: int | None = None) -> tuple[dict, bytes]:
        """Send ``message``; read the answer's header and, when ``body_bytes``
        is given, the body of a ``scores`` header announcing that size."""
        body = b""
        try:
            self._sock.sendall(message)
            line = self._reader.readline()
            if not line:
                raise TransportError("scorer closed the connection")
            header = _header(line)
            if body_bytes is not None:
                if _require(header, "type") != "scores":
                    raise ProtocolViolation(f"expected scores response, got {header}")
                size = _require(header, "bytes")
                if type(size) is not int or size != body_bytes:
                    raise ProtocolViolation(
                        f"expected a {body_bytes}-byte scores body, header says {size!r}"
                    )
                body = self._reader.read(size)
                if len(body) != size:
                    raise TransportError("scorer closed the connection inside a message")
        except socket.timeout as exc:
            raise ScorerTimeout("scorer did not answer in time") from exc
        except OSError as exc:
            raise TransportError(f"scorer connection failed: {exc}") from exc
        return header, body

    def handshake(self) -> dict:
        with self._exclusive():
            message, _ = self._roundtrip(_line({"type": "hello", "protocol": PROTOCOL_VERSION}))
            if _require(message, "type") != "vocab":
                raise ProtocolViolation(f"expected vocab response, got {message}")
            protocol = _require(message, "protocol")
            if protocol != PROTOCOL_VERSION:
                raise ProtocolViolation(
                    f"scorer speaks protocol {protocol!r}, this client {PROTOCOL_VERSION}"
                )
            size = _require(message, "size")
            eos_id = _require(message, "eos_id")
            tag = _require(message, "tokenizer_tag")
            if size != len(self.vocab) or eos_id != self.vocab.eos_id or tag != TOKENIZER_TAG:
                raise ProtocolViolation(
                    f"scorer vocabulary mismatch: remote size={size} eos={eos_id} "
                    f"tokenizer={tag!r}, local size={len(self.vocab)} "
                    f"eos={self.vocab.eos_id} tokenizer={TOKENIZER_TAG!r}"
                )
        return message

    def score_batch(self, requests):
        """One round trip for every request.  A source or candidate list the
        connection has not carried gets the next index and goes with the
        message; the lock keeps the indices in the order of the messages.
        The reply is checked whole, and each request's score lists are made
        as the caller iterates to them."""
        with self._exclusive():
            # A key the table lacks gets the next index; the keys after the
            # ones it had are this message's new sources and lists.
            sources, lists = self._sources, self._lists
            source_ids, list_ids = self._source_ids, self._list_ids
            carried = len(sources), len(lists)
            example_ids, heads, prefix_lengths, picks, prefix_ids, sizes = [], [], [], [], [], []
            for source, example_id, prefixes, candidate_lists in requests:
                example_ids.append("0" if example_id is None else example_id)
                heads += _index(sources, source_ids, source), len(prefixes)
                prefix_lengths += map(len, prefixes)
                for prefix in prefixes:
                    prefix_ids += prefix
                sizes.append([*map(len, candidate_lists)])
                for c in candidate_lists:
                    picks.append(_index(lists, list_ids, c))
            new_lists = [*islice(lists, carried[1], None)]
            body = _pack("i", [*chain.from_iterable(new_lists), *heads, *prefix_lengths, *picks,
                               *prefix_ids])
            message = _line({
                "type": "score", "sources": [*islice(sources, carried[0], None)],
                "lists": [len(c) for c in new_lists], "examples": example_ids, "bytes": len(body),
            }) + body
            reply, body = self._roundtrip(message, 8 * sum(map(sum, sizes)))
            if _require(reply, "example_ids") != example_ids:
                raise ProtocolViolation("response example_ids do not match the request")
            if not _finite(body):
                raise ProtocolViolation("scores must be finite")
        return _per_example(body, sizes)

    def score_candidates(self, source, prefix, candidates, example_id=None):
        request = ScoreRequest(tuple(source), example_id, [prefix], [candidates])
        [[scores]] = self.score_batch([request])
        return scores

    def close(self) -> None:
        # The socket stays open while a file made from it is open.
        for stream in (self._reader, self._sock):
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


def _frame(header: dict, vocab_size: int) -> tuple[list, list[int], list[str]]:
    """A ``score`` header's new sources, the lengths of its new lists and
    its example ids, when its ``bytes`` field can frame a body for them;
    anything else is a ProtocolViolation."""
    sources = header.get("sources")
    if not (isinstance(sources, list)
            and all(isinstance(s, list) and set(map(type, s)) <= {str} for s in sources)):
        raise ProtocolViolation("sources must be a list of lists of strings")
    lists = header.get("lists")
    if not (isinstance(lists, list) and set(map(type, lists)) <= {int}
            and min(lists, default=0) >= 0):
        raise ProtocolViolation("lists must be a list of non-negative ints")
    if max(lists, default=0) > vocab_size:
        raise ProtocolViolation(f"lists must not exceed the vocabulary size {vocab_size}")
    examples = header.get("examples")
    if not (isinstance(examples, list) and set(map(type, examples)) <= {str}):
        raise ProtocolViolation("examples must be a list of example id strings")
    size, least = header.get("bytes"), 4 * (sum(lists) + 2 * len(examples))
    if type(size) is not int or size % 4 or size < least:
        raise ProtocolViolation(f"bytes must be a multiple of 4 and at least {least}, got {size!r}")
    return sources, lists, examples


def _within(values: list[int], end: int, message: str) -> None:
    """ProtocolViolation(``message``) unless every value lies in 0..end-1."""
    if values and not (min(values) >= 0 and max(values) < end):
        raise ProtocolViolation(message)


def _read_body(rfile, size: int) -> bytes:
    """``size`` bytes of ``rfile``, fewer if the stream ends first.  Read in
    bounded chunks, so memory follows the bytes that arrive, not the size a
    header announces."""
    chunks = []
    while size > 0 and (chunk := rfile.read(min(size, 1 << 16))):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


class ScorerServer:
    """Reference protocol server wrapping an in-process scorer.

    Meant for tests and for bridging a locally loaded model; each connection
    is served on its own thread, with its own tables of sources and
    candidate lists, and each scoring message is one ``score_batch`` call on
    the wrapped scorer.  ``close()`` also ends the live connections and
    waits for their threads.
    """

    def __init__(self, scorer: TokenScorer, host: str = "127.0.0.1", port: int = 0):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                with outer._lock:
                    if outer._closed:
                        return
                    outer._live.add(self.request)
                tables: tuple[list, list] = ([], [])  # sources, candidate lists
                try:
                    while line := self.rfile.readline():
                        reply, keep = outer._answer(line, self.rfile, tables)
                        if reply:
                            self.request.sendall(reply)
                        if not keep:
                            return
                except OSError:  # the client went away, or close() cut it
                    return
                finally:
                    with outer._lock:
                        outer._live.discard(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True

        self.scorer = scorer
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()
        self._closed = False
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

    def _answer(self, line: bytes, rfile, tables: tuple[list, list]) -> tuple[bytes, bool]:
        """The reply to the message whose header is ``line`` (its body, if
        any, is read from ``rfile``), and whether the connection stays open:
        every fault is answered with ``error`` and closes it."""
        try:
            header = _header(line)
            kind = header.get("type")
            if kind == "hello":
                return self._hello(header), True
            if kind != "score":
                raise ProtocolViolation(f"unknown request type {kind!r}")
            frame = _frame(header, len(self.scorer.vocab))
            body = _read_body(rfile, header["bytes"])
            if len(body) != header["bytes"]:
                return b"", False  # the client hung up inside the body
            return self._score(tables, frame, body), True
        except Exception as exc:  # noqa: BLE001 - report, then close
            return _line({"type": "error", "message": str(exc)}), False

    def _hello(self, header: dict) -> bytes:
        if header.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolViolation(
                f"client protocol {header.get('protocol')!r}, "
                f"this server speaks {PROTOCOL_VERSION}"
            )
        return _line({
            "type": "vocab",
            "protocol": PROTOCOL_VERSION,
            "size": len(self.scorer.vocab),
            "eos_id": self.scorer.eos_id,
            "tokenizer_tag": TOKENIZER_TAG,
        })

    def _score(self, tables: tuple[list, list], frame: tuple, body: bytes) -> bytes:
        """Append the message's sources and lists to the connection's
        tables, then score its examples as plain requests.  A body whose
        sections do not add up to it, an index outside the tables, a
        negative count or length, and a candidate or prefix id outside the
        vocabulary are each a ProtocolViolation."""
        sources, lists = tables
        new_sources, new_lengths, example_ids = frame
        ids, size = _unpack("i", body).tolist(), len(self.scorer.vocab)
        fresh = ids[:sum(new_lengths)]
        _within(fresh, size, f"candidate ids must lie in 0..{size - 1}")
        sources += map(tuple, new_sources)
        lists += _split(fresh, new_lengths)
        at = len(fresh)
        heads = ids[at:at + 2 * len(example_ids)]
        at += len(heads)
        source_indices, counts = heads[0::2], heads[1::2]
        _within(source_indices, len(sources),
                f"source indices must name one of the {len(sources)} sources carried")
        if min(counts, default=0) < 0:
            raise ProtocolViolation("prefix counts must not be negative")
        n = sum(counts)
        prefix_lengths, picks = ids[at:at + n], ids[at + n:at + 2 * n]
        if min(prefix_lengths, default=0) < 0:
            raise ProtocolViolation("prefix lengths must not be negative")
        at += 2 * n
        if at > len(ids) or sum(prefix_lengths) != len(ids) - at:
            raise ProtocolViolation(f"the body's sections do not add up to its {len(body)} bytes")
        _within(picks, len(lists), f"list indices must name one of the {len(lists)} lists carried")
        flat = ids[at:]
        _within(flat, size, f"prefix ids must lie in 0..{size - 1}")
        prefixes = _split(flat, prefix_lengths)
        candidate_lists = [*map(lists.__getitem__, picks)]
        requests, at = [], 0
        for example_id, source, count in zip(example_ids, source_indices, counts):
            requests.append(ScoreRequest(sources[source], example_id, prefixes[at:at + count],
                                         candidate_lists[at:at + count]))
            at += count
        scores = []
        for score_lists in self.scorer.score_batch(requests):
            for run in score_lists:
                scores += run
        packed = _pack("d", scores)
        return _line({"type": "scores", "example_ids": example_ids, "bytes": len(packed)}) + packed

    def close(self) -> None:
        self._server.shutdown()
        with self._lock:
            self._closed = True
            for sock in self._live:
                with suppress(OSError):  # the peer may have reset it already
                    sock.shutdown(socket.SHUT_RDWR)  # the handler's read ends
        self._server.server_close()  # joins the handler threads
