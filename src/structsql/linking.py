"""Name-based and value-based alignment between question tokens and schema items.

Matching is deliberately deterministic: normalization (lowercasing,
underscore splitting, trailing-s stemming) followed by exact or
token-boundary containment comparison.  No edit-distance thresholds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from structsql.schema import _CJK_RE, _MONTH_NUMBERS, ColumnType, DatabaseSchema
from structsql.schema import _canonical_number, _parse_date, _stem

# Longest question n-gram compared with a schema name or cell value.
MAX_NGRAM = 5

_WORD_RE = re.compile(r"\d+\.\d+|\w+|[^\w\s]", re.UNICODE)
_WORD_CHAR_RE = re.compile(r"\w", re.UNICODE)
_DIGIT_RE = re.compile(r"\d")  # each date format has %Y, each finite Decimal a digit


class MatchKind(Enum):
    EXACT = "ExactMatch"
    PARTIAL = "PartialMatch"
    VALUE = "ValueMatch"


class _LinkFields(NamedTuple):
    start: int
    end: int
    kind: MatchKind
    table: str
    column: str | None = None
    value: str | None = None


class LinkAnnotation(_LinkFields):
    """Alignment between a half-open question token span and a schema item.

    An immutable tuple of its six fields, so it equals that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, start, end, kind, table, column=None, value=None):
        if end <= start:
            raise ValueError("annotation span must be non-empty")
        if kind is MatchKind.VALUE and value is None:
            raise ValueError("value matches must carry the matched value")
        return super().__new__(cls, start, end, kind, table, column, value)


@dataclass(frozen=True)
class QuestionTokens:
    """Tokenized question turns, most recent last.  Tokens are non-empty and
    hold no whitespace, as ``tokenize`` makes them: ``value_link``'s text key
    joins them with single spaces."""

    turns: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.turns or any(not t for t in self.turns):
            raise ValueError("every turn must be non-empty after tokenization")
        if any(tok.split() != [tok] for turn in self.turns for tok in turn):
            raise ValueError("every token must be non-empty and hold no whitespace")

    @classmethod
    def from_text(cls, text: str | list[str], language: str = "en") -> "QuestionTokens":
        texts = [text] if isinstance(text, str) else list(text)
        return cls(tuple(tuple(tokenize(t, language)) for t in texts))

    def all_tokens(self) -> list[str]:
        """Flat token list, turns in chronological order."""
        return [tok for turn in self.turns for tok in turn]


def tokenize(text: str, language: str = "en") -> list[str]:
    """Whitespace/punctuation tokenization; CJK text is split per character."""
    pieces = _WORD_RE.findall(text)
    if language.startswith("zh"):
        out: list[str] = []
        for piece in pieces:
            if _CJK_RE.search(piece):
                out.extend(piece)
            else:
                out.append(piece)
        return out
    return pieces


def _norm_token(token: str) -> str:
    """Lowercased, stemmed token; empty string for pure punctuation."""
    t = token.lower().strip()
    return _stem(t) if _WORD_CHAR_RE.search(t) else ""


# Match kinds by rank: an exact match outranks a partial one.
_KINDS = (MatchKind.EXACT, MatchKind.PARTIAL, MatchKind.VALUE)


def _suppress_overlaps(candidates: list[tuple]) -> list[LinkAnnotation]:
    """Per-target suppression: exact matches outrank partial ones, then longer
    spans beat contained or overlapping shorter spans.

    A candidate is ``(rank, -length, start, column or "", target, end, table,
    column, value)``: ``rank`` indexes ``_KINDS``, whose values sort in rank
    order, and ``target`` is one key per schema item.  Accepted candidates are
    sorted as tuples led by ``(start, end, table.lower(), column or "", rank)``,
    then become annotations.
    """
    accepted: list[tuple] = []
    spans: dict[object, list[tuple[int, int]]] = {}
    for rank, _, start, col_key, target, end, table, column, value in sorted(candidates):
        taken = spans.setdefault(target, [])
        if taken and any(start < e and s < end for s, e in taken):
            continue
        taken.append((start, end))
        accepted.append((start, end, table.lower(), col_key, rank, table, column, value))
    accepted.sort()
    # Spans are non-empty and VALUE candidates carry values: skip the checks.
    new = tuple.__new__
    return [new(LinkAnnotation, (s, e, _KINDS[r], t, c, v)) for s, e, _, _, r, t, c, v in accepted]


def name_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """Align question n-grams with table and column names.

    An n-gram is an ExactMatch when its normalized token sequence equals the
    normalized name, and a PartialMatch when one is a proper contiguous
    token-subsequence of the other.  Shorter matches overlapping an accepted
    longer span with the same target are suppressed.

    From each start token the n-gram grows with two probes into the cached
    ``schema.name_index`` (names equal to it, names containing it) until a
    punctuation token or an n-gram no name contains.  A name inside a longer
    n-gram is not looked up: its own ExactMatch on the shorter span always
    suppresses that PartialMatch.
    """
    index = schema.name_index
    norm = [_norm_token(t) for t in question.all_tokens()]

    candidates: list[tuple] = []
    for start in range(len(norm)):
        gram: tuple[str, ...] = ()
        for end in range(start + 1, min(start + MAX_NGRAM, len(norm)) + 1):
            gram += (norm[end - 1],)  # punctuation normalizes to "", in no name
            exact, partial = index.exact.get(gram), index.partial.get(gram)
            if exact is None and partial is None:
                break
            for rank, targets in ((0, exact or ()), (1, partial or ())):
                for target in targets:
                    table, column = index.targets[target]
                    candidates.append(
                        (rank, start - end, start, column or "", target, end, table, column, None)
                    )
    return _suppress_overlaps(candidates)


def value_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """Align question n-grams with stored cell values (normalized comparison).

    Each start token's n-gram grows with its text key (lower-cased tokens
    joined by spaces) and, unless it starts or ends with punctuation, probes
    the cached ``schema.value_index`` (empty without content) per column type.
    Only an n-gram with a digit is parsed: as a number, or as a date joined by
    spaces, then by nothing (``2016-01-05``); a failed parse probes the text key.

    An n-gram that cannot parse probes only its text key, so it stops growing
    once that key is not in ``schema.value_prefixes``: no longer n-gram from
    the same start can then match either.  Only a start token that holds a
    digit can lead a parse, or one that names a month (a date) or is made of
    ``_+-.,`` alone (a number): every date format begins with a number or a
    month name, and a finite Decimal with its underscores and commas dropped
    begins with a digit, a sign or a point.  A schema with no number or date
    content parses nothing.
    """
    index = schema.value_index
    if not index:
        return []
    prefixes = schema.value_prefixes
    numeric = ColumnType.INTEGER in index or ColumnType.REAL in index
    dated = ColumnType.DATE in index
    tokens = question.all_tokens()
    lower = [t.lower() for t in tokens]
    word = [_WORD_CHAR_RE.search(t) for t in lower]  # None for punctuation
    digit = [_DIGIT_RE.search(t) for t in tokens]

    candidates: list[tuple] = []
    for start in range(len(tokens)):
        if not word[start]:
            continue  # n-gram may contain punctuation but not start/end with it
        parses = (
            (numeric or dated) and digit[start]
            or numeric and not tokens[start].strip("_+-.,")
            or dated and lower[start] in _MONTH_NUMBERS
        )
        key, has_digit = "", None
        for end in range(start + 1, min(start + MAX_NGRAM, len(tokens)) + 1):
            key = f"{key} {lower[end - 1]}" if key else lower[end - 1]
            if not parses and key not in prefixes:
                break
            has_digit = parses and (has_digit or digit[end - 1])
            if not word[end - 1]:
                continue
            for col_type, holders in index.items():
                probe = key
                if has_digit and col_type is ColumnType.DATE:
                    span = tokens[start:end]
                    probe = _parse_date(" ".join(span)) or _parse_date("".join(span)) or key
                elif has_digit and col_type in (ColumnType.INTEGER, ColumnType.REAL):
                    probe = _canonical_number(" ".join(tokens[start:end])) or key
                for table, column, value in holders.get(probe, ()):
                    candidates.append(
                        (2, start - end, start, column, (table, column), end, table, column, value)
                    )
    return _suppress_overlaps(candidates)
