"""Name-based and value-based alignment between question tokens and schema items.

Matching is deliberately deterministic: normalization (lowercasing,
underscore splitting, trailing-s stemming) followed by exact or
token-boundary containment comparison.  No edit-distance thresholds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from structsql.schema import _CJK_RE, DatabaseSchema, _stem, normalize_value

# Longest question n-gram compared with a schema name or cell value.
MAX_NGRAM = 5

_WORD_RE = re.compile(r"\d+\.\d+|\w+|[^\w\s]", re.UNICODE)
_WORD_CHAR_RE = re.compile(r"\w", re.UNICODE)


class MatchKind(Enum):
    EXACT = "ExactMatch"
    PARTIAL = "PartialMatch"
    VALUE = "ValueMatch"


@dataclass(frozen=True)
class LinkAnnotation:
    """Alignment between a half-open question token span and a schema item."""

    start: int
    end: int
    kind: MatchKind
    table: str
    column: str | None = None
    value: str | None = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("annotation span must be non-empty")
        if self.kind is MatchKind.VALUE and self.value is None:
            raise ValueError("value matches must carry the matched value")


@dataclass(frozen=True)
class QuestionTokens:
    """Tokenized question turns, most recent last."""

    turns: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.turns or any(not t for t in self.turns):
            raise ValueError("every turn must be non-empty after tokenization")

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
    column, value)``: ``rank`` indexes ``_KINDS`` and ``target`` is one key per
    schema item.  Only accepted candidates become annotations.
    """
    accepted: list[LinkAnnotation] = []
    spans: dict[object, list[tuple[int, int]]] = {}
    for rank, _, start, _, target, end, table, column, value in sorted(candidates):
        taken = spans.setdefault(target, [])
        if any(start < e and s < end for s, e in taken):
            continue
        taken.append((start, end))
        accepted.append(LinkAnnotation(start, end, _KINDS[rank], table, column, value))
    accepted.sort(key=lambda a: (a.start, a.end, a.table.lower(), a.column or "", a.kind.value))
    return accepted


def name_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """Align question n-grams with table and column names.

    An n-gram is an ExactMatch when its normalized token sequence equals the
    normalized name, and a PartialMatch when one is a proper contiguous
    token-subsequence of the other.  Shorter matches overlapping an accepted
    longer span with the same target are suppressed.

    Names are looked up in ``schema.name_index``, built once per schema: one
    probe per n-gram for the names equal to it and one for the names
    containing it.  A name inside a longer n-gram is not looked up: its own
    ExactMatch on the shorter span always suppresses that PartialMatch.
    """
    index = schema.name_index
    tokens = question.all_tokens()
    norm = [_norm_token(t) for t in tokens]

    candidates: list[tuple] = []
    for n in range(min(MAX_NGRAM, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            gram = tuple(norm[start : start + n])
            if "" in gram:
                continue
            matches = (index.exact.get(gram, ()), index.partial.get(gram, ()))
            for rank, targets in enumerate(matches):  # rank 0 exact, 1 partial
                for target in targets:
                    table, column = index.targets[target]
                    candidates.append(
                        (rank, -n, start, column or "", target, start + n, table, column, None)
                    )
    return _suppress_overlaps(candidates)


def value_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """Align question n-grams with stored cell values (normalized comparison).

    Values are looked up in ``schema.value_index``, built once per schema:
    per n-gram, one normalization and one probe per column type.  Returns
    an empty list when the schema carries no content.
    """
    index = schema.value_index
    if not index:
        return []
    tokens = question.all_tokens()
    norm = [_norm_token(t) for t in tokens]

    candidates: list[tuple] = []
    for n in range(min(MAX_NGRAM, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            if not norm[start] or not norm[start + n - 1]:
                continue  # n-gram may contain punctuation but not start/end with it
            text = " ".join(tokens[start : start + n])
            for col_type, holders in index.items():
                key = normalize_value(text, col_type)
                for table, column, value in holders.get(key, ()):
                    candidates.append(
                        (
                            2, -n, start, column, (table.lower(), column.lower()),  # rank 2: value
                            start + n, table, column, value,
                        )
                    )
    return _suppress_overlaps(candidates)
