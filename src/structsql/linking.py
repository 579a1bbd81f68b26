"""Name-based and value-based alignment between question tokens and schema items.

Matching is deliberately deterministic: normalization (lowercasing,
underscore splitting, trailing-s stemming) followed by exact or
token-boundary containment comparison.  No edit-distance thresholds.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal, InvalidOperation
from enum import Enum

from structsql.schema import _CJK_RE, ColumnType, DatabaseSchema, _stem

logger = logging.getLogger(__name__)

DEFAULT_MAX_NGRAM = 5

_WORD_RE = re.compile(r"\d+\.\d+|\w+|[^\w\s]", re.UNICODE)


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

    def target_key(self) -> tuple[str, str | None]:
        return (self.table.lower(), self.column.lower() if self.column else None)


@dataclass(frozen=True)
class QuestionTokens:
    """Tokenized question turns, most recent last."""

    turns: tuple[tuple[str, ...], ...]
    language: str = "en"

    def __post_init__(self) -> None:
        if not self.turns or any(not t for t in self.turns):
            raise ValueError("every turn must be non-empty after tokenization")

    @classmethod
    def from_text(cls, text: str | list[str], language: str = "en") -> "QuestionTokens":
        texts = [text] if isinstance(text, str) else list(text)
        return cls(tuple(tuple(tokenize(t, language)) for t in texts), language)

    def all_tokens(self) -> list[str]:
        """Flat token list, turns in chronological order."""
        return [tok for turn in self.turns for tok in turn]

    @property
    def current(self) -> tuple[str, ...]:
        return self.turns[-1]


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
    if not t or not re.search(r"\w", t, re.UNICODE):
        return ""
    return _stem(t)


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


def name_link(
    question: QuestionTokens,
    schema: DatabaseSchema,
    max_ngram: int = DEFAULT_MAX_NGRAM,
) -> list[LinkAnnotation]:
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
    if max_ngram < 1:
        raise ValueError("max_ngram must be >= 1")
    index = schema.name_index
    tokens = question.all_tokens()
    norm = [_norm_token(t) for t in tokens]

    candidates: list[tuple] = []
    for n in range(min(max_ngram, len(tokens)), 0, -1):
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


def value_link(
    question: QuestionTokens,
    schema: DatabaseSchema,
    max_ngram: int = DEFAULT_MAX_NGRAM,
) -> list[LinkAnnotation]:
    """Align question n-grams with stored cell values (normalized comparison).

    Returns an empty list when the schema carries no content.
    """
    if not schema.has_content():
        return []
    tokens = question.all_tokens()
    norm = [_norm_token(t) for t in tokens]

    # (table, column, type) -> normalized value -> original value
    columns: list[tuple[str, str, ColumnType, dict[str, str]]] = []
    for table, col in schema.iter_columns():
        if not col.sample_values:
            continue
        normalized = {}
        for value in col.sample_values:
            normalized.setdefault(normalize_value(value, col.col_type), value)
        columns.append((table.name, col.name, col.col_type, normalized))

    candidates: list[tuple] = []
    for n in range(min(max_ngram, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            if not norm[start] or not norm[start + n - 1]:
                continue  # n-gram may contain punctuation but not start/end with it
            text = " ".join(tokens[start : start + n])
            by_type: dict[ColumnType, str | None] = {}
            for table, column, col_type, normalized in columns:
                if col_type not in by_type:
                    if col_type is ColumnType.DATE:
                        # only a parseable date span can equal an ISO-normalized value
                        by_type[col_type] = _parse_date(text)
                    else:
                        by_type[col_type] = normalize_value(text, col_type)
                key = by_type[col_type]
                if key is not None and key in normalized:
                    candidates.append(
                        (
                            2, -n, start, column, (table.lower(), column.lower()),  # rank 2: value
                            start + n, table, column, normalized[key],
                        )
                    )
    return _suppress_overlaps(candidates)


_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%b %d, %Y",
    "%B %d, %Y",
    "%b %d %Y",
    "%B %d %Y",
    "%d %b %Y",
    "%d %B %Y",
    "%Y-%m-%d %H:%M:%S",
)


def _parse_date(raw: str) -> str | None:
    cleaned = re.sub(r"\s+", " ", raw.strip())
    cleaned = re.sub(r"\s*,\s*", ", ", cleaned)
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(cleaned, fmt).date().isoformat()
        except ValueError:
            continue
    return None


def _canonical_number(raw: str) -> str | None:
    cleaned = raw.strip().replace(",", "").replace(" ", "")
    if not cleaned:
        return None
    try:
        dec = Decimal(cleaned)
    except InvalidOperation:
        return None
    if dec == dec.to_integral_value():
        dec = dec.quantize(Decimal(1))
    else:
        dec = dec.normalize()
    text = format(dec, "f")
    return "0" if text in ("-0", "+0") else text.lstrip("+")


def _normalize_text(raw: str) -> str:
    return re.sub(r"\s+", " ", raw.strip().lower())


def normalize_value(raw: str, hint: ColumnType | None = None) -> str:
    """Canonicalize a cell value or question span for comparison.

    Dates become ISO-8601, numbers canonical decimals (no separators, no
    leading zeros), text is lowercased with whitespace collapsed.  A Date hint
    that fails to parse falls back to text normalization.
    """
    if hint is ColumnType.DATE:
        parsed = _parse_date(raw)
        if parsed is not None:
            return parsed
        logger.warning("date-hinted value %r not parseable; using text form", raw)
        return _normalize_text(raw)
    if hint in (ColumnType.INTEGER, ColumnType.REAL):
        number = _canonical_number(raw)
        if number is not None:
            return number
        return _normalize_text(raw)
    if hint is None:
        number = _canonical_number(raw)
        if number is not None:
            return number
    return _normalize_text(raw)
