"""Spans recorded from the benchmark's side of each layer boundary.

A traced round drives the same inputs through each layer's public functions
one question at a time, in the order the program's entry points call them.
Spans live in memory (``Tracer.spans``) and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from structsql.decode import TokenScorer

# Spans that are not a layer's work: the round itself and the scorer calls
# nested inside ``decode.beam``.
ROOT_SPAN = "round"
SCORER_SPAN = "decode.scorer"


class Tracer:
    """Spans as (id, parent id, request id, name, start s, end s)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next = 0

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, request, name, start, end))

    def record(self, name: str, start: float, end: float, request: str | None) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._new_id(), parent, request, name, start, end))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def stage_seconds(self) -> float:
        """Summed duration of the layer spans directly under each round."""
        roots = {sid for sid, _, _, n, _, _ in self.spans if n == ROOT_SPAN}
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent in roots)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


class TimedScorer(TokenScorer):
    """Wraps a scorer; records one span per call and counts candidates."""

    def __init__(self, inner: TokenScorer, tracer: Tracer):
        super().__init__(inner.vocab)
        self.inner = inner
        self.tracer = tracer
        self.calls = 0
        self.candidates = 0

    def score_candidates(self, source, prefix, candidates, example_id=None):
        start = time.perf_counter()
        scores = self.inner.score_candidates(source, prefix, candidates, example_id)
        self.tracer.record(SCORER_SPAN, start, time.perf_counter(), example_id)
        self.calls += 1
        self.candidates += len(candidates)
        return scores
