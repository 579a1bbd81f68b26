"""Independent oracles used by the test suite.

Deliberately implemented apart from the package code paths they check:
subset enumeration with union-find instead of bitmask BFS, an NFA over
surface strings instead of the trie, plain transitive closure instead of
graph search.  ``reference_beam_search`` is the unpruned beam search: it
advances every allowed candidate of every live hypothesis.
``reference_name_link`` compares every question n-gram with every schema
name instead of probing the per-schema name index.  ``QuantizedScorer`` and
``MixedMagnitudeScorer`` are scorers whose ties stress the beam's ranking;
``AdversarialScorer`` lures an unconstrained search off the schema.
"""

from __future__ import annotations

import re
from dataclasses import replace
from heapq import nsmallest
from itertools import combinations
from typing import Iterator, Sequence

from structsql.annotate import AnnotatedInput
from structsql.decode import (
    DecodeState,
    Hypothesis,
    LexiconConstraint,
    NoValidHypothesis,
    OracleScorer,
    RandomScorer,
    TrieNode,
    Vocabulary,
)
from structsql.linking import (
    MAX_NGRAM,
    LinkAnnotation,
    MatchKind,
    QuestionTokens,
    _norm_token,
)
from structsql.schema import DatabaseSchema, name_tokens

_SPLIT = re.compile(r"\d+\.\d+|\d+|\w+|<=|>=|!=|<>|[^\w\s]", re.UNICODE)

FREE = "free"
LITERAL = "literal"


def split_pieces(text: str) -> tuple[str, ...]:
    return tuple(_SPLIT.findall(text))


def node_at(root: TrieNode, ids: Sequence[int]) -> TrieNode | None:
    """The trie node reached from ``root`` by spelling ``ids``, if any."""
    node = root
    for token_id in ids:
        node = node.children.get(token_id)
        if node is None:
            return None
    return node


def iter_terminals(root: TrieNode) -> Iterator[tuple[tuple[int, ...], TrieNode]]:
    """Every terminal node of the trie with its token-id path, depth first."""
    stack: list[tuple[tuple[int, ...], TrieNode]] = [((), root)]
    while stack:
        path, node = stack.pop()
        if node.terminal:
            yield path, node
        for token_id in sorted(node.children, reverse=True):
            stack.append((path + (token_id,), node.children[token_id]))


def identifier_run_violations(
    surface_tokens: list[str],
    schema_forms: set[str],
    keywords: set[str],
    literal_words: set[str],
) -> int:
    """Count positions where the token stream cannot be explained as keywords,
    literals, quoted spans, or complete schema surface forms.

    Simulates a set of possible parses (NFA); a dead transition counts one
    violation and resets to the free state.  Trailing incomplete runs are not
    violations.
    """
    forms = [split_pieces(f) for f in schema_forms]
    states: set = {FREE}
    violations = 0
    for token in surface_tokens:
        next_states: set = set()
        for state in states:
            if state == LITERAL:
                next_states.add(FREE if token == "'" else LITERAL)
                continue
            if state == FREE:
                if token == "'":
                    next_states.add(LITERAL)
                    continue
                if token in keywords or token in literal_words or re.fullmatch(r"\d+(\.\d+)?", token):
                    next_states.add(FREE)
                for fi, form in enumerate(forms):
                    if form and form[0] == token:
                        if len(form) == 1:
                            next_states.add(FREE)
                        else:
                            next_states.add((fi, 1))
                continue
            fi, pos = state
            form = forms[fi]
            if form[pos] == token:
                if pos + 1 == len(form):
                    next_states.add(FREE)
                else:
                    next_states.add((fi, pos + 1))
        if not next_states:
            violations += 1
            next_states = {FREE}
        states = next_states
    return violations


def sequence_explained(
    surface_tokens: list[str],
    schema_forms: set[str],
    keywords: set[str],
    literal_words: set[str],
) -> bool:
    """True when the full stream parses with every identifier run complete."""
    if identifier_run_violations(surface_tokens, schema_forms, keywords, literal_words):
        return False
    # Re-run and require a FREE end state (no dangling run or open literal).
    forms = [split_pieces(f) for f in schema_forms]
    states: set = {FREE}
    for token in surface_tokens:
        nxt: set = set()
        for state in states:
            if state == LITERAL:
                nxt.add(FREE if token == "'" else LITERAL)
            elif state == FREE:
                if token == "'":
                    nxt.add(LITERAL)
                    continue
                if token in keywords or token in literal_words or re.fullmatch(r"\d+(\.\d+)?", token):
                    nxt.add(FREE)
                for fi, form in enumerate(forms):
                    if form and form[0] == token:
                        nxt.add(FREE if len(form) == 1 else (fi, 1))
            else:
                fi, pos = state
                if forms[fi][pos] == token:
                    nxt.add(FREE if pos + 1 == len(forms[fi]) else (fi, pos + 1))
        states = nxt
        if not states:
            return False
    return FREE in states


def brute_force_connector(
    n_tables: int, edges: list[tuple[int, int]], terminals: set[int]
) -> set[int] | None:
    """Exhaustive minimal connector: smallest superset of the terminals whose
    induced subgraph is connected; ties broken by smallest sorted index tuple.
    Returns None when no connector exists."""

    def connected(nodes: set[int]) -> bool:
        if len(nodes) <= 1:
            return True
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            if a in nodes and b in nodes:
                parent[find(a)] = find(b)
        return len({find(v) for v in nodes}) == 1

    others = sorted(set(range(n_tables)) - terminals)
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            candidate = terminals | set(combo)
            if connected(candidate):
                return candidate
    return None


def transitive_closure_connected(
    n_tables: int, edges: list[tuple[int, int]], a: int, b: int
) -> bool:
    """Connectivity by repeated squaring of the reachability relation."""
    reach = [[i == j for j in range(n_tables)] for i in range(n_tables)]
    for i, j in edges:
        reach[i][j] = reach[j][i] = True
    for _ in range(n_tables):
        for i in range(n_tables):
            for j in range(n_tables):
                if not reach[i][j]:
                    reach[i][j] = any(reach[i][k] and reach[k][j] for k in range(n_tables))
    return reach[a][b]


class QuantizedScorer(RandomScorer):
    """Random scores rounded to quarters: exact ties everywhere."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        return [round(s * 4) / 4 for s in scores]


class MixedMagnitudeScorer(RandomScorer):
    """Random scores offset by -1e17 after every third token: the next step's
    distinct scores then vanish in the summed hypothesis score, so only the
    sum (not the raw score) ties and the token id decides."""

    def score_candidates(self, source, prefix, candidates, example_id=None):
        scores = super().score_candidates(source, prefix, candidates, example_id)
        if len(prefix) % 3 == 0:
            return [s - 1e17 for s in scores]
        return scores


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


def reference_beam_search(
    scorer,
    source,
    constraint: LexiconConstraint,
    beam_width: int = 5,
    max_len: int = 200,
    *,
    constrained: bool = True,
    example_id: str | None = None,
) -> list[Hypothesis]:
    """Beam search that turns every scored candidate into states before the
    step's top-2*beam cut; same signature and result as ``beam_search``."""
    if beam_width < 1 or max_len < 1:
        raise ValueError("beam width and max length must be >= 1")
    if isinstance(source, AnnotatedInput):
        if example_id is None:
            example_id = source.example_id
        src = source.tokens
    else:
        src = tuple(source)
    eos = scorer.eos_id
    all_sorted = tuple(scorer.vocab.all_ids)

    live: list[DecodeState] = [DecodeState()]
    done: dict[tuple[int, ...], DecodeState] = {}
    for _ in range(max_len):
        if not live:
            break
        pool: dict[tuple, DecodeState] = {}
        finished: dict[tuple[int, ...], DecodeState] = {}
        for state in live:
            candidates = constraint.candidate_ids(state) if constrained else all_sorted
            scores = scorer.score_candidates(src, state.tokens, candidates, example_id)
            for token_id, token_score in zip(candidates, scores):
                if token_id == eos:
                    if constrained and not constraint.can_finish(state):
                        continue
                    if state.in_literal or not state.tokens:
                        continue
                    final = replace(state, score=state.score + token_score)
                    prev = finished.get(final.tokens)
                    if prev is None or final.score > prev.score:
                        finished[final.tokens] = final
                    continue
                if constrained:
                    successors = constraint.advance(state, token_id, token_score)
                else:
                    successors = [
                        DecodeState(
                            state.tokens + (token_id,), None, score=state.score + token_score
                        )
                    ]
                for succ in successors:
                    prev = pool.get(succ.key())
                    if prev is None or succ.score > prev.score:
                        pool[succ.key()] = succ

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

        if len(done) >= beam_width:
            kept = nsmallest(beam_width, done.values(), key=lambda s: (-s.score, s.tokens))
            done = {s.tokens: s for s in kept}
            if live and max(s.score for s in live) < kept[-1].score:
                break

    if not done:
        raise NoValidHypothesis(
            f"no hypothesis finished within {max_len} steps (beam {beam_width})"
        )

    ranked_done = sorted(done.values(), key=lambda s: (-s.score, s.tokens))[:beam_width]
    return [Hypothesis(s.tokens, s.score) for s in ranked_done]


def _is_sublist(short: tuple[str, ...], long: tuple[str, ...]) -> bool:
    if len(short) >= len(long):
        return False
    return any(long[i : i + len(short)] == short for i in range(len(long) - len(short) + 1))


def _suppress_overlaps(candidates: list[LinkAnnotation]) -> list[LinkAnnotation]:
    """Per-target suppression: exact matches outrank partial ones, then longer
    spans beat contained or overlapping shorter spans."""
    order = {MatchKind.EXACT: 0, MatchKind.PARTIAL: 1, MatchKind.VALUE: 2}
    ranked = sorted(
        candidates,
        key=lambda a: (order[a.kind], -(a.end - a.start), a.start, a.column or ""),
    )
    accepted: list[LinkAnnotation] = []
    spans: dict[tuple, list[tuple[int, int]]] = {}
    for ann in ranked:
        key = ann.target_key()
        if any(ann.start < e and s < ann.end for s, e in spans.get(key, [])):
            continue
        accepted.append(ann)
        spans.setdefault(key, []).append((ann.start, ann.end))
    accepted.sort(key=lambda a: (a.start, a.end, a.table.lower(), a.column or "", a.kind.value))
    return accepted


def reference_name_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """``name_link`` by scanning: every n-gram against every name."""
    tokens = question.all_tokens()
    norm = [_norm_token(t) for t in tokens]

    targets: list[tuple[str, str | None, tuple[str, ...]]] = []
    for table in schema.tables:
        targets.append((table.name, None, name_tokens(table.name)))
        for col in table.columns:
            targets.append((table.name, col.name, name_tokens(col.name)))

    candidates: list[LinkAnnotation] = []
    for n in range(min(MAX_NGRAM, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            gram = tuple(norm[start : start + n])
            if any(not t for t in gram):
                continue
            for table, column, toks in targets:
                if not toks:
                    continue
                if gram == toks:
                    kind = MatchKind.EXACT
                elif _is_sublist(gram, toks) or _is_sublist(toks, gram):
                    kind = MatchKind.PARTIAL
                else:
                    continue
                candidates.append(
                    LinkAnnotation(start, start + n, kind, table, column)
                )
    return _suppress_overlaps(candidates)
