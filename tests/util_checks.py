"""Independent oracles used by the test suite.

Deliberately implemented apart from the package code paths they check:
subset enumeration with union-find, plain transitive closure, simple-path
enumeration and a queue-based BFS instead of the bitmask graph search, and
an NFA over surface strings instead of the trie.  ``reference_beam_search``
is the unpruned beam search: it advances every allowed candidate of every
live hypothesis; ``advance``, ``state_key``, ``in_literal`` and
``can_finish`` are its state helpers.
``reference_name_link`` compares every question n-gram with every schema
name instead of probing the per-schema name index; ``reference_value_link``
normalizes every content column's values again for each question instead
of probing the per-schema value index; ``reference_canonical_number`` is the
number normalization that raised on non-finite and very large numbers;
``reference_parse_date`` is date parsing as ten ``datetime.strptime``
formats tried in turn, before their patterns were compiled once.
``QuantizedScorer`` and ``MixedMagnitudeScorer`` are scorers whose ties
stress the beam's ranking; ``AdversarialScorer`` lures an unconstrained
search off the schema.
``reference_lex`` is the character-by-character SQL lexer that the one-regex
lexer replaced.  ``reference_resolve`` is schema resolution as it was before
every walk went through ``rebuild``: ``reference_map_refs`` copies a level with
``dataclasses.replace`` and ``reference_map_query`` walks the level tree.
``reference_linearize_schema`` serializes the whole schema again for each
question, with ``_validate_links`` and ``_group_links``, instead of writing
the links into the per-schema serialization template; ``_target_key`` is
the link key those helpers and ``_suppress_overlaps`` group by.
``to_spider_doc`` writes a loaded schema back as a Spider document, so that
loading can be checked by a round trip.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from datetime import datetime
from decimal import Decimal, InvalidOperation
from heapq import nsmallest
from itertools import combinations
from typing import Callable, Iterator, Sequence

from structsql.annotate import (
    AMP,
    COLUMN_MARK,
    MATCH_MARKS,
    PRIMARY_KEY_MARK,
    TABLE_MARK,
    AnnotatedInput,
    UnknownLinkTarget,
)
from structsql.decode import (
    LITERAL,
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
from structsql.linking import _suppress_overlaps as _suppress_candidate_overlaps
from structsql.schema import (
    STAR,
    ColumnRef,
    ColumnType,
    DatabaseSchema,
    _DATE_FORMATS,
    name_tokens,
    normalize_value,
)
from structsql.sql_ast import (
    AmbiguousColumn,
    ColumnExpr,
    Condition,
    ConditionList,
    OrderItem,
    SqlQuery,
    SqlSyntaxError,
    UnknownTable,
    UnresolvableColumn,
    Value,
)

_SPLIT = re.compile(r"\d|[^\W\d]\w*|<=|>=|!=|<>|[^\w\s]")

FREE = "free"
LITERAL = "literal"
NUMBER = "number"  # after a digit: free, and "." may follow
POINT = "point"  # after a number's ".": a digit must follow


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


def _is_digit(token: str) -> bool:
    return len(token) == 1 and token.isdecimal()


def _step_states(
    states: set, token: str, forms: list[tuple[str, ...]], keywords: set[str], literal_words: set[str]
) -> set:
    """The NFA states after ``token``: free, inside a literal, in a number,
    after a number's ".", or at a position inside a schema form."""
    next_states: set = set()
    for state in states:
        if state == LITERAL:
            next_states.add(FREE if token == "'" else LITERAL)
            continue
        if state == POINT:
            if _is_digit(token):
                next_states.add(NUMBER)
            continue
        if state in (FREE, NUMBER):
            if state == NUMBER and token == ".":
                next_states.add(POINT)
            if token == "'":
                next_states.add(LITERAL)
                continue
            if _is_digit(token):
                next_states.add(NUMBER)
            elif token in keywords or token in literal_words:
                next_states.add(FREE)
            for fi, form in enumerate(forms):
                if form and form[0] == token:
                    next_states.add(FREE if len(form) == 1 else (fi, 1))
            continue
        fi, pos = state
        form = forms[fi]
        if form[pos] == token:
            next_states.add(FREE if pos + 1 == len(form) else (fi, pos + 1))
    return next_states


def identifier_run_violations(
    surface_tokens: list[str],
    schema_forms: set[str],
    keywords: set[str],
    literal_words: set[str],
) -> int:
    """Count positions where the token stream cannot be explained as keywords,
    literals, numbers, quoted spans, or complete schema surface forms.

    Simulates a set of possible parses (NFA); a dead transition counts one
    violation and resets to the free state.  Trailing incomplete runs are not
    violations.
    """
    forms = [split_pieces(f) for f in schema_forms]
    states: set = {FREE}
    violations = 0
    for token in surface_tokens:
        states = _step_states(states, token, forms, keywords, literal_words)
        if not states:
            violations += 1
            states = {FREE}
    return violations


def sequence_explained(
    surface_tokens: list[str],
    schema_forms: set[str],
    keywords: set[str],
    literal_words: set[str],
) -> bool:
    """True when the full stream parses with every identifier run complete:
    no dead transition, and no dangling run, open literal or bare "." at
    the end."""
    forms = [split_pieces(f) for f in schema_forms]
    states: set = {FREE}
    for token in surface_tokens:
        states = _step_states(states, token, forms, keywords, literal_words)
        if not states:
            return False
    return FREE in states or NUMBER in states


def brute_force_connector(
    n_tables: int, edges: list[tuple[int, int]], terminals: set[int]
) -> set[int] | None:
    """Exhaustive minimal connector: smallest superset of the terminals whose
    induced subgraph is connected; ties broken by smallest sorted index tuple.
    Returns None when no connector exists, which is exactly when the
    terminals lie in more than one component of the whole graph."""

    def roots(nodes: set[int]) -> dict[int, int]:
        """Each node's union-find root over the edges ``nodes`` induce."""
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            if a in nodes and b in nodes:
                parent[find(a)] = find(b)
        return {v: find(v) for v in nodes}

    whole = roots(set(range(n_tables)))
    if len({whole[v] for v in terminals}) > 1:
        return None
    others = sorted(set(range(n_tables)) - terminals)
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            candidate = terminals | set(combo)
            if len(set(roots(candidate).values())) == 1:
                return candidate
    return None


def brute_force_path(
    n_tables: int, edges: list[tuple[int, int]], src: set[int], dst: set[int]
) -> list[int] | None:
    """Lexicographically smallest of the shortest simple paths from a table in
    ``src`` to one in ``dst``, found by enumerating every simple path; None
    when there is none."""
    adj: dict[int, set[int]] = {v: set() for v in range(n_tables)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    found: list[list[int]] = []

    def extend(path: list[int]) -> None:
        if path[-1] in dst:  # going on past dst only makes a longer path
            found.append(path)
            return
        for nxt in adj[path[-1]] - set(path):
            extend(path + [nxt])

    for s in src:
        extend([s])
    return min(found, key=lambda p: (len(p), p), default=None)


def fifo_bfs_tree(
    edges: list[tuple[int, int]], members: set[int], root: int
) -> list[tuple[int, int]]:
    """``(table, parent)`` pairs in the visit order of a queue-based BFS from
    ``root`` (parent -1) over the subgraph induced by ``members``, each
    table's neighbours taken in ascending order."""
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out = [(root, -1)]
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nxt in sorted(adj.get(node, set()) & members - seen):
            seen.add(nxt)
            out.append((nxt, node))
            queue.append(nxt)
    return out


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


def to_spider_doc(schema: DatabaseSchema) -> dict:
    """Re-serialize a schema to the Spider document format (the fields the
    loader reads), for round-trip checks of ``load_schema``.

    The ``*`` entry comes first, then the columns grouped by table in table
    order, and the primary keys in table order.  A document in that layout,
    as Spider's are, comes back field for field; one whose columns
    interleave tables or whose primary keys do not ascend comes back
    grouped, and the grouped document loads to an equal schema.
    """
    column_names: list[list] = []
    column_types: list[str] = []
    index_of: dict[tuple[str, str], int] = {}
    if schema.star_label is not None:
        column_names.append([-1, STAR])
        column_types.append(schema.star_label)
    for t_idx, table in enumerate(schema.tables):
        for col in table.columns:
            index_of[(table.name.lower(), col.name.lower())] = len(column_names)
            column_names.append([t_idx, col.name])
            label = col.raw_type if col.raw_type is not None else col.col_type.name.lower()
            column_types.append(label)
    primary_keys = []
    for table in schema.tables:
        for key in ((table.primary_key,) if table.primary_key else ()) + table.extra_primary_keys:
            primary_keys.append(index_of[(table.name.lower(), key.lower())])
    foreign_keys = [
        [index_of[src.key()], index_of[dst.key()]] for src, dst in schema.foreign_keys
    ]
    return {
        "db_id": schema.db_id,
        "table_names_original": [t.name for t in schema.tables],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


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


def advance(
    constraint: LexiconConstraint, state: DecodeState, token_id: int, score: float
) -> list[DecodeState]:
    """Successor states of ``state`` after emitting a non-EOS token."""
    tokens = state.tokens + (token_id,)
    new_score = state.score + score
    return [DecodeState(tokens, c, new_score) for c in constraint._next(state.node, token_id)]


def state_key(state: DecodeState) -> tuple:
    """Identity of a state in a step's pool: its tokens and its cursor."""
    return (state.tokens, id(state.node))


def in_literal(state: DecodeState) -> bool:
    """Whether the hypothesis is inside a quoted literal."""
    return state.node is LITERAL


def can_finish(state: DecodeState) -> bool:
    """Whether EOS may follow: at a free cursor or a trie terminal, never
    inside a literal or an unfinished identifier."""
    return state.node is None or state.node.terminal


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
                    if constrained and not can_finish(state):
                        continue
                    if in_literal(state) or not state.tokens:
                        continue
                    final = state._replace(score=state.score + token_score)
                    prev = finished.get(final.tokens)
                    if prev is None or final.score > prev.score:
                        finished[final.tokens] = final
                    continue
                if constrained:
                    successors = advance(constraint, state, token_id, token_score)
                else:
                    successors = [
                        DecodeState(
                            state.tokens + (token_id,), None, score=state.score + token_score
                        )
                    ]
                for succ in successors:
                    prev = pool.get(state_key(succ))
                    if prev is None or succ.score > prev.score:
                        pool[state_key(succ)] = succ

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


def _target_key(ann: LinkAnnotation) -> tuple[str, str | None]:
    return (ann.table.lower(), ann.column.lower() if ann.column else None)


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
        key = _target_key(ann)
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


def reference_value_link(question: QuestionTokens, schema: DatabaseSchema) -> list[LinkAnnotation]:
    """``value_link`` as it was before the per-schema value index: every
    content column's values normalized again for each question, and one
    normalization per n-gram and column type, cached by type.  A DATE column
    whose n-gram does not read as a date tries its tokens joined unspaced."""
    if not any(c.sample_values for _, c in schema.iter_columns()):
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
    for n in range(min(MAX_NGRAM, len(tokens)), 0, -1):
        for start in range(len(tokens) - n + 1):
            if not norm[start] or not norm[start + n - 1]:
                continue  # n-gram may contain punctuation but not start/end with it
            text = " ".join(tokens[start : start + n])
            by_type: dict[ColumnType, str] = {}
            for table, column, col_type, normalized in columns:
                if col_type not in by_type:
                    by_type[col_type] = normalize_value(text, col_type)
                    if col_type is ColumnType.DATE and reference_parse_date(text) is None:
                        # "2016-01-05" tokenizes to five tokens; read them unspaced too
                        joined = reference_parse_date("".join(tokens[start : start + n]))
                        by_type[col_type] = joined or by_type[col_type]
                key = by_type[col_type]
                if key in normalized:
                    candidates.append(
                        (
                            2, -n, start, column, (table.lower(), column.lower()),  # rank 2: value
                            start + n, table, column, normalized[key],
                        )
                    )
    return _suppress_candidate_overlaps(candidates)


def reference_canonical_number(raw: str) -> str | None:
    """Number normalization before non-finite and very large numbers were
    handled: raises ``decimal.InvalidOperation`` on ``inf``, ``snan`` and
    integers of more than 28 digits, and returns ``"NaN"`` for ``nan``."""
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


def reference_parse_date(raw: str) -> str | None:
    """Date normalization as ten ``datetime.strptime`` formats tried in turn."""
    cleaned = re.sub(r"\s+", " ", raw.strip())
    cleaned = re.sub(r"\s*,\s*", ", ", cleaned)
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(cleaned, fmt).date().isoformat()
        except ValueError:
            continue
    return None


@dataclass(frozen=True)
class RefToken:
    kind: str  # "name" | "number" | "string" | "op" | "punct" | "end"
    text: str
    pos: int


_REF_NAME_RE = re.compile(r"[^\W\d]\w*", re.UNICODE)
_REF_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_REF_COMPARE_OPS = ("<=", ">=", "!=", "<>", "=", "<", ">")


def reference_lex(text: str) -> list[RefToken]:
    """The SQL lexer as a character loop: each branch tests one token class
    at the current character, in the order the package's master regex lists
    its alternatives."""
    tokens: list[RefToken] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n:
                if text[j] == quote:
                    if quote == "'" and j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            if j >= n:
                raise SqlSyntaxError("unterminated string literal", i)
            tokens.append(RefToken("string", "".join(buf), i))
            i = j + 1
            continue
        m = _REF_NUMBER_RE.match(text, i)
        if m:
            tokens.append(RefToken("number", m.group(), i))
            i = m.end()
            continue
        m = _REF_NAME_RE.match(text, i)
        if m:
            tokens.append(RefToken("name", m.group(), i))
            i = m.end()
            continue
        matched_op = next((op for op in _REF_COMPARE_OPS if text.startswith(op, i)), None)
        if matched_op:
            tokens.append(RefToken("op", "!=" if matched_op == "<>" else matched_op, i))
            i += len(matched_op)
            continue
        if ch in "(),.*;":
            tokens.append(RefToken("punct", ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(RefToken("end", "", n))
    return tokens


def _reference_map_conditions(
    cl: ConditionList | None,
    fix_left: Callable[[ColumnExpr], ColumnExpr],
    fix_value: Callable[[Value], Value],
) -> ConditionList | None:
    if cl is None:
        return None
    return ConditionList(
        tuple(
            Condition(fix_left(c.left), c.op, tuple(fix_value(v) for v in c.values))
            for c in cl.conditions
        ),
        cl.connectors,
    )


def reference_map_refs(level: SqlQuery, fix_ref: Callable[[ColumnRef], ColumnRef]) -> SqlQuery:
    """Copy of one SELECT level with ``fix_ref`` applied to the column
    references of its own clauses, in clause order: SELECT, JOIN ON, WHERE,
    HAVING (left sides and ``ColumnRef`` values), GROUP BY, ORDER BY.
    Subqueries and the set-operation chain are left as they are."""

    def fix_expr(e: ColumnExpr) -> ColumnExpr:
        return ColumnExpr(fix_ref(e.ref), e.agg, e.distinct)

    def fix_value(v: Value) -> Value:
        return fix_ref(v) if isinstance(v, ColumnRef) else v

    return replace(
        level,
        select=tuple(fix_expr(e) for e in level.select),
        join_conditions=tuple((fix_ref(a), fix_ref(b)) for a, b in level.join_conditions),
        where=_reference_map_conditions(level.where, fix_expr, fix_value),
        having=_reference_map_conditions(level.having, fix_expr, fix_value),
        group_by=tuple(fix_ref(r) for r in level.group_by),
        order_by=tuple(OrderItem(fix_expr(o.expr), o.desc) for o in level.order_by),
    )


def reference_map_query(q: SqlQuery, fn: Callable[[SqlQuery], SqlQuery]) -> SqlQuery:
    """Apply ``fn`` to every SELECT level in pre-order and rebuild the tree.

    The order is the level itself, then the subqueries among its WHERE and
    HAVING values in clause order, then its set-operation chain.  ``fn`` sees
    a level whose subqueries and set operation are not mapped yet; those of
    its result are mapped next.
    """
    level = fn(q)

    def same(e: ColumnExpr) -> ColumnExpr:
        return e

    def fix_value(v: Value) -> Value:
        return reference_map_query(v, fn) if isinstance(v, SqlQuery) else v

    return replace(
        level,
        where=_reference_map_conditions(level.where, same, fix_value),
        having=_reference_map_conditions(level.having, same, fix_value),
        set_op=None if level.set_op is None else (level.set_op[0], reference_map_query(level.set_op[1], fn)),
    )


def reference_resolve(q: SqlQuery, schema: DatabaseSchema) -> SqlQuery:
    """Return a copy with canonical table casing and qualified columns.

    Each query level resolves unqualified columns against its own FROM tables.
    """

    def resolve_level(level: SqlQuery) -> SqlQuery:
        tables: list[str] = []
        for name in level.from_tables:
            table = schema.table(name)
            if table is None:
                raise UnknownTable(f"table {name!r} not in schema {schema.db_id!r}")
            tables.append(table.name)

        def fix_ref(ref: ColumnRef) -> ColumnRef:
            if ref.column == STAR:
                if ref.table is None:
                    return ref
                table = schema.table(ref.table)
                if table is None:
                    raise UnknownTable(f"table {ref.table!r} not in schema")
                return ColumnRef(table.name, STAR)
            if ref.table is not None:
                table = schema.table(ref.table)
                if table is None:
                    raise UnknownTable(f"table {ref.table!r} not in schema")
                col = table.column(ref.column)
                if col is None:
                    raise UnresolvableColumn(f"{ref.table}.{ref.column} not in schema")
                return ColumnRef(table.name, col.name)
            owners = [
                t for t in tables
                if schema.table(t) is not None and schema.table(t).column(ref.column) is not None
            ]
            if len(owners) == 1:
                return ColumnRef(owners[0], schema.table(owners[0]).column(ref.column).name)
            if not owners:
                raise UnresolvableColumn(f"column {ref.column!r} not in any FROM table")
            raise AmbiguousColumn(f"column {ref.column!r} owned by {owners}")

        resolved = replace(reference_map_refs(level, fix_ref), from_tables=tuple(tables))
        table_set = {t.lower() for t in tables}
        for pair in resolved.join_conditions:
            for ref in pair:
                if (ref.table or "").lower() not in table_set:
                    raise UnresolvableColumn(
                        f"join condition references {ref}, not in FROM clause"
                    )
        return resolved

    return reference_map_query(q, resolve_level)


def _validate_links(schema: DatabaseSchema, links: list[LinkAnnotation]) -> None:
    for ann in links:
        table = schema.table(ann.table)
        if table is None:
            raise UnknownLinkTarget(f"no table {ann.table!r} in schema {schema.db_id!r}")
        if ann.column is not None and table.column(ann.column) is None:
            raise UnknownLinkTarget(
                f"no column {ann.table}.{ann.column} in schema {schema.db_id!r}"
            )


def _group_links(links: list[LinkAnnotation]):
    kinds: dict[tuple[str, str | None], set[MatchKind]] = {}
    values: dict[tuple[str, str], list[str]] = {}
    for ann in links:
        key = _target_key(ann)
        kinds.setdefault(key, set()).add(ann.kind)
        if ann.kind is MatchKind.VALUE and ann.column is not None:
            bucket = values.setdefault((key[0], key[1]), [])
            if ann.value not in bucket:
                bucket.append(ann.value)
    return kinds, values


def _mark_prefix(marks: list[str]) -> list[str]:
    tokens: list[str] = []
    for i, mark in enumerate(marks):
        if i:
            tokens.append(AMP)
        tokens.append(mark)
    return tokens


def reference_linearize_schema(
    schema: DatabaseSchema,
    links: list[LinkAnnotation] | tuple = (),
    include_values: bool = False,
    *,
    schema_property: bool = True,
    database_structure: bool = True,
) -> list[str]:
    """Flatten the schema into mark-prefixed surface tokens.

    Column marks are joined with "&" in fixed order: match kinds, then
    Primary-Key, then the column type.  A type mark is emitted for every
    column.  With ``include_values``, matched cell values follow the column,
    each preceded by "&".
    """
    _validate_links(schema, links)
    kinds, values = _group_links(links)

    out: list[str] = [TABLE_MARK]
    for table in schema.tables:
        if schema_property:
            present = kinds.get((table.name.lower(), None), set())
            out.extend(_mark_prefix([MATCH_MARKS[k] for k in MatchKind if k in present]))
        out.append(table.name)

    out.append(COLUMN_MARK)
    for table, col in schema.iter_columns():
        key = (table.name.lower(), col.name.lower())
        if schema_property:
            present = kinds.get(key, set())
            marks = [MATCH_MARKS[k] for k in MatchKind if k in present]
            if col.is_primary:
                marks.append(PRIMARY_KEY_MARK)
            marks.append(col.col_type.value)
            out.extend(_mark_prefix(marks))
        out.append(f"{table.name}.{col.name}" if database_structure else col.name)
        if include_values:
            for value in values.get(key, ()):
                out.extend((AMP, value))
    return out
