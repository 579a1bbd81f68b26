"""Set-match evaluation: per-question and per-interaction accuracy rates.

Exact set match (EM) compares canonical clause components with condition
values replaced by a placeholder; logical form match (LX) also compares
normalized literal values, so LX implies EM.  QM is the per-question EM
rate, IM the rate of interactions whose every question matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from structsql.schema import DatabaseSchema
from structsql.sql_ast import (
    SchemaResolutionError,
    SqlQuery,
    SqlSyntaxError,
    component_set,
    parse_sql,
)


class EmptyCorpus(ValueError):
    """Scoring needs at least one (prediction, gold) pair."""


class MismatchedLengths(ValueError):
    """Prediction, gold, and id sequences must align one-to-one."""


def exact_set_match(
    pred: SqlQuery, gold: SqlQuery, schema: DatabaseSchema | None = None
) -> bool:
    """Value-insensitive canonical component equality."""
    return component_set(pred, schema=schema) == component_set(gold, schema=schema)


def logical_form_match(
    pred: SqlQuery, gold: SqlQuery, schema: DatabaseSchema | None = None
) -> bool:
    """Component equality with literal values compared after normalization."""
    return component_set(pred, value_sensitive=True, schema=schema) == component_set(
        gold, value_sensitive=True, schema=schema
    )


@dataclass(frozen=True)
class ExampleVerdict:
    index: int
    interaction_id: str
    em: bool
    lx: bool
    # None, "decode_failure", "parse_failure", or "schema_violation"
    error: str | None = None


@dataclass
class EvaluationReport:
    """Aggregate rates plus per-example verdicts and error-class counts."""

    em: float
    lx: float
    qm: float
    im: float | None
    counts: dict[str, int]
    verdicts: list[ExampleVerdict]
    n_examples: int
    n_interactions: int

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)``, built without its deep copy."""
        doc = dict(vars(self))
        doc["counts"] = dict(self.counts)
        doc["verdicts"] = [dict(vars(v)) for v in self.verdicts]
        return doc

    def summary(self) -> str:
        im_text = "n/a" if self.im is None else f"{self.im:.4f}"
        lines = [
            f"examples: {self.n_examples}  interactions: {self.n_interactions}",
            f"EM (exact set match):    {self.em:.4f}",
            f"LX (logical form):       {self.lx:.4f}",
            f"QM (question match):     {self.qm:.4f}",
            f"IM (interaction match):  {im_text}",
            "errors: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())),
        ]
        return "\n".join(lines)


def score_corpus(
    predictions: Sequence[str],
    golds: Sequence[str],
    *,
    db_ids: Sequence[str],
    schemas: Mapping[str, DatabaseSchema],
    interaction_ids: Sequence[str] | None = None,
) -> EvaluationReport:
    """Score prediction texts against gold texts.

    Gold queries must parse; a gold failure raises.  A blank prediction, what
    ``run`` writes for an example it could not decode, scores zero and is
    tallied under ``decode_failure``; other unparseable predictions score zero
    and are tallied under ``parse_failure``; predictions that parse but
    reference schema items that do not exist are tallied under
    ``schema_violation``.  A prediction whose text is its gold's text is an
    LX (so EM) match without a component walk.  IM is None when every
    interaction has one turn.
    Example ``i`` resolves against ``schemas[db_ids[i]]``; an unknown db id
    raises ``ValueError``.
    """
    if len(predictions) != len(golds):
        raise MismatchedLengths(
            f"{len(predictions)} predictions vs {len(golds)} golds"
        )
    if interaction_ids is not None and len(interaction_ids) != len(golds):
        raise MismatchedLengths("interaction id count does not match corpus size")
    if len(db_ids) != len(golds):
        raise MismatchedLengths("db id count does not match corpus size")
    if not golds:
        raise EmptyCorpus("no examples to score")

    verdicts: list[ExampleVerdict] = []
    counts = {"decode_failure": 0, "parse_failure": 0, "schema_violation": 0, "mismatch": 0}
    for i, (pred_text, gold_text) in enumerate(zip(predictions, golds)):
        interaction = interaction_ids[i] if interaction_ids is not None else f"q{i}"
        schema = schemas.get(db_ids[i])
        if schema is None:
            raise ValueError(f"example {i}: no schema has db_id {db_ids[i]!r}")
        try:
            gold = parse_sql(gold_text, schema)
        except (SqlSyntaxError, SchemaResolutionError) as exc:
            raise ValueError(f"gold query {i} is invalid: {exc}") from exc
        error = None
        em = lx = False
        if not pred_text.strip():
            error = "decode_failure"
        elif pred_text == gold_text:
            # The prediction parses to the gold itself, and component sets
            # (tuples of str, bool, int and None) equal themselves.
            em = lx = True
        else:
            try:
                pred = parse_sql(pred_text, schema)
            except SqlSyntaxError:
                error = "parse_failure"
            except SchemaResolutionError:
                error = "schema_violation"
            else:
                # Value-sensitive keys map onto value-insensitive ones, so LX
                # implies EM and an LX match needs no second comparison.
                lx = logical_form_match(pred, gold, schema)
                em = lx or exact_set_match(pred, gold, schema)
                if not em:
                    counts["mismatch"] += 1
        if error is not None:
            counts[error] += 1
        verdicts.append(ExampleVerdict(i, interaction, em, lx, error))

    groups: dict[str, list[ExampleVerdict]] = {}
    for v in verdicts:
        groups.setdefault(v.interaction_id, []).append(v)
    n = len(verdicts)
    em_rate = sum(v.em for v in verdicts) / n
    lx_rate = sum(v.lx for v in verdicts) / n
    multi_turn = any(len(g) > 1 for g in groups.values())
    im_rate = (
        sum(all(v.em for v in g) for g in groups.values()) / len(groups)
        if multi_turn
        else None
    )
    return EvaluationReport(
        em=em_rate,
        lx=lx_rate,
        qm=em_rate,
        im=im_rate,
        counts=counts,
        verdicts=verdicts,
        n_examples=n,
        n_interactions=len(groups),
    )
