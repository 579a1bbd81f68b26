"""Pipeline driver: link -> annotate -> decode -> complete -> evaluate.

Every stage writes an inspectable artifact file; identical config and seed
produce byte-identical outputs.  Exit codes: 0 success, 1 stage error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from structsql import metrics as metrics_mod
from structsql.annotate import AnnotatedInput, MarkConfig, build_input
from structsql.complete import CompletionPlan, complete_sql
from structsql.decode import (
    LexiconConstraint,
    NoValidHypothesis,
    RandomScorer,
    RemoteScorer,
    TokenScorer,
    Untokenizable,
    Vocabulary,
    beam_search,
    build_trie,
    external_scorer_connect,
    oracle_scorer,
)
from structsql.linking import QuestionTokens, name_link, value_link
from structsql.schema import DatabaseSchema, SchemaGraph, build_schema_graph, load_schemas
from structsql.sql_ast import SqlSyntaxError, parse_sql, render_sql
from structsql.synth import generate_synthetic_corpus, write_corpus

logger = logging.getLogger(__name__)

SCORER_ENDPOINT_ENV = "STRUCTSQL_SCORER_ENDPOINT"

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_CONFIG_ERROR = 2


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    """Declarative run configuration; CLI flags override file values."""

    data: str = ""
    tables: str = ""
    content: str | None = None
    out_dir: str = "out"
    schema_property: bool = True
    database_structure: bool = True
    discourse: bool = True
    include_values: bool = False
    beam_width: int = 5
    max_len: int = 200
    scorer: str = "oracle"
    constrained: bool = True
    completion: bool = True
    language: str = "en"

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def mark_config(self) -> MarkConfig:
        return MarkConfig(
            schema_property=self.schema_property,
            database_structure=self.database_structure,
            discourse=self.discourse,
        )


@dataclass(frozen=True)
class Example:
    index: int
    db_id: str
    turns: tuple[str, ...]
    query: str
    interaction_id: str


def load_examples(path: str | Path) -> list[Example]:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    examples = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "question" not in entry or "db_id" not in entry:
            raise ValueError(f"example {i} has no question or no db_id")
        question = entry["question"]
        turns = tuple([question] if isinstance(question, str) else question)
        examples.append(
            Example(
                index=i,
                db_id=entry["db_id"],
                turns=turns,
                query=entry.get("query", ""),
                interaction_id=str(entry.get("interaction_id", f"i{i:04d}")),
            )
        )
    return examples


def _load_inputs(
    tables: str, content: str | None, data: str
) -> tuple[dict[str, DatabaseSchema], list[Example]]:
    """Schemas and examples, each example checked to name a loaded schema."""
    schemas = load_schemas(tables, content)
    examples = load_examples(data)
    for ex in examples:
        if ex.db_id not in schemas:
            raise ValueError(f"example {ex.index}: no schema has db_id {ex.db_id!r}")
    return schemas, examples


def _links_for(example: Example, schema: DatabaseSchema, language: str, with_values: bool):
    question = QuestionTokens.from_text(list(example.turns), language)
    links = name_link(question, schema)
    if with_values:
        links = links + value_link(question, schema)
    return question, links


def _annotation_for(
    example: Example,
    schema: DatabaseSchema,
    config: PipelineConfig,
    prev_sql_text: str | None,
    graph: SchemaGraph,
) -> AnnotatedInput:
    question, links = _links_for(example, schema, config.language, config.include_values)
    prev_sql = None
    if prev_sql_text:
        try:
            prev_sql = parse_sql(prev_sql_text, schema)
        except Exception:  # noqa: BLE001 - a bad previous prediction is just dropped
            prev_sql = None
    return build_input(
        question,
        schema,
        links,
        prev_sql=prev_sql,
        include_values=config.include_values,
        config=config.mark_config(),
        example_id=str(example.index),
        graph=graph,
    )


def make_scorer(
    spec: str, vocab: Vocabulary, targets: Sequence[str] | None = None
) -> Callable[[int], TokenScorer]:
    """Scorer factory from a spec string.

    ``oracle`` / ``oracle:<file>`` follow gold targets; ``random:<seed>``
    scores pseudo-randomly; ``extern:<host:port>`` proxies the wire protocol
    (overridable via STRUCTSQL_SCORER_ENDPOINT).
    """
    env_endpoint = os.environ.get(SCORER_ENDPOINT_ENV)
    kind, _, arg = spec.partition(":")
    if env_endpoint and kind == "extern":
        arg = env_endpoint
    if kind == "oracle":
        if arg:
            lines = Path(arg).read_text(encoding="utf-8").splitlines()
        elif targets is not None:
            lines = list(targets)
        else:
            raise ConfigError("oracle scorer needs targets or a file argument")
        oracles = [oracle_scorer(line, vocab) for line in lines]
        return lambda i: oracles[i]
    if kind == "random":
        base = int(arg) if arg else 0
        return lambda i: RandomScorer(vocab, seed=base + i)
    if kind == "extern":
        if not arg:
            raise ConfigError("extern scorer needs host:port")
        return _SharedConnection(external_scorer_connect(arg, vocab))
    raise ConfigError(f"unknown scorer spec {spec!r}")


@dataclass(frozen=True)
class _SharedConnection:
    """Scorer factory that hands every example one open remote scorer."""

    remote: RemoteScorer

    def __call__(self, index: int) -> RemoteScorer:
        return self.remote

    def close(self) -> None:
        self.remote.close()


def _plan_entry(
    index: int, plan: CompletionPlan | None = None, error: Exception | None = None
) -> dict:
    """One ``plan.jsonl`` record: what completion added to an example, or the
    exception that stopped it."""
    entry: dict = {"index": index, "added_tables": [], "join_conditions": []}
    if plan is not None:
        entry["added_tables"] = list(plan.added_tables)
        entry["join_conditions"] = [[str(a), str(b)] for a, b in plan.join_conditions]
        entry["rationale"] = list(plan.rationale)
    if error is not None:
        entry["error"] = f"{type(error).__name__}: {error}"
    return entry


def _complete_one(index: int, text: str, schema, graph) -> tuple[str, dict]:
    """Complete one prediction.  One that does not parse or cannot be
    completed is kept as it was, and its plan entry says why."""
    try:
        fixed, plan = complete_sql(parse_sql(text, schema), schema, graph)
    except (SqlSyntaxError, ValueError) as exc:
        return text, _plan_entry(index, error=exc)
    return render_sql(fixed), _plan_entry(index, plan)


def run_pipeline(
    config: PipelineConfig,
    scorer_factory: Callable[[int], TokenScorer] | None = None,
) -> metrics_mod.EvaluationReport:
    """Full run over a dataset; writes per-stage artifacts under out_dir."""
    try:
        schemas, examples = _load_inputs(config.tables, config.content, config.data)
    except (OSError, ValueError) as exc:
        raise StageError("ingest", exc) from exc

    # Provenance is written only for a run that got past ingest.
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    graphs = {db: build_schema_graph(s) for db, s in schemas.items()}

    try:
        vocab = Vocabulary.build(
            schemas.values(), corpus_texts=[e.query for e in examples]
        )
        tries = {
            db: build_trie(schema, vocab) for db, schema in schemas.items()
        }
        constraints = {db: LexiconConstraint(trie, vocab) for db, trie in tries.items()}
    except Untokenizable as exc:
        raise StageError("vocabulary", exc) from exc

    interactions: dict[str, list[Example]] = {}
    for ex in examples:
        interactions.setdefault(ex.interaction_id, []).append(ex)

    try:
        factory = scorer_factory or make_scorer(
            config.scorer, vocab, targets=[e.query for e in examples]
        )
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise StageError("scorer", exc) from exc

    # Stage: annotate and decode, interaction by interaction so each turn
    # sees the previous turn's prediction
    sources: dict[int, str] = {}
    raw_preds: dict[int, str] = {}
    try:
        for group in interactions.values():
            prev_text: str | None = None
            for ex in group:
                schema = schemas[ex.db_id]
                ex_prev = prev_text if config.discourse and len(group) > 1 else None
                annotated = _annotation_for(ex, schema, config, ex_prev, graphs[ex.db_id])
                sources[ex.index] = annotated.render()
                scorer = factory(ex.index)
                try:
                    hyps = beam_search(
                        scorer,
                        annotated,
                        constraints[ex.db_id],
                        beam_width=config.beam_width,
                        max_len=config.max_len,
                        constrained=config.constrained,
                        example_id=str(ex.index),
                    )
                    # The scorer's vocabulary governs its output ids (an injected
                    # scorer may extend the corpus vocabulary).
                    text = hyps[0].text(scorer.vocab)
                except NoValidHypothesis:
                    text = ""
                raw_preds[ex.index] = text
                prev_text = text
    except Exception as exc:  # noqa: BLE001
        raise StageError("decode", exc) from exc
    finally:
        # A connection this run opened ends with decoding; an injected
        # factory belongs to the caller.
        if scorer_factory is None and isinstance(factory, _SharedConnection):
            factory.close()

    (out / "annotated.src").write_text(
        "\n".join(sources[i] for i in sorted(sources)) + "\n", encoding="utf-8"
    )
    (out / "annotated.tgt").write_text(
        "\n".join(e.query for e in examples) + "\n", encoding="utf-8"
    )
    (out / "decoded.sql").write_text(
        "\n".join(raw_preds[i] for i in sorted(raw_preds)) + "\n", encoding="utf-8"
    )

    # Stage: complete
    completed: list[str] = []
    plans: list[dict] = []
    try:
        for ex in examples:
            text = raw_preds[ex.index]
            plan_entry = _plan_entry(ex.index)
            if config.completion and text:
                text, plan_entry = _complete_one(ex.index, text, schemas[ex.db_id], graphs[ex.db_id])
            completed.append(text)
            plans.append(plan_entry)
    except Exception as exc:  # noqa: BLE001
        raise StageError("complete", exc) from exc

    (out / "completed.sql").write_text("\n".join(completed) + "\n", encoding="utf-8")
    (out / "plan.jsonl").write_text(
        "".join(json.dumps(p, sort_keys=True) + "\n" for p in plans), encoding="utf-8"
    )

    # Stage: evaluate
    try:
        report = metrics_mod.score_corpus(
            completed,
            [e.query for e in examples],
            interaction_ids=[e.interaction_id for e in examples],
            db_ids=[e.db_id for e in examples],
            schemas=schemas,
        )
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc

    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


# --------------------------------------------------------------------------
# Subcommands


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", required=True, help="Spider-format tables.json")
    parser.add_argument("--content", default=None, help="optional value sidecar json")


def cmd_link(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    records = []
    for ex in examples:
        schema = schemas[ex.db_id]
        question, links = _links_for(ex, schema, args.language, args.values)
        for ann in links:
            records.append(
                {
                    "index": ex.index,
                    "db_id": ex.db_id,
                    "start": ann.start,
                    "end": ann.end,
                    "kind": ann.kind.value,
                    "table": ann.table,
                    "column": ann.column,
                    "value": ann.value,
                }
            )
    payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    _write_or_print(args.out, payload)
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    graphs = {db: build_schema_graph(s) for db, s in schemas.items()}
    config = PipelineConfig(
        schema_property=not args.no_schema_property,
        database_structure=not args.no_database_structure,
        discourse=not args.no_discourse,
        include_values=args.values,
        language=args.language,
    )
    interactions: dict[str, list[Example]] = {}
    for ex in examples:
        interactions.setdefault(ex.interaction_id, []).append(ex)
    sources: dict[int, str] = {}
    for group in interactions.values():
        for idx, ex in enumerate(group):
            prev = group[idx - 1].query if (idx > 0 and args.prev_sql == "gold") else None
            annotated = _annotation_for(ex, schemas[ex.db_id], config, prev, graphs[ex.db_id])
            sources[ex.index] = annotated.render()
    Path(args.src).write_text(
        "\n".join(sources[i] for i in sorted(sources)) + "\n", encoding="utf-8"
    )
    Path(args.tgt).write_text(
        "\n".join(e.query for e in examples) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def cmd_complete(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    graphs = {db: build_schema_graph(s) for db, s in schemas.items()}
    lines = Path(args.sql).read_text(encoding="utf-8").splitlines()
    if len(lines) != len(examples):
        raise StageError(
            "complete",
            metrics_mod.MismatchedLengths(f"{len(lines)} SQL lines vs {len(examples)} examples"),
        )
    out_lines, plans = [], []
    for ex, line in zip(examples, lines):
        # An empty line is a prediction `run` could not decode: keep it empty.
        text, plan_entry = "", _plan_entry(ex.index)
        if line.strip():
            text, plan_entry = _complete_one(ex.index, line, schemas[ex.db_id], graphs[ex.db_id])
        out_lines.append(text)
        plans.append(plan_entry)
    _write_or_print(args.out, "\n".join(out_lines) + "\n")
    if args.plan:
        Path(args.plan).write_text(
            "".join(json.dumps(p, sort_keys=True) + "\n" for p in plans), encoding="utf-8"
        )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    schemas = load_schemas(args.tables, args.content)
    preds = Path(args.pred).read_text(encoding="utf-8").splitlines()
    gold_lines = Path(args.gold).read_text(encoding="utf-8").splitlines()
    golds, db_ids = [], []
    for line in gold_lines:
        sql, _, db = line.partition("\t")
        golds.append(sql)
        db_ids.append(db or None)
    if args.data:
        examples = load_examples(args.data)
        db_ids = [e.db_id for e in examples]
        interaction_ids = [e.interaction_id for e in examples]
    else:
        interaction_ids = None
    if args.interactions:
        interaction_ids = Path(args.interactions).read_text(encoding="utf-8").split()
    if any(db is None for db in db_ids):
        raise ConfigError("gold file must carry db ids (SQL<TAB>db_id) or pass --data")
    report = metrics_mod.score_corpus(
        preds, golds, interaction_ids=interaction_ids, db_ids=db_ids, schemas=schemas
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(report.summary())
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # A flag that is absent leaves no attribute, so the file value stands.
    for field in dataclasses.fields(PipelineConfig):
        if hasattr(args, field.name):
            setattr(config, field.name, getattr(args, field.name))
    if not config.data or not config.tables:
        raise ConfigError("run needs --data and --tables (or a config file)")
    report = run_pipeline(config)
    print(report.summary())
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    corpus = generate_synthetic_corpus(
        args.seed, args.n_schemas, args.n_queries, with_values=args.with_values
    )
    paths = write_corpus(corpus, args.out_dir)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def _write_or_print(path: str | None, payload: str) -> None:
    if path:
        Path(path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structsql",
        description="structure-aware text-to-SQL pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link", help="emit question-schema link annotations")
    _add_common(p)
    p.add_argument("--language", default="en")
    p.add_argument("--data", required=True)
    p.add_argument("--values", action="store_true", help="include value links")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("annotate", help="write seq2seq source/target text pairs")
    _add_common(p)
    p.add_argument("--language", default="en")
    p.add_argument("--data", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--values", action="store_true")
    p.add_argument("--prev-sql", choices=("none", "gold"), default="none")
    p.add_argument("--no-schema-property", action="store_true")
    p.add_argument("--no-database-structure", action="store_true")
    p.add_argument("--no-discourse", action="store_true")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("complete", help="repair FROM/JOIN clauses")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--sql", required=True, help="file with one SQL per line")
    p.add_argument("--out", default=None)
    p.add_argument("--plan", default=None, help="write a completion plan report")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("evaluate", help="score predictions against gold SQL")
    _add_common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--interactions", default=None, help="file with one interaction id per line")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    # Every flag but --config is named by its PipelineConfig field (dest).
    p = sub.add_parser(
        "run", help="full pipeline from a config file", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--config", default=None)
    p.add_argument("--data")
    p.add_argument("--tables")
    p.add_argument("--content")
    p.add_argument("--out-dir")
    p.add_argument("--beam", type=int, dest="beam_width")
    p.add_argument("--max-len", type=int)
    p.add_argument("--scorer")
    p.add_argument("--no-constraint", action="store_false", dest="constrained")
    p.add_argument("--no-completion", action="store_false", dest="completion")
    p.add_argument("--no-schema-property", action="store_false", dest="schema_property")
    p.add_argument("--no-database-structure", action="store_false", dest="database_structure")
    p.add_argument("--no-discourse", action="store_false", dest="discourse")
    p.add_argument("--values", action="store_true", dest="include_values")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-schemas", type=int, default=5)
    p.add_argument("--n-queries", type=int, default=50)
    p.add_argument("--out-dir", default="synth")
    p.add_argument("--with-values", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("STRUCTSQL_LOG", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
