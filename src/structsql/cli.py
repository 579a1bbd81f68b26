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
from contextlib import ExitStack, closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, Sequence

from structsql import metrics as metrics_mod
from structsql.annotate import AnnotatedInput, MarkConfig, build_input
from structsql.complete import CompletionPlan, complete_sql
from structsql.decode import (
    LexiconConstraint,
    NoValidHypothesis,
    ProtocolViolation,
    RandomScorer,
    ScoreRequest,
    TokenScorer,
    TransportError,
    Untokenizable,
    Vocabulary,
    beam_steps,
    build_trie,
    external_scorer_connect,
    oracle_scorer,
)
from structsql.linking import QuestionTokens, name_link, value_link
from structsql.schema import DatabaseSchema, load_schemas
from structsql.sql_ast import SqlSyntaxError, parse_sql, render_sql
from structsql.synth import generate_synthetic_corpus, write_corpus

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_CONFIG_ERROR = 2


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")


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

    def __post_init__(self) -> None:
        # Each value has its default's type (content may also be a string).
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default) and not (f.default is None and type(value) is str):
                raise ConfigError(f"config field {f.name} must be {f.type}, not {value!r}")
        if self.beam_width < 1 or self.max_len < 1:
            raise ConfigError(f"beam_width {self.beam_width} or max_len {self.max_len} is below 1")
        _scorer_spec(self.scorer)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
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
        question, db_id = entry["question"], entry["db_id"]
        turns = [question] if isinstance(question, str) else question
        if not isinstance(turns, list) or not turns or not all(
            isinstance(t, str) and t.strip() for t in turns
        ):
            raise ValueError(f"example {i}: question is not a string or list of non-blank strings")
        if not isinstance(db_id, str) or not isinstance(entry.get("query", ""), str):
            raise ValueError(f"example {i}: db_id or query is not a string")
        examples.append(
            Example(
                index=i,
                db_id=db_id,
                turns=tuple(turns),
                query=entry.get("query", ""),
                interaction_id=str(entry.get("interaction_id", f"i{i:04d}")),
            )
        )
    return examples


def _load_inputs(
    tables: str, content: str | None, data: str
) -> tuple[dict[str, DatabaseSchema], list[Example]]:
    """Schemas and examples, each checked to name a loaded schema."""
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
) -> AnnotatedInput:
    question, links = _links_for(example, schema, config.language, config.include_values)
    prev_sql = None
    if prev_sql_text:
        try:
            prev_sql = parse_sql(prev_sql_text, schema)
        except ValueError:  # a previous query that does not parse or resolve is dropped
            prev_sql = None
    return build_input(
        question,
        schema,
        links,
        prev_sql=prev_sql,
        include_values=config.include_values,
        config=config.mark_config(),
        example_id=str(example.index),
    )


def _scorer_spec(spec: str) -> tuple[str, str | int]:
    """Kind and argument of a scorer spec; a ``random`` seed is an int."""
    kind, _, arg = spec.partition(":")
    if kind == "random":
        try:
            return kind, int(arg) if arg else 0
        except ValueError:
            raise ConfigError(f"random scorer seed {arg!r} is not an integer") from None
    if kind not in ("oracle", "extern"):
        raise ConfigError(f"unknown scorer spec {spec!r}")
    return kind, arg


def make_scorer(
    spec: str, vocab: Vocabulary, targets: Sequence[str], stack: ExitStack
) -> Callable[[int], TokenScorer]:
    """Scorer factory from a spec string.

    ``oracle`` follows the gold ``targets`` and ``oracle:<file>`` the lines
    of a file (one per target); ``random:<seed>`` scores pseudo-randomly;
    ``extern:<host:port>`` hands every example one connection speaking the
    wire protocol, closed when ``stack`` closes.  A missing address, or an
    oracle file that cannot be read or is short, is a ConfigError.
    """
    kind, arg = _scorer_spec(spec)
    if kind == "oracle":
        lines = targets
        if arg:
            try:
                lines = Path(arg).read_text(encoding="utf-8").splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read oracle file {arg}: {exc}") from exc
            if len(lines) < len(targets):
                raise ConfigError(
                    f"oracle file {arg} has {len(lines)} lines for {len(targets)} examples"
                )
        oracles = [oracle_scorer(line, vocab) for line in lines]
        return lambda i: oracles[i]
    if kind == "random":
        return lambda i: RandomScorer(vocab, seed=arg + i)
    if not arg:
        raise ConfigError("extern scorer needs host:port")
    remote = stack.enter_context(closing(external_scorer_connect(arg, vocab)))
    return lambda i: remote


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


def _complete_all(examples, texts, schemas) -> tuple[list[str], list[dict]]:
    """Complete each example's prediction.  A blank one stays blank; one that
    does not parse or cannot be completed is kept as it was, and its plan
    entry says why."""
    completed, plans = [], []
    for ex, text in zip(examples, texts):
        schema, plan = schemas[ex.db_id], _plan_entry(ex.index)
        if not text.strip():
            text = ""
        else:
            try:
                fixed, found = complete_sql(parse_sql(text, schema), schema, schema.graph)
            except (SqlSyntaxError, ValueError) as exc:
                plan = _plan_entry(ex.index, error=exc)
            else:
                text, plan = render_sql(fixed), _plan_entry(ex.index, found)
        completed.append(text)
        plans.append(plan)
    return completed, plans


@dataclass
class _Search:
    """One turn's beam search in flight, with the later turns of its chain."""

    example: Example
    later: Iterator[Example]
    scorer: TokenScorer
    steps: Generator
    request: ScoreRequest | None = None


def _decode_all(
    examples: list[Example],
    schemas: dict[str, DatabaseSchema],
    constraints: dict[str, LexiconConstraint],
    config: PipelineConfig,
    factory: Callable[[int], TokenScorer],
) -> tuple[list[str], list[str]]:
    """Annotated sources and decoded texts of ``examples``, in corpus order.

    Each interaction is a chain of turns in corpus order (with discourse off,
    each example is a chain of its own).  The first turn of every chain
    starts at once, and the searches step in lockstep: each step asks every
    distinct scorer once, for the requests of all the searches it serves.
    When a search ends, its text (blank if no hypothesis finished) is the
    previous SQL of the chain's next turn, which starts in the next step.
    """
    chains: dict = {}
    for ex in examples:
        chains.setdefault(ex.interaction_id if config.discourse else ex.index, []).append(ex)
    sources: dict[int, str] = {}
    decoded: dict[int, str] = {}
    ready: list[tuple[Iterator[Example], str | None]] = [(iter(c), None) for c in chains.values()]
    live: list[_Search] = []

    def advance(search: _Search, scores) -> bool:
        """Send ``scores`` to the search: True while it asks for more, and
        once it ends, its text is recorded and its chain is ready."""
        try:
            search.request = search.steps.send(scores)
            return True
        except StopIteration as stop:
            # The scorer's vocabulary governs its output ids (an injected
            # scorer may extend the corpus vocabulary).
            text = stop.value[0].text(search.scorer.vocab)
        except NoValidHypothesis:
            text = ""
        decoded[search.example.index] = text
        ready.append((search.later, text))
        return False

    while ready or live:
        starting, ready = ready, []
        for later, prev in starting:
            ex = next(later, None)
            if ex is None:
                continue
            annotated = _annotation_for(ex, schemas[ex.db_id], config, prev)
            sources[ex.index] = annotated.render()
            scorer = factory(ex.index)
            search = _Search(ex, later, scorer, beam_steps(
                scorer.vocab, annotated, constraints[ex.db_id], config.beam_width,
                config.max_len, constrained=config.constrained, example_id=str(ex.index),
            ))
            if advance(search, None):
                live.append(search)
        groups: dict[int, list[_Search]] = {}
        for search in live:
            groups.setdefault(id(search.scorer), []).append(search)
        live = []
        for group in groups.values():
            batch = group[0].scorer.score_batch([search.request for search in group])
            live += [s for s, scores in zip(group, batch, strict=True) if advance(s, scores)]
    return [sources[e.index] for e in examples], [decoded[e.index] for e in examples]


def run_pipeline(
    config: PipelineConfig,
    scorer_factory: Callable[[int], TokenScorer] | None = None,
) -> metrics_mod.EvaluationReport:
    """Full run over a dataset; writes per-stage artifacts under out_dir,
    and nothing before the inputs, the vocabulary and the scorer are ready."""
    try:
        schemas, examples = _load_inputs(config.tables, config.content, config.data)
    except (OSError, ValueError) as exc:
        raise StageError("ingest", exc) from exc

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

    # Stage: annotate and decode, every interaction's turns in order and all
    # interactions in lockstep, with one scorer call per step for every ready
    # example (see _decode_all).  A connection this run opens closes with the
    # stack, right after decoding; an injected factory belongs to the caller.
    out = Path(config.out_dir)
    with ExitStack() as stack:
        try:
            factory = scorer_factory or make_scorer(
                config.scorer, vocab, [e.query for e in examples], stack
            )
        except ConfigError:
            raise
        except (OSError, ValueError, TransportError, ProtocolViolation) as exc:
            raise StageError("scorer", exc) from exc
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.resolved.json", config.to_dict())
        try:
            sources, decoded = _decode_all(examples, schemas, constraints, config, factory)
        except Exception as exc:  # noqa: BLE001
            raise StageError("decode", exc) from exc

    _write_lines(out / "annotated.src", sources)
    _write_lines(out / "annotated.tgt", (e.query for e in examples))
    _write_lines(out / "decoded.sql", decoded)

    # Stage: complete
    try:
        if config.completion:
            completed, plans = _complete_all(examples, decoded, schemas)
        else:
            completed, plans = decoded, [_plan_entry(e.index) for e in examples]
    except Exception as exc:  # noqa: BLE001
        raise StageError("complete", exc) from exc

    _write_lines(out / "completed.sql", completed)
    _write_jsonl(out / "plan.jsonl", plans)

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

    _write_json(out / "report.json", report.to_dict())
    return report


# --------------------------------------------------------------------------
# Subcommands


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", required=True, help="Spider-format tables.json")
    parser.add_argument("--content", default=None, help="optional value sidecar json")


def cmd_link(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    records = [
        {**dataclasses.asdict(ann), "kind": ann.kind.value, "index": ex.index, "db_id": ex.db_id}
        for ex in examples
        for ann in _links_for(ex, schemas[ex.db_id], args.language, args.values)[1]
    ]
    _write_jsonl(args.out, records)
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    config = PipelineConfig(
        schema_property=not args.no_schema_property,
        database_structure=not args.no_database_structure,
        include_values=args.values,
        language=args.language,
    )
    sources: list[str] = []
    last_gold: dict[str, str] = {}
    for ex in examples:
        prev = last_gold.get(ex.interaction_id) if args.prev_sql == "gold" else None
        annotated = _annotation_for(ex, schemas[ex.db_id], config, prev)
        sources.append(annotated.render())
        last_gold[ex.interaction_id] = ex.query
    _write_lines(args.src, sources)
    _write_lines(args.tgt, (e.query for e in examples))
    return EXIT_OK


def cmd_complete(args: argparse.Namespace) -> int:
    schemas, examples = _load_inputs(args.tables, args.content, args.data)
    lines = Path(args.sql).read_text(encoding="utf-8").splitlines()
    if len(lines) != len(examples):
        raise StageError(
            "complete",
            metrics_mod.MismatchedLengths(f"{len(lines)} SQL lines vs {len(examples)} examples"),
        )
    # An empty line is a prediction `run` could not decode: it stays empty.
    completed, plans = _complete_all(examples, lines, schemas)
    _write_lines(args.out, completed)
    if args.plan:
        _write_jsonl(args.plan, plans)
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
    if any(db is None for db in db_ids):
        raise ConfigError("gold file must carry db ids (SQL<TAB>db_id) or pass --data")
    report = metrics_mod.score_corpus(
        preds, golds, interaction_ids=interaction_ids, db_ids=db_ids, schemas=schemas
    )
    if args.out:
        _write_json(args.out, report.to_dict())
    print(report.summary())
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # A flag that is absent leaves no attribute, so the file value stands;
    # ``replace`` checks the merged values again.
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(config) if hasattr(args, f.name)}
    config = dataclasses.replace(config, **flags)
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


def _write_or_print(path: str | Path | None, payload: str) -> None:
    if path:
        Path(path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _write_lines(path: str | Path | None, lines: Iterable[str]) -> None:
    _write_or_print(path, "\n".join(lines) + "\n")


def _write_jsonl(path: str | Path | None, records: Iterable[dict]) -> None:
    _write_or_print(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _write_json(path: str | Path, doc: dict) -> None:
    _write_or_print(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        level = os.environ.get("STRUCTSQL_LOG") or "WARNING"
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ConfigError(f"STRUCTSQL_LOG={level!r} is not a logging level name")
        logging.basicConfig(level=level.upper())
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
