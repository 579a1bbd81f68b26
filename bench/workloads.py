"""The three workloads: set-up, one untraced round through the program's entry
points, a traced replica of that round, and the checks of their outputs."""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from structsql import cli
from structsql.annotate import build_input
from structsql.cli import PipelineConfig, load_examples, run_pipeline
from structsql.complete import EXACT_TABLE_LIMIT, complete_sql
from structsql.decode import (
    LexiconConstraint,
    Vocabulary,
    beam_search,
    build_trie,
    external_scorer_connect,
)
from structsql.linking import QuestionTokens, name_link, value_link
from structsql.metrics import score_corpus
from structsql.schema import build_schema_graph, load_schemas
from structsql.sql_ast import parse_sql, render_sql

from corpus import offline_corpus, pipeline_corpus, write_files
from oracles import SchemaFacts, completion_violations
from standin import build_standin
from tracing import ROOT_SPAN, SCORER_SPAN, TimedScorer, Tracer

BENCH = Path(__file__).resolve().parent


@dataclass
class Outputs:
    """What one round produced, per example, for the checks."""

    completed: list[str]
    scored: int  # examples the evaluation report covers
    decoded: list[str] | None = None  # pipeline workloads
    sources: list[str] | None = None  # offline-wide: annotate's source lines
    targets: list[str] | None = None  # offline-wide: annotate's target lines


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _report_size(path: Path) -> int:
    report = json.loads(path.read_text(encoding="utf-8"))
    return min(report["n_examples"], len(report["verdicts"]))


def _interactions(examples):
    groups: dict[str, list] = {}
    for ex in examples:
        groups.setdefault(ex.interaction_id, []).append(ex)
    return groups.values()


def _traced_completion(tracer, examples, predictions, schemas, graphs, counts) -> list[str]:
    """parse -> complete -> render per line, as ``run`` and ``complete`` do."""
    out = []
    for ex, text in zip(examples, predictions):
        schema, graph, rid = schemas[ex.db_id], graphs[ex.db_id], str(ex.index)
        with tracer.span("sql_ast.parse", rid):
            query = parse_sql(text, schema)
        kind = "exact" if len(graph.tables) <= EXACT_TABLE_LIMIT else "greedy"
        with tracer.span(f"complete.{kind}", rid):
            fixed, plan = complete_sql(query, schema, graph)
        with tracer.span("sql_ast.render", rid):
            out.append(render_sql(fixed))
        counts["changed"] += plan.changed
        counts["tables_added"] += len(plan.added_tables)
    return out


def _link(tracer, ex, schema, config):
    with tracer.span("linking", str(ex.index)):
        question = QuestionTokens.from_text(list(ex.turns), config.language)
        links = name_link(question, schema)
        if config.include_values:
            links = links + value_link(question, schema)
    return question, links


def _prev_sql(text, schema):
    """A previous query that does not parse is dropped, as the program does."""
    if not text:
        return None
    try:
        return parse_sql(text, schema)
    except ValueError:
        return None


class Workload:
    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.data_dir = run_dir / "data"
        self.out_dir = run_dir / "out"
        self._verdicts: dict[tuple, list[str]] = {}

    def setup(self) -> None:
        """Make the corpus and write the files the program reads."""
        self.corpus = self.make_corpus()
        self.paths = write_files(self.corpus, self.data_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    @cached_property
    def facts(self) -> dict[str, SchemaFacts]:
        """Schema facts for the checks, made after the last set-up."""
        return {d["db_id"]: SchemaFacts(d) for d in self.corpus.schema_docs}

    def make_corpus(self):
        raise NotImplementedError

    def stop(self) -> None:
        """Stop whatever set-up started."""

    @property
    def n_examples(self) -> int:
        return len(self.corpus.examples)

    @property
    def expected_failures(self) -> frozenset[int]:
        return self.corpus.nested

    def _violations(self, db_id: str, before: str, after: str) -> list[str]:
        key = (db_id, before, after)
        if key not in self._verdicts:
            self._verdicts[key] = completion_violations(before, after, self.facts[db_id])
        return self._verdicts[key]

    def failures(self, out: Outputs) -> dict[int, str]:
        """Failed examples with a reason each; every example fails when the
        round's outputs do not line up with the corpus."""
        n = self.n_examples
        if len(out.completed) != n or out.scored != n:
            return {i: f"{len(out.completed)} completed, {out.scored} scored of {n}" for i in range(n)}
        bad: dict[int, str] = {}
        for i, ex in enumerate(self.corpus.examples):
            reason = self.example_failure(i, ex, out)
            if reason:
                bad[i] = reason
        return bad

    def example_failure(self, i: int, ex: dict, out: Outputs) -> str | None:
        raise NotImplementedError


class Pipeline(Workload):
    """``run_pipeline`` with the default config and content values on; the
    stand-in LM in process, or behind ``ScorerServer`` in another process."""

    def __init__(self, seed: int, run_dir: Path, remote: bool):
        super().__init__(seed, run_dir)
        self.remote = remote
        self.host: subprocess.Popen | None = None
        self.endpoint: str | None = None

    def make_corpus(self):
        return pipeline_corpus(self.seed)

    def setup(self) -> None:
        super().setup()
        self.lm = build_standin(self.paths, self.seed)
        config = PipelineConfig(
            data=str(self.paths["examples"]),
            tables=str(self.paths["tables"]),
            content=str(self.paths["content"]),
            out_dir=str(self.out_dir),
            include_values=True,
        )
        if self.remote:
            self._start_host()
            config.scorer = f"extern:{self.endpoint}"
        self.config = config

    def _start_host(self) -> None:
        self.host = subprocess.Popen(
            [sys.executable, str(BENCH / "lm_host.py"), "--dir", str(self.data_dir),
             "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.endpoint = self.host.stdout.readline().strip()
        if not self.endpoint:
            self.stop()
            raise RuntimeError("the scorer host exited before serving")
        external_scorer_connect(self.endpoint, self.lm.vocab).close()

    def stop(self) -> None:
        if self.host is None:
            return
        self.host.stdin.close()
        try:
            self.host.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.host.kill()
            self.host.wait()
        self.host.stdout.close()
        self.host = None

    def run_round(self) -> None:
        factory = None if self.remote else (lambda i: self.lm)
        run_pipeline(self.config, scorer_factory=factory)

    def outputs(self) -> Outputs:
        return Outputs(
            completed=_lines(self.out_dir / "completed.sql"),
            scored=_report_size(self.out_dir / "report.json"),
            decoded=_lines(self.out_dir / "decoded.sql"),
        )

    def example_failure(self, i, ex, out):
        target = self.corpus.stripped[i]
        if out.decoded[i] != target:
            return f"decoded {out.decoded[i]!r}, stand-in target {target!r}"
        problems = self._violations(ex["db_id"], out.decoded[i], out.completed[i])
        return "; ".join(problems) or None

    def traced_round(self, tracer: Tracer, counts: Counter) -> Outputs:
        """``run_pipeline``'s stages, one question at a time."""
        cfg = self.config
        with tracer.span(ROOT_SPAN):
            with tracer.span("schema.load"):
                schemas = load_schemas(cfg.tables, cfg.content)
                graphs = {db: build_schema_graph(s) for db, s in schemas.items()}
            counts["schema_loads"] += 1
            examples = load_examples(cfg.data)
            with tracer.span("decode.vocab"):
                vocab = Vocabulary.build(schemas.values(), corpus_texts=[e.query for e in examples])
            with tracer.span("decode.trie"):
                constraints = {
                    db: LexiconConstraint(build_trie(s, vocab), vocab) for db, s in schemas.items()
                }
            counts["tries"] += len(constraints)
            if self.remote:
                with tracer.span("wire.handshake"):
                    inner = external_scorer_connect(self.endpoint, vocab)
            else:
                inner = self.lm
            scorer = TimedScorer(inner, tracer)
            decoded: dict[int, str] = {}
            try:
                for group in _interactions(examples):
                    prev = None
                    for idx, ex in enumerate(group):
                        schema, rid = schemas[ex.db_id], str(ex.index)
                        question, links = _link(tracer, ex, schema, cfg)
                        with tracer.span("annotate", rid):
                            use_prev = cfg.discourse and len(group) > 1
                            annotated = build_input(
                                question, schema, links,
                                prev_sql=_prev_sql(prev, schema) if use_prev else None,
                                include_values=cfg.include_values,
                                config=cfg.mark_config(),
                                example_id=rid,
                                graph=graphs[ex.db_id],
                            )
                        counts["source_tokens"] += len(annotated.tokens)
                        with tracer.span("decode.beam", rid):
                            hyps = beam_search(
                                scorer, annotated, constraints[ex.db_id],
                                beam_width=cfg.beam_width, max_len=cfg.max_len,
                                constrained=cfg.constrained, example_id=rid,
                            )
                        counts["output_tokens"] += len(hyps[0].token_ids)
                        prev = decoded[ex.index] = hyps[0].text(vocab)
            finally:
                if self.remote:
                    inner.close()
            counts["scorer_calls"] += scorer.calls
            counts["candidates"] += scorer.candidates
            predictions = [decoded[e.index] for e in examples]
            completed = _traced_completion(tracer, examples, predictions, schemas, graphs, counts)
            with tracer.span("metrics.score"):
                report = score_corpus(
                    completed, [e.query for e in examples],
                    interaction_ids=[e.interaction_id for e in examples],
                    db_ids=[e.db_id for e in examples], schemas=schemas,
                )
        return Outputs(completed=completed, scored=report.n_examples, decoded=predictions)


class Offline(Workload):
    """The model-free commands through ``structsql.cli.main``: annotate with
    values and gold previous SQL, complete JOIN-stripped predictions,
    evaluate them."""

    def make_corpus(self):
        return offline_corpus(self.seed)

    def setup(self) -> None:
        super().setup()
        p, o = self.paths, self.out_dir
        common = ["--tables", str(p["tables"]), "--content", str(p["content"])]
        self.commands = [
            ["annotate", *common, "--data", str(p["examples"]), "--src", str(o / "train.src"),
             "--tgt", str(o / "train.tgt"), "--values", "--prev-sql", "gold"],
            ["complete", *common, "--data", str(p["examples"]), "--sql", str(p["stripped"]),
             "--out", str(o / "completed.sql"), "--plan", str(o / "plan.jsonl")],
            ["evaluate", *common, "--data", str(p["examples"]), "--pred", str(o / "completed.sql"),
             "--gold", str(p["gold"]), "--out", str(o / "report.json")],
        ]

    def run_round(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"structsql {argv[0]} exited with {code}")

    def outputs(self) -> Outputs:
        o = self.out_dir
        return Outputs(
            completed=_lines(o / "completed.sql"),
            scored=_report_size(o / "report.json"),
            sources=_lines(o / "train.src"),
            targets=_lines(o / "train.tgt"),
        )

    def failures(self, out: Outputs) -> dict[int, str]:
        n = self.n_examples
        if len(out.sources) != n or len(out.targets) != n:
            return {i: f"annotate wrote {len(out.sources)} source lines for {n}" for i in range(n)}
        return super().failures(out)

    def example_failure(self, i, ex, out):
        tables = self.facts[ex["db_id"]].names
        missing = tables - set(out.sources[i].split(" "))
        if missing:
            return f"annotated source lacks tables {sorted(missing)}"
        if out.targets[i] != ex["query"]:
            return "annotated target is not the gold query"
        problems = self._violations(ex["db_id"], self.corpus.stripped[i], out.completed[i])
        return "; ".join(problems) or None

    def traced_round(self, tracer: Tracer, counts: Counter) -> Outputs:
        """``annotate``, ``complete`` and ``evaluate``, one question at a time."""
        p = self.paths
        config = PipelineConfig(include_values=True)  # as ``annotate --values`` sets it
        with tracer.span(ROOT_SPAN):
            # annotate --values --prev-sql gold
            with tracer.span("schema.load"):
                schemas = load_schemas(p["tables"], p["content"])
            examples = load_examples(p["examples"])
            sources: dict[int, str] = {}
            for group in _interactions(examples):
                for idx, ex in enumerate(group):
                    schema, rid = schemas[ex.db_id], str(ex.index)
                    question, links = _link(tracer, ex, schema, config)
                    with tracer.span("annotate", rid):
                        annotated = build_input(
                            question, schema, links,
                            prev_sql=_prev_sql(group[idx - 1].query if idx else None, schema),
                            include_values=config.include_values,
                            config=config.mark_config(),
                            example_id=rid,
                        )
                    counts["source_tokens"] += len(annotated.tokens)
                    sources[ex.index] = annotated.render()
            # complete
            with tracer.span("schema.load"):
                schemas = load_schemas(p["tables"], p["content"])
                graphs = {db: build_schema_graph(s) for db, s in schemas.items()}
            completed = _traced_completion(
                tracer, examples, _lines(p["stripped"]), schemas, graphs, counts
            )
            # evaluate
            with tracer.span("schema.load"):
                schemas = load_schemas(p["tables"], p["content"])
            counts["schema_loads"] += 3
            with tracer.span("metrics.score"):
                report = score_corpus(
                    completed, _lines(p["gold"]),
                    interaction_ids=[e.interaction_id for e in examples],
                    db_ids=[e.db_id for e in examples], schemas=schemas,
                )
        return Outputs(
            completed=completed,
            scored=report.n_examples,
            sources=[sources[i] for i in sorted(sources)],
            targets=[e.query for e in examples],
        )


def make_workload(name: str, seed: int, run_dir: Path) -> Workload:
    if name == "offline-wide":
        return Offline(seed, run_dir)
    return Pipeline(seed, run_dir, remote=name == "pipeline-remote")


def _q(values: list[float], k: int) -> float:
    """k-th decile (k=5 is the median); 0 when nothing was sampled."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def layer_metrics(
    tracer: Tracer,
    counts: Counter,
    questions: int,
    untraced_s_per_example: float,
    traced_s_per_example: float,
    synth_s: float,
    remote: bool,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counts of the traced rounds."""
    d = tracer.durations

    def total(name: str) -> float:
        return sum(d(name))

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def per_q(x: float) -> float:
        return x / questions

    beam = d("decode.beam")
    scorer_s = total(SCORER_SPAN)
    search_s = sum(beam) - scorer_s
    calls = counts["scorer_calls"]
    round_trips = d(SCORER_SPAN) if remote else []
    return {
        "schema.load_ms": (1e3 * total("schema.load") / counts["schema_loads"], "ms"),
        "decode.vocab_ms": (1e3 * mean(d("decode.vocab")), "ms"),
        "decode.trie_ms": (1e3 * total("decode.trie") / counts["tries"] if counts["tries"] else 0.0, "ms"),
        "linking.ms_per_question": (1e3 * per_q(total("linking")), "ms"),
        "annotate.ms_per_question": (1e3 * per_q(total("annotate")), "ms"),
        "annotate.tokens_per_question": (per_q(counts["source_tokens"]), "count"),
        "decode.beam_ms_p50": (1e3 * _q(beam, 5), "ms"),
        "decode.beam_ms_p90": (1e3 * _q(beam, 9), "ms"),
        "decode.search_ms_per_question": (1e3 * per_q(search_s) if beam else 0.0, "ms"),
        "decode.us_per_output_token": (
            1e6 * search_s / counts["output_tokens"] if counts["output_tokens"] else 0.0, "us"),
        "decode.scorer_ms_per_question": (1e3 * per_q(scorer_s), "ms"),
        "decode.scorer_calls_per_question": (per_q(calls), "count"),
        "decode.candidates_per_call": (counts["candidates"] / calls if calls else 0.0, "count"),
        "decode.output_tokens_per_question": (per_q(counts["output_tokens"]), "count"),
        "wire.round_trips_per_question": (per_q(len(round_trips)), "count"),
        "wire.us_per_round_trip_p50": (1e6 * _q(round_trips, 5), "us"),
        "wire.us_per_round_trip_p90": (1e6 * _q(round_trips, 9), "us"),
        "wire.handshake_ms": (1e3 * mean(d("wire.handshake")), "ms"),
        "sql_ast.parse_us_per_query": (1e6 * mean(d("sql_ast.parse")), "us"),
        "sql_ast.render_us_per_query": (1e6 * mean(d("sql_ast.render")), "us"),
        "complete.us_per_query_exact": (1e6 * mean(d("complete.exact")), "us"),
        "complete.us_per_query_greedy": (1e6 * mean(d("complete.greedy")), "us"),
        "complete.changed_per_attempted": (per_q(counts["changed"]), "ratio"),
        "complete.tables_added_per_query": (per_q(counts["tables_added"]), "count"),
        "metrics.us_per_example": (1e6 * per_q(total("metrics.score")), "us"),
        "cli.overhead_ms_per_example": (
            1e3 * (untraced_s_per_example - tracer.stage_seconds() / questions), "ms"),
        "synth.generate_ms": (1e3 * synth_s, "ms"),
        "trace.overhead_ratio": (traced_s_per_example / untraced_s_per_example, "ratio"),
    }
