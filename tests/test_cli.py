import argparse
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import structsql
from structsql import cli
from structsql.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_STAGE_ERROR,
    PipelineConfig,
    build_parser,
    main,
    run_pipeline,
)
from structsql.decode import Vocabulary
from structsql.schema import load_schemas
from structsql.synth import generate_synthetic_corpus, write_corpus

from util_checks import AdversarialScorer


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate_synthetic_corpus(3, 4, 25, with_values=True)
    write_corpus(corpus, out)
    return out


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--seed", "5", "--n-schemas", "3", "--n-queries", "10", "--out-dir", str(a)]) == EXIT_OK
    assert main(["gen", "--seed", "5", "--n-schemas", "3", "--n-queries", "10", "--out-dir", str(b)]) == EXIT_OK
    for name in ("tables.json", "examples.json"):
        assert read(a / name) == read(b / name)


def test_gen_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--seed", "1", "--out-dir", str(a)])
    main(["gen", "--seed", "2", "--out-dir", str(b)])
    assert read(a / "examples.json") != read(b / "examples.json")


@pytest.mark.parametrize("flag", ["--n-schemas", "--n-queries"])
def test_gen_count_below_one_is_a_config_error(tmp_path, capsys, flag):
    out = tmp_path / "gen"
    assert main(["gen", flag, "0", "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_ablation_matrix_runs_every_combination(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ablation_matrix.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n-schemas", "2", "--n-queries", "2",
                                      "--out-dir", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["marks", "struct", "disc", "constr", "compl", "QM", "LX"]
    toggles = [tuple(row.split()[:5]) for row in rows]
    assert len(rows) == 32 and len(set(toggles)) == 32
    assert all(row.split()[5] == "1.0000" for row in rows)


def test_generated_queries_all_parse(corpus_dir):
    # self-check is builtin; re-verify from the written files
    from structsql.sql_ast import parse_sql

    schemas = load_schemas(corpus_dir / "tables.json")
    examples = json.loads(read(corpus_dir / "examples.json"))
    for ex in examples:
        parse_sql(ex["query"], schemas[ex["db_id"]])


def test_link_subcommand(corpus_dir, tmp_path, capsys):
    out = tmp_path / "links.jsonl"
    code = main(
        [
            "link",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in read(out).splitlines()]
    assert records, "expected at least one link record"
    assert {"index", "db_id", "start", "end", "kind", "table", "column", "value"} <= set(records[0])


# ``link --values`` on two tennis questions, as the program wrote it when
# a link was a dataclass.
LINK_GOLDEN = """\
{"column": null, "db_id": "tennis", "end": 2, "index": 0, "kind": "ExactMatch", "start": 1, "table": "Players", "value": null}
{"column": "Player_id", "db_id": "tennis", "end": 2, "index": 0, "kind": "PartialMatch", "start": 1, "table": "Players", "value": null}
{"column": "Player_id", "db_id": "tennis", "end": 2, "index": 0, "kind": "PartialMatch", "start": 1, "table": "Ranking", "value": null}
{"column": "Country", "db_id": "tennis", "end": 4, "index": 0, "kind": "ValueMatch", "start": 3, "table": "Players", "value": "USA"}
{"column": null, "db_id": "tennis", "end": 3, "index": 1, "kind": "ExactMatch", "start": 2, "table": "Ranking", "value": null}
{"column": "Ranking", "db_id": "tennis", "end": 3, "index": 1, "kind": "ExactMatch", "start": 2, "table": "Ranking", "value": null}
{"column": "Year", "db_id": "tennis", "end": 4, "index": 1, "kind": "ExactMatch", "start": 3, "table": "Ranking", "value": null}
{"column": null, "db_id": "tennis", "end": 6, "index": 1, "kind": "ExactMatch", "start": 5, "table": "Players", "value": null}
{"column": "Player_id", "db_id": "tennis", "end": 6, "index": 1, "kind": "PartialMatch", "start": 5, "table": "Players", "value": null}
{"column": "Player_id", "db_id": "tennis", "end": 6, "index": 1, "kind": "PartialMatch", "start": 5, "table": "Ranking", "value": null}
{"column": "Year", "db_id": "tennis", "end": 9, "index": 1, "kind": "ValueMatch", "start": 8, "table": "Ranking", "value": "2016"}
"""


def test_link_jsonl_bytes_on_tennis(tmp_path, tables_path, content_path):
    data = tmp_path / "questions.json"
    data.write_text(json.dumps([
        {"db_id": "tennis", "question": "Which player from USA won a match?",
         "query": "SELECT Players.First_name FROM Players"},
        {"db_id": "tennis", "question": "Show the ranking year of players ranked in 2016",
         "query": "SELECT Ranking.Year FROM Ranking"},
    ]), encoding="utf-8")
    out = tmp_path / "links.jsonl"
    inputs = ["--data", str(data), "--tables", str(tables_path), "--content", str(content_path)]
    assert main(["link", *inputs, "--values", "--out", str(out)]) == EXIT_OK
    assert read(out) == LINK_GOLDEN


@pytest.mark.parametrize("command", ["link", "run"])
def test_infinity_question_with_values_exits_zero(tmp_path, tables_path, content_path, command):
    # "infinity" parses as a Decimal but is no finite number: against the
    # Integer sample values it must compare as text, not raise.
    data = tmp_path / "inf.json"
    data.write_text(
        json.dumps([{"db_id": "tennis", "question": "players ranked to infinity",
                     "query": "SELECT Ranking.Year FROM Ranking"}]),
        encoding="utf-8",
    )
    inputs = ["--data", str(data), "--tables", str(tables_path), "--content", str(content_path)]
    if command == "link":
        outputs = ["--out", str(tmp_path / "links.jsonl")]
    else:
        outputs = ["--out-dir", str(tmp_path / "run"), "--scorer", "oracle"]
    assert main([command, *inputs, "--values", *outputs]) == EXIT_OK


def test_annotate_subcommand(corpus_dir, tmp_path):
    src, tgt = tmp_path / "x.src", tmp_path / "x.tgt"
    code = main(
        [
            "annotate",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--src", str(src),
            "--tgt", str(tgt),
        ]
    )
    assert code == EXIT_OK
    src_lines = read(src).splitlines()
    tgt_lines = read(tgt).splitlines()
    assert len(src_lines) == len(tgt_lines) == 25
    assert all("[TABLE]" in line and "[COLUMN]" in line for line in src_lines)


def test_annotate_toggles_produce_vanilla(corpus_dir, tmp_path):
    src, tgt = tmp_path / "v.src", tmp_path / "v.tgt"
    main(
        [
            "annotate",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--src", str(src),
            "--tgt", str(tgt),
            "--no-schema-property",
            "--no-database-structure",
        ]
    )
    line = read(src).splitlines()[0]
    assert "links to" not in line
    assert "Primary-Key" not in line and "&" not in line


@pytest.mark.parametrize(
    "value, code, level",
    [("debug", EXIT_OK, "10"), ("Info", EXIT_OK, "20"), ("", EXIT_OK, "30"),
     ("loud", EXIT_CONFIG_ERROR, "")],
)
def test_structsql_log_names_a_level_in_any_case(tmp_path, value, code, level):
    # A fresh process: under pytest the root logger already has handlers,
    # and basicConfig then ignores its level without checking it.
    src_root = Path(structsql.__file__).resolve().parents[1]
    env = dict(os.environ, STRUCTSQL_LOG=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_root), env.get("PYTHONPATH")]))
    script = (
        "import logging, sys\n"
        "from structsql.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(logging.getLogger().level if code == 0 else '')\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "gen", "--n-schemas", "1", "--n-queries", "1",
         "--out-dir", str(tmp_path / "gen")],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout.splitlines()[-1]) == (code, level)
    if code == EXIT_CONFIG_ERROR:
        assert done.stderr == "config error: STRUCTSQL_LOG='loud' is not a logging level name\n"
        assert not (tmp_path / "gen").exists()


def test_run_pipeline_oracle_qm_one(corpus_dir, tmp_path):
    config = PipelineConfig(
        data=str(corpus_dir / "examples.json"),
        tables=str(corpus_dir / "tables.json"),
        content=str(corpus_dir / "content.json") if (corpus_dir / "content.json").exists() else None,
        out_dir=str(tmp_path / "run"),
        scorer="oracle",
        beam_width=3,
        max_len=150,
    )
    report = run_pipeline(config)
    assert report.qm == 1.0
    out = tmp_path / "run"
    for artifact in ("config.resolved.json", "annotated.src", "annotated.tgt",
                     "decoded.sql", "completed.sql", "plan.jsonl", "report.json"):
        assert (out / artifact).exists(), artifact


def test_pipeline_determinism(corpus_dir, tmp_path):
    # Two `structsql run` processes with different string-hash seeds must
    # write the same bytes: nothing may depend on set or dict-of-str order.
    src_root = Path(structsql.__file__).resolve().parents[1]

    def run(out, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_root), env.get("PYTHONPATH")]))
        subprocess.run(
            [
                sys.executable, "-m", "structsql.cli", "run",
                "--data", str(corpus_dir / "examples.json"),
                "--tables", str(corpus_dir / "tables.json"),
                "--content", str(corpus_dir / "content.json"),
                "--values",
                "--scorer", "random:5",
                "--beam", "2",
                "--max-len", "40",
                "--out-dir", str(out),
            ],
            env=env,
            check=True,
            capture_output=True,
        )

    run(tmp_path / "r1", 1)
    run(tmp_path / "r2", 2)
    assert any(read(tmp_path / "r1" / "decoded.sql").splitlines())
    for name in ("annotated.src", "decoded.sql", "completed.sql", "plan.jsonl", "report.json"):
        assert read(tmp_path / "r1" / name) == read(tmp_path / "r2" / name), name


def test_report_separates_decode_and_parse_failures(corpus_dir, tmp_path):
    # The random scorer leaves some examples undecoded (blank lines in
    # decoded.sql) and decodes others to text that does not parse.
    out = tmp_path / "run"
    argv = [
        "run",
        "--data", str(corpus_dir / "examples.json"),
        "--tables", str(corpus_dir / "tables.json"),
        "--content", str(corpus_dir / "content.json"),
        "--values",
        "--scorer", "random:5",
        "--beam", "2",
        "--max-len", "40",
        "--out-dir", str(out),
    ]
    assert main(argv) == EXIT_OK
    counts = json.loads(read(out / "report.json"))["counts"]
    assert counts["decode_failure"] == 5
    assert counts["parse_failure"] == 20
    assert read(out / "decoded.sql").splitlines().count("") == 5


def test_run_without_completion_keeps_decoded_sql(tmp_path, tables_path):
    # The gold query mentions Ranking without joining it, so completion
    # would add tables; `--no-completion` must leave the prediction alone.
    data = tmp_path / "data.json"
    data.write_text(
        json.dumps(
            [
                {"db_id": "tennis", "question": "first names of rank one players",
                 "query": "SELECT Players.First_name FROM Players WHERE Ranking.Ranking = 1"},
                {"db_id": "tennis", "question": "all matches", "query": "SELECT * FROM Matches"},
            ]
        ),
        encoding="utf-8",
    )

    def run(out, *flags):
        argv = ["run", "--data", str(data), "--tables", str(tables_path), "--out-dir", str(out)]
        assert main([*argv, *flags]) == EXIT_OK
        return [json.loads(line) for line in read(out / "plan.jsonl").splitlines()]

    assert run(tmp_path / "on")[0]["added_tables"] == ["Matches", "Ranking"]
    plans = run(tmp_path / "off", "--no-completion")
    off = tmp_path / "off"
    assert read(off / "completed.sql") == read(off / "decoded.sql")
    assert read(off / "decoded.sql") == read(tmp_path / "on" / "decoded.sql")
    assert len(plans) == 2
    assert all(p["added_tables"] == [] for p in plans)


def test_constraint_off_causes_schema_violations(corpus_dir, tmp_path):
    """Adversarial scorer: constraint off leaks out-of-schema tokens, on does not."""
    schemas = load_schemas(corpus_dir / "tables.json")
    examples = json.loads(read(corpus_dir / "examples.json"))
    vocab = Vocabulary.build(
        schemas.values(),
        corpus_texts=[e["query"] for e in examples] + ["Zebra_column"],
    )
    lure = vocab.id_of("Zebra_column")

    def factory(i):
        target = vocab.tokenize(examples[i]["query"])
        victim = next(
            t for t in target if vocab.surface(t) not in ("SELECT", "(", ")", "*", ",")
            and not vocab.surface(t).isdigit()
        )
        return AdversarialScorer(vocab, target, victim, lure)

    base = dict(
        data=str(corpus_dir / "examples.json"),
        tables=str(corpus_dir / "tables.json"),
        beam_width=1,
        max_len=150,
        completion=False,
    )
    off = PipelineConfig(out_dir=str(tmp_path / "off"), constrained=False, **base)
    report_off = run_pipeline(off, scorer_factory=factory)
    on = PipelineConfig(out_dir=str(tmp_path / "on"), constrained=True, **base)
    report_on = run_pipeline(on, scorer_factory=factory)

    violations_off = report_off.counts["schema_violation"] + report_off.counts["parse_failure"]
    assert violations_off > 0
    assert "Zebra_column" in read(tmp_path / "off" / "decoded.sql")
    assert "Zebra_column" not in read(tmp_path / "on" / "decoded.sql")


def test_complete_subcommand(tennis, corpus_dir, tmp_path, tables_path):
    data = tmp_path / "data.json"
    data.write_text(
        json.dumps(
            [
                {
                    "db_id": "tennis",
                    "question": "best player rank",
                    "query": "SELECT Players.First_name FROM Players",
                }
            ]
        ),
        encoding="utf-8",
    )
    sql = tmp_path / "in.sql"
    sql.write_text(
        "SELECT Players.First_name FROM Players JOIN Ranking WHERE Ranking.Ranking = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.sql"
    plan = tmp_path / "plan.jsonl"
    code = main(
        [
            "complete",
            "--data", str(data),
            "--tables", str(tables_path),
            "--sql", str(sql),
            "--out", str(out),
            "--plan", str(plan),
        ]
    )
    assert code == EXIT_OK
    assert "JOIN Matches ON" in read(out)
    assert json.loads(read(plan).splitlines()[0])["added_tables"] == ["Matches"]


def test_complete_keeps_empty_prediction_line(corpus_dir, tmp_path):
    # `run` writes an empty line for an example it could not decode.
    examples = json.loads(read(corpus_dir / "examples.json"))[:4]
    data = tmp_path / "data.json"
    data.write_text(json.dumps(examples), encoding="utf-8")
    lines = [e["query"] for e in examples]
    lines[1] = ""
    sql = tmp_path / "in.sql"
    sql.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.sql"
    plan = tmp_path / "plan.jsonl"
    code = main(
        [
            "complete",
            "--data", str(data),
            "--tables", str(corpus_dir / "tables.json"),
            "--sql", str(sql),
            "--out", str(out),
            "--plan", str(plan),
        ]
    )
    assert code == EXIT_OK
    completed = read(out).splitlines()
    assert len(completed) == 4
    assert completed[1] == ""
    assert all(completed[i] for i in (0, 2, 3))
    assert json.loads(read(plan).splitlines()[1])["added_tables"] == []


def write_unlinked_corpus(tmp_path, n_examples):
    """Two tables without a foreign key, so no join path can connect them."""
    doc = {
        "db_id": "iso",
        "table_names_original": ["a", "b"],
        "column_names_original": [[-1, "*"], [0, "id"], [1, "id"]],
        "column_types": ["text", "integer", "integer"],
        "primary_keys": [1, 2],
        "foreign_keys": [],
    }
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([doc]), encoding="utf-8")
    data = tmp_path / "data.json"
    gold = {"db_id": "iso", "question": "a ids", "query": "SELECT a.id FROM a WHERE a.id = 1"}
    data.write_text(json.dumps([gold] * n_examples), encoding="utf-8")
    return tables, data


def test_complete_records_completion_failures_and_goes_on(tmp_path):
    # Like `run`, `complete` keeps a line it cannot complete, also when only a
    # nested level has no join path, records why and goes on.
    tables, data = write_unlinked_corpus(tmp_path, 3)
    lines = [
        "SELECT a.id FROM a",
        "SELECT a.id FROM a WHERE a.id IN (SELECT a.id FROM a WHERE b.id = 1)",
        "SELECT a.id FROM a WHERE",
    ]
    sql = tmp_path / "in.sql"
    sql.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, plan = tmp_path / "out.sql", tmp_path / "plan.jsonl"
    code = main(
        ["complete", "--data", str(data), "--tables", str(tables), "--sql", str(sql),
         "--out", str(out), "--plan", str(plan)]
    )
    assert code == EXIT_OK
    assert read(out).splitlines() == lines
    plans = [json.loads(line) for line in read(plan).splitlines()]
    assert [p["index"] for p in plans] == [0, 1, 2]
    assert "error" not in plans[0]
    assert plans[1]["error"] == "Disconnected: no join path between 'a' and 'b'"
    assert plans[2]["error"].startswith("SqlSyntaxError: ")


def test_run_records_completion_failures_in_plan(tmp_path):
    tables, data = write_unlinked_corpus(tmp_path, 2)
    predictions = ["SELECT a.id FROM a WHERE b.id = 1", "SELECT a.id FROM a WHERE"]
    targets = tmp_path / "targets.sql"
    targets.write_text("\n".join(predictions) + "\n", encoding="utf-8")
    config = PipelineConfig(
        data=str(data),
        tables=str(tables),
        out_dir=str(tmp_path / "run"),
        scorer=f"oracle:{targets}",
        constrained=False,
        beam_width=1,
        max_len=20,
    )
    run_pipeline(config)
    out = tmp_path / "run"
    assert read(out / "decoded.sql").splitlines() == predictions
    assert read(out / "completed.sql").splitlines() == predictions
    plans = [json.loads(line) for line in read(out / "plan.jsonl").splitlines()]
    assert plans[0]["error"] == "Disconnected: no join path between 'a' and 'b'"
    assert plans[1]["error"].startswith("SqlSyntaxError: ")
    assert all(p["added_tables"] == [] and p["join_conditions"] == [] for p in plans)


def test_evaluate_subcommand(corpus_dir, tmp_path, capsys):
    examples = json.loads(read(corpus_dir / "examples.json"))
    pred = tmp_path / "pred.sql"
    gold = tmp_path / "gold.sql"
    pred.write_text("\n".join(e["query"] for e in examples) + "\n", encoding="utf-8")
    gold.write_text(
        "\n".join(f"{e['query']}\t{e['db_id']}" for e in examples) + "\n", encoding="utf-8"
    )
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--tables", str(corpus_dir / "tables.json"),
            "--pred", str(pred),
            "--gold", str(gold),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(read(out))
    assert report["qm"] == 1.0
    assert "QM" in capsys.readouterr().out


def test_evaluate_with_data_takes_interaction_ids_from_it(tables_path, tmp_path, capsys):
    # The gold file has no tabs: --data supplies the db ids and interactions.
    right = "SELECT Players.First_name FROM Players"
    examples = [
        {"question": "q", "db_id": "tennis", "query": right, "interaction_id": i}
        for i in ("A", "A", "B")
    ]
    data, pred, gold = tmp_path / "data.json", tmp_path / "pred.sql", tmp_path / "gold.sql"
    data.write_text(json.dumps(examples), encoding="utf-8")
    pred.write_text(f"{right}\nSELECT Players.Country FROM Players\n{right}\n", encoding="utf-8")
    gold.write_text(f"{right}\n" * 3, encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--tables", str(tables_path), "--pred", str(pred), "--gold", str(gold)]
    assert main([*argv, "--data", str(data), "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out))
    assert report["n_interactions"] == 2
    assert report["im"] == 0.5
    assert [v["interaction_id"] for v in report["verdicts"]] == ["A", "A", "B"]

    # Without --data the same gold file names no database.
    out.unlink()
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "gold file must carry db ids" in capsys.readouterr().err
    assert not out.exists()


def _deep_line(corpus_dir: Path, db_id: str, levels: int) -> str:
    """A query on ``db_id``'s first column nested ``levels`` deep through IN."""
    doc = next(d for d in json.loads(read(corpus_dir / "tables.json")) if d["db_id"] == db_id)
    t = doc["table_names_original"][0]
    c = next(name for i, name in doc["column_names_original"] if i == 0)
    return (f"SELECT {t}.{c} FROM {t} WHERE {t}.{c} IN (" * (levels - 1)
            + f"SELECT {t}.{c} FROM {t}" + ")" * (levels - 1))


def test_too_deep_line_fails_alone_in_complete_and_evaluate(corpus_dir, tmp_path, capsys):
    examples = json.loads(read(corpus_dir / "examples.json"))
    golds = [e["query"] for e in examples]
    deep = _deep_line(corpus_dir, examples[0]["db_id"], 400)
    corpus = ["--data", str(corpus_dir / "examples.json"), "--tables", str(corpus_dir / "tables.json")]
    outs = {}
    for name, lines in (("gold", golds), ("pred", [deep, *golds[1:]])):
        sql = tmp_path / f"{name}.sql"
        sql.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, plan = tmp_path / f"{name}.out.sql", tmp_path / f"{name}.plan.jsonl"
        argv = ["complete", *corpus, "--sql", str(sql), "--out", str(out), "--plan", str(plan)]
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        outs[name] = read(out).splitlines(), [json.loads(r) for r in read(plan).splitlines()]
    (completed, plans), (gold_completed, gold_plans) = outs["pred"], outs["gold"]
    assert completed == [deep, *gold_completed[1:]]
    assert plans[1:] == gold_plans[1:]
    assert plans[0]["error"].startswith(
        "SqlSyntaxError: more than 100 nested or chained SELECT levels"
    )

    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"{e['query']}\t{e['db_id']}\n" for e in examples), encoding="utf-8")
    report = tmp_path / "report.json"
    argv = ["evaluate", "--tables", str(corpus_dir / "tables.json"),
            "--pred", str(tmp_path / "pred.sql"), "--gold", str(gold), "--out", str(report)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    verdicts = json.loads(read(report))["verdicts"]
    assert verdicts[0]["error"] == "parse_failure"
    assert all(v["em"] for v in verdicts[1:])


@pytest.mark.parametrize("command", ["link", "complete"])
def test_output_goes_to_stdout_without_out(corpus_dir, tmp_path, capsys, command):
    corpus = ["--data", str(corpus_dir / "examples.json"), "--tables", str(corpus_dir / "tables.json")]
    if command == "complete":
        sql = tmp_path / "in.sql"
        examples = json.loads(read(corpus_dir / "examples.json"))
        sql.write_text("".join(e["query"] + "\n" for e in examples), encoding="utf-8")
        corpus += ["--sql", str(sql)]
    out = tmp_path / "out"
    assert main([command, *corpus, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main([command, *corpus]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed and printed == read(out)


def test_complete_with_too_few_sql_lines_is_stage_error(corpus_dir, tmp_path, capsys):
    sql, out = tmp_path / "in.sql", tmp_path / "out.sql"
    sql.write_text("SELECT * FROM t\n", encoding="utf-8")
    argv = [
        "complete",
        "--data", str(corpus_dir / "examples.json"),
        "--tables", str(corpus_dir / "tables.json"),
        "--sql", str(sql),
        "--out", str(out),
    ]
    assert main(argv) == EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith("stage error: [complete] 1 SQL lines vs 25 examples")
    assert not out.exists()


def test_evaluate_rejects_an_unknown_db_id(tables_path, tmp_path, capsys):
    pred = tmp_path / "pred.sql"
    gold = tmp_path / "gold.sql"
    pred.write_text("SELECT * FROM Players\n", encoding="utf-8")
    gold.write_text("SELECT * FROM Players\tnope\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(
        ["evaluate", "--tables", str(tables_path), "--pred", str(pred), "--gold", str(gold),
         "--out", str(out)]
    )
    assert code == EXIT_STAGE_ERROR
    assert "'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_run_subcommand_with_config_and_overrides(corpus_dir, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "data": str(corpus_dir / "examples.json"),
                "tables": str(corpus_dir / "tables.json"),
                "out_dir": str(tmp_path / "ignored"),
                "beam_width": 1,
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "actual"
    code = main(["run", "--config", str(config_path), "--out-dir", str(out_dir), "--beam", "2"])
    assert code == EXIT_OK
    resolved = json.loads(read(out_dir / "config.resolved.json"))
    assert resolved["beam_width"] == 2
    assert resolved["out_dir"] == str(out_dir)


def test_every_run_flag_lands_in_its_config_field(corpus_dir, tmp_path):
    # flag -> (PipelineConfig field, value the flag sets), all off the defaults
    flags = {
        "--data": ("data", str(corpus_dir / "examples.json")),
        "--tables": ("tables", str(corpus_dir / "tables.json")),
        "--content": ("content", str(corpus_dir / "content.json")),
        "--out-dir": ("out_dir", str(tmp_path / "flags")),
        "--beam": ("beam_width", 2),
        "--max-len": ("max_len", 30),
        "--scorer": ("scorer", "random:7"),
        "--no-constraint": ("constrained", False),
        "--no-completion": ("completion", False),
        "--no-schema-property": ("schema_property", False),
        "--no-database-structure": ("database_structure", False),
        "--no-discourse": ("discourse", False),
        "--values": ("include_values", True),
    }
    run_parser = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices["run"]
    declared = {
        opt for a in run_parser._actions for opt in a.option_strings if opt.startswith("--")
    }
    assert declared - {"--help", "--config"} == set(flags)
    defaults = PipelineConfig()
    for field, value in flags.values():
        assert getattr(defaults, field) != value, field

    argv = ["run"]
    for flag, (_, value) in flags.items():
        argv += [flag] if isinstance(value, bool) else [flag, str(value)]
    assert main(argv) == EXIT_OK
    resolved = json.loads(read(tmp_path / "flags" / "config.resolved.json"))
    assert {field: resolved[field] for field, _ in flags.values()} == dict(flags.values())

    # Without flags, every value from the config file stands.
    file_values = dict(flags.values())
    file_values.update(out_dir=str(tmp_path / "file"), beam_width=3, scorer="random:3")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(file_values), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    resolved = json.loads(read(tmp_path / "file" / "config.resolved.json"))
    assert {field: resolved[field] for field in file_values} == file_values


def test_missing_schema_path_is_stage_error(tmp_path):
    code = main(
        [
            "run",
            "--data", str(tmp_path / "nope.json"),
            "--tables", str(tmp_path / "nope_tables.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_STAGE_ERROR
    # A run that fails at ingest leaves no provenance behind.
    assert not (tmp_path / "out" / "config.resolved.json").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"db_id": "tennis"},
        {"question": "How many players?"},
        {"question": "How many players?", "db_id": "nope"},
        {"question": "", "db_id": "tennis"},
        {"question": ["How many players?", " "], "db_id": "tennis"},
        {"question": 5, "db_id": "tennis"},
        {"question": "How many players?", "db_id": ["tennis"]},
        {"question": "How many players?", "db_id": "tennis", "query": 5},
    ],
    ids=["no-question", "no-db-id", "unknown-db-id", "empty-question", "blank-turn",
         "number-question", "list-db-id", "number-query"],
)
def test_malformed_dataset_is_ingest_error(tables_path, tmp_path, capsys, entry):
    good = {"question": "Show all players", "db_id": "tennis", "query": "SELECT * FROM Players"}
    data = tmp_path / "examples.json"
    data.write_text(json.dumps([good, entry]), encoding="utf-8")
    inputs = ["--data", str(data), "--tables", str(tables_path)]
    assert main(["run", *inputs, "--out-dir", str(tmp_path / "out")]) == EXIT_STAGE_ERROR
    assert "[ingest] example 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    sql = tmp_path / "pred.sql"
    sql.write_text("SELECT * FROM Players\nSELECT * FROM Players\n", encoding="utf-8")
    outputs = [tmp_path / name for name in ("links.jsonl", "a.src", "a.tgt", "c.sql")]
    for argv in (
        ["link", *inputs, "--out", str(outputs[0])],
        ["annotate", *inputs, "--src", str(outputs[1]), "--tgt", str(outputs[2])],
        ["complete", *inputs, "--sql", str(sql), "--out", str(outputs[3])],
    ):
        assert main(argv) == EXIT_STAGE_ERROR, argv[0]
        assert "example 1" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def _with_column(entry):
    """A tennis document edit that replaces column 2 (Players.First_name)."""
    def edit(doc):
        columns = [list(c) for c in doc["column_names_original"]]
        columns[2] = entry
        return dict(doc, column_names_original=columns)
    return edit


_TENNIS_CONTENT = {"tennis": {"Players.Country": ["USA", "France"]}}


@pytest.mark.parametrize(
    "edit, content, message",
    [
        (lambda d: dict(d, primary_keys=["1"]), _TENNIS_CONTENT, "primary_keys: expected int"),
        (lambda d: dict(d, foreign_keys=[["6", 1]]), _TENNIS_CONTENT, "foreign_keys: expected int"),
        (_with_column([0.5, "x"]), _TENNIS_CONTENT, "column_names_original[2]: expected int"),
        (_with_column([True, "x"]), _TENNIS_CONTENT, "column_names_original[2]: expected int"),
        (_with_column([0, 3]), _TENNIS_CONTENT, "column_names_original[2]: expected str"),
        (
            lambda d: dict(d, table_names_original=["Players", 7, "Ranking"]),
            _TENNIS_CONTENT,
            "table_names_original: expected str",
        ),
        (lambda d: d, ["USA"], "content file: expected dict"),
        (lambda d: d, {"tennis": ["USA"]}, "content of 'tennis': expected dict"),
        (lambda d: d, {"tennis": {"Players.Country": "USA"}}, "content 'Players.Country'"),
        # Shapes and ranges that were already refused.
        (lambda d: dict(d, column_types=d["column_types"][:-1]), None, "column_types length 10"),
        (_with_column([0]), None, "bad column entry at index 2"),
        (_with_column([-1, "x"]), None, "table-less column 'x' at index 2"),
        (_with_column([5, "x"]), None, "column 'x' references table index 5"),
        (lambda d: dict(d, foreign_keys=[[6]]), None, "bad foreign key entry [6]"),
    ],
    ids=[
        "string-primary-key", "string-foreign-key", "float-table-index", "bool-table-index",
        "number-column-name", "number-table-name", "content-file-list", "content-db-list",
        "content-string-values", "short-column-types", "short-column-entry", "tableless-column",
        "table-index-out-of-range", "short-foreign-key",
    ],
)
def test_malformed_schema_or_content_is_ingest_error(
    tennis_doc, tmp_path, capsys, edit, content, message
):
    tables, data = tmp_path / "tables.json", tmp_path / "examples.json"
    tables.write_text(json.dumps([edit(dict(tennis_doc))]), encoding="utf-8")
    data.write_text(
        json.dumps([{"question": "Show all players", "db_id": "tennis",
                     "query": "SELECT * FROM Players"}]),
        encoding="utf-8",
    )
    inputs = ["--data", str(data), "--tables", str(tables)]
    if content is not None:
        (tmp_path / "content.json").write_text(json.dumps(content), encoding="utf-8")
        inputs += ["--content", str(tmp_path / "content.json")]
    assert main(["run", *inputs, "--out-dir", str(tmp_path / "out")]) == EXIT_STAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("stage error: [ingest] ") and message in err
    assert not (tmp_path / "out").exists()


def test_blank_cell_value_is_dropped(tmp_path):
    corpus = generate_synthetic_corpus(1, 2, 12, with_values=True)
    write_corpus(corpus, tmp_path / "plain")
    db_id = next(iter(corpus.content))
    column = next(iter(corpus.content[db_id]))
    corpus.content[db_id][column] += ["", " \t"]
    write_corpus(corpus, tmp_path / "blank")
    outputs = {}
    for name in ("plain", "blank"):
        corpus_dir = tmp_path / name
        argv = [
            "run",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--content", str(corpus_dir / "content.json"),
            "--out-dir", str(corpus_dir / "out"),
            "--values",
        ]
        assert main(argv) == EXIT_OK, name
        outputs[name] = {
            path.name: read(path)
            for path in sorted((corpus_dir / "out").iterdir())
            if path.name != "config.resolved.json"
        }
    assert len(outputs["blank"]) == 6
    assert outputs["blank"] == outputs["plain"]


def test_unknown_config_key_is_config_error(tmp_path):
    config_path = tmp_path / "config.json"
    # With data and tables set, the unknown key is the only configuration error
    # (an accepted key would go on to a stage error on the missing files).
    paths = {"data": str(tmp_path / "examples.json"), "tables": str(tmp_path / "tables.json")}
    for key in ("no_such_key", "oracle_prev_sql", "seed"):
        config_path.write_text(json.dumps({**paths, key: 1}), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG_ERROR
    # A value of the wrong type or below its range, and a file that is not a
    # JSON object, are configuration errors too.
    for bad in (
        {"beam_width": "5"}, {"beam_width": True}, {"max_len": 0}, {"constrained": 1},
        {"discourse": "no"}, {"content": 5}, {"scorer": None},
    ):
        config_path.write_text(json.dumps({**paths, **bad}), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG_ERROR, bad
    for text in ("[]", "{", '"run"', ""):
        config_path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG_ERROR, text
    # So is a config file that cannot be opened.
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("flag", ["--beam", "--max-len"])
def test_run_below_one_is_config_error_before_any_output(corpus_dir, tmp_path, capsys, flag):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--out-dir", str(out),
            flag, "0",
        ]
    )
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_run_without_data_is_config_error():
    assert main(["run"]) == EXIT_CONFIG_ERROR


def test_bad_scorer_spec_is_config_error(corpus_dir, tmp_path, capsys):
    for spec in ("telepathy:please", "random:abc", "random:1.5"):
        code = main(
            [
                "run",
                "--data", str(corpus_dir / "examples.json"),
                "--tables", str(corpus_dir / "tables.json"),
                "--out-dir", str(tmp_path / "out"),
                "--scorer", spec,
            ]
        )
        assert code == EXIT_CONFIG_ERROR, spec
        assert capsys.readouterr().err.startswith("config error: "), spec
        # The spec is checked before ingest, so nothing is written.
        assert not (tmp_path / "out").exists(), spec


def _run_scorer(corpus_dir, out, spec):
    return main(
        [
            "run",
            "--data", str(corpus_dir / "examples.json"),
            "--tables", str(corpus_dir / "tables.json"),
            "--out-dir", str(out),
            "--scorer", spec,
        ]
    )


def test_extern_scorer_without_address_is_config_error(corpus_dir, tmp_path, capsys):
    assert _run_scorer(corpus_dir, tmp_path / "out", "extern:") == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: extern scorer needs host:port\n"
    assert not (tmp_path / "out").exists()


def test_unreadable_oracle_file_is_config_error(corpus_dir, tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert _run_scorer(corpus_dir, tmp_path / "out", f"oracle:{missing}") == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"config error: cannot read oracle file {missing}: ")
    assert not (tmp_path / "out").exists()


def test_short_oracle_file_is_config_error(corpus_dir, tmp_path, capsys):
    examples = json.loads(read(corpus_dir / "examples.json"))
    short = tmp_path / "short.sql"
    short.write_text("\n".join(e["query"] for e in examples[:-1]) + "\n", encoding="utf-8")
    assert _run_scorer(corpus_dir, tmp_path / "out", f"oracle:{short}") == EXIT_CONFIG_ERROR
    n = len(examples)
    assert capsys.readouterr().err == (
        f"config error: oracle file {short} has {n - 1} lines for {n} examples\n"
    )
    assert not (tmp_path / "out").exists()


def test_all_eight_ablation_combinations_run(corpus_dir, tmp_path):
    import itertools

    small = tmp_path / "small.json"
    examples = json.loads(read(corpus_dir / "examples.json"))[:4]
    small.write_text(json.dumps(examples), encoding="utf-8")
    for sp, ds, dc in itertools.product((True, False), repeat=3):
        out = tmp_path / f"ab_{int(sp)}{int(ds)}{int(dc)}"
        config = PipelineConfig(
            data=str(small),
            tables=str(corpus_dir / "tables.json"),
            out_dir=str(out),
            schema_property=sp,
            database_structure=ds,
            discourse=dc,
            scorer="oracle",
            beam_width=1,
            max_len=150,
        )
        report = run_pipeline(config)
        assert report.qm == 1.0, (sp, ds, dc)


# A second interaction's turn, put between the two turns of interaction "a".
_OTHER_TURN = {"db_id": "tennis", "interaction_id": "b", "question": "countries",
               "query": "SELECT Players.Country FROM Players"}


def _annotate_gold_prev_sql(tmp_path, tables_path, interleaved=False) -> Path:
    """Run ``annotate --prev-sql gold`` on two turns, with another
    interaction's turn between them if ``interleaved``; return the source
    file."""
    examples = [
        {"db_id": "tennis", "interaction_id": "a", "question": "years",
         "query": "SELECT Ranking.Year FROM Ranking"},
        {"db_id": "tennis", "interaction_id": "a", "question": "top one",
         "query": "SELECT Ranking.Year FROM Ranking LIMIT 1"},
    ]
    if interleaved:
        examples.insert(1, _OTHER_TURN)
    data = tmp_path / "mt.json"
    data.write_text(json.dumps(examples), encoding="utf-8")
    src, tgt = tmp_path / "mt.src", tmp_path / "mt.tgt"
    main(
        [
            "annotate",
            "--data", str(data),
            "--tables", str(tables_path),
            "--src", str(src),
            "--tgt", str(tgt),
            "--prev-sql", "gold",
        ]
    )
    return src


@pytest.mark.parametrize("interleaved", [False, True], ids=["consecutive", "interleaved"])
def test_annotate_gold_prev_sql(tmp_path, tables_path, interleaved):
    lines = read(_annotate_gold_prev_sql(tmp_path, tables_path, interleaved)).splitlines()
    first, second = lines[0], lines[-1]
    assert "SELECT Ranking.Year FROM Ranking" not in first
    assert "SELECT Ranking.Year FROM Ranking" in second
    assert _OTHER_TURN["query"] not in second
    if interleaved:
        assert "SELECT Ranking.Year FROM Ranking" not in lines[1]


def test_prev_sql_programming_error_propagates(tmp_path, tables_path, monkeypatch):
    # Only a previous query that does not parse or resolve (a ValueError) is
    # dropped; any other exception is a fault and must surface.
    def broken_parse(*args, **kwargs):
        raise TypeError("broken parser")

    monkeypatch.setattr(cli, "parse_sql", broken_parse)
    with pytest.raises(TypeError, match="broken parser"):
        _annotate_gold_prev_sql(tmp_path, tables_path)


@pytest.mark.parametrize("interleaved", [False, True], ids=["consecutive", "interleaved"])
def test_multi_turn_pipeline_with_discourse(tmp_path, tables_path, content_path, interleaved):
    data = tmp_path / "data.json"
    examples = [
        {
            "db_id": "tennis",
            "interaction_id": "turnpair",
            "question": "show the years",
            "query": "SELECT Ranking.Year FROM Ranking",
        },
        {
            "db_id": "tennis",
            "interaction_id": "turnpair",
            "question": ["show the years", "only for rank one"],
            "query": "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1",
        },
    ]
    if interleaved:
        examples.insert(1, _OTHER_TURN)
    data.write_text(json.dumps(examples), encoding="utf-8")
    config = PipelineConfig(
        data=str(data),
        tables=str(tables_path),
        content=str(content_path),
        out_dir=str(tmp_path / "run"),
        scorer="oracle",
        beam_width=2,
        max_len=100,
    )
    report = run_pipeline(config)
    assert report.qm == 1.0
    assert report.im == 1.0
    # the second turn's source carries its interaction's previous predicted
    # SQL, not the prediction made just before it for another interaction
    src_lines = read(tmp_path / "run" / "annotated.src").splitlines()
    assert "SELECT Ranking.Year FROM Ranking" in src_lines[-1]
    assert _OTHER_TURN["query"] not in src_lines[-1]
    if interleaved:
        assert "SELECT Ranking.Year FROM Ranking" not in src_lines[1]


def test_unparseable_previous_prediction_is_left_out(tmp_path, tables_path):
    # The first turn's prediction tokenizes but does not parse, so the second
    # turn is annotated as if it had no previous query; the run goes on.
    data = tmp_path / "data.json"
    data.write_text(
        json.dumps(
            [
                {"db_id": "tennis", "interaction_id": "a", "question": "show the years",
                 "query": "SELECT Ranking.Year FROM Ranking"},
                {"db_id": "tennis", "interaction_id": "a",
                 "question": ["show the years", "only for rank one"],
                 "query": "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1"},
            ]
        ),
        encoding="utf-8",
    )
    predictions = [
        "SELECT Ranking.Year FROM",
        "SELECT Ranking.Year FROM Ranking WHERE Ranking.Ranking = 1",
    ]
    targets = tmp_path / "targets.sql"
    targets.write_text("\n".join(predictions) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    config = PipelineConfig(
        data=str(data), tables=str(tables_path), out_dir=str(out),
        scorer=f"oracle:{targets}", beam_width=1, max_len=40,
    )
    report = run_pipeline(config)
    assert read(out / "decoded.sql").splitlines() == predictions
    second = read(out / "annotated.src").splitlines()[1].split(" ")
    assert "SELECT" not in second
    assert report.to_dict()["counts"]["parse_failure"] == 1
    assert report.qm == 0.5
