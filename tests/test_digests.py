"""Byte-identical outputs: the SHA-256 of every artifact a fixed matrix of
runs writes is checked in.

A change that is meant to keep behaviour must leave every digest here as it
is.  ``config.resolved.json`` holds the run's ``out_dir`` and is left out.
The corpus is ``gen --seed 3 --n-schemas 3 --n-queries 16 --with-values``
with its examples regrouped into three-turn interactions, so discourse marks
and the previous SQL have something to carry.  Synth schemas are trees; the
inline ``ring`` schema is a six-table cycle whose predictions have tied
minimal connectors, so a changed tie-break in completion changes a digest.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from structsql.cli import EXIT_OK, main


def _ring_tables() -> list[dict]:
    # Alpha..Zeta in a cycle: each table's Next_id refers to the following one.
    names = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"]
    columns, types, primary, foreign = [[-1, "*"]], ["text"], [], []
    for i, name in enumerate(names):
        primary.append(len(columns))
        columns += [[i, "Id"], [i, "Name"], [i, "Next_id"]]
        types += ["integer", "text", "integer"]
    for i in range(len(names)):
        foreign.append([1 + 3 * i + 2, 1 + 3 * ((i + 1) % len(names))])
    columns.append([0, "Code_name_code"])
    types.append("text")
    return [{
        "db_id": "ring",
        "table_names_original": names,
        "column_names_original": columns,
        "column_types": types,
        "primary_keys": primary,
        "foreign_keys": foreign,
    }]


# Questions and predictions on the ring.  In the first question "name code"
# and "code name" are equally long partial matches of Code_name_code that
# overlap, so the earlier one is kept.  Alpha and Delta are joined by Beta
# and Gamma or by Epsilon and Zeta (Dreyfus-Wagner decides); Alpha, Gamma
# and Epsilon by any two of Beta, Delta and Zeta (added sets tried by size
# decide).
RING_QUESTIONS = [
    "show name code name of alpha and the delta name",
    "gamma name of epsilon with alpha id 1",
    "delta names whose alpha id is a gamma id where epsilon name is x",
    "beta names together with zeta ids of gamma",
    "alpha names and their next beta",
    "how many alpha and gamma pairs",
]
RING_SQL = [
    "SELECT alpha.name, delta.name FROM alpha",
    "select gamma.name from epsilon where alpha.id = 1",
    "SELECT Delta.Name FROM Delta JOIN Alpha WHERE Alpha.Id IN (SELECT Gamma.Id FROM Gamma "
    "WHERE Epsilon.Name = 'x')",
    "SELECT Beta.Name FROM Beta JOIN Beta UNION SELECT Zeta.Id FROM Zeta, Gamma",
    "SELECT Alpha.Name FROM Alpha JOIN Beta ON Alpha.Next_id = Beta.Id",
    "SELECT COUNT(*) FROM Alpha JOIN Gamma",
]


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "config.resolved.json"
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("digest_inputs")
    assert main(["gen", "--seed", "3", "--n-schemas", "3", "--n-queries", "16", "--with-values",
                 "--out-dir", str(root)]) == EXIT_OK
    examples = json.loads((root / "examples.json").read_text(encoding="utf-8"))
    for k, ex in enumerate(examples):
        ex["interaction_id"] = f"i{k // 3:04d}"
    (root / "examples.json").write_text(json.dumps(examples), encoding="utf-8")
    # Predictions with every JOIN dropped, one blank (undecoded) and one unparseable.
    preds = [re.sub(r" JOIN \w+ ON \S+ = \S+", "", ex["query"]) for ex in examples]
    preds[4], preds[9] = "", "SELECT FROM"
    (root / "pred.sql").write_text("\n".join(preds) + "\n", encoding="utf-8")
    (root / "gold.sql").write_text(
        "".join(f"{ex['query']}\t{ex['db_id']}\n" for ex in examples), encoding="utf-8"
    )
    (root / "ring_tables.json").write_text(json.dumps(_ring_tables()), encoding="utf-8")
    (root / "ring_examples.json").write_text(
        json.dumps([{"db_id": "ring", "question": q} for q in RING_QUESTIONS]),
        encoding="utf-8",
    )
    (root / "ring.sql").write_text("\n".join(RING_SQL) + "\n", encoding="utf-8")
    return {name: str(root / name) for name in (
        "tables.json", "content.json", "examples.json", "pred.sql", "gold.sql",
        "ring_tables.json", "ring_examples.json", "ring.sql",
    )}


def _args(cell: str, inputs: dict[str, str], out: Path) -> list[str]:
    corpus = ["--data", inputs["examples.json"], "--tables", inputs["tables.json"],
              "--content", inputs["content.json"]]
    command, *flags = cell.split()
    if command == "run":
        return ["run", *corpus, "--out-dir", str(out), *flags]
    if cell == "link --values":
        return ["link", *corpus, "--values", "--out", str(out / "links.jsonl")]
    if cell == "annotate --values --prev-sql gold":
        return ["annotate", *corpus, "--values", "--prev-sql", "gold",
                "--src", str(out / "train.src"), "--tgt", str(out / "train.tgt")]
    if cell == "complete":
        return ["complete", *corpus, "--sql", inputs["pred.sql"],
                "--out", str(out / "completed.sql"), "--plan", str(out / "plan.jsonl")]
    if cell == "link ring":
        return ["link", "--data", inputs["ring_examples.json"], "--tables", inputs["ring_tables.json"],
                "--out", str(out / "links.jsonl")]
    if cell == "complete ring":
        return ["complete", "--data", inputs["ring_examples.json"],
                "--tables", inputs["ring_tables.json"], "--sql", inputs["ring.sql"],
                "--out", str(out / "completed.sql"), "--plan", str(out / "plan.jsonl")]
    assert cell == "evaluate"
    return ["evaluate", "--pred", inputs["pred.sql"], "--gold", inputs["gold.sql"],
            "--data", inputs["examples.json"], "--tables", inputs["tables.json"],
            "--content", inputs["content.json"], "--out", str(out / "report.json")]


EXPECTED: dict[str, dict[str, str]] = {
    "run": {
        "annotated.src": "205cb958799b714b344f8bfb37a598e115f74c3d8021c22a04882f2d7d1f1794",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "ef610cb88a214c390d24b2bf054fbe346f683452687c3490da57c51658c9109b",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "run --values": {
        "annotated.src": "ad2fcd837e0544574fdffb8298fa2068d9cc6f784a04db99d5dcbcf41bb2c180",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "ef610cb88a214c390d24b2bf054fbe346f683452687c3490da57c51658c9109b",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "run --scorer random:11 --beam 1": {
        "annotated.src": "4c38cda1af5bb2f7c3b6d2e8004fe45a8af5b070d07a7d52482ee76ac0823225",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "172bed9b7f18cb70561a1949ba7e221557d9168240e4a66fa1c6225337a2a35f",
        "decoded.sql": "172bed9b7f18cb70561a1949ba7e221557d9168240e4a66fa1c6225337a2a35f",
        "plan.jsonl": "093129ca7c5145edf0e257b6e2eb36bb3b25a236e1c97dda90914224f03e8110",
        "report.json": "7e94108e7f654026273e983e9c1150a19aca92860c32a4280e0293fb70056a19",
    },
    "run --scorer random:7 --beam 5 --max-len 60": {
        "annotated.src": "4c38cda1af5bb2f7c3b6d2e8004fe45a8af5b070d07a7d52482ee76ac0823225",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "e541a182873dade11935ae02d947ce14521280acca7c0c3e074f0a70fbb43b72",
        "decoded.sql": "e541a182873dade11935ae02d947ce14521280acca7c0c3e074f0a70fbb43b72",
        "plan.jsonl": "8df9b426390d76faed51c77cec4eb323e547350ae93b274e63dc3fcc5be347bd",
        "report.json": "ac159ffbd7f4e723d9730bfd0822d147999fb7fc9997b8f0c3825371c4b43b0f",
    },
    "run --scorer random:5 --beam 3 --no-constraint --max-len 30": {
        "annotated.src": "4c38cda1af5bb2f7c3b6d2e8004fe45a8af5b070d07a7d52482ee76ac0823225",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "37bf5f498de8917a408895d980473c21abe1942eb0ab809dc2cabfa33590d3d6",
        "decoded.sql": "37bf5f498de8917a408895d980473c21abe1942eb0ab809dc2cabfa33590d3d6",
        "plan.jsonl": "3bb5cd26fae261bcf9203866476a80ec33ef23b164346360c17d4bcd1c628742",
        "report.json": "cc500ad24618bae98ad85ed9c591af16c179d93e4fe1c040988a599739d8bfbd",
    },
    "run --no-schema-property": {
        "annotated.src": "63e98d679347841e8f492344898a33fa4b4b39d2f8c9e9768814a85e285ddaf1",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "ef610cb88a214c390d24b2bf054fbe346f683452687c3490da57c51658c9109b",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "run --no-database-structure": {
        "annotated.src": "059e944854028b535a8b76e8981967bb252f396393ab68b3e439911e721c5fce",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "ef610cb88a214c390d24b2bf054fbe346f683452687c3490da57c51658c9109b",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "run --no-discourse": {
        "annotated.src": "4c38cda1af5bb2f7c3b6d2e8004fe45a8af5b070d07a7d52482ee76ac0823225",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "ef610cb88a214c390d24b2bf054fbe346f683452687c3490da57c51658c9109b",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "run --no-completion": {
        "annotated.src": "205cb958799b714b344f8bfb37a598e115f74c3d8021c22a04882f2d7d1f1794",
        "annotated.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "completed.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "decoded.sql": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
        "plan.jsonl": "d8f81aee38a8697f34678cd4ca1c081384cea5fb8851a4e64bf6838b1428248e",
        "report.json": "a55f59bcb33404fcfbf4980ead058a440c2127e4fbb43b5520f6994949dc02fc",
    },
    "link --values": {
        "links.jsonl": "0956bf2c4f1b1addbba5beca118cfd942cee818c1e2028a4f4a867a9915938f6",
    },
    "annotate --values --prev-sql gold": {
        "train.src": "ad2fcd837e0544574fdffb8298fa2068d9cc6f784a04db99d5dcbcf41bb2c180",
        "train.tgt": "d7cdd734e13144de5306c6f9c3bbe27bd3f99ea65c342537d6c110f0dd698e05",
    },
    "complete": {
        "completed.sql": "2fb64d57237a51ff6e0358a311e7ed970aabfebf4e9cccb91b7d578402c94f08",
        "plan.jsonl": "e461f68853ee8caed0a58ea91712abf218e0574512fb579e17e7ff36bd086b64",
    },
    "link ring": {
        "links.jsonl": "370c0dbc6c734ff4f43741cf99f5585c55552d2f8cac9913204984d6ca14fe9f",
    },
    "complete ring": {
        "completed.sql": "f8ce632fc6475d59587971d1035a30e00a02aaa446c82775d7bddcea9c2abdbe",
        "plan.jsonl": "179a043ca15ab4bbc52e7ad2972a083d95b3f63ad18de96864985adc683492b9",
    },
    "evaluate": {
        "report.json": "827e172c4d231da8849cba7e12a2c19a941d17f4b4618f40436829b85a8c4713",
    },
}



@pytest.mark.parametrize("cell", list(EXPECTED))
def test_artifact_digests(cell, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(_args(cell, inputs, out)) == EXIT_OK, capsys.readouterr().err
    assert _digests(out) == EXPECTED[cell]
