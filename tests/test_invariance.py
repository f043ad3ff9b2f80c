"""Metamorphic relations: transforms of a snapshot that must leave the
pipeline's answers unchanged, or change them exactly as the paper's
definitions say (ROADMAP item 2).

Shuffling the data rows of a claims file leaves every artifact of
``fuse``, ``copydetect`` and ``compare`` byte-identical; only timings
(``timings.csv`` and ``report.json``'s ``wall_time_ms``) may differ.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from truthfuse import cli, dataio
from truthfuse.config import load_config
from truthfuse.fusion import engine_for

from conftest import edge_snapshot

SPEC = {
    "label": "invariance",
    "n_sources": 6,
    "n_items": 30,
    "false_pool": 4,
    "attributes": [
        {"name": "price", "kind": "Number", "tolerance_param": 0.01},
        {"name": "depart", "kind": "TimeOfDay", "tolerance_param": 10},
        {"name": "gate", "kind": "Text"},
    ],
    "accuracies": [0.95, 0.9, 0.8, 0.7, 0.6, 0.6],
    "coverage": [1.0, 0.9, 0.8, 0.8, 0.7, 0.7],
    "copier_groups": [{"members": ["s06"], "original": "s05", "rate": 0.9}],
}
OPS = {
    "fuse-Vote": ["fuse", "--method", "Vote"],
    "fuse-AccuFormatAttr": ["fuse", "--method", "AccuFormatAttr"],
    "fuse-AccuCopy": ["fuse", "--method", "AccuCopy"],
    "copydetect": ["copydetect", "--gold", "{gold}"],
    "compare": ["compare", "--gold", "{gold}", "--methods", "all"],
}


def generated(base: Path) -> Path:
    """The CLI's synthetic snapshot, every third price respelled to the
    hundreds so that AccuFormat has coarse values to credit."""
    base.joinpath("spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--spec", str(base / "spec.json"),
                         "--seed", "4", "--out", str(base)]) == 0
    header, *rows = read_rows(base / "claims.csv")
    prices = [r for r in rows if r[2] == "price"]
    for row in prices[::3]:
        row[3] = f"{round(float(row[3]), -2):.0f}"
    write_rows(base / "claims.csv", [header, *rows])
    return base


def edge(base: Path) -> Path:
    """``conftest.edge_snapshot`` as files: a negative tolerance, times
    around midnight, gates differing in case, gold items without claims."""
    claims, gold = edge_snapshot()
    dataio.write_schema(claims.schema, base / "schema.csv")
    dataio.write_claims(claims, base / "claims.csv")
    dataio.write_gold(gold, base / "gold.csv")
    return base


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def artifacts(data: Path, claims: Path, out: Path) -> dict[str, bytes]:
    """Every artifact of every operation on ``claims``, timings left out."""
    got = {}
    for name, argv in OPS.items():
        argv = [a.format(gold=data / "gold.csv") for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--claims", str(claims), "--schema",
                             str(data / "schema.csv"),
                             "--out", str(out / name)]) == 0
        for path in sorted((out / name).iterdir()):
            if path.name == "timings.csv":
                continue
            body = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(body)
                for r in report:
                    del r["wall_time_ms"]
                body = json.dumps(report).encode()
            got[f"{name}/{path.name}"] = body
    return got


@pytest.fixture(scope="module", params=["generated", "edge"])
def snapshot(request, tmp_path_factory):
    """(input directory, its claims rows, the artifacts of the unshuffled
    file) for each input."""
    data = {"generated": generated, "edge": edge}[request.param](
        tmp_path_factory.mktemp(request.param))
    rows = read_rows(data / "claims.csv")
    return data, rows, artifacts(data, data / "claims.csv",
                                 tmp_path_factory.mktemp("base"))


def test_inputs_have_format_pairs(snapshot):
    """The relation covers AccuFormat's credit to subsumed values."""
    data, _, _ = snapshot
    schema = dataio.load_schema(data / "schema.csv")
    claims = dataio.load_claims(data / "claims.csv", schema)
    assert engine_for(claims, load_config().fusion).fmt_claim.size > 0


# Without shrinking: a smaller failing permutation tells no more than the
# files it changes, and each example runs every operation.
@settings(max_examples=8, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_shuffled_claim_rows_change_no_artifact(snapshot, tmp_path_factory,
                                                data):
    base, (header, *rows), want = snapshot
    shuffled = data.draw(st.permutations(rows))
    work = tmp_path_factory.mktemp("shuffled")
    write_rows(work / "claims.csv", [header, *shuffled])
    got = artifacts(base, work / "claims.csv", work)
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []
