"""Metamorphic relations: transforms of a snapshot that must leave the
pipeline's answers unchanged, or change them exactly as the paper's
definitions say (ROADMAP item 2).

Shuffling the data rows of a claims file leaves every artifact of
``fuse``, ``copydetect`` and ``compare`` byte-identical; only timings
(``timings.csv`` and ``report.json``'s ``wall_time_ms``) may differ.
Renaming the sources, or the objects, with a bijection that changes their
order leaves every artifact the same once its names are mapped back: names
only label claims, so no answer may depend on how they sort.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
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


# -- renames -------------------------------------------------------------------

# The columns of the artifacts that hold a source's or an object's name.
NAME_COLUMNS = {"source": {"source", "copier", "original", "added_source"},
                "object": {"object"}}
# The columns that key an artifact's rows (groups.csv rows of one size are
# told apart by rank), and the float columns compared within REL_TOL: sums
# over sources may add in another order, so they may differ in the last
# printed digit. Every other column must match exactly.
ROW_KEYS = {"selection.csv": ("object", "attribute"),
            "trust.csv": ("source", "attribute"),
            "convergence.csv": ("round",),
            "copy_pairs.csv": ("copier", "original"),
            "pairs.csv": ("copier", "original"),
            "groups.csv": ("remarks", "size"),
            "report.csv": ("method",), "report.json": ("method",),
            "curve.csv": ("method", "k"),
            "dominance.csv": ("method", "lo", "hi")}
APPROX = {"vote", "confidence", "trust", "max_trust_change", "probability",
          "trust_deviation", "trust_difference", "schema_sim", "object_sim",
          "value_sim", "avg_accuracy"}
REL_TOL = 1e-9
# A round's change is a difference of two trusts of order 1, so it carries
# their absolute rounding error, not a relative one.
ABS_TOL = {"max_trust_change": 1e-12}


def names(data: Path, kind: str) -> list[str]:
    """The snapshot's source names, or its object names (gold's too)."""
    if kind == "source":
        return sorted({r[0] for r in read_rows(data / "claims.csv")[1:]})
    return sorted({r[1] for r in read_rows(data / "claims.csv")[1:]}
                  | {r[0] for r in read_rows(data / "gold.csv")[1:]})


def renamed(data: Path, kind: str, new: dict[str, str], work: Path) -> None:
    """``data``'s snapshot with its sources or objects renamed by ``new``,
    written to ``work``."""
    claims = read_rows(data / "claims.csv")
    gold = read_rows(data / "gold.csv")
    at = {"source": 0, "object": 1}[kind]
    write_rows(work / "claims.csv", [claims[0], *(
        [new[v] if i == at else v for i, v in enumerate(r)]
        for r in claims[1:])])
    write_rows(work / "gold.csv", [gold[0], *(
        [new[r[0]], *r[1:]] if kind == "object" else r for r in gold[1:])])
    shutil.copy(data / "schema.csv", work / "schema.csv")


def tables(got: dict[str, bytes], kind: str, back: dict | None = None,
           ) -> dict[str, dict]:
    """Each artifact as a map from its row keys to its rows, with the
    ``kind`` names mapped through ``back``."""
    out = {}
    for name, body in got.items():
        if name.endswith(".json"):
            rows = [{k: "" if v is None else str(v) for k, v in r.items()}
                    for r in json.loads(body)]
        else:
            rows = list(csv.DictReader(io.StringIO(body.decode())))
        for row in rows:
            for col in NAME_COLUMNS[kind] & row.keys():
                row[col] = (back or {}).get(row[col], row[col])
        key = ROW_KEYS[name.split("/")[1]]
        keyed: dict[tuple, dict] = {}
        for row in sorted(rows, key=lambda r: [_rank(v) for v in r.values()]):
            k = tuple(row.get(c) for c in key)
            keyed[(*k, sum(o[:-1] == k for o in keyed))] = row
        out[name] = keyed
    return out


def _rank(text: str) -> tuple:
    try:
        return 0, float(f"{float(text):.6g}"), ""
    except ValueError:
        return 1, 0.0, text


def mismatches(got: dict[str, dict], want: dict[str, dict]) -> list:
    """(artifact, row key, column) of every field that differs."""
    bad = []
    for name in sorted(want.keys() | got.keys()):
        rows, ref = got.get(name, {}), want.get(name, {})
        if rows.keys() != ref.keys():
            bad.append((name, sorted(rows.keys() ^ ref.keys())[:3], None))
            continue
        for key, row in ref.items():
            bad += [(name, key, col) for col, v in row.items()
                    if not _same(col, rows[key].get(col), v)]
    return bad


def _same(col: str, a: str | None, b: str) -> bool:
    if col not in APPROX or a == b or not (a and b):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=REL_TOL,
                        abs_tol=ABS_TOL.get(col, 0.0))


def renamed_artifacts(base: Path, kind: str, order: list[int],
                      work: Path) -> dict[str, dict]:
    """The artifacts of ``base``'s snapshot with the i-th of its sorted
    ``kind`` names renamed to sort at ``order[i]``, names mapped back."""
    new = {name: f"n{k:04d}" for name, k in zip(names(base, kind), order)}
    renamed(base, kind, new, work)
    got = artifacts(work, work / "claims.csv", work / "out")
    return tables(got, kind, {n: name for name, n in new.items()})


@pytest.mark.parametrize("kind", ["source", "object"])
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_renames_change_no_answer(snapshot, tmp_path_factory, kind, data):
    """Every artifact of every operation matches, keyed by the names
    mapped back; copy groups follow from ``pairs.csv``, whose pairs match.

    ``curve.csv`` is left out. Under a source rename that is by definition:
    ``rank_sources`` orders sources of equal coverage x accuracy by name.
    Under an object rename it is a defect that
    ``test_object_rename_changes_no_curve_point`` pins. The examples are
    fixed (``derandomize``), so that a run cannot fail by chance."""
    base, _, want = snapshot
    order = data.draw(st.permutations(range(len(names(base, kind)))).filter(
        lambda p: p != sorted(p)))
    got = renamed_artifacts(base, kind, order,
                            tmp_path_factory.mktemp(f"renamed-{kind}"))
    want = tables(want, kind)
    for table in (got, want):
        table.pop("compare/curve.csv")
    assert mismatches(got, want) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Two sources of equal trust on an attribute tie in exact arithmetic, "
    "and rounding noise that follows object order picks the value "
    "(CHANGES.md FOUND): AccuSimAttr and AccuFormatAttr recall at k = 2."))
def test_object_rename_changes_no_curve_point(tmp_path):
    """Reversing the order of the generated snapshot's objects leaves the
    source-addition curve the same."""
    base = generated(tmp_path)
    want = tables(artifacts(base, base / "claims.csv", tmp_path / "base"),
                  "object")
    n = len(names(base, "object"))
    (tmp_path / "renamed").mkdir()
    got = renamed_artifacts(base, "object", list(range(n))[::-1],
                            tmp_path / "renamed")
    assert mismatches({"curve": got["compare/curve.csv"]},
                      {"curve": want["compare/curve.csv"]}) == []
