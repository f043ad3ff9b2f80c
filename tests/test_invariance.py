"""Metamorphic relations: transforms of a snapshot that must leave the
pipeline's answers unchanged, or change them exactly as the paper's
definitions say (ROADMAP item 2).

Shuffling the data rows of a claims file leaves every artifact of
``fuse``, ``copydetect`` and ``compare`` byte-identical; only timings
(``timings.csv`` and ``report.json``'s ``wall_time_ms``) may differ.
Renaming the sources, or the objects, with a bijection that changes their
order leaves every artifact the same once its names are mapped back: names
only label claims, so no answer may depend on how they sort. Multiplying
every number by 10 or by 0.1 scales each tolerance, similarity span and
spelling's granularity alike, so it too leaves every answer the same once
the selected numbers are scaled back.
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


def mismatches(got: dict[str, dict], want: dict[str, dict],
               approx=APPROX) -> list:
    """(artifact, row key, column) of every field that differs, the
    ``approx`` columns by more than the tolerances."""
    bad = []
    for name in sorted(want.keys() | got.keys()):
        rows, ref = got.get(name, {}), want.get(name, {})
        if rows.keys() != ref.keys():
            bad.append((name, sorted(rows.keys() ^ ref.keys())[:3], None))
            continue
        for key, row in ref.items():
            bad += [(name, key, col) for col, v in row.items()
                    if not _same(col, rows[key].get(col), v, approx)]
    return bad


def _same(col: str, a: str | None, b: str, approx=APPROX) -> bool:
    if col not in approx or a == b or not (a and b):
        return a == b
    try:
        x, y = float(a), float(b)
    except ValueError:  # text in a column of selected values
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL.get(col, 0.0))


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


# -- scale ---------------------------------------------------------------------

# The columns scored against a truth (gold, or copy detection's truth
# estimate) by the distance rule. A bucket whose centre lies exactly one
# width from the truth matches it or not by rounding noise, and scaling
# moves that noise (CHANGES.md FOUND); ``test_scaling_moves_no_truth_score``
# pins it.
TRUTH_SCORED = {"compare/report.csv": {"precision", "recall",
                                       "precision_with_trust",
                                       "trust_deviation", "trust_difference"},
                "compare/dominance.csv": {"precision"},
                "compare/curve.csv": {"recall"},
                "copydetect/pairs.csv": {"probability"}}
TRUTH_SCORED["compare/report.json"] = TRUTH_SCORED["compare/report.csv"]


def rescaled(text: str, factor) -> str:
    """A plain decimal spelling times ``factor`` (10, 0.1 or -1), spelled so
    that the granularity it implies scales too: the decimal point moves, or
    an integer's last insignificant zero goes (1094.31 -> 10943.1 or
    109.431; 1100 -> 11000 or 110)."""
    sign, text = ("-", text[1:]) if text.startswith("-") else ("", text)
    if factor == -1:
        return text if sign else "-" + text
    whole, _, frac = text.partition(".")
    if factor == 10:
        whole, frac = whole + (frac[:1] or "0"), frac[1:]
    elif frac or not whole.endswith("0"):
        whole, frac = whole[:-1], whole[-1] + frac
    else:
        whole = whole[:-1]
    return sign + (whole.lstrip("0") or "0") + ("." + frac if frac else "")


def number_attributes(data: Path) -> set[str]:
    return {r[0] for r in read_rows(data / "schema.csv") if r[1] == "Number"}


def scaled_artifacts(base: Path, factor, work: Path) -> dict[str, dict]:
    """The artifacts of ``base``'s snapshot with every number of its claims
    and gold ``rescaled`` by ``factor``, the selected numbers scaled back."""
    numbers = number_attributes(base)
    claims = read_rows(base / "claims.csv")
    gold = read_rows(base / "gold.csv")
    write_rows(work / "claims.csv", [claims[0], *(
        [*r[:3], rescaled(r[3], factor) if r[2] in numbers else r[3]]
        for r in claims[1:])])
    write_rows(work / "gold.csv", [gold[0], *(
        [*r[:2], rescaled(r[2], factor) if r[1] in numbers else r[2]]
        for r in gold[1:])])
    shutil.copy(base / "schema.csv", work / "schema.csv")
    got = tables(artifacts(work, work / "claims.csv", work / "out"), "source")
    for rows in got.values():
        for row in rows.values():
            if row.get("attribute") in numbers and "value" in row:
                row["value"] = repr(float(row["value"]) / factor)
    return got


def split(table: dict[str, dict], columns: dict[str, set]):
    """``table`` without, and with only, the ``columns`` of each artifact
    (and its row keys)."""
    keep, only = {}, {}
    for name, rows in table.items():
        cols = columns.get(name, set())
        keep[name] = {k: {c: v for c, v in r.items() if c not in cols}
                      for k, r in rows.items()}
        only[name] = {k: {c: v for c, v in r.items() if c in cols}
                      for k, r in rows.items()}
    return keep, only


@pytest.mark.parametrize("snapshot, factor", [
    ("generated", 10), ("generated", 0.1), ("edge", 0.1),
    pytest.param("generated", -1, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 1: tau = alpha * median is negative on negated "
            "numbers, so no value matches even itself. With alpha * "
            "|median| the ties still go by value order (the smallest value "
            "wins, bucket anchors, halfway rounding), which negation "
            "reverses (CHANGES.md FOUND)")))],
    indirect=["snapshot"])
def test_scaling_numbers_changes_no_answer(snapshot, tmp_path, factor):
    """Selections (scaled back), votes, confidence, trust, rounds, ties,
    copy pairs and groups of every operation match, but for the columns
    scored against a truth (``TRUTH_SCORED``). Values are compared within
    ``REL_TOL``, as other sums over sources.

    The edge snapshot is not scaled by 10: "1000.0" has no decimal spelling
    of ten times its value at granularity 1 ("10000" reads as granularity
    10000 and "10000." as unknown), so its format pairs would change."""
    base, _, want = snapshot
    got = split(scaled_artifacts(base, factor, tmp_path), TRUTH_SCORED)[0]
    want = split(tables(want, "source"), TRUTH_SCORED)[0]
    assert mismatches(got, want, APPROX | {"value"}) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "A bucket whose centre lies exactly one width from the truth matches "
    "it or not by rounding noise, which scaling moves (CHANGES.md FOUND)."))
@pytest.mark.parametrize("snapshot", ["generated"], indirect=True)
def test_scaling_moves_no_truth_score(snapshot, tmp_path):
    """Scaling the generated snapshot's prices by 10 leaves every score
    against gold and every copy probability the same."""
    base, _, want = snapshot
    got = split(scaled_artifacts(base, 10, tmp_path), TRUTH_SCORED)[1]
    want = split(tables(want, "source"), TRUTH_SCORED)[1]
    assert mismatches(got, want) == []
