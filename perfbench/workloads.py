"""The benchmark's workloads: their inputs, the CLI operations each one
runs, and the output checks and precision scoring of every operation.

Every workload is a closed loop of CLI operations run one at a time in one
worker process; the shapes are sized so that one pass of a workload takes a
few seconds on a 2-core machine, and a run repeats the pass in fresh
workers. stock-snapshot and flight-compare run their operations once per
desk (see ``fixtures._write_desks``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import fixtures

COMPARE_METHODS = 16     # ``compare --methods all``: 14 methods + 2 Attr
FUSE_METHODS = ("Vote", "AccuPr", "AccuSim", "AccuFormat", "AccuFormatAttr",
                "AccuCopy")
# Artifacts whose bytes depend on the clock; they are left out of the
# repeat-determinism digest (``report.json`` is digested without its
# ``wall_time_ms`` field).
TIMING_ARTIFACTS = ("timings.csv",)


@dataclass
class Op:
    """One CLI invocation and what its outputs must satisfy."""

    name: str
    argv: list[str]                  # argv[0] is the subcommand
    out: Path
    snapshot: fixtures.Snapshot      # the one whose truth scores it
    expect_rows: dict[str, int] = field(default_factory=dict)
    expect_files: tuple[str, ...] = ()
    scores: str | None = None        # "selection", "dominant" or "report"


@dataclass
class Workload:
    name: str
    why: str
    fixture: fixtures.Fixture
    ops: list[Op]


WHY = {
    "stock-snapshot": "a few big engines per run: loading, bucketing, "
                      "similarity and format pairs, and copy detection do "
                      "the work",
    "flight-compare": "hundreds of small engines over source prefixes: "
                      "ClaimSet.restrict, trust sampling and fixed-point "
                      "rounds show; loading is negligible",
    "stock-series": "consistency profiling over three days: metrics and "
                    "normalize.tolerances dominate and no engine is built",
}
DEFAULT_SHAPES = {
    "stock-snapshot": fixtures.StockShape(n_sources=55, n_objects=12,
                                          n_desks=2),
    "flight-compare": fixtures.FlightShape(n_sources=15, n_objects=21,
                                           n_desks=3),
    "stock-series": fixtures.StockShape(n_sources=20, n_objects=18,
                                        n_days=3,
                                        copier_groups=((2, 3, 0.9),)),
}


def build(name: str, seed: int, work: Path, out: Path,
          shape=None) -> Workload:
    """Generate the workload's inputs under ``work`` and list its
    operations, each writing under ``out``."""
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(WHY)}")
    shape = shape or DEFAULT_SHAPES[name]
    if name == "flight-compare":
        fx = fixtures.generate_flight(seed, work, shape)
    else:
        fx = fixtures.generate_stock(seed, work, shape)
    n = fx.n_sources
    ops: list[Op] = []
    desks = list(enumerate(fx.snapshots, 1))
    if name == "stock-snapshot":
        for k, snap in desks:
            base = ["--claims", str(snap.claims_path),
                    "--schema", str(fx.schema_path)]
            for method in FUSE_METHODS:
                d = out / f"fuse-{method}-{k}"
                files = ("trust.csv", "convergence.csv")
                if method == "AccuCopy":
                    files += ("copy_pairs.csv",)
                ops.append(Op(f"fuse-{method}-{k}",
                              ["fuse", *base, "--method", method, "--out",
                               str(d)],
                              d, snap, {"selection.csv": snap.n_items},
                              files, "selection"))
            d = out / f"copydetect-{k}"
            m = snap.n_sources
            ops.append(Op(f"copydetect-{k}",
                          ["copydetect", *base, "--gold",
                           str(snap.gold_path), "--out", str(d)],
                          d, snap, {"pairs.csv": m * (m - 1)},
                          ("groups.csv",)))
    elif name == "flight-compare":
        for k, snap in desks:
            d = out / f"compare-{k}"
            ops.append(Op(f"compare-{k}",
                          ["compare", "--claims", str(snap.claims_path),
                           "--schema", str(fx.schema_path), "--gold",
                           str(snap.gold_path), "--methods", "all",
                           "--out", str(d)],
                          d, snap,
                          {"curve.csv": COMPARE_METHODS * snap.n_sources,
                           "report.csv": COMPARE_METHODS},
                          ("report.json", "dominance.csv", "timings.csv"),
                          "report"))
    else:
        snap = fx.snapshots[0]
        d = out / "profile"
        days = len(fx.snapshots)
        extra = []
        for s in fx.snapshots[1:]:
            extra += ["--snapshot", f"{s.claims_path}:{s.gold_path}"]
        ops.append(Op("profile",
                      ["profile", "--claims", str(snap.claims_path),
                       "--schema", str(fx.schema_path), "--gold",
                       str(snap.gold_path), *extra, "--out", str(d)],
                      d, snap, {"items.csv": snap.n_items, "sources.csv": n,
                                "accuracy_over_time.csv": n * days},
                      ("attributes.csv", "conflicts.csv",
                       "hist_num_values.csv", "hist_entropy.csv"),
                      "dominant"))
    return Workload(name, WHY[name], fx, ops)


def setup_inputs(wl: Workload) -> dict:
    """The files the worker loads through ``dataio`` during set-up."""
    return {
        "schema": str(wl.fixture.schema_path),
        "snapshots": [[str(s.claims_path), str(s.gold_path)]
                      for s in wl.fixture.snapshots],
    }


# -- output checks ----------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check(op: Op) -> list[str]:
    """Problems with the artifacts of one finished operation."""
    problems = []
    for fname in (*op.expect_rows, *op.expect_files):
        if not (op.out / fname).is_file():
            problems.append(f"{op.name}: missing {fname}")
    for fname, expected in op.expect_rows.items():
        path = op.out / fname
        if path.is_file():
            got = len(_rows(path)) - 1
            if got != expected:
                problems.append(f"{op.name}: {fname} has {got} rows, "
                                f"expected {expected}")
    if op.scores == "report" and (op.out / "report.json").is_file():
        got = len(json.loads((op.out / "report.json").read_text("utf-8")))
        if got != COMPARE_METHODS:
            problems.append(f"{op.name}: report.json has {got} methods")
    return problems


def digest(op: Op) -> str:
    """Hash of every deterministic artifact of an operation."""
    h = hashlib.sha256()
    for path in sorted(op.out.iterdir()):
        if path.name in TIMING_ARTIFACTS:
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            for r in report:
                r.pop("wall_time_ms", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# -- precision --------------------------------------------------------------


def _matches(got: str, truth, kind: str, tol: float) -> bool:
    if kind == "Text":
        return got.strip().casefold() == str(truth).casefold()
    if kind == "TimeOfDay":
        hours, minutes = got.strip().split(":")
        m = int(hours) * 60 + int(minutes)    # "-1:55" is 5 min before 0:00
        gap = abs(m - truth) % 1440
        return min(gap, 1440 - gap) <= tol
    return abs(float(got) - truth) <= tol * (1.0 + 1e-9)


def precision(op: Op, fx: fixtures.Fixture) -> float | None:
    """Share of the operation's chosen values that match the truth.

    Fused selections and profile dominants are scored by the benchmark
    against the generated truth, with the paper's tolerance (alpha times
    the absolute median for numbers, minutes on the circular clock for
    times). ``compare`` is scored by its own report: the mean precision
    over the methods it ran.
    """
    if op.scores == "report":
        report = json.loads((op.out / "report.json").read_text("utf-8"))
        return sum(r["precision"] for r in report) / len(report)
    if op.scores is None:
        return None
    fname, col = (("selection.csv", "value") if op.scores == "selection"
                  else ("items.csv", "dominant"))
    rows = _rows(op.out / fname)
    header = rows[0]
    oi, ai, vi = (header.index("object"), header.index("attribute"),
                  header.index(col))
    truth = op.snapshot.truth
    hits = total = 0
    for row in rows[1:]:
        key = (row[oi], row[ai])
        if key not in truth:
            continue
        total += 1
        attr = row[ai]
        hits += _matches(row[vi], truth[key], fx.kinds[attr],
                         fx.score_tolerance[attr])
    return hits / total if total else 0.0
