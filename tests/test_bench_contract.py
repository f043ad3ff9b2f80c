"""What ``perfbench``'s tracer reads off the program, kept working: it keys
snapshots weakly and counts their claims with ``len``, reads the snapshot
``tolerances`` gets as its first argument, reads an engine's sizes right
after ``FusionEngine.__init__`` returns, counts the curve's points with
``len``, patches module attributes that ``compare`` calls through, and
finds every entry point it names."""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import weakref
from pathlib import Path

import numpy as np

from truthfuse import cli, dataio, evalharness
from truthfuse.config import load_config
from truthfuse.evalharness import CurvePoint, incremental_curve
from truthfuse.fusion import FusionEngine, MethodSpec, engine_for
from truthfuse.model import ClaimSet
from truthfuse.normalize import tolerances

from conftest import claim_set, claims_of, copier_snapshot, synthetic_snapshot


def test_claimset_is_weakly_referenceable_and_sized():
    claims, _ = synthetic_snapshot()
    ref = weakref.ref(claims)
    keyed = weakref.WeakKeyDictionary({claims: 1})
    assert ref() is claims and keyed[claims] == 1
    sub = claims.restrict(claims.sources[:3])
    assert len(claims) == len(claims.claim_source) > len(sub) > 0
    del claims, sub
    gc.collect()
    assert ref() is None and not keyed


def test_tolerances_takes_the_snapshot_first():
    claims, _ = synthetic_snapshot()
    first = next(iter(inspect.signature(tolerances).parameters))
    assert first == "claims"
    assert tolerances(claims) == tolerances(claims=claims)


def test_engine_fields_are_set_by_its_constructor():
    claims, _ = synthetic_snapshot()
    eng = FusionEngine(claims, load_config().fusion)
    assert {"claims", "n_cands", "sim_i", "fmt_claim"} <= vars(eng).keys()
    assert eng.claims is claims and eng.per_attribute is False
    assert eng.n_cands == len(eng.cand_values) > 0
    assert isinstance(eng.sim_i, np.ndarray) and eng.sim_i.size > 0
    assert isinstance(eng.fmt_claim, np.ndarray)


def stock_like_snapshot() -> ClaimSet:
    """Numbers only, as Stock is: the copier snapshot's prices, whose false
    values are near misses and coarse spellings of the truth."""
    claims, _ = copier_snapshot()
    return claim_set("stock", {"price": claims.schema["price"]},
                     [c for c in claims_of(claims)
                      if c.item.attribute == "price"])


def test_a_stock_like_engine_has_its_pairs_when_built(monkeypatch):
    """The tracer reads similarity and format pairs as soon as
    ``__init__`` returns, and flags stock-snapshot when both sums are 0."""
    seen = []
    real = FusionEngine.__init__

    def traced(self, *args, **kwargs):
        real(self, *args, **kwargs)
        seen.append((vars(self).keys() >= {"n_cands", "sim_i", "fmt_claim"},
                     self.n_cands, len(self.sim_i), len(self.fmt_claim)))

    monkeypatch.setattr(FusionEngine, "__init__", traced)
    engine_for(stock_like_snapshot(), load_config().fusion)
    (own, n_cands, sim_pairs, format_pairs), = seen
    assert own and n_cands > 0 and sim_pairs > 0 and format_pairs > 0


def test_curve_returns_one_point_per_method_and_prefix():
    claims, gold = copier_snapshot()
    methods = [MethodSpec("vote"), MethodSpec("accupr", True)]
    points = incremental_curve(methods, claims, gold, load_config())
    n = len(claims.sources)
    assert all(isinstance(p, CurvePoint) for p in points)
    assert [(p.method, p.k) for p in points] == [
        (m.label(), k) for m in methods for k in range(1, n + 1)]


def test_compare_calls_the_harness_through_its_module(monkeypatch,
                                                      tmp_path):
    """A patched ``evalharness`` attribute, as the tracer installs, sees
    every call ``compare`` makes to the curve and to the reports."""
    claims, gold = copier_snapshot()
    dataio.write_schema(claims.schema, tmp_path / "schema.csv")
    dataio.write_claims(claims, tmp_path / "claims.csv")
    dataio.write_gold(gold, tmp_path / "gold.csv")
    calls: list[str] = []
    for name in ("incremental_curve", "timed_run"):
        def counted(*args, _real=getattr(evalharness, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(evalharness, name, counted)
    assert cli.main(["compare", "--claims", str(tmp_path / "claims.csv"),
                     "--schema", str(tmp_path / "schema.csv"),
                     "--gold", str(tmp_path / "gold.csv"),
                     "--methods", "Vote,AccuPr,AccuCopy",
                     "--out", str(tmp_path / "c")]) == 0
    assert calls == ["incremental_curve"] + ["timed_run"] * 3


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Deleted with the AccuCopy loop, which became a fusion rule; the tracer
# still names it (ROADMAP item 4).
STALE_ENTRY_POINTS = {"copydetect.run_accucopy"}


def traced_entry_points() -> list[tuple[str, str]]:
    """The tracer's ``ENTRY_POINTS``, read from its source unimported."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "ENTRY_POINTS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py names no ENTRY_POINTS")


def test_every_traced_entry_point_resolves():
    """Looked up as the tracer does, a method in its class ``__dict__``:
    a rename in ``src/`` would zero a traced metric without a word."""
    entries = traced_entry_points()
    missing = set()
    for module, attr in entries:
        home = importlib.import_module(f"truthfuse.{module}")
        if "." in attr:
            cls, meth = attr.split(".")
            found = getattr(home, cls, object).__dict__.get(meth)
        else:
            found = getattr(home, attr, None)
        if found is None:
            missing.add(f"{module}.{attr}")
    assert len(entries) > 30 and missing == STALE_ENTRY_POINTS, missing
