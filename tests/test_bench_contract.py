"""What ``perfbench``'s tracer reads off the program, kept working: it keys
snapshots weakly and counts their claims with ``len``, reads the snapshot
``tolerances`` gets as its first argument, reads an engine's sizes right
after ``FusionEngine.__init__`` returns, and finds every entry point it
names."""

from __future__ import annotations

import ast
import functools
import gc
import importlib
import inspect
import weakref
from pathlib import Path

import numpy as np

from truthfuse.config import load_config
from truthfuse.fusion import FusionEngine
from truthfuse.model import ClaimSet
from truthfuse.normalize import tolerances

from conftest import synthetic_snapshot


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


def test_on_demand_fields_are_cached_properties():
    """Built on first use, and assignable by a subclass."""
    for name in ("claims", "by_item", "by_source"):
        assert isinstance(ClaimSet.__dict__[name], functools.cached_property)


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


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Deleted with the AccuCopy loop, which became a fusion rule; the tracer
# still names it (ROADMAP item 3).
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
