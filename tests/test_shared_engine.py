"""Shared fusion engines: runs only read an engine, so one engine per
snapshot (and its per-attribute view) gives every method the answers a
fresh engine would, and an engine built over other inputs is refused."""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from truthfuse.config import FusionConfig, load_config
from truthfuse.evalharness import timed_run
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    _RULES,
    engine_for,
    method_labels,
    run_fusion,
    sample_trust,
)
from truthfuse.model import ClaimSet

from conftest import copier_snapshot

CFG = load_config()

# The methods of ``compare --methods all``.
COMPARE_METHODS = ([MethodSpec.parse(m) for m in method_labels()]
                   + [MethodSpec.parse("AccuSimAttr"),
                      MethodSpec.parse("AccuFormatAttr")])


@pytest.fixture(scope="module")
def snapshot():
    return copier_snapshot()


def test_fixture_exercises_similarity_format_and_copying(snapshot):
    claims, _ = snapshot
    engine = FusionEngine(claims, CFG.fusion)
    assert engine.sim_i.size > 0
    assert engine.fmt_claim.size > 0
    prob = run_fusion(MethodSpec("accucopy"), claims, CFG).copy_matrix.prob
    assert max(prob[("s7", "s6")], prob[("s6", "s7")]) > 0.5


def _arrays(engine: FusionEngine) -> dict[str, np.ndarray]:
    return {name: value.copy() for name, value in vars(engine).items()
            if isinstance(value, np.ndarray)}


def test_runs_leave_shared_engine_arrays_unchanged(snapshot):
    claims, gold = snapshot
    shared = engine_for(claims, CFG.fusion, False)
    engines = {flag: shared.scoped(flag) for flag in (False, True)}
    before = {flag: _arrays(e) for flag, e in engines.items()}
    for m in COMPARE_METHODS:
        # the default run and the input-trust re-run, AccuCopy included
        timed_run(m, claims, CFG, gold, engine=shared)
    for flag, engine in engines.items():
        after = _arrays(engine)
        assert after.keys() == before[flag].keys()
        for name, arr in before[flag].items():
            assert np.array_equal(after[name], arr), name


# The fields a per-attribute view re-codes; it shares every other one.
RECODED = {"per_attribute", "vsrc_list", "vsrc_source", "vsrc_attr",
           "claim_vsrc", "n_vsrc", "vsrc_segs", "src_nvals"}


def test_per_attribute_view_is_built_once(snapshot):
    claims, _ = snapshot
    engine = engine_for(claims, CFG.fusion, False)
    view = engine_for(claims, CFG.fusion, True, engine)
    assert view is not engine and view.per_attribute
    assert engine_for(claims, CFG.fusion, True, engine) is view
    assert engine.scoped(True) is view and view.scoped(True) is view
    assert engine_for(claims, CFG.fusion, False, engine) is engine


def test_per_attribute_view_shares_all_but_the_virtual_sources(snapshot):
    claims, _ = snapshot
    engine = engine_for(claims, CFG.fusion, False)
    view = engine.scoped(True)
    mine, shared = vars(view), vars(engine)
    assert mine.keys() - {"per_attribute"} == shared.keys() - {"_attr_view"}
    assert mine.keys() >= RECODED and view.per_attribute
    for name, value in shared.items():
        if name in RECODED:
            assert mine.get(name) is not value, name
        elif name != "_attr_view":
            assert mine[name] is value, name
    assert view.n_vsrc > engine.n_vsrc


def test_per_attribute_view_keeps_no_cycle(snapshot):
    """The engine references its view, not the other way round, so both
    are freed without the cyclic collector."""
    claims, _ = snapshot
    gc.collect()
    gc.disable()
    try:
        engine = engine_for(claims, CFG.fusion, False)
        view = engine.scoped(True)
        alive = weakref.ref(engine), weakref.ref(view)
        del engine, view
        assert [r() for r in alive] == [None, None]
    finally:
        gc.enable()


def test_per_attribute_view_refuses_a_global_run(snapshot):
    claims, _ = snapshot
    view = engine_for(claims, CFG.fusion, True)
    with pytest.raises(FusionError, match="per_attribute"):
        engine_for(claims, CFG.fusion, False, view)
    with pytest.raises(FusionError, match="per_attribute"):
        view.scoped(False)


def test_vote_state_does_not_alias_engine_counts(snapshot):
    engine = FusionEngine(snapshot[0], CFG.fusion)
    state = _RULES["vote"].start(engine, CFG)
    assert not np.shares_memory(state.votes, engine.cand_counts)


def _outcome(result):
    return (result.selected, result.trust, result.rounds_used,
            result.trust_deltas,
            None if result.copy_matrix is None else result.copy_matrix.prob)


def test_shared_engine_matches_fresh_engine(snapshot):
    claims, gold = snapshot
    engine = engine_for(claims, CFG.fusion, False)
    methods = list(COMPARE_METHODS)
    random.Random(3).shuffle(methods)
    for m in methods:
        fresh = run_fusion(m, claims, CFG)
        shared = run_fusion(m, claims, CFG, engine=engine)
        assert _outcome(shared) == _outcome(fresh), m.label()
        if m.name == "vote":
            continue
        sampled = sample_trust(m, claims, gold, CFG)
        fresh = run_fusion(m, claims, CFG, input_trust=sampled)
        shared = run_fusion(m, claims, CFG, input_trust=sampled,
                            engine=engine)
        assert _outcome(shared) == _outcome(fresh), m.label()


def _mismatched_engine(kind: str, claims: ClaimSet) -> FusionEngine:
    if kind == "claims":
        # equal content is not enough: the engine must index these claims
        return FusionEngine(ClaimSet(claims.snapshot_label, claims.schema,
                                     claims.claims), CFG.fusion)
    if kind == "per_attribute":
        return engine_for(claims, CFG.fusion, True)
    return FusionEngine(claims, FusionConfig(rho=0.25))


@pytest.mark.parametrize("method", ["AccuPr", "Vote", "AccuCopy"])
@pytest.mark.parametrize("kind, message", [
    ("claims", "different claim set"),
    ("per_attribute", "per_attribute"),
    ("config", "different fusion config"),
])
def test_mismatched_engine_rejected(snapshot, method, kind, message):
    claims, gold = snapshot
    engine = _mismatched_engine(kind, claims)
    m = MethodSpec.parse(method)
    with pytest.raises(FusionError, match=message):
        run_fusion(m, claims, CFG, engine=engine)
    with pytest.raises(FusionError, match=message):
        timed_run(m, claims, CFG, gold, engine=engine)

