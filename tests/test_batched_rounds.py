"""The fixed-point loop over stacked engines (``fuse_segments`` on
``FusionEngine.stack``) against the per-engine loop it replaced: every
segment's result equals a run of its own engine alone, bit for bit."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from truthfuse import evalharness
from truthfuse.config import FusionConfig
from truthfuse.evalharness import (
    _batches,
    incremental_curve,
    rank_sources,
)
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    _RULES,
    _Segments,
    fuse_segments,
)

from conftest import make_claims
from test_shared_engine import CFG, COMPARE_METHODS, copier_snapshot

BATCHED = [m for m in COMPARE_METHODS if m.name != "accucopy"]


class RefEngine(FusionEngine):
    """An engine with the whole-engine reductions of the per-engine loop:
    one max, one affine rescale and one scalar change per round."""

    @staticmethod
    def _norm_max(x, segs):
        m = float(np.max(np.abs(x))) if x.size else 0.0
        return x / m if m > 0 else x

    @staticmethod
    def _rescale01(x, segs):
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi <= lo:
            return np.clip(x, 0.0, 1.0)
        return (x - lo) / (hi - lo)

    def _state_delta(self, old, new):
        delta = float(np.max(np.abs(new.trust - old.trust)))
        return max(delta, float(np.max(np.abs(new.votes - old.votes))))


def ref_run_fusion(method: MethodSpec, engine: RefEngine):
    """The per-engine round loop ``run_fusion`` ran before the batched one."""
    cfg = engine.cfg
    if method.name == "vote":
        votes = engine.cand_counts.copy()
        conf = votes / engine.item_nprov[engine.cand_item]
        return engine.build_result(method, votes, np.ones(engine.n_vsrc),
                                   rounds=0, converged=True, wall_time=0.0,
                                   deltas=[], confidence=conf)
    state = _RULES[method.name].start(engine, CFG)
    deltas: list[float] = []
    converged = False
    while state.round < cfg.round_cap:
        state, delta = engine.step(method.name, state)
        deltas.append(delta)
        if delta < cfg.epsilon:
            converged = True
            break
    conf = None
    if method.name in ("truthfinder", "accupr", "popaccu", "accusim",
                       "accuformat"):
        conf = engine.posteriors(state.votes,
                                 observed_only=method.name == "popaccu")
    return engine.build_result(method, state.votes, state.trust,
                               rounds=state.round, converged=converged,
                               wall_time=0.0, deltas=deltas,
                               confidence=conf)


def outcome(result):
    return (result.selected, result.selected_vote, result.confidence,
            result.trust, result.rounds_used, result.converged,
            result.trust_deltas)


def batched(method: MethodSpec, parts) -> list:
    """``fuse_segments`` over the stack of ``parts``; a RuntimeWarning
    (numpy's divide, overflow or invalid value) fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fuse_segments(method, FusionEngine.stack(parts), CFG)


@pytest.fixture(scope="module")
def prefixes():
    """Each source prefix of the copier snapshot, best source first: its
    engine and a reference engine over the same claims, each scoped by
    per-attribute flag."""
    claims, gold = copier_snapshot()
    ranked = rank_sources(claims, gold)
    out = []
    for k in range(1, len(ranked) + 1):
        sub = claims.restrict(ranked[:k])
        engine, ref = FusionEngine(sub, CFG.fusion), RefEngine(sub, CFG.fusion)
        out.append(({flag: engine.scoped(flag) for flag in (False, True)},
                    {flag: ref.scoped(flag) for flag in (False, True)}))
    return out


@pytest.fixture(scope="module")
def reference(prefixes):
    return {m: [ref_run_fusion(m, refs[m.per_attribute_trust])
                for _, refs in prefixes] for m in BATCHED}


def test_fixture_shape(prefixes, reference):
    engines, refs = prefixes[0]
    assert len(engines[False].claims.sources) == 1
    assert type(refs[True]) is RefEngine and refs[True].per_attribute
    rounds = {m: [r.rounds_used for r in rs] for m, rs in reference.items()}
    # segments converge at different rounds, and some hit the round cap
    assert all(len(set(r)) > 1 for m, r in rounds.items()
               if m.name != "vote")
    capped = [m for m, rs in reference.items()
              if any(not r.converged for r in rs)]
    assert capped and all(r.rounds_used == CFG.fusion.round_cap
                          for m in capped for r in reference[m]
                          if not r.converged)


@pytest.mark.parametrize("method", BATCHED, ids=MethodSpec.label)
def test_batched_equals_per_engine_loop(prefixes, reference, method):
    parts = [engines[method.per_attribute_trust] for engines, _ in prefixes]
    got = batched(method, parts)
    assert len(got) == len(parts)
    for k, (g, want) in enumerate(zip(got, reference[method]), start=1):
        assert outcome(g) == outcome(want), (method.label(), k)


def test_plain_engine_is_one_segment(prefixes, reference):
    engines, _ = prefixes[-1]
    for m in BATCHED:
        got, = fuse_segments(m, engines[m.per_attribute_trust], CFG)
        assert outcome(got) == outcome(reference[m][-1]), m.label()


@pytest.mark.parametrize("method", ["Invest", "Cosine", "3-Estimates",
                                    "AccuFormatAttr"])
def test_segment_results_do_not_depend_on_the_batch(prefixes, reference,
                                                    method):
    m = MethodSpec.parse(method)
    parts = [engines[m.per_attribute_trust] for engines, _ in prefixes]
    want = [outcome(r) for r in reference[m]]
    other = FusionEngine(make_claims([
        ("a", "o1", "price", 1.0), ("b", "o1", "price", 3.0),
        ("a", "o2", "gate", "x"), ("c", "o2", "gate", "y")]), CFG.fusion
    ).scoped(m.per_attribute_trust)
    batches = {
        "reversed": list(range(len(parts)))[::-1],
        "every other": list(range(0, len(parts), 2)),
        "alone": [3],
    }
    for name, order in batches.items():
        got = batched(m, [parts[k] for k in order])
        assert [outcome(r) for r in got] == [want[k] for k in order], name
    got = batched(m, [other, *parts[:2], other])
    assert [outcome(r) for r in got[1:3]] == want[:2]
    assert outcome(got[0]) == outcome(got[3])


def test_segment_reductions_at_their_edge_cases(prefixes):
    """An all-zero ``_norm_max`` segment and an all-equal ``_rescale01``
    segment between ordinary ones reduce as they would alone."""
    parts = [prefixes[k][0][False] for k in (0, 4, 8)]
    stacked = FusionEngine.stack(parts)
    rng = np.random.default_rng(0)
    for segs, sizes in ((stacked.vsrc_segs, [p.n_vsrc for p in parts]),
                        (stacked.cand_segs, [p.n_cands for p in parts])):
        pieces = [np.zeros(sizes[0]), rng.normal(size=sizes[1]),
                  np.full(sizes[2], 1.7)]
        x = np.concatenate(pieces)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm = FusionEngine._norm_max(x, segs)
            unit = FusionEngine._rescale01(x, segs)
        want_norm = [RefEngine._norm_max(p, None) for p in pieces]
        want_unit = [RefEngine._rescale01(p, None) for p in pieces]
        for s, wn, wu in zip(segs.slices(), want_norm, want_unit):
            assert norm[s].tolist() == wn.tolist()
            assert unit[s].tolist() == wu.tolist()
    assert unit[segs.slices()[0]].tolist() == [0.0] * sizes[0]
    assert unit[segs.slices()[2]].tolist() == [1.0] * sizes[2]


def test_segments_of_sizes():
    segs = _Segments.of_sizes([2, 1, 3])
    assert segs.start.tolist() == [0, 2, 3]
    assert segs.of.tolist() == [0, 0, 1, 2, 2, 2]
    assert segs.slices() == [slice(0, 2), slice(2, 3), slice(3, 6)]


def test_stack_needs_one_config(prefixes):
    claims = prefixes[0][0][False].claims
    other = FusionEngine(claims, FusionConfig(rho=0.25))
    with pytest.raises(FusionError, match="one fusion config"):
        FusionEngine.stack([prefixes[0][0][False], other])


def test_batches_stay_within_budget():
    assert _batches([5, 10, 15, 20], 25) == [[1, 2], [3], [4]]
    assert _batches([30, 1, 2], 25) == [[1], [2, 3]]
    assert _batches([1, 2, 3], 100) == [[1, 2, 3]]


def test_curve_does_not_depend_on_batching(monkeypatch):
    claims, gold = copier_snapshot()
    sizes = [len(claims.restrict(rank_sources(claims, gold)[:k]))
             for k in range(1, len(claims.sources) + 1)]
    assert len(_batches(sizes, evalharness._STACK_CLAIMS)) == 1
    want = incremental_curve(COMPARE_METHODS, claims, gold, CFG)
    budget = 2 * sizes[2]
    assert 1 < len(_batches(sizes, budget)) < len(sizes)
    monkeypatch.setattr(evalharness, "_STACK_CLAIMS", budget)
    assert incremental_curve(COMPARE_METHODS, claims, gold, CFG) == want
