"""``compare``'s reports read off the source-addition curve's k = n segment
(``incremental_curve`` on the snapshot's engine, then ``timed_run``)
against the path they replaced (``ref_timed_run``: each method run alone on
a fresh engine, then scored): equal bit for bit, timings aside."""

from __future__ import annotations

import dataclasses

import pytest

from truthfuse.evalharness import (
    EvalReport,
    incremental_curve,
    precision_recall,
    rank_sources,
    timed_run,
    trust_deviation,
    trust_difference,
)
from truthfuse.fusion import engine_for, run_fusion, sample_trust

from conftest import edge_snapshot
from test_shared_engine import CFG, COMPARE_METHODS, copier_snapshot

ROW = ("method", "precision", "recall", "precision_with_trust",
       "trust_deviation", "trust_difference", "rounds", "converged")


def ref_timed_run(method, claims, config, gold) -> EvalReport:
    """The default run on a fresh engine, then the report as ``timed_run``
    assembled it when it ran the method itself."""
    engine = engine_for(claims, config.fusion, method.per_attribute_trust)
    match = engine.gold_match(gold.entries)
    result = run_fusion(method, claims, config, engine=engine)
    precision, recall = precision_recall(result, gold, claims, match=match)
    dev = diff = prec_with = None
    if method.name != "vote":
        sampled = sample_trust(method, claims, gold, config, match)
        if result.trust:
            dev = trust_deviation(sampled, result.trust)
            diff = trust_difference(sampled, result.trust)
        with_trust = run_fusion(method, claims, config, input_trust=sampled,
                                engine=engine)
        prec_with, _ = precision_recall(with_trust, gold, claims, match=match)
    return EvalReport(method.label(), precision, recall, dev, diff,
                      result.wall_time, result.rounds_used, result.converged,
                      prec_with, result)


def untimed(result):
    return dataclasses.replace(result, wall_time=0.0)


@pytest.mark.parametrize("snapshot", [copier_snapshot, edge_snapshot],
                         ids=["copier", "edge"])
def test_reports_off_the_curve_equal_runs_alone(snapshot):
    claims, gold = snapshot()
    engine = engine_for(claims, CFG.fusion)
    match = engine.gold_match(gold.entries)
    curve = incremental_curve(COMPARE_METHODS, claims, gold, CFG,
                              rank_sources(claims, gold, match), match)
    last = [p for p in curve if p.result is not None]
    assert [p.method for p in last] == [m.label() for m in COMPARE_METHODS]
    assert {p.k for p in last} == {len(claims.sources)}
    for m, point in zip(COMPARE_METHODS, last):
        got = timed_run(point.result, claims, CFG, gold, engine=engine,
                        match=match)
        want = ref_timed_run(m, claims, CFG, gold)
        assert [getattr(got, c) for c in ROW] == \
            [getattr(want, c) for c in ROW], m.label()
        assert got.result.tie_count == want.result.tie_count
        assert got.result.trust == want.result.trust
        assert untimed(got.result) == untimed(want.result)
        assert (got.result.chosen == want.result.chosen).all()
        assert point.recall == got.recall
