"""Evaluation protocol: precision/recall, trust deviation/difference,
source-addition curves, dominance buckets, time series, timing."""

from __future__ import annotations

import math

import pytest

from truthfuse.config import load_config
from truthfuse.evalharness import (
    incremental_curve,
    precision_by_dominance,
    precision_recall,
    rank_sources,
    time_series_summary,
    timed_run,
    trust_deviation,
    trust_difference,
)
from truthfuse.fusion import MethodSpec, run_fusion
from truthfuse.metrics import precision_of_dominant
from truthfuse.model import Kind
from truthfuse.synthetic import (
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

from conftest import make_claims, make_gold

CFG = load_config()


def synthetic(seed=0, **kw):
    defaults = dict(
        n_sources=5, n_items=60,
        attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
        accuracies=(0.95, 0.85, 0.75, 0.65, 0.55),
        false_pool=8)
    defaults.update(kw)
    return generate_synthetic(SyntheticSpec(**defaults), seed)


class TestPrecisionRecall:

    def test_perfect_output(self):
        claims, gold, _ = synthetic(accuracies=(1.0,) * 5)
        r = run_fusion(MethodSpec("vote"), claims, CFG)
        assert precision_recall(r, gold, claims) == (1.0, 1.0)

    def test_half_coverage_all_correct(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0)])
        r = run_fusion(MethodSpec("vote"), claims, CFG)
        p, rec = precision_recall(r, gold, claims)
        assert p == 1.0
        assert rec == 0.5

    def test_full_coverage_recall_equals_precision(self):
        claims, gold, _ = synthetic(1)
        for name in ("vote", "accupr", "hub"):
            r = run_fusion(MethodSpec(name), claims, CFG)
            p, rec = precision_recall(r, gold, claims)
            assert p == rec

    def test_vote_precision_equals_dominant_precision(self):
        claims, gold, _ = synthetic(2)
        r = run_fusion(MethodSpec("vote"), claims, CFG)
        p, _ = precision_recall(r, gold, claims)
        assert p == precision_of_dominant(claims, gold)


class TestTrustDeviation:

    def test_identical_maps(self):
        assert trust_deviation({"a": 0.5, "b": 0.9},
                               {"a": 0.5, "b": 0.9}) == 0.0

    def test_single_source_gap(self):
        assert trust_deviation({"a": 0.8}, {"a": 0.6}) == pytest.approx(0.2)

    def test_two_gaps_rms(self):
        # Oracle: sqrt((0.1^2 + 0.3^2) / 2) = sqrt(0.05).
        got = trust_deviation({"a": 0.5, "b": 0.5}, {"a": 0.6, "b": 0.8})
        assert got == pytest.approx(math.sqrt(0.05))
        assert got == pytest.approx(0.2236, abs=5e-5)

    def test_zero_iff_agreement(self):
        sampled = {"a": 0.3, "b": 0.7}
        assert trust_deviation(sampled, dict(sampled)) == 0.0
        assert trust_deviation(sampled, {"a": 0.3, "b": 0.700001}) > 0.0


class TestTrustDifference:

    def test_identical(self):
        assert trust_difference({"a": 0.4}, {"a": 0.4}) == 0.0

    def test_uniform_shift(self):
        got = trust_difference({"a": 0.5, "b": 0.5},
                               {"a": 0.6, "b": 0.6})
        assert got == pytest.approx(0.1)

    def test_mixed_signs_average(self):
        got = trust_difference({"a": 0.5, "b": 0.5},
                               {"a": 0.7, "b": 0.1})
        assert got == pytest.approx(-0.1)


class TestIncrementalCurve:

    def test_single_source_point(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s1", "o2", "price", 99.0)])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0),
                          ("o3", "price", 30.0)])
        pts = incremental_curve(MethodSpec("vote"), claims, gold, CFG)
        assert len(pts) == 1
        assert pts[0].k == 1
        # the source answers 1 of 3 gold items correctly
        assert pts[0].recall == pytest.approx(1.0 / 3.0)

    def test_exact_duplicate_adds_no_recall(self):
        claims = make_claims([
            ("s1", "o1", "price", 10.0), ("s1", "o2", "price", 20.0),
            ("s2", "o1", "price", 10.0), ("s2", "o2", "price", 20.0),
        ])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0)])
        pts = incremental_curve(MethodSpec("vote"), claims, gold, CFG)
        assert pts[0].recall == pts[1].recall == 1.0

    def test_final_point_equals_full_run_precision(self):
        claims, gold, _ = synthetic(3)
        pts = incremental_curve(MethodSpec("accupr"), claims, gold, CFG)
        full = run_fusion(MethodSpec("accupr"), claims, CFG)
        p_full, _ = precision_recall(full, gold, claims)
        assert pts[-1].k == len(claims.sources)
        assert pts[-1].recall == pytest.approx(p_full)

    def test_ranking_by_coverage_times_accuracy(self):
        claims, gold, _ = synthetic(4, coverage=(1.0, 1.0, 0.4, 1.0, 1.0))
        ranked = rank_sources(claims, gold)
        assert ranked[0] == "s01"
        # low-coverage accurate source falls behind full-coverage ones
        assert ranked.index("s03") > 0

    def test_undefined_accuracy_ranks_last(self):
        claims = make_claims([
            ("good", "o1", "price", 10.0),
            ("nogold", "o9", "price", 5.0),
        ])
        gold = make_gold([("o1", "price", 10.0)])
        assert rank_sources(claims, gold) == ["good", "nogold"]


class TestPrecisionByDominance:

    def test_all_unanimous_single_bucket(self):
        claims = make_claims([(f"s{i}", "o1", "price", 10.0)
                              for i in range(4)])
        gold = make_gold([("o1", "price", 10.0)])
        r = run_fusion(MethodSpec("vote"), claims, CFG)
        rows = precision_by_dominance(r, gold, claims)
        top = rows[-1]
        assert top["count"] == 1
        assert top["precision"] == 1.0

    def test_empty_bucket_has_null_precision(self):
        claims = make_claims([(f"s{i}", "o1", "price", 10.0)
                              for i in range(4)])
        gold = make_gold([("o1", "price", 10.0)])
        r = run_fusion(MethodSpec("vote"), claims, CFG)
        rows = precision_by_dominance(r, gold, claims)
        empties = [row for row in rows if row["count"] == 0]
        assert empties
        assert all(row["precision"] is None for row in empties)
        assert all(row["vote_precision"] is None for row in empties)

    def test_method_beats_vote_in_constructed_bucket(self):
        # Two low-trust sources share a wrong value; one high-trust source
        # is right. The dominant value is wrong, the trusted selection is
        # right, so the method's bucket precision exceeds the baseline's.
        claims = make_claims([
            ("good", "o1", "price", 10.0),
            ("bad1", "o1", "price", 99.0),
            ("bad2", "o1", "price", 99.0),
        ])
        gold = make_gold([("o1", "price", 10.0)])
        trust = {"good": 0.99, "bad1": 0.3, "bad2": 0.3}
        r = run_fusion(MethodSpec("accupr"), claims, CFG, input_trust=trust)
        rows = precision_by_dominance(r, gold, claims)
        bucket = [row for row in rows if row["count"] == 1][0]
        assert bucket["lo"] <= 2 / 3 < bucket["hi"]
        assert bucket["precision"] == 1.0
        assert bucket["vote_precision"] == 0.0


class TestTimeSeries:

    def test_constant_precision_zero_deviation(self):
        claims, gold, _ = synthetic(5, accuracies=(1.0,) * 5)
        avg, lo, std = time_series_summary(
            MethodSpec("vote"), [claims, claims], [gold, gold], CFG)
        assert (avg, lo, std) == (1.0, 1.0, 0.0)

    def test_two_snapshot_oracle(self):
        # Construct snapshots with precision 0.9 and 1.0.
        c1, g1, _ = synthetic(6, n_items=10, n_sources=3,
                              accuracies=(1.0, 1.0, 0.4))
        c2, g2, _ = synthetic(7, n_items=10, n_sources=3,
                              accuracies=(1.0, 1.0, 1.0))
        p1, _ = precision_recall(run_fusion(MethodSpec("vote"), c1, CFG),
                                 g1, c1)
        p2, _ = precision_recall(run_fusion(MethodSpec("vote"), c2, CFG),
                                 g2, c2)
        avg, lo, std = time_series_summary(
            MethodSpec("vote"), [c1, c2], [g1, g2], CFG)
        assert avg == pytest.approx((p1 + p2) / 2)
        assert lo == min(p1, p2)
        mean = (p1 + p2) / 2
        assert std == pytest.approx(math.sqrt(
            ((p1 - mean) ** 2 + (p2 - mean) ** 2) / 2))

    def test_single_snapshot_zero_deviation(self):
        claims, gold, _ = synthetic(8)
        _, _, std = time_series_summary(MethodSpec("vote"), [claims],
                                        [gold], CFG)
        assert std == 0.0


class TestTimedRun:

    def test_report_fields(self):
        claims, gold, _ = synthetic(9)
        report = timed_run(run_fusion(MethodSpec("accupr"), claims, CFG),
                           claims, CFG, gold)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert report.wall_time > 0.0
        assert report.trust_deviation is not None
        assert report.trust_difference is not None
        assert report.precision_with_trust is not None
        assert report.converged

    def test_vote_has_no_trust_fields(self):
        claims, gold, _ = synthetic(10)
        report = timed_run(run_fusion(MethodSpec("vote"), claims, CFG),
                           claims, CFG, gold)
        assert report.trust_deviation is None
        assert report.trust_difference is None
        assert report.wall_time > 0.0

    def test_selection_deterministic_across_repeats(self):
        claims, gold, _ = synthetic(11)
        a = run_fusion(MethodSpec("truthfinder"), claims, CFG)
        b = run_fusion(MethodSpec("truthfinder"), claims, CFG)
        assert a.selected == b.selected
        assert a.rounds_used == b.rounds_used

    def test_vote_on_tiny_set_is_sub_second(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 12.0)])
        gold = make_gold([("o1", "price", 10.0)])
        report = timed_run(run_fusion(MethodSpec("vote"), claims, CFG),
                           claims, CFG, gold)
        assert 0.0 < report.wall_time < 1.0
