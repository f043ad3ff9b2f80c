"""Consistency and quality metrics against independent oracles."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse.metrics import (
    accuracy_deviation,
    deviation,
    dominant,
    entropy,
    item_redundancy,
    object_redundancies,
    object_redundancy,
    precision_of_dominant,
    profile_items,
    source_accuracy,
)
from truthfuse.model import (
    DataItem,
    Kind,
    UndefinedDeviationError,
    Value,
)
from truthfuse.normalize import bucketize

from conftest import (
    copier_snapshot,
    edge_snapshot,
    make_claims,
    make_gold,
    synthetic_snapshot,
)


def buckets_for(counts, attr="price", tau=0.5, spread=10.0):
    """Claims with the given value multiplicities, bucketized."""
    rows = []
    i = 0
    for v, n in counts.items():
        for _ in range(n):
            rows.append((f"s{i}", "o1", attr, v))
            i += 1
    cs = make_claims(rows)
    return bucketize(cs.items[0], cs, tau)


class TestRedundancy:

    def cs(self):
        return make_claims([
            ("s1", "o1", "price", 10.0),
            ("s2", "o1", "price", 11.0),
            ("s3", "o1", "price", 12.0),
            ("s1", "o2", "price", 20.0),
            ("s2", "o2", "price", 21.0),
            ("s3", "o2", "price", 22.0),
            ("s4", "o2", "price", 23.0),
            ("s5", "o2", "price", 24.0),
            ("s1", "o3", "gate", "a"),
        ])

    def test_item_three_of_five(self):
        cs = self.cs()
        assert item_redundancy(DataItem("o1", "price"), cs) == 0.6

    def test_item_full(self):
        cs = self.cs()
        assert item_redundancy(DataItem("o2", "price"), cs) == 1.0

    def test_item_unprovided(self):
        cs = self.cs()
        assert item_redundancy(DataItem("o9", "price"), cs) == 0.0

    def test_object_levels(self):
        cs = self.cs()
        assert object_redundancy("o1", cs) == 0.6
        assert object_redundancy("o2", cs) == 1.0
        assert object_redundancy("none", cs) == 0.0

    def test_all_objects_at_once_match_the_per_object_loop(self):
        for claims, _ in (copier_snapshot(), edge_snapshot(),
                          synthetic_snapshot()):
            want = {o: len({c.source for c in claims.claims
                            if c.item.object_id == o}) / len(claims.sources)
                    for o in claims.object_ids}
            assert object_redundancies(claims) == want


class TestEntropy:

    def test_single_value_is_zero(self):
        assert entropy(buckets_for({10.0: 4})) == 0.0

    def test_uniform_two_values_is_exactly_one(self):
        assert entropy(buckets_for({10.0: 3, 20.0: 3})) == 1.0

    def test_three_two_split_matches_oracle(self):
        # Oracle: -0.6 log2 0.6 - 0.4 log2 0.4.
        expected = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
        got = entropy(buckets_for({10.0: 3, 20.0: 2}))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9710, abs=5e-5)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_log_num_values(self, multiplicities):
        counts = {100.0 + 10.0 * i: n for i, n in enumerate(multiplicities)}
        e = entropy(buckets_for(counts))
        assert -1e-12 <= e <= math.log2(len(counts)) + 1e-12


class TestDeviation:

    def test_single_value_zero(self):
        assert deviation(buckets_for({10.0: 3}), Kind.NUMBER) == 0.0

    def test_numeric_relative_rms(self):
        # Oracle: sqrt((0^2 + 0.2^2) / 2) with dominant 10.
        got = deviation(buckets_for({10.0: 3, 12.0: 2}), Kind.NUMBER)
        assert got == pytest.approx(math.sqrt((0.0 + 0.2 ** 2) / 2))
        assert got == pytest.approx(0.1414, abs=5e-5)

    def test_time_rms_minutes(self):
        cs = make_claims([("s1", "o1", "depart", 1095),
                          ("s2", "o1", "depart", 1095),
                          ("s3", "o1", "depart", 1125)])
        got = deviation(bucketize(cs.items[0], cs), Kind.TIME_OF_DAY)
        assert got == pytest.approx(math.sqrt((0 + 30 ** 2) / 2))
        assert got == pytest.approx(21.2, abs=0.05)

    def test_zero_dominant_undefined(self):
        with pytest.raises(UndefinedDeviationError):
            deviation(buckets_for({0.0: 3, 5.0: 1}), Kind.NUMBER)


class TestDominant:

    def test_plurality(self):
        v, f = dominant(buckets_for({10.0: 3, 12.0: 2}))
        assert v == Value.number(10.0)
        assert f == 0.6

    def test_single_claim(self):
        v, f = dominant(buckets_for({7.0: 1}))
        assert (v, f) == (Value.number(7.0), 1.0)

    def test_tie_breaks_to_smaller_value(self):
        buckets = buckets_for({14.0: 2, 12.0: 2})
        counts = Counter(b.provider_count for b in buckets)
        assert counts == Counter({2: 2})   # tie confirmed by enumeration
        v, f = dominant(buckets)
        assert v == Value.number(12.0)
        assert f == 0.5

    def test_text_tie_lexicographic(self):
        cs = make_claims([("s1", "o1", "gate", "b"),
                          ("s2", "o1", "gate", "a")])
        v, f = dominant(bucketize(cs.items[0], cs))
        assert v == Value.of_text("a")


class TestPrecisionOfDominant:

    def test_all_match(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 10.0),
                          ("s1", "o2", "price", 20.0)])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0)])
        assert precision_of_dominant(cs, gold) == 1.0

    def test_counting(self):
        rows = []
        gold_rows = []
        for i in range(10):
            truth = 100.0 + 10 * i
            wrong = truth + 50.0
            rows += [(f"s1", f"o{i}", "price", truth),
                     (f"s2", f"o{i}", "price", truth if i else wrong),
                     (f"s3", f"o{i}", "price", truth if i else wrong)]
            gold_rows.append((f"o{i}", "price", truth))
        cs = make_claims(rows)
        gold = make_gold(gold_rows)
        assert precision_of_dominant(cs, gold) == 0.9


class TestSourceAccuracy:

    def cs(self):
        return make_claims([
            ("s1", "o1", "price", 10.0), ("s1", "o2", "price", 20.0),
            ("s1", "o3", "price", 30.0), ("s1", "o4", "price", 40.0),
            ("s2", "o1", "price", 10.0), ("s2", "o2", "price", 99.0),
            ("s3", "o9", "price", 1.0),
        ])

    def gold(self):
        return make_gold([("o1", "price", 10.0), ("o2", "price", 20.0),
                          ("o3", "price", 30.0), ("o4", "price", 40.0)])

    def test_perfect(self):
        assert source_accuracy("s1", self.cs(), self.gold()) == 1.0

    def test_partial(self):
        assert source_accuracy("s2", self.cs(), self.gold()) == 0.5

    def test_no_overlap_is_undefined_not_zero(self):
        assert source_accuracy("s3", self.cs(), self.gold()) is None


class TestAccuracyDeviation:

    def test_constant_series(self):
        assert accuracy_deviation([0.9, 0.9, 0.9]) == 0.0

    def test_two_point_series(self):
        # Oracle: mean 0.9, population variance 0.01.
        assert accuracy_deviation([0.8, 1.0]) == pytest.approx(0.1)

    def test_singleton(self):
        assert accuracy_deviation([0.42]) == 0.0


class TestProfiles:

    def test_entropy_zero_iff_single_value(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 10.0),
                          ("s1", "o2", "price", 5.0),
                          ("s2", "o2", "price", 50.0)])
        profs = profile_items(cs)
        single = profs[DataItem("o1", "price")]
        multi = profs[DataItem("o2", "price")]
        assert single.num_values == 1 and single.entropy == 0.0
        assert multi.num_values == 2 and multi.entropy > 0.0

    def test_majority_dominance_implies_plurality(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 10.0),
                          ("s3", "o1", "price", 10.0),
                          ("s4", "o1", "price", 99.0)])
        p = profile_items(cs)[cs.items[0]]     # tau = 0.01 * 10
        assert p.dominance_factor > 0.5
        assert p.dominant == Value.number(10.0)
        dominant_count = round(p.dominance_factor * p.provider_count)
        assert dominant_count > p.provider_count - dominant_count

    def test_claim_order_invariance(self):
        rows = [("s1", "o1", "price", 10.0), ("s2", "o1", "price", 12.0),
                ("s3", "o1", "price", 10.0), ("s4", "o1", "price", 14.0)]
        a, b = (profile_items(make_claims(r)) for r in (rows, rows[::-1]))
        assert a == b

    def test_accuracy_series_over_snapshots(self):
        from truthfuse.metrics import profile_sources
        day1 = make_claims([("s1", "o1", "price", 10.0),
                            ("s1", "o2", "price", 99.0)])
        day2 = make_claims([("s1", "o1", "price", 10.0),
                            ("s1", "o2", "price", 20.0)])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0)])
        profs = profile_sources(day2, gold,
                                snapshots=[(day1, gold), (day2, gold)])
        sp = profs["s1"]
        assert sp.accuracy_series == (0.5, 1.0)
        # population standard deviation of {0.5, 1.0}
        assert sp.accuracy_deviation == pytest.approx(0.25)
