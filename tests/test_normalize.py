"""Canonicalization, tolerance, matching, bucketing, similarity,
and the formatting-subsumption relation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse.config import FusionConfig
from truthfuse.model import Kind, KindMismatchError, Value, ValueParseError
from truthfuse.normalize import (
    bucketize,
    normalize_value,
    similarity,
    subsumes,
    tolerance,
    values_match,
)

from conftest import NUMBER, TEXT, TIME, make_claims


class TestNormalizeValue:

    @pytest.mark.parametrize("raw,expected", [
        ("6.7M", 6_700_000.0),
        ("6,700,000", 6_700_000.0),
        ("6700000", 6_700_000.0),
        ("$1,234.50", 1234.5),
        ("42%", 42.0),
        ("-3.5", -3.5),
        ("2.1B", 2_100_000_000.0),
        ("15k", 15_000.0),
    ])
    def test_numbers(self, raw, expected):
        assert normalize_value(raw, Kind.NUMBER) == Value.number(expected)

    @pytest.mark.parametrize("raw,minutes", [
        ("6:15 pm", 18 * 60 + 15),
        ("18:15", 18 * 60 + 15),
        ("12:00 am", 0),
        ("12:30 PM", 750),
        ("6:15p.m.", 1095),
        ("0:05", 5),
    ])
    def test_times(self, raw, minutes):
        assert normalize_value(raw, Kind.TIME_OF_DAY) == Value.time(minutes)

    def test_text_trimmed_and_casefolded(self):
        assert normalize_value("  NASDAQ ", Kind.TEXT) == Value.of_text("nasdaq")

    @pytest.mark.parametrize("raw,kind", [
        ("abc", Kind.NUMBER),
        ("", Kind.NUMBER),
        ("25:00", Kind.TIME_OF_DAY),
        ("9:75", Kind.TIME_OF_DAY),
        ("13:00 pm", Kind.TIME_OF_DAY),
    ])
    def test_parse_errors_carry_raw(self, raw, kind):
        with pytest.raises(ValueParseError) as err:
            normalize_value(raw, kind)
        assert err.value.raw == raw

    @pytest.mark.parametrize("raw,gran", [
        ("6.7M", 1e5),
        ("8M", 1e6),
        ("7,528,396", 1.0),
        ("10.25", 1e-2),
        ("1200", 100.0),
        ("0", 1.0),
    ])
    def test_inferred_granularity(self, raw, gran):
        assert normalize_value(raw, Kind.NUMBER).granularity == pytest.approx(gran)

    @pytest.mark.parametrize("raw,num,gran", [
        ("12.", 12.0, 1.0),
        ("10000.", 10_000.0, 1.0),
        ("-7.", -7.0, 1.0),
        ("0.", 0.0, 1.0),
        ("3.k", 3_000.0, 1e3),
    ])
    def test_trailing_point_marks_the_units_digit(self, raw, num, gran):
        """A spelling that ends in its decimal point is exact to the units
        digit (times a suffix's multiplier), so "10000." spells the
        integer whose zeros are significant and "10000" does not."""
        v = normalize_value(raw, Kind.NUMBER)
        assert v.num == num and v.granularity == pytest.approx(gran)
        assert normalize_value("10000", Kind.NUMBER).granularity == 1e4

    def test_a_lone_point_is_no_number(self):
        with pytest.raises(ValueParseError):
            normalize_value(".", Kind.NUMBER)


class TestTolerance:

    def test_direct_formula(self):
        assert tolerance(NUMBER, [10, 12, 20]) == pytest.approx(0.12)

    def test_single_value(self):
        assert tolerance(NUMBER, [50]) == pytest.approx(0.5)

    def test_even_count_uses_middle_pair_mean(self):
        # Independent oracle: sort and average the two middle elements.
        values = [1, 2, 3, 4]
        s = sorted(values)
        expected = 0.05 * (s[1] + s[2]) / 2
        from truthfuse.model import AttributeSpec
        attr = AttributeSpec("x", Kind.NUMBER, 0.05)
        assert tolerance(attr, values) == pytest.approx(expected)
        assert tolerance(attr, values) == pytest.approx(0.125)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tolerance(NUMBER, [])


class TestValuesMatch:

    def test_number_within_tolerance(self):
        assert values_match(Value.number(10.0), Value.number(10.1),
                            NUMBER, tau=0.12)

    def test_time_outside_tolerance(self):
        assert not values_match(Value.time(18 * 60 + 15),
                                Value.time(18 * 60 + 30), TIME)

    def test_text_ignores_case(self):
        assert values_match(Value.of_text("nasdaq"), Value.of_text("NASDAQ"),
                            TEXT)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(KindMismatchError):
            values_match(Value.number(1.0), Value.of_text("1"), NUMBER)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(0.001, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_reflexive_and_symmetric(self, a, b, tau):
        va, vb = Value.number(a), Value.number(b)
        assert values_match(va, va, NUMBER, tau)
        assert (values_match(va, vb, NUMBER, tau)
                == values_match(vb, va, NUMBER, tau))


class TestBucketize:

    def test_grid_separates_distant_values(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 10.0),
                          ("s3", "o1", "price", 10.0),
                          ("s4", "o1", "price", 12.0),
                          ("s5", "o1", "price", 12.0)])
        buckets = bucketize(cs.items[0], cs, tau=0.5)
        assert [(b.center.num, b.provider_count) for b in buckets] == [
            (10.0, 3), (12.0, 2)]
        # Interval-enumeration oracle: every member lies in its bucket's
        # half-open interval around the center.
        for b in buckets:
            for m in b.members:
                assert b.center.num - 0.25 < m.num <= b.center.num + 0.25 \
                    or m.num == b.center.num

    def test_near_values_merge(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 10.01)])
        buckets = bucketize(cs.items[0], cs, tau=0.5)
        assert len(buckets) == 1
        assert buckets[0].provider_count == 2

    def test_single_claim(self):
        cs = make_claims([("s1", "o1", "price", 7.0)])
        buckets = bucketize(cs.items[0], cs, tau=0.5)
        assert len(buckets) == 1
        assert buckets[0].center == Value.number(7.0)
        assert buckets[0].provider_count == 1

    def test_time_buckets_span_one_tolerance(self):
        cs = make_claims([("s1", "o1", "depart", 1095),
                          ("s2", "o1", "depart", 1100),
                          ("s3", "o1", "depart", 1110)])
        buckets = bucketize(cs.items[0], cs)
        assert buckets[0].half_width == 5.0
        assert sum(b.provider_count for b in buckets) == 3
        # 18:15 and 18:20 group together; 18:30 lands on its own center.
        assert [(b.center.num, b.provider_count) for b in buckets] == [
            (1095.0, 2), (1105.0, 1)]

    def test_text_buckets_by_casefold(self):
        cs = make_claims([("s1", "o1", "gate", "A2"),
                          ("s2", "o1", "gate", "a2"),
                          ("s3", "o1", "gate", "B1")])
        buckets = bucketize(cs.items[0], cs)
        assert [(b.center.text, b.provider_count) for b in buckets] == [
            ("a2", 2), ("b1", 1)]

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, offsets):
        rows = [(f"s{i}", "o1", "price", 100.0 + o * 0.37)
                for i, o in enumerate(offsets)]
        cs = make_claims(rows)
        buckets = bucketize(cs.items[0], cs, tau=1.0)
        assert sum(b.provider_count for b in buckets) == len(offsets)
        seen = [m for b in buckets for m in b.members]
        assert len(set(seen)) == len(seen)


class TestSimilarity:

    def test_identity(self):
        assert similarity(Value.number(10.0), Value.number(10.0), NUMBER,
                          tau=0.12) == 1.0

    def test_linear_decay(self):
        # Direct-formula oracle: 1 - 0.6 / (10 * 0.12).
        got = similarity(Value.number(10.0), Value.number(10.6), NUMBER,
                         tau=0.12)
        assert got == pytest.approx(1.0 - 0.6 / 1.2)
        assert got == pytest.approx(0.5)

    def test_clamped_at_zero(self):
        assert similarity(Value.number(10.0), Value.number(20.0), NUMBER,
                          tau=0.12) == 0.0

    def test_time_zero_at_one_hour(self):
        p = FusionConfig()
        assert similarity(Value.time(600), Value.time(630), TIME, p) == \
            pytest.approx(0.5)
        assert similarity(Value.time(600), Value.time(700), TIME, p) == 0.0

    def test_text_edit_similarity(self):
        assert similarity(Value.of_text("gate A"), Value.of_text("GATE A"),
                          TEXT) == 1.0
        got = similarity(Value.of_text("abcd"), Value.of_text("abce"), TEXT)
        assert got == pytest.approx(0.75)

    @given(st.floats(0, 1000), st.floats(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        va, vb = Value.number(a), Value.number(b)
        s1 = similarity(va, vb, NUMBER, tau=1.0)
        s2 = similarity(vb, va, NUMBER, tau=1.0)
        assert 0.0 <= s1 <= 1.0
        assert s1 == s2


class TestSubsumes:

    def coarse(self, raw):
        return normalize_value(raw, Kind.NUMBER)

    def test_rounded_million(self):
        assert subsumes(self.coarse("8M"), self.coarse("7,528,396"), NUMBER)

    def test_rounding_oracle(self):
        fine = self.coarse("8,400,000")
        c = self.coarse("8M")
        assert round(fine.num / 1e6) * 1e6 == c.num
        assert subsumes(c, fine, NUMBER)

    def test_reflexive(self):
        v = self.coarse("7,528,396")
        assert subsumes(v, v, NUMBER)

    def test_requires_strictly_coarser_precision(self):
        fine = self.coarse("7,528,396")
        other = self.coarse("7,528,400")
        assert not subsumes(fine, other, NUMBER)
        # distinct values at equal granularity never subsume
        assert not subsumes(self.coarse("9"), self.coarse("8"), NUMBER)

    def test_trailing_zero_spelling_equals_suffix_spelling(self):
        # "8,000,000" and "8M" normalize to the same value and precision.
        a, b = self.coarse("8,000,000"), self.coarse("8M")
        assert a == b
        assert a.granularity == b.granularity == pytest.approx(1e6)

    def test_out_of_window_not_subsumed(self):
        assert not subsumes(self.coarse("8M"), self.coarse("9,400,000"),
                            NUMBER)

    def test_time_and_text_degenerate_to_equality(self):
        assert subsumes(Value.time(600), Value.time(600), TIME)
        assert not subsumes(Value.time(600), Value.time(601), TIME)
        assert subsumes(Value.of_text("a"), Value.of_text("A"), TEXT)
        assert not subsumes(Value.of_text("a"), Value.of_text("b"), TEXT)

    @given(st.integers(1, 9_999_999))
    @settings(max_examples=80, deadline=None)
    def test_distinct_subsumption_implies_coarser(self, n):
        fine = normalize_value(str(n), Kind.NUMBER)
        coarse = normalize_value(f"{round(n / 1e6)}M", Kind.NUMBER)
        if subsumes(coarse, fine, NUMBER) and coarse != fine:
            assert coarse.granularity > (fine.granularity or 0.0)

    def test_unknown_granularity_subsumes_only_itself(self):
        bare = Value.number(8_000_000.0)
        assert bare.granularity is None
        assert subsumes(bare, bare, NUMBER)
        assert not subsumes(bare, self.coarse("7,528,396"), NUMBER)


def test_match_not_transitive_example():
    """Tolerant matching is deliberately not transitive: a~b and b~c can
    hold while a~c fails."""
    a, b, c = Value.number(10.0), Value.number(10.1), Value.number(10.2)
    assert values_match(a, b, NUMBER, tau=0.12)
    assert values_match(b, c, NUMBER, tau=0.12)
    assert not values_match(a, c, NUMBER, tau=0.12)


def test_entropy_log_identity():
    """Sanity anchor for the bits convention used throughout."""
    assert math.log2(0.5) == -1.0
