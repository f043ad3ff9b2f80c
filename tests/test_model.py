"""Core model: loading, indexing, invariants, gold construction."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse.dataio import (
    load_claims,
    load_gold,
    load_schema,
    write_claims,
    write_gold,
    write_schema,
)
from truthfuse.model import (
    Claim,
    ClaimSet,
    DataItem,
    LoadError,
    Value,
    majority_gold,
)

from conftest import SCHEMA, make_claims


class TestLoadClaims:

    def write(self, tmp_path, text, name="claims.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def schema_file(self, tmp_path):
        p = tmp_path / "schema.csv"
        p.write_text("price,Number,0.01\ndepart,TimeOfDay,10\ngate,Text,\n",
                     encoding="utf-8")
        return load_schema(p)

    def test_five_distinct_rows(self, tmp_path):
        schema = self.schema_file(tmp_path)
        p = self.write(tmp_path, "source,object,attribute,value\n"
                                 "s1,o1,price,10\n"
                                 "s2,o1,price,11\n"
                                 "s1,o2,price,12\n"
                                 "s2,o2,price,13\n"
                                 "s3,o1,gate,A2\n")
        cs = load_claims(p, schema)
        assert len(cs) == 5
        assert cs.sources == ("s1", "s2", "s3")

    def test_duplicate_claim_rejected_with_location(self, tmp_path):
        schema = self.schema_file(tmp_path)
        p = self.write(tmp_path, "source,object,attribute,value\n"
                                 "s1,d1,price,10\n"
                                 "s1,d1,price,11\n")
        with pytest.raises(LoadError) as err:
            load_claims(p, schema)
        assert "s1" in str(err.value)
        assert "d1" in str(err.value)
        assert ":3" in str(err.value)

    def test_thousands_separators_normalized(self, tmp_path):
        schema = self.schema_file(tmp_path)
        p = self.write(tmp_path, "source,object,attribute,value\n"
                                 's1,o1,price,"6,700,000"\n')
        cs = load_claims(p, schema)
        assert cs.claims[0].value == Value.number(6_700_000.0)

    def test_unparseable_value_names_line(self, tmp_path):
        schema = self.schema_file(tmp_path)
        p = self.write(tmp_path, "source,object,attribute,value\n"
                                 "s1,o1,price,ten\n")
        with pytest.raises(LoadError, match=":2"):
            load_claims(p, schema)

    def test_unknown_attribute_rejected(self, tmp_path):
        schema = self.schema_file(tmp_path)
        p = self.write(tmp_path, "source,object,attribute,value\n"
                                 "s1,o1,volume,10\n")
        with pytest.raises(LoadError, match="volume"):
            load_claims(p, schema)


class TestLoadGold:

    def setup_claims(self, tmp_path):
        return make_claims([
            ("s1", "o1", "price", 10.0),
            ("s2", "o2", "price", 11.0),
            ("s1", "o3", "gate", "a1"),
        ])

    def test_three_rows(self, tmp_path):
        claims = self.setup_claims(tmp_path)
        p = tmp_path / "gold.csv"
        p.write_text("object,attribute,value\n"
                     "o1,price,10\no2,price,11\no3,gate,A1\n",
                     encoding="utf-8")
        gold = load_gold(p, claims)
        assert len(gold) == 3
        assert gold.orphan_count == 0

    def test_uncovered_gold_item_counted(self, tmp_path):
        claims = self.setup_claims(tmp_path)
        p = tmp_path / "gold.csv"
        p.write_text("object,attribute,value\no9,price,10\n",
                     encoding="utf-8")
        gold = load_gold(p, claims)
        assert len(gold) == 1
        assert gold.orphan_count == 1

    def test_duplicate_gold_row_rejected(self, tmp_path):
        claims = self.setup_claims(tmp_path)
        p = tmp_path / "gold.csv"
        p.write_text("object,attribute,value\no1,price,10\no1,price,12\n",
                     encoding="utf-8")
        with pytest.raises(LoadError, match="duplicate"):
            load_gold(p, claims)


class TestMajorityGold:

    def claims_with_votes(self, values):
        rows = [(f"s{i}", "o1", "gate", v) for i, v in enumerate(values)]
        return make_claims(rows)

    def test_plurality_of_five(self):
        cs = self.claims_with_votes(["a", "a", "a", "b", "b"])
        gold = majority_gold(cs.sources, cs, min_providers=3)
        assert gold.entries[DataItem("o1", "gate")] == Value.of_text("a")

    def test_below_threshold_omitted(self):
        cs = make_claims([("s0", "o1", "gate", "a"),
                          ("s1", "o1", "gate", "a"),
                          ("s0", "o2", "gate", "b")])
        gold = majority_gold(cs.sources, cs, min_providers=3)
        assert len(gold) == 0

    def test_tie_omitted(self):
        # Tie rule verified by enumerating the counts directly.
        cs = self.claims_with_votes(["a", "a", "b", "b"])
        counts = Counter(c.value for c in cs.by_item[DataItem("o1", "gate")])
        assert sorted(counts.values()) == [2, 2]
        gold = majority_gold(cs.sources, cs, min_providers=3)
        assert DataItem("o1", "gate") not in gold.entries

    def test_single_source_equals_its_claims(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s1", "o2", "price", 11.0),
                          ("s2", "o3", "price", 12.0)])
        gold = majority_gold(["s1"], cs, min_providers=1)
        assert gold.entries == {
            DataItem("o1", "price"): Value.number(10.0),
            DataItem("o2", "price"): Value.number(11.0),
        }

    def test_empty_source_list_rejected(self):
        cs = self.claims_with_votes(["a"])
        with pytest.raises(LoadError):
            majority_gold([], cs)


class TestRoundTrip:

    def test_claims_round_trip_identical(self, tmp_path):
        cs = make_claims([
            ("s1", "o1", "price", 10.5),
            ("s2", "o1", "price", 12.0),
            ("s1", "o2", "depart", 1095),
            ("s2", "o3", "gate", "A2"),
        ])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_claims(cs, p1)
        cs2 = load_claims(p1, cs.schema, snapshot_label=cs.snapshot_label)
        write_claims(cs2, p2)
        cs3 = load_claims(p2, cs.schema, snapshot_label=cs.snapshot_label)
        assert cs2.claims == cs3.claims == cs.claims
        assert p1.read_bytes() == p2.read_bytes()

    def test_granularity_survives_serialization(self, tmp_path):
        schema = {"price": SCHEMA["price"]}
        cs = ClaimSet("t", schema, [
            Claim("s1", DataItem("o1", "price"),
                  Value.number(8_000_000.0, granularity=1e6))])
        p = tmp_path / "c.csv"
        write_claims(cs, p)
        reloaded = load_claims(p, schema)
        assert reloaded.claims[0].value.granularity == 1e6

    def test_schema_and_gold_round_trip(self, tmp_path):
        cs = make_claims([("s1", "o1", "price", 10.0)])
        write_schema(cs.schema, tmp_path / "schema.csv")
        schema2 = load_schema(tmp_path / "schema.csv")
        assert schema2 == cs.schema
        gold = majority_gold(["s1"], cs, min_providers=1)
        write_gold(gold, tmp_path / "gold.csv")
        gold2 = load_gold(tmp_path / "gold.csv", cs)
        assert gold2.entries == gold.entries


class TestIndexes:

    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 3)),
        min_size=1, max_size=40, unique_by=lambda t: (t[0], t[1])))
    @settings(max_examples=60, deadline=None)
    def test_provider_partition(self, triples):
        """|S(d)| equals the sum of |S(d, v)| over distinct values."""
        rows = [(f"s{s}", f"o{o}", "price", 100.0 + v * 7)
                for s, o, v in triples]
        cs = make_claims(rows)
        for item in cs.items:
            providers = cs.providers(item)
            by_value = Counter(c.value for c in cs.by_item[item])
            assert len(providers) == sum(by_value.values())

    def test_restrict_filters_sources(self):
        cs = make_claims([("s1", "o1", "price", 10.0),
                          ("s2", "o1", "price", 11.0),
                          ("s3", "o2", "price", 12.0)])
        sub = cs.restrict(["s1", "s3"])
        assert sub.sources == ("s1", "s3")
        assert len(sub) == 2
        assert len(cs) == 3

    def test_kind_mismatch_rejected(self):
        from truthfuse.model import KindMismatchError
        with pytest.raises(KindMismatchError):
            ClaimSet("t", SCHEMA, [
                Claim("s1", DataItem("o1", "price"), Value.of_text("x"))])

    def test_value_total_order(self):
        assert Value.number(2.0).sort_key() < Value.number(10.0).sort_key()
        assert (Value.of_text("ABC").sort_key()
                == Value.of_text("abc").sort_key())
        assert Value.time(60).sort_key() < Value.time(90).sort_key()
