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
    DataItem,
    LoadError,
    Value,
    majority_gold,
)

from conftest import (
    Claim,
    SCHEMA,
    by_item,
    claim_set,
    claims_of,
    copier_snapshot,
    edge_snapshot,
    make_claims,
    synthetic_snapshot,
)


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
        assert claims_of(cs)[0].value == Value.number(6_700_000.0)

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
        counts = Counter(c.value for c in by_item(cs)[DataItem("o1", "gate")])
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

    def test_equal_spellings_count_together(self, tmp_path):
        """"1200" and "1200.0" are one value; the gold keeps the first
        trusted provider's spelling, and so does ``gold.csv``."""
        p = tmp_path / "claims.csv"
        p.write_text("source,object,attribute,value\n"
                     "s0,o1,price,1300\ns1,o1,price,1200.0\n"
                     "s2,o1,price,1200\ns3,o1,price,1300\n"
                     "s4,o1,price,\"1,200\"\ns5,o1,price,1300\n",
                     encoding="utf-8")
        cs = load_claims(p, {"price": SCHEMA["price"]})
        gold = majority_gold(["s1", "s2", "s3", "s4", "s5"], cs,
                             min_providers=3)
        won = gold.entries[DataItem("o1", "price")]
        assert won == Value.number(1200.0) and won.granularity == 0.1
        write_gold(gold, tmp_path / "gold.csv")
        assert (tmp_path / "gold.csv").read_text().splitlines()[1] == (
            "o1,price,1200.0")
        assert DataItem("o1", "price") not in majority_gold(
            cs.sources, cs, min_providers=3).entries   # 3 to 3: a tie

    @pytest.mark.parametrize("make", [copier_snapshot, synthetic_snapshot,
                                      edge_snapshot])
    def test_counts_as_the_counter_loop(self, make):
        cs = make()[0]
        for k, n in ((1, 1), (3, 1), (5, 2), (len(cs.sources), 3)):
            for view in (cs, cs.restrict(cs.sources[1:])):
                trusted = view.sources[:k]
                got = majority_gold(trusted, view, min_providers=n).entries
                want = ref_majority_gold(trusted, view, n)
                assert list(got.items()) == list(want.items())
                assert ([v.granularity for v in got.values()]
                        == [v.granularity for v in want.values()])


def ref_majority_gold(sources, claims, min_providers):
    """The per-item ``Counter`` vote ``majority_gold`` ran on ``Claim``s."""
    entries = {}
    for item, item_claims in by_item(claims).items():
        votes = Counter(c.value for c in item_claims
                        if c.source in sources)
        if sum(votes.values()) < min_providers:
            continue
        ranked = sorted(votes.items(),
                        key=lambda kv: (-kv[1], kv[0].sort_key()))
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            continue
        entries[item] = ranked[0][0]
    return entries


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
        assert claims_of(cs2) == claims_of(cs3) == claims_of(cs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_granularity_survives_serialization(self, tmp_path):
        schema = {"price": SCHEMA["price"]}
        cs = claim_set("t", schema, [
            Claim("s1", DataItem("o1", "price"),
                  Value.number(8_000_000.0, granularity=1e6))])
        p = tmp_path / "c.csv"
        write_claims(cs, p)
        reloaded = load_claims(p, schema)
        assert claims_of(reloaded)[0].value.granularity == 1e6

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
        claimed = by_item(cs)
        for k, item in enumerate(cs.items):
            providers = set(cs.claim_source[slice(*cs.item_start[k:k + 2])])
            by_value = Counter(c.value for c in claimed[item])
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
            claim_set("t", SCHEMA, [
                Claim("s1", DataItem("o1", "price"), Value.of_text("x"))])

    def test_value_total_order(self):
        assert Value.number(2.0).sort_key() < Value.number(10.0).sort_key()
        assert (Value.of_text("ABC").sort_key()
                == Value.of_text("abc").sort_key())
        assert Value.time(60).sort_key() < Value.time(90).sort_key()
