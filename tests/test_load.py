"""Loading a snapshot: the one-pass columnar loader, the one claim check
(``claim_columns``) and the ClaimSet columns, against the row-by-row
loader and the per-index sorts they replaced."""

from __future__ import annotations

import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest

import truthfuse
from truthfuse import cli, dataio, model
from truthfuse.dataio import (
    CLAIM_HEADER,
    GOLD_HEADER,
    load_claims,
    load_gold,
    write_claims,
    write_gold,
    write_schema,
)
from truthfuse.config import load_config
from truthfuse.fusion import FusionEngine
from truthfuse.model import (
    AttributeSpec,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    KindMismatchError,
    LoadError,
    Value,
    ValueParseError,
    claim_columns,
)
from truthfuse.normalize import (
    bucketize,
    normalize_value,
    subsumes,
    tolerances,
)
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

from conftest import (
    Claim,
    by_item,
    by_source,
    claim_set,
    claims_of,
    copier_snapshot,
    edge_snapshot,
    nodes_in_src,
    synthetic_snapshot,
)

SCHEMA = {a.name: a for a in (
    AttributeSpec("volume", Kind.NUMBER, 0.01),
    AttributeSpec("change", Kind.NUMBER, 0.01),
    AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0),
    AttributeSpec("gate", Kind.TEXT, 0.0))}


# -- reference: the loader and index before the one-pass rewrite -------------


class RefClaimSet(ClaimSet):

    def __init__(self, snapshot_label, schema, claims):
        self.snapshot_label = snapshot_label
        self.schema = dict(schema)
        claim_list = list(claims)
        by_item: dict[DataItem, list[Claim]] = {}
        by_source: dict[str, list[Claim]] = {}
        seen: set[tuple[str, DataItem]] = set()
        for c in claim_list:
            if not c.source:
                raise LoadError("source id must be non-empty")
            attr = self.schema.get(c.item.attribute)
            if attr is None:
                raise LoadError(f"unknown attribute {c.item.attribute!r}")
            if attr.kind is not c.value.kind:
                raise KindMismatchError(
                    f"value kind {c.value.kind.value} does not match "
                    f"attribute {attr.name!r} ({attr.kind.value})")
            key = (c.source, c.item)
            if key in seen:
                raise LoadError(f"duplicate claim by {c.source!r} on "
                                f"({c.item.object_id!r}, "
                                f"{c.item.attribute!r})")
            seen.add(key)
            by_item.setdefault(c.item, []).append(c)
            by_source.setdefault(c.source, []).append(c)
        self.claims = tuple(
            sorted(claim_list,
                   key=lambda c: (c.item.sort_key(), c.source)))
        self.by_item = {
            it: tuple(sorted(cs, key=lambda c: c.source))
            for it, cs in by_item.items()}
        self.by_source = {
            s: tuple(sorted(cs, key=lambda c: c.item.sort_key()))
            for s, cs in by_source.items()}
        self.sources = tuple(sorted(by_source))
        self.items = tuple(
            sorted(by_item, key=lambda it: it.sort_key()))
        self.object_ids = tuple(
            sorted({it.object_id for it in self.items}))


def ref_load_claims(path, schema, snapshot_label=None, delimiter=","):
    claims: list[Claim] = []
    seen: set[tuple[str, DataItem]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != CLAIM_HEADER:
            raise LoadError(f"{path}: expected header "
                            f"{','.join(CLAIM_HEADER)!r}")
        for lineno, row in enumerate(reader, 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise LoadError(f"{path}:{lineno}: expected 4 columns, "
                                f"got {len(row)}")
            source, obj, attr_name, raw = (f.strip() for f in row)
            if not source:
                raise LoadError(f"{path}:{lineno}: source id must be "
                                f"non-empty")
            attr = schema.get(attr_name)
            if attr is None:
                raise LoadError(f"{path}:{lineno}: unknown attribute "
                                f"{attr_name!r}")
            item = DataItem(obj, attr_name)
            if (source, item) in seen:
                raise LoadError(f"{path}:{lineno}: duplicate claim by "
                                f"{source!r} on ({obj!r}, {attr_name!r})")
            seen.add((source, item))
            try:
                value = normalize_value(raw, attr.kind)
            except ValueParseError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from exc
            claims.append(Claim(source, item, value))
    label = snapshot_label if snapshot_label is not None else Path(path).stem
    return RefClaimSet(label, schema, claims)


def ref_load_gold(path, claims, delimiter=","):
    entries: dict[DataItem, Value] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != GOLD_HEADER:
            raise LoadError(f"{path}: expected header "
                            f"{','.join(GOLD_HEADER)!r}")
        for lineno, row in enumerate(reader, 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise LoadError(f"{path}:{lineno}: expected 3 columns, "
                                f"got {len(row)}")
            obj, attr_name, raw = (f.strip() for f in row)
            attr = claims.schema.get(attr_name)
            if attr is None:
                raise LoadError(f"{path}:{lineno}: unknown attribute "
                                f"{attr_name!r}")
            item = DataItem(obj, attr_name)
            if item in entries:
                raise LoadError(f"{path}:{lineno}: duplicate gold row for "
                                f"({obj!r}, {attr_name!r})")
            try:
                entries[item] = normalize_value(raw, attr.kind)
            except ValueParseError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from exc
    orphans = sum(1 for item in entries if item not in claims.by_item)
    return GoldStandard(entries=entries, orphan_count=orphans)


# -- fixtures -----------------------------------------------------------------

# "8M", "8000000", "8,000,000", "$8M" (and "8000000.0") on one item in
# both source orders; am/pm and 24-hour times; text differing in case; quoted fields
# with commas; padded whitespace; blank lines; "12" as a number and as a
# text; a negative column.
HAND_CLAIMS = """source,object,attribute,value
s1,AAPL,volume,8M
s2,AAPL,volume,8000000
s3,AAPL,volume,"8,000,000"
s4,AAPL,volume,$8M
s5,AAPL,volume,8000000.0

s4,MSFT,volume,8M
s3,MSFT,volume,8000000
" s2 ","  MSFT"," volume ","  8,000,000  "
s1,MSFT,volume,  $8M

s1,AAPL,depart,10:30 pm
s2,AAPL,depart,22:30
s3,AAPL,depart,10:30PM
s4,AAPL,depart,11:55 p.m.
s1,MSFT,depart,00:05
s2,MSFT,depart,12:05 am
s1,AAPL,gate,"Gate A, North"
s2,AAPL,gate,"gate a, north"
s3,AAPL,gate,"  GATE A, NORTH "
s4,AAPL,gate,12
s1,AAPL,change,-0.07
s2,AAPL,change,-.07
s3,AAPL,change,12
s4,AAPL,change,-7%
s2,MSFT,change,1.2e-1
s3,MSFT,change,+0.10
"""

HAND_GOLD = """object,attribute,value
AAPL,volume,"7,528,396"

MSFT,volume,8.0M
AAPL,depart,10:30 PM
AAPL,gate," Gate A, North"
AAPL,change,-0.07
ORCL,change,-0.07
"""


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def assert_same(got: ClaimSet, want: ClaimSet):
    assert type(want) is RefClaimSet
    assert got.snapshot_label == want.snapshot_label
    assert got.schema == want.schema
    assert claims_of(got) == want.claims
    assert ([(c.value.granularity, math.copysign(1.0, c.value.num))
             for c in claims_of(got)]
            == [(c.value.granularity, math.copysign(1.0, c.value.num))
                for c in want.claims])
    assert len(got) == len(want.claims)
    assert by_item(got) == want.by_item
    assert by_source(got) == want.by_source
    assert got.items == want.items
    assert got.sources == want.sources
    assert got.object_ids == want.object_ids


def assert_same_gold(got: GoldStandard, want: GoldStandard):
    assert got == want
    assert list(got.entries) == list(want.entries)
    assert ([v.granularity for v in got.entries.values()]
            == [v.granularity for v in want.entries.values()])


@pytest.fixture
def hand(tmp_path):
    (tmp_path / "hand").mkdir()
    return (write(tmp_path / "hand" / "claims.csv", HAND_CLAIMS),
            write(tmp_path / "hand" / "gold.csv", HAND_GOLD))


@pytest.fixture
def synthetic(tmp_path):
    spec = SyntheticSpec(
        n_sources=8, n_items=40,
        attributes=(SyntheticAttribute("volume", Kind.NUMBER, 0.01),
                    SyntheticAttribute("depart", Kind.TIME_OF_DAY, 10.0),
                    SyntheticAttribute("gate", Kind.TEXT)),
        accuracies=(0.9, 0.8, 0.7, 0.6, 0.6, 0.5, 0.5, 0.4),
        coverage=(1.0, 1.0, 0.9, 0.8, 0.8, 0.7, 0.6, 0.5),
        copier_groups=(CopierGroup(("s07", "s08"), "s06", 0.8),),
        false_pool=5)
    claims, gold, _ = generate_synthetic(spec, seed=17)
    out = tmp_path / "synthetic"
    out.mkdir()
    write_claims(claims, out / "claims.csv")
    write_gold(gold, out / "gold.csv")
    return claims.schema, out / "claims.csv", out / "gold.csv"


# -- equal results ------------------------------------------------------------


def test_hand_made_file_loads_as_before(hand):
    claims_p, gold_p = hand
    got = load_claims(claims_p, SCHEMA)
    want = ref_load_claims(claims_p, SCHEMA)
    assert_same(got, want)
    assert len(got) == 25
    volumes = {str(c.value.granularity) for c in claims_of(got)
               if c.item.attribute == "volume"}
    assert volumes == {"1000000.0", "0.1"}
    assert_same_gold(load_gold(gold_p, got), ref_load_gold(gold_p, want))


def test_synthetic_snapshot_loads_as_before(synthetic):
    schema, claims_p, gold_p = synthetic
    got = load_claims(claims_p, schema, snapshot_label="day1")
    want = ref_load_claims(claims_p, schema, snapshot_label="day1")
    assert_same(got, want)
    assert_same_gold(load_gold(gold_p, got), ref_load_gold(gold_p, want))


def test_restrict_indexes_as_before(synthetic):
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    keep = claims.sources[::3]
    want = RefClaimSet(claims.snapshot_label, schema,
                       [c for c in claims_of(claims) if c.source in keep])
    assert_same(claims.restrict(keep), want)


def test_restrict_on_every_source_prefix_indexes_as_before(synthetic):
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    for k in range(len(claims.sources) + 1):
        keep = [*claims.sources[:k], "ghost"]
        want = RefClaimSet(claims.snapshot_label, schema,
                           [c for c in claims_of(claims) if c.source in keep])
        got = claims.restrict(keep)
        assert_same(got, want)
        assert got.values is claims.values    # one shared value table
        assert_same(got.restrict(keep[1:]), RefClaimSet(
            claims.snapshot_label, schema,
            [c for c in claims_of(claims) if c.source in keep[1:]]))


@pytest.mark.parametrize("make", [synthetic_snapshot, edge_snapshot,
                                  copier_snapshot])
def test_claimsets_of_claims_index_as_before(tmp_path, make):
    """A ClaimSet built from rows, and the same snapshot written and
    loaded again, against the reference index; values keep their
    granularity and the sign of a zero."""
    claims, _ = make()
    rows = list(claims_of(claims))
    want = RefClaimSet(claims.snapshot_label, claims.schema, rows)
    assert_same(claims, want)
    assert_same(claim_set(claims.snapshot_label, claims.schema, rows[::-1]),
                want)
    write_claims(claims, tmp_path / "claims.csv")
    assert_same(load_claims(tmp_path / "claims.csv", claims.schema, "x"),
                ref_load_claims(tmp_path / "claims.csv", claims.schema, "x"))


def test_claimset_in_any_input_order(synthetic):
    # Distinct but equal DataItems per claim, in reversed file order.
    schema, claims_p, _ = synthetic
    rows = [Claim(c.source, DataItem(c.item.object_id, c.item.attribute),
                  c.value) for c in claims_of(load_claims(claims_p, schema))]
    rows.reverse()
    assert_same(claim_set("x", schema, rows), RefClaimSet("x", schema, rows))


def test_one_data_item_per_item(hand):
    claims = load_claims(hand[0], SCHEMA)
    assert len({id(c.item) for c in claims_of(claims)}) == len(claims.items)


# -- identical errors ---------------------------------------------------------

HEADER = "source,object,attribute,value\n"
MALFORMED_CLAIMS = {
    "bad header": "source,object,attr,value\ns1,o1,volume,5\n",
    "empty file": "",
    "blank first line": "\n" + HEADER + "s1,o1,volume,5\n",
    "column count": HEADER + "s1,o1,volume,5\n\ns2,o1,volume\n",
    "unknown attribute": HEADER + "s1,o1,volume,5\ns1,o1,price,5\n",
    "duplicate": HEADER + "s1,o1,volume,5\n s1 ,o1, volume,6\n",
    "spelling valid for another attribute":
        HEADER + "s1,o1,depart,10:30\ns2,o1,depart,10:30\n"
                 "s1,o1,volume,5\ns2,o1,volume,10:30\n",
    "bad spelling after good ones":
        HEADER + "s1,o1,volume,5\ns2,o1,volume,5\ns3,o1,volume,5x\n",
    "empty value": HEADER + "s1,o1,volume,5\ns2,o1,volume,  \n",
    "duplicate before bad value":
        HEADER + "s1,o1,volume,5\ns1,o1,volume,??\n",
    "unknown attribute before bad value": HEADER + "s1,o1,price,??\n",
    "column count before unknown attribute": HEADER + "s1,o1,price\n",
    "empty source": HEADER + "s1,o1,volume,5\n ,o1,volume,6\n",
    "empty source after a duplicate":
        HEADER + " ,o1,volume,5\ns1,o1,volume,5\ns1,o1,volume,6\n",
    "bad value before duplicate":
        HEADER + "s1,o1,volume,5x\ns1,o1,volume,5\ns1,o1,volume,5\n",
    "duplicate before column count":
        HEADER + "s1,o1,volume,5\n\ns1,o1,volume,5\ns2,o1\n",
    "column count before duplicate":
        HEADER + "s1,o1,volume,5\ns2,o1\ns1,o1,volume,5\n",
    "duplicate before unknown attribute":
        HEADER + "s1,o1,volume,5\ns1,o1,volume,5\ns1,o1,price,5\n",
    "second duplicate after the first":
        HEADER + "s1,o1,volume,5\ns2,o1,volume,5\ns2,o1,volume,6\n"
                 "s1,o1,volume,7\n",
}


def error_of(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(MALFORMED_CLAIMS))
def test_malformed_claims_fail_as_before(tmp_path, case):
    path = write(tmp_path / "claims.csv", MALFORMED_CLAIMS[case])
    got = error_of(load_claims, path, SCHEMA)
    assert got == error_of(ref_load_claims, path, SCHEMA)
    assert got[0] is LoadError


def test_duplicate_names_its_line(tmp_path):
    path = write(tmp_path / "claims.csv", MALFORMED_CLAIMS["duplicate"])
    with pytest.raises(LoadError, match=r"claims\.csv:3: duplicate claim"):
        load_claims(path, SCHEMA)


GOLD_HEAD = "object,attribute,value\n"
MALFORMED_GOLD = {
    "bad header": "object,attribute\no1,volume,5\n",
    "column count": GOLD_HEAD + "o1,volume,5,6\n",
    "unknown attribute": GOLD_HEAD + "o1,price,5\n",
    "duplicate": GOLD_HEAD + "o1,volume,5\no1 ,volume,5\n",
    "spelling valid for another attribute":
        GOLD_HEAD + "o1,depart,10:30\no1,volume,10:30\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GOLD))
def test_malformed_gold_fails_as_before(tmp_path, hand, case):
    claims = load_claims(hand[0], SCHEMA)
    path = write(tmp_path / "gold_bad.csv", MALFORMED_GOLD[case])
    got = error_of(load_gold, path, claims)
    assert got == error_of(ref_load_gold, path, claims)
    assert got[0] is LoadError


ITEM = DataItem("o1", "volume")
FIVE = Value.number(5.0)
MALFORMED_SETS = {
    "empty source": [Claim("s1", ITEM, FIVE), Claim("", ITEM, FIVE)],
    "unknown attribute": [Claim("s1", DataItem("o1", "price"), FIVE)],
    "kind mismatch": [Claim("s1", ITEM, Value.of_text("5"))],
    "duplicate": [Claim("s1", ITEM, FIVE), Claim("s2", ITEM, FIVE),
                  Claim("s1", DataItem("o1", "volume"), Value.number(6))],
    "duplicate before unknown attribute": [
        Claim("s1", ITEM, FIVE), Claim("s1", ITEM, FIVE),
        Claim("s1", DataItem("o1", "price"), FIVE)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SETS))
def test_malformed_claim_sets_fail_as_before(case):
    """In the loader's words; the error's ``row`` is the first failing row:
    the rows before it build, and with it they fail the same way."""
    rows = MALFORMED_SETS[case]
    got = error_of(claim_set, "x", SCHEMA, rows)
    assert got == error_of(RefClaimSet, "x", SCHEMA, rows)
    with pytest.raises(got[0]) as info:
        claim_set("x", SCHEMA, rows)
    row = info.value.row
    assert len(claim_set("x", SCHEMA, rows[:row])) == row
    assert error_of(claim_set, "x", SCHEMA, rows[:row + 1]) == got


def test_claim_columns_take_coded_values():
    """The loader's form: each row's code into a table of values."""
    cols = claim_columns(SCHEMA, ["s1", "s2", "s1"], ["o1", "o1", "o2"],
                         ["volume"] * 3, [1, 1, 0], [FIVE, Value.number(6)])
    claims = ClaimSet("x", SCHEMA, cols)
    assert [(c.source, c.item.object_id, c.value.num)
            for c in claims_of(claims)] == [("s1", "o1", 6.0),
                                            ("s2", "o1", 6.0),
                                            ("s1", "o2", 5.0)]
    with pytest.raises(KindMismatchError) as info:
        claim_columns(SCHEMA, ["s1", "s2"], ["o1", "o1"], ["volume"] * 2,
                      [0, 1], [FIVE, Value.of_text("5")])
    assert info.value.row == 1


# -- values that compare equal stay apart -------------------------------------

COARSE, FINE = Value.number(8e6, 1e6), Value.number(8e6, 1.0)
EQUAL_VALUES = {
    "granularity": [
        ("s1", "o1", "volume", COARSE), ("s2", "o1", "volume", FINE),
        ("s3", "o1", "volume", Value.number(7.6e6, 1.0)),
        ("s1", "o2", "volume", FINE), ("s2", "o2", "volume", COARSE)],
    "sign of zero": [
        ("s1", "o1", "change", Value.number(-0.0, 1.0)),
        ("s2", "o1", "change", Value.number(0.0, 0.1)),
        ("s3", "o1", "change", Value.number(0.4, 0.01)),
        ("s1", "o2", "change", Value.number(0.0, 1.0)),
        ("s2", "o2", "change", Value.number(-0.0, 1.0))],
}


def ref_format_pairs(ref: RefClaimSet) -> set:
    """(source, item, finer value) of each claim whose value subsumes a
    different value another source claims on its item."""
    return {(c.source, c.item, d.value.num)
            for c in ref.claims for d in ref.by_item[c.item]
            if d.value != c.value
            and subsumes(c.value, d.value, ref.schema[c.item.attribute])}


@pytest.mark.parametrize("case", sorted(EQUAL_VALUES))
def test_rows_keep_equal_values_apart(case):
    """``Value.__eq__`` ignores granularity and the sign of zero; a snapshot
    of rows keeps each row's value, so its keys, granularities and format
    pairs are those of the reference built from the same claims."""
    rows = EQUAL_VALUES[case]
    claims = ClaimSet("x", SCHEMA, claim_columns(SCHEMA, *zip(*rows)))
    want = RefClaimSet("x", SCHEMA, [Claim(s, DataItem(o, a), v)
                                     for s, o, a, v in rows])
    assert_same(claims, want)
    row_value = claims.claim_value
    assert (claims.value_gran[row_value].tolist()
            == [c.value.granularity for c in want.claims])
    assert (claims.value_key[row_value].tolist()
            == [c.value.num for c in want.claims])
    assert (np.signbit(claims.value_key[row_value]).tolist()
            == [math.copysign(1.0, c.value.num) < 0 for c in want.claims])
    engine = FusionEngine(claims, load_config().fusion)
    source = engine.vsrc_source[engine.claim_vsrc]
    got = {(claims.sources[source[k]], engine.items[engine.claim_item[k]],
            engine.cand_values[c].num)
           for k, c in zip(engine.fmt_claim.tolist(),
                           engine.fmt_cand.tolist())}
    assert got == ref_format_pairs(want) != set()


def test_generated_snapshot_is_its_rows_column_for_column(monkeypatch):
    """``generate_synthetic``'s snapshot holds each row's own ``Value``
    object, one table entry per object, as the reference over its rows."""
    rows = []

    def capture(schema, *cols):
        rows.extend(zip(*cols))
        return claim_columns(schema, *cols)

    monkeypatch.setattr("truthfuse.synthetic.claim_columns", capture)
    claims, _ = synthetic_snapshot()
    want = RefClaimSet(claims.snapshot_label, claims.schema,
                       [Claim(s, DataItem(o, a), v) for s, o, a, v in rows])
    assert_same(claims, want)
    got = [claims.values[v] for v in claims.claim_value.tolist()]
    assert all(g is c.value for g, c in zip(got, want.claims, strict=True))
    assert len(claims.values) == len({id(v) for *_, v in rows})
    assert len(set(claims.values)) < len(claims.values)   # equal, kept apart


# -- each distinct spelling parsed once ---------------------------------------


def distinct_spellings(path: Path) -> set[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if len(r) > 1][1:]
    return {(r[-2].strip(), r[-1].strip()) for r in rows}


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []

    def counting(raw, kind):
        calls.append((raw, kind))
        return normalize_value(raw, kind)

    monkeypatch.setattr(dataio, "normalize_value", counting)
    return calls


def test_each_distinct_spelling_is_parsed_once(hand, synthetic, parse_calls):
    for schema, claims_p, gold_p in ((SCHEMA, *hand), synthetic):
        for _ in range(2):      # the memo lives for one load only
            parse_calls.clear()
            claims = load_claims(claims_p, schema)
            spellings = distinct_spellings(claims_p)
            assert len(parse_calls) == len(spellings) < len(claims)
            assert ({(raw, kind) for raw, kind in parse_calls}
                    == {(raw, schema[a].kind) for a, raw in spellings})
            parse_calls.clear()
            load_gold(gold_p, claims)
            assert len(parse_calls) == len(distinct_spellings(gold_p))


# -- writing: every table goes through write_rows ----------------------------


def ref_write(path: Path, header, rows, delimiter: str) -> None:
    """The csv.writer loop each writer ran on its own before it called
    ``write_rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


@pytest.mark.parametrize("delimiter", [",", ";"])
def test_writers_write_what_their_own_loops_wrote(tmp_path, hand, delimiter):
    claims = load_claims(hand[0], SCHEMA)
    gold = load_gold(hand[1], claims)
    trust = {s: 1.0 / (k + 3) for k, s in enumerate(claims.sources)}
    per_attr = {(s, a): 0.25 * k for k, (s, a) in enumerate(
        (s, a) for s in claims.sources for a in sorted(SCHEMA))}
    cases = [
        (write_claims, claims, CLAIM_HEADER,
         [[c.source, c.item.object_id, c.item.attribute, str(c.value)]
          for c in claims_of(claims)]),
        (write_gold, gold, GOLD_HEADER,
         [[it.object_id, it.attribute, str(gold.entries[it])]
          for it in sorted(gold.entries, key=DataItem.sort_key)]),
        (dataio.write_trust, trust, ["source", "trust"],
         [[s, format(trust[s], ".12g")] for s in sorted(trust)]),
        (dataio.write_trust, per_attr, ["source", "attribute", "trust"],
         [[s, a, format(per_attr[s, a], ".12g")] for s, a in sorted(per_attr)]),
    ]
    for k, (writer, obj, header, rows) in enumerate(cases):
        writer(obj, tmp_path / f"got{k}.csv", delimiter)
        ref_write(tmp_path / f"want{k}.csv", header, rows, delimiter)
        assert ((tmp_path / f"got{k}.csv").read_bytes()
                == (tmp_path / f"want{k}.csv").read_bytes())


# -- no per-claim objects -----------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """The arguments of every ``DataItem`` built while the test runs: one
    per item or gold row is the loaders' share, so a layer that builds
    objects claim by claim shows as more than that."""
    calls = []
    init = model.DataItem.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.DataItem, "__init__", counting)
    return calls


def test_fuse_and_copydetect_build_no_claim(tmp_path, synthetic, built):
    """Nor do ``profile`` (with a snapshot series), ``compare`` and
    ``evaluate``: every layer reads the snapshot's columns, and only the
    loaders build items, one per item and gold row."""
    schema, claims_p, gold_p = synthetic
    write_schema(schema, tmp_path / "schema.csv")
    base = ["--claims", str(claims_p), "--schema",
            str(tmp_path / "schema.csv"), "--out", str(tmp_path / "out")]
    claims = load_claims(claims_p, schema)
    loaded = {"claims": len(built)}
    load_gold(gold_p, claims)
    loaded["gold"] = len(built) - loaded["claims"]
    for argv, claim_loads, gold_loads in (
            (["fuse", "--method", "Vote"], 1, 0),
            (["fuse", "--method", "AccuFormatAttr"], 1, 0),
            (["fuse", "--method", "AccuCopy"], 1, 0),
            (["copydetect", "--gold", str(gold_p)], 1, 1),
            (["profile", "--gold", str(gold_p),
              "--snapshot", f"{claims_p}:{gold_p}"], 2, 2),
            (["compare", "--gold", str(gold_p), "--methods", "all"], 1, 1),
            (["evaluate", "--gold", str(gold_p),
              "--method", "AccuCopyAttr"], 1, 1)):
        built.clear()
        assert cli.main([*argv, *base]) == 0
        assert len(built) == (claim_loads * loaded["claims"]
                              + gold_loads * loaded["gold"]), argv
    assert loaded["claims"] == len(claims.items) < len(claims)


def test_majority_gold_and_write_claims_build_no_claim(tmp_path, synthetic,
                                                        built):
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    built.clear()
    gold = model.majority_gold(claims.sources[:5], claims, min_providers=2)
    write_claims(claims, tmp_path / "claims.csv")
    write_claims(claims.restrict(claims.sources[2:]), tmp_path / "view.csv")
    assert built == [] and len(gold) > 0
    assert (tmp_path / "claims.csv").read_bytes() == claims_p.read_bytes()


def test_bucketize_and_providers_build_no_claim(synthetic, built):
    """``bucketize``'s providers are the item's rows of the source column."""
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    built.clear()
    taus = tolerances(claims)
    for k, item in enumerate(claims.items):
        buckets = bucketize(item, claims, taus[item.attribute])
        rows = slice(*claims.item_start[k:k + 2])
        assert (sorted(s for b in buckets for s in b.providers)
                == sorted(claims.sources[s]
                          for s in claims.claim_source[rows].tolist()))
    assert built == []


GONE = {"Claim", "_columns_of", "providers", "by_item", "by_source"}


def names_the_claim_layer(node, scope) -> bool:
    """A definition, import or attribute of a name of the claim object
    layer, or any other use of ``Claim`` or ``_columns_of``: local
    variables named ``providers`` (and ``Bucket``'s field) may stay."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name in GONE
    if isinstance(node, ast.alias):
        return node.name in GONE
    if isinstance(node, ast.Attribute):
        return node.attr in GONE
    return isinstance(node, ast.Name) and node.id in {"Claim", "_columns_of"}


def test_src_reads_no_claim_objects():
    """Snapshots are columns everywhere: no module of ``src/`` names the
    ``Claim`` object layer, and the package does not export ``Claim``."""
    assert nodes_in_src(names_the_claim_layer) == []
    assert not hasattr(truthfuse, "Claim") and not hasattr(model, "Claim")
    assert not hasattr(ClaimSet, "providers")
