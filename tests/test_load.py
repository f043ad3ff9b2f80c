"""Loading a snapshot: the one-pass columnar loader and the ClaimSet
columns, with ``claims``, ``by_item`` and ``by_source`` built on demand,
against the row-by-row loader and the per-index sorts they replaced."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest

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
from truthfuse.model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    KindMismatchError,
    LoadError,
    Value,
    ValueParseError,
)
from truthfuse.normalize import normalize_value
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

from conftest import copier_snapshot, edge_snapshot, synthetic_snapshot

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
                raise LoadError(f"claim references unknown attribute "
                                f"{c.item.attribute!r}")
            if attr.kind is not c.value.kind:
                raise KindMismatchError(
                    f"value kind {c.value.kind.value} does not match "
                    f"attribute {attr.name!r} ({attr.kind.value})")
            key = (c.source, c.item)
            if key in seen:
                raise LoadError(f"duplicate claim by source {c.source!r} "
                                f"on item {c.item}")
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
    assert got.claims == want.claims
    assert ([(c.value.granularity, math.copysign(1.0, c.value.num))
             for c in got.claims]
            == [(c.value.granularity, math.copysign(1.0, c.value.num))
                for c in want.claims])
    assert len(got) == len(want.claims)
    assert got.by_item == want.by_item
    assert got.by_source == want.by_source
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
    volumes = {str(c.value.granularity) for c in got.claims
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
                       [c for c in claims.claims if c.source in keep])
    assert_same(claims.restrict(keep), want)


def test_restrict_on_every_source_prefix_indexes_as_before(synthetic):
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    for k in range(len(claims.sources) + 1):
        keep = [*claims.sources[:k], "ghost"]
        want = RefClaimSet(claims.snapshot_label, schema,
                           [c for c in claims.claims if c.source in keep])
        got = claims.restrict(keep)
        assert_same(got, want)
        assert got.values is claims.values    # one shared value table
        assert_same(got.restrict(keep[1:]), RefClaimSet(
            claims.snapshot_label, schema,
            [c for c in claims.claims if c.source in keep[1:]]))


@pytest.mark.parametrize("make", [synthetic_snapshot, edge_snapshot,
                                  copier_snapshot])
def test_claimsets_of_claims_index_as_before(tmp_path, make):
    """A ClaimSet built from ``Claim``s, and the same snapshot written and
    loaded again, against the reference index; values keep their
    granularity and the sign of a zero."""
    claims, _ = make()
    rows = list(claims.claims)
    want = RefClaimSet(claims.snapshot_label, claims.schema, rows)
    assert_same(claims, want)
    assert_same(ClaimSet(claims.snapshot_label, claims.schema, rows[::-1]),
                want)
    write_claims(claims, tmp_path / "claims.csv")
    assert_same(load_claims(tmp_path / "claims.csv", claims.schema, "x"),
                ref_load_claims(tmp_path / "claims.csv", claims.schema, "x"))


def test_claimset_in_any_input_order(synthetic):
    # Distinct but equal DataItems per claim, in reversed file order.
    schema, claims_p, _ = synthetic
    rows = [Claim(c.source, DataItem(c.item.object_id, c.item.attribute),
                  c.value) for c in load_claims(claims_p, schema).claims]
    rows.reverse()
    assert_same(ClaimSet("x", schema, rows), RefClaimSet("x", schema, rows))


def test_one_data_item_per_item(hand):
    claims = load_claims(hand[0], SCHEMA)
    assert len({id(c.item) for c in claims.claims}) == len(claims.items)


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
    rows = MALFORMED_SETS[case]
    assert (error_of(ClaimSet, "x", SCHEMA, rows)
            == error_of(RefClaimSet, "x", SCHEMA, rows))


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
          for c in claims.claims]),
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


# -- no Claim objects on the CLI paths -----------------------------------------


def test_fuse_and_copydetect_build_no_claim(tmp_path, synthetic,
                                             monkeypatch):
    """Nor do ``profile`` (with a snapshot series), ``compare`` and
    ``evaluate``: every layer reads the snapshot's columns."""
    schema, claims_p, gold_p = synthetic
    write_schema(schema, tmp_path / "schema.csv")
    built = []
    init = model.Claim.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Claim, "__init__", counting)
    base = ["--claims", str(claims_p), "--schema",
            str(tmp_path / "schema.csv"), "--out", str(tmp_path / "out")]
    for argv in (["fuse", "--method", "Vote"],
                 ["fuse", "--method", "AccuFormatAttr"],
                 ["fuse", "--method", "AccuCopy"],
                 ["copydetect", "--gold", str(gold_p)],
                 ["profile", "--gold", str(gold_p),
                  "--snapshot", f"{claims_p}:{gold_p}"],
                 ["compare", "--gold", str(gold_p), "--methods", "all"],
                 ["evaluate", "--gold", str(gold_p),
                  "--method", "AccuCopyAttr"]):
        assert cli.main([*argv, *base]) == 0
    assert built == []
    # The counter sees the claims a caller asks for.
    assert len(load_claims(claims_p, schema).claims) == len(built) > 0


def test_majority_gold_and_write_claims_build_no_claim(tmp_path, synthetic,
                                                        monkeypatch):
    schema, claims_p, _ = synthetic
    claims = load_claims(claims_p, schema)
    built = []
    init = model.Claim.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Claim, "__init__", counting)
    gold = model.majority_gold(claims.sources[:5], claims, min_providers=2)
    write_claims(claims, tmp_path / "claims.csv")
    write_claims(claims.restrict(claims.sources[2:]), tmp_path / "view.csv")
    assert built == [] and len(gold) > 0
    assert (tmp_path / "claims.csv").read_bytes() == claims_p.read_bytes()
    assert len(claims.claims) == len(built) > 0
