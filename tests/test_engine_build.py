"""The engine's array build against the per-item loops it replaced.

``ref_*`` below are the loops ``FusionEngine.__init__``,
``_build_similarity``, ``_build_format_pairs`` and ``bucketize`` ran
before the build became array code; the engine must reproduce their
arrays exactly, in the same order, on fixtures with the value domains
the paper's data has.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

import truthfuse.fusion as fusion
import truthfuse.normalize as normalize
from truthfuse.config import load_config
from truthfuse.copydetect import group_commonality
from truthfuse.fusion import FusionEngine
from truthfuse.model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    Kind,
    Value,
)
from truthfuse.normalize import (
    bucket_width,
    bucketize,
    normalize_value,
    similarity,
    subsumes,
    tolerance,
    tolerances,
)

CFG = load_config().fusion

SCHEMA = {a.name: a for a in (
    AttributeSpec("price", Kind.NUMBER, 0.01),
    AttributeSpec("volume", Kind.NUMBER, 0.01),
    AttributeSpec("change", Kind.NUMBER, 0.05),
    AttributeSpec("delta", Kind.NUMBER, 0.05),
    AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0),
    AttributeSpec("gate", Kind.TEXT, 0.0),
)}


def claims_from(rows) -> ClaimSet:
    """rows: (source, object, attribute, raw spelling) tuples."""
    return ClaimSet("snap", SCHEMA, [
        Claim(s, DataItem(o, a), normalize_value(raw, SCHEMA[a].kind))
        for s, o, a, raw in rows])


def edge_claims() -> ClaimSet:
    rows = [
        # Negative-median attribute: tau < 0, so buckets are exact values.
        ("s1", "o1", "change", "-1.5"), ("s2", "o1", "change", "-1.5"),
        ("s3", "o1", "change", "-1.6"), ("s4", "o1", "change", "-3"),
        ("s1", "o2", "change", "-0.4"), ("s2", "o2", "change", "0.2"),
        # Times either side of midnight.
        ("s1", "o1", "depart", "23:55"), ("s2", "o1", "depart", "00:05"),
        ("s3", "o1", "depart", "23:50"), ("s4", "o1", "depart", "11:55 pm"),
        ("s5", "o1", "depart", "00:20"),
        # Text differing only in case, and a near-miss spelling.
        ("s1", "o1", "gate", "A12"), ("s2", "o1", "gate", "a12"),
        ("s3", "o1", "gate", "B12"), ("s4", "o1", "gate", "b7"),
        # A dominant-value tie (10 and 12 twice each) and near-misses.
        ("s1", "o1", "price", "10"), ("s2", "o1", "price", "10"),
        ("s3", "o1", "price", "12"), ("s4", "o1", "price", "12"),
        ("s5", "o1", "price", "10.05"), ("s6", "o1", "price", "11.5"),
        # 8e6 spelled at three granularities, "8M" first and last in
        # source order, with finer values.
        ("s1", "o1", "volume", "8M"), ("s2", "o1", "volume", "8000000.0"),
        ("s3", "o1", "volume", "7528396"), ("s4", "o1", "volume", "7.5M"),
        ("s5", "o1", "volume", "8400000"), ("s6", "o1", "volume", "8000000"),
        ("s1", "o2", "volume", "8000000.0"), ("s2", "o2", "volume", "8M"),
        ("s3", "o2", "volume", "7528396"), ("s4", "o2", "volume", "7.53M"),
        ("s6", "o2", "volume", "7,600,000"),
        # Median 0: tau = 0, so buckets are exact and similarity is
        # equality.
        ("s1", "o1", "delta", "0"), ("s2", "o1", "delta", "0"),
        ("s3", "o1", "delta", "0.5"), ("s4", "o1", "delta", "-0.5"),
        ("s5", "o1", "delta", "0.9"),
        # Signed zeros: "-0" is the anchor, on a grid and exactly.
        ("s1", "o4", "price", "-0"), ("s2", "o4", "price", "-0"),
        ("s3", "o4", "price", "0"), ("s4", "o4", "price", "0.04"),
        ("s1", "o3", "change", "-0"), ("s2", "o3", "change", "0"),
        # Single-claim items of every kind.
        ("s1", "o3", "price", "5.25"), ("s2", "o3", "depart", "07:00"),
        ("s3", "o3", "gate", "C1"), ("s4", "o3", "volume", "3M"),
    ]
    return claims_from(rows)


def random_claims(seed: int, n_sources=9, n_objects=14) -> ClaimSet:
    """Seeded mix of exact, near-miss, coarse and wrong spellings."""
    rng = random.Random(seed)
    rows = []
    for o in range(n_objects):
        truth = {"price": rng.uniform(5, 500),
                 "volume": rng.randrange(1_000_000, 90_000_000),
                 "change": rng.uniform(-3, 0.5),
                 "depart": rng.choice([5, 20, 600, 1425, 1435]),
                 "gate": rng.choice(["A1", "B2", "C3"])}
        for s in range(n_sources):
            for a, t in truth.items():
                if rng.random() < 0.15:
                    continue
                rows.append((f"s{s}", f"o{o}", a, spell(rng, a, t)))
    return claims_from(rows)


def spell(rng: random.Random, attr: str, t) -> str:
    r = rng.random()
    if attr == "gate":
        return t.lower() if r < 0.3 else (t if r < 0.8 else "Z9")
    if attr == "depart":
        m = (t + rng.choice([0, 0, 0, 5, -5, 15, 45])) % 1440
        return f"{m // 60:02d}:{m % 60:02d}"
    if attr == "volume":
        if r < 0.25:
            return f"{round(t / 1e6)}M"
        if r < 0.4:
            return f"{t / 1e6:.1f}M"
        if r < 0.5:
            return f"{round(t, -5):.0f}"
        return f"{t + rng.choice([0, 0, 1, 50_000, 2_000_000])}"
    x = t * rng.choice([1, 1, 1, 1.002, 0.97, 1.3])
    return f"{x:.1f}" if r < 0.2 else f"{x:.2f}"


FIXTURES = {"edge": edge_claims, "random-1": lambda: random_claims(1),
            "random-2": lambda: random_claims(2)}


# -- the loops the array build replaced ----------------------------------------


def ref_bucketize(item, claims, tau):
    """(centre, half width, members, providers) per bucket, as the loop
    computed them."""
    item_claims = claims.by_item[item]
    attr = claims.attribute_of(item)
    if attr.kind is Kind.TEXT:
        groups = {}
        for c in item_claims:
            groups.setdefault(c.value.text, []).append(c)
        return [(Value.of_text(text), 0.0,
                 tuple(sorted({c.value for c in cs}, key=Value.sort_key)),
                 tuple(sorted(c.source for c in cs)))
                for text, cs in sorted(groups.items())]
    counts = {}
    for c in item_claims:
        counts[c.value.num] = counts.get(c.value.num, 0) + 1
    anchor = min(counts, key=lambda v: (-counts[v], v))
    width = bucket_width(attr, tau)
    groups = {}
    for c in item_claims:
        if width > 0:
            k = math.ceil((c.value.num - anchor) / width - 0.5)
            groups.setdefault(anchor + k * width, []).append(c)
        else:
            groups.setdefault(c.value.num, []).append(c)
    out = []
    for x in sorted(groups):
        cs = groups[x]
        centre = (Value.number(x) if attr.kind is Kind.NUMBER
                  else Value(Kind.TIME_OF_DAY, num=x))
        out.append((centre, width / 2.0,
                    tuple(sorted({c.value for c in cs}, key=Value.sort_key)),
                    tuple(sorted(c.source for c in cs))))
    return out


def ref_engine(claims, per_attribute, config):
    """The arrays of the loop-built engine."""
    taus = {a: tolerance(claims.schema[a], scan(claims, a))
            if claims.schema[a].kind is Kind.NUMBER
            else (claims.schema[a].tolerance_param
                  if claims.schema[a].kind is Kind.TIME_OF_DAY else None)
            for a in sorted({it.attribute for it in claims.items})}

    def vkey(c):
        return (c.source, c.item.attribute) if per_attribute else c.source

    vsrc_list = sorted({vkey(c) for c in claims.claims})
    vsrc_index = {k: i for i, k in enumerate(vsrc_list)}
    cand_values, cand_members, cand_item, item_start = [], [], [], [0]
    claim_vsrc, claim_cand = [], []
    for ii, it in enumerate(claims.items):
        for centre, _, members, _ in ref_bucketize(it, claims,
                                                   taus[it.attribute]):
            ci = len(cand_values)
            cand_values.append(centre)
            cand_members.append(members)
            cand_item.append(ii)
            member_set = set(members)
            for c in claims.by_item[it]:
                if c.value in member_set:
                    claim_vsrc.append(vsrc_index[vkey(c)])
                    claim_cand.append(ci)
        item_start.append(len(cand_values))
    n_cands = len(cand_values)

    sim_i, sim_j, sim_w = [], [], []
    for ii, it in enumerate(claims.items):
        lo, hi = item_start[ii], item_start[ii + 1]
        attr = claims.attribute_of(it)
        for i in range(lo, hi):
            for j in range(lo, hi):
                if i != j:
                    s = similarity(cand_values[i], cand_values[j], attr,
                                   config, taus[attr.name])
                    if s > 0.0:
                        sim_i.append(i)
                        sim_j.append(j)
                        sim_w.append(s)

    fmt_claim, fmt_cand = [], []
    for k, own in enumerate(claim_cand):
        ii = cand_item[own]
        attr = claims.attribute_of(claims.items[ii])
        if attr.kind is not Kind.NUMBER:
            continue
        vk = vsrc_list[claim_vsrc[k]]
        source = vk[0] if per_attribute else vk
        coarse = next(c.value for c in claims.by_item[claims.items[ii]]
                      if c.source == source)
        if coarse.granularity is None:
            continue
        for cand in range(item_start[ii], item_start[ii + 1]):
            if cand != own and any(subsumes(coarse, m, attr)
                                   for m in cand_members[cand]):
                fmt_claim.append(k)
                fmt_cand.append(cand)
    return {
        "vsrc_list": vsrc_list, "cand_values": cand_values,
        "cand_members": cand_members, "n_cands": n_cands,
        "cand_item": np.asarray(cand_item, dtype=np.int64),
        "item_start": np.asarray(item_start[:-1], dtype=np.int64),
        "claim_vsrc": np.asarray(claim_vsrc, dtype=np.int64),
        "claim_cand": np.asarray(claim_cand, dtype=np.int64),
        "sim_i": np.asarray(sim_i, dtype=np.int64),
        "sim_j": np.asarray(sim_j, dtype=np.int64),
        "sim_w": np.asarray(sim_w, dtype=float),
        "fmt_claim": np.asarray(fmt_claim, dtype=np.int64),
        "fmt_cand": np.asarray(fmt_cand, dtype=np.int64),
    }


def scan(claims, attribute):
    """An attribute's claimed numbers, by a scan of all claims."""
    return [c.value.num for c in claims.claims
            if c.item.attribute == attribute]


def value_bits(v: Value):
    return (v.kind, np.float64(v.num).tobytes(), v.text)


def gran_of(v: Value) -> float:
    return v.granularity or 0.0


# -- tests -------------------------------------------------------------------


@pytest.fixture(params=sorted(FIXTURES))
def claims(request):
    return FIXTURES[request.param]()


@pytest.mark.parametrize("per_attribute", [False, True])
def test_arrays_equal_the_loops(claims, per_attribute):
    """The engine, and its per-attribute view, against the loop built
    with either flag."""
    eng = FusionEngine(claims, CFG).scoped(per_attribute)
    assert eng.per_attribute == per_attribute
    ref = ref_engine(claims, per_attribute, eng.cfg)
    assert eng.vsrc_list == ref["vsrc_list"] and eng.n_vsrc == len(
        ref["vsrc_list"])
    assert [claims.sources[s] for s in eng.vsrc_source.tolist()] == [
        vk[0] if per_attribute else vk for vk in ref["vsrc_list"]]
    assert eng.src_nvals.tolist() == np.bincount(
        ref["claim_vsrc"], minlength=eng.n_vsrc).astype(float).tolist()
    assert eng.vsrc_segs.start.tolist() == [0]
    assert eng.n_cands == ref["n_cands"]
    assert ([value_bits(v) for v in eng.cand_values]
            == [value_bits(v) for v in ref["cand_values"]])
    for name in ("cand_item", "item_start", "claim_vsrc", "claim_cand",
                 "sim_i", "sim_j", "sim_w", "fmt_claim", "fmt_cand"):
        got = getattr(eng, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert eng.taus == tolerances(claims)


def test_fixtures_exercise_every_path():
    eng = FusionEngine(edge_claims(), CFG)
    kinds = {eng.claims.attribute_of(eng.items[i]).kind
             for i in eng.cand_item[eng.sim_i].tolist()}
    assert kinds == {Kind.NUMBER, Kind.TIME_OF_DAY, Kind.TEXT}
    assert eng.fmt_claim.size > 0
    assert eng.taus["change"] < 0 and eng.taus["delta"] == 0
    # "a12" and "A12" are one bucket; 23:55 and 00:05 are not.
    gate = [v.text for v in eng.cand_values if v.kind is Kind.TEXT]
    assert gate.count("a12") == 1
    depart = eng.items.index(DataItem("o1", "depart"))
    assert eng.item_ncand[depart] == 4
    for fx in ("random-1", "random-2"):
        e = FusionEngine(FIXTURES[fx](), CFG)
        assert e.sim_i.size > 0 and e.fmt_claim.size > 0


def test_bucketize_is_the_engine_rule(claims):
    """One rule: each item's buckets are the engine's candidates, and both
    equal the loop's buckets."""
    eng = FusionEngine(claims, CFG)
    m_cand, m_key, m_gran = eng.cand_members()
    for ii, item in enumerate(eng.items):
        tau = eng.taus[item.attribute]
        buckets = bucketize(item, claims, tau)
        ref = ref_bucketize(item, claims, tau)
        lo = int(eng.item_start[ii])
        cands = range(lo, lo + len(buckets))
        assert int(eng.item_ncand[ii]) == len(buckets)
        assert [(value_bits(b.center), b.half_width, b.members, b.providers)
                for b in buckets] == [(value_bits(c), h, m, p)
                                      for c, h, m, p in ref]
        for b, r, ci in zip(buckets, ref, cands):
            assert ([v.granularity for v in b.members]
                    == [v.granularity for v in r[2]])
            assert value_bits(b.center) == value_bits(eng.cand_values[ci])
            claims_in = np.flatnonzero(eng.claim_cand == ci)
            sources = [eng.vsrc_list[v] for v in
                       eng.claim_vsrc[claims_in].tolist()]
            assert b.provider_count == len(sources)
            assert b.providers == tuple(sorted(sources))
            mine = m_cand == ci
            if b.center.kind is Kind.TEXT:
                assert b.members == (b.center,) and mine.sum() == 1
                continue
            assert [v.num for v in b.members] == m_key[mine].tolist()
            assert [gran_of(v) for v in b.members] == m_gran[mine].tolist()


@pytest.mark.parametrize("first", ["8M", "8000000.0"])
def test_member_granularity_is_the_first_providers(first):
    second = "8000000.0" if first == "8M" else "8M"
    claims = claims_from([("s1", "o1", "volume", first),
                          ("s2", "o1", "volume", second),
                          ("s3", "o1", "volume", "7528396")])
    eng = FusionEngine(claims, CFG)
    (b8,) = [b for b in bucketize(DataItem("o1", "volume"), claims,
                                  eng.taus["volume"])
             if b.provider_count == 2]
    want = normalize_value(first, Kind.NUMBER).granularity
    assert b8.members[0].granularity == want
    m_cand, m_key, m_gran = eng.cand_members()
    assert m_gran[m_key == 8e6].tolist() == [want]
    # Only the "8M" claim subsumes 7528396, whichever source gave it.
    coarse = [eng.vsrc_list[int(eng.claim_vsrc[k])]
              for k in eng.fmt_claim.tolist()]
    assert coarse == ["s1" if first == "8M" else "s2"]


def test_numeric_and_time_build_makes_no_per_pair_calls(monkeypatch):
    calls = {"similarity": 0, "edit_similarity": 0, "subsumes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (normalize, fusion):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod,
                                                                     name)))
    rows = [r for r in random_claims(3).claims
            if r.item.attribute != "gate"]
    claims = ClaimSet("snap", SCHEMA, rows)
    eng = FusionEngine(claims, CFG)
    eng.scoped(True)
    assert eng.sim_i.size > 0 and eng.fmt_claim.size > 0
    assert set(calls.values()) == {0}
    # The counters see calls: text pairs still go one by one, on the
    # snapshot's folded spellings, with no scalar ``similarity``.
    FusionEngine(random_claims(3), CFG)
    assert calls["edit_similarity"] > 0 and calls["similarity"] == 0


def test_tolerances_equal_the_per_attribute_scans(claims):
    want = {}
    for name in sorted({it.attribute for it in claims.items}):
        attr = claims.schema[name]
        want[name] = (tolerance(attr, scan(claims, name))
                      if attr.kind is Kind.NUMBER
                      else attr.tolerance_param
                      if attr.kind is Kind.TIME_OF_DAY else None)
    got = tolerances(claims)
    assert list(got) == list(want)
    assert [np.float64(v).tobytes() if v is not None else None
            for v in got.values()] == [
        np.float64(v).tobytes() if v is not None else None
        for v in want.values()]


def test_group_commonality_with_given_tolerances(claims):
    group = claims.sources[:4]
    assert (group_commonality(group, claims, taus=tolerances(claims))
            == group_commonality(group, claims))


def test_similarity_params_reach_the_pairs():
    claims = edge_claims()
    wide = FusionEngine(claims, CFG)
    config = dataclasses.replace(CFG, sim_decay_width_multiplier=2.0,
                                 sim_time_zero_at=5.0)
    ref = ref_engine(claims, False, config)
    narrow = FusionEngine(claims, config)
    assert narrow.sim_i.size < wide.sim_i.size
    assert np.array_equal(narrow.sim_w, ref["sim_w"])
    assert np.array_equal(narrow.sim_i, ref["sim_i"])
