"""The distance rule of ``normalize``: keys, offsets, match widths and
similarity per value kind, the one place that says when two values are
the same. Its two known defects (ROADMAP item 1) are pinned here as strict
expected failures, through ``values_match`` and through the engine's gold
match alike; and a source check keeps the rule out of the other modules."""

from __future__ import annotations

import ast
import math

import numpy as np
import pytest

from truthfuse.config import FusionConfig, load_config
from truthfuse.fusion import FusionEngine, MethodSpec, run_fusion
from truthfuse.metrics import profile_items
from truthfuse.model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    KindMismatchError,
    Value,
    fold_text,
)
from truthfuse.normalize import (
    bucketize,
    key_offset,
    key_similarity,
    keys_match,
    match_width,
    similarity,
    tolerances,
    value_keys,
    values_match,
)

from conftest import EDGE_SCHEMA, SRC, edge_snapshot, nodes_in_src

CFG = load_config().fusion
ITEM_1 = "ROADMAP item 1: the distance rule does not follow the paper yet"


def engine_claims(engine, item):
    """The engine's claims on ``item``, as {source: claim index}."""
    names = [engine.claims.sources[s] for s in
             engine.vsrc_source[engine.claim_vsrc].tolist()]
    at = engine.items.index(item)
    return {names[k]: k for k in np.flatnonzero(engine.claim_item == at)}


# -- the rule ------------------------------------------------------------------


def test_text_keys_are_codes_of_the_folded_spelling():
    values = [Value(Kind.TEXT, text="B2"), Value.number(3.5),
              Value(Kind.TEXT, text="a1"), Value(Kind.TEXT, text="A1"),
              Value.time(605)]
    keys, spellings = value_keys(values)
    assert spellings == ["a1", "b2"]
    assert keys.tolist() == [1.0, 3.5, 0.0, 0.0, 605.0]
    keys, same = value_keys([Value(Kind.TEXT, text="C3"), values[0]],
                            spellings)
    assert same is spellings
    assert math.isnan(keys[0]) and keys[1] == 1.0


def test_offsets_widths_and_similarity():
    price = AttributeSpec("price", Kind.NUMBER, 0.01)
    depart = AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0)
    gate = AttributeSpec("gate", Kind.TEXT)
    assert key_offset(np.array([3.0, 1.0]), 2.0).tolist() == [1.0, -1.0]
    assert [match_width(a, 0.5) for a in (price, depart, gate)] == [
        0.5, 10.0, None]
    assert keys_match(np.array([1.0, 1.0, 1.0]), np.array([1.5, 1.6, np.nan]),
                      0.5).tolist() == [True, False, False]
    x, y = np.array([10.0, 10.0, 10.0, 0.0]), np.array([12.0, 10.0, 30.0, 1.0])
    span = np.array([4.0, -1.0, 4.0, np.nan])
    assert key_similarity(x, y, span, ["ab", "abc"]).tolist() == [
        0.5, 1.0, 0.0, similarity(Value.of_text("ab"), Value.of_text("abc"),
                                  gate)]
    assert similarity(Value.number(10.0), Value.number(12.0), price,
                      FusionConfig(sim_decay_width_multiplier=4.0),
                      tau=1.0) == 0.5


def test_text_is_folded_once_for_keys_matching_and_similarity():
    """Hand-built spellings that differ in case or surrounding space have
    one key and match with similarity 1, as their ``Value.of_text`` forms
    (what loaded data holds) are equal."""
    gate = EDGE_SCHEMA["gate"]
    padded, plain = Value(Kind.TEXT, text=" A "), Value(Kind.TEXT, text="a")
    assert fold_text(" A b ") == Value.of_text(" A b ").text == "a b"
    keys, spellings = value_keys([padded, plain, Value(Kind.TEXT, text="a ")])
    assert spellings == ["a"] and keys.tolist() == [0.0, 0.0, 0.0]
    assert values_match(padded, plain, gate)
    assert similarity(padded, plain, gate) == 1.0
    assert similarity(Value(Kind.TEXT, text=" ab"), Value.of_text("abc"),
                      gate) == similarity(Value.of_text("ab"),
                                          Value.of_text("abc"), gate)


def test_vote_and_dominant_break_a_padded_tie_alike():
    """" b" against "a", one provider each: the engine orders candidates
    by the folded spelling, so Vote and the profile's dominant value both
    pick "a"; "a " and "A" share one bucket."""
    tie, same = DataItem("o1", "gate"), DataItem("o2", "gate")
    claims = ClaimSet("padded", EDGE_SCHEMA, [
        Claim(s, item, Value(Kind.TEXT, text=t)) for s, item, t in (
            ("s1", tie, " b"), ("s2", tie, "a"),
            ("s1", same, "a "), ("s2", same, "A"))])
    vote = run_fusion(MethodSpec("vote"), claims, load_config())
    profiles = profile_items(claims)
    assert vote.selected[tie] == profiles[tie].dominant == Value.of_text("a")
    assert [b.provider_count for b in bucketize(same, claims)] == [2]
    assert profiles[same].num_values == 1


def test_gold_match_refuses_a_truth_of_another_kind():
    """A number truth on a text item is an error, as in ``values_match``,
    not a match of whichever spelling has the code 0."""
    claims, gold = edge_snapshot()
    item = DataItem("o1", "gate")
    engine = FusionEngine(claims, CFG)
    with pytest.raises(KindMismatchError):
        values_match(Value.number(0.0), gold.entries[item],
                     claims.attribute_of(item))
    with pytest.raises(KindMismatchError):
        engine.gold_match({**gold.entries, item: Value.number(0.0)})
    with pytest.raises(KindMismatchError):
        engine.gold_match({DataItem("o1", "depart"): Value.number(0.0)})
    engine.gold_match(gold.entries)


# -- the two known defects, pinned ---------------------------------------------


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_a_value_matches_itself_under_a_negative_median():
    """The edge snapshot's ``change`` column has a negative median, so tau
    is negative and no value matches even itself."""
    claims, gold = edge_snapshot()
    item = DataItem("o1", "change")
    truth = gold.entries[item]
    assert values_match(truth, truth, claims.schema["change"],
                        tolerances(claims)["change"])
    engine = FusionEngine(claims, CFG)
    match = engine.gold_match(gold.entries)
    own = engine_claims(engine, item)
    # s1 and s2 claim exactly the gold value -0.50.
    assert match.claim[[own["s1"], own["s2"]]].all()
    assert match.cand[engine.claim_cand[own["s1"]]]


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_times_across_midnight_are_ten_minutes_apart():
    """23:55 and 00:05 lie ten minutes apart on the clock, within a
    10-minute tolerance; the rule counts 1430 linear minutes."""
    depart = EDGE_SCHEMA["depart"]
    late, early = Value.time(23 * 60 + 55), Value.time(5)
    assert values_match(late, early, depart)
    item = DataItem("f1", "depart")
    claims = ClaimSet("midnight", EDGE_SCHEMA, [
        Claim("s1", item, late), Claim("s2", item, early)])
    engine = FusionEngine(claims, CFG)
    match = engine.gold_match(GoldStandard({item: early}).entries)
    assert match.claim.all() and match.cand.all()


# -- the rule lives in normalize only; engines are built in one place ---------


@pytest.mark.parametrize("module", ["fusion", "copydetect", "metrics",
                                    "evalharness", "cli"])
def test_modules_leave_the_rule_to_normalize(module):
    """No text folding, grid width or tolerance parameter outside the
    rule: these modules call ``normalize`` for them."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "casefold"):
            found.append(f"line {node.lineno}: .casefold(")
        if isinstance(node, ast.Attribute) and node.attr == "tolerance_param":
            found.append(f"line {node.lineno}: .tolerance_param")
        if isinstance(node, ast.ImportFrom) and any(
                a.name == "bucket_width" for a in node.names):
            found.append(f"line {node.lineno}: imports bucket_width")
    assert not found, found


def calls_in_src(names) -> list[tuple[str, str | None]]:
    """(module, enclosing "Class.function") of each call in ``src/`` to a
    function or method named in ``names``."""
    return nodes_in_src(lambda node, scope: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in names
        or getattr(node.func, "attr", None) in names))


def test_engines_are_built_only_in_engine_for():
    """``FusionEngine(`` is called in ``src/`` only inside
    ``fusion.engine_for``: one engine per snapshot, and Attr runs take its
    view."""
    calls = calls_in_src({"FusionEngine"})
    assert calls == [("fusion", "engine_for")], calls


def test_claims_are_bucketed_only_by_the_engine():
    """The bucketing rule runs in ``src/`` only when an engine is built;
    ``bucketize`` is public API that nothing in ``src/`` calls."""
    calls = calls_in_src({"claim_keys", "bucket_claims"})
    assert sorted(set(calls)) == [("fusion", "FusionEngine.__init__"),
                                  ("normalize", "bucketize")], calls
    assert calls_in_src({"bucketize"}) == []
