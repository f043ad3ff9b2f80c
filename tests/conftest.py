"""Shared fixtures and small dataset builders."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from truthfuse.config import load_config
from truthfuse.fusion import clamp_trust
from truthfuse.model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    Value,
)
from truthfuse.synthetic import (
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

NUMBER = AttributeSpec("price", Kind.NUMBER, 0.01)
TIME = AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0)
TEXT = AttributeSpec("gate", Kind.TEXT, 0.0)

SCHEMA = {a.name: a for a in (NUMBER, TIME, TEXT)}
SRC = Path(__file__).resolve().parents[1] / "src" / "truthfuse"


def nodes_in_src(match) -> list[tuple[str, str | None]]:
    """(module, enclosing "Class.function") of each node of the syntax trees
    of ``src/`` that ``match(node, scope)`` accepts."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if match(child, scope):
                found.append((module, scope))
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def ref_trust_from_posteriors(engine, post):
    """The accuracy family's trust update, written out for the references:
    each virtual source's mean posterior over its claims, clamped."""
    return clamp_trust(engine._group_sum(post[engine.claim_cand])
                       / engine.src_nvals, engine.cfg)


def value_for(attr: AttributeSpec, raw) -> Value:
    if attr.kind is Kind.NUMBER:
        return Value.number(float(raw))
    if attr.kind is Kind.TIME_OF_DAY:
        return Value.time(int(raw))
    return Value.of_text(str(raw))


def make_claims(rows, label="snap", schema=None) -> ClaimSet:
    """rows: (source, object_id, attribute_name, raw_value) tuples."""
    schema = schema or SCHEMA
    claims = []
    for source, obj, attr_name, raw in rows:
        attr = schema[attr_name]
        claims.append(Claim(source, DataItem(obj, attr_name),
                            value_for(attr, raw)))
    return ClaimSet(label, schema, claims)


def make_gold(rows, schema=None) -> GoldStandard:
    """rows: (object_id, attribute_name, raw_value) tuples."""
    schema = schema or SCHEMA
    entries = {}
    for obj, attr_name, raw in rows:
        attr = schema[attr_name]
        entries[DataItem(obj, attr_name)] = value_for(attr, raw)
    return GoldStandard(entries=entries)


@pytest.fixture
def config():
    return load_config()


@pytest.fixture
def toy5():
    """One numeric item, five sources: three say 10.0, two say 12.0."""
    return make_claims([
        ("s1", "o1", "price", 10.0),
        ("s2", "o1", "price", 10.0),
        ("s3", "o1", "price", 10.0),
        ("s4", "o1", "price", 12.0),
        ("s5", "o1", "price", 12.0),
    ])


# -- snapshots shared by the differential tests ------------------------------


def copier_snapshot():
    """Nine sources over 30 objects with a price, a departure time and a
    gate. Sources 7-9 copy source 6 (which is often wrong); false prices
    are near misses inside the similarity window or coarse spellings that
    subsume a finer value, so similarity and format credit both apply."""
    rng = random.Random(11)
    accuracy = {f"s{i}": a for i, a in enumerate(
        (0.95, 0.9, 0.85, 0.8, 0.7, 0.45), start=1)}
    claims = []
    truth = {}
    for o in range(30):
        obj = f"o{o:02d}"
        price = 100.0 + 7.3 * o
        depart = (37 * o) % 1380
        gate = f"g{o % 9}"
        truth[DataItem(obj, "price")] = Value.number(price)
        truth[DataItem(obj, "depart")] = Value.time(depart)
        truth[DataItem(obj, "gate")] = Value.of_text(gate)
        own = {}
        for s, acc in accuracy.items():
            ok = rng.random() < acc
            if ok:
                p = Value.number(price)
            elif rng.random() < 0.5:
                p = Value.number(price + rng.choice((-1, 1))
                                 * rng.uniform(3.0, 9.0))
            else:
                p = Value.number(round(price, -1), granularity=10.0)
            own[s] = (p,
                      Value.time(depart if ok or rng.random() < 0.3
                                 else (depart + rng.choice((15, 30, 45)))
                                 % 1440),
                      Value.of_text(gate if ok else f"x{rng.randrange(3)}"))
        own.update({c: own["s6"] for c in ("s7", "s8", "s9")})
        for s, (p, d, g) in own.items():
            if rng.random() < 0.9:
                claims.append(Claim(s, DataItem(obj, "price"), p))
                claims.append(Claim(s, DataItem(obj, "depart"), d))
                claims.append(Claim(s, DataItem(obj, "gate"), g))
    return ClaimSet("shared", SCHEMA, claims), GoldStandard(truth)


def synthetic_snapshot():
    """A seeded synthetic snapshot with a number, a time and a text
    attribute, and a gold standard thinned to every other item so that
    coverage is partial."""
    spec = SyntheticSpec(
        n_sources=7, n_items=24,
        attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),
                    SyntheticAttribute("depart", Kind.TIME_OF_DAY, 10.0),
                    SyntheticAttribute("gate", Kind.TEXT, 0.0)),
        accuracies=(0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.3),
        coverage=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4),
        false_pool=4)
    claims, gold, _ = generate_synthetic(spec, seed=5)
    thinned = dict(sorted(gold.entries.items(),
                          key=lambda kv: kv[0].sort_key())[::2])
    return claims, GoldStandard(thinned)


EDGE_SCHEMA = {a.name: a for a in (
    AttributeSpec("change", Kind.NUMBER, 0.05),
    AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0),
    AttributeSpec("gate", Kind.TEXT, 0.0),
    AttributeSpec("volume", Kind.NUMBER, 0.01))}


def _v(attr: str, raw) -> Value:
    kind = EDGE_SCHEMA[attr].kind
    if kind is Kind.NUMBER:
        return Value.number(raw)
    if kind is Kind.TIME_OF_DAY:
        return Value.time(raw)
    # Built directly, not case-folded, so that spellings differ in case.
    return Value(Kind.TEXT, text=raw)


def edge_snapshot():
    """Hand-made edge cases: a ``change`` column with a negative median
    (negative tolerance), departures near 00:00 and 23:55, gates that
    differ only in case, a source (s5) with no gold overlap, an attribute
    (``volume``) with no gold item, and gold items no claim covers."""
    rows = [
        ("s1", "o1", "change", -0.50), ("s2", "o1", "change", -0.50),
        ("s3", "o1", "change", -0.52), ("s4", "o1", "change", 0.10),
        ("s1", "o2", "change", -1.20), ("s2", "o2", "change", -1.10),
        ("s3", "o2", "change", -1.20),
        ("s1", "o3", "change", -0.30), ("s4", "o3", "change", -0.30),
        ("s1", "o1", "depart", 0), ("s2", "o1", "depart", 1435),
        ("s3", "o1", "depart", 5), ("s4", "o1", "depart", 0),
        ("s1", "o2", "depart", 1435), ("s2", "o2", "depart", 1439),
        ("s3", "o2", "depart", 10), ("s4", "o2", "depart", 1425),
        ("s1", "o3", "depart", 720), ("s3", "o3", "depart", 731),
        ("s1", "o1", "gate", "A1"), ("s2", "o1", "gate", "a1"),
        ("s3", "o1", "gate", "B2"), ("s4", "o1", "gate", "A1"),
        ("s1", "o2", "gate", "c3"), ("s2", "o2", "gate", "C3"),
        ("s3", "o2", "gate", "c3"),
        ("s1", "o1", "volume", 1000.0), ("s2", "o1", "volume", 1004.0),
        ("s3", "o1", "volume", 1100.0), ("s5", "o1", "volume", 1000.0),
        ("s5", "o4", "change", -0.70), ("s5", "o4", "gate", "Z9"),
    ]
    claims = ClaimSet("edge", EDGE_SCHEMA, [
        Claim(s, DataItem(o, a), _v(a, x)) for s, o, a, x in rows])
    gold = GoldStandard({DataItem(o, a): _v(a, x) for o, a, x in [
        ("o1", "change", -0.50), ("o2", "change", -1.20),
        ("o3", "change", -0.30),
        ("o1", "depart", 0), ("o2", "depart", 1439), ("o3", "depart", 725),
        ("o1", "gate", "a1"), ("o2", "gate", "C3"),
        ("o9", "change", -2.0), ("o9", "gate", "x"), ("o8", "depart", 60),
    ]})
    return claims, gold
