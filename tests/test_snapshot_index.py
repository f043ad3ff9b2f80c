"""The snapshot index: each item's attribute and object, and each value's
key, coded once per snapshot by ``ClaimSet`` and shared by its
``restrict``ed views, against the per-item derivations every layer used
to run for itself (``ref_*``)."""

from __future__ import annotations

import numpy as np
import pytest

from truthfuse.dataio import load_claims, write_claims, write_schema
from truthfuse.model import ClaimSet, Kind, fold_text, value_keys
from truthfuse.normalize import match_width, tolerance, tolerances

from conftest import (
    claims_of,
    copier_snapshot,
    edge_snapshot,
    make_claims,
    synthetic_snapshot,
)


def ref_attributes(claims: ClaimSet):
    """The sorted attributes with claims, and each item's position there."""
    names = sorted({it.attribute for it in claims.items})
    return tuple(names), [names.index(it.attribute) for it in claims.items]


def ref_objects(claims: ClaimSet):
    """The objects in item order, and each item's position there."""
    objects = tuple(dict.fromkeys(it.object_id for it in claims.items))
    return objects, [objects.index(it.object_id) for it in claims.items]


def ref_table_keys(claims: ClaimSet):
    """Each claim's key, and the spellings its text keys index, from the
    values its claims use (``normalize.table_keys`` as it was)."""
    code = claims.claim_value
    used = np.flatnonzero(np.bincount(code, minlength=len(claims.values)))
    keys, spellings = value_keys([claims.values[k] for k in used.tolist()])
    at = np.zeros(len(claims.values))
    at[used] = keys
    return at[code], spellings


def ref_tolerances(claims: ClaimSet):
    """τ per attribute from a scan of every claim of it."""
    out = {}
    for name in sorted({it.attribute for it in claims.items}):
        attr = claims.schema[name]
        out[name] = (tolerance(attr, [c.value.num for c in claims_of(claims)
                                      if c.item.attribute == name])
                     if attr.kind is Kind.NUMBER
                     else match_width(attr, None))
    return out


def _loaded(tmp_path_factory, make):
    claims, _ = make()
    d = tmp_path_factory.mktemp("snap")
    write_schema(claims.schema, d / "schema.csv")
    write_claims(claims, d / "claims.csv")
    return load_claims(d / "claims.csv", claims.schema)


def _toy5():
    """``conftest.toy5``: three sources say 10.0, two say 12.0."""
    return make_claims([(f"s{k}", "o1", "price", x) for k, x in
                        enumerate([10.0, 10.0, 10.0, 12.0, 12.0], 1)]), None


SNAPSHOTS = {"toy5": _toy5, "edge": edge_snapshot,
             "synthetic": synthetic_snapshot, "copier": copier_snapshot}


def snapshots(tmp_path_factory, name):
    """The snapshot built from ``Claim``s and loaded from its file."""
    return [SNAPSHOTS[name]()[0],
            _loaded(tmp_path_factory, SNAPSHOTS[name])]


def prefixes(claims: ClaimSet):
    """The snapshot and every prefix of its sources, and of those again."""
    out = [claims]
    for k in range(1, len(claims.sources)):
        sub = claims.restrict(claims.sources[:k])
        out += [sub, sub.restrict(sub.sources[1:])]
    return out


def _claim_keys(claims: ClaimSet, keys, spellings):
    """Each claim's key as the distance rule reads it: the number or
    minutes, or the folded spelling its text code names."""
    text = [claims.schema[claims.attributes[a]].kind is Kind.TEXT
            for a in claims.item_attr[claims.claim_item].tolist()]
    return [spellings[int(k)] if t else k
            for k, t in zip(keys.tolist(), text)]


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_item_codes_equal_per_item_derivations(tmp_path_factory, name):
    for whole in snapshots(tmp_path_factory, name):
        for claims in prefixes(whole):
            names, codes = ref_attributes(claims)
            assert claims.attributes == names
            assert claims.item_attr.tolist() == codes
            objects, codes = ref_objects(claims)
            assert claims.object_ids == objects
            assert claims.item_object.tolist() == codes
            assert claims.item_attr.dtype == claims.item_object.dtype \
                == np.int64


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_value_keys_equal_per_engine_keys(tmp_path_factory, name):
    """A claim's key names the same number, minutes or spelling as the
    engine's own keying did, and text codes keep their order."""
    for whole in snapshots(tmp_path_factory, name):
        assert whole.spellings == sorted({
            fold_text(v.text) for v in whole.values if v.kind is Kind.TEXT})
        for claims in prefixes(whole):
            got = claims.value_key[claims.claim_value]
            ref, spellings = ref_table_keys(claims)
            assert (_claim_keys(claims, got, claims.spellings)
                    == _claim_keys(claims, ref, spellings))
            text = np.isin(claims.item_attr[claims.claim_item], [
                k for k, a in enumerate(claims.attributes)
                if claims.schema[a].kind is Kind.TEXT])
            assert (np.unique(got[text], return_inverse=True)[1].tolist()
                    == np.unique(ref[text], return_inverse=True)[1].tolist())
            assert claims.value_gran.tolist() == [
                v.granularity or 0.0 for v in claims.values]


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_tolerances_equal_per_claim_scan(tmp_path_factory, name):
    for whole in snapshots(tmp_path_factory, name):
        for claims in prefixes(whole):
            got, want = tolerances(claims), ref_tolerances(claims)
            assert list(got) == list(want) == list(claims.attributes)
            assert got == want


def test_restrict_shares_the_value_table(tmp_path_factory):
    for claims in snapshots(tmp_path_factory, "synthetic"):
        sub = claims.restrict(claims.sources[:2])
        for view in (sub, sub.restrict(sub.sources[1:])):
            for name in ("values", "value_key", "value_gran", "spellings"):
                assert getattr(view, name) is getattr(claims, name), name


def test_a_prefix_drops_attributes_and_objects_without_claims():
    claims, _ = edge_snapshot()
    seen = set()
    for k in range(1, len(claims.sources) + 1):
        sub = claims.restrict(claims.sources[:k])
        seen.add((len(sub.attributes), len(sub.object_ids)))
        assert set(sub.attributes) == {it.attribute for it in sub.items}
        assert set(sub.object_ids) == {it.object_id for it in sub.items}
        assert (np.bincount(sub.item_attr).min() > 0
                and np.bincount(sub.item_object).min() > 0)
    assert len(seen) > 1
    alone = claims.restrict(["s5"])     # o1's volume, o4's change and gate
    assert alone.attributes == ("change", "gate", "volume")
    assert alone.object_ids == ("o1", "o4")
    assert alone.item_attr.tolist() == [2, 0, 1]
    assert alone.item_object.tolist() == [0, 1, 1]
    assert list(tolerances(alone)) == ["change", "gate", "volume"]
