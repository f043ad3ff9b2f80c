"""``profile`` reads one engine per snapshot: item profiles and conflict
rows against the per-item bucketing they replaced, and the engines and
bucketings a ``profile`` run makes."""

from __future__ import annotations

import dataclasses

import pytest

import truthfuse.cli as cli
import truthfuse.normalize as normalize
from truthfuse import dataio
from truthfuse.config import load_config
from truthfuse.fusion import FusionEngine, FusionError, engine_for
from truthfuse.metrics import (
    ItemProfile,
    deviation,
    dominant,
    entropy,
    profile_items,
)
from truthfuse.model import DataItem, UndefinedDeviationError
from truthfuse.normalize import bucketize, tolerances

from conftest import copier_snapshot, edge_snapshot, synthetic_snapshot

CFG = load_config().fusion
SNAPSHOTS = {"edge": edge_snapshot, "copier": copier_snapshot,
             "synthetic": synthetic_snapshot}


def ref_profile_items(claims):
    """Per-item ``bucketize`` and the Bucket-level formulas: the loop
    ``profile_items`` ran before it read an engine's candidates."""
    taus = tolerances(claims)
    out = {}
    for item in claims.items:
        buckets = bucketize(item, claims, taus[item.attribute])
        v0, factor = dominant(buckets)
        try:
            dev = deviation(buckets, claims.attribute_of(item).kind)
        except (ValueError, UndefinedDeviationError):
            dev = None
        ranked = sorted(buckets, key=lambda b: (-b.provider_count,
                                                b.center.sort_key()))
        out[item] = ItemProfile(
            item=item,
            provider_count=sum(b.provider_count for b in buckets),
            num_values=len(buckets),
            entropy=entropy(buckets),
            deviation=dev,
            dominant=v0,
            dominance_factor=factor,
            runners_up=tuple(b.center for b in ranked[1:]),
        )
    return out


def ref_conflict_rows(claims):
    """The ``conflicts.csv`` rows of the per-item bucketing."""
    taus = tolerances(claims)
    rows = []
    for it in sorted(claims.items, key=DataItem.sort_key):
        buckets = bucketize(it, claims, taus[it.attribute])
        if len(buckets) > 1:
            rows += [(it.object_id, it.attribute, str(b.center),
                      ";".join(b.providers)) for b in buckets]
    return rows


@pytest.fixture(params=["toy5", *SNAPSHOTS])
def claims(request):
    if request.param == "toy5":
        return request.getfixturevalue("toy5")
    return SNAPSHOTS[request.param]()[0]


def assert_same_profiles(got, want):
    assert list(got) == list(want)
    for item, p in want.items():
        assert got[item] == p
        assert type(got[item].provider_count) is int
        assert [v.kind for v in got[item].runners_up] == [
            v.kind for v in p.runners_up]


def test_profile_items_equal_the_per_item_bucketing(claims):
    assert_same_profiles(profile_items(claims), ref_profile_items(claims))


def test_profile_items_take_an_engine_of_any_constants(claims):
    other = dataclasses.replace(CFG, rho=0.2, w_fmt=0.0, alpha=0.05,
                                sim_time_zero_at=15.0)
    engine = engine_for(claims, other)
    assert_same_profiles(profile_items(claims, engine),
                         ref_profile_items(claims))


def test_profile_items_refuse_an_engine_over_other_claims(claims):
    engine = FusionEngine(copier_snapshot()[0], CFG)
    with pytest.raises(FusionError):
        profile_items(claims, engine)


def test_conflict_rows_equal_the_per_item_bucketing(claims):
    assert cli._conflict_rows(FusionEngine(claims, CFG)) == (
        ref_conflict_rows(claims))


# -- one engine and no bucketize per snapshot --------------------------------


@pytest.fixture
def counts(monkeypatch):
    """Claim sets engines are built over, and ``bucketize`` calls."""
    built, bucketized = [], []
    real_init = FusionEngine.__init__

    def init(self, claims, *args, **kwargs):
        built.append(claims)
        real_init(self, claims, *args, **kwargs)

    def counted(*args, **kwargs):
        bucketized.append(args)
        return real_bucketize(*args, **kwargs)

    real_bucketize = normalize.bucketize
    monkeypatch.setattr(FusionEngine, "__init__", init)
    for module in (normalize, cli, cli.metrics, cli.evalharness):
        if hasattr(module, "bucketize"):
            monkeypatch.setattr(module, "bucketize", counted)
    return built, bucketized


def _write(tmp_path, snapshots):
    files = []
    for k, (c, g) in enumerate(snapshots):
        dataio.write_claims(c, tmp_path / f"claims{k}.csv")
        dataio.write_gold(g, tmp_path / f"gold{k}.csv")
        files.append((tmp_path / f"claims{k}.csv", tmp_path / f"gold{k}.csv"))
    dataio.write_schema(snapshots[0][0].schema, tmp_path / "schema.csv")
    return files


def test_profile_builds_one_engine_per_snapshot(tmp_path, counts):
    built, bucketized = counts
    files = _write(tmp_path, [copier_snapshot(), synthetic_snapshot(),
                              copier_snapshot()])
    base = ["profile", "--claims", str(files[0][0]),
            "--schema", str(tmp_path / "schema.csv")]
    assert cli.main([*base, "--gold", str(files[0][1]),
                     *[f"--snapshot={c}:{g}" for c, g in files[1:]],
                     "--out", str(tmp_path / "series")]) == 0
    # The primary is scored once though it is also the series' first entry.
    assert len(built) == len({id(c) for c in built}) == 3
    assert bucketized == []
    del built[:]
    assert cli.main([*base, "--out", str(tmp_path / "plain")]) == 0
    assert len(built) == 1 and bucketized == []
    # The same items and conflicts with gold and without.
    for name in ("items.csv", "conflicts.csv", "attributes.csv"):
        assert ((tmp_path / "series" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
