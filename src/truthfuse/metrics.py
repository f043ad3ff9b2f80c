"""Consistency and quality profiling: redundancy, entropy, deviation,
dominant values, source accuracy, and their evolution across snapshots.

All computations are pure functions over immutable snapshots; per-item
profiles are independent of claim order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import (
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    UndefinedDeviationError,
    Value,
)
from .normalize import (Bucket, bucketize, bucketize_items, tolerances,
                        values_match)


@dataclass(frozen=True)
class ItemProfile:
    """Per-item consistency measures over tolerance buckets."""

    item: DataItem
    provider_count: int
    num_values: int
    entropy: float
    deviation: float | None
    dominant: Value
    dominance_factor: float
    runners_up: tuple[Value, ...]


@dataclass(frozen=True)
class SourceProfile:
    """Per-source quality: accuracy vs. gold, gold coverage, and stability
    of accuracy over a series of snapshots (``snapshot_accuracy``: one per
    snapshot, None where undefined)."""

    source: str
    claim_count: int
    accuracy: float | None
    coverage: float
    accuracy_series: tuple[float, ...] = ()
    accuracy_deviation: float | None = None
    snapshot_accuracy: tuple[float | None, ...] = ()


def item_redundancy(item: DataItem, claims: ClaimSet) -> float:
    """Fraction of sources that provide the data item."""
    if not claims.sources:
        return 0.0
    return len(claims.by_item.get(item, ())) / len(claims.sources)


def object_redundancy(object_id: str, claims: ClaimSet) -> float:
    """Fraction of sources that provide any attribute of the object."""
    if not claims.sources:
        return 0.0
    providers = {c.source for c in claims.claims
                 if c.item.object_id == object_id}
    return len(providers) / len(claims.sources)


def entropy(buckets: Sequence[Bucket]) -> float:
    """Value-distribution entropy in bits over bucketed multiplicities.

    Zero for a single value; exactly 1 for two values split 50/50.
    """
    total = sum(b.provider_count for b in buckets)
    if total == 0:
        raise ValueError("entropy requires at least one claim")
    e = 0.0
    for b in buckets:
        p = b.provider_count / total
        if p > 0.0:
            e -= p * math.log2(p)
    return max(0.0, e)


def deviation(buckets: Sequence[Bucket], kind: Kind) -> float:
    """Spread of the distinct (bucketed) values around the dominant one.

    Numbers: RMS of relative differences (v - v0) / v0; undefined when the
    dominant value is zero. Times: RMS of absolute minute differences.
    """
    if kind is Kind.TEXT:
        raise ValueError("deviation is defined for numeric and time "
                         "attributes only")
    v0, _ = dominant(buckets)
    centers = [b.center.num for b in buckets]
    if kind is Kind.NUMBER:
        if v0.num == 0.0:
            raise UndefinedDeviationError(
                "relative deviation undefined: dominant value is 0")
        terms = [((c - v0.num) / v0.num) ** 2 for c in centers]
    else:
        terms = [(c - v0.num) ** 2 for c in centers]
    return math.sqrt(sum(terms) / len(centers))


def dominant(buckets: Sequence[Bucket]) -> tuple[Value, float]:
    """The bucketed value with the most providers and its dominance factor.

    Ties break deterministically toward the smallest value under the total
    order (numeric/time <, case-folded lexicographic for text).
    """
    if not buckets:
        raise ValueError("dominant requires at least one bucket")
    total = sum(b.provider_count for b in buckets)
    best = min(buckets,
               key=lambda b: (-b.provider_count, b.center.sort_key()))
    return best.center, best.provider_count / total


def profile_item(item: DataItem, claims: ClaimSet,
                 tau: float | None) -> ItemProfile:
    buckets = bucketize(item, claims, tau)
    v0, factor = dominant(buckets)
    kind = claims.attribute_of(item).kind
    if kind is Kind.TEXT:
        dev = None
    else:
        try:
            dev = deviation(buckets, kind)
        except UndefinedDeviationError:
            dev = None
    ranked = sorted(buckets,
                    key=lambda b: (-b.provider_count, b.center.sort_key()))
    return ItemProfile(
        item=item,
        provider_count=sum(b.provider_count for b in buckets),
        num_values=len(buckets),
        entropy=entropy(buckets),
        deviation=dev,
        dominant=v0,
        dominance_factor=factor,
        runners_up=tuple(b.center for b in ranked[1:]),
    )


def profile_items(claims: ClaimSet) -> dict[DataItem, ItemProfile]:
    taus = tolerances(claims)
    return {item: profile_item(item, claims, taus[item.attribute])
            for item in claims.items}


def precision_of_dominant(claims: ClaimSet, gold: GoldStandard,
                          taus: dict[str, float | None] | None = None) -> float:
    """Fraction of claim-covered gold items whose dominant value matches the
    gold value under tolerant matching."""
    if not gold.entries:
        raise ValueError("gold standard is empty")
    if taus is None:
        taus = tolerances(claims)
    items = [it for it in sorted(gold.entries, key=DataItem.sort_key)
             if it in claims.by_item]
    if not items:
        raise ValueError("no gold item is covered by any claim")
    correct = sum(
        values_match(dominant(buckets)[0], gold.entries[it],
                     claims.attribute_of(it), taus[it.attribute])
        for it, buckets in zip(items, bucketize_items(items, claims, taus)))
    return correct / len(items)


def source_accuracy(source: str, claims: ClaimSet, gold: GoldStandard,
                    taus: dict[str, float | None] | None = None) -> float | None:
    """Fraction of the source's gold-covered claims that match the gold
    value; None (undefined, distinct from 0) when it covers no gold item."""
    if taus is None:
        taus = tolerances(claims)
    correct = 0
    covered = 0
    for c in claims.by_source.get(source, ()):
        truth = gold.entries.get(c.item)
        if truth is None:
            continue
        covered += 1
        attr = claims.attribute_of(c.item)
        if values_match(c.value, truth, attr, taus[c.item.attribute]):
            correct += 1
    if covered == 0:
        return None
    return correct / covered


def source_coverage(source: str, claims: ClaimSet, gold: GoldStandard) -> float:
    """Fraction of gold items the source provides."""
    if not gold.entries:
        return 0.0
    provided = sum(1 for c in claims.by_source.get(source, ())
                   if c.item in gold.entries)
    return provided / len(gold.entries)


def accuracy_deviation(series: Sequence[float]) -> float:
    """Population standard deviation of a per-snapshot accuracy series."""
    if not series:
        raise ValueError("accuracy series is empty")
    mean = sum(series) / len(series)
    return math.sqrt(sum((a - mean) ** 2 for a in series) / len(series))


def profile_sources(claims: ClaimSet, gold: GoldStandard | None,
                    snapshots: Sequence[tuple[ClaimSet, GoldStandard]] = (),
                    ) -> dict[str, SourceProfile]:
    """Per-source profiles; when (snapshot, gold) pairs are given, the
    accuracy series and its deviation are filled in, with each snapshot's
    tolerances computed once."""
    taus = tolerances(claims)
    snap_taus = [taus if snap is claims else tolerances(snap)
                 for snap, _ in snapshots]
    out: dict[str, SourceProfile] = {}
    for s in claims.sources:
        acc = source_accuracy(s, claims, gold, taus) if gold else None
        cov = source_coverage(s, claims, gold) if gold else 0.0
        per_snap = tuple(source_accuracy(s, snap, snap_gold, t)
                         for (snap, snap_gold), t in zip(snapshots, snap_taus))
        series = [a for a in per_snap if a is not None]
        out[s] = SourceProfile(
            source=s,
            claim_count=len(claims.by_source.get(s, ())),
            accuracy=acc,
            coverage=cov,
            accuracy_series=tuple(series),
            accuracy_deviation=(accuracy_deviation(series)
                                if series else None),
            snapshot_accuracy=per_snap,
        )
    return out
