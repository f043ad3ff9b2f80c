"""Consistency and quality profiling: redundancy, entropy, deviation,
dominant values, source accuracy, and their evolution across snapshots.

All computations are pure functions over immutable snapshots; per-item
profiles are independent of claim order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import FusionConfig
from .fusion import (FusionEngine, FusionError, FusionResult, GoldMatch,
                     engine_for)
from .model import (
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    UndefinedDeviationError,
    Value,
)
from .normalize import Bucket, key_offset


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
    k = claims.item_index.get(item)
    n = 0 if k is None else claims.item_start[k + 1] - claims.item_start[k]
    return int(n) / len(claims.sources)


def object_redundancy(object_id: str, claims: ClaimSet) -> float:
    """Fraction of sources that provide any attribute of the object."""
    return object_redundancies(claims).get(object_id, 0.0)


def object_redundancies(claims: ClaimSet) -> dict[str, float]:
    """``object_redundancy`` of every object with claims, in one pass."""
    n = provider_counts(claims, claims.item_object) / len(claims.sources)
    return dict(zip(claims.object_ids, n.tolist()))


def provider_counts(claims: ClaimSet, item_group: np.ndarray) -> np.ndarray:
    """Each group's number of distinct sources, for the dense codes from 0
    (``item_attr``, ``item_object``) that ``item_group`` gives the items."""
    n = len(claims.sources)
    pairs = np.unique(item_group[claims.claim_item] * n + claims.claim_source)
    return np.bincount(pairs // n)


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
    """Spread of the distinct (bucketed) values around the dominant one v0:
    the RMS of their ``key_offset``s from it, relative to v0 for numbers
    (undefined when v0 is zero) and in minutes for times."""
    if kind is Kind.TEXT:
        raise ValueError("deviation is defined for numeric and time "
                         "attributes only")
    v0, _ = dominant(buckets)
    scale = v0.num if kind is Kind.NUMBER else 1.0
    if scale == 0.0:
        raise UndefinedDeviationError(
            "relative deviation undefined: dominant value is 0")
    terms = [(key_offset(b.center.num, v0.num) / scale) ** 2
             for b in buckets]
    return math.sqrt(sum(terms) / len(terms))


def dominant(buckets: Sequence[Bucket]) -> tuple[Value, float]:
    """The bucketed value with the most providers and its dominance factor.

    Ties break deterministically toward the smallest value under the total
    order (numeric/time <, case-folded lexicographic for text).
    """
    if not buckets:
        raise ValueError("dominant requires at least one bucket")
    total = sum(b.provider_count for b in buckets)
    best = min(buckets, key=_rank)
    return best.center, best.provider_count / total


class _Tally(NamedTuple):
    """What ``entropy``, ``deviation`` and ``dominant`` read of a bucket."""

    center: Value
    provider_count: int


def _rank(b) -> tuple:
    """Most providers first, then the smallest value (``dominant``)."""
    return -b.provider_count, b.center.sort_key()


def profile_items(claims: ClaimSet, engine: FusionEngine | None = None,
                  ) -> dict[DataItem, ItemProfile]:
    """Every item's profile over its tolerance buckets: the candidates of
    ``engine``, built over ``claims`` with any fusion constants (they do
    not move buckets), or of a new engine."""
    engine = engine_for(claims, engine.cfg if engine else FusionConfig(),
                        engine=engine)
    counts = engine.cand_counts.astype(np.int64).tolist()
    kinds = [claims.schema[a].kind for a in claims.attributes]
    out = {}
    for item, a, cands in zip(engine.items, claims.item_attr.tolist(),
                              engine.item_cands()):
        buckets = [_Tally(engine.cand_values[c], counts[c]) for c in cands]
        try:
            dev = deviation(buckets, kinds[a])
        except (ValueError, UndefinedDeviationError):   # text, or v0 = 0
            dev = None
        out[item] = ItemProfile(
            item, sum(b.provider_count for b in buckets), len(buckets),
            entropy(buckets), dev, *dominant(buckets),
            tuple(b.center for b in sorted(buckets, key=_rank)[1:]))
    return out


def scoring_match(claims: ClaimSet, gold: GoldStandard,
                  match: GoldMatch | None = None,
                  result: FusionResult | None = None) -> GoldMatch:
    """The gold match that scores on ``claims`` reduce: ``match``, taken on
    an engine or its per-attribute view (same candidates), or a new
    engine's, whose default constants move no candidate or gold match.
    It and ``result`` are checked to be over ``claims``."""
    if match is None:
        match = engine_for(claims, FusionConfig()).gold_match(gold.entries)
    if match.engine.claims is not claims or (
            result is not None and result.claims is not claims):
        raise FusionError("gold match or result is over other claims")
    return match


def precision_of_dominant(claims: ClaimSet, gold: GoldStandard,
                          match: GoldMatch | None = None) -> float:
    """Fraction of claim-covered gold items whose dominant value matches the
    gold value: Vote's precision on the engine of ``scoring_match``."""
    if not gold.entries:
        raise ValueError("gold standard is empty")
    match = scoring_match(claims, gold, match)
    covered = int(np.count_nonzero(match.item))
    if not covered:
        raise ValueError("no gold item is covered by any claim")
    vote, _ = match.engine.select(match.engine.cand_counts)
    return int(np.count_nonzero(match.cand[vote])) / covered


def source_scores(claims: ClaimSet, gold: GoldStandard,
                  match: GoldMatch | None = None,
                  ) -> dict[str, tuple[float | None, float]]:
    """Each source's accuracy (share of its claims on gold items that match
    gold; None, distinct from 0, when it has none) and coverage (fraction
    of gold items it provides), counted on ``scoring_match``."""
    match = scoring_match(claims, gold, match)
    source = match.engine.vsrc_source[match.engine.claim_vsrc]
    on_gold, correct = (
        np.bincount(source[m], minlength=len(claims.sources)).tolist()
        for m in (match.item[match.engine.claim_item], match.claim))
    return {s: (c / n if n else None, n / len(gold.entries) if n else 0.0)
            for s, c, n in zip(claims.sources, correct, on_gold)}


def source_accuracy(source: str, claims: ClaimSet, gold: GoldStandard,
                    match: GoldMatch | None = None) -> float | None:
    """Fraction of the source's gold-covered claims that match the gold
    value; None (undefined, distinct from 0) when it covers no gold item."""
    return source_scores(claims, gold, match).get(source, (None, 0.0))[0]


def source_coverage(source: str, claims: ClaimSet, gold: GoldStandard) -> float:
    """Fraction of gold items the source provides."""
    return source_scores(claims, gold).get(source, (None, 0.0))[1]


def accuracy_deviation(series: Sequence[float]) -> float:
    """Population standard deviation of a per-snapshot accuracy series."""
    if not series:
        raise ValueError("accuracy series is empty")
    mean = sum(series) / len(series)
    return math.sqrt(sum((a - mean) ** 2 for a in series) / len(series))


def bin_counts(values, edges: Sequence[float]) -> np.ndarray:
    """How many ``values`` fall in each bin between consecutive ascending
    ``edges``: bins are half-open but the last is closed, and values
    outside [first edge, last edge] are not counted."""
    x = np.asarray(values, dtype=float)
    n = len(edges) - 1
    k = np.searchsorted(edges, x, side="right") - 1
    k[x == edges[-1]] = n - 1
    return np.bincount(k[(k >= 0) & (k < n)], minlength=n)


def profile_sources(claims: ClaimSet, gold: GoldStandard | None,
                    snapshots: Sequence[tuple[ClaimSet, GoldStandard]] = (),
                    match: GoldMatch | None = None,
                    ) -> dict[str, SourceProfile]:
    """Per-source profiles, scored on ``match`` when given
    (``scoring_match``); when (snapshot, gold) pairs are given, the
    accuracy series and its deviation are filled in; a series entry that
    repeats the primary snapshot reuses its ``source_scores``."""
    primary = source_scores(claims, gold, match) if gold else {}
    per_snap = [primary if snap is claims and snap_gold is gold
                else source_scores(snap, snap_gold)
                for snap, snap_gold in snapshots]
    counts = claims.claim_counts()
    out: dict[str, SourceProfile] = {}
    for s in claims.sources:
        acc, cov = primary.get(s, (None, 0.0))
        per = tuple(scores.get(s, (None, 0.0))[0] for scores in per_snap)
        series = [a for a in per if a is not None]
        out[s] = SourceProfile(
            source=s,
            claim_count=counts[s],
            accuracy=acc,
            coverage=cov,
            accuracy_series=tuple(series),
            accuracy_deviation=(accuracy_deviation(series)
                                if series else None),
            snapshot_accuracy=per,
        )
    return out
