"""Evaluation protocol: precision/recall against a gold standard, trust
deviation and difference between sampled and computed trustworthiness,
incremental source-addition curves, dominance-bucketed precision, timing,
and multi-snapshot summaries.

All report content is deterministic; wall-clock timings are the only
nondeterministic fields and are kept out of comparison-sensitive artifacts.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import RunConfig
from .fusion import (
    FusionEngine,
    FusionResult,
    GoldMatch,
    MethodSpec,
    _fixed_point,
    engine_for,
    part_results,
    run_fusion,
    sample_trust,
)
from .metrics import (
    accuracy_deviation,
    bin_counts,
    scoring_match,
    source_scores,
)
from .model import ClaimSet, GoldStandard


@dataclass(frozen=True)
class EvalReport:
    """One method's evaluation on one snapshot; ``result`` is its default
    (not input-trust) run, which ``compare`` takes off the curve."""

    method: str
    precision: float
    recall: float
    trust_deviation: float | None
    trust_difference: float | None
    wall_time: float
    rounds: int
    converged: bool
    precision_with_trust: float | None = None
    result: FusionResult | None = field(default=None, compare=False,
                                        repr=False)


@dataclass(frozen=True)
class CurvePoint:
    """Recall of one method after fusing the k best sources (by coverage
    x accuracy); at k = n, ``result`` is its run on the whole snapshot."""

    k: int
    recall: float
    added_source: str
    method: str
    result: FusionResult | None = field(default=None, compare=False,
                                        repr=False)


def precision_recall(result: FusionResult, gold: GoldStandard,
                     claims: ClaimSet,
                     match: GoldMatch | None = None) -> tuple[float, float]:
    """Precision over output-and-gold items; recall over all gold items,
    counted on the gold match (``scoring_match``).

    With full source coverage the two coincide, since every gold item is
    then output.
    """
    if not gold.entries:
        raise ValueError("gold standard is empty")
    match = scoring_match(claims, gold, match, result)
    correct = int(np.count_nonzero(match.cand[result.chosen]))
    output_on_gold = int(np.count_nonzero(match.item))
    precision = correct / output_on_gold if output_on_gold else 0.0
    recall = correct / len(gold.entries)
    return precision, recall


def trust_deviation(sampled: dict, computed: dict) -> float:
    """Root-mean-square gap between sampled and computed trust over the
    sources common to both maps."""
    common = sorted(set(sampled) & set(computed), key=str)
    if not common:
        raise ValueError("trust maps share no sources")
    return math.sqrt(sum((sampled[s] - computed[s]) ** 2 for s in common)
                     / len(common))


def trust_difference(sampled: dict, computed: dict) -> float:
    """Average computed trust minus average sampled trust (signed)."""
    common = sorted(set(sampled) & set(computed), key=str)
    if not common:
        raise ValueError("trust maps share no sources")
    return (sum(computed[s] for s in common)
            - sum(sampled[s] for s in common)) / len(common)


def rank_sources(claims: ClaimSet, gold: GoldStandard,
                 match: GoldMatch | None = None) -> list[str]:
    """Sources ordered by coverage x accuracy (``source_scores``,
    descending), undefined accuracy last, ties by source id."""
    scores = source_scores(claims, gold, match)

    def key(s: str):
        acc, cov = scores[s]
        product = -1.0 if acc is None else acc * cov
        return (-product, s)

    return sorted(claims.sources, key=key)


# Claims over all the source prefixes of one stack of engines. Stacking
# pays while a round's numpy calls cost more in call overhead than in
# arithmetic, i.e. for small prefixes: a desk-scale curve (a few thousand
# claims over all prefixes) runs as one stack. Past that, a larger stack
# only adds memory and the rounds spent on frozen segments, so at paper
# scale (up to 140k claims per prefix) a large prefix runs alone.
_STACK_CLAIMS = 20_000


def incremental_curve(methods: MethodSpec | Sequence[MethodSpec],
                      claims: ClaimSet, gold: GoldStandard,
                      config: RunConfig, ranked: Sequence[str] | None = None,
                      match: GoldMatch | None = None) -> list[CurvePoint]:
    """Fuse growing prefixes of the ranked sources with each method and
    record recall against the full (fixed) gold standard at each step.

    ``methods`` is one method or a sequence of them. Sources are ranked
    (``ranked`` is ``rank_sources(claims, gold, match)``, when already
    computed), each prefix k < n is restricted once, and k = n is
    ``claims`` on the engine of ``match`` (``gold``'s, on a global engine
    over ``claims``) or of one built here. Consecutive prefixes are taken
    in batches of at most ``_STACK_CLAIMS`` claims (at least one prefix
    each), whose engines (one per prefix) and gold matches are shared by
    every method; those of k < n are freed when the batch is done. Every
    method runs once per batch, on the ``stack`` of the engines or of their
    per-attribute views (kept while the next method has the same scope),
    and builds a result only for k = n, timed as its batch. Points are
    ordered by method (as given), then by k.
    """
    if isinstance(methods, MethodSpec):
        methods = [methods]
    if not gold.entries:
        raise ValueError("gold standard is empty")
    engine = engine_for(claims, config.fusion, engine=match and match.engine)
    match = match or engine.gold_match(gold.entries)
    if ranked is None:
        ranked = rank_sources(claims, gold, match)
    n = len(claims.sources)
    counts = claims.claim_counts()
    sizes = itertools.accumulate(counts[s] for s in ranked)
    points: list[list[tuple]] = [[] for _ in methods]
    for batch in _batches(list(sizes), _STACK_CLAIMS):
        for per_method, more in zip(points, _batch_points(methods, [
                match if k == n else engine_for(claims.restrict(
                    ranked[:k]), config.fusion).gold_match(gold.entries)
                for k in batch], len(gold.entries), config, n in batch)):
            per_method += more
    return [CurvePoint(k=k, recall=recall, added_source=ranked[k - 1],
                       method=m.label(), result=result)
            for m, per_method in zip(methods, points)
            for k, (recall, result) in enumerate(per_method, start=1)]


def _batch_points(methods: Sequence[MethodSpec], matches: list[GoldMatch],
                  n_gold: int, config: RunConfig,
                  whole: bool) -> list[list[tuple]]:
    """Each method's (recall, result) per source prefix of one batch (gold
    ``matches``); a result only for the last prefix, and only if ``whole``."""
    correct = np.concatenate([g.cand for g in matches])
    out = []
    stack = None
    for m in methods:
        parts = [g.engine.scoped(m.per_attribute_trust) for g in matches]
        if stack is None or stack.parts != tuple(parts):
            stack = FusionEngine.stack(parts)
        t0 = time.perf_counter()
        run = _fixed_point(m, stack, config)
        results = [None] * (len(parts) - whole) + (part_results(
            m, stack, run, t0, [len(parts) - 1]) if whole else [])
        chosen, _ = stack.select(run[1])
        hits = np.bincount(stack.cand_segs.of[chosen[correct[chosen]]],
                           minlength=len(parts))
        out.append(list(zip((h / n_gold for h in hits.tolist()), results)))
    return out


def _batches(sizes: list[int], budget: int) -> list[list[int]]:
    """Prefix lengths k = 1, 2, ... in consecutive batches whose summed
    ``sizes[k - 1]`` stay within ``budget``; a batch holds at least one."""
    out: list[list[int]] = []
    total = budget
    for k, n in enumerate(sizes, start=1):
        if total + n > budget:
            out.append([])
            total = 0
        out[-1].append(k)
        total += n
    return out


def dominance_bucket_edges() -> list[float]:
    """The dominance strata's edges: 0, 0.1, ..., 1."""
    return [k / 10 for k in range(11)]


def precision_by_dominance(result: FusionResult, gold: GoldStandard,
                           claims: ClaimSet,
                           match: GoldMatch | None = None) -> list[dict]:
    """Per-bucket precision of the method and of Vote (on the gold match's
    engine, ``scoring_match``) over gold items, stratified by the share of
    an item's providers behind Vote's value (dominance factor).

    Buckets are ``dominance_bucket_edges``' bins of ``bin_counts``:
    half-open [lo, hi) except the last, which is closed. Empty buckets
    carry an explicit None precision, never 0.
    """
    edges = dominance_bucket_edges()
    match = scoring_match(claims, gold, match, result)
    vote, _ = match.engine.select(match.engine.cand_counts)
    on = match.item
    factor = (match.engine.cand_counts[vote] / match.engine.item_nprov)[on]
    method_ok = match.cand[result.chosen][on]
    vote_ok = match.cand[vote][on]
    counts = (bin_counts(f, edges).tolist()
              for f in (factor, factor[method_ok], factor[vote_ok]))
    return [{"lo": lo, "hi": hi, "count": n,
             "precision": m / n if n else None,
             "vote_precision": v / n if n else None}
            for lo, hi, n, m, v in zip(edges, edges[1:], *counts)]


def time_series_summary(method: MethodSpec,
                        snapshots: Sequence[ClaimSet],
                        golds: Sequence[GoldStandard],
                        config: RunConfig) -> tuple[float, float, float]:
    """(average, minimum, population standard deviation) of precision over
    a series of snapshots."""
    if len(snapshots) != len(golds) or not snapshots:
        raise ValueError("need one gold standard per snapshot")
    precisions = []
    for snap, gold in zip(snapshots, golds):
        engine = engine_for(snap, config.fusion, method.per_attribute_trust)
        result = run_fusion(method, snap, config, engine=engine)
        p, _ = precision_recall(result, gold, snap,
                                engine.gold_match(gold.entries))
        precisions.append(p)
    return (sum(precisions) / len(precisions), min(precisions),
            accuracy_deviation(precisions))


def timed_run(result: FusionResult, claims: ClaimSet, config: RunConfig,
              gold: GoldStandard,
              engine: FusionEngine | None = None,
              match: GoldMatch | None = None) -> EvalReport:
    """Assemble the report of ``result``, a method's default run on
    ``claims`` (``compare`` takes it off the curve's k = n segment).

    Trust sampling and the input-trust re-run share ``engine`` (or its
    per-attribute view), which other methods may share too, or one built
    here, and are scored on ``match`` or on the engine's. Wall time is
    the default run's (``FusionResult.wall_time``: its rounds, or its
    stacked batch's; engine construction, I/O and sampling excluded).
    Trust deviation/difference compare the default-initialization run's
    converged trust against the gold-sampled trust; the input-trust pass
    reruns the method single-pass under the sampled trust.
    """
    method = result.method
    engine = engine_for(claims, config.fusion, method.per_attribute_trust,
                        engine)
    if match is None:
        match = engine.gold_match(gold.entries)
    precision, recall = precision_recall(result, gold, claims, match=match)
    dev = diff = prec_with = None
    if method.name != "vote":
        sampled = sample_trust(method, claims, gold, config, match)
        if result.trust:
            dev = trust_deviation(sampled, result.trust)
            diff = trust_difference(sampled, result.trust)
        with_trust = run_fusion(method, claims, config, input_trust=sampled,
                                engine=engine)
        prec_with, _ = precision_recall(with_trust, gold, claims, match=match)
    return EvalReport(
        method=method.label(), precision=precision, recall=recall,
        trust_deviation=dev, trust_difference=diff,
        wall_time=result.wall_time, rounds=result.rounds_used,
        converged=result.converged, precision_with_trust=prec_with,
        result=result)
