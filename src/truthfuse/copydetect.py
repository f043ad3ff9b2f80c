"""Pairwise copy-probability estimation and copy-aware fusion.

Copying between sources is inferred from the values they share on
contested items: sharing a value that the current truth estimate marks as
false is strong evidence of copying, sharing the true value is weak
evidence, and disagreement is evidence of independence. Vote counts from a
suspected copier are discounted by the probability it provided each value
independently.

The detector deliberately ignores value similarity; on heavily numeric
data it is known to over-report copying between sources that provide
near-true values (the votes it discounts there are honest near-misses).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .config import CopyParams, RunConfig
from .fusion import (
    FusionEngine,
    FusionError,
    FusionResult,
    MethodSpec,
    engine_for,
)
from .metrics import source_accuracy
from .model import ClaimSet, DataItem, GoldStandard, Value
from .normalize import bucketize, tolerances, values_match

_TINY = 1e-300


@dataclass
class CopyMatrix:
    """Directed pairwise copy probabilities plus per-(source, item)
    independence weights (1 means the source copies from nobody there)."""

    prob: dict[tuple, float] = field(default_factory=dict)
    independence: dict[tuple, float] = field(default_factory=dict)

    def probability(self, copier, original) -> float:
        return self.prob.get((copier, original), 0.0)


@dataclass(frozen=True)
class GroupCommonality:
    """How alike a group of sources is: schema/object Jaccard overlap,
    agreement on shared items, and average accuracy."""

    schema_sim: float
    object_sim: float
    value_sim: float | None
    avg_accuracy: float | None
    size: int
    excluded: tuple[str, ...] = ()


def group_commonality(group, claims: ClaimSet,
                      gold: GoldStandard | None = None) -> GroupCommonality:
    """Pairwise-averaged commonality measures for a suspected copy group."""
    members = [s for s in group if claims.by_source.get(s)]
    excluded = tuple(sorted(set(group) - set(members)))
    if len(members) < 2:
        raise FusionError("group_commonality requires at least two members "
                          "with claims")
    taus = tolerances(claims)
    attrs = {s: {c.item.attribute for c in claims.by_source[s]}
             for s in members}
    objects = {s: {c.item.object_id for c in claims.by_source[s]}
               for s in members}
    items = {s: {c.item: c.value for c in claims.by_source[s]}
             for s in members}
    schema_parts: list[float] = []
    object_parts: list[float] = []
    value_parts: list[float] = []
    for s1, s2 in combinations(sorted(members), 2):
        schema_parts.append(_jaccard(attrs[s1], attrs[s2]))
        object_parts.append(_jaccard(objects[s1], objects[s2]))
        shared = items[s1].keys() & items[s2].keys()
        if shared:
            same = sum(
                1 for it in shared
                if values_match(items[s1][it], items[s2][it],
                                claims.attribute_of(it),
                                taus[it.attribute]))
            value_parts.append(same / len(shared))
    accs = []
    if gold is not None:
        for s in members:
            a = source_accuracy(s, claims, gold, taus)
            if a is not None:
                accs.append(a)
    return GroupCommonality(
        schema_sim=sum(schema_parts) / len(schema_parts),
        object_sim=sum(object_parts) / len(object_parts),
        value_sim=(sum(value_parts) / len(value_parts)
                   if value_parts else None),
        avg_accuracy=(sum(accs) / len(accs) if accs else None),
        size=len(members),
        excluded=excluded)


def _jaccard(a: set, b: set) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def detect_copying(claims: ClaimSet, truth_estimate: dict[DataItem, Value],
                   trust_estimate: dict, params: CopyParams) -> CopyMatrix:
    """Posterior copy probabilities for every ordered source pair.

    Evidence is counted on contested items only (ones with at least two
    distinct bucketed values); agreement on uncontested items carries no
    signal under this model. A pair with no counted overlap keeps the
    prior in both directions.
    """
    taus = tolerances(claims)
    counts: dict[tuple[str, str], list[int]] = {}
    for item in claims.items:
        buckets = bucketize(item, claims, taus[item.attribute])
        if len(buckets) < 2:
            continue
        truth = truth_estimate.get(item)
        attr = claims.attribute_of(item)
        provider_bucket: list[tuple[str, int, bool]] = []
        for bi, b in enumerate(buckets):
            is_true = (truth is not None
                       and values_match(b.center, truth, attr,
                                        taus[item.attribute]))
            for s in b.providers:
                provider_bucket.append((s, bi, is_true))
        for (s1, b1, t1), (s2, b2, _) in combinations(provider_bucket, 2):
            if s1 == s2:
                continue
            key = (s1, s2) if s1 < s2 else (s2, s1)
            k = counts.setdefault(key, [0, 0, 0])
            if b1 == b2:
                k[0 if t1 else 1] += 1
            else:
                k[2] += 1
    matrix = CopyMatrix()
    sources = list(claims.sources)
    for s1, s2 in combinations(sources, 2):
        kt, kf, kd = counts.get((s1, s2), (0, 0, 0))
        p12, p21 = _pair_posterior(
            float(trust_estimate.get(s1, 0.5)),
            float(trust_estimate.get(s2, 0.5)),
            kt, kf, kd, params)
        matrix.prob[(s1, s2)] = p12
        matrix.prob[(s2, s1)] = p21
    return matrix


def _pair_posterior(a1: float, a2: float, kt: int, kf: int, kd: int,
                    params: CopyParams) -> tuple[float, float]:
    """Three-hypothesis Bayes update: s1 copies s2, s2 copies s1, or the
    pair is independent. Returns the two directed posteriors."""
    a1 = min(max(a1, 1e-4), 1.0 - 1e-4)
    a2 = min(max(a2, 1e-4), 1.0 - 1e-4)
    n = params.n_false
    c = params.copy_rate
    pt_i = a1 * a2
    pf_i = (1.0 - a1) * (1.0 - a2) / n
    pd_i = max(1.0 - pt_i - pf_i, _TINY)

    def dep(orig_acc: float) -> tuple[float, float, float]:
        pt = c * orig_acc + (1.0 - c) * pt_i
        pf = c * (1.0 - orig_acc) + (1.0 - c) * pf_i
        pd = max((1.0 - c) * pd_i, _TINY)
        return pt, pf, pd

    def loglik(pt: float, pf: float, pd: float) -> float:
        return (kt * math.log(max(pt, _TINY))
                + kf * math.log(max(pf, _TINY))
                + kd * math.log(max(pd, _TINY)))

    p0 = params.prior_copy_prob
    logs = [
        math.log(p0) + loglik(*dep(a2)),        # s1 copies from s2
        math.log(p0) + loglik(*dep(a1)),        # s2 copies from s1
        math.log(1.0 - 2.0 * p0) + loglik(pt_i, pf_i, pd_i),
    ]
    m = max(logs)
    ws = [math.exp(x - m) for x in logs]
    total = sum(ws)
    return ws[0] / total, ws[1] / total


def independence_weights(matrix: CopyMatrix, claims: ClaimSet,
                         params: CopyParams) -> dict[tuple, float]:
    """Per-(source, item) probability that the source provided its value
    independently: the product over same-value co-claimants s' of
    (1 - copy_rate * P(source copies s'))."""
    taus = tolerances(claims)
    out: dict[tuple, float] = {}
    for item in claims.items:
        buckets = bucketize(item, claims, taus[item.attribute])
        for b in buckets:
            for s in b.providers:
                w = 1.0
                for other in b.providers:
                    if other != s:
                        w *= 1.0 - params.copy_rate * matrix.probability(
                            s, other)
                out[(s, item)] = w
    for (s, item), w in list(out.items()):
        matrix.independence[(s, item)] = w
    return out


def run_accucopy(claims: ClaimSet, config: RunConfig,
                 input_trust: dict | None = None,
                 known_copiers: dict[tuple[str, str], float] | None = None,
                 detect: bool = True,
                 per_attribute: bool = False,
                 engine: FusionEngine | None = None) -> FusionResult:
    """Copy-aware fusion: interleaves truth selection (format-aware votes
    scaled by independence weights), copy detection against the current
    truth, and trust updates until the joint (trust, copy-probability)
    change falls under the convergence threshold.

    ``known_copiers`` overrides detection for the given directed pairs.
    With all copy probabilities zero (detection off, nothing known) the
    selections coincide with the format-aware method's.
    ``engine`` is shared and checked as in ``run_fusion``.
    """
    engine = engine_for(claims, config.fusion, per_attribute, engine)
    params = config.copy
    method = MethodSpec("accucopy", per_attribute)
    t0 = time.perf_counter()
    fixed_trust = input_trust is not None
    trust = (engine.trust_array(input_trust) if fixed_trust
             else np.full(engine.n_vsrc, config.fusion.init_trust_bayes))
    known = _expand_known(known_copiers or {}, engine)
    prob: dict[tuple, float] = dict(known)
    weights = _claim_weights(engine, prob, params)
    deltas: list[float] = []
    converged = False
    rounds = 0
    prev_votes = np.zeros(engine.n_cands)
    while rounds < config.fusion.round_cap:
        rounds += 1
        votes = engine.votes_once("accuformat", trust, weights=weights)
        chosen, _ = engine.select(votes)
        if detect:
            new_prob = _detect_on_engine(engine, chosen, trust, params)
            new_prob.update(known)
        else:
            new_prob = dict(known)
        new_weights = _claim_weights(engine, new_prob, params)
        # Trust must be re-estimated from the discounted votes, otherwise
        # one round with undiscounted copier blocks locks trust onto them.
        discounted = engine.votes_once("accuformat", trust,
                                       weights=new_weights)
        if fixed_trust:
            new_trust = trust
        else:
            new_trust = engine.trust_from_posteriors(
                engine.posteriors(discounted))
        keys = prob.keys() | new_prob.keys()
        prob_delta = max((abs(new_prob.get(k, 0.0) - prob.get(k, 0.0))
                          for k in keys), default=0.0)
        delta = max(float(np.max(np.abs(new_trust - trust))),
                    float(np.max(np.abs(discounted - prev_votes))),
                    prob_delta)
        trust, prob, weights = new_trust, new_prob, new_weights
        prev_votes = discounted
        deltas.append(delta)
        if delta < config.fusion.epsilon:
            converged = True
            break
    votes = engine.votes_once("accuformat", trust, weights=weights)
    post = engine.posteriors(votes)
    result = engine.build_result(
        method, votes, trust, rounds=rounds, converged=converged,
        wall_time=time.perf_counter() - t0, deltas=deltas, confidence=post)
    matrix = CopyMatrix(prob=dict(prob))
    for k in range(len(engine.claim_cand)):
        vk = engine.vsrc_list[int(engine.claim_vsrc[k])]
        item = engine.items[int(engine.claim_item[k])]
        matrix.independence[(vk, item)] = float(weights[k])
    result.copy_matrix = matrix
    return result


def _expand_known(known: dict[tuple[str, str], float],
                  engine: FusionEngine) -> dict[tuple, float]:
    """Known copier pairs are declared on real sources; per-attribute runs
    expand them to every shared attribute's virtual source pair."""
    if not engine.per_attribute:
        return dict(known)
    by_source: dict[str, list] = {}
    for vk in engine.vsrc_list:
        by_source.setdefault(vk[0], []).append(vk)
    out: dict[tuple, float] = {}
    for (copier, original), p in known.items():
        for vk1 in by_source.get(copier, ()):
            for vk2 in by_source.get(original, ()):
                if vk1[1] == vk2[1]:
                    out[(vk1, vk2)] = p
    return out


def _claim_weights(engine: FusionEngine, prob: dict[tuple, float],
                   params: CopyParams) -> np.ndarray:
    weights = np.ones(len(engine.claim_cand))
    if not prob:
        return weights
    grouped: dict[int, list[int]] = {}
    for k in range(len(engine.claim_cand)):
        grouped.setdefault(int(engine.claim_cand[k]), []).append(k)
    for cand, claim_idxs in grouped.items():
        if len(claim_idxs) < 2:
            continue
        vks = [engine.vsrc_list[int(engine.claim_vsrc[k])]
               for k in claim_idxs]
        for pos, k in enumerate(claim_idxs):
            w = 1.0
            for other_pos, other_vk in enumerate(vks):
                if other_pos == pos:
                    continue
                p = prob.get((vks[pos], other_vk), 0.0)
                if p > 0.0:
                    w *= 1.0 - params.copy_rate * p
            weights[k] = w
    return weights


def _detect_on_engine(engine: FusionEngine, chosen: np.ndarray,
                      trust: np.ndarray,
                      params: CopyParams) -> dict[tuple, float]:
    """Pairwise detection over the engine's claim arrays; evidence comes
    from contested items only."""
    counts: dict[tuple[int, int], list[int]] = {}
    n_items = engine.n_items
    claim_bounds = np.searchsorted(engine.claim_item, np.arange(n_items + 1))
    for item_idx in range(n_items):
        lo, hi = int(claim_bounds[item_idx]), int(claim_bounds[item_idx + 1])
        if hi - lo < 2:
            continue
        if engine.item_ncand[item_idx] < 2:
            continue
        truth_cand = int(chosen[item_idx])
        rows = [(int(engine.claim_vsrc[k]), int(engine.claim_cand[k]))
                for k in range(lo, hi)]
        for (v1, c1), (v2, c2) in combinations(rows, 2):
            if v1 == v2:
                continue
            key = (v1, v2) if v1 < v2 else (v2, v1)
            k = counts.setdefault(key, [0, 0, 0])
            if c1 == c2:
                k[0 if c1 == truth_cand else 1] += 1
            else:
                k[2] += 1
    out: dict[tuple, float] = {}
    for (i1, i2), (kt, kf, kd) in sorted(counts.items()):
        p12, p21 = _pair_posterior(float(trust[i1]), float(trust[i2]),
                                   kt, kf, kd, params)
        vk1, vk2 = engine.vsrc_list[i1], engine.vsrc_list[i2]
        out[(vk1, vk2)] = p12
        out[(vk2, vk1)] = p21
    return out
