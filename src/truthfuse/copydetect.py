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

Detection is array algebra over an engine's claims (``_PairIndex``), in
pair arrays of blocks x sources^2 cells (a block per attribute in
per-attribute runs). An AccuCopy round costs one integer Gram matrix, a
posterior per co-covered pair and a product per claim over its bucket.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import CopyParams, FusionConfig, RunConfig
from .fusion import (
    FusionEngine,
    FusionError,
    FusionResult,
    MethodSpec,
    engine_for,
)
from .metrics import source_scores
from .model import ClaimSet, DataItem, GoldStandard, Kind, Value
from .normalize import bucket_width, tolerances

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
                      gold: GoldStandard | None = None,
                      taus: dict[str, float | None] | None = None,
                      accuracy: dict[str, float | None] | None = None,
                      ) -> GroupCommonality:
    """Pairwise-averaged commonality measures for a suspected copy group;
    ``taus`` are the snapshot's tolerances and ``accuracy`` each source's
    accuracy against ``gold`` (``source_scores``), when already computed.

    Members are rows over the items: claimed or not, and a key (number,
    time, or a code per case-folded text) matched as ``values_match``
    does; per-pair ratios are summed in ``combinations`` order."""
    members = [s for s in group if claims.by_source.get(s)]
    excluded = tuple(sorted(set(group) - set(members)))
    if len(members) < 2:
        raise FusionError("group_commonality requires at least two members "
                          "with claims")
    if taus is None:
        taus = tolerances(claims)
    ordered, items = sorted(members), claims.items
    col = {(it.object_id, it.attribute): k for k, it in enumerate(items)}
    present = np.zeros((len(ordered), len(items)), dtype=bool)
    key = np.zeros(present.shape)
    codes: dict[str, int] = {}
    for r, s in enumerate(ordered):
        cs = claims.by_source[s]
        cols = [col[c.item.object_id, c.item.attribute] for c in cs]
        present[r, cols] = True
        key[r, cols] = [codes.setdefault(c.value.text.casefold(), len(codes))
                        if c.value.kind is Kind.TEXT else c.value.num
                        for c in cs]
    tol = np.array([bucket_width(claims.schema[it.attribute],
                                 taus[it.attribute]) for it in items])
    same = [(present[i] & present[i + 1:]
             & (np.abs(key[i] - key[i + 1:]) <= tol)).sum(1)
            for i in range(len(ordered) - 1)]
    value_parts = [a / n for a, n in zip(np.concatenate(same).tolist(),
                                         _pair_counts(present)[0]) if n]
    schema_parts = _jaccards(present, [it.attribute for it in items])
    object_parts = _jaccards(present, [it.object_id for it in items])
    if accuracy is None and gold is not None:
        accuracy = {s: acc for s, (acc, _) in
                    source_scores(claims, gold).items()}
    accs = [a for s in members if accuracy is not None
            and (a := accuracy[s]) is not None]
    return GroupCommonality(
        schema_sim=sum(schema_parts) / len(schema_parts),
        object_sim=sum(object_parts) / len(object_parts),
        value_sim=(sum(value_parts) / len(value_parts)
                   if value_parts else None),
        avg_accuracy=(sum(accs) / len(accs) if accs else None),
        size=len(members),
        excluded=excluded)


def _pair_counts(x: np.ndarray) -> tuple[list[int], list[int]]:
    """Intersection and union sizes of the 0/1 rows of ``x``, for every
    pair i < j in row-major order."""
    inter = x.astype(np.int64) @ x.T.astype(np.int64)
    size = inter.diagonal()
    pairs = np.triu_indices(len(x), 1)
    return (inter[pairs].tolist(),
            (size[:, None] + size - inter)[pairs].tolist())


def _jaccards(present: np.ndarray, labels: list[str]) -> list[float]:
    """Each member pair's Jaccard overlap of the labels (attributes or
    objects) of the items they claim."""
    code = {x: k for k, x in enumerate(dict.fromkeys(labels))}
    onehot = np.equal.outer([code[x] for x in labels], np.arange(len(code)))
    return [a / u for a, u in zip(*_pair_counts(present @ onehot))]


def detect_copying(claims: ClaimSet, truth_estimate: dict[DataItem, Value],
                   trust_estimate: dict, params: CopyParams,
                   engine: FusionEngine | None = None) -> CopyMatrix:
    """Posterior copy probabilities for every ordered source pair.

    Evidence is counted on contested items only (ones with at least two
    distinct bucketed values); agreement on uncontested items carries no
    signal under this model. A bucket counts as true when its centre
    matches the item's truth estimate within tolerance. A pair with no
    counted overlap keeps the prior in both directions. A global
    ``engine`` over ``claims`` is reused whatever its constants.
    """
    engine = engine_for(claims, engine.cfg if engine else FusionConfig(),
                        False, engine)
    true_cand = ((engine.item_ncand[engine.cand_item] > 1)
                 & engine.gold_match(truth_estimate).cand)
    names = engine.vsrc_list
    pairs = _PairIndex(engine)
    prob = pairs.posteriors(true_cand, np.array(
        [float(trust_estimate.get(s, 0.5)) for s in names]), params)
    # Without evidence the posterior does not depend on trust.
    prob[pairs.co == 0] = _pair_posterior(*np.zeros((5, 1)), params)[0][0]
    return CopyMatrix(prob={(a, b): p for (a, b), p in zip(
        product(names, names), prob.tolist()) if a != b})


def _pair_posterior(a1: np.ndarray, a2: np.ndarray, kt: np.ndarray,
                    kf: np.ndarray, kd: np.ndarray,
                    params: CopyParams) -> tuple[np.ndarray, np.ndarray]:
    """Three-hypothesis Bayes update over arrays of pairs (s1 copies s2, s2
    copies s1, independent); returns the two directed posteriors."""
    a1 = np.minimum(np.maximum(a1, 1e-4), 1.0 - 1e-4)
    a2 = np.minimum(np.maximum(a2, 1e-4), 1.0 - 1e-4)
    c, p0 = params.copy_rate, params.prior_copy_prob
    pt_i = a1 * a2
    pf_i = (1.0 - a1) * (1.0 - a2) / params.n_false
    pd_i = np.maximum(1.0 - pt_i - pf_i, _TINY)
    pd_dep = np.maximum((1.0 - c) * pd_i, _TINY)
    # Rows: s1 copies s2, s2 copies s1 (the original is s2, s1), neither.
    orig = np.array([a2, a1])
    pt = np.concatenate([c * orig + (1.0 - c) * pt_i, pt_i[None]])
    pf = np.concatenate([c * (1.0 - orig) + (1.0 - c) * pf_i, pf_i[None]])
    pd = np.array([pd_dep, pd_dep, pd_i])
    prior = np.array([math.log(p0)] * 2 + [math.log(1.0 - 2.0 * p0)])
    logs = prior[:, None] + (kt * np.log(np.maximum(pt, _TINY))
                             + kf * np.log(np.maximum(pf, _TINY))
                             + kd * np.log(np.maximum(pd, _TINY)))
    ws = np.exp(logs - logs.max(axis=0))
    total = ws[0] + ws[1] + ws[2]
    return ws[0] / total, ws[1] / total


def independence_weights(matrix: CopyMatrix, claims: ClaimSet,
                         params: CopyParams) -> dict[tuple, float]:
    """Per-(source, item) probability that the source provided its value
    independently: the product over same-value co-claimants s' of
    (1 - copy_rate * P(source copies s'))."""
    engine = FusionEngine(claims, FusionConfig())
    pairs = _PairIndex(engine)
    index = {s: i for i, s in enumerate(engine.vsrc_list)}
    prob = pairs.pinned({(index[a], index[b]): p
                         for (a, b), p in matrix.prob.items()
                         if a in index and b in index})
    out = _per_claim(engine, pairs.weights(prob, params.copy_rate))
    matrix.independence.update(out)
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

    ``known_copiers`` overrides detection for the given directed pairs;
    pairs naming a source without claims are ignored.
    With all copy probabilities zero (detection off, nothing known) the
    selections coincide with the format-aware method's.
    ``engine`` is shared and checked as in ``run_fusion``.
    """
    engine = engine_for(claims, config.fusion, per_attribute, engine)
    params = config.copy
    t0 = time.perf_counter()
    fixed_trust = input_trust is not None
    trust = (engine.trust_array(input_trust) if fixed_trust
             else np.full(engine.n_vsrc, config.fusion.init_trust_bayes))
    pairs = _PairIndex(engine)
    known = _expand_known(known_copiers or {}, engine)
    prob = pairs.pinned(known)
    weights = pairs.weights(prob, params.copy_rate)
    deltas, converged, prev_votes = [], False, np.zeros(engine.n_cands)
    for rounds in range(1, config.fusion.round_cap + 1):
        votes = engine.votes_once("accuformat", trust, weights=weights)
        chosen, _ = engine.select(votes)
        new_prob = prob
        if detect:
            is_chosen = np.bincount(chosen, minlength=engine.n_cands) > 0
            new_prob = pairs.pinned(known, pairs.posteriors(
                is_chosen, trust, params))
        new_weights = pairs.weights(new_prob, params.copy_rate)
        # Trust must be re-estimated from the discounted votes, otherwise
        # one round with undiscounted copier blocks locks trust onto them.
        discounted = engine.votes_once("accuformat", trust,
                                       weights=new_weights)
        new_trust = trust if fixed_trust else engine.trust_from_posteriors(
            engine.posteriors(discounted))
        delta = max(float(np.max(np.abs(new_trust - trust))),
                    float(np.max(np.abs(discounted - prev_votes))),
                    float(np.max(np.abs(new_prob - prob))))
        trust, prob, weights = new_trust, new_prob, new_weights
        prev_votes = discounted
        deltas.append(delta)
        converged = delta < config.fusion.epsilon
        if converged:
            break
    votes = engine.votes_once("accuformat", trust, weights=weights)
    result = engine.build_result(
        MethodSpec("accucopy", per_attribute), votes, trust, rounds=rounds,
        converged=converged, wall_time=time.perf_counter() - t0,
        deltas=deltas, confidence=engine.posteriors(votes))
    names = engine.vsrc_list
    found = dict(zip(zip(np.r_[pairs.lo, pairs.hi].tolist(),
                         np.r_[pairs.hi, pairs.lo].tolist()),
                     prob[np.r_[pairs.up, pairs.down]].tolist()))
    result.copy_matrix = CopyMatrix(
        prob={(names[i], names[j]): p
              for (i, j), p in ((found if detect else {}) | known).items()},
        independence=_per_claim(engine, weights))
    return result


def _expand_known(known: dict[tuple[str, str], float],
                  engine: FusionEngine) -> dict[tuple[int, int], float]:
    """Known copier pairs, declared on real sources, as virtual source index
    pairs: per-attribute runs expand them to every shared attribute. A pair
    naming a source without claims cannot discount a vote and is dropped."""
    at = {vk if engine.per_attribute else (vk, None): i
          for i, vk in enumerate(engine.vsrc_list)}
    return {(at[c, b], at[o, b]): p for (c, o), p in known.items()
            for b in sorted({b for _, b in at}, key=str)
            if (c, b) in at and (o, b) in at}


def _per_claim(engine: FusionEngine, values: np.ndarray) -> dict:
    """{(virtual source, item): value} over the engine's claims."""
    return {(engine.vsrc_list[v], engine.items[i]): x
            for v, i, x in zip(engine.claim_vsrc.tolist(),
                               engine.claim_item.tolist(), values.tolist())}


class _PairIndex:
    """Copy evidence and independence weights over an engine's claims.

    Pair arrays are flat ``(blocks, width, width)``: cell ``(b, i, j)``
    counts, or gives P(i copies j), for sources i and j of block b; a
    per-attribute engine has a block per attribute, indexed by real source
    and object. Agreement counts are Gram matrices of 0/1 incidences.
    """

    def __init__(self, engine: FusionEngine):
        per_attr, vsrcs = engine.per_attribute, engine.vsrc_list
        block = _codes([vk[1] if per_attr else 0 for vk in vsrcs])
        self.loc = engine.vsrc_source
        item_row = _codes([it.object_id if per_attr else it
                           for it in engine.items])
        self.blocks, w = int(block.max()) + 1, int(self.loc.max()) + 1
        self.width, self.rows = w, int(item_row.max()) + 1
        self.base = block * w + self.loc        # each source's row of cells
        v = engine.claim_vsrc
        contested_cand = engine.item_ncand[engine.cand_item] > 1
        on = contested_cand[engine.claim_cand]
        self._row = (block[v] * self.rows + item_row[engine.claim_item])[on]
        self._col, self._cand = self.loc[v][on], engine.claim_cand[on]
        self._first = engine.item_start[engine.cand_item]
        self.co = self._gram(self._row, self._col, self.rows)
        b, i, j = np.nonzero((self.co.reshape(-1, w, w) > 0)
                             & np.triu(np.ones((w, w), dtype=bool), 1))
        self.up, self.down = (b * w + i) * w + j, (b * w + j) * w + i
        self.agree = self._same_candidate(contested_cand)[self.up]
        at = np.zeros(self.blocks * w, dtype=np.int64)
        at[self.base] = np.arange(engine.n_vsrc)
        self.lo, self.hi = at[b * w + i], at[b * w + j]
        # Candidates with m > 1 claims, by m: claims (g, m), their rows of
        # cells (g, m, 1) and their columns (g, 1, m).
        sizes = engine.cand_counts.astype(np.int64)
        first = np.cumsum(sizes) - sizes
        self._by_size = []
        for m in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
            k = first[sizes == m][:, None] + np.arange(m)
            self._by_size.append((k, self.base[v[k]][:, :, None],
                                  self.loc[v[k]][:, None, :]))
        self.n_claims = len(v)

    def _gram(self, row, col, n_rows: int) -> np.ndarray:
        """XᵀX per block, X the 0/1 incidence with ones at (row, col)."""
        x = np.zeros((self.blocks, n_rows, self.width), dtype=np.int32)
        x.reshape(-1)[row * self.width + col] = 1
        return (x.transpose(0, 2, 1) @ x).ravel()

    def _same_candidate(self, marked: np.ndarray) -> np.ndarray:
        """Per cell, the contested items where both sources are on one marked
        candidate; an item's marked candidates are layers of its row."""
        seen = np.cumsum(marked)
        layer = seen - seen[self._first] + marked[self._first] - 1
        on = marked[self._cand]
        layer = layer[self._cand[on]]
        depth = int(layer.max(initial=0)) + 1
        return self._gram(self._row[on] * depth + layer, self._col[on],
                          self.rows * depth)

    def posteriors(self, true_cand: np.ndarray, trust: np.ndarray,
                   params: CopyParams) -> np.ndarray:
        """Copy posteriors of pairs with contested co-coverage (0 elsewhere)
        from the items where both are on one true, one false, two buckets."""
        prob = np.zeros(self.co.size)
        kt = self._same_candidate(true_cand)[self.up]
        prob[self.up], prob[self.down] = _pair_posterior(
            trust[self.lo], trust[self.hi], kt, self.agree - kt,
            self.co[self.up] - self.agree, params)
        return prob

    def pinned(self, directed: dict[tuple[int, int], float],
               prob: np.ndarray | None = None) -> np.ndarray:
        """``prob`` (zeros by default) with {(copier, original): p} pairs of
        one block each written in; own cells stay 0."""
        prob = np.zeros(self.co.size) if prob is None else prob
        keep = [k for k in directed if k[0] != k[1]]
        i, j = np.array(keep, dtype=np.int64).reshape(-1, 2).T
        prob[self.base[i] * self.width + self.loc[j]] = [directed[k]
                                                         for k in keep]
        return prob

    def weights(self, prob: np.ndarray, copy_rate: float) -> np.ndarray:
        """Per claim, the product over the other claims on its candidate of
        (1 - copy_rate * P(claim's source copies the other's))."""
        w = np.ones(self.n_claims)
        for claims, rows, cols in self._by_size:
            # A claim's own cell is 0, so its factor is exactly 1.
            w[claims] = np.multiply.reduce(1.0 - copy_rate * prob.reshape(
                -1, self.width)[rows, cols], axis=2)
        return w


def _codes(values) -> np.ndarray:
    """Each value's index among the distinct values, by first appearance."""
    seen: dict = {}
    return np.array([seen.setdefault(v, len(seen)) for v in values],
                    dtype=np.int64)
