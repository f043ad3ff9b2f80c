"""Pairwise copy-probability estimation and AccuCopy's copy state.

Copying between sources is inferred from the values they share on
contested items: sharing a value that the current truth estimate marks as
false is strong evidence of copying, sharing the true value is weak
evidence, and disagreement is evidence of independence. Vote counts from a
suspected copier are discounted by the probability it provided each value
independently (AccuCopy, a rule of ``fusion`` whose state is ``Copying``).

The detector deliberately ignores value similarity; on heavily numeric
data it is known to over-report copying between sources that provide
near-true values (the votes it discounts there are honest near-misses).

Detection is array algebra over an engine's claims (``_PairIndex``), in
pair arrays of blocks x sources^2 cells (a block per attribute of a
per-attribute run, and per stacked part). An AccuCopy round costs one
integer Gram matrix, a posterior per co-covered pair and a product per
claim over its bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .config import CopyParams, FusionConfig, RunConfig
from .fusion import (FusionEngine, FusionError, _Segments, clamp_trust,
                     engine_for)
from .metrics import source_scores
from .model import ClaimSet, DataItem, GoldStandard, Value
from .normalize import item_widths, keys_match, tolerances

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

    Members are rows over the items: claimed or not, and a key
    (``value_keys``) matched as ``values_match`` does; per-pair ratios are
    summed in ``combinations`` order."""
    members = [s for s in group if s in claims.sources]
    excluded = tuple(sorted(set(group) - set(members)))
    if len(members) < 2:
        raise FusionError("group_commonality requires at least two members "
                          "with claims")
    if taus is None:
        taus = tolerances(claims)
    ordered = sorted(members)
    at = (claims.claim_source, claims.claim_item)
    present = np.zeros((len(claims.sources), len(claims.items)), dtype=bool)
    present[at] = True
    key = np.zeros(present.shape)
    key[at] = claims.value_key[claims.claim_value]
    rows = [claims.sources.index(s) for s in ordered]
    present, key = present[rows], key[rows]
    tol = item_widths(claims, taus)
    same = [(present[i] & present[i + 1:]
             & keys_match(key[i], key[i + 1:], tol)).sum(1)
            for i in range(len(ordered) - 1)]
    value_parts = [a / n for a, n in zip(np.concatenate(same).tolist(),
                                         _pair_counts(present)[0]) if n]
    schema_parts = _jaccards(present, claims.item_attr)
    object_parts = _jaccards(present, claims.item_object)
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


def _gram(x: np.ndarray) -> np.ndarray:
    """How many columns each pair of rows of the 0/1 array ``x`` shares (over
    its last two axes): a float32 matmul on BLAS, exact below 2²⁴ items."""
    f = x.astype(np.float32, copy=False)
    return (f @ np.swapaxes(f, -1, -2)).astype(np.int64)


def _pair_counts(x: np.ndarray) -> tuple[list[int], list[int]]:
    """Intersection and union sizes of the 0/1 rows of ``x``, for every
    pair i < j in row-major order."""
    inter = _gram(x)
    size = inter.diagonal()
    pairs = np.triu_indices(len(x), 1)
    return (inter[pairs].tolist(),
            (size[:, None] + size - inter)[pairs].tolist())


def _jaccards(present: np.ndarray, label: np.ndarray) -> list[float]:
    """Each member pair's Jaccard overlap of the labels (attribute or
    object codes, one per item) of the items they claim."""
    onehot = np.equal.outer(label, np.arange(int(label.max()) + 1))
    return [a / u for a, u in zip(*_pair_counts(present @ onehot))]


def detect_copying(claims: ClaimSet, truth_estimate: dict[DataItem, Value],
                   trust_estimate: dict, config: RunConfig,
                   engine: FusionEngine | None = None) -> CopyMatrix:
    """Posterior copy probabilities for every ordered source pair.

    Evidence is counted on contested items only (ones with at least two
    distinct bucketed values); agreement on uncontested items carries no
    signal under this model. A bucket counts as true when its centre
    matches the item's truth estimate within tolerance. A pair with no
    counted overlap keeps the prior in both directions. The likelihood
    takes ``config``'s copy parameters and its fusion ``n_false`` and
    ``trust_clamp``; a global ``engine`` over ``claims`` built with those
    constants is reused (checked as in ``run_fusion``), and
    ``trust_estimate`` must cover its sources, as input trust does.
    """
    engine = engine_for(claims, config.fusion, False, engine)
    true_cand = ((engine.item_ncand[engine.cand_item] > 1)
                 & engine.gold_match(truth_estimate).cand)
    names = engine.vsrc_list
    pairs = _PairIndex(engine)
    prob = pairs.posteriors(true_cand, engine.trust_array(trust_estimate),
                            config.copy)
    # Without evidence the posterior does not depend on trust.
    prob[pairs.co == 0] = _pair_posterior(*np.zeros((5, 1)), config.copy,
                                          config.fusion)[0][0]
    return CopyMatrix(prob={(a, b): p for (a, b), p in zip(
        product(names, names), prob.tolist()) if a != b})


def _pair_posterior(a1: np.ndarray, a2: np.ndarray, kt: np.ndarray,
                    kf: np.ndarray, kd: np.ndarray, params: CopyParams,
                    fusion: FusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Three-hypothesis Bayes update over arrays of pairs (s1 copies s2, s2
    copies s1, independent); returns the two directed posteriors. Trust is
    clamped, and false values are spread over ``n_false``, as in the
    engine's accuracy votes (``fusion``)."""
    a1, a2 = clamp_trust(a1, fusion), clamp_trust(a2, fusion)
    c, p0 = params.copy_rate, params.prior_copy_prob
    pt_i = a1 * a2
    pf_i = (1.0 - a1) * (1.0 - a2) / fusion.n_false
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
    """Per-(virtual source, item) probability that the source provided its
    value independently: the product over same-value co-claimants s' of
    (1 - copy_rate * P(source copies s')). Virtual sources are the matrix's
    (sources, or (source, attribute) pairs); ``FusionError`` if unknown.
    The weights read only ``copy_rate``, so the engine that places the
    claims takes the default fusion constants: no constant moves a claim
    or a candidate's providers."""
    engine = engine_for(claims, FusionConfig(), any(
        isinstance(a, tuple) for a, _ in matrix.prob))
    index = {s: i for i, s in enumerate(engine.vsrc_list)}
    if unplaced := {s for pair in matrix.prob for s in pair} - index.keys():
        raise FusionError(f"no virtual source {min(map(repr, unplaced))} here")
    copying = Copying.start(engine, params, None, False, False)
    out = copying.with_prob(copying.pairs.pinned({
        (index[a], index[b]): p for (a, b), p in matrix.prob.items()
    })).matrices(engine, [0])[0].independence
    matrix.independence.update(out)
    return out


@dataclass(frozen=True)
class Copying:
    """AccuCopy's part of a fusion state: its run's pair index and options,
    and the copy probabilities (pair cells) and weights (claims)."""

    pairs: "_PairIndex"
    params: CopyParams
    known: dict[tuple[int, int], float]
    detect: bool
    fixed_trust: bool
    prob: np.ndarray | None = None
    weights: np.ndarray | None = None

    @classmethod
    def start(cls, engine: FusionEngine, params: CopyParams, known_copiers,
              detect: bool, fixed_trust: bool) -> "Copying":
        """Known copiers (on a plain engine) pinned, the rest at 0."""
        pairs = _PairIndex(engine)
        known = _expand_known(known_copiers, engine) if known_copiers else {}
        return cls(pairs, params, known, detect, fixed_trust).with_prob(
            pairs.pinned(known))

    def with_prob(self, prob: np.ndarray) -> "Copying":
        return replace(self, prob=prob,
                       weights=self.pairs.weights(prob, self.params.copy_rate))

    def redetect(self, chosen: np.ndarray, trust: np.ndarray) -> "Copying":
        """Copying detected against the ``chosen`` candidates (a mask)."""
        if not self.detect:
            return self
        return self.with_prob(self.pairs.pinned(
            self.known, self.pairs.posteriors(chosen, trust, self.params)))

    def frozen(self, old: "Copying", live: np.ndarray) -> "Copying":
        """This state, with the segments that are not ``live`` at ``old``;
        a segment's weights depend on its own cells only, so they are
        kept, not derived again."""
        return replace(
            self, prob=np.where(live[self.pairs.cells.of], self.prob,
                                old.prob),
            weights=np.where(live[self.pairs.claim_seg], self.weights,
                             old.weights))

    def matrices(self, engine: FusionEngine, keep) -> list[CopyMatrix]:
        """A ``CopyMatrix`` per part of ``engine`` in ``keep``: detected and
        known copy probabilities, and each claim's independence weight."""
        p, seg = self.pairs, engine.vsrc_segs.of.tolist()
        names = [key for part in engine.parts for key in part.vsrc_list]
        items = [it for part in engine.parts for it in part.items]
        found = dict(zip(zip(np.r_[p.lo, p.hi].tolist(),
                             np.r_[p.hi, p.lo].tolist()),
                         self.prob[np.r_[p.up, p.down]].tolist()))
        out = {k: CopyMatrix() for k in keep}
        for (i, j), q in ((found if self.detect else {}) | self.known).items():
            if seg[i] in out:
                out[seg[i]].prob[names[i], names[j]] = q
        on = np.isin(p.claim_seg, list(keep))
        for v, i, w in zip(engine.claim_vsrc[on].tolist(),
                           engine.claim_item[on].tolist(),
                           self.weights[on].tolist()):
            out[seg[v]].independence[names[v], items[i]] = w
        return list(out.values())


def _expand_known(known: dict[tuple[str, str], float],
                  engine: FusionEngine) -> dict[tuple[int, int], float]:
    """Known copier pairs, declared on real sources, as virtual source index
    pairs: per-attribute runs expand them to every shared attribute. A pair
    naming a source without claims cannot discount a vote and is dropped."""
    code = {s: k for k, s in enumerate(engine.claims.sources)}
    at = {(s, b): i for i, (s, b) in enumerate(zip(
        engine.vsrc_source.tolist(), engine.vsrc_attr.tolist()))}
    pairs = [(code[c], code[o], p) for (c, o), p in known.items()
             if c in code and o in code]
    return {(at[c, b], at[o, b]): p for c, o, p in pairs
            for b in range(int(engine.vsrc_attr.max()) + 1)
            if (c, b) in at and (o, b) in at}


class _PairIndex:
    """Copy evidence and independence weights over an engine's claims.

    Pair arrays are flat ``(blocks, width, width)``: cell ``(b, i, j)``
    counts, or gives P(i copies j), for sources i and j of block b; a
    per-attribute engine has a block per attribute, indexed by real source
    and object, and a stacked engine the blocks of each part in turn.
    Agreement counts are Gram matrices of 0/1 incidences.
    """

    def __init__(self, engine: FusionEngine):
        self.loc, self.cfg = engine.vsrc_source, engine.cfg
        segs = engine.vsrc_segs
        n_blocks = np.maximum.reduceat(engine.vsrc_attr, segs.start) + 1
        block = engine.vsrc_attr + (np.cumsum(n_blocks) - n_blocks)[segs.of]
        item_row = np.concatenate([
            part.claims.item_object if part.per_attribute
            else np.arange(part.n_items) for part in engine.parts])
        self.blocks, w = int(n_blocks.sum()), int(self.loc.max()) + 1
        self.width, self.rows = w, int(item_row.max()) + 1
        self.cells = _Segments.of_sizes(w * w * n_blocks)
        self.base = block * w + self.loc        # each source's row of cells
        v = engine.claim_vsrc
        contested_cand = engine.item_ncand[engine.cand_item] > 1
        on = contested_cand[engine.claim_cand]
        self._row = (block[v] * self.rows + item_row[engine.claim_item])[on]
        self._col, self._cand = self.loc[v][on], engine.claim_cand[on]
        self._first = engine.item_start[engine.cand_item]
        self.co = self._incidence_gram(self._row, self._col, self.rows)
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
        self.n_claims, self.claim_seg = len(v), engine.vsrc_segs.of[v]

    def _incidence_gram(self, row, col, n_rows: int) -> np.ndarray:
        """XᵀX per block, X the 0/1 incidence with ones at (row, col)."""
        x = np.zeros((self.blocks, n_rows, self.width), dtype=np.float32)
        x.reshape(-1)[row * self.width + col] = 1
        return _gram(x.transpose(0, 2, 1)).ravel()

    def _same_candidate(self, marked: np.ndarray) -> np.ndarray:
        """Per cell, the contested items where both sources are on one marked
        candidate; an item's marked candidates are layers of its row."""
        seen = np.cumsum(marked)
        layer = seen - seen[self._first] + marked[self._first] - 1
        on = marked[self._cand]
        layer = layer[self._cand[on]]
        depth = int(layer.max(initial=0)) + 1
        return self._incidence_gram(self._row[on] * depth + layer,
                                    self._col[on], self.rows * depth)

    def posteriors(self, true_cand: np.ndarray, trust: np.ndarray,
                   params: CopyParams) -> np.ndarray:
        """Copy posteriors of pairs with contested co-coverage (0 elsewhere)
        from the items where both are on one true, one false, two buckets."""
        prob = np.zeros(self.co.size)
        kt = self._same_candidate(true_cand)[self.up]
        prob[self.up], prob[self.down] = _pair_posterior(
            trust[self.lo], trust[self.hi], kt, self.agree - kt,
            self.co[self.up] - self.agree, params, self.cfg)
        return prob

    def pinned(self, directed: dict[tuple[int, int], float],
               prob: np.ndarray | None = None) -> np.ndarray:
        """``prob`` (zeros by default) with {(copier, original): p} pairs of
        one block each written in; own cells stay 0."""
        prob = np.zeros(self.co.size) if prob is None else prob
        keep = [k for k in directed if k[0] != k[1]]
        i, j = np.array(keep, dtype=np.int64).reshape(-1, 2).T
        if np.any(self.base[i] - self.loc[i] != self.base[j] - self.loc[j]):
            raise FusionError("a copy pair joins two attributes' sources")
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

