"""Iterative fixed-point fusion engine.

Every method shares one skeleton: per-item vote counts and per-source
trust scores are updated in alternation until the trust change drops under
a threshold, then the highest-vote value on each item is selected as true.
Methods differ in their vote term and transforms (one vote pass), trust
rule and first state, which live in one rule object per method (``_RULES``)
and nowhere else, and run in one round loop (``_fixed_point``).
Conflicting values are grouped into tolerance buckets first, so the
baseline vote method selects exactly the dominant bucketed value.

Per-attribute variants treat each (source, attribute) pair as an
independent virtual source; on single-attribute data they coincide with
the global variants.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import FusionConfig, RunConfig
from .model import (
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    KindMismatchError,
    TruthFuseError,
    Value,
)
from .normalize import (
    bucket_centre,
    bucket_claims,
    decay_span,
    item_widths,
    key_similarity,
    keys_match,
    keys_subsume,
    run_starts,
    tolerances,
    value_keys,
)

_ALIASES = {
    "twoestimates": "2-estimates", "2estimates": "2-estimates",
    "threeestimates": "3-estimates", "3estimates": "3-estimates",
}


class FusionError(TruthFuseError):
    """A fusion run was invoked with inconsistent inputs."""


@dataclass(frozen=True)
class MethodSpec:
    """A fusion method plus whether trust is kept per (source, attribute)."""

    name: str
    per_attribute_trust: bool = False

    def __post_init__(self):
        _rule(self.name)

    @classmethod
    def parse(cls, token: str) -> "MethodSpec":
        t = token.strip().lower().replace("_", "-")
        per_attr = False
        if t.endswith("attr"):
            per_attr = True
            t = t[: -len("attr")]
        t = _ALIASES.get(t.replace("-", ""), t)
        if t not in METHOD_NAMES:
            raise FusionError(
                f"unknown method {token!r}; valid methods: "
                f"{', '.join(method_labels())}")
        return cls(t, per_attr)

    def label(self) -> str:
        return _RULES[self.name].label + ("Attr" if self.per_attribute_trust
                                          else "")


def method_labels() -> list[str]:
    return [rule.label for rule in _RULES.values()]


@dataclass
class FusionResult:
    """Outcome of a fusion run: a selected value per item, the final trust
    map, and convergence diagnostics.

    ``chosen`` is each item's selected candidate on the engines over
    ``claims``, which gold scores read.
    ``wall_time`` is the run's time on its built engine, without building
    it. Runs that shared a stacked engine all carry the time of their
    whole batch (``fuse_segments``).
    """

    method: MethodSpec
    selected: dict[DataItem, Value]
    selected_vote: dict[DataItem, float]
    confidence: dict[DataItem, float]
    trust: dict
    rounds_used: int
    converged: bool
    wall_time: float
    tie_count: int
    trust_deltas: list[float] = field(default_factory=list)
    copy_matrix: object | None = None   # filled by copy-aware fusion
    claims: ClaimSet | None = field(default=None, compare=False, repr=False)
    chosen: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class FusionState:
    """One round's state: per-source trust, per-(item, value) votes, and
    (order-3 estimates only) per-value trust."""

    round: int
    trust: np.ndarray
    votes: np.ndarray
    value_trust: np.ndarray | None = None
    copying: object | None = None   # AccuCopy's ``copydetect.Copying``


class GoldMatch(NamedTuple):
    """A truth map matched against an engine's claims (``gold_match``)."""

    item: np.ndarray    # per item: the truth map covers it
    claim: np.ndarray   # per claim: its own value matches its item's truth
    cand: np.ndarray    # per candidate: its centre matches its item's truth
    engine: "FusionEngine"


class _Segments(NamedTuple):
    """A partition of an index range (virtual sources or candidates) into
    consecutive segments, one per engine stacked together."""

    start: np.ndarray   # first index of each segment
    of: np.ndarray      # segment of each index

    @classmethod
    def of_sizes(cls, sizes: Sequence[int]) -> "_Segments":
        """Consecutive segments of the given sizes, in order."""
        return cls(np.cumsum([0, *sizes[:-1]]),
                   np.repeat(np.arange(len(sizes)), sizes))

    def slices(self) -> list[slice]:
        ends = [*self.start[1:].tolist(), len(self.of)]
        return [slice(a, b) for a, b in zip(self.start.tolist(), ends)]


def _fan_out(rows: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Each row repeated once for every index of [start, start + count),
    paired with those indices."""
    rep = np.repeat(rows, count)
    return rep, (np.repeat(start - np.cumsum(count) + count, count)
                 + np.arange(len(rep)))


def clamp_trust(trust, cfg: FusionConfig):
    """``trust`` kept ``trust_clamp`` away from 0 and 1, so that logs and
    odds stay finite: the accuracy votes', 3-Estimates' value trust and the
    copy likelihood's."""
    return np.clip(trust, cfg.trust_clamp, 1.0 - cfg.trust_clamp)


class FusionEngine:
    """Array-backed view of a ClaimSet shared by every fusion method.

    Candidates are tolerance buckets; claims index into (virtual source,
    candidate) pairs; Attr methods run on a per-attribute view (``scoped``).
    The engine is read-only after construction; distinct runs on it are
    independent.

    Virtual sources and candidates are split into segments: one for an
    engine built from claims, one per part for an engine ``stack``ed from
    several. Rounds never mix values across segments.
    """

    _parts: tuple["FusionEngine", ...] = ()
    per_attribute = False
    _attr_view: "FusionEngine | None" = None

    def __init__(self, claims: ClaimSet, config: FusionConfig):
        self.claims = claims
        self.cfg = config
        if not len(claims):
            raise FusionError("cannot fuse an empty claim set")
        self.taus = tolerances(claims)

        self.items: list[DataItem] = list(claims.items)
        self.n_items = len(self.items)
        item_of = claims.claim_item
        keys = claims.value_key[claims.claim_value]
        self.spellings = claims.spellings
        self.item_width = item_widths(claims, self.taus)

        order, self.claim_cand, first, centres = bucket_claims(
            item_of, keys, self.item_width)
        self.cand_item = item_of[first].astype(np.int64)
        self.item_start = np.searchsorted(self.cand_item,
                                          np.arange(self.n_items))
        self.cand_values = [
            bucket_centre(claims.values[v], x) for v, x in
            zip(claims.claim_value[first].tolist(), centres.tolist())]
        self.n_cands = len(self.cand_values)
        self.cand_segs = _Segments.of_sizes([self.n_cands])
        self.claim_item = self.cand_item[self.claim_cand]
        src = np.arange(len(claims.sources))
        self._set_vsrc(list(claims.sources), src, np.zeros_like(src),
                       claims.claim_source[order])
        self._claim_key = keys[order]
        self._cand_key = centres
        self._claim_gran = claims.value_gran[claims.claim_value[order]]
        self.cand_counts = np.bincount(self.claim_cand,
                                       minlength=self.n_cands).astype(float)
        self.item_nprov = np.bincount(self.claim_item,
                                      minlength=self.n_items).astype(float)
        self.item_ncand = np.bincount(self.cand_item,
                                      minlength=self.n_items).astype(float)
        attrs = [claims.schema[a] for a in claims.attributes]
        cand_attr = claims.item_attr[self.cand_item]
        self._build_similarity(np.array([
            decay_span(a, self.taus[a.name], config)
            for a in attrs])[cand_attr])
        self._build_format_pairs(np.array([a.kind is Kind.NUMBER
                                           for a in attrs])[cand_attr])
        self._pop_term = self._build_popularity_term()

    def _set_vsrc(self, vsrc_list: list, vsrc_source: np.ndarray,
                  vsrc_attr: np.ndarray, claim_vsrc: np.ndarray) -> None:
        """Virtual sources: names, and codes into the claims' ``sources``
        and ``attributes`` (0 on a global engine: a source spans all)."""
        self.vsrc_list, self.vsrc_source = vsrc_list, vsrc_source
        self.vsrc_attr = vsrc_attr
        self.claim_vsrc, self.n_vsrc = claim_vsrc, len(vsrc_list)
        self.vsrc_segs = _Segments.of_sizes([self.n_vsrc])
        self.src_nvals = np.bincount(claim_vsrc).astype(float)  # all > 0

    def scoped(self, per_attribute: bool) -> "FusionEngine":
        """This engine, or for ``per_attribute`` its view with a virtual
        source per (source, attribute) pair, built once and kept here (with
        no reference back: no cycle) and sharing all but the vsrc fields."""
        if per_attribute == self.per_attribute:
            return self
        if self.per_attribute:
            raise FusionError("a per_attribute view has no global scope")
        if self._attr_view is None:
            names = self.claims.attributes
            n = len(names)
            code = self.claim_vsrc * n + self.claims.item_attr[self.claim_item]
            pairs, vsrc = np.unique(code, return_inverse=True)
            view = self._attr_view = copy.copy(self)
            view.per_attribute = True
            view._set_vsrc([(self.vsrc_list[p // n], names[p % n])
                            for p in pairs.tolist()], pairs // n, pairs % n,
                           vsrc)
        return self._attr_view

    @classmethod
    def stack(cls, parts: Sequence["FusionEngine"]) -> "FusionEngine":
        """One engine over the disjoint union of ``parts``, a segment each.

        It is assembled from the parts' arrays with index offsets, not
        built from claims, and serves the round loop only: results are
        assembled by the parts (``fuse_segments``). One part is its own
        stack.
        """
        cfg = parts[0].cfg
        if any(p.cfg != cfg for p in parts):
            raise FusionError("stacked engines need one fusion config")
        if len(parts) == 1:
            return parts[0]
        eng = cls.__new__(cls)
        eng.cfg, eng._parts = cfg, tuple(parts)
        sizes = {n: [getattr(p, n) for p in parts]
                 for n in ("n_vsrc", "n_cands", "n_items")}
        sizes["claims"] = [len(p.claim_cand) for p in parts]
        offsets = {n: _Segments.of_sizes(v).start.tolist()
                   for n, v in sizes.items()}

        def cat(name: str, size: str | None = None) -> np.ndarray:
            arrays = [getattr(p, name) for p in parts]
            if size is not None:
                arrays = [a + o for a, o in zip(arrays, offsets[size])]
            return np.concatenate(arrays)

        for name, size in (("claim_vsrc", "n_vsrc"), ("claim_cand", "n_cands"),
                           ("claim_item", "n_items"), ("cand_item", "n_items"),
                           ("item_start", "n_cands"), ("sim_i", "n_cands"),
                           ("sim_j", "n_cands"), ("fmt_claim", "claims"),
                           ("fmt_cand", "n_cands"), ("sim_w", None),
                           ("src_nvals", None), ("cand_counts", None),
                           ("item_nprov", None), ("item_ncand", None),
                           ("_pop_term", None), ("vsrc_source", None),
                           ("vsrc_attr", None)):
            setattr(eng, name, cat(name, size))
        eng.n_vsrc, eng.n_cands, eng.n_items = (
            sum(sizes[n]) for n in ("n_vsrc", "n_cands", "n_items"))
        eng.vsrc_segs = _Segments.of_sizes(sizes["n_vsrc"])
        eng.cand_segs = _Segments.of_sizes(sizes["n_cands"])
        return eng

    @property
    def parts(self) -> tuple["FusionEngine", ...]:
        """The engines of this one's segments: itself unless stacked."""
        return self._parts or (self,)

    def item_cands(self) -> list[range]:
        """Each item's candidates, as a range of candidate indexes."""
        ends = self.item_start + self.item_ncand.astype(np.int64)
        return list(map(range, self.item_start.tolist(), ends.tolist()))

    def _build_similarity(self, span: np.ndarray) -> None:
        """Ordered pairs of distinct candidates on one item with positive
        ``key_similarity`` of their centres, i-major and j-ascending."""
        n = self.item_ncand.astype(np.int64)[self.cand_item]
        n[n < 2] = 0
        i, j = _fan_out(np.arange(self.n_cands),
                        self.item_start[self.cand_item], n)
        i, j = i[i != j], j[i != j]
        sims = key_similarity(self._cand_key[i], self._cand_key[j], span[i],
                              self.spellings)
        keep = sims > 0.0
        self.sim_i, self.sim_j, self.sim_w = i[keep], j[keep], sims[keep]

    def cand_members(self):
        """Each candidate's distinct claimed keys (numbers, times or text
        ranks) in ascending order, as (candidate, key, granularity)
        arrays; a member's granularity is that of its first provider in
        source order (0 for none, which ``subsumes`` treats alike)."""
        order = np.lexsort((self._claim_key, self.claim_cand))
        cand, key = self.claim_cand[order], self._claim_key[order]
        first = run_starts(cand, key)
        return cand[first], key[first], self._claim_gran[order][first]

    def _build_format_pairs(self, numeric: np.ndarray) -> None:
        """Claim -> candidate pairs where the claim's value subsumes a
        strictly finer member of another candidate on the same item, in
        claim-then-candidate order (``keys_subsume``, as ``subsumes``).
        A member equal to the claim's own value lies in the claim's own
        candidate, so only the rounding test can pair."""
        m_cand, m_key, m_fine = self.cand_members()
        on = numeric[m_cand]
        m_cand, m_key, m_fine = m_cand[on], m_key[on], m_fine[on]
        m_item = self.cand_item[m_cand]
        claim = np.flatnonzero(numeric[self.claim_cand])
        item = self.claim_item[claim]
        k, m = _fan_out(claim, np.searchsorted(m_item, item),
                        np.bincount(m_item, minlength=self.n_items)[item])
        finer = ((m_cand[m] != self.claim_cand[k])
                 & (self._claim_gran[k] > m_fine[m]))
        k, m = k[finer], m[finer]
        hit = keys_subsume(self._claim_key[k], self._claim_gran[k], m_key[m],
                           m_fine[m])
        k, cand = k[hit], m_cand[m][hit]
        new = run_starts(k, cand)
        self.fmt_claim, self.fmt_cand = k[new], cand[new]

    def _build_popularity_term(self) -> np.ndarray:
        """Static per-candidate log-mass of competing observed values,
        used by the empirical-popularity vote rule."""
        n = self.cand_counts
        nlogn = np.where(n > 0, n * np.log(np.maximum(n, 1.0)), 0.0)
        item_nlogn = np.bincount(self.cand_item, weights=nlogn,
                                 minlength=self.n_items)
        rest = self.item_nprov[self.cand_item] - n
        rest_term = np.where(rest > 0,
                             rest * np.log(np.maximum(rest, 1.0)), 0.0)
        return item_nlogn[self.cand_item] - nlogn - rest_term

    # -- small shared helpers -------------------------------------------

    def _per_item_sum(self, per_cand: np.ndarray) -> np.ndarray:
        return np.add.reduceat(per_cand, self.item_start)

    def _per_item_max(self, per_cand: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(per_cand, self.item_start)

    @staticmethod
    def _norm_max(x: np.ndarray, segs: _Segments) -> np.ndarray:
        """Each segment of ``x`` over its largest magnitude; a segment of
        zeros stays as it is."""
        m = np.maximum.reduceat(np.abs(x), segs.start)
        return x / np.where(m > 0, m, 1.0)[segs.of]

    @staticmethod
    def _rescale01(x: np.ndarray, segs: _Segments) -> np.ndarray:
        """Each segment of ``x`` mapped affinely onto [0, 1]."""
        lo = np.minimum.reduceat(x, segs.start)
        hi = np.maximum.reduceat(x, segs.start)
        # All-equal family: no spread to rescale; confine to the unit range
        # so reciprocal weights cannot amplify it round over round. Its
        # affine form divides by 1 so that it raises no warning.
        flat = hi <= lo
        spread = (x - np.where(flat, 0.0, lo)[segs.of]) \
            / np.where(flat, 1.0, hi - lo)[segs.of]
        return np.where(flat[segs.of], np.clip(x, 0.0, 1.0), spread)

    def select(self, votes: np.ndarray) -> tuple[np.ndarray, int]:
        """Per-item argmax with deterministic smallest-value tie-break
        (candidates are stored in ascending value order)."""
        maxv = self._per_item_max(votes)
        is_max = votes == maxv[self.cand_item]
        idx = np.where(is_max, np.arange(self.n_cands), self.n_cands)
        chosen = np.minimum.reduceat(idx, self.item_start)
        ties = int(np.sum(np.add.reduceat(is_max.astype(np.int64),
                                          self.item_start) > 1))
        return chosen.astype(np.int64), ties

    def trust_array(self, input_trust: dict) -> np.ndarray:
        """Materialize an input trust map over the virtual sources.

        For per-attribute runs a plain per-source map is broadcast across
        attributes. Every virtual source must be covered.
        """
        t = np.empty(self.n_vsrc, dtype=float)
        for i, key in enumerate(self.vsrc_list):
            if key in input_trust:
                t[i] = float(input_trust[key])
            elif self.per_attribute and key[0] in input_trust:
                t[i] = float(input_trust[key[0]])
            else:
                raise FusionError(f"input trust does not cover source "
                                  f"{key!r}")
        return t

    def trust_map(self, trust: np.ndarray) -> dict:
        return {key: float(trust[i]) for i, key in enumerate(self.vsrc_list)}

    def gold_match(self, truth: Mapping[DataItem, Value]) -> "GoldMatch":
        """Which claims and candidates agree with ``truth`` on the items it
        covers: ``values_match`` in array form (``keys_match`` within each
        item's width), on each claim's own key and each candidate's
        centre; ``KindMismatchError`` for a truth of another kind."""
        on = np.array([it in truth for it in self.items], dtype=bool)
        covered = [truth[it] for it in self.items if it in truth]
        kinds = [self.claims.schema[a].kind for a in self.claims.attributes]
        for k, v in zip(np.flatnonzero(on).tolist(), covered):
            if v.kind is not kinds[self.claims.item_attr[k]]:
                raise KindMismatchError(
                    f"a {v.kind.value} truth on {self.items[k]}")
        # An item without truth has a NaN key, which matches nothing.
        x = np.full(self.n_items, np.nan)
        x[on] = value_keys(covered, self.spellings)[0]
        w, ki, ci = self.item_width, self.claim_item, self.cand_item
        return GoldMatch(on, keys_match(self._claim_key, x[ki], w[ki]),
                         keys_match(self._cand_key, x[ci], w[ci]), self)

    # -- method rules (one object per method in ``_RULES``) ---------------

    def votes_once(self, method: str, trust: np.ndarray,
                   value_trust: np.ndarray | None = None,
                   weights: np.ndarray | None = None) -> np.ndarray:
        """``method``'s vote pass (``_Rule.votes``) under fixed trust, each
        claim scaled by its independence weight if ``weights`` are given."""
        return _rule(method).votes(self, trust, value_trust, weights)

    def step(self, method: str,
             state: FusionState) -> tuple[FusionState, np.ndarray]:
        """Advance one fixed-point round; returns the new state and each
        segment's max absolute change (``_state_delta``)."""
        new = _rule(method).round(self, state)
        return new, self._state_delta(state, new)

    def _state_delta(self, old: FusionState, new: FusionState) -> np.ndarray:
        """Per segment, the max absolute change of trust, votes and copying.

        Trust alone can be transiently stationary while votes still move
        (e.g. the investment trust update is uniform on uniform-coverage
        data for one round), so all families gate convergence.
        """
        trust = np.maximum.reduceat(np.abs(new.trust - old.trust),
                                    self.vsrc_segs.start)
        votes = np.maximum.reduceat(np.abs(new.votes - old.votes),
                                    self.cand_segs.start)
        delta = np.where(votes > trust, votes, trust)
        if new.copying is not None:
            prob = np.abs(new.copying.prob - old.copying.prob)
            prob = np.maximum.reduceat(prob, new.copying.pairs.cells.start)
            delta = np.where(prob > delta, prob, delta)
        return delta

    def _claim_sum(self, per_claim: np.ndarray,
                   weights: np.ndarray | None) -> np.ndarray:
        if weights is not None:
            per_claim = per_claim * weights
        return np.bincount(self.claim_cand, weights=per_claim,
                           minlength=self.n_cands)

    # -- posteriors (Bayesian family) ------------------------------------

    def posteriors(self, votes: np.ndarray,
                   observed_only: bool = False) -> np.ndarray:
        """Per-candidate truth probabilities from log-scale vote counts.

        The denominator pools the observed values plus, unless
        ``observed_only``, the remaining unobserved portion of a domain of
        n_false + 1 values (each contributing e^0).
        """
        m = self._per_item_max(votes)[self.cand_item]
        expd = np.exp(votes - m)
        denom = self._per_item_sum(expd)[self.cand_item]
        if not observed_only:
            extra = np.maximum(
                self.cfg.n_false + 1 - self.item_ncand[self.cand_item], 0.0)
            denom = denom + extra * np.exp(-m)
        return expd / denom

    def trust_from_posteriors(self, post: np.ndarray) -> np.ndarray:
        return self.mean_trust(post[self.claim_cand])

    # -- sums over the claims of each group -------------------------------

    def _group_sum(self, per_claim: np.ndarray,
                   group: np.ndarray | None = None) -> np.ndarray:
        """Per virtual source, or per code (dense from 0) ``group`` gives."""
        if group is None:
            return np.bincount(self.claim_vsrc, weights=per_claim,
                               minlength=self.n_vsrc)
        return np.bincount(group, weights=per_claim)

    def _group_size(self, group: np.ndarray | None) -> np.ndarray:
        """Each group's number of claims, at least 1."""
        if group is None:
            return self.src_nvals
        return np.maximum(np.bincount(group), 1)

    def mean_trust(self, per_claim: np.ndarray,
                   group: np.ndarray | None = None) -> np.ndarray:
        """The accuracy rule: each group's mean over its claims of their
        probability of truth (a posterior, or 0/1 against gold), clamped."""
        return clamp_trust(self._group_sum(per_claim, group)
                           / self._group_size(group), self.cfg)

    # -- result assembly --------------------------------------------------

    def build_result(self, method: MethodSpec, votes: np.ndarray,
                     trust: np.ndarray, rounds: int, converged: bool,
                     wall_time: float, deltas: list[float],
                     confidence: np.ndarray | None = None) -> FusionResult:
        chosen, ties = self.select(votes)
        if confidence is None:
            pos = np.maximum(votes, 0.0)
            item_pos = self._per_item_sum(pos)
            conf = np.divide(
                pos[chosen], item_pos,
                out=np.full(self.n_items, 1.0),
                where=item_pos > 0)
        else:
            conf = confidence[chosen]
        selected = {it: self.cand_values[c]
                    for it, c in zip(self.items, chosen.tolist())}
        trust_out = (self.trust_map(trust) if _RULES[method.name].iterates
                     else {})
        return FusionResult(
            method=method, selected=selected,
            selected_vote=dict(zip(self.items, votes[chosen].tolist())),
            confidence=dict(zip(self.items, conf.tolist())),
            trust=trust_out, rounds_used=rounds,
            converged=converged, wall_time=wall_time, tie_count=ties,
            trust_deltas=deltas, claims=self.claims, chosen=chosen)


# -- method rules ------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """One method's rules on an engine ``e``: ``start`` (a run's first
    state), ``votes`` (a per-source ``term``, summed per value, then the
    named ``transforms`` in order), a trust update over virtual sources or
    ``group`` codes (shared by rounds and ``sample_trust``), ``round``
    (voting through ``e.votes_once``), ``sample`` (gold trust, with a
    default) and ``confidence``."""

    label: str
    transforms: tuple = ()
    iterates = True     # False: select on the first votes, without rounds
    input_rounds = False    # rounds run under input trust, kept fixed
    posterior = False   # accu_posteriors gives its confidence under trust

    @property
    def name(self) -> str:
        return self.label.lower()

    def term(self, e, trust):   # each source's vote for each of its values
        return trust

    def votes(self, e, trust, value_trust, weights):
        # The one vote pass: each claim's source term times its weight.
        votes = e._claim_sum(self.term(e, trust)[e.claim_vsrc], weights)
        for transform in self.transforms:
            votes = transform(self, e, votes, trust, value_trust, weights)
        return votes

    def round(self, e, state):
        raise FusionError(f"{self.label} has no rounds in the engine")

    def final_votes(self, e, state):    # the votes results select on
        return state.votes

    def confidence(self, e, votes):
        return None     # a value's share of its item's positive votes

    def _vote_on(self, e, state, trust):
        votes = e.votes_once(self.name, trust)
        return FusionState(state.round + 1, trust, votes, state.value_trust)


# -- vote transforms: f(rule, e, votes, trust, value_trust, weights) -> votes


def _norm_max(rule, e, votes, *_):
    return e._norm_max(votes, e.cand_segs)


def _invest_power(rule, e, votes, *_):
    return votes ** e.cfg.invest_exponent


def _pooled_share(rule, e, votes, *_):
    """The item's investment, shared by a power of each value's own."""
    powed = np.power(np.maximum(votes, 0.0), e.cfg.pooled_exponent)
    denom = e._per_item_sum(powed)[e.cand_item]
    total = e._per_item_sum(votes)[e.cand_item]
    return np.where(denom > 0, np.divide(
        powed, denom, out=np.zeros_like(powed),
        where=denom > 0) * total, votes)


def _cosine_ratio(rule, e, votes, *_):
    """A value's support less the item's rest, over the item's total."""
    item_total = e._per_item_sum(votes)[e.cand_item]
    num = 2.0 * votes - item_total
    return np.divide(num, item_total, out=np.zeros_like(num),
                     where=np.abs(item_total) > 1e-300)


def _estimates_numerator(rule, e, votes, trust, value_trust, weights):
    """Per provider of the item: a value's trust support plus the distrust
    of the item's others; 3-Estimates weighs the difference by value trust."""
    item_t = e._per_item_sum(votes)[e.cand_item]
    nprov = e.item_nprov[e.cand_item]
    if not rule.order3:
        num = votes + (nprov - e.cand_counts) - (item_t - votes)
    else:
        vt = e.cfg.init_value_trust if value_trust is None else value_trust
        num = vt * (2.0 * votes - item_t) + nprov - e.cand_counts
    return num / nprov


def _rescale01(rule, e, votes, *_):
    return e._rescale01(votes, e.cand_segs)


def _popularity(rule, e, votes, *_):
    return votes + e._pop_term


def _format_credit(rule, e, votes, trust, value_trust, weights):
    """Partial-provider credit: a coarse value's provider adds
    w_fmt * trust (scaled by its independence weight) to each strictly
    finer value it subsumes."""
    if e.cfg.w_fmt == 0.0 or e.fmt_claim.size == 0:
        return votes
    out = votes.copy()
    credit = e.cfg.w_fmt * trust[e.claim_vsrc[e.fmt_claim]]
    if weights is not None:
        credit = credit * weights[e.fmt_claim]
    np.add.at(out, e.fmt_cand, credit)
    return out


def _boost(rule, e, votes, *_):
    """Credit each value with rho * sim * vote of every similar value."""
    r = e.cfg.rho
    if r == 0.0 or e.sim_i.size == 0:
        return votes
    boosted = votes.copy()
    np.add.at(boosted, e.sim_i, r * e.sim_w * votes[e.sim_j])
    return boosted


class _Vote(_Rule):
    """Each value's number of providers."""

    iterates = False

    def start(self, e, *_):
        return FusionState(0, np.ones(e.n_vsrc), e.cand_counts.copy())

    def votes(self, e, trust, value_trust, weights):
        return e.cand_counts.copy()

    def sample(self, e, match, group, segs):
        return np.ones(len(segs.of)), 1.0     # every source alike


@dataclass(frozen=True)
class _Hub(_Rule):
    """Hub: votes sum trust and trust sums votes, both scaled to a maximum
    of 1. AvgLog's trust is the mean vote times log(1 + claims). Votes
    start equal: the first round scales trust to a maximum of 1, so any
    positive start gives the same trust."""

    avg_log: bool = False

    def start(self, e, *_):
        return FusionState(0, np.zeros(e.n_vsrc), np.full(e.n_cands, 0.5))

    def trust(self, e, votes, group=None):
        raw = e._group_sum(votes[e.claim_cand], group)
        if self.avg_log:
            n = e._group_size(group)
            # +1 smoothing keeps single-value sources from log(1) = 0.
            # numpy's log1p and the math module's differ in the last bit
            # on a few integers (2, 13, 47, ...); rounds have always taken
            # the former and trust sampling the latter.
            log = (np.log1p(n) if group is None
                   else np.array([math.log1p(k) for k in n.tolist()]))
            raw = raw / n * log
        return raw

    def round(self, e, state):
        trust = e._norm_max(self.trust(e, state.votes), e.vsrc_segs)
        return self._vote_on(e, state, trust)

    def sample(self, e, match, group, segs):
        trust = self.trust(e, match.cand.astype(float), group)
        return e._norm_max(trust[:len(segs.of)], segs), 0.0


@dataclass(frozen=True)
class _Invest(_Rule):
    """Invest: sources invest trust evenly over their claims and earn their
    share of the votes, both scaled to a maximum of 1; PooledInvest pools."""

    pooled: bool = False

    def start(self, e, *_):
        votes = (1.0 / e.item_ncand[e.cand_item] if self.pooled
                 else e.cand_counts / e.item_nprov[e.cand_item])
        return FusionState(0, np.ones(e.n_vsrc), votes)

    def term(self, e, trust):
        return trust / e.src_nvals

    def trust(self, e, votes, trust, group=None):
        """Each group's share of its candidates' votes, by the trust (per
        group, or one for all) it invested evenly over its claims."""
        inv_w = (trust / e._group_size(group))[
            e.claim_vsrc if group is None else group]
        inv_sum = e._claim_sum(inv_w, None)
        share = np.divide(inv_w, inv_sum[e.claim_cand],
                          out=np.zeros_like(inv_w),
                          where=inv_sum[e.claim_cand] > 0)
        return e._group_sum(votes[e.claim_cand] * share, group)

    def _scaled(self, e, trust, segs):
        return trust if self.pooled else e._norm_max(trust, segs)

    def round(self, e, state):
        trust = self._scaled(e, self.trust(e, state.votes, state.trust),
                             e.vsrc_segs)
        return self._vote_on(e, state, trust)

    def sample(self, e, match, group, segs):
        trust = self.trust(e, match.cand.astype(float), 1.0, group)
        return self._scaled(e, trust[:len(segs.of)], segs), 0.0


class _Cosine(_Rule):
    """Cosine: votes in [-1, 1]; trust is the damped cosine between a
    source's claims and the votes."""

    def start(self, e, *_):
        return FusionState(0, np.ones(e.n_vsrc), np.ones(e.n_cands))

    def term(self, e, trust):
        return np.power(trust, e.cfg.cosine_trust_power)

    def trust(self, e, votes, group=None):
        own = votes[e.claim_cand]
        item_sum = e._per_item_sum(votes)
        item_sq = e._per_item_sum(votes * votes)
        num = e._group_sum(2.0 * own - item_sum[e.claim_item], group)
        nvals = e._group_sum(e.item_ncand[e.claim_item], group)
        sq = e._group_sum(item_sq[e.claim_item], group)
        den = np.sqrt(nvals * sq)
        cos = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return np.clip(cos, -1.0, 1.0)

    def round(self, e, state):
        damping = e.cfg.cosine_damping
        trust = (damping * state.trust
                 + (1.0 - damping) * self.trust(e, state.votes))
        return self._vote_on(e, state, trust)

    def sample(self, e, match, group, segs):
        gold = 2.0 * match.cand.astype(float) - 1.0    # +1 true, -1 false
        return self.trust(e, gold, group), 0.0


@dataclass(frozen=True)
class _Estimates(_Rule):
    """2-Estimates: votes and trust rescaled onto [0, 1]; 3-Estimates adds
    each value's error rate (value trust)."""

    order3: bool = False

    def start(self, e, *_):
        value_trust = (np.full(e.n_cands, e.cfg.init_value_trust)
                       if self.order3 else None)
        return FusionState(0, np.ones(e.n_vsrc), np.zeros(e.n_cands),
                           value_trust)

    def trust(self, e, votes, value_trust, group=None):
        own = votes[e.claim_cand]
        if value_trust is None:
            item_anti = e._per_item_sum(1.0 - votes)
            per_claim = own + item_anti[e.claim_item] - (1.0 - own)
        else:
            u = 1.0 / np.maximum(1.0 - value_trust, e.cfg.trust_clamp)
            u_own = u[e.claim_cand]
            item_anti = e._per_item_sum((1.0 - votes) * u)
            per_claim = (own * u_own + item_anti[e.claim_item]
                         - (1.0 - own) * u_own)
        num = e._group_sum(per_claim, group)
        den = e._group_sum(e.item_ncand[e.claim_item], group)
        return num / np.maximum(den, 1.0)

    def round(self, e, state):
        votes = e.votes_once(self.name, state.trust,
                             value_trust=state.value_trust)
        value_trust = None
        if self.order3:
            r = 1.0 / np.maximum(1.0 - state.trust, e.cfg.trust_clamp)
            r_support = e._claim_sum(r[e.claim_vsrc], None)
            item_r = e._per_item_sum(r_support)[e.cand_item]
            value_trust = (votes * r_support
                           + (1.0 - votes) * (item_r - r_support)) \
                / e.item_nprov[e.cand_item]
            # The affine [0,1] rescale covers the vote and source-trust
            # families; the per-value error rate is truncated instead, so a
            # low-ranked true value cannot see its votes inverted.
            value_trust = clamp_trust(value_trust, e.cfg)
        trust = e._rescale01(self.trust(e, votes, value_trust), e.vsrc_segs)
        return FusionState(state.round + 1, trust, votes, value_trust)

    def sample(self, e, match, group, segs):
        # 3-Estimates samples the 2-Estimates rule (no value trust).
        return self.trust(e, match.cand.astype(float), None, group), 1.0


@dataclass(frozen=True)
class _Posterior(_Rule):
    """AccuPr: votes sum log(n_false * t / (1 - t)); PopAccu, with n_false = 1,
    adds popularity; AccuSim and AccuFormat add similar and coarse values'.
    TruthFinder sums -log(1 - t); its truth is 1 - exp(-gamma * vote)."""

    truthfinder: bool = False
    popularity: bool = False
    posterior = True

    def start(self, e, *_):
        return FusionState(0, np.full(e.n_vsrc, e.cfg.init_trust_bayes),
                           np.zeros(e.n_cands))

    def sample(self, e, match, group, segs):
        return (e.mean_trust(match.claim.astype(float), group),
                clamp_trust(np.float64(e.cfg.init_trust_bayes), e.cfg))

    def term(self, e, trust):
        t = clamp_trust(trust, e.cfg)
        if self.truthfinder:
            return -np.log(1.0 - t)
        n_false = 1 if self.popularity else e.cfg.n_false
        return np.log(n_false * t / (1.0 - t))

    def round(self, e, state):
        votes = e.votes_once(self.name, state.trust)
        truth = (1.0 - np.exp(-e.cfg.truthfinder_gamma * votes)
                 if self.truthfinder else self.confidence(e, votes))
        return FusionState(state.round + 1, e.trust_from_posteriors(truth),
                           votes, state.value_trust)

    def confidence(self, e, votes):
        return e.posteriors(votes, observed_only=self.popularity)


class _CopyAware(_Posterior):
    """AccuCopy: AccuFormat's votes, each claim's scaled by its independence
    weight, re-detected (``copydetect.Copying``) against each selection."""

    input_rounds = True
    posterior = False   # its posteriors also need a run's copy weights

    def start(self, e, config, input_trust=None, known_copiers=None,
              detect=True):
        from .copydetect import Copying
        if len(e.parts) > 1 and (input_trust is not None or known_copiers):
            raise FusionError("input trust and known copiers name the "
                              "sources of one engine, not of a stack")
        state = super().start(e)
        if input_trust is not None:
            state.trust = e.trust_array(input_trust)
        state.copying = Copying.start(e, config.copy, known_copiers, detect,
                                      input_trust is not None)
        return state

    def round(self, e, state):
        chosen, _ = e.select(self.final_votes(e, state))
        copying = state.copying.redetect(
            np.bincount(chosen, minlength=e.n_cands) > 0, state.trust)
        # Trust from the discounted votes, or copier blocks lock it in.
        votes = e.votes_once(self.name, state.trust, weights=copying.weights)
        trust = (state.trust if copying.fixed_trust
                 else e.trust_from_posteriors(self.confidence(e, votes)))
        return FusionState(state.round + 1, trust, votes, None, copying)

    def final_votes(self, e, state):
        return e.votes_once(self.name, state.trust,
                            weights=state.copying.weights)


_RULES: dict[str, _Rule] = {rule.name: rule for rule in (
    _Vote("Vote"),
    _Hub("Hub", (_norm_max,)),
    _Hub("AvgLog", (_norm_max,), avg_log=True),
    _Invest("Invest", (_invest_power, _norm_max)),
    _Invest("PooledInvest", (_pooled_share,), pooled=True),
    _Cosine("Cosine", (_cosine_ratio,)),
    _Estimates("2-Estimates", (_estimates_numerator, _rescale01)),
    _Estimates("3-Estimates", (_estimates_numerator, _rescale01), order3=True),
    _Posterior("TruthFinder", (_boost,), truthfinder=True),
    _Posterior("AccuPr"),
    _Posterior("PopAccu", (_popularity,), popularity=True),
    _Posterior("AccuSim", (_boost,)),
    _Posterior("AccuFormat", (_format_credit, _boost)),
    _CopyAware("AccuCopy", (_format_credit, _boost)),
)}
METHOD_NAMES = tuple(_RULES)


def _rule(name: str) -> _Rule:
    if name not in _RULES:
        raise FusionError(f"unknown method {name!r}; valid methods: "
                          f"{', '.join(method_labels())}")
    return _RULES[name]


def engine_for(claims: ClaimSet, config: FusionConfig,
               per_attribute: bool = False,
               engine: FusionEngine | None = None) -> FusionEngine:
    """A new engine, or the given shared one after checking that it was
    built from exactly these claims and constants, ``scoped`` to the run."""
    if engine is None:
        engine = FusionEngine(claims, config)
    elif engine.claims is not claims:
        raise FusionError("engine was built over a different claim set")
    elif engine.cfg != config:
        raise FusionError("engine was built with a different fusion config")
    return engine.scoped(per_attribute)


def run_fusion(method: MethodSpec, claims: ClaimSet, config: RunConfig,
               input_trust: dict | None = None,
               known_copiers: dict[tuple[str, str], float] | None = None,
               detect_copying: bool = True,
               engine: FusionEngine | None = None) -> FusionResult:
    """Resolve conflicts in ``claims`` with the given method.

    Without ``input_trust`` the method iterates vote and trust updates to a
    fixed point (round cap exceeded flags the result non-converged, it does
    not raise). With ``input_trust`` a single deterministic vote pass runs
    under the fixed trust (AccuCopy, which reads ``known_copiers`` and
    ``detect_copying``, iterates under it). The vote baseline never iterates.

    Runs only read an ``engine``, so one built for ``claims`` serves any
    number of runs (checked by ``engine_for``); without it, one is built.
    """
    engine = engine_for(claims, config.fusion, method.per_attribute_trust,
                        engine)
    rule = _RULES[method.name]
    if input_trust is None or not rule.iterates or rule.input_rounds:
        return fuse_segments(method, engine, config, input_trust,
                             known_copiers, detect_copying)[0]
    t0 = time.perf_counter()
    trust = engine.trust_array(input_trust)
    votes = engine.votes_once(method.name, trust)
    return engine.build_result(
        method, votes, trust, rounds=1, converged=True,
        wall_time=time.perf_counter() - t0, deltas=[],
        confidence=rule.confidence(engine, votes))


def fuse_segments(method: MethodSpec, engine: FusionEngine,
                  config: RunConfig, *options) -> list[FusionResult]:
    """``method``'s run (``_fixed_point``) on every part of ``engine``
    (itself unless a ``stack``), one result per part, each timed as the
    whole call. Only AccuCopy reads ``config`` and the options after it."""
    t0 = time.perf_counter()
    state, votes, deltas, converged = _fixed_point(method, engine, config,
                                                   *options)
    conf = _RULES[method.name].confidence(engine, votes)
    wall = time.perf_counter() - t0
    results = [part.build_result(
        method, votes[c], state.trust[v], rounds=len(d), converged=ok,
        deltas=d, wall_time=wall, confidence=None if conf is None else conf[c])
        for part, v, c, d, ok in zip(engine.parts, engine.vsrc_segs.slices(),
                                     engine.cand_segs.slices(), deltas,
                                     converged)]
    for result, matrix in zip(results, state.copying.matrices(engine)
                              if state.copying else ()):
        result.copy_matrix = matrix
    return results


def _fixed_point(method: MethodSpec, engine: FusionEngine,
                 config: RunConfig, *options):
    """The round loop of every method on all segments at once, each frozen
    from its first round under ``epsilon`` (or the cap) on, as if run alone:
    the final state and votes, and per segment its changes and convergence."""
    cfg, rule = engine.cfg, _RULES[method.name]
    state = rule.start(engine, config, *options)
    converged = np.full(len(engine.parts), not rule.iterates)
    live, deltas = ~converged, [[] for _ in engine.parts]
    while live.any() and state.round < cfg.round_cap:
        new, delta = engine.step(method.name, state)
        if not live.all():
            new = _freeze(engine, state, new, live)
        for k in np.flatnonzero(live).tolist():
            deltas[k].append(float(delta[k]))
        done = live & (delta < cfg.epsilon)
        converged |= done
        live &= ~done
        state = new
    return state, rule.final_votes(engine, state), deltas, converged.tolist()


def _freeze(engine: FusionEngine, old: FusionState, new: FusionState,
            live: np.ndarray) -> FusionState:
    """``new``, with the segments that are not ``live`` kept at ``old``."""
    v, c = live[engine.vsrc_segs.of], live[engine.cand_segs.of]
    return FusionState(
        new.round, np.where(v, new.trust, old.trust),
        np.where(c, new.votes, old.votes),
        None if new.value_trust is None
        else np.where(c, new.value_trust, old.value_trust),
        None if new.copying is None
        else new.copying.frozen(old.copying, live))


def accu_posteriors(claims: ClaimSet, trust: dict, config: RunConfig,
                    variant: str = "accupr",
                    ) -> dict[DataItem, dict[Value, float]]:
    """Per-item truth posteriors under fixed trust (one vote pass) for a
    ``variant`` whose confidence is a posterior (not AccuCopy's)."""
    rule = _RULES.get(variant)
    if rule is None or not rule.posterior:
        valid = [n for n, r in _RULES.items() if r.posterior]
        raise FusionError(f"no posteriors for {variant!r}; valid variants: "
                          f"{', '.join(valid)}")
    engine = engine_for(claims, config.fusion)
    votes = engine.votes_once(variant, engine.trust_array(trust))
    post = rule.confidence(engine, votes)
    out: dict[DataItem, dict[Value, float]] = {}
    for c in range(engine.n_cands):
        item = engine.items[int(engine.cand_item[c])]
        out.setdefault(item, {})[engine.cand_values[c]] = float(post[c])
    return out


# -- sampled trustworthiness ---------------------------------------------


def sample_trust(method: MethodSpec, claims: ClaimSet, gold: GoldStandard,
                 config: RunConfig, match: GoldMatch | None = None) -> dict:
    """The method's own trust update (``FusionEngine.step``'s) applied once
    to gold votes, over the claims on gold items, as its rule's ``sample``
    says; 3-Estimates takes the 2-Estimates update, without value trust.

    A candidate votes 1 when its centre matches the gold value, else 0; the
    accuracy family takes each claim's own value. Per-attribute variants
    sample each (source, attribute), scaled within the attribute, and take
    the source's global sample when the attribute has no gold item or the
    pair fewer gold-covered claims than ``attr_min_gold``. ``match`` is
    ``gold``'s match on an engine over ``claims`` or its per-attribute view
    (the engine is checked as in ``run_fusion``), else a new engine's.
    """
    if not gold.entries:
        raise FusionError("sample_trust requires a non-empty gold standard")
    cfg = config.fusion
    engine = engine_for(claims, cfg, method.per_attribute_trust,
                        match.engine if match else None)
    match = match or engine.gold_match(gold.entries)
    if not method.per_attribute_trust:
        return engine.trust_map(_sampled(method.name, engine, match,
                                         np.arange(engine.n_vsrc),
                                         [engine.n_vsrc]))
    # The per-attribute groups list the virtual sources by attribute, then
    # source.
    attr, source = engine.vsrc_attr, engine.vsrc_source
    order = np.lexsort((source, attr))
    rank = np.argsort(order)
    per_attr = _sampled(method.name, engine, match, rank,
                        np.bincount(attr).tolist())[rank]
    whole = _sampled(method.name, engine, match, source,
                     [len(claims.sources)])[source]
    n_covered = np.bincount(engine.claim_vsrc, minlength=engine.n_vsrc,
                            weights=match.item[engine.claim_item])
    gold_attrs = {it.attribute for it in gold.entries}
    on = np.array([a in gold_attrs for a in claims.attributes])[attr]
    trust = np.where(on & (n_covered >= cfg.attr_min_gold), per_attr, whole)
    return {engine.vsrc_list[v]: float(trust[v]) for v in order.tolist()}


def _sampled(name: str, engine: FusionEngine, match: GoldMatch,
             group_of_vsrc: np.ndarray, sizes: list[int]) -> np.ndarray:
    """``name``'s sampled trust (``sample_trust``) of the groups of virtual
    sources given by ``group_of_vsrc``, normalised within consecutive
    segments of ``sizes`` groups."""
    n, segs = sum(sizes), _Segments.of_sizes(sizes)
    # Claims off gold items form one more group, dropped at the end.
    group = np.where(match.item[engine.claim_item],
                     group_of_vsrc[engine.claim_vsrc], n)
    trust, default = _rule(name).sample(engine, match, group, segs)
    return np.where(np.bincount(group, minlength=n + 1)[:n] > 0, trust[:n],
                    default)
