"""Copy detection: pairwise posteriors, independence weights, group
commonality, and copy-aware fusion end to end."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from truthfuse.config import FusionConfig, load_config
from truthfuse.copydetect import (
    CopyMatrix,
    GroupCommonality,
    _PairIndex,
    detect_copying,
    group_commonality,
    independence_weights,
)
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    engine_for,
    run_fusion,
)
from truthfuse.metrics import source_accuracy, source_scores
from truthfuse.model import (
    AttributeSpec,
    DataItem,
    GoldStandard,
    Kind,
    Value,
)
from truthfuse.normalize import bucketize, tolerances, values_match
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

from conftest import (
    Claim,
    by_source,
    claim_set,
    claims_of,
    copier_snapshot,
    make_claims,
    make_gold,
    ref_trust_from_posteriors,
)
from test_gold_scores import ref_source_accuracy

CFG = load_config()
SCHEMA_TT = {a.name: a for a in (
    AttributeSpec("depart", Kind.TIME_OF_DAY, 10.0),
    AttributeSpec("gate", Kind.TEXT, 0.0))}


def pair_oracle(a1, a2, kt, kf, kd, params, fusion=CFG.fusion):
    """Independent likelihood-product oracle over the three hypotheses."""
    n, c, p0 = fusion.n_false, params.copy_rate, params.prior_copy_prob
    pt_i = a1 * a2
    pf_i = (1 - a1) * (1 - a2) / n
    pd_i = 1 - pt_i - pf_i

    def lik(pt, pf, pd):
        return pt ** kt * pf ** kf * pd ** kd

    w12 = p0 * lik(c * a2 + (1 - c) * pt_i,
                   c * (1 - a2) + (1 - c) * pf_i,
                   (1 - c) * pd_i)
    w21 = p0 * lik(c * a1 + (1 - c) * pt_i,
                   c * (1 - a1) + (1 - c) * pf_i,
                   (1 - c) * pd_i)
    wi = (1 - 2 * p0) * lik(pt_i, pf_i, pd_i)
    total = w12 + w21 + wi
    return w12 / total, w21 / total


class TestDetectCopying:

    def shared_false_claims(self, n_items=10):
        """Two sources sharing a distinctive wrong value on every item; a
        third source provides the true value."""
        rows = []
        gold_rows = []
        for i in range(n_items):
            truth = 1000.0 + 10 * i
            wrong = truth + 500.0
            rows += [("s1", f"o{i}", "price", wrong),
                     ("s2", f"o{i}", "price", wrong),
                     ("s3", f"o{i}", "price", truth)]
            gold_rows.append((f"o{i}", "price", truth))
        return make_claims(rows), make_gold(gold_rows)

    def test_shared_false_values_near_certain(self):
        claims, gold = self.shared_false_claims(10)
        trust = {"s1": 0.6, "s2": 0.6, "s3": 0.9}
        matrix = detect_copying(claims, dict(gold.entries), trust, CFG)
        total = matrix.probability("s1", "s2") + matrix.probability("s2", "s1")
        assert total > 0.99
        expected = pair_oracle(0.6, 0.6, 0, 10, 0, CFG.copy)
        assert matrix.probability("s1", "s2") == pytest.approx(
            expected[0], abs=1e-9)

    def test_uncontested_agreement_carries_no_signal(self):
        # The pair agrees on the true value everywhere, but so does every
        # other source: those items are uncontested and excluded, so the
        # posterior stays at the prior.
        rows = []
        truth = {}
        for i in range(10):
            v = 1000.0 + 10 * i
            truth[DataItem(f"o{i}", "price")] = Value.number(v)
            for s in ("s1", "s2", "s3", "s4"):
                rows.append((s, f"o{i}", "price", v))
        claims = make_claims(rows)
        trust = {s: 0.9 for s in claims.sources}
        matrix = detect_copying(claims, truth, trust, CFG)
        assert matrix.probability("s1", "s2") == pytest.approx(
            CFG.copy.prior_copy_prob)

    def test_zero_overlap_keeps_prior(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s1", "o2", "price", 11.0),
                              ("s2", "o3", "price", 12.0),
                              ("s2", "o4", "price", 13.0)])
        matrix = detect_copying(claims, {}, {"s1": 0.8, "s2": 0.8}, CFG)
        assert matrix.probability("s1", "s2") == pytest.approx(
            CFG.copy.prior_copy_prob)
        assert matrix.probability("s2", "s1") == pytest.approx(
            CFG.copy.prior_copy_prob)

    def test_disagreement_pushes_below_prior(self):
        claims, gold = self.shared_false_claims(10)
        trust = {"s1": 0.6, "s2": 0.6, "s3": 0.9}
        matrix = detect_copying(claims, dict(gold.entries), trust, CFG)
        # s3 disagrees with s1 on every contested item.
        total = matrix.probability("s1", "s3") + matrix.probability("s3", "s1")
        assert total < 2 * CFG.copy.prior_copy_prob

    def test_swapping_pair_preserves_total_posterior(self):
        claims, gold = self.shared_false_claims(6)
        t1 = {"s1": 0.5, "s2": 0.8, "s3": 0.9}
        m = detect_copying(claims, dict(gold.entries), t1, CFG)
        total = m.probability("s1", "s2") + m.probability("s2", "s1")
        # Asymmetric accuracies allocate direction unevenly but keep the
        # total; recompute with sources relabeled.
        or12, or21 = pair_oracle(0.5, 0.8, 0, 6, 0, CFG.copy)
        assert m.probability("s1", "s2") == pytest.approx(or12, abs=1e-9)
        assert m.probability("s2", "s1") == pytest.approx(or21, abs=1e-9)
        assert total == pytest.approx(or12 + or21, abs=1e-9)


class TestIndependenceWeights:

    def test_no_copying_weight_one(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        matrix = CopyMatrix()
        w = independence_weights(matrix, claims, CFG.copy)
        assert all(v == 1.0 for v in w.values())

    def test_certain_copy_full_discount(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        matrix = CopyMatrix(prob={("s1", "s2"): 1.0})
        params = load_config(overrides={"copy": {"copy_rate": 1.0}}).copy
        w = independence_weights(matrix, claims, params)
        assert w[("s1", DataItem("o1", "price"))] == 0.0
        assert w[("s2", DataItem("o1", "price"))] == 1.0

    def test_partial_discount_arithmetic(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        matrix = CopyMatrix(prob={("s1", "s2"): 0.8})
        params = load_config(overrides={"copy": {"copy_rate": 0.5}}).copy
        w = independence_weights(matrix, claims, params)
        assert w[("s1", DataItem("o1", "price"))] == pytest.approx(0.6)

    def test_different_values_not_discounted(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 99.0)])
        matrix = CopyMatrix(prob={("s1", "s2"): 1.0})
        w = independence_weights(matrix, claims, CFG.copy)
        assert w[("s1", DataItem("o1", "price"))] == 1.0

    def test_monotone_in_copy_probability(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0),
                              ("s3", "o1", "price", 10.0)])
        key = ("s1", DataItem("o1", "price"))
        prev = 1.0
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            matrix = CopyMatrix(prob={("s1", "s2"): p, ("s1", "s3"): p})
            w = independence_weights(matrix, claims, CFG.copy)[key]
            assert w <= prev + 1e-12
            assert 0.0 <= w <= 1.0
            prev = w

    @pytest.mark.parametrize("per_attribute", [False, True])
    def test_weights_of_a_run_matrix_are_the_runs(self, per_attribute):
        # A per-attribute matrix names (source, attribute) pairs, which a
        # global engine cannot place: every weight used to come out 1.0.
        claims, _ = copier_snapshot()
        r = run_fusion(MethodSpec("accucopy", per_attribute), claims, CFG)
        want = dict(r.copy_matrix.independence)
        assert min(want.values()) < 0.05
        assert independence_weights(r.copy_matrix, claims, CFG.copy) == want
        assert r.copy_matrix.independence == want

    @pytest.mark.parametrize("prob, message", [
        ({("ghost", "s1"): 0.5}, "no virtual source 'ghost'"),
        ({(("s1", "price"), ("s2", "gate")): 0.5}, "two attributes"),
        ({("s1", "s2"): 0.5, (("s1", "price"), ("s2", "price")): 0.5},
         "no virtual source 's1'"),
    ], ids=["no-such-source", "across-attributes", "mixed-keys"])
    def test_pairs_it_cannot_place_raise(self, prob, message):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0),
                              ("s1", "o1", "gate", "a"),
                              ("s2", "o1", "gate", "a")])
        with pytest.raises(FusionError, match=message):
            independence_weights(CopyMatrix(prob=prob), claims, CFG.copy)


class TestRunAccuCopy:

    def scenario(self, seed=0):
        spec = SyntheticSpec(
            n_sources=5, n_items=300,
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
            accuracies=(0.95, 0.55, 0.55, 0.55, 0.55),
            copier_groups=(CopierGroup(("s03", "s04", "s05"), "s02", 1.0),),
            false_pool=12)
        return generate_synthetic(spec, seed)

    def test_copier_group_defeats_vote_but_not_accucopy(self):
        claims, gold, known = self.scenario()
        from truthfuse.evalharness import precision_recall
        vote = run_fusion(MethodSpec("vote"), claims, CFG)
        p_vote, _ = precision_recall(vote, gold, claims)
        detected = run_fusion(MethodSpec("accucopy"), claims, CFG)
        p_det, _ = precision_recall(detected, gold, claims)
        assert p_vote < 0.75
        assert p_det >= 0.9
        assert detected.converged

    def test_known_copiers_override_detection(self):
        claims, gold, known = self.scenario(1)
        r = run_fusion(MethodSpec("accucopy"), claims, CFG,
                       known_copiers=known)
        for pair, rate in known.items():
            assert r.copy_matrix.prob[pair] == rate

    def test_known_group_rate_one_single_effective_vote(self):
        claims = make_claims([
            ("orig", "o1", "price", 10.0),
            ("c1", "o1", "price", 10.0),
            ("c2", "o1", "price", 10.0),
        ])
        known = {("c1", "orig"): 1.0, ("c2", "orig"): 1.0}
        params = load_config(overrides={"copy": {"copy_rate": 1.0}})
        matrix = CopyMatrix(prob=dict(known))
        w = independence_weights(matrix, claims, params.copy)
        item = DataItem("o1", "price")
        # Copiers fully discounted, the original keeps one full vote.
        assert w[("c1", item)] == 0.0
        assert w[("c2", item)] == 0.0
        assert w[("orig", item)] == 1.0

    @pytest.mark.parametrize("per_attribute", [False, True])
    def test_known_copier_without_claims_is_dropped(self, per_attribute):
        # A pair naming a source with no claims cannot discount a vote; it
        # used to reach copy_pairs.csv from global runs only.
        claims, _, _ = self.scenario(5)
        method = MethodSpec("accucopy", per_attribute)
        ghost = run_fusion(method, claims, CFG,
                           known_copiers={("ghost", "s01"): 0.9})
        plain = run_fusion(method, claims, CFG)
        assert ghost.copy_matrix.prob == plain.copy_matrix.prob
        assert ghost.selected == plain.selected

    def test_no_detection_no_known_equals_accuformat(self):
        claims, gold, _ = self.scenario(2)
        a = run_fusion(MethodSpec("accucopy"), claims, CFG,
                       detect_copying=False)
        b = run_fusion(MethodSpec("accuformat"), claims, CFG)
        assert a.selected == b.selected

    def test_fixed_input_trust_is_never_updated(self):
        claims, gold, _ = self.scenario(3)
        trust = {s: 0.7 for s in claims.sources}
        r = run_fusion(MethodSpec("accucopy"), claims, CFG, input_trust=trust)
        assert all(v == 0.7 for v in r.trust.values())

    def test_weights_exposed_in_copy_matrix(self):
        claims, _, _ = self.scenario(4)
        r = run_fusion(MethodSpec("accucopy"), claims, CFG)
        assert r.copy_matrix is not None
        assert all(0.0 <= p <= 1.0 for p in r.copy_matrix.prob.values())
        assert all(0.0 < w <= 1.0 or w == 0.0
                   for w in r.copy_matrix.independence.values())


class TestGroupCommonality:

    def test_identical_sources_all_ones(self):
        claims = make_claims([
            ("s1", "o1", "price", 10.0), ("s1", "o2", "gate", "a"),
            ("s2", "o1", "price", 10.0), ("s2", "o2", "gate", "a"),
        ])
        gold = make_gold([("o1", "price", 10.0), ("o2", "gate", "a")])
        g = group_commonality(["s1", "s2"], claims, gold)
        assert g.schema_sim == 1.0
        assert g.object_sim == 1.0
        assert g.value_sim == 1.0
        assert g.avg_accuracy == 1.0
        assert g.size == 2

    def test_disjoint_schemas(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "gate", "a")])
        g = group_commonality(["s1", "s2"], claims)
        assert g.schema_sim == 0.0

    def test_zero_claim_member_excluded(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        g = group_commonality(["s1", "s2", "ghost"], claims)
        assert g.excluded == ("ghost",)
        assert g.size == 2

    def test_too_small_group_rejected(self):
        claims = make_claims([("s1", "o1", "price", 10.0)])
        with pytest.raises(FusionError):
            group_commonality(["s1", "ghost"], claims)

    def test_full_rate_copier_has_unit_value_commonality(self):
        spec = SyntheticSpec(
            n_sources=3, n_items=50,
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
            accuracies=(0.9, 0.6, 0.6),
            copier_groups=(CopierGroup(("s03",), "s02", 1.0),),
            false_pool=6)
        claims, gold, _ = generate_synthetic(spec, seed=9)
        g = group_commonality(["s02", "s03"], claims, gold)
        assert g.value_sim == 1.0


# -- reference loops ----------------------------------------------------------
# The pure-Python pairwise loops the array implementation replaced, kept as
# the oracle of the differential tests below.

_TINY = 1e-300


def ref_pair_posterior(a1, a2, kt, kf, kd, params, fusion):
    clamp = fusion.trust_clamp
    a1 = min(max(a1, clamp), 1.0 - clamp)
    a2 = min(max(a2, clamp), 1.0 - clamp)
    n = fusion.n_false
    c = params.copy_rate
    pt_i = a1 * a2
    pf_i = (1.0 - a1) * (1.0 - a2) / n
    pd_i = max(1.0 - pt_i - pf_i, _TINY)

    def dep(orig_acc):
        pt = c * orig_acc + (1.0 - c) * pt_i
        pf = c * (1.0 - orig_acc) + (1.0 - c) * pf_i
        pd = max((1.0 - c) * pd_i, _TINY)
        return pt, pf, pd

    def loglik(pt, pf, pd):
        return (kt * math.log(max(pt, _TINY))
                + kf * math.log(max(pf, _TINY))
                + kd * math.log(max(pd, _TINY)))

    p0 = params.prior_copy_prob
    logs = [
        math.log(p0) + loglik(*dep(a2)),
        math.log(p0) + loglik(*dep(a1)),
        math.log(1.0 - 2.0 * p0) + loglik(pt_i, pf_i, pd_i),
    ]
    m = max(logs)
    ws = [math.exp(x - m) for x in logs]
    total = sum(ws)
    return ws[0] / total, ws[1] / total


def ref_detect_copying(claims, truth_estimate, trust_estimate, params,
                       fusion=CFG.fusion):
    taus = tolerances(claims)
    counts = {}
    for item in claims.items:
        buckets = bucketize(item, claims, taus[item.attribute])
        if len(buckets) < 2:
            continue
        truth = truth_estimate.get(item)
        attr = claims.attribute_of(item)
        provider_bucket = []
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
    prob = {}
    for s1, s2 in combinations(list(claims.sources), 2):
        kt, kf, kd = counts.get((s1, s2), (0, 0, 0))
        p12, p21 = ref_pair_posterior(
            float(trust_estimate.get(s1, 0.5)),
            float(trust_estimate.get(s2, 0.5)), kt, kf, kd, params, fusion)
        prob[(s1, s2)] = p12
        prob[(s2, s1)] = p21
    return prob


def ref_independence_weights(prob, claims, params):
    taus = tolerances(claims)
    out = {}
    for item in claims.items:
        for b in bucketize(item, claims, taus[item.attribute]):
            for s in b.providers:
                w = 1.0
                for other in b.providers:
                    if other != s:
                        w *= 1.0 - params.copy_rate * prob.get((s, other),
                                                               0.0)
                out[(s, item)] = w
    return out


def ref_expand_known(known, engine):
    if not engine.per_attribute:
        return dict(known)
    by_source = {}
    for vk in engine.vsrc_list:
        by_source.setdefault(vk[0], []).append(vk)
    out = {}
    for (copier, original), p in known.items():
        for vk1 in by_source.get(copier, ()):
            for vk2 in by_source.get(original, ()):
                if vk1[1] == vk2[1]:
                    out[(vk1, vk2)] = p
    return out


def ref_claim_weights(engine, prob, params):
    weights = np.ones(len(engine.claim_cand))
    if not prob:
        return weights
    grouped = {}
    for k in range(len(engine.claim_cand)):
        grouped.setdefault(int(engine.claim_cand[k]), []).append(k)
    for claim_idxs in grouped.values():
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


def ref_counts(engine, chosen):
    """{(vsrc index, vsrc index): [kt, kf, kd]} over contested items."""
    counts = {}
    bounds = np.searchsorted(engine.claim_item, np.arange(engine.n_items + 1))
    for item_idx in range(engine.n_items):
        lo, hi = int(bounds[item_idx]), int(bounds[item_idx + 1])
        if hi - lo < 2 or engine.item_ncand[item_idx] < 2:
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
    return counts


def ref_detect_on_engine(engine, chosen, trust, params):
    out = {}
    for (i1, i2), (kt, kf, kd) in sorted(ref_counts(engine, chosen).items()):
        p12, p21 = ref_pair_posterior(float(trust[i1]), float(trust[i2]),
                                      kt, kf, kd, params, engine.cfg)
        vk1, vk2 = engine.vsrc_list[i1], engine.vsrc_list[i2]
        out[(vk1, vk2)] = p12
        out[(vk2, vk1)] = p21
    return out


def ref_run_accucopy(engine, config, input_trust=None, known_copiers=None,
                     detect=True):
    """The loop version of AccuCopy (``run_fusion`` with its rule, formerly
    ``run_accucopy``): (selected candidates, trust, rounds, copy
    probabilities, per-claim weights)."""
    params = config.copy
    fixed_trust = input_trust is not None
    trust = (engine.trust_array(input_trust) if fixed_trust
             else np.full(engine.n_vsrc, config.fusion.init_trust_bayes))
    known = ref_expand_known(known_copiers or {}, engine)
    prob = dict(known)
    weights = ref_claim_weights(engine, prob, params)
    rounds = 0
    prev_votes = np.zeros(engine.n_cands)
    while rounds < config.fusion.round_cap:
        rounds += 1
        votes = engine.votes_once("accuformat", trust, weights=weights)
        chosen, _ = engine.select(votes)
        if detect:
            new_prob = ref_detect_on_engine(engine, chosen, trust, params)
            new_prob.update(known)
        else:
            new_prob = dict(known)
        new_weights = ref_claim_weights(engine, new_prob, params)
        discounted = engine.votes_once("accuformat", trust,
                                       weights=new_weights)
        new_trust = (trust if fixed_trust else ref_trust_from_posteriors(
            engine, engine.posteriors(discounted)))
        keys = prob.keys() | new_prob.keys()
        prob_delta = max((abs(new_prob.get(k, 0.0) - prob.get(k, 0.0))
                          for k in keys), default=0.0)
        delta = max(float(np.max(np.abs(new_trust - trust))),
                    float(np.max(np.abs(discounted - prev_votes))),
                    prob_delta)
        trust, prob, weights = new_trust, new_prob, new_weights
        prev_votes = discounted
        if delta < config.fusion.epsilon:
            break
    votes = engine.votes_once("accuformat", trust, weights=weights)
    return engine.select(votes)[0], trust, rounds, prob, weights


def ref_group_commonality(group, claims, gold=None, taus=None):
    claimed = by_source(claims)
    members = [s for s in group if claimed.get(s)]
    excluded = tuple(sorted(set(group) - set(members)))
    if len(members) < 2:
        raise FusionError("group_commonality requires at least two members "
                          "with claims")
    if taus is None:
        taus = tolerances(claims)
    attrs = {s: {c.item.attribute for c in claimed[s]}
             for s in members}
    objects = {s: {c.item.object_id for c in claimed[s]}
               for s in members}
    items = {s: {c.item: c.value for c in claimed[s]}
             for s in members}
    schema_parts, object_parts, value_parts = [], [], []
    for s1, s2 in combinations(sorted(members), 2):
        schema_parts.append(ref_jaccard(attrs[s1], attrs[s2]))
        object_parts.append(ref_jaccard(objects[s1], objects[s2]))
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
            a = ref_source_accuracy(s, claims, gold, taus)
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


def ref_jaccard(a, b):
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


# -- differential tests: arrays against the reference loops ------------------


def copier_scenario(seed=0, n_attrs=1):
    attrs = tuple(SyntheticAttribute(f"a{k}", Kind.NUMBER, 0.01)
                  for k in range(n_attrs))
    spec = SyntheticSpec(
        n_sources=6, n_items=120, attributes=attrs,
        accuracies=(0.95, 0.55, 0.55, 0.55, 0.55, 0.7),
        coverage=(1.0, 1.0, 0.9, 0.9, 0.8, 0.7),
        copier_groups=(CopierGroup(("s03", "s04", "s05"), "s02", 0.8),),
        false_pool=4)
    return generate_synthetic(spec, seed)


def assert_close_maps(got: dict, want: dict, tol=1e-12):
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, abs=tol, rel=0), k


class TestVectorisedAgainstLoops:

    def compare_runs(self, claims, per_attribute=False, detect=True,
                     config=CFG, **kwargs):
        engine = engine_for(claims, config.fusion, per_attribute)
        r = run_fusion(MethodSpec("accucopy", per_attribute), claims,
                       config, detect_copying=detect, engine=engine, **kwargs)
        chosen, trust, rounds, prob, weights = ref_run_accucopy(
            engine, config, detect=detect, **kwargs)
        assert r.rounds_used == rounds
        assert r.selected == {it: engine.cand_values[int(c)]
                              for it, c in zip(engine.items, chosen)}
        assert_close_maps(r.trust, engine.trust_map(trust))
        assert_close_maps(r.copy_matrix.prob, prob)
        assert_close_maps(r.copy_matrix.independence, {
            (engine.vsrc_list[int(v)], engine.items[int(i)]): float(w)
            for v, i, w in zip(engine.claim_vsrc, engine.claim_item,
                               weights)})
        return r

    @pytest.mark.parametrize("per_attribute", [False, True])
    def test_pair_counts_are_exact(self, per_attribute):
        claims, _, _ = copier_scenario(n_attrs=3)
        engine = engine_for(claims, CFG.fusion, per_attribute)
        pairs = _PairIndex(engine)
        rng = np.random.default_rng(5)
        for _ in range(3):
            chosen = engine.select(rng.random(engine.n_cands))[0]
            is_chosen = np.zeros(engine.n_cands, dtype=bool)
            is_chosen[chosen] = True
            kt = pairs._same_candidate(is_chosen)[pairs.up]
            got = {(lo, hi): [t, a - t, c - a] for lo, hi, t, a, c in zip(
                pairs.lo.tolist(), pairs.hi.tolist(), kt.tolist(),
                pairs.agree.tolist(), pairs.co[pairs.up].tolist())}
            assert got == ref_counts(engine, chosen)

    def test_copier_fixture(self):
        claims, _, _ = copier_scenario()
        r = self.compare_runs(claims)
        assert r.rounds_used > 1 and r.copy_matrix.prob

    def test_per_attribute_engine(self):
        claims, _, _ = copier_scenario(seed=1, n_attrs=3)
        self.compare_runs(claims, per_attribute=True)

    @pytest.mark.parametrize("per_attribute", [False, True])
    def test_known_copiers_one_without_co_coverage(self, per_attribute):
        claims, _, known = copier_scenario(seed=2, n_attrs=2)
        lone = Claim("zz", DataItem("lone", "a0"), Value.number(5.0))
        claims = claim_set(claims.snapshot_label, claims.schema,
                          (*claims_of(claims), lone))
        known = {**known, ("zz", "s01"): 0.7}
        r = self.compare_runs(claims, per_attribute, known_copiers=known)
        zz = ("zz", "a0") if per_attribute else "zz"
        s01 = ("s01", "a0") if per_attribute else "s01"
        assert r.copy_matrix.prob[(zz, s01)] == 0.7

    def test_detection_off(self):
        claims, _, known = copier_scenario(seed=3)
        self.compare_runs(claims, known_copiers=known, detect=False)

    def test_input_trust(self):
        claims, _, _ = copier_scenario(seed=4)
        trust = {s: 0.5 + 0.07 * i for i, s in enumerate(claims.sources)}
        self.compare_runs(claims, input_trust=trust)

    def test_no_contested_items(self):
        claims = make_claims([(s, f"o{i}", "price", 10.0 + i)
                              for s in ("s1", "s2", "s3") for i in range(4)])
        r = self.compare_runs(claims)
        assert r.copy_matrix.prob == {}
        assert set(r.copy_matrix.independence.values()) == {1.0}

    def test_detect_copying_and_weights_match_loops(self):
        claims, gold, known = copier_scenario(seed=6, n_attrs=2)
        trust = {s: 0.4 + 0.1 * i for i, s in enumerate(claims.sources)}
        # Truth from gold on most items, none on some: both rules apply.
        truth = {it: v for k, (it, v) in enumerate(gold.entries.items())
                 if k % 7}
        matrix = detect_copying(claims, truth, trust, CFG)
        want = ref_detect_copying(claims, truth, trust, CFG.copy)
        assert_close_maps(matrix.prob, want)
        assert len(matrix.prob) == 6 * 5
        got = independence_weights(matrix, claims, CFG.copy)
        assert_close_maps(got, ref_independence_weights(want, claims,
                                                        CFG.copy))
        assert matrix.independence == got

    def test_engine_constants_reach_the_posteriors(self):
        """The false-value domain and the trust clamp are read off the
        run's fusion config, in detection and in AccuCopy's rounds."""
        claims, gold, _ = copier_scenario(seed=6)
        truth = dict(gold.entries)
        trust = {s: t for s, t in zip(claims.sources,
                                      (0.999, 0.01, 0.5, 0.6, 0.7, 0.8))}
        config = load_config(overrides={
            "fusion": {"n_false": 3, "trust_clamp": 0.05}})
        engine = FusionEngine(claims, config.fusion)
        got = detect_copying(claims, truth, trust, config, engine).prob
        assert_close_maps(got, ref_detect_copying(claims, truth, trust,
                                                  CFG.copy, config.fusion))
        default = detect_copying(claims, truth, trust, CFG).prob
        assert max(abs(got[k] - default[k]) for k in got) > 0.01
        for fusion in (FusionConfig(n_false=3), FusionConfig(
                trust_clamp=0.05)):
            one = detect_copying(claims, truth, trust,
                                 replace(CFG, fusion=fusion)).prob
            assert one != default and one != got
        r = self.compare_runs(claims, config=config)
        assert r.copy_matrix.prob != self.compare_runs(claims).copy_matrix.prob

    def test_detect_copying_without_an_engine_reads_the_run_constants(self):
        """The engine built when none is passed takes the run's fusion
        config, so the call equals the one on that config's engine."""
        claims, gold, _ = copier_scenario(seed=6)
        truth = dict(gold.entries)
        trust = {s: t for s, t in zip(claims.sources,
                                      (0.999, 0.01, 0.5, 0.6, 0.7, 0.8))}
        config = load_config(overrides={
            "fusion": {"n_false": 50, "trust_clamp": 0.01}})
        alone = detect_copying(claims, truth, trust, config).prob
        assert alone == detect_copying(
            claims, truth, trust, config,
            FusionEngine(claims, config.fusion)).prob
        assert alone != detect_copying(claims, truth, trust, CFG).prob

    def test_detect_copying_reuses_a_global_engine(self):
        claims, _, _ = copier_scenario(seed=8)
        truth = run_fusion(MethodSpec("vote"), claims, CFG).selected
        trust = {s: 0.6 for s in claims.sources}
        alone = detect_copying(claims, truth, trust, CFG)
        other_constants = load_config(overrides={"fusion": {"rho": 0.1}})
        shared = FusionEngine(claims, other_constants.fusion)
        assert detect_copying(claims, truth, trust, other_constants,
                              shared).prob == alone.prob
        with pytest.raises(FusionError, match="different fusion config"):
            detect_copying(claims, truth, trust, CFG, shared)
        with pytest.raises(FusionError):
            detect_copying(claims, truth, trust, CFG,
                           engine_for(claims, CFG.fusion, True))
        with pytest.raises(FusionError):
            detect_copying(copier_scenario(seed=9)[0], truth, trust,
                           other_constants, shared)

    def test_detect_copying_needs_every_sources_trust(self):
        """A source missing from the trust map is an error naming it, as
        for a run's input trust; no constant stands in for its trust."""
        claims, gold, _ = copier_scenario(seed=6)
        trust = {s: 0.7 for s in claims.sources}
        missing = claims.sources[2]
        del trust[missing]
        with pytest.raises(FusionError, match=repr(missing)):
            detect_copying(claims, dict(gold.entries), trust, CFG)

    def test_detect_copying_with_neighbouring_true_buckets(self):
        # Bucket centres lie tau apart, so a truth between two of them
        # matches both: sources on different true buckets still disagree.
        # tau = 0.01 * median = 1.012; buckets centre on 100 and 101.012.
        rows = [(s, f"o{i}", "price", v) for i in range(6)
                for s, v in (("s1", 100.0), ("s2", 100.0), ("s3", 101.2),
                             ("s4", 101.2), ("s5", 150.0))]
        claims = make_claims(rows)
        truth = {DataItem(f"o{i}", "price"): Value.number(100.6)
                 for i in range(6)}
        trust = {s: 0.7 for s in claims.sources}
        matrix = detect_copying(claims, truth, trust, CFG)
        assert_close_maps(matrix.prob,
                          ref_detect_copying(claims, truth, trust, CFG.copy))
        assert matrix.probability("s1", "s3") < CFG.copy.prior_copy_prob

    def test_attr_run_memory_grows_with_pairs_not_sources(self):
        # 55 sources x 16 attributes = 880 virtual sources: a dense
        # 880 x 880 float64 matrix alone is 6.2 MB. Items are uncontested
        # but for three providers per attribute, so the result's pair map
        # stays small and the peak is the detector's own.
        schema = {f"a{k:02d}": AttributeSpec(f"a{k:02d}", Kind.NUMBER, 0.01)
                  for k in range(16)}
        rows = []
        for a in schema:
            rows += [(f"s{s:02d}", "o0", a, 100.0 + 50.0 * (s == 2))
                     for s in range(3)]
            rows += [(f"s{s:02d}", f"o{o}", a, 100.0 + o)
                     for o in range(1, 6) for s in range(55)
                     if (7 * s + 3 * o + int(a[1:])) % 20 < 13]
        claims = make_claims(rows, schema=schema)
        engine = engine_for(claims, CFG.fusion, True)
        assert engine.n_vsrc == 880
        method = MethodSpec("accucopy", True)
        run_fusion(method, claims, CFG, engine=engine)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r = run_fusion(method, claims, CFG, engine=engine)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(r.copy_matrix.prob) == 16 * 3 * 2
        assert peak < 4_000_000, peak


class TestGroupCommonalityAgainstLoop:
    """``group_commonality`` equals the per-pair loop exactly (floats
    compared with ``==``: the same ratios, summed in the same order)."""

    def check(self, group, claims, gold=None):
        want = ref_group_commonality(group, claims, gold)
        assert group_commonality(group, claims, gold) == want
        taus = tolerances(claims)
        assert group_commonality(group, claims, gold, taus) == want
        if gold is not None:
            # the map ``copydetect`` computes for every source, None kept
            accuracy = {s: acc for s, (acc, _) in
                        source_scores(claims, gold).items()}
            assert group_commonality(group, claims, gold, taus,
                                     accuracy) == want
        return want

    def test_copier_fixture(self):
        claims, gold, _ = copier_scenario(seed=5, n_attrs=3)
        for group in (claims.sources, ["s02", "s03", "s04", "s05"],
                      ["s05", "s02"]):
            for g in (gold, None):
                self.check(list(group), claims, g)

    def test_partial_coverage_and_ghosts(self):
        claims, gold, _ = copier_scenario(seed=7, n_attrs=2)
        rows = [c for c in claims_of(claims)
                if not (c.source == "s06" and c.item.attribute == "a1")]
        claims = claim_set("snap", claims.schema, rows)
        got = self.check(["s06", "ghost", "s01", "s06", "s03"], claims, gold)
        assert got.excluded == ("ghost",) and got.size == 4

    def test_member_without_gold_overlap(self):
        claims, gold, _ = copier_scenario(seed=7, n_attrs=2)
        covered = {c.item for c in by_source(claims)["s06"]}
        gold = GoldStandard({it: v for it, v in gold.entries.items()
                             if it not in covered})
        assert source_accuracy("s06", claims, gold) is None
        got = self.check(["s06", "s02", "s03"], claims, gold)
        assert got.avg_accuracy is not None

    def test_negative_median_never_matches(self):
        # tau = 0.01 * median < 0, so even equal numbers do not match.
        claims = make_claims([(s, f"o{i}", "price", -2.0 - (s == "s3"))
                              for s in ("s1", "s2", "s3") for i in range(4)])
        assert tolerances(claims)["price"] < 0
        assert self.check(["s1", "s2", "s3"], claims).value_sim == 0.0

    def test_numbers_near_the_tolerance(self):
        # tau = 0.01 * median = 0.0101: sources 0.01 to 0.02 apart.
        values = {"s1": 1.0, "s2": 1.01, "s3": 1.011, "s4": 1.02, "s5": 1.0}
        claims = make_claims([(s, f"o{i}", "price", v + (i == 2) * 0.001)
                              for s, v in values.items() for i in range(3)])
        assert 0.0 < self.check(list(values), claims).value_sim < 1.0

    def test_times_and_text_differing_in_case(self):
        depart, gate = SCHEMA_TT["depart"], SCHEMA_TT["gate"]
        values = {"s1": (600, "A1"), "s2": (609, "a1"), "s3": (611, "b2"),
                  "s4": (1439, "A1 ")}
        claims = claim_set("snap", SCHEMA_TT, [
            c for s, (m, g) in values.items() for i in range(3)
            for c in (Claim(s, DataItem(f"o{i}", depart.name),
                            Value.time(m + i if s == "s1" else m)),
                      Claim(s, DataItem(f"o{i}", gate.name),
                            Value(Kind.TEXT, text=g)))])
        want = self.check(list(values), claims)
        assert 0.0 < want.value_sim < 1.0
