"""Fusion engine: per-method round behavior, Bayesian posteriors,
reductions, and selection invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse.config import FusionConfig, load_config
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    _RULES,
    _Segments,
    _boost,
    _damping,
    _estimates_numerator,
    accu_posteriors,
    method_labels,
    run_fusion,
    sample_trust,
)
from truthfuse.model import DataItem, Value
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)
from truthfuse.model import Kind

from conftest import make_claims, make_gold

CFG = load_config()

ITEM = DataItem("o1", "price")


def single_source_claims():
    return make_claims([("s1", "o1", "price", 10.0),
                        ("s1", "o2", "price", 20.0),
                        ("s1", "o3", "gate", "a")])


class TestMethodSpec:

    def test_parse_attr_suffix(self):
        m = MethodSpec.parse("AccuSimAttr")
        assert m.name == "accusim" and m.per_attribute_trust

    def test_parse_aliases(self):
        assert MethodSpec.parse("TwoEstimates").name == "2-estimates"
        assert MethodSpec.parse("3-estimates").name == "3-estimates"

    def test_unknown_name_lists_valid(self):
        with pytest.raises(FusionError) as err:
            MethodSpec.parse("AccuPrime")
        assert "Vote" in str(err.value)

    def test_labels_cover_all_methods(self):
        assert len(method_labels()) == 14


class TestVote:

    def test_selects_dominant(self, toy5):
        r = run_fusion(MethodSpec("vote"), toy5, CFG)
        assert r.selected[ITEM] == Value.number(10.0)
        assert r.rounds_used == 0 and r.converged

    def test_confidence_is_dominance_factor(self, toy5):
        r = run_fusion(MethodSpec("vote"), toy5, CFG)
        assert r.confidence[ITEM] == pytest.approx(0.6)


class TestSingleSource:

    @pytest.mark.parametrize("name", method_labels())
    def test_selects_exactly_that_sources_values(self, name):
        claims = single_source_claims()
        r = run_fusion(MethodSpec.parse(name), claims, CFG)
        assert r.selected == {c.item: c.value for c in claims.claims}


class TestHub:

    def test_single_value_fixed_point(self):
        claims = make_claims([("s1", "o1", "price", 10.0)])
        engine = FusionEngine(claims, CFG.fusion)
        state = _RULES["hub"].start(engine, CFG)
        state, _ = engine.step("hub", state)
        assert state.trust[0] == 1.0
        assert state.votes[0] == 1.0

    def test_toy5_one_round_selects_majority(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        state = _RULES["hub"].start(engine, CFG)
        state, _ = engine.step("hub", state)
        chosen, _ = engine.select(state.votes)
        assert engine.cand_values[chosen[0]] == Value.number(10.0)

    def test_identical_sources_equal_trust(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0),
                              ("s1", "o2", "price", 20.0),
                              ("s2", "o2", "price", 20.0)])
        r = run_fusion(MethodSpec("hub"), claims, CFG)
        assert r.trust["s1"] == pytest.approx(r.trust["s2"])


class TestAvgLog:

    def test_single_value_source_keeps_positive_trust(self):
        # log(|V_s|) would zero this source out; the +1 smoothing keeps it.
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 12.0),
                              ("s2", "o2", "price", 20.0)])
        r = run_fusion(MethodSpec("avglog"), claims, CFG)
        assert r.trust["s1"] > 0.0

    def test_same_claims_equal_trust(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        r = run_fusion(MethodSpec("avglog"), claims, CFG)
        assert r.trust["s1"] == pytest.approx(r.trust["s2"])

    def test_toy5_selects_majority(self, toy5):
        r = run_fusion(MethodSpec("avglog"), toy5, CFG)
        assert r.selected[ITEM] == Value.number(10.0)


class TestInvestFamily:

    @pytest.mark.parametrize("name", ["invest", "pooledinvest"])
    def test_symmetric_sources_equal_trust(self, name, toy5):
        r = run_fusion(MethodSpec(name), toy5, CFG)
        assert r.trust["s1"] == pytest.approx(r.trust["s2"])
        assert r.trust["s4"] == pytest.approx(r.trust["s5"])

    @pytest.mark.parametrize("name", ["invest", "pooledinvest"])
    def test_toy5_two_rounds_majority(self, name, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        state = _RULES[name].start(engine, CFG)
        for _ in range(2):
            state, _ = engine.step(name, state)
        chosen, _ = engine.select(state.votes)
        assert engine.cand_values[chosen[0]] == Value.number(10.0)

    def test_pooled_votes_sum_to_investment(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        trust = np.ones(engine.n_vsrc)
        votes = engine.votes_once("pooledinvest", trust)
        invested = float(np.sum(trust / engine.src_nvals))
        assert float(np.sum(votes)) == pytest.approx(invested)


class TestCosine:

    @staticmethod
    def cosine(engine, votes):
        """The trust pass's cosine, without the damping towards the trust
        it starts from."""
        return _RULES["cosine"].trust_pass(engine, votes,
                                           np.ones(engine.n_vsrc),
                                           differs={_damping})

    def test_full_agreement_component_is_one(self):
        claims = make_claims([("s1", "o1", "price", 10.0)])
        engine = FusionEngine(claims, CFG.fusion)
        cos = self.cosine(engine, np.array([1.0]))
        assert cos[0] == pytest.approx(1.0)

    def test_full_disagreement_negative(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 99.0)])
        engine = FusionEngine(claims, CFG.fusion)
        # votes concentrated on s1's value
        cos = self.cosine(engine, np.array([1.0, 0.0]))
        assert cos[1] < 0.0

    def test_rounds_damp_towards_the_last_trust(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 99.0)])
        engine = FusionEngine(claims, CFG.fusion)
        votes, trust = np.array([1.0, 0.0]), np.array([0.5, 0.25])
        d = CFG.fusion.cosine_damping
        got = _RULES["cosine"].trust_pass(engine, votes, trust)
        assert got.tolist() == (d * trust + (1.0 - d) * self.cosine(
            engine, votes)).tolist()

    def test_toy5_converges_to_majority(self, toy5):
        r = run_fusion(MethodSpec("cosine"), toy5, CFG)
        assert r.converged
        assert r.selected[ITEM] == Value.number(10.0)


class TestEstimates:

    @staticmethod
    def numerator(engine, trust):
        """2-Estimates' votes before the rescale: its numerator transform
        of the summed trust."""
        rule = _RULES["2-estimates"]
        summed = engine._claim_sum(rule.term(engine, trust)[engine.claim_vsrc],
                                   None)
        return _estimates_numerator(rule, engine, summed,
                                    engine.cand_segs, trust, None, None)

    def test_toy5_votes_before_rescale(self, toy5):
        # With all trust fixed at 1 the raw complement-vote averages are
        # 0.6 and 0.4.
        engine = FusionEngine(toy5, CFG.fusion)
        raw = self.numerator(engine, np.ones(engine.n_vsrc))
        assert sorted(np.round(raw, 12).tolist()) == [0.4, 0.6]

    def test_unanimous_item_full_trust_vote(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o1", "price", 10.0)])
        engine = FusionEngine(claims, CFG.fusion)
        raw = self.numerator(engine, np.ones(engine.n_vsrc))
        assert raw.tolist() == [1.0]

    def test_order3_initializes_value_trust(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        state = _RULES["3-estimates"].start(engine, CFG)
        assert np.all(state.value_trust == 0.9)

    @pytest.mark.parametrize("name", ["2-estimates", "3-estimates"])
    def test_votes_and_trust_stay_in_unit_interval(self, name, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        state = _RULES[name].start(engine, CFG)
        for _ in range(5):
            state, _ = engine.step(name, state)
            assert np.all(state.votes >= 0.0) and np.all(state.votes <= 1.0)
            assert np.all(state.trust >= 0.0) and np.all(state.trust <= 1.0)

    def test_degenerate_family_passes_through(self):
        engine = FusionEngine(make_claims([("s1", "o1", "price", 1.0)]),
                              CFG.fusion)
        x = np.array([0.7, 0.7, 0.7])
        one_segment = _Segments.of_sizes([3])
        assert engine._rescale01(x, one_segment).tolist() == [0.7, 0.7, 0.7]


class TestNormalizedBounds:

    @pytest.mark.parametrize("name", ["hub", "avglog", "invest"])
    def test_trust_in_unit_interval_every_round(self, name):
        claims = make_claims([
            ("s1", "o1", "price", 10.0), ("s2", "o1", "price", 10.0),
            ("s3", "o1", "price", 99.0), ("s1", "o2", "price", 5.0),
            ("s3", "o2", "price", 7.0), ("s2", "o3", "gate", "a"),
        ])
        engine = FusionEngine(claims, CFG.fusion)
        state = _RULES[name].start(engine, CFG)
        for _ in range(8):
            state, _ = engine.step(name, state)
            assert np.all(state.trust >= 0.0)
            assert np.all(state.trust <= 1.0 + 1e-12)


class TestTruthFinder:

    def test_votes_sum_negative_logs(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        trust = np.full(engine.n_vsrc, 0.8)
        votes = engine.votes_once("truthfinder", trust)
        per = -math.log(1 - 0.8)
        assert sorted(votes.tolist()) == pytest.approx([2 * per, 3 * per])

    def test_trust_capped_below_one(self):
        claims = make_claims(
            [(f"s{i}", "o1", "price", 10.0) for i in range(30)])
        r = run_fusion(MethodSpec("truthfinder"), claims, CFG)
        assert all(t <= 1.0 - CFG.fusion.trust_clamp
                   for t in r.trust.values())

    def test_votes_come_only_from_supporters(self):
        # A value receives no vote mass from sources that do not support
        # it, even when those sources are highly trusted elsewhere.
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s2", "o2", "price", 20.0),
                              ("s3", "o2", "price", 99.0)])
        engine = FusionEngine(claims, CFG.fusion)
        trust = np.array([0.9, 0.2, 0.2])
        votes = engine.votes_once("truthfinder", trust)
        o2_votes = [votes[c] for c in range(engine.n_cands)
                    if engine.items[int(engine.cand_item[c])].object_id
                    == "o2"]
        assert len(o2_votes) == 2
        for v in o2_votes:
            assert v == pytest.approx(-math.log(1 - 0.2))


class TestAccuFamily:

    def test_sole_value_posterior(self):
        # One supporter with trust 0.8, N=10: e^ln40 / (e^ln40 + 10) = 0.8.
        claims = make_claims([("s1", "o1", "price", 10.0)])
        post = accu_posteriors(claims, {"s1": 0.8}, CFG)
        (val, p), = post[ITEM].items()
        assert p == pytest.approx(40.0 / 50.0, abs=1e-12)

    def test_equal_trust_disagreement_tie_breaks_by_value_order(self):
        claims = make_claims([("s1", "o1", "price", 30.0),
                              ("s2", "o1", "price", 10.0)])
        r = run_fusion(MethodSpec("accupr"), claims, CFG,
                       input_trust={"s1": 0.8, "s2": 0.8})
        assert r.selected[ITEM] == Value.number(10.0)
        assert r.tie_count == 1
        # brute-force symmetry check
        post = accu_posteriors(claims, {"s1": 0.8, "s2": 0.8}, CFG)
        ps = sorted(post[ITEM].values())
        assert ps[0] == pytest.approx(ps[1], abs=1e-12)

    def test_popaccu_uniform_counts_reduce_to_accupr(self):
        # Three values, two providers each; with N = |V(d)| - 1 the
        # empirical-popularity posterior equals the uniform-N posterior.
        rows = []
        trusts = {}
        for i, (v, t) in enumerate([(10.0, 0.9), (10.0, 0.6), (400.0, 0.7),
                                    (400.0, 0.8), (900.0, 0.55),
                                    (900.0, 0.85)]):
            rows.append((f"s{i}", "o1", "price", v))
            trusts[f"s{i}"] = t
        claims = make_claims(rows)
        cfg2 = load_config(overrides={"fusion": {"n_false": 2}})
        pop = accu_posteriors(claims, trusts, cfg2, variant="popaccu")
        acc = accu_posteriors(claims, trusts, cfg2, variant="accupr")
        for v, p in pop[ITEM].items():
            assert p == pytest.approx(acc[ITEM][v], abs=1e-9)

    def test_posteriors_in_range_and_sum_below_one(self, toy5):
        post = accu_posteriors(toy5, {s: 0.7 for s in toy5.sources}, CFG)
        ps = list(post[ITEM].values())
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert sum(ps) <= 1.0 + 1e-12


class TestSimilarityBoost:

    def test_no_similar_values_votes_unchanged(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        votes = engine.cand_counts.copy()
        boosted = _boost(_RULES["accusim"], engine, votes)
        assert boosted.tolist() == votes.tolist()

    def test_boost_arithmetic(self):
        # tau = alpha * median = 0.012 * 10 = 0.12; sim(10, 10.6) = 0.5.
        rows = [("s1", "o1", "price", 10.0), ("s2", "o1", "price", 10.0),
                ("s3", "o1", "price", 10.0), ("s4", "o1", "price", 10.0),
                ("s5", "o1", "price", 10.6), ("s6", "o1", "price", 10.6)]
        schema = {"price": type(make_claims(rows).schema["price"])(
            "price", Kind.NUMBER, 0.012)}
        claims = make_claims(rows, schema=schema)
        engine = FusionEngine(claims, FusionConfig(rho=0.5))
        votes = np.array([4.0, 2.0])
        boosted = _boost(_RULES["accusim"], engine, votes)
        assert boosted.tolist() == pytest.approx([4.5, 3.0])

    def test_full_similarity_full_rho_symmetric(self):
        rows = [("s1", "o1", "price", 10.0), ("s2", "o1", "price", 10.0),
                ("s3", "o1", "price", 10.001)]
        claims = make_claims(rows)
        engine = FusionEngine(claims, FusionConfig(alpha=0.5, rho=1.0))
        if engine.n_cands == 2:
            votes = np.array([2.0, 1.0])
            boosted = _boost(_RULES["accusim"], engine, votes)
            sim = engine.sim_w[0]
            assert boosted[0] == pytest.approx(2.0 + sim * 1.0)
            assert boosted[1] == pytest.approx(1.0 + sim * 2.0)


class TestFormatCredit:

    def claims_with_granularity(self):
        from truthfuse.dataio import load_claims, load_schema
        import tempfile, os
        d = tempfile.mkdtemp()
        schema_p = os.path.join(d, "schema.csv")
        claims_p = os.path.join(d, "claims.csv")
        with open(schema_p, "w") as fh:
            fh.write("mcap,Number,0.01\n")
        with open(claims_p, "w") as fh:
            fh.write("source,object,attribute,value\n"
                     "s1,o1,mcap,8M\n"
                     's2,o1,mcap,"7,528,396"\n')
        return load_claims(claims_p, load_schema(schema_p))

    def test_coarse_provider_credits_fine_value(self):
        # rho = 0 isolates the formatting credit from the similarity boost.
        cfg = load_config(overrides={"fusion": {"rho": 0.0}})
        claims = self.claims_with_granularity()
        engine = FusionEngine(claims, cfg.fusion)
        trust = np.full(engine.n_vsrc, 0.8)
        plain = engine.votes_once("accusim", trust)
        credited = engine.votes_once("accuformat", trust)
        fine_idx = [i for i, v in enumerate(engine.cand_values)
                    if abs(v.num - 7_528_396) < 1e6][0]
        coarse_idx = 1 - fine_idx
        assert credited[fine_idx] == pytest.approx(
            plain[fine_idx] + cfg.fusion.w_fmt * 0.8)
        assert credited[coarse_idx] == pytest.approx(plain[coarse_idx])

    def test_credit_flows_through_similarity_boost(self):
        claims = self.claims_with_granularity()
        engine = FusionEngine(claims, CFG.fusion)
        trust = np.full(engine.n_vsrc, 0.8)
        plain = engine.votes_once("accusim", trust)
        credited = engine.votes_once("accuformat", trust)
        fine_idx = [i for i, v in enumerate(engine.cand_values)
                    if abs(v.num - 7_528_396) < 1e6][0]
        assert credited[fine_idx] == pytest.approx(
            plain[fine_idx] + CFG.fusion.w_fmt * 0.8)

    def test_no_subsumption_votes_unchanged(self, toy5):
        engine = FusionEngine(toy5, CFG.fusion)
        trust = np.full(engine.n_vsrc, 0.8)
        assert engine.votes_once("accuformat", trust).tolist() == \
            engine.votes_once("accusim", trust).tolist()

    def test_exact_duplicates_earn_no_credit(self):
        claims = make_claims([("s1", "o1", "price", 8.0),
                              ("s2", "o1", "price", 8.0)])
        engine = FusionEngine(claims, CFG.fusion)
        assert engine.fmt_claim.size == 0


class TestInputTrust:

    def test_single_pass_contract(self, toy5):
        trust = {s: 0.8 for s in toy5.sources}
        for name in method_labels():
            r = run_fusion(MethodSpec.parse(name), toy5, CFG,
                           input_trust=trust)
            assert r.converged
            assert r.rounds_used <= 1 or name == "AccuCopy"

    def test_missing_source_rejected(self, toy5):
        with pytest.raises(FusionError, match="cover"):
            run_fusion(MethodSpec("hub"), toy5, CFG, input_trust={"s1": 1.0})

    def test_plain_source_map_broadcasts_per_attribute(self):
        claims = make_claims([("s1", "o1", "price", 10.0),
                              ("s1", "o2", "gate", "a"),
                              ("s2", "o1", "price", 12.0),
                              ("s2", "o2", "gate", "b")])
        r = run_fusion(MethodSpec("accupr", per_attribute_trust=True),
                       claims, CFG, input_trust={"s1": 0.9, "s2": 0.4})
        assert r.trust[("s1", "price")] == 0.9
        assert r.trust[("s1", "gate")] == 0.9
        assert r.trust[("s2", "price")] == 0.4

    def test_uniform_trust_matches_vote_selection(self):
        # Full coverage, well-separated values (pairwise similarity zero):
        # every method's argmax under fixed uniform trust equals the vote
        # baseline's. Copy detection deliberately reweights same-value
        # providers, so the copy-aware method runs with detection off here.
        spec = SyntheticSpec(
            n_sources=5, n_items=30,
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
            accuracies=(0.9, 0.8, 0.7, 0.65, 0.5), false_pool=6)
        claims, _, _ = generate_synthetic(spec, seed=5)
        vote_sel = run_fusion(MethodSpec("vote"), claims, CFG).selected
        trust = {s: 0.8 for s in claims.sources}
        for name in method_labels():
            r = run_fusion(MethodSpec.parse(name), claims, CFG,
                           input_trust=trust, detect_copying=False)
            diffs = {it for it in vote_sel if r.selected[it] != vote_sel[it]}
            assert not diffs, f"{name} diverges from vote on {diffs}"


class TestConvergenceFlag:

    def test_round_cap_flags_not_raises(self, toy5):
        cfg = load_config(overrides={"fusion": {"epsilon": 1e-18,
                                                "round_cap": 3}})
        r = run_fusion(MethodSpec("hub"), toy5, cfg)
        assert not r.converged
        assert r.rounds_used == 3
        assert len(r.trust_deltas) == 3

    def test_deltas_reported_per_round(self, toy5):
        r = run_fusion(MethodSpec("accupr"), toy5, CFG)
        assert r.converged
        assert len(r.trust_deltas) == r.rounds_used
        assert r.trust_deltas[-1] < CFG.fusion.epsilon


class TestRelabelingInvariance:

    def test_source_names_do_not_matter(self):
        rows = [("s1", "o1", "price", 10.0), ("s2", "o1", "price", 10.0),
                ("s3", "o1", "price", 99.0), ("s1", "o2", "price", 5.0),
                ("s3", "o2", "price", 5.0)]
        renamed = [(f"src_{s}", o, a, v) for s, o, a, v in rows]
        for name in ("hub", "accupr", "2-estimates", "cosine"):
            a = run_fusion(MethodSpec(name), make_claims(rows), CFG)
            b = run_fusion(MethodSpec(name), make_claims(renamed), CFG)
            assert a.selected == b.selected


class TestReductions:

    def dataset(self, seed=0):
        spec = SyntheticSpec(
            n_sources=6, n_items=50,
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),
                        SyntheticAttribute("gate", Kind.TEXT, 0.0)),
            accuracies=(0.95, 0.85, 0.7, 0.7, 0.6, 0.55),
            copier_groups=(CopierGroup(("s04",), "s03", 0.9),),
            false_pool=8)
        claims, gold, _ = generate_synthetic(spec, seed)
        return claims

    def test_accusim_rho_zero_is_accupr(self):
        claims = self.dataset()
        cfg0 = load_config(overrides={"fusion": {"rho": 0.0}})
        a = run_fusion(MethodSpec("accusim"), claims, cfg0)
        b = run_fusion(MethodSpec("accupr"), claims, CFG)
        assert a.selected == b.selected

    def test_accuformat_wfmt_zero_is_accusim(self):
        claims = self.dataset(1)
        cfg0 = load_config(overrides={"fusion": {"w_fmt": 0.0}})
        a = run_fusion(MethodSpec("accuformat"), claims, cfg0)
        b = run_fusion(MethodSpec("accusim"), claims, CFG)
        assert a.selected == b.selected

    def test_accucopy_no_copying_is_accuformat(self):
        claims = self.dataset(2)
        a = run_fusion(MethodSpec("accucopy"), claims, CFG,
                       detect_copying=False)
        b = run_fusion(MethodSpec("accuformat"), claims, CFG)
        assert a.selected == b.selected

    @pytest.mark.parametrize("name", ["hub", "accupr", "cosine",
                                      "3-estimates", "accuformat"])
    def test_per_attribute_equals_global_on_single_attribute(self, name):
        spec = SyntheticSpec(
            n_sources=5, n_items=40,
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
            accuracies=(0.95, 0.8, 0.7, 0.65, 0.6), false_pool=8)
        claims, _, _ = generate_synthetic(spec, seed=3)
        g = run_fusion(MethodSpec(name), claims, CFG)
        p = run_fusion(MethodSpec(name, per_attribute_trust=True),
                       claims, CFG)
        assert g.selected == p.selected


class TestEngineRobustness:

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        min_size=1, max_size=16, unique_by=lambda t: (t[0], t[1])))
    @settings(max_examples=40, deadline=None)
    def test_every_method_selects_every_item(self, triples):
        """Arbitrary tiny claim sets never crash any method, every claimed
        item gets a selection, and tie counts are non-negative."""
        rows = [(f"s{s}", f"o{o}", "price", 100.0 + 50.0 * v)
                for s, o, v in triples]
        claims = make_claims(rows)
        cfg = load_config(overrides={"fusion": {"round_cap": 12}})
        for name in method_labels():
            r = run_fusion(MethodSpec.parse(name), claims, cfg)
            assert set(r.selected) == set(claims.items), name
            assert r.tie_count >= 0
            for it, v in r.selected.items():
                assert v.kind is claims.attribute_of(it).kind


class TestSampleTrust:

    def gold_and_claims(self):
        claims = make_claims([
            ("s1", "o1", "price", 10.0), ("s1", "o2", "price", 20.0),
            ("s1", "o3", "price", 30.0), ("s1", "o4", "price", 40.0),
            ("s2", "o1", "price", 10.0), ("s2", "o2", "price", 20.0),
            ("s2", "o3", "price", 30.0), ("s2", "o4", "price", 99.0),
        ])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0),
                          ("o3", "price", 30.0), ("o4", "price", 40.0)])
        return claims, gold

    def test_accuracy_family_perfect_source_clamped(self):
        claims, gold = self.gold_and_claims()
        t = sample_trust(MethodSpec("accupr"), claims, gold, CFG)
        assert t["s1"] == pytest.approx(1.0 - CFG.fusion.trust_clamp)

    def test_accuracy_family_three_of_four(self):
        claims, gold = self.gold_and_claims()
        t = sample_trust(MethodSpec("accupr"), claims, gold, CFG)
        assert t["s2"] == pytest.approx(0.75)

    def test_cosine_perfect_agreement_is_one(self):
        claims, gold = self.gold_and_claims()
        t = sample_trust(MethodSpec("cosine"), claims, gold, CFG)
        assert t["s1"] == pytest.approx(1.0)
        assert t["s2"] < 1.0

    def test_hub_normalized_gold_vote_sums(self):
        claims, gold = self.gold_and_claims()
        t = sample_trust(MethodSpec("hub"), claims, gold, CFG)
        assert t["s1"] == pytest.approx(1.0)
        assert t["s2"] == pytest.approx(3.0 / 4.0)

    def test_per_attribute_falls_back_when_sparse(self):
        claims = make_claims([
            ("s1", "o1", "price", 10.0), ("s1", "o2", "price", 20.0),
            ("s1", "o3", "price", 30.0), ("s1", "o4", "price", 40.0),
            ("s1", "o5", "price", 50.0), ("s1", "o6", "gate", "a"),
        ])
        gold = make_gold([("o1", "price", 10.0), ("o2", "price", 20.0),
                          ("o3", "price", 30.0), ("o4", "price", 40.0),
                          ("o5", "price", 50.0), ("o6", "gate", "b")])
        t = sample_trust(MethodSpec("accupr", per_attribute_trust=True),
                         claims, gold, CFG)
        # 5 gold observations on price: per-attribute value used.
        assert t[("s1", "price")] == pytest.approx(
            1.0 - CFG.fusion.trust_clamp)
        # 1 gold observation on gate: falls back to the global sample (5/6).
        assert t[("s1", "gate")] == pytest.approx(5.0 / 6.0)
