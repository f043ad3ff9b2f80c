"""The per-method rule table (``fusion._RULES``) against the chains of
``if method == ...`` branches in ``votes_once``, ``init_state`` and ``step``
that it replaced: every round's trust, votes and value trust are equal bit
for bit, and so are the input-trust pass and its confidence. Also the
errors of the table lookup, the variants ``accu_posteriors`` takes, and
that every rule votes through the one vote pass (``_Rule.votes``)."""

from __future__ import annotations

import ast

import numpy as np
import pytest

from truthfuse.config import load_config
from truthfuse.fusion import (
    METHOD_NAMES,
    FusionEngine,
    FusionError,
    FusionState,
    MethodSpec,
    _RULES,
    _Rule,
    _rule,
    accu_posteriors,
    clamp_trust,
    engine_for,
    run_fusion,
)

from conftest import (
    copier_snapshot,
    edge_snapshot,
    nodes_in_src,
    ref_trust_from_posteriors,
    synthetic_snapshot,
)

CFG = load_config()
SNAPSHOTS = {"copier": copier_snapshot, "edge": edge_snapshot,
             "synthetic": synthetic_snapshot}
STEPPING = [m for m in METHOD_NAMES if m not in ("vote", "accucopy")]
POSTERIOR = ("truthfinder", "accupr", "popaccu", "accusim", "accuformat")
ACCURACY_FAMILY = POSTERIOR + ("accucopy",)


class RefChainEngine(FusionEngine):
    """An engine whose vote pass, initial state and round are the per-method
    chains the rule table replaced, with the helpers they called (trust
    updates on the round's path only, over virtual sources)."""

    def votes_once(self, method, trust, value_trust=None, weights=None):
        if method == "vote":
            return self.cand_counts.copy()
        if method in ("hub", "avglog"):
            return self._norm_max(self._weighted_cand_sum(trust, weights),
                                  self.cand_segs)
        if method == "invest":
            base = self._invest_base(trust, weights)
            return self._norm_max(base ** self.cfg.invest_exponent,
                                  self.cand_segs)
        if method == "pooledinvest":
            return self._pooled_votes(self._invest_base(trust, weights))
        if method == "cosine":
            return self._cosine_votes(trust, weights)
        if method == "2-estimates":
            return self._rescale01(self._estimates_votes(trust, None,
                                                         weights),
                                   self.cand_segs)
        if method == "3-estimates":
            vt = (value_trust if value_trust is not None
                  else np.full(self.n_cands, self.cfg.init_value_trust))
            return self._rescale01(self._estimates_votes(trust, vt, weights),
                                   self.cand_segs)
        if method == "truthfinder":
            t = clamp_trust(trust, self.cfg)
            per_claim = -np.log(1.0 - t)[self.claim_vsrc]
            votes = self._claim_sum(per_claim, weights)
            return self._boost(votes)
        if method in ("accupr", "accusim", "accuformat"):
            t = clamp_trust(trust, self.cfg)
            per_claim = np.log(self.cfg.n_false * t / (1.0 - t))
            votes = self._claim_sum(per_claim[self.claim_vsrc], weights)
            if method == "accuformat":
                votes = self._format_credit(votes, trust, weights)
            if method in ("accusim", "accuformat"):
                votes = self._boost(votes)
            return votes
        if method == "popaccu":
            t = clamp_trust(trust, self.cfg)
            per_claim = np.log(t / (1.0 - t))
            votes = self._claim_sum(per_claim[self.claim_vsrc], weights)
            return votes + self._pop_term
        raise FusionError(f"no vote rule for method {method!r}")

    def _boost(self, votes):
        r = self.cfg.rho
        if r == 0.0 or self.sim_i.size == 0:
            return votes
        boosted = votes.copy()
        np.add.at(boosted, self.sim_i, r * self.sim_w * votes[self.sim_j])
        return boosted

    def _format_credit(self, votes, trust, weights):
        if self.cfg.w_fmt == 0.0 or self.fmt_claim.size == 0:
            return votes
        out = votes.copy()
        credit = self.cfg.w_fmt * trust[self.claim_vsrc[self.fmt_claim]]
        if weights is not None:
            credit = credit * weights[self.fmt_claim]
        np.add.at(out, self.fmt_cand, credit)
        return out

    def _weighted_cand_sum(self, trust, weights):
        return self._claim_sum(trust[self.claim_vsrc], weights)

    def _invest_base(self, trust, weights):
        return self._claim_sum((trust / self.src_nvals)[self.claim_vsrc],
                               weights)

    def _pooled_votes(self, base):
        h = self.cfg.pooled_exponent
        powed = np.power(np.maximum(base, 0.0), h)
        denom = self._per_item_sum(powed)[self.cand_item]
        total = self._per_item_sum(base)[self.cand_item]
        return np.where(denom > 0, np.divide(
            powed, denom, out=np.zeros_like(powed),
            where=denom > 0) * total, base)

    def _cosine_votes(self, trust, weights):
        cube = np.power(trust, self.cfg.cosine_trust_power)
        support = self._claim_sum(cube[self.claim_vsrc], weights)
        item_total = self._per_item_sum(support)[self.cand_item]
        num = 2.0 * support - item_total
        return np.divide(num, item_total,
                         out=np.zeros_like(num),
                         where=np.abs(item_total) > 1e-300)

    def _estimates_votes(self, trust, value_trust, weights):
        t_support = self._weighted_cand_sum(trust, weights)
        item_t = self._per_item_sum(t_support)[self.cand_item]
        nprov = self.item_nprov[self.cand_item]
        if value_trust is None:
            num = t_support + (nprov - self.cand_counts) - (item_t - t_support)
        else:
            num = (value_trust * (2.0 * t_support - item_t)
                   + nprov - self.cand_counts)
        return num / nprov

    def _hub_trust(self, method, votes):
        raw = self._group_sum(votes[self.claim_cand])
        if method == "avglog":
            n = self.src_nvals
            raw = raw / n * np.log1p(n)
        return raw

    def _invest_trust(self, votes, trust):
        inv_w = (trust / self.src_nvals)[self.claim_vsrc]
        inv_sum = np.bincount(self.claim_cand, weights=inv_w,
                              minlength=self.n_cands)
        share = np.divide(inv_w, inv_sum[self.claim_cand],
                          out=np.zeros_like(inv_w),
                          where=inv_sum[self.claim_cand] > 0)
        return self._group_sum(votes[self.claim_cand] * share)

    def _cosine_trust(self, votes):
        own = votes[self.claim_cand]
        item_sum = self._per_item_sum(votes)
        item_sq = self._per_item_sum(votes * votes)
        num = self._group_sum(2.0 * own - item_sum[self.claim_item])
        nvals = self._group_sum(self.item_ncand[self.claim_item])
        sq = self._group_sum(item_sq[self.claim_item])
        den = np.sqrt(nvals * sq)
        cos = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return np.clip(cos, -1.0, 1.0)

    def _estimates_trust(self, votes, value_trust):
        own = votes[self.claim_cand]
        if value_trust is None:
            item_anti = self._per_item_sum(1.0 - votes)
            per_claim = own + item_anti[self.claim_item] - (1.0 - own)
        else:
            u = 1.0 / np.maximum(1.0 - value_trust, self.cfg.trust_clamp)
            u_own = u[self.claim_cand]
            item_anti = self._per_item_sum((1.0 - votes) * u)
            per_claim = (own * u_own + item_anti[self.claim_item]
                         - (1.0 - own) * u_own)
        num = self._group_sum(per_claim)
        den = self._group_sum(self.item_ncand[self.claim_item])
        return num / np.maximum(den, 1.0)

    def _estimates_value_trust(self, votes, trust):
        r = 1.0 / np.maximum(1.0 - trust, self.cfg.trust_clamp)
        r_support = np.bincount(self.claim_cand,
                                weights=r[self.claim_vsrc],
                                minlength=self.n_cands)
        item_r = self._per_item_sum(r_support)[self.cand_item]
        return (votes * r_support
                + (1.0 - votes) * (item_r - r_support)) \
            / self.item_nprov[self.cand_item]

    def trust_from_posteriors(self, post):
        return ref_trust_from_posteriors(self, post)

    def init_state(self, method):
        cfg = self.cfg
        if method in ("hub", "avglog"):
            return FusionState(0, np.zeros(self.n_vsrc),
                               np.full(self.n_cands, 0.5))
        if method == "invest":
            votes = self.cand_counts / self.item_nprov[self.cand_item]
            return FusionState(0, np.ones(self.n_vsrc), votes)
        if method == "pooledinvest":
            votes = 1.0 / self.item_ncand[self.cand_item]
            return FusionState(0, np.ones(self.n_vsrc), votes)
        if method == "cosine":
            return FusionState(0, np.ones(self.n_vsrc),
                               np.ones(self.n_cands))
        if method == "2-estimates":
            return FusionState(0, np.ones(self.n_vsrc),
                               np.zeros(self.n_cands))
        if method == "3-estimates":
            return FusionState(0, np.ones(self.n_vsrc),
                               np.zeros(self.n_cands),
                               np.full(self.n_cands, cfg.init_value_trust))
        if method in ACCURACY_FAMILY:
            return FusionState(0, np.full(self.n_vsrc, cfg.init_trust_bayes),
                               np.zeros(self.n_cands))
        if method == "vote":
            return FusionState(0, np.ones(self.n_vsrc),
                               self.cand_counts.copy())
        raise FusionError(f"no initialization for method {method!r}")

    def step(self, method, state, weights=None):
        if method in ("hub", "avglog"):
            trust = self._norm_max(self._hub_trust(method, state.votes),
                                   self.vsrc_segs)
            votes = self.votes_once(method, trust, weights=weights)
        elif method in ("invest", "pooledinvest"):
            trust = self._invest_trust(state.votes, state.trust)
            if method == "invest":
                trust = self._norm_max(trust, self.vsrc_segs)
            votes = self.votes_once(method, trust, weights=weights)
        elif method == "cosine":
            trust = (self.cfg.cosine_damping * state.trust
                     + (1.0 - self.cfg.cosine_damping)
                     * self._cosine_trust(state.votes))
            votes = self.votes_once(method, trust, weights=weights)
        elif method == "2-estimates":
            votes = self.votes_once(method, state.trust, weights=weights)
            trust = self._rescale01(self._estimates_trust(votes, None),
                                    self.vsrc_segs)
        elif method == "3-estimates":
            votes = self.votes_once(method, state.trust,
                                    value_trust=state.value_trust,
                                    weights=weights)
            value_trust = np.clip(
                self._estimates_value_trust(votes, state.trust),
                self.cfg.trust_clamp, 1.0 - self.cfg.trust_clamp)
            trust = self._rescale01(self._estimates_trust(votes, value_trust),
                                    self.vsrc_segs)
            new = FusionState(state.round + 1, trust, votes, value_trust)
            return new, self._state_delta(state, new)
        elif method == "truthfinder":
            votes = self.votes_once(method, state.trust, weights=weights)
            damp = 1.0 - np.exp(-self.cfg.truthfinder_gamma * votes)
            trust = self.trust_from_posteriors(damp)
        elif method in ("accupr", "accusim", "accuformat", "popaccu"):
            votes = self.votes_once(method, state.trust, weights=weights)
            trust = self.trust_from_posteriors(self.posteriors(
                votes, observed_only=method == "popaccu"))
        else:
            raise FusionError(f"no round rule for method {method!r}")
        new = FusionState(state.round + 1, trust, votes, state.value_trust)
        return new, self._state_delta(state, new)


class WeightedEngine(FusionEngine):
    """An engine whose vote pass scales each claim by fixed per-claim
    ``claim_weights`` when given none: rounds reach independence weights
    only through ``votes_once``, as AccuCopy's do, since ``step`` takes
    none."""

    claim_weights = None

    def votes_once(self, method, trust, value_trust=None, weights=None):
        return super().votes_once(
            method, trust, value_trust,
            self.claim_weights if weights is None else weights)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes, or both None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class Snapshot:
    def __init__(self, name: str):
        self.claims, self.gold = SNAPSHOTS[name]()
        engine = engine_for(self.claims, CFG.fusion, False)
        self.engines = {flag: engine.scoped(flag) for flag in (False, True)}
        self.refs = {flag: RefChainEngine(self.claims, CFG.fusion).scoped(
            flag) for flag in (False, True)}
        self.weighted = {}
        for flag in (False, True):
            self.weighted[flag] = WeightedEngine(self.claims,
                                                 CFG.fusion).scoped(flag)
            self.weighted[flag].claim_weights = self.weights(flag, True)

    def weights(self, flag: bool, weighted: bool):
        """Seeded per-claim independence weights in [0.2, 1), or None."""
        if not weighted:
            return None
        n = len(self.engines[flag].claim_cand)
        return np.random.default_rng(7).uniform(0.2, 1.0, n)

    def trust(self, flag: bool) -> np.ndarray:
        """A seeded fixed trust in (0.05, 0.95) per virtual source."""
        n = self.engines[flag].n_vsrc
        return np.random.default_rng(11).uniform(0.05, 0.95, n)


@pytest.fixture(scope="module", params=sorted(SNAPSHOTS))
def snap(request):
    return Snapshot(request.param)


def test_snapshots_have_both_flags_apart(snap):
    """Per-attribute views have more virtual sources than sources, so
    both flags are exercised as distinct scopes."""
    assert snap.engines[True].n_vsrc > snap.engines[False].n_vsrc


@pytest.mark.parametrize("name", METHOD_NAMES)
@pytest.mark.parametrize("flag", [False, True])
def test_init_state_matches_chain(snap, name, flag):
    got = _RULES[name].start(snap.engines[flag], CFG)
    want = snap.refs[flag].init_state(name)
    assert got.round == want.round == 0
    for part in ("trust", "votes", "value_trust"):
        assert same_bits(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("name", STEPPING)
@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_every_round_matches_chain(snap, name, flag, weighted):
    """All ``round_cap`` rounds, past convergence too: trust, votes, value
    trust and each round's change are the chain's, bit for bit. Weighted
    rounds vote with weights through the engine's ``votes_once``."""
    engine = (snap.weighted if weighted else snap.engines)[flag]
    ref, weights = snap.refs[flag], snap.weights(flag, weighted)
    got, want = _RULES[name].start(engine, CFG), ref.init_state(name)
    for k in range(CFG.fusion.round_cap):
        got, got_delta = engine.step(name, got)
        want, want_delta = ref.step(name, want, weights)
        assert got.round == want.round == k + 1
        for part in ("trust", "votes", "value_trust"):
            assert same_bits(getattr(got, part), getattr(want, part)), \
                (k, part)
        assert same_bits(got_delta, want_delta), k


@pytest.mark.parametrize("name",
                         [m for m in METHOD_NAMES if m != "accucopy"])
@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_input_trust_pass_matches_chain(snap, name, flag, weighted):
    engine, ref = snap.engines[flag], snap.refs[flag]
    trust, weights = snap.trust(flag), snap.weights(flag, weighted)
    assert same_bits(engine.votes_once(name, trust, weights=weights),
                     ref.votes_once(name, trust, weights=weights))
    if name.endswith("-estimates"):   # 2-Estimates ignores value trust
        vt = np.random.default_rng(3).uniform(0.1, 0.9, engine.n_cands)
        assert same_bits(
            engine.votes_once(name, trust, value_trust=vt, weights=weights),
            ref.votes_once(name, trust, value_trust=vt, weights=weights))


@pytest.mark.parametrize("name",
                         [m for m in METHOD_NAMES if m != "accucopy"])
@pytest.mark.parametrize("flag", [False, True])
def test_input_trust_run_confidence_matches_chain(snap, name, flag):
    """``run_fusion`` under input trust: the rule's confidence is the
    posterior for the Bayesian family, Vote's share of providers for Vote,
    and the positive-vote share otherwise, as before."""
    engine, ref = snap.engines[flag], snap.refs[flag]
    spec = MethodSpec(name, flag)
    trust = snap.trust(flag)
    got = run_fusion(spec, snap.claims, CFG,
                     input_trust=engine.trust_map(trust), engine=engine)
    if name == "vote":
        votes = ref.cand_counts.copy()
        conf, rounds = votes / ref.item_nprov[ref.cand_item], 0
    else:
        votes, rounds = ref.votes_once(name, trust), 1
        conf = (ref.posteriors(votes, observed_only=name == "popaccu")
                if name in POSTERIOR else None)
    want = ref.build_result(spec, votes, trust, rounds=rounds,
                            converged=True, wall_time=0.0, deltas=[],
                            confidence=conf)
    assert got.selected == want.selected
    assert got.trust == want.trust
    assert got.rounds_used == want.rounds_used
    for it, c in want.confidence.items():
        assert same_bits(got.confidence[it], c), it
    for it, v in want.selected_vote.items():
        assert same_bits(got.selected_vote[it], v), it


# -- errors of the table lookup -----------------------------------------------


def _engine():
    claims, _ = copier_snapshot()
    return FusionEngine(claims, CFG.fusion)


@pytest.mark.parametrize("call", [
    lambda e: e.votes_once("nosuch", np.ones(e.n_vsrc)),
    lambda e: _rule("nosuch").start(e, CFG),
    lambda e: e.step("nosuch", _RULES["hub"].start(e, CFG)),
    lambda e: e.step("vote", _RULES["vote"].start(e, CFG)),
    lambda e: MethodSpec("nosuch"),
], ids=["votes-unknown", "init-unknown", "step-unknown", "step-vote",
        "spec-unknown"])
def test_lookup_errors_are_fusion_errors(call):
    with pytest.raises(FusionError):
        call(_engine())


@pytest.mark.parametrize("variant", POSTERIOR)
def test_accu_posteriors_accepts_posterior_variants(variant):
    claims, _ = copier_snapshot()
    trust = {s: 0.7 for s in claims.sources}
    post = accu_posteriors(claims, trust, CFG, variant=variant)
    ref = RefChainEngine(claims, CFG.fusion)
    want = ref.posteriors(ref.votes_once(variant, ref.trust_array(trust)),
                          observed_only=variant == "popaccu")
    got = [post[ref.items[int(ref.cand_item[c])]][ref.cand_values[c]]
           for c in range(ref.n_cands)]
    assert same_bits(np.array(got), want)


@pytest.mark.parametrize("variant", [
    "vote", "hub", "avglog", "invest", "pooledinvest", "cosine",
    "2-estimates", "3-estimates", "accucopy", "nosuch"])
def test_accu_posteriors_rejects_other_variants(variant):
    """Their votes are not log-scale, so a softmax of them is no posterior;
    AccuCopy's vote pass needs copy weights that only copy detection
    gives."""
    claims, _ = copier_snapshot()
    trust = {s: 0.7 for s in claims.sources}
    with pytest.raises(FusionError, match="valid variants: " + ", ".join(
            POSTERIOR)):
        accu_posteriors(claims, trust, CFG, variant=variant)


# -- the one vote pass -------------------------------------------------------


def rule_classes() -> set[str]:
    """The names of ``_Rule`` and of all its subclasses."""
    names, todo = set(), [_Rule]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


def passes_weights_to_claim_sum(node, scope) -> bool:
    if not (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "_claim_sum"):
        return False
    args = [*node.args, *(k.value for k in node.keywords)]
    return any(getattr(a, "id", None) == "weights" for a in args)


def test_rules_vote_through_the_one_pass():
    """Only ``_Rule`` (the one pass) and ``_Vote`` (counts, which weights
    do not scale) define ``votes``, and only ``_Rule.votes`` hands
    ``weights`` to ``_claim_sum``: no rule writes its own gather, weight
    and sum again, so a rule states only its term and its transforms."""
    rules = rule_classes()
    defines = nodes_in_src(lambda node, scope: (
        isinstance(node, ast.FunctionDef) and node.name == "votes"
        and scope in rules))
    assert sorted(defines) == [("fusion", "_Rule"), ("fusion", "_Vote")]
    assert nodes_in_src(passes_weights_to_claim_sum) == [
        ("fusion", "_Rule.votes")]


# -- the one trust pass ------------------------------------------------------


def calls_group_sum(node, scope) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "_group_sum")


def test_rules_update_trust_through_the_one_pass():
    """Only ``_Rule.trust_pass`` sums claims per source (``_group_sum``),
    and no rule defines a ``trust`` or ``sample`` of its own: rounds and
    gold sampling share each rule's one trust update, which states only
    its per-claim terms, its divisor and its trust transforms. The engine
    keeps no accuracy rule of its own either."""
    rules = rule_classes()
    assert nodes_in_src(calls_group_sum) == [("fusion", "_Rule.trust_pass")]
    assert nodes_in_src(lambda node, scope: (
        isinstance(node, ast.FunctionDef)
        and node.name in ("trust", "sample", "mean_trust",
                          "trust_from_posteriors")
        and (scope in rules or scope == "FusionEngine"))) == []
