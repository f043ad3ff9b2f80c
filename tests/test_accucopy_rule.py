"""AccuCopy as a rule of the one round loop (``fusion._CopyAware`` with its
``copydetect.Copying`` state) against the separate loop it replaced: the
array loop of ``copydetect.run_accucopy``, kept here verbatim, bit for
bit, and the pure-Python loop ``ref_run_accucopy`` within 1e-12 (its
scalar ``math.log`` differs from numpy's in the last bits). Also AccuCopy
on a ``FusionEngine.stack`` of source prefixes against runs on each prefix
alone, and the source-addition curve against per-prefix runs scored with
``precision_recall``."""

from __future__ import annotations

import numpy as np
import pytest

from truthfuse.config import load_config
from truthfuse.copydetect import (
    Copying,
    CopyMatrix,
    _expand_known,
    _PairIndex,
)
from truthfuse import evalharness
from truthfuse.evalharness import (
    incremental_curve,
    precision_recall,
    rank_sources,
)
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    _RULES,
    _fixed_point,
    engine_for,
    fuse_segments,
    run_fusion,
)

from conftest import (
    copier_snapshot,
    edge_snapshot,
    ref_trust_from_posteriors,
    synthetic_snapshot,
)
from test_copydetect import assert_close_maps, ref_run_accucopy
from test_method_rules import same_bits
from test_shared_engine import COMPARE_METHODS

CFG = load_config()
SNAPSHOTS = {"copier": copier_snapshot, "edge": edge_snapshot,
             "synthetic": synthetic_snapshot}


def ref_array_accucopy(engine, config, input_trust=None, known_copiers=None,
                       detect=True):
    """``copydetect.run_accucopy``'s loop as it was before AccuCopy became
    a rule: (final votes, trust, rounds, converged, deltas, copy matrix)."""
    params = config.copy
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
        discounted = engine.votes_once("accuformat", trust,
                                       weights=new_weights)
        new_trust = trust if fixed_trust else ref_trust_from_posteriors(
            engine, engine.posteriors(discounted))
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
    names = engine.vsrc_list
    found = dict(zip(zip(np.r_[pairs.lo, pairs.hi].tolist(),
                         np.r_[pairs.hi, pairs.lo].tolist()),
                     prob[np.r_[pairs.up, pairs.down]].tolist()))
    matrix = CopyMatrix(
        prob={(names[i], names[j]): p
              for (i, j), p in ((found if detect else {}) | known).items()},
        independence=per_claim(engine, weights))
    return votes, trust, rounds, converged, deltas, matrix


def per_claim(engine, values) -> dict:
    """{(virtual source, item): value} over the engine's claims."""
    return {(engine.vsrc_list[v], engine.items[i]): x
            for v, i, x in zip(engine.claim_vsrc.tolist(),
                               engine.claim_item.tolist(), values.tolist())}


def same_floats(got: dict, want: dict) -> bool:
    """Equal keys, and values with equal bits."""
    return got.keys() == want.keys() and same_bits(
        np.array([got[k] for k in want], dtype=float),
        np.array(list(want.values()), dtype=float))


def outcome(result) -> tuple:
    """Every deterministic field of a result, floats as their bits."""
    m = result.copy_matrix
    return (result.method, result.selected, result.tie_count,
            result.rounds_used, result.converged, result.chosen.tobytes(),
            *(np.array(list(d.values()), dtype=float).tobytes()
              for d in (result.selected_vote, result.confidence,
                        result.trust, m.prob, m.independence)),
            np.array(result.trust_deltas).tobytes(), list(m.prob),
            list(m.independence))


@pytest.fixture(scope="module", params=sorted(SNAPSHOTS))
def snapshot(request):
    return SNAPSHOTS[request.param]()


def run_options(claims, with_known: bool, with_trust: bool):
    """Known copiers (one pair naming a source without claims) and an
    input trust over the sources, or None for either."""
    sources = list(claims.sources)
    known = ({(sources[1], sources[0]): 0.9, (sources[-1], sources[1]): 0.4,
              ("ghost", sources[0]): 0.7} if with_known else None)
    trust = ({s: 0.45 + 0.05 * k for k, s in enumerate(sources)}
             if with_trust else None)
    return known, trust


@pytest.mark.parametrize("flag", [False, True], ids=["global", "attr"])
@pytest.mark.parametrize("detect", [True, False], ids=["detect", "nodetect"])
@pytest.mark.parametrize("with_known", [False, True],
                         ids=["unknown", "known"])
@pytest.mark.parametrize("with_trust", [False, True],
                         ids=["own-trust", "input-trust"])
def test_rule_equals_the_loop_it_replaced(snapshot, flag, detect, with_known,
                                          with_trust):
    claims, _ = snapshot
    known, trust = run_options(claims, with_known, with_trust)
    engine = engine_for(claims, CFG.fusion, flag)
    method = MethodSpec("accucopy", flag)
    kwargs = dict(input_trust=trust, known_copiers=known,
                  detect_copying=detect)
    got = run_fusion(method, claims, CFG, engine=engine, **kwargs)
    segment, = fuse_segments(method, engine, CFG, trust, known, detect)
    assert outcome(segment) == outcome(got)

    votes, want_trust, rounds, converged, deltas, matrix = \
        ref_array_accucopy(engine, CFG, trust, known, detect)
    chosen, ties = engine.select(votes)
    assert same_bits(got.chosen, chosen) and got.tie_count == ties
    assert got.selected == {it: engine.cand_values[c]
                            for it, c in zip(engine.items, chosen.tolist())}
    assert same_floats(got.selected_vote, dict(zip(engine.items,
                                                   votes[chosen])))
    assert same_floats(got.confidence, dict(zip(
        engine.items, engine.posteriors(votes)[chosen])))
    assert same_floats(got.trust, engine.trust_map(want_trust))
    assert got.rounds_used == rounds and got.converged == converged
    assert same_bits(got.trust_deltas, deltas)
    assert same_floats(got.copy_matrix.prob, matrix.prob)
    assert same_floats(got.copy_matrix.independence, matrix.independence)
    if with_trust:
        assert same_bits(want_trust, engine.trust_array(trust))

    # The loop reference: known pairs without the ghost, which no claim
    # can place.
    placed = {k: p for k, p in (known or {}).items() if "ghost" not in k}
    chosen, ref_trust, rounds, prob, weights = ref_run_accucopy(
        engine, CFG, trust, placed, detect)
    assert got.rounds_used == rounds
    assert got.selected == {it: engine.cand_values[int(c)]
                            for it, c in zip(engine.items, chosen)}
    assert_close_maps(got.trust, engine.trust_map(ref_trust))
    assert_close_maps(got.copy_matrix.prob, prob)
    assert_close_maps(got.copy_matrix.independence,
                      per_claim(engine, weights))


def test_vote_pass_is_accuformat_with_weights(snapshot):
    claims, _ = snapshot
    engine = FusionEngine(claims, CFG.fusion)
    rng = np.random.default_rng(2)
    trust = rng.uniform(0.1, 0.9, engine.n_vsrc)
    weights = rng.uniform(0.2, 1.0, len(engine.claim_cand))
    for w in (None, weights):
        assert same_bits(engine.votes_once("accucopy", trust, weights=w),
                         engine.votes_once("accuformat", trust, weights=w))


def test_steps_from_the_engine_state(snapshot):
    """The rule's ``start`` and the engine's ``step`` run AccuCopy as
    ``run_fusion`` does under the same config."""
    claims, _ = snapshot
    engine = FusionEngine(claims, CFG.fusion)
    state = _RULES["accucopy"].start(engine, CFG)
    deltas = []
    while state.round < CFG.fusion.round_cap:
        state, delta = engine.step("accucopy", state)
        deltas.append(float(delta[0]))
        if delta[0] < CFG.fusion.epsilon:
            break
    result = run_fusion(MethodSpec("accucopy"), claims, CFG, engine=engine)
    assert same_bits(deltas, result.trust_deltas)
    assert same_floats(engine.trust_map(state.trust), result.trust)


# -- stacked source prefixes --------------------------------------------------


def prefix_engines(claims, gold, flag):
    ranked = rank_sources(claims, gold)
    return [engine_for(claims.restrict(ranked[:k]), CFG.fusion, flag)
            for k in range(1, len(ranked) + 1)]


COPY_RATE = load_config(overrides={"copy": {"copy_rate": 0.5}})


@pytest.mark.parametrize("flag", [False, True], ids=["global", "attr"])
@pytest.mark.parametrize("config", [CFG, COPY_RATE],
                         ids=["default", "copy-rate"])
def test_stack_of_prefixes_equals_runs_alone(snapshot, flag, config):
    claims, gold = snapshot
    parts = prefix_engines(claims, gold, flag)
    method = MethodSpec("accucopy", flag)
    want = [run_fusion(method, p.claims, config, engine=p) for p in parts]
    rounds = [r.rounds_used for r in want]
    assert len(set(rounds)) > 1     # segments freeze at different rounds
    for order in (parts, parts[::-1]):
        stack = FusionEngine.stack(order)
        got = fuse_segments(method, stack, config)
        assert [outcome(r) for r in got] == [
            outcome(want[parts.index(p)]) for p in order]


@pytest.mark.parametrize("flag", [False, True], ids=["global", "attr"])
def test_frozen_keeps_the_weights_recomputing_gives(snapshot, flag):
    """``Copying.frozen`` keeps each segment's weights from its own state;
    they equal the weights derived again from the mixed probabilities."""
    claims, gold = snapshot
    stack = FusionEngine.stack(prefix_engines(claims, gold, flag))
    old = Copying.start(stack, CFG.copy, None, True, False)
    chosen, _ = stack.select(stack.cand_counts)
    trust = np.linspace(0.3, 0.9, stack.n_vsrc)
    new = old.redetect(np.bincount(chosen, minlength=stack.n_cands) > 0,
                       trust)
    assert not np.array_equal(new.weights, old.weights)
    for live in (np.arange(len(stack.parts)) % 2 == 0,
                 np.arange(len(stack.parts)) % 3 != 1):
        got = new.frozen(old, live)
        want = new.with_prob(got.prob)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.prob, np.where(
            live[new.pairs.cells.of], new.prob, old.prob))


def test_copy_parameters_reach_the_stack():
    claims, gold = copier_snapshot()
    parts = prefix_engines(claims, gold, False)
    stack = FusionEngine.stack(parts)
    method = MethodSpec("accucopy")
    default, other = (fuse_segments(method, stack, config)
                      for config in (CFG, COPY_RATE))
    assert [r.trust for r in default] != [r.trust for r in other]


def test_runs_take_no_default_config():
    """A stacked run reads its copy parameters from the config it is
    given, so it must be given one: no call falls back to the defaults."""
    claims, gold = copier_snapshot()
    stack = FusionEngine.stack(prefix_engines(claims, gold, False))
    method = MethodSpec("accucopy")
    with pytest.raises(TypeError, match="config"):
        fuse_segments(method, stack)
    with pytest.raises(TypeError, match="config"):
        _fixed_point(method, stack)


@pytest.mark.parametrize("options", [
    (None, {("s1", "s2"): 0.5}), ({"s1": 0.8, "s2": 0.6}, None)],
    ids=["known-copiers", "input-trust"])
def test_stack_refuses_run_options(options):
    """Known copiers and input trust name one engine's sources: a stack
    refuses them with ``FusionError``, and a plain engine still takes
    them."""
    claims, gold = copier_snapshot()
    parts = prefix_engines(claims, gold, False)[:2]
    method = MethodSpec("accucopy")
    with pytest.raises(FusionError, match="not of a stack"):
        fuse_segments(method, FusionEngine.stack(parts), CFG, *options)
    input_trust, known = options
    if input_trust is not None:
        input_trust = dict.fromkeys(parts[0].claims.sources, 0.7)
    assert fuse_segments(method, parts[0], CFG, input_trust, known)


def ref_curve(methods, claims, gold, config):
    """The curve as per-prefix runs scored with ``precision_recall``."""
    ranked = rank_sources(claims, gold)
    points = []
    for m in methods:
        for k in range(1, len(ranked) + 1):
            sub = claims.restrict(ranked[:k])
            result = run_fusion(m, sub, config)
            points.append((k, precision_recall(result, gold, sub)[1],
                           ranked[k - 1], m.label()))
    return points


@pytest.mark.parametrize("config", [CFG, COPY_RATE],
                         ids=["default", "copy-rate"])
def test_curve_equals_per_prefix_runs(snapshot, config, monkeypatch):
    claims, gold = snapshot
    want = ref_curve(COMPARE_METHODS, claims, gold, config)
    built, loops = [], []
    original = FusionEngine.build_result
    monkeypatch.setattr(FusionEngine, "build_result",
                        lambda *a, **k: built.append(1) or original(*a, **k))
    monkeypatch.setattr(evalharness, "_fixed_point", lambda m, e, *rest: (
        loops.append((m, len(e.parts))) or _fixed_point(m, e, *rest)))
    got = incremental_curve(COMPARE_METHODS, claims, gold, config)
    assert [(p.k, p.recall, p.added_source, p.method) for p in got] == want
    assert built == []      # the curve assembles no result
    # one stacked run per method, AccuCopy included, over every prefix
    assert loops == [(m, len(claims.sources)) for m in COMPARE_METHODS]
