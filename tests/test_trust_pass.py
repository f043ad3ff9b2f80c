"""The one trust pass (``_Rule.trust_pass``): gold sampling and the
fixed-point rounds share it, so with every named sampling difference
(``_Rule.sampling``) switched off, sampled trust on gold votes is exactly
the round's own trust update fed those votes. The named differences
themselves are pinned here, so that adding one is a visible change."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from truthfuse import fusion
from truthfuse.config import load_config
from truthfuse.fusion import (
    METHOD_NAMES,
    FusionEngine,
    GoldMatch,
    _RULES,
    _damping,
    _rescale01,
    _sampled,
)

from conftest import edge_snapshot, make_gold, synthetic_snapshot

CFG = load_config()
ITERATING = [m for m in METHOD_NAMES if _RULES[m].iterates]


class FedEngine(FusionEngine):
    """An engine whose vote pass returns the fed votes and whose
    posteriors are the fed truth, so that a round that votes first updates
    trust from them. TruthFinder's truth 1 - exp(-gamma * vote) is 1 at an
    infinite vote and 0 at none, so it is fed those."""

    fed_votes = fed_truth = None

    def votes_once(self, method, trust, value_trust=None, weights=None):
        return self.fed_votes.copy()

    def posteriors(self, votes, observed_only=False):
        return self.fed_truth.copy()


def _snapshot(request, name):
    if name == "toy5":
        return request.getfixturevalue("toy5"), make_gold(
            [("o1", "price", 10.0)])
    return {"edge": edge_snapshot, "synthetic": synthetic_snapshot}[name]()


@pytest.mark.parametrize("name", ITERATING)
@pytest.mark.parametrize("flag", [False, True], ids=["global", "attr"])
@pytest.mark.parametrize("snap", ["toy5", "edge", "synthetic"])
def test_sample_without_differences_is_the_round(request, monkeypatch, snap,
                                                  flag, name):
    claims, gold = _snapshot(request, snap)
    engine = FedEngine(claims, CFG.fusion).scoped(flag)
    rule = _RULES[name]
    real = engine.gold_match(gold.entries)
    gold_votes = np.where(real.cand, 1.0, rule.gold_false)
    engine.fed_truth = real.cand.astype(float)
    engine.fed_votes = (np.where(real.cand, np.inf, 0.0)
                        if name == "truthfinder" else gold_votes)
    # Every item is on gold, so the groups are the virtual sources.
    match = GoldMatch(np.ones(engine.n_items, dtype=bool), real.claim,
                      real.cand, engine)
    state = rule.start(engine, CFG)
    state.trust, state.votes = np.ones(engine.n_vsrc), gold_votes
    want, _ = engine.step(name, state)

    monkeypatch.setitem(fusion._RULES, name,
                        dataclasses.replace(rule, sampling=()))
    got = _sampled(name, engine, match, np.arange(engine.n_vsrc),
                   [engine.n_vsrc])
    assert got.tobytes() == want.trust.tobytes()


def test_named_sampling_differences():
    """What each rule's gold sample does unlike its rounds (``sample_trust``
    lists them; ROADMAP item 8 mends them one at a time)."""
    named = {name: sorted(str(getattr(d.key, "__name__", d.key))
                          for d in rule.sampling)
             for name, rule in _RULES.items() if rule.sampling}
    accuracy = ["own"]
    assert named == {
        "avglog": ["log1p"], "invest": ["zero"], "pooledinvest": ["zero"],
        "cosine": [_damping.__name__, "zero"],
        "2-estimates": [_rescale01.__name__],
        "3-estimates": [_rescale01.__name__, "no vt"],
        "truthfinder": accuracy, "accupr": accuracy, "popaccu": accuracy,
        "accusim": accuracy, "accuformat": accuracy, "accucopy": accuracy,
    }
    for rule in _RULES.values():
        for d in rule.sampling:
            assert d.why and "\n" not in d.why
            if callable(d.key):     # a skipped transform is one rounds run
                assert d.key in rule.trust_transforms
