"""Gold scores as reductions of one engine gold match (precision, recall,
source accuracy and coverage, the source ranking, dominance strata and the
dominant value's precision) against the per-item and per-claim
``values_match`` loops they replaced (``ref_*``): equal with ``==``."""

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest

from truthfuse import cli, copydetect, dataio, evalharness, fusion, metrics
from truthfuse import normalize
from truthfuse.config import load_config
from truthfuse.evalharness import (
    dominance_bucket_edges,
    incremental_curve,
    precision_by_dominance,
    precision_recall,
    rank_sources,
)
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    METHOD_NAMES,
    engine_for,
    run_fusion,
)
from truthfuse.metrics import (
    dominant,
    precision_of_dominant,
    profile_items,
    profile_sources,
    source_accuracy,
    source_coverage,
    source_scores,
)
from truthfuse.model import DataItem
from truthfuse.normalize import (
    bucketize,
    similarity,
    tolerances,
    values_match,
)

from conftest import copier_snapshot, edge_snapshot, synthetic_snapshot

CFG = load_config()

METHODS = [MethodSpec(name, flag) for name in METHOD_NAMES
           for flag in (False, True)]


# -- the references: the scores as they were, one values_match per pair ----


def ref_precision_recall(result, gold, claims, taus=None):
    if not gold.entries:
        raise ValueError("gold standard is empty")
    if taus is None:
        taus = tolerances(claims)
    correct = 0
    output_on_gold = 0
    for item in gold.entries:
        selected = result.selected.get(item)
        if selected is None:
            continue
        output_on_gold += 1
        attr = claims.schema[item.attribute]
        if values_match(selected, gold.entries[item], attr,
                        taus.get(item.attribute)):
            correct += 1
    precision = correct / output_on_gold if output_on_gold else 0.0
    recall = correct / len(gold.entries)
    return precision, recall


def ref_source_accuracy(source, claims, gold, taus=None):
    if taus is None:
        taus = tolerances(claims)
    correct = 0
    covered = 0
    for c in claims.by_source.get(source, ()):
        truth = gold.entries.get(c.item)
        if truth is None:
            continue
        covered += 1
        attr = claims.attribute_of(c.item)
        if values_match(c.value, truth, attr, taus[c.item.attribute]):
            correct += 1
    if covered == 0:
        return None
    return correct / covered


def ref_source_coverage(source, claims, gold):
    if not gold.entries:
        return 0.0
    provided = sum(1 for c in claims.by_source.get(source, ())
                   if c.item in gold.entries)
    return provided / len(gold.entries)


def ref_rank_sources(claims, gold):
    taus = tolerances(claims)

    def key(s):
        acc = ref_source_accuracy(s, claims, gold, taus)
        cov = ref_source_coverage(s, claims, gold)
        product = -1.0 if acc is None else acc * cov
        return (-product, s)

    return sorted(claims.sources, key=key)


def ref_precision_by_dominance(result, gold, profiles, claims, edges=None,
                               taus=None):
    if edges is None:
        edges = dominance_bucket_edges()
    if taus is None:
        taus = tolerances(claims)
    rows = []
    for b in range(len(edges) - 1):
        lo, hi = edges[b], edges[b + 1]
        last = b == len(edges) - 2
        total = 0
        method_ok = 0
        vote_ok = 0
        for item in gold.entries:
            prof = profiles.get(item)
            sel = result.selected.get(item)
            if prof is None or sel is None:
                continue
            f = prof.dominance_factor
            if not (lo <= f < hi or (last and f == hi)):
                continue
            total += 1
            attr = claims.schema[item.attribute]
            truth = gold.entries[item]
            if values_match(sel, truth, attr, taus.get(item.attribute)):
                method_ok += 1
            if values_match(prof.dominant, truth, attr,
                            taus.get(item.attribute)):
                vote_ok += 1
        rows.append({
            "lo": lo, "hi": hi, "count": total,
            "precision": method_ok / total if total else None,
            "vote_precision": vote_ok / total if total else None,
        })
    return rows


def ref_precision_of_dominant(claims, gold, taus=None):
    if not gold.entries:
        raise ValueError("gold standard is empty")
    if taus is None:
        taus = tolerances(claims)
    items = [it for it in sorted(gold.entries, key=DataItem.sort_key)
             if it in claims.by_item]
    if not items:
        raise ValueError("no gold item is covered by any claim")
    correct = sum(
        values_match(dominant(bucketize(it, claims, taus[it.attribute]))[0],
                     gold.entries[it], claims.attribute_of(it),
                     taus[it.attribute])
        for it in items)
    return correct / len(items)


# -- fixtures ----------------------------------------------------------------


SNAPSHOTS = {"synthetic": synthetic_snapshot, "copier": copier_snapshot,
             "edge": edge_snapshot}


class Scored:
    """A snapshot with its engine and that engine's per-attribute view (by
    flag), the global engine's gold match and the item profiles the
    references read."""

    def __init__(self, name: str):
        self.claims, self.gold = SNAPSHOTS[name]()
        engine = engine_for(self.claims, CFG.fusion, False)
        self.engines = {flag: engine.scoped(flag) for flag in (False, True)}
        self.match = self.engines[False].gold_match(self.gold.entries)
        self.profiles = profile_items(self.claims)


@pytest.fixture(scope="module", params=sorted(SNAPSHOTS))
def scored(request):
    return Scored(request.param)


# -- the scores equal the references -----------------------------------------


def test_snapshots_exercise_their_cases():
    claims, gold = edge_snapshot()
    assert any(it not in claims.by_item for it in gold.entries)
    assert ref_source_accuracy("s5", claims, gold) is None
    assert tolerances(claims)["change"] < 0


def test_per_attribute_engines_bucket_alike(scored):
    glob, attr = scored.engines[False], scored.engines[True]
    for name in ("cand_item", "claim_cand", "claim_item", "cand_counts",
                 "item_nprov", "_cand_key", "_claim_key"):
        assert np.array_equal(getattr(glob, name), getattr(attr, name)), name
    assert glob.cand_values == attr.cand_values
    match = attr.gold_match(scored.gold.entries)
    for name in ("item", "claim", "cand"):
        assert np.array_equal(getattr(match, name),
                              getattr(scored.match, name)), name


def test_every_site_agrees_with_the_scalar_rule(scored):
    """One distance rule: on both flags' engines, the gold match of each
    claim's value and each candidate's centre is ``values_match``, the
    similarity pairs are the candidate pairs of positive ``similarity``
    with its weights, and ``group_commonality``'s per-pair same-value
    share is the ``values_match`` count over the pair's shared items."""
    claims, gold = scored.claims, scored.gold
    value = {(c.source, c.item): c.value for c in claims.claims}

    def agree(item, v):
        truth = gold.entries.get(item)
        return truth is not None and values_match(
            v, truth, claims.attribute_of(item), scored.match.engine.taus[
                item.attribute])

    for engine in scored.engines.values():
        match = engine.gold_match(gold.entries)
        sources = [claims.sources[s] for s in
                   engine.vsrc_source[engine.claim_vsrc].tolist()]
        items = [engine.items[i] for i in engine.claim_item.tolist()]
        assert match.claim.tolist() == [
            agree(it, value[s, it]) for s, it in zip(sources, items)]
        cand_items = [engine.items[i] for i in engine.cand_item.tolist()]
        assert match.cand.tolist() == [
            agree(it, v) for it, v in zip(cand_items, engine.cand_values)]
        want = [(i, j, w) for i in range(engine.n_cands)
                for j in range(engine.n_cands)
                if i != j and cand_items[i] == cand_items[j]
                and (w := similarity(
                    engine.cand_values[i], engine.cand_values[j],
                    claims.attribute_of(cand_items[i]), engine.sim_params,
                    engine.taus[cand_items[i].attribute])) > 0.0]
        assert list(zip(engine.sim_i.tolist(), engine.sim_j.tolist(),
                        engine.sim_w.tolist())) == want
    taus = scored.match.engine.taus
    for pair in itertools.combinations(claims.sources, 2):
        one, two = ({c.item: c.value for c in claims.by_source[s]}
                    for s in pair)
        shared = one.keys() & two.keys()
        same = sum(values_match(one[it], two[it], claims.attribute_of(it),
                                taus[it.attribute]) for it in shared)
        got = copydetect.group_commonality(pair, claims, taus=taus)
        assert got.value_sim == (same / len(shared) if shared else None)


@pytest.mark.parametrize("method", METHODS, ids=MethodSpec.label)
def test_result_scores_match_reference(scored, method):
    """Precision, recall and dominance strata of the default and the
    input-trust run, scored on the global engine's match (also for a
    per-attribute result), on the run's own engine's match, and on a
    match the scorer takes itself."""
    claims, gold = scored.claims, scored.gold
    engine = scored.engines[method.per_attribute_trust]
    own = engine.gold_match(gold.entries)
    default = run_fusion(method, claims, CFG, engine=engine)
    trust = {s: 0.7 for s in claims.sources}
    with_trust = run_fusion(method, claims, CFG, input_trust=trust,
                            engine=engine)
    for result in (default, with_trust):
        want = ref_precision_recall(result, gold, claims)
        for match in (scored.match, own, None):
            assert precision_recall(result, gold, claims, match) == want
        want = ref_precision_by_dominance(result, gold, scored.profiles,
                                          claims)
        for match in (scored.match, own, None):
            assert precision_by_dominance(result, gold, claims,
                                          match=match) == want


def test_source_scores_match_reference(scored):
    claims, gold = scored.claims, scored.gold
    for match in [e.gold_match(gold.entries)
                  for e in scored.engines.values()] + [None]:
        scores = source_scores(claims, gold, match)
        assert list(scores) == list(claims.sources)
        for s, (acc, cov) in scores.items():
            assert acc == ref_source_accuracy(s, claims, gold), s
            assert cov == ref_source_coverage(s, claims, gold), s
            assert source_accuracy(s, claims, gold, match) == acc
            assert source_coverage(s, claims, gold) == cov
        assert rank_sources(claims, gold, match) == ref_rank_sources(
            claims, gold)
        assert (precision_of_dominant(claims, gold, match)
                == ref_precision_of_dominant(claims, gold))


def test_uncovered_gold_and_sources_without_gold():
    """Gold items no claim covers stay in recall's denominator; a source
    with no gold overlap has accuracy None and ranks last."""
    claims, gold = edge_snapshot()
    result = run_fusion(MethodSpec("vote"), claims, CFG)
    precision, recall = precision_recall(result, gold, claims)
    assert any(it not in claims.by_item for it in gold.entries)
    assert (precision, recall) == ref_precision_recall(result, gold, claims)
    assert 0 < recall < precision
    assert source_scores(claims, gold)["s5"] == (None, 0.0)
    assert source_accuracy("s5", claims, gold) is None
    assert source_accuracy("nobody", claims, gold) is None
    assert source_coverage("nobody", claims, gold) == 0.0
    assert rank_sources(claims, gold)[-1] == "s5"


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_curve_prefixes_match_reference(name):
    """Every point of every method's curve is the reference recall of a
    run on its source prefix."""
    claims, gold = SNAPSHOTS[name]()
    curve = incremental_curve(METHODS, claims, gold, CFG)
    ranked = ref_rank_sources(claims, gold)
    prefixes = [claims.restrict(ranked[:k])
                for k in range(1, len(ranked) + 1)]
    want = [ref_precision_recall(run_fusion(m, sub, CFG), gold, sub)[1]
            for m in METHODS for sub in prefixes]
    assert [p.recall for p in curve] == want
    assert [p.added_source for p in curve] == ranked * len(METHODS)
    given = incremental_curve(METHODS[:2], claims, gold, CFG, ranked)
    assert given == curve[:2 * len(ranked)]


def test_scores_refuse_a_match_over_other_claims():
    claims, gold = copier_snapshot()
    other, other_gold = copier_snapshot()
    result = run_fusion(MethodSpec("accupr"), claims, CFG)
    foreign = FusionEngine(other, CFG.fusion)
    match = foreign.gold_match(other_gold.entries)
    with pytest.raises(FusionError):
        precision_recall(result, other_gold, other, match=match)
    with pytest.raises(FusionError):
        precision_recall(result, other_gold, other)
    with pytest.raises(FusionError):
        precision_recall(result, gold, claims, match=match)
    with pytest.raises(FusionError):
        precision_by_dominance(result, other_gold, other, match=match)
    with pytest.raises(FusionError):
        source_scores(claims, gold, match)
    with pytest.raises(FusionError):
        rank_sources(claims, gold, match)
    with pytest.raises(FusionError):
        precision_of_dominant(claims, gold, match=match)


# -- each snapshot is scored once --------------------------------------------


def _count_gold_matches(monkeypatch) -> list:
    calls = []
    real = FusionEngine.gold_match

    def counted(self, truth):
        calls.append(self.claims)
        return real(self, truth)

    monkeypatch.setattr(FusionEngine, "gold_match", counted)
    return calls


def test_profile_sources_scores_each_snapshot_once(monkeypatch, tmp_path):
    claims, gold = copier_snapshot()
    day2, gold2 = synthetic_snapshot()
    calls = _count_gold_matches(monkeypatch)
    profiles = profile_sources(claims, gold,
                               snapshots=[(claims, gold), (day2, gold2)])
    assert len(calls) == 2
    for s, p in profiles.items():
        assert p.snapshot_accuracy == (
            ref_source_accuracy(s, claims, gold),
            ref_source_accuracy(s, day2, gold2))
    # The profile subcommand passes the primary as the first entry.
    files = []
    for k, (c, g) in enumerate(((claims, gold), (claims, gold),
                                (claims, gold))):
        dataio.write_claims(c, tmp_path / f"claims{k}.csv")
        dataio.write_gold(g, tmp_path / f"gold{k}.csv")
        files.append((tmp_path / f"claims{k}.csv", tmp_path / f"gold{k}.csv"))
    dataio.write_schema(claims.schema, tmp_path / "schema.csv")
    del calls[:]
    assert cli.main(["profile", "--claims", str(files[0][0]),
                     "--schema", str(tmp_path / "schema.csv"),
                     "--gold", str(files[0][1]),
                     *[f"--snapshot={c}:{g}" for c, g in files[1:]],
                     "--out", str(tmp_path / "p")]) == 0
    assert len(calls) == len({id(c) for c in calls}) == 3


# -- regression guards -------------------------------------------------------


def _count_calls(monkeypatch, names) -> dict:
    counts: dict = {}
    for module in (normalize, metrics, fusion, copydetect, evalharness, cli):
        for name in names:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def files(tmp_path):
    claims, gold = copier_snapshot()
    dataio.write_schema(claims.schema, tmp_path / "schema.csv")
    dataio.write_claims(claims, tmp_path / "claims.csv")
    dataio.write_gold(gold, tmp_path / "gold.csv")
    return ["--claims", str(tmp_path / "claims.csv"),
            "--schema", str(tmp_path / "schema.csv"),
            "--gold", str(tmp_path / "gold.csv")]


def test_compare_and_evaluate_score_on_the_gold_match(monkeypatch, tmp_path,
                                                      files):
    """No per-pair matching, bucketing or item profile is left in
    ``compare`` and ``evaluate``."""
    counts = _count_calls(monkeypatch, (
        "values_match", "bucketize", "profile_items", "source_accuracy"))
    assert cli.main(["compare", *files, "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["evaluate", *files, "--method", "AccuFormatAttr",
                     "--out", str(tmp_path / "e")]) == 0
    assert counts == {}


def test_compare_frees_the_snapshot_engines_before_the_curve(monkeypatch,
                                                             tmp_path,
                                                             files):
    full: list = []
    real_init = FusionEngine.__init__

    def tracked(self, claims, *args, **kwargs):
        real_init(self, claims, *args, **kwargs)
        if not full:    # the snapshot's, built first
            full.append(claims)
        if claims is full[0]:
            full.append(weakref.ref(self))

    real_curve = evalharness.incremental_curve
    alive: list = []

    def curve(*args, **kwargs):
        gc.collect()
        alive.append(sum(r() is not None for r in full[1:]))
        return real_curve(*args, **kwargs)

    monkeypatch.setattr(FusionEngine, "__init__", tracked)
    monkeypatch.setattr(evalharness, "incremental_curve", curve)
    assert cli.main(["compare", *files, "--out", str(tmp_path / "c")]) == 0
    # one engine over the snapshot: Attr methods take its view
    assert len(full) == 2 and alive == [0]
