"""Sampled trust as the engine's own trust update on gold votes
(``sample_trust``) against the per-source loops it replaced
(``ref_sample_trust``): equal bit for bit for every method, global and
per attribute."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from truthfuse import cli, copydetect, dataio, fusion, metrics, normalize
from truthfuse.config import RunConfig, load_config
from truthfuse.evalharness import timed_run
from truthfuse.fusion import (
    FusionEngine,
    FusionError,
    MethodSpec,
    METHOD_NAMES,
    engine_for,
    run_fusion,
    sample_trust,
)
from truthfuse.model import ClaimSet, DataItem, GoldStandard
from truthfuse.normalize import bucketize, tolerances, values_match

from conftest import (
    by_source,
    claims_of,
    copier_snapshot,
    edge_snapshot,
    synthetic_snapshot,
)
from test_gold_scores import ref_source_accuracy

CFG = load_config()

METHODS = [MethodSpec(name, flag) for name in METHOD_NAMES
           for flag in (False, True)]


# -- the reference: sample_trust as it was, one loop per method -------------


def ref_sample_trust(method: MethodSpec, claims: ClaimSet,
                     gold: GoldStandard, config: RunConfig) -> dict:
    taus = tolerances(claims)
    global_map = _ref_sample_global(method.name, claims, gold, config, taus)
    if not method.per_attribute_trust:
        return global_map
    out: dict = {}
    provided_pairs = {(c.source, c.item.attribute) for c in claims_of(claims)}
    claimed = by_source(claims)
    attrs = sorted({it.attribute for it in claims.items})
    for attr in attrs:
        sub_gold_entries = {it: v for it, v in gold.entries.items()
                            if it.attribute == attr}
        sub_gold = GoldStandard(sub_gold_entries)
        per_attr = (_ref_sample_global(method.name, claims, sub_gold, config,
                                       taus)
                    if sub_gold_entries else {})
        for source in claims.sources:
            if (source, attr) not in provided_pairs:
                continue
            covered = sum(
                1 for c in claimed[source]
                if c.item.attribute == attr and c.item in gold.entries)
            if covered >= config.fusion.attr_min_gold and source in per_attr:
                out[(source, attr)] = per_attr[source]
            else:
                out[(source, attr)] = global_map[source]
    return out


_ACCURACY_SAMPLED = ("truthfinder", "accupr", "popaccu", "accusim",
                     "accuformat", "accucopy")


def _ref_sample_global(name, claims, gold, config, taus):
    cfg = config.fusion
    if name == "vote":
        return {s: 1.0 for s in claims.sources}
    if name in _ACCURACY_SAMPLED:
        out = {}
        for s in claims.sources:
            acc = ref_source_accuracy(s, claims, gold, taus)
            if acc is None:
                acc = cfg.init_trust_bayes
            out[s] = float(np.clip(acc, cfg.trust_clamp,
                                   1.0 - cfg.trust_clamp))
        return out
    per_source = {s: [] for s in claims.sources}
    covered = [it for it in sorted(gold.entries, key=DataItem.sort_key)
               if it in claims.item_index]
    for item in covered:
        buckets = bucketize(item, claims, taus[item.attribute])
        oks = [values_match(b.center, gold.entries[item],
                            claims.attribute_of(item), taus[item.attribute])
               for b in buckets]
        for bi, (b, ok) in enumerate(zip(buckets, oks)):
            for s in b.providers:
                per_source[s].append(((item, bi), ok, len(buckets),
                                      sum(oks)))
    if name in ("hub", "avglog", "invest", "pooledinvest"):
        raw = {}
        if name in ("invest", "pooledinvest"):
            nv = {s: max(len(per_source[s]), 1) for s in claims.sources}
            inv_sum = {}
            for s, rows in per_source.items():
                for cand, _, _, _ in rows:
                    inv_sum[cand] = inv_sum.get(cand, 0.0) + 1.0 / nv[s]
        for s, rows in per_source.items():
            if not rows:
                raw[s] = 0.0
                continue
            correct = sum(1 for _, ok, _, _ in rows if ok)
            if name == "hub":
                raw[s] = float(correct)
            elif name == "avglog":
                raw[s] = correct / len(rows) * math.log1p(len(rows))
            else:
                raw[s] = sum((1.0 / nv[s]) / inv_sum[cand]
                             for cand, ok, _, _ in rows if ok)
        if name == "pooledinvest":
            return raw
        top = max(raw.values(), default=0.0)
        return {s: (v / top if top > 0 else 0.0) for s, v in raw.items()}
    if name == "cosine":
        out = {}
        for s, rows in per_source.items():
            if not rows:
                out[s] = 0.0
                continue
            num = sum((1.0 if ok else -1.0) * 2 - (2.0 * n_correct - nc)
                      for _, ok, nc, n_correct in rows)
            den = sum(nc for _, _, nc, _ in rows)
            out[s] = num / den if den else 0.0
        return out
    if name in ("2-estimates", "3-estimates"):
        out = {}
        for s, rows in per_source.items():
            if not rows:
                out[s] = 1.0
                continue
            num = 0.0
            den = 0
            for _, ok, nc, n_correct in rows:
                own = 1.0 if ok else 0.0
                num += 2.0 * own + nc - 1.0 - n_correct
                den += nc
            out[s] = num / den if den else 1.0
        return out
    raise AssertionError(name)


# -- fixtures ----------------------------------------------------------------


def _with_min_gold(n: int) -> RunConfig:
    return dataclasses.replace(
        CFG, fusion=dataclasses.replace(CFG.fusion, attr_min_gold=n))


SNAPSHOTS = {"synthetic": synthetic_snapshot, "copier": copier_snapshot,
             "edge": edge_snapshot}


@pytest.fixture(params=sorted(SNAPSHOTS))
def snapshot(request):
    return SNAPSHOTS[request.param]()


def _bits(trust: dict) -> dict:
    return {k: float(v).hex() for k, v in trust.items()}


# -- sampled trust equals the reference ---------------------------------------


@pytest.mark.parametrize("method", METHODS, ids=MethodSpec.label)
def test_sample_trust_matches_reference(snapshot, method):
    claims, gold = snapshot
    got = sample_trust(method, claims, gold, CFG)
    ref = ref_sample_trust(method, claims, gold, CFG)
    assert got == ref
    assert list(got) == list(ref)
    assert _bits(got) == _bits(ref)


def test_edge_snapshot_exercises_its_cases():
    claims, gold = edge_snapshot()
    taus = tolerances(claims)
    assert taus["change"] < 0
    assert ref_source_accuracy("s5", claims, gold, taus) is None
    assert not any(it.attribute == "volume" for it in gold.entries)
    assert any(it not in claims.item_index for it in gold.entries)
    # Text matching ignores case; a negative tolerance matches nothing.
    engine = FusionEngine(claims, CFG.fusion)
    match = engine.gold_match(gold.entries)
    gate = [c for c in range(engine.n_cands)
            if engine.items[int(engine.cand_item[c])] == DataItem("o1", "gate")]
    # "A1" and "a1" are one candidate: text keys on the folded spelling.
    assert [engine.cand_values[c].text for c in gate] == ["a1", "b2"]
    assert match.cand[gate].tolist() == [True, False]
    change = engine.claim_item == engine.items.index(DataItem("o1", "change"))
    assert change.any() and not match.claim[change].any()


@pytest.mark.parametrize("name", ["hub", "invest", "cosine", "2-estimates",
                                  "accupr", "truthfinder"])
def test_attr_min_gold_threshold(name):
    """At, just above and below the gold-covered claim count of a (source,
    attribute) pair; with 0 an attribute with no gold item still falls
    back to the global sample."""
    claims, gold = edge_snapshot()
    covered = sum(1 for c in by_source(claims)["s1"]
                  if c.item.attribute == "change" and c.item in gold.entries)
    assert covered == 3
    method = MethodSpec(name, per_attribute_trust=True)
    for n in (covered - 1, covered, covered + 1, 0):
        config = _with_min_gold(n)
        got = sample_trust(method, claims, gold, config)
        assert got == ref_sample_trust(method, claims, gold, config), n
    got = sample_trust(method, claims, gold, _with_min_gold(0))
    whole = sample_trust(MethodSpec(name), claims, gold, CFG)
    assert got[("s1", "volume")] == whole["s1"]
    assert got[("s5", "volume")] == whole["s5"]


@pytest.mark.parametrize("method", METHODS, ids=MethodSpec.label)
def test_given_engine_equals_built_engine(method):
    """A gold match on the global engine or on the run's own view."""
    claims, gold = copier_snapshot()
    engine = engine_for(claims, CFG.fusion)
    want = _bits(sample_trust(method, claims, gold, CFG))
    for eng in (engine, engine.scoped(method.per_attribute_trust)):
        assert (_bits(sample_trust(method, claims, gold, CFG,
                                   match=eng.gold_match(gold.entries)))
                == want)


def test_engine_is_checked():
    claims, gold = copier_snapshot()
    wrong = engine_for(claims, CFG.fusion, True)
    with pytest.raises(FusionError):
        sample_trust(MethodSpec("accupr"), claims, gold, CFG,
                     match=wrong.gold_match(gold.entries))
    other, _ = edge_snapshot()
    with pytest.raises(FusionError):
        sample_trust(MethodSpec("accupr"), claims, gold, CFG, match=(
            FusionEngine(other, CFG.fusion).gold_match(gold.entries)))
    config = dataclasses.replace(
        CFG, fusion=dataclasses.replace(CFG.fusion, rho=0.25))
    with pytest.raises(FusionError):
        sample_trust(MethodSpec("accupr"), claims, gold, config,
                     match=engine_for(claims, CFG.fusion).gold_match(
                         gold.entries))


# -- regression guards -------------------------------------------------------


def _count_calls(monkeypatch, module, name: str, counts: dict) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sampling_on_an_engine_runs_no_per_claim_loops(monkeypatch):
    claims, gold = copier_snapshot()
    engine = engine_for(claims, CFG.fusion, False)
    engines = {flag: engine.scoped(flag) for flag in (False, True)}
    counts: dict = {}
    for module in (normalize, metrics, fusion, copydetect):
        for name in ("values_match", "source_accuracy", "bucketize"):
            if hasattr(module, name):
                _count_calls(monkeypatch, module, name, counts)
    for m in METHODS:
        sample_trust(m, claims, gold, CFG, match=engines[
            m.per_attribute_trust].gold_match(gold.entries))
    assert counts == {}


def test_detect_copying_marks_true_buckets_as_before():
    """``detect_copying`` marks a contested candidate true when its centre
    matches the truth estimate, as the per-candidate ``values_match`` loop
    did, including case-folded text and a negative tolerance."""
    for claims, truth in (copier_snapshot(), edge_snapshot()):
        engine = FusionEngine(claims, CFG.fusion)
        ref = np.zeros(engine.n_cands, dtype=bool)
        for c in np.flatnonzero(
                engine.item_ncand[engine.cand_item] > 1).tolist():
            item = engine.items[int(engine.cand_item[c])]
            t = truth.entries.get(item)
            ref[c] = t is not None and values_match(
                engine.cand_values[c], t, claims.attribute_of(item),
                engine.taus[item.attribute])
        got = ((engine.item_ncand[engine.cand_item] > 1)
               & engine.gold_match(truth.entries).cand)
        assert got.tolist() == ref.tolist()


def test_claim_match_gives_source_accuracy():
    """Per source, the matching share of its gold-covered claims (the
    ``copydetect`` subcommand's accuracy) is ``source_accuracy``."""
    for claims, gold in (copier_snapshot(), edge_snapshot(),
                         synthetic_snapshot()):
        engine = FusionEngine(claims, CFG.fusion)
        match = engine.gold_match(gold.entries)
        covered = np.bincount(engine.claim_vsrc,
                              weights=match.item[engine.claim_item],
                              minlength=engine.n_vsrc)
        correct = np.bincount(engine.claim_vsrc, weights=match.claim,
                              minlength=engine.n_vsrc)
        for s, c, n in zip(engine.vsrc_list, correct.tolist(),
                           covered.tolist()):
            ref = ref_source_accuracy(s, claims, gold, engine.taus)
            assert (c / n if n else None) == ref, s


def _count_engines(monkeypatch) -> list:
    built = []
    real = FusionEngine.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FusionEngine, "__init__", counted)
    return built


def test_timed_run_on_an_engine_builds_none(monkeypatch):
    """Attr runs on a given global engine take its per-attribute view,
    built once and without a second engine."""
    claims, gold = copier_snapshot()
    engine = engine_for(claims, CFG.fusion, False)
    built = _count_engines(monkeypatch)
    for m in METHODS:
        timed_run(run_fusion(m, claims, CFG, engine=engine), claims, CFG,
                  gold, engine=engine)
    assert built == []


def test_cli_builds_one_engine_per_snapshot_and_prefix(monkeypatch,
                                                       tmp_path):
    """``compare --methods all``: one engine over each source prefix of
    the curve, the last being the snapshot's, whose Attr runs take its
    per-attribute view; ``copydetect``: one."""
    claims, gold = copier_snapshot()
    dataio.write_schema(claims.schema, tmp_path / "schema.csv")
    dataio.write_claims(claims, tmp_path / "claims.csv")
    dataio.write_gold(gold, tmp_path / "gold.csv")
    files = ["--claims", str(tmp_path / "claims.csv"),
             "--schema", str(tmp_path / "schema.csv"),
             "--gold", str(tmp_path / "gold.csv")]
    built = _count_engines(monkeypatch)
    assert cli.main(["compare", *files, "--methods", "all",
                     "--out", str(tmp_path / "c")]) == 0
    assert len(built) == len(claims.sources)
    del built[:]
    assert cli.main(["copydetect", *files, "--out", str(tmp_path / "d")]) == 0
    assert len(built) == 1


def test_compare_matches_gold_once_per_snapshot_and_prefix(monkeypatch,
                                                           tmp_path):
    """``compare --methods all`` matches the gold standard once on each
    source prefix's engine, the last being the snapshot's, which every
    method's trust sampling reads."""
    claims, gold = copier_snapshot()
    dataio.write_schema(claims.schema, tmp_path / "schema.csv")
    dataio.write_claims(claims, tmp_path / "claims.csv")
    dataio.write_gold(gold, tmp_path / "gold.csv")
    calls = []
    real = FusionEngine.gold_match

    def counted(self, truth):
        calls.append(self.claims)
        return real(self, truth)

    monkeypatch.setattr(FusionEngine, "gold_match", counted)
    assert cli.main(["compare", "--claims", str(tmp_path / "claims.csv"),
                     "--schema", str(tmp_path / "schema.csv"),
                     "--gold", str(tmp_path / "gold.csv"), "--methods", "all",
                     "--out", str(tmp_path / "c")]) == 0
    assert len(calls) == len(claims.sources)
    assert len({id(c) for c in calls}) == len(calls)
