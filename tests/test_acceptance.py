"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The registered acceptance datasets (copy-discount and trust-input
grids) are defined once below; the convergence criterion sweeps every
iterative method over all of them.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import truthfuse as tf
from truthfuse.cli import main as cli_main
from truthfuse.model import (
    AttributeSpec,
    DataItem,
    Kind,
    Value,
)
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticSpec,
    generate_synthetic,
)

CFG = tf.load_config()
SEEDS = range(10)

# -- registered acceptance datasets ----------------------------------------

# Copy-discount scenario: one 0.95-accuracy independent source against a
# 4-member copier group (0.55-accuracy original replicated by 3 copiers).
COPY_DISCOUNT_SPEC = SyntheticSpec(
    n_sources=5, n_items=400,
    attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
    accuracies=(0.95, 0.55, 0.55, 0.55, 0.55),
    copier_groups=(CopierGroup(("s03", "s04", "s05"), "s02", 1.0),),
    false_pool=12)

# Trust-input scenario: well-separated accuracies (a 0.95-class trio vs a
# 0.55-class block) where the copier block biases default initialization.
TRUST_INPUT_SPEC = SyntheticSpec(
    n_sources=8, n_items=300,
    attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),),
    accuracies=(0.95, 0.93, 0.91, 0.55, 0.55, 0.55, 0.55, 0.55),
    copier_groups=(CopierGroup(("s05", "s06", "s07", "s08"), "s04", 1.0),),
    false_pool=12)

ACCEPTANCE_DATASETS = [(spec, seed)
                       for spec in (COPY_DISCOUNT_SPEC, TRUST_INPUT_SPEC)
                       for seed in SEEDS]

PRICE = AttributeSpec("price", Kind.NUMBER, 0.01)


def report(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


# -- criterion 1: metric oracles -------------------------------------------


def test_criterion_1_metric_oracles():
    """entropy, deviation, tolerance, dominance factor, and
    accuracy-deviation match independent brute-force implementations on
    1,000 randomized small items to within 1e-9, in under 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # Fixed points first: single-value entropy 0; 50/50 entropy exactly 1.
    assert tf.entropy(_buckets([500.0] * 4)) == 0.0
    assert tf.entropy(_buckets([500.0] * 3 + [900.0] * 3)) == 1.0

    for i in range(1000):
        n_values = int(rng.integers(1, 7))
        counts = [int(rng.integers(1, 6)) for _ in range(n_values)]
        # Values spaced far beyond the tolerance, so buckets == values.
        values = sorted(float(v) for v in rng.choice(
            np.arange(100.0, 5000.0, 100.0), size=n_values, replace=False))
        flat = [v for v, c in zip(values, counts) for _ in range(c)]
        buckets = _buckets(flat)
        total = sum(counts)

        # entropy oracle
        expected_e = -sum(c / total * math.log2(c / total) for c in counts)
        assert abs(tf.entropy(buckets) - expected_e) <= 1e-9

        # deviation oracle (relative, w.r.t. the dominant value)
        by_value = dict(zip(values, counts))
        v0 = min(by_value, key=lambda v: (-by_value[v], v))
        expected_d = math.sqrt(
            sum(((v - v0) / v0) ** 2 for v in values) / len(values))
        assert abs(tf.deviation(buckets, Kind.NUMBER) - expected_d) <= 1e-9

        # dominance factor oracle
        got_v, got_f = tf.dominant(buckets)
        assert got_v == Value.number(v0)
        assert abs(got_f - by_value[v0] / total) <= 1e-9

        # tolerance oracle (independent median implementation)
        alpha = float(rng.uniform(0.005, 0.1))
        attr = AttributeSpec("x", Kind.NUMBER, alpha)
        expected_t = alpha * statistics.median(flat)
        assert abs(tf.tolerance(attr, flat) - expected_t) <= 1e-9

        # accuracy-deviation oracle (population standard deviation)
        series = [float(a) for a in rng.uniform(0.0, 1.0,
                                                int(rng.integers(1, 8)))]
        expected_sd = statistics.pstdev(series)
        assert abs(tf.accuracy_deviation(series) - expected_sd) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, "metric oracles")


def _price_claims(rows) -> tf.ClaimSet:
    """The snapshot of (source, object, "price", number) rows."""
    schema = {"price": PRICE}
    return tf.ClaimSet("t", schema, tf.claim_columns(schema, *zip(*(
        (s, o, a, Value.number(v)) for s, o, a, v in rows))))


def _buckets(flat_values, tau=100.0):
    """Bucketize one item; values aligned to the grid (multiples of tau)
    keep the bucket centers identical to the raw distinct values, so the
    oracle and the implementation see the same value multiset."""
    rows = [(f"s{i}", "o1", "price", v) for i, v in enumerate(flat_values)]
    claims = _price_claims(rows)
    return tf.bucketize(claims.items[0], claims, tau)


# -- criterion 2: vote equivalence ------------------------------------------


def test_criterion_2_vote_equivalence():
    """The harness precision of the vote baseline equals the dominant-value
    precision metric bit-exactly on 100 random dataset specs."""
    rng = np.random.default_rng(77)
    for i in range(100):
        n_src = int(rng.integers(3, 8))
        spec = SyntheticSpec(
            n_sources=n_src,
            n_items=int(rng.integers(15, 50)),
            attributes=(SyntheticAttribute("price", Kind.NUMBER, 0.01),
                        SyntheticAttribute("gate", Kind.TEXT, 0.0)),
            accuracies=tuple(
                float(a) for a in np.round(rng.uniform(0.4, 1.0, n_src), 3)),
            coverage=tuple(
                float(c) for c in np.round(rng.uniform(0.5, 1.0, n_src), 3)),
            false_pool=int(rng.integers(2, 10)))
        claims, gold, _ = generate_synthetic(spec, seed=1000 + i)
        vote = tf.run_fusion(tf.MethodSpec("vote"), claims, CFG)
        precision, _ = tf.precision_recall(vote, gold, claims)
        assert precision == tf.precision_of_dominant(claims, gold), \
            f"spec {i}: {precision!r} != dominant precision"
    report(2, "vote equivalence")


# -- criterion 3: Bayes oracle ------------------------------------------------


def test_criterion_3_bayes_oracle():
    """Truth posteriors on 3-source, 2-value items match an enumeration of
    the (n_false + 1)-hypothesis Bayes computation within 1e-9."""
    rng = np.random.default_rng(99)
    for n_false in (2, 5, 10):
        cfg = tf.load_config(overrides={"fusion": {"n_false": n_false}})
        rows = []
        assignment = {}
        trust = {f"s{k}": float(t)
                 for k, t in enumerate(rng.uniform(0.2, 0.95, 3))}
        for j in range(20):
            vals = (1000.0 + 100.0 * j, 3000.0 + 100.0 * j)
            picks = [int(rng.integers(0, 2)) for _ in range(3)]
            if len(set(picks)) == 1:
                picks[0] = 1 - picks[0]
            for k in range(3):
                rows.append((f"s{k}", f"o{j}", "price", vals[picks[k]]))
            assignment[f"o{j}"] = (vals, picks)
        claims = _price_claims(rows)
        post = tf.accu_posteriors(claims, trust, cfg)
        for obj, (vals, picks) in assignment.items():
            item = DataItem(obj, "price")
            claimed_by = {f"s{k}": vals[picks[k]] for k in range(3)}
            for v in vals:
                expected = _bayes_enumerate(v, claimed_by, trust, n_false)
                # candidates are bucket centers; match by proximity
                got = min(post[item].items(),
                          key=lambda kv: abs(kv[0].num - v))[1]
                assert abs(got - expected) <= 1e-9, (obj, v, got, expected)
    report(3, "Bayes oracle")


def _bayes_enumerate(v, claimed_by, trust, n_false):
    """Enumerate all n_false + 1 hypotheses: each observed value true plus
    the unobserved remainder of the domain (uniform prior over hypotheses,
    false claims uniform over the n_false false values)."""
    sources = sorted(trust)

    def likelihood(true_value):
        p = 1.0
        for s in sources:
            if claimed_by[s] == true_value:
                p *= trust[s]
            else:
                p *= (1 - trust[s]) / n_false
        return p

    observed = sorted(set(claimed_by.values()))
    total = sum(likelihood(h) for h in observed)
    p_unobserved = 1.0
    for s in sources:
        p_unobserved *= (1 - trust[s]) / n_false
    total += max(n_false + 1 - len(observed), 0) * p_unobserved
    return likelihood(v) / total


# -- criterion 4: reductions ---------------------------------------------------


def test_criterion_4_reductions():
    """Similarity boost off reduces to the plain Bayesian method; format
    credit off reduces to the similarity method; no copying reduces to the
    format method; per-attribute variants match global variants on
    single-attribute data. Identical selections on 20 random datasets."""
    rng = np.random.default_rng(4)
    kinds = [("price", Kind.NUMBER, 0.01),
             ("depart", Kind.TIME_OF_DAY, 10.0),
             ("gate", Kind.TEXT, 0.0)]
    cfg_rho0 = tf.load_config(overrides={"fusion": {"rho": 0.0}})
    cfg_fmt0 = tf.load_config(overrides={"fusion": {"w_fmt": 0.0}})
    for i in range(20):
        n_src = int(rng.integers(4, 8))
        name, kind, par = kinds[i % 3]
        accs = list(np.round(rng.uniform(0.5, 0.98, n_src), 3))
        groups = ()
        if i % 3 == 0:
            accs[2] = accs[1]
            groups = (CopierGroup(("s03",), "s02", 1.0),)
        spec = SyntheticSpec(
            n_sources=n_src, n_items=60,
            attributes=(SyntheticAttribute(name, kind, par),),
            accuracies=tuple(float(a) for a in accs),
            copier_groups=groups,
            false_pool=int(rng.integers(4, 10)))
        claims, _, _ = generate_synthetic(spec, seed=2000 + i)

        def run(method, cfg=CFG, **kw):
            r = tf.run_fusion(tf.MethodSpec.parse(method), claims, cfg, **kw)
            assert r.converged, f"dataset {i}: {method} did not converge"
            return r.selected

        assert run("AccuSim", cfg_rho0) == run("AccuPr")
        assert run("AccuFormat", cfg_fmt0) == run("AccuSim")
        assert run("AccuCopy", detect_copying=False) == run("AccuFormat")
        for m in ("AccuPr", "AccuSim", "AccuFormat", "AccuCopy"):
            assert run(m + "Attr") == run(m), f"dataset {i}: {m}Attr"
    report(4, "reductions")


# -- criterion 5: copy-discount scenario ----------------------------------------


def test_criterion_5_copy_discount():
    """With a low-accuracy copier group dominating the vote, the baseline
    stays under 0.75 precision while copy-aware fusion reaches at least
    0.9 (detection alone, and detection plus declared pairs), on 10 of 10
    seeds, in under 30 seconds."""
    t0 = time.perf_counter()
    for seed in SEEDS:
        claims, gold, known = generate_synthetic(COPY_DISCOUNT_SPEC, seed)
        vote = tf.run_fusion(tf.MethodSpec("vote"), claims, CFG)
        p_vote, _ = tf.precision_recall(vote, gold, claims)
        detected = tf.run_fusion(tf.MethodSpec("accucopy"), claims, CFG)
        p_det, _ = tf.precision_recall(detected, gold, claims)
        with_known = tf.run_fusion(tf.MethodSpec("accucopy"), claims, CFG,
                                   known_copiers=known)
        p_known, _ = tf.precision_recall(with_known, gold, claims)
        assert p_vote < 0.75, f"seed {seed}: vote {p_vote}"
        assert p_det >= 0.9, f"seed {seed}: detected {p_det}"
        assert p_known >= 0.9, f"seed {seed}: known {p_known}"
        assert detected.converged and with_known.converged
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"copy-discount sweep took {elapsed:.1f}s"
    report(5, "copy-discount scenario")


# -- criterion 6: input-trust monotonicity ----------------------------------------


def test_criterion_6_input_trust_monotonicity():
    """Sampled trust keeps the single-pass contract, and on data with
    well-separated source accuracies every method's precision with sampled
    trust is at least its default-initialization precision, 10 of 10
    seeds."""
    for seed in SEEDS:
        claims, gold, _ = generate_synthetic(TRUST_INPUT_SPEC, seed)
        for name in tf.method_labels():
            method = tf.MethodSpec.parse(name)
            default = tf.run_fusion(method, claims, CFG)
            p_default, _ = tf.precision_recall(default, gold, claims)
            sampled = tf.sample_trust(method, claims, gold, CFG)
            with_trust = tf.run_fusion(method, claims, CFG,
                                       input_trust=sampled)
            p_sampled, _ = tf.precision_recall(with_trust, gold, claims)
            assert with_trust.converged
            if name not in ("AccuCopy", "Vote"):
                assert with_trust.rounds_used <= 1, \
                    f"{name}: input trust must mean a single vote pass"
                assert with_trust.trust == {
                    k: float(v) for k, v in sampled.items()}
            assert p_sampled >= p_default, (
                f"seed {seed} {name}: sampled {p_sampled:.4f} < "
                f"default {p_default:.4f}")
    report(6, "input-trust monotonicity")


# -- criterion 7: convergence ---------------------------------------------------


def test_criterion_7_convergence():
    """Every iterative method reaches a max trust change under 1e-6 within
    100 rounds on every registered acceptance dataset."""
    iterative = [m for m in tf.method_labels() if m != "Vote"]
    for spec, seed in ACCEPTANCE_DATASETS:
        claims, _, _ = generate_synthetic(spec, seed)
        for name in iterative:
            r = tf.run_fusion(tf.MethodSpec.parse(name), claims, CFG)
            assert r.converged, f"{name} failed to converge (seed {seed})"
            assert r.rounds_used <= 100
            assert r.trust_deltas[-1] < 1e-6
    report(7, "convergence")


# -- criterion 8: determinism ----------------------------------------------------


SPEC_JSON = {
    "label": "acc",
    "n_sources": 5,
    "n_items": 40,
    "false_pool": 8,
    "attributes": [
        {"name": "price", "kind": "Number", "tolerance_param": 0.01},
        {"name": "gate", "kind": "Text"},
    ],
    "accuracies": [0.95, 0.85, 0.6, 0.6, 0.6],
    "copier_groups": [
        {"members": ["s04", "s05"], "original": "s03", "rate": 1.0}],
}

_TIMING_MASK = re.compile(r'"wall_time_ms": [0-9.]+')


def test_criterion_8_determinism(tmp_path):
    """Every subcommand, re-run on identical inputs, produces byte-identical
    selection and report files (wall-clock timing fields excluded)."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_JSON), encoding="utf-8")

    def generate(tag):
        out = tmp_path / f"gen_{tag}"
        assert cli_main(["generate", "--spec", str(spec_path), "--seed",
                         "11", "--out", str(out)]) == 0
        return out

    data_a, data_b = generate("a"), generate("b")
    artifacts = ["claims.csv", "gold.csv", "schema.csv", "copiers.csv"]
    for name in artifacts:
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes()

    base = ["--claims", str(data_a / "claims.csv"),
            "--schema", str(data_a / "schema.csv")]
    gold = ["--gold", str(data_a / "gold.csv")]
    commands = {
        "profile": (base + gold, ["items.csv", "sources.csv",
                                  "attributes.csv", "conflicts.csv",
                                  "hist_entropy.csv", "hist_dominance.csv"]),
        "fuse": (base + ["--method", "AccuCopy"],
                 ["selection.csv", "trust.csv", "convergence.csv",
                  "copy_pairs.csv"]),
        "copydetect": (base + gold, ["pairs.csv", "groups.csv"]),
        "evaluate": (base + gold + ["--method", "AccuFormatAttr"],
                     ["report.csv", "curve.csv", "dominance.csv"]),
        "compare": (base + gold + ["--methods", "Vote,AccuPr,AccuCopy"],
                    ["report.csv", "curve.csv", "dominance.csv"]),
    }
    for command, (args, files) in commands.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            assert cli_main([command, *args, "--out", str(out)]) == 0, command
            outs.append(out)
        for name in files:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), f"{command}/{name}"
        report_json = outs[0] / "report.json"
        if report_json.exists():
            ra = _TIMING_MASK.sub("T", report_json.read_text())
            rb = _TIMING_MASK.sub("T", (outs[1] / "report.json").read_text())
            assert ra == rb, f"{command}/report.json"
    report(8, "determinism")


# -- criterion 9: released snapshots (conditional) --------------------------------


def test_criterion_9_released_snapshots():
    """If converted released snapshots are supplied (TRUTHFUSE_STOCK_DIR /
    TRUTHFUSE_FLIGHT_DIR pointing at claims/gold/schema files), the vote
    baseline must land within +/-0.005 of the published precisions, and
    removing the declared copy groups must raise it to the published
    copier-free precisions. Skipped when the data is absent."""
    targets = {
        "TRUTHFUSE_STOCK_DIR": (0.908, 0.923),
        "TRUTHFUSE_FLIGHT_DIR": (0.864, 0.927),
    }
    available = {k: v for k, v in targets.items() if os.environ.get(k)}
    if not available:
        pytest.skip("released snapshots not supplied; set "
                    "TRUTHFUSE_STOCK_DIR / TRUTHFUSE_FLIGHT_DIR")
    from truthfuse.dataio import (load_claims, load_gold, load_schema,
                                  load_known_copiers)
    for env, (p_all, p_clean) in available.items():
        root = Path(os.environ[env])
        schema = load_schema(root / "schema.csv")
        claims = load_claims(root / "claims.csv", schema)
        gold = load_gold(root / "gold.csv", claims)
        vote = tf.run_fusion(tf.MethodSpec("vote"), claims, CFG)
        precision, _ = tf.precision_recall(vote, gold, claims)
        assert abs(precision - p_all) <= 0.005, (env, precision)
        groups_file = root / "copy_groups.csv"
        if groups_file.exists():
            copiers = set()
            for (copier, _orig) in load_known_copiers(groups_file):
                copiers.add(copier)
            kept = [s for s in claims.sources if s not in copiers]
            cleaned = claims.restrict(kept)
            vote2 = tf.run_fusion(tf.MethodSpec("vote"), cleaned, CFG)
            p2, _ = tf.precision_recall(vote2, gold, cleaned)
            assert abs(p2 - p_clean) <= 0.005, (env, p2)
    report(9, "released snapshots")
