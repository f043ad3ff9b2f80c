"""Synthetic generator: determinism, accuracy targeting, copier
construction, infeasibility."""

from __future__ import annotations

import pytest

from truthfuse.metrics import source_accuracy
from truthfuse.model import Kind
from truthfuse.synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticError,
    SyntheticSpec,
    generate_synthetic,
    spec_from_dict,
)

from conftest import by_item, by_source, claims_of

ATTRS = (SyntheticAttribute("price", Kind.NUMBER, 0.01),
         SyntheticAttribute("depart", Kind.TIME_OF_DAY, 10.0),
         SyntheticAttribute("gate", Kind.TEXT, 0.0))


def spec(**kw):
    defaults = dict(n_sources=5, n_items=100, attributes=ATTRS,
                    accuracies=(0.9, 0.85, 0.8, 0.7, 0.6), false_pool=8)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestGeneration:

    def test_perfect_sources_match_gold_everywhere(self):
        claims, gold, _ = generate_synthetic(
            spec(accuracies=(1.0,) * 5), seed=0)
        for c in claims_of(claims):
            assert c.value == gold.entries[c.item]

    def test_accuracy_targets_hit_within_tolerance(self):
        claims, gold, _ = generate_synthetic(
            spec(n_items=334, accuracies=(0.8, 0.66, 0.9, 0.5, 0.75)),
            seed=1)
        # 334 items x 3 attributes = 1002 claims per source
        for i, s in enumerate(claims.sources):
            acc = source_accuracy(s, claims, gold)
            assert abs(acc - (0.8, 0.66, 0.9, 0.5, 0.75)[i]) <= 0.02

    def test_determinism_per_seed(self):
        a, _, _ = generate_synthetic(spec(), seed=7)
        b, _, _ = generate_synthetic(spec(), seed=7)
        c, _, _ = generate_synthetic(spec(), seed=8)
        assert claims_of(a) == claims_of(b)
        assert claims_of(a) != claims_of(c)

    def test_coverage_thins_claims(self):
        full, _, _ = generate_synthetic(spec(), seed=2)
        thin, _, _ = generate_synthetic(
            spec(coverage=(1.0, 1.0, 0.5, 1.0, 1.0)), seed=2)
        assert len(by_source(thin)["s03"]) < len(by_source(full)["s03"])
        assert len(by_source(thin)["s01"]) == len(by_source(full)["s01"])

    def test_gold_covers_every_item(self):
        claims, gold, _ = generate_synthetic(spec(), seed=3)
        assert set(gold.entries) >= set(by_item(claims))


class TestCopiers:

    def copier_spec(self, rate=1.0, copier_acc=0.6):
        return spec(accuracies=(0.9, 0.6, copier_acc, 0.8, 0.7),
                    copier_groups=(CopierGroup(("s03",), "s02", rate),))

    def test_full_rate_copier_replicates_original(self):
        claims, gold, known = generate_synthetic(self.copier_spec(), seed=4)
        orig = {c.item: c.value for c in by_source(claims)["s02"]}
        for c in by_source(claims)["s03"]:
            assert c.value == orig[c.item]
        assert known == {("s03", "s02"): 1.0}

    def test_partial_rate_copier_sometimes_independent(self):
        claims, _, _ = generate_synthetic(self.copier_spec(rate=0.5), seed=5)
        orig = {c.item: c.value for c in by_source(claims)["s02"]}
        same = sum(1 for c in by_source(claims)["s03"]
                   if c.value == orig[c.item])
        assert 0 < same < len(by_source(claims)["s03"])

    def test_copier_accuracy_still_on_target(self):
        claims, gold, _ = generate_synthetic(
            self.copier_spec(rate=0.8, copier_acc=0.65), seed=6)
        acc = source_accuracy("s03", claims, gold)
        assert abs(acc - 0.65) <= 0.02

    def test_infeasible_target_rejected(self):
        # A rate-1.0 copier of a 0.55-accuracy original cannot be perfect.
        bad = spec(accuracies=(0.9, 0.55, 1.0, 0.8, 0.7),
                   copier_groups=(CopierGroup(("s03",), "s02", 1.0),))
        with pytest.raises(SyntheticError, match="infeasible"):
            generate_synthetic(bad, seed=7)


class TestValidation:

    def test_unknown_original(self):
        with pytest.raises(SyntheticError, match="unknown original"):
            spec(copier_groups=(CopierGroup(("s02",), "s99", 1.0),)).validate()

    def test_self_copy_rejected(self):
        with pytest.raises(SyntheticError):
            spec(copier_groups=(CopierGroup(("s02",), "s02", 1.0),)).validate()

    def test_member_in_two_groups_rejected(self):
        groups = (CopierGroup(("s03",), "s02", 1.0),
                  CopierGroup(("s03",), "s04", 1.0))
        with pytest.raises(SyntheticError, match="two groups"):
            spec(copier_groups=groups).validate()

    def test_accuracy_length_mismatch(self):
        with pytest.raises(SyntheticError):
            spec(accuracies=(0.9, 0.8)).validate()

    def test_spec_from_dict_round_trip(self):
        data = {
            "label": "demo",
            "n_sources": 3,
            "n_items": 10,
            "false_pool": 4,
            "attributes": [
                {"name": "price", "kind": "Number", "tolerance_param": 0.01}],
            "accuracies": [0.9, 0.8, 0.7],
            "copier_groups": [
                {"members": ["s03"], "original": "s02", "rate": 0.5}],
        }
        s = spec_from_dict(data)
        claims, gold, known = generate_synthetic(s, seed=0)
        assert len(claims.sources) == 3
        assert known == {("s03", "s02"): 0.5}

    def test_spec_from_dict_missing_field(self):
        with pytest.raises(SyntheticError, match="missing"):
            spec_from_dict({"n_sources": 3})
