"""Deterministic synthetic dataset generator for desk-scale experiments.

Builds a snapshot with known ground truth, per-source accuracy targets hit
exactly (up to rounding), and optional copier groups that replicate an
original's values, errors included, at a configured rate. False values are
constructed outside every tolerance and similarity window so that realized
accuracy equals the forced count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FusionConfig
from .model import (
    AttributeSpec,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    TruthFuseError,
    Value,
    claim_columns,
)


class SyntheticError(TruthFuseError):
    """The requested dataset is internally contradictory or out of range."""


@dataclass(frozen=True)
class SyntheticAttribute:
    name: str
    kind: Kind
    tolerance_param: float = 0.0

    def to_spec(self, defaults: FusionConfig = FusionConfig(),
                ) -> AttributeSpec:
        """A blank (0) tolerance takes ``defaults``', as in ``load_schema``."""
        return AttributeSpec(self.name, self.kind, self.tolerance_param
                             or defaults.default_tolerance(self.kind))


@dataclass(frozen=True)
class CopierGroup:
    """Copier sources replicating one original at a per-item copy rate."""

    members: tuple[str, ...]
    original: str
    rate: float


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated snapshot: sources with accuracy targets (and
    optional coverage), items per attribute, copier groups, and the size of
    the per-item false-value pool."""

    n_sources: int
    n_items: int
    attributes: tuple[SyntheticAttribute, ...]
    accuracies: tuple[float, ...]
    coverage: tuple[float, ...] | None = None
    copier_groups: tuple[CopierGroup, ...] = ()
    false_pool: int = 10
    label: str = "synthetic"

    def source_names(self) -> list[str]:
        return [f"s{i + 1:02d}" for i in range(self.n_sources)]

    def validate(self) -> None:
        if self.n_sources < 1 or self.n_items < 1:
            raise SyntheticError("need at least one source and one item")
        if not self.attributes:
            raise SyntheticError("need at least one attribute")
        if len(self.accuracies) != self.n_sources:
            raise SyntheticError("one accuracy target per source required")
        if any(not (0.0 <= a <= 1.0) for a in self.accuracies):
            raise SyntheticError("accuracy targets must be in [0, 1]")
        if self.coverage is not None:
            if len(self.coverage) != self.n_sources:
                raise SyntheticError("one coverage per source required")
            if any(not (0.0 < c <= 1.0) for c in self.coverage):
                raise SyntheticError("coverage must be in (0, 1]")
        if self.false_pool < 1:
            raise SyntheticError("false_pool must be >= 1")
        if (self.false_pool > 11
                and any(a.kind is Kind.TIME_OF_DAY for a in self.attributes)):
            raise SyntheticError("false_pool > 11 does not fit the "
                                 "time-of-day value range")
        names = set(self.source_names())
        seen_members: set[str] = set()
        for g in self.copier_groups:
            if g.original not in names:
                raise SyntheticError(f"unknown original {g.original!r}")
            if not (0.0 < g.rate <= 1.0):
                raise SyntheticError("copy rate must be in (0, 1]")
            for m in g.members:
                if m not in names:
                    raise SyntheticError(f"unknown copier {m!r}")
                if m == g.original:
                    raise SyntheticError(f"{m!r} cannot copy itself")
                if m in seen_members:
                    raise SyntheticError(f"{m!r} appears in two groups")
                seen_members.add(m)
        originals = {g.original for g in self.copier_groups}
        if originals & seen_members:
            raise SyntheticError("an original cannot also be a copier")


def generate_synthetic(spec: SyntheticSpec, seed: int,
                       defaults: FusionConfig = FusionConfig(),
                       ) -> tuple[ClaimSet, GoldStandard,
                                  dict[tuple[str, str], float]]:
    """Generate (claims, gold, known copy map) deterministically from a seed;
    attributes without a tolerance parameter take ``defaults``' (``to_spec``).

    Every source's realized accuracy against the emitted gold standard is
    the rounded target exactly; an accuracy target that forced copying of
    errors makes unreachable raises SyntheticError.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    sources = spec.source_names()
    schema = {a.name: a.to_spec(defaults) for a in spec.attributes}
    member_of = {m: g for g in spec.copier_groups for m in g.members}

    items: list[DataItem] = []
    truth: dict[DataItem, Value] = {}
    pools: dict[DataItem, list[Value]] = {}
    for attr in spec.attributes:
        for j in range(spec.n_items):
            item = DataItem(f"o{j:04d}", attr.name)
            items.append(item)
            truth[item], pools[item] = _make_values(attr, j, spec.false_pool,
                                                    rng)

    covered: dict[str, list[DataItem]] = {}
    for si, s in enumerate(sources):
        cov = 1.0 if spec.coverage is None else spec.coverage[si]
        mask = (np.ones(len(items), dtype=bool) if cov >= 1.0
                else rng.random(len(items)) < cov)
        covered[s] = [it for it, keep in zip(items, mask) if keep]

    copies: dict[str, dict[DataItem, bool]] = {}
    for g in spec.copier_groups:
        for m in g.members:
            fire = rng.random(len(items)) < g.rate
            copies[m] = dict(zip(items, fire))

    correct: dict[tuple[str, DataItem], bool] = {}
    values: dict[tuple[str, DataItem], Value] = {}

    def assign_independent(source: str, free: list[DataItem],
                           need_correct: int) -> None:
        order = rng.permutation(len(free))
        chosen = {free[int(i)] for i in order[:need_correct]}
        for it in free:
            ok = it in chosen
            correct[(source, it)] = ok
            values[(source, it)] = (truth[it] if ok
                                    else pools[it][int(rng.integers(
                                        len(pools[it])))])

    independents = [s for s in sources if s not in member_of]
    for s in sources:
        if s in member_of:
            continue
        free = covered[s]
        target = round(spec.accuracies[sources.index(s)] * len(free))
        assign_independent(s, free, target)

    for s in sources:
        g = member_of.get(s)
        if g is None:
            continue
        orig = g.original
        orig_items = set(covered[orig])
        copied = [it for it in covered[s]
                  if it in orig_items and copies[s][it]]
        copied_set = set(copied)
        free = [it for it in covered[s] if it not in copied_set]
        for it in copied:
            correct[(s, it)] = correct[(orig, it)]
            values[(s, it)] = values[(orig, it)]
        total = len(copied) + len(free)
        target_total = round(spec.accuracies[sources.index(s)] * total)
        copied_ok = sum(1 for it in copied if correct[(s, it)])
        need = target_total - copied_ok
        if need < 0 or need > len(free):
            raise SyntheticError(
                f"accuracy target {spec.accuracies[sources.index(s)]} for "
                f"{s!r} is infeasible given copied values from {orig!r} "
                f"({copied_ok} correct of {len(copied)} copied, "
                f"{len(free)} free claims)")
        assign_independent(s, free, need)

    claim_set = ClaimSet(spec.label, schema, claim_columns(schema, *zip(*(
        (s, it.object_id, it.attribute, values[(s, it)])
        for s in sources for it in covered[s]))))
    gold = GoldStandard(entries=dict(truth),
                        orphan_count=len(items) - len(claim_set.items))
    known = {(m, g.original): g.rate
             for g in spec.copier_groups for m in g.members}
    return claim_set, gold, known


def _make_values(attr: SyntheticAttribute, j: int, pool: int,
                 rng: np.random.Generator) -> tuple[Value, list[Value]]:
    """A true value plus a pool of false values that sit outside every
    tolerance, bucketing, and similarity window."""
    if attr.kind is Kind.NUMBER:
        t = round(1000.0 + 100.0 * float(rng.random()), 2)
        falses = [Value.number(round(t * (1.0 + 0.5 * (k + 1)), 2),
                               granularity=0.01)
                  for k in range(pool)]
        return Value.number(t, granularity=0.01), falses
    if attr.kind is Kind.TIME_OF_DAY:
        t = int(rng.integers(360, 600))
        falses = [Value.time(t + 75 * (k + 1)) for k in range(pool)]
        return Value.time(t), falses
    t = f"o{j:04d}x0"
    return Value.of_text(t), [Value.of_text(f"o{j:04d}x{k + 1}")
                              for k in range(pool)]


def spec_from_dict(data: dict) -> SyntheticSpec:
    """Parse the JSON form used by the command-line generator."""
    try:
        attributes = tuple(
            SyntheticAttribute(a["name"], Kind.parse(a["kind"]),
                               float(a.get("tolerance_param", 0.0)))
            for a in data["attributes"])
        groups = tuple(
            CopierGroup(tuple(g["members"]), g["original"],
                        float(g.get("rate", 1.0)))
            for g in data.get("copier_groups", ()))
        coverage = data.get("coverage")
        return SyntheticSpec(
            n_sources=int(data["n_sources"]),
            n_items=int(data["n_items"]),
            attributes=attributes,
            accuracies=tuple(float(a) for a in data["accuracies"]),
            coverage=tuple(float(c) for c in coverage) if coverage else None,
            copier_groups=groups,
            false_pool=int(data.get("false_pool", 10)),
            label=str(data.get("label", "synthetic")),
        )
    except KeyError as exc:
        raise SyntheticError(f"synthetic spec missing field {exc}") from exc
