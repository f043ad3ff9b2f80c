"""Core data model: sources, attributes, values, claims, snapshots, gold standards.

A *data item* is one attribute of one real-world object. Each source asserts
at most one value per data item; a ClaimSet is an immutable snapshot of all
such claims, stored as integer columns over its sources, items and values.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class TruthFuseError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(TruthFuseError):
    """A claims / gold / schema file violates its format or an invariant."""


class ValueParseError(TruthFuseError):
    """A raw value string cannot be parsed for the attribute kind.

    Carries the offending raw string in ``raw``.
    """

    def __init__(self, raw: str, kind: "Kind", reason: str = ""):
        self.raw = raw
        self.kind = kind
        msg = f"cannot parse {raw!r} as {kind.value}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class KindMismatchError(TruthFuseError):
    """Two values (or a value and an attribute) have incompatible kinds."""


class UndefinedDeviationError(TruthFuseError):
    """Relative deviation is undefined because the dominant value is zero."""


class Kind(enum.Enum):
    NUMBER = "Number"
    TIME_OF_DAY = "TimeOfDay"
    TEXT = "Text"

    @classmethod
    def parse(cls, token: str) -> "Kind":
        t = token.strip().lower()
        for k in cls:
            if k.value.lower() == t:
                return k
        raise LoadError(f"unknown attribute kind {token!r} "
                        f"(expected one of {[k.value for k in cls]})")


@dataclass(frozen=True)
class AttributeSpec:
    """An attribute with its kind and tolerance policy.

    ``tolerance_param`` is the relative tolerance factor (alpha) for numeric
    attributes, the absolute tolerance in minutes for time-of-day attributes,
    and is ignored for text attributes (matching is exact ignoring case).
    """

    name: str
    kind: Kind
    tolerance_param: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise LoadError("attribute name must be non-empty")
        if self.kind is Kind.NUMBER and self.tolerance_param <= 0:
            raise LoadError(f"attribute {self.name!r}: relative tolerance "
                            f"factor must be > 0")
        if self.kind is Kind.TIME_OF_DAY and self.tolerance_param < 0:
            raise LoadError(f"attribute {self.name!r}: minute tolerance "
                            f"must be >= 0")


MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class Value:
    """A normalized claim value: a finite number, minutes-since-midnight,
    or a case-folded string.

    ``granularity`` is the power of ten of the last significant digit of the
    raw string a numeric value was parsed from (e.g. 1e6 for "8M"). It is an
    annotation used by the formatting-subsumption relation and is excluded
    from equality and hashing.
    """

    kind: Kind
    num: float = 0.0
    text: str = ""
    granularity: float | None = field(default=None, compare=False)

    @classmethod
    def number(cls, x: float, granularity: float | None = None) -> "Value":
        x = float(x)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueParseError(str(x), Kind.NUMBER, "not finite")
        return cls(Kind.NUMBER, num=x, granularity=granularity)

    @classmethod
    def time(cls, minutes: int | float) -> "Value":
        m = float(minutes)
        if not (0 <= m < MINUTES_PER_DAY):
            raise ValueParseError(str(minutes), Kind.TIME_OF_DAY,
                                  "minutes out of [0, 1440)")
        return cls(Kind.TIME_OF_DAY, num=m)

    @classmethod
    def of_text(cls, s: str) -> "Value":
        return cls(Kind.TEXT, text=fold_text(s))

    def sort_key(self):
        """Total order used for deterministic tie-breaking."""
        if self.kind is Kind.TEXT:
            return (1, 0.0, self.text)
        return (0, self.num, "")

    def __str__(self) -> str:
        if self.kind is Kind.TEXT:
            return self.text
        if self.kind is Kind.TIME_OF_DAY:
            m = int(round(self.num))
            return f"{m // 60:02d}:{m % 60:02d}"
        return format_number(self.num, self.granularity)


def fold_text(s: str) -> str:
    """Trimmed and case-folded: the one fold every text comparison uses."""
    return s.strip().casefold()


def value_keys(values, spellings: list[str] | None = None):
    """Each value's key for the distance rule (``normalize``), and the
    spellings its text codes index: a number, minutes since midnight, or
    the position of the folded spelling (``fold_text``) in ``spellings``
    (NaN if absent), by default the sorted distinct ones of ``values``."""
    keys = np.array([v.num for v in values], dtype=float)
    text = [k for k, v in enumerate(values) if v.kind is Kind.TEXT]
    folded = [fold_text(values[k].text) for k in text]
    spellings = sorted(set(folded)) if spellings is None else spellings
    code = {s: c for c, s in enumerate(spellings)}
    keys[text] = [code.get(s, math.nan) for s in folded]
    return keys, spellings


def format_number(x: float, granularity: float | None = None) -> str:
    """Render a numeric value so that re-parsing recovers both the value and
    its inferred granularity (trailing zeros / decimal places are meaningful).
    """
    if granularity is not None and granularity > 0:
        if granularity >= 1:
            return f"{x:.0f}"
        decimals = max(0, int(round(-math.log10(granularity))))
        return f"{x:.{decimals}f}"
    return repr(x)


@dataclass(frozen=True)
class DataItem:
    """One attribute of one object, the unit on which truth is decided."""

    object_id: str
    attribute: str

    def sort_key(self):
        return (self.object_id, self.attribute)


@dataclass(frozen=True)
class Claim:
    """A single source's asserted value on one data item."""

    source: str
    item: DataItem
    value: Value


class ClaimColumns(NamedTuple):
    """Claims as codes: each claim's source, item and value number, into
    the tables ``sources``, ``items`` and ``values`` (in any order, and
    possibly with entries no claim uses). The rows are valid claims: known
    attributes, values of their kinds, no (source, item) pair twice.
    ``parent`` is the snapshot whose tables they are, if any."""

    sources: Sequence[str]
    items: Sequence[DataItem]
    values: Sequence[Value]
    source: np.ndarray
    item: np.ndarray
    value: np.ndarray
    parent: "ClaimSet | None" = None


class ClaimSet:
    """An immutable snapshot of claims, stored as columns.

    At most one claim per (source, item) pair. Claims are kept in (item,
    source) order: ``claim_source`` and ``claim_item`` index the sorted
    ``sources`` and ``items``, and ``claim_value`` the table ``values``
    (shared with ``restrict``ed views, like its keys ``value_key`` into
    ``spellings`` and granularities ``value_gran``). Item k's claims are
    rows ``item_start[k]`` to ``item_start[k + 1]``, its attribute and
    object codes ``item_attr[k]`` and ``item_object[k]`` into the sorted
    ``attributes`` and ``object_ids`` with claims. ``claims``,
    ``by_item`` and ``by_source`` are built on first use.
    Instances are safe to share across concurrent readers.
    """

    def __init__(self, snapshot_label: str, schema: Mapping[str, AttributeSpec],
                 claims: Iterable[Claim] | ClaimColumns):
        self.snapshot_label = snapshot_label
        self.schema: dict[str, AttributeSpec] = dict(schema)
        cols = (claims if isinstance(claims, ClaimColumns)
                else _columns_of(claims, self.schema))
        if cols.parent is None:     # a restricted view shares its parent's
            self.values: tuple[Value, ...] = tuple(cols.values)
            self.value_key, self.spellings = value_keys(self.values)
            self.value_gran = np.array([v.granularity or 0.0
                                        for v in self.values], dtype=float)
            attrs, attr = _name_codes([it.attribute for it in cols.items])
            objs, obj = _name_codes([it.object_id for it in cols.items])
        else:
            p = cols.parent
            self.values, self.value_key = p.values, p.value_key
            self.value_gran, self.spellings = p.value_gran, p.spellings
            attrs, attr, objs, obj = (p.attributes, p.item_attr,
                                      p.object_ids, p.item_object)
        # Code the names the claims use in sorted order (items by object,
        # then attribute); one sort of the claims by (item, source).
        names, code = _name_codes(cols.sources)
        self.sources, src = _recode(names, code[cols.source])
        by_name = np.lexsort((attr, obj))
        self.items, item = _recode([cols.items[k] for k in by_name.tolist()],
                                   np.argsort(by_name)[cols.item])
        of_item = np.zeros((2, len(self.items)), dtype=np.int64)
        of_item[:, item] = attr[cols.item], obj[cols.item]
        self.attributes, self.item_attr = _recode(attrs, of_item[0])
        self.object_ids, self.item_object = _recode(objs, of_item[1])
        order = np.lexsort((src, item))
        self.claim_source, self.claim_item = src[order], item[order]
        self.claim_value = np.asarray(cols.value, dtype=np.int64)[order]
        self.item_start = np.searchsorted(self.claim_item,
                                          np.arange(len(self.items) + 1))

    def __len__(self) -> int:
        return len(self.claim_source)

    @functools.cached_property
    def claims(self) -> tuple[Claim, ...]:
        """Every claim, in (item, source) order."""
        return tuple(map(
            Claim, [self.sources[s] for s in self.claim_source.tolist()],
            [self.items[i] for i in self.claim_item.tolist()],
            [self.values[v] for v in self.claim_value.tolist()]))

    @functools.cached_property
    def by_item(self) -> dict[DataItem, tuple[Claim, ...]]:
        bounds = self.item_start.tolist()
        return {it: self.claims[a:b]
                for it, a, b in zip(self.items, bounds, bounds[1:])}

    @functools.cached_property
    def by_source(self) -> dict[str, tuple[Claim, ...]]:
        out: dict[str, list[Claim]] = {s: [] for s in self.sources}
        for c in self.claims:
            out[c.source].append(c)
        return {s: tuple(cs) for s, cs in out.items()}

    @functools.cached_property
    def item_index(self) -> dict[DataItem, int]:
        """Each item's number in ``items``."""
        return {it: k for k, it in enumerate(self.items)}

    def attribute_of(self, item: DataItem) -> AttributeSpec:
        return self.schema[item.attribute]

    def providers(self, item: DataItem) -> tuple[str, ...]:
        """S(d): sources providing any value on the item."""
        k = self.item_index.get(item)
        rows = slice(0) if k is None else slice(*self.item_start[k:k + 2])
        return tuple(self.sources[s] for s in self.claim_source[rows].tolist())

    def claim_counts(self) -> dict[str, int]:
        """Each source's number of claims."""
        return dict(zip(self.sources, np.bincount(
            self.claim_source, minlength=len(self.sources)).tolist()))

    def restrict(self, sources: Sequence[str]) -> "ClaimSet":
        """A snapshot view containing only claims from the given sources:
        a mask over the source column, re-indexed, sharing this snapshot's
        value table and item codes."""
        keep = set(sources)
        on = np.array([s in keep for s in self.sources], dtype=bool)
        rows = on[self.claim_source]
        return ClaimSet(self.snapshot_label, self.schema, ClaimColumns(
            self.sources, self.items, self.values, self.claim_source[rows],
            self.claim_item[rows], self.claim_value[rows], self))


def _name_codes(names: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ``names``, and each name's code among them."""
    table = sorted(set(names))
    code = {s: k for k, s in enumerate(table)}
    return table, np.array([code[s] for s in names], dtype=np.int64)


def _recode(names: Sequence, codes: np.ndarray):
    """The ``names`` that ``codes`` use, in order, and the codes into them."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    rank = np.zeros(len(names), dtype=np.int64)
    rank[used] = np.arange(len(used))
    return tuple(names[k] for k in used.tolist()), rank[codes]


def _columns_of(claims: Iterable[Claim],
                schema: Mapping[str, AttributeSpec]) -> ClaimColumns:
    """Validated columns of ``Claim``s, each checked in input order. Values
    are told apart by identity: equal ones may differ in granularity or in
    the sign of zero."""
    tables: tuple[dict, dict, dict] = ({}, {}, {})
    codes: tuple[list, list, list] = ([], [], [])
    values, seen = [], set()
    for c in claims:
        attr = schema.get(c.item.attribute)
        if not c.source:
            raise LoadError("source id must be non-empty")
        if attr is None:
            raise LoadError(f"claim references unknown attribute "
                            f"{c.item.attribute!r}")
        if attr.kind is not c.value.kind:
            raise KindMismatchError(
                f"value kind {c.value.kind.value} does not match "
                f"attribute {attr.name!r} ({attr.kind.value})")
        if (c.source, c.item) in seen:
            raise LoadError(f"duplicate claim by source {c.source!r} "
                            f"on item {c.item}")
        seen.add((c.source, c.item))
        if id(c.value) not in tables[2]:
            values.append(c.value)
        for table, code, key in zip(tables, codes,
                                    (c.source, c.item, id(c.value))):
            code.append(table.setdefault(key, len(table)))
    return ClaimColumns(list(tables[0]), list(tables[1]), values,
                        *(np.array(c, dtype=np.int64) for c in codes))


@dataclass(frozen=True)
class GoldStandard:
    """Trusted item -> value map used for evaluation.

    ``orphan_count`` counts gold items that no claim covers (allowed, but
    flagged so evaluations can report coverage honestly).
    """

    entries: Mapping[DataItem, Value]
    orphan_count: int = 0

    def __len__(self) -> int:
        return len(self.entries)


def majority_gold(sources: Sequence[str], claims: ClaimSet,
                  min_providers: int = 3) -> GoldStandard:
    """Build a gold standard by plurality vote among trusted sources.

    Only items provided by at least ``min_providers`` of the listed sources
    are voted on; ties are omitted rather than asserting an unverified truth.
    Equal values count together (``Counter``); the winner is its first
    trusted provider's value in source order, whose granularity it keeps.
    """
    if not sources:
        raise LoadError("majority_gold requires a non-empty source list")
    if min_providers < 1:
        raise LoadError("min_providers must be >= 1")
    unknown = set(sources) - set(claims.sources)
    if unknown:
        raise LoadError(f"trusted sources not present in claim set: "
                        f"{sorted(unknown)}")
    keep = set(sources)
    rows = np.array([s in keep for s in claims.sources])[claims.claim_source]
    votes: dict[int, Counter] = {}
    for i, v in zip(claims.claim_item[rows].tolist(),
                    claims.claim_value[rows].tolist()):
        votes.setdefault(i, Counter())[claims.values[v]] += 1
    entries: dict[DataItem, Value] = {}
    for i, counts in votes.items():
        (top, n), *rest = counts.most_common(2)
        if counts.total() >= min_providers and not (rest and rest[0][1] == n):
            entries[claims.items[i]] = top
    return GoldStandard(entries=entries, orphan_count=0)
