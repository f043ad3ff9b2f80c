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
from typing import Mapping, NamedTuple, Sequence

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


class ClaimColumns(NamedTuple):
    """Valid claims (``claim_columns``) as codes: each claim's source, item
    and value number into the tables ``sources``, ``items`` and ``values``
    (in any order, possibly with entries no claim uses). ``parent`` is the
    snapshot whose tables they are, if any."""

    sources: Sequence[str]
    items: Sequence[DataItem]
    values: Sequence[Value]
    source: np.ndarray
    item: np.ndarray
    value: np.ndarray
    parent: "ClaimSet | None" = None


def claim_columns(schema: Mapping[str, AttributeSpec], source=(), obj=(),
                  attr=(), value=(), values: Sequence[Value] | None = None,
                  ) -> ClaimColumns:
    """Validated ``ClaimColumns`` of claims given as columns of sources,
    object ids, attribute names and values (``*zip(*rows)``): ``Value``s
    told apart by identity (equal ones may differ in granularity or the
    sign of zero), or codes into ``values``. Raises for the first row
    (``row``) with, checked in turn, an empty source, an unknown attribute,
    a value not of its attribute's kind or a repeated (source, item)."""
    if values is None:
        values = list({id(v): v for v in value}.values())
        pos = {id(v): k for k, v in enumerate(values)}
        value = np.array([pos[id(v)] for v in value], dtype=np.int64)
    sources, items = {}, {}     # each name's and (object, attribute)'s code
    src = np.array([sources.setdefault(s, len(sources)) for s in source],
                   dtype=np.int64)
    item = np.array([items.setdefault(key, len(items))
                     for key in zip(obj, attr)], dtype=np.int64)
    kinds = ["", *(k.value for k in Kind)]      # "": an unknown attribute's
    want = np.array([kinds.index(schema[a].kind.value) if a in schema else 0
                     for _, a in items], dtype=np.int8)[item]
    have = np.array([kinds.index(v.kind.value) for v in values], dtype=np.int8)
    again = np.ones(len(src), dtype=bool)
    again[np.unique(src * len(items) + item, return_index=True)[1]] = False
    fails = [(int(np.argmax(m)), n) for n, m in enumerate((
        src == sources.get("", -1), want == 0,
        (have[value] != want) & (want > 0), again)) if m.any()]
    if fails:
        k, n = min(fails)
        exc = [LoadError("source id must be non-empty"),
               LoadError(f"unknown attribute {attr[k]!r}"),
               KindMismatchError(
                   f"value kind {kinds[have[value[k]]]} does not match "
                   f"attribute {attr[k]!r} ({kinds[want[k]]})"),
               LoadError(f"duplicate claim by {source[k]!r} on "
                         f"({obj[k]!r}, {attr[k]!r})")][n]
        exc.row = k
        raise exc
    return ClaimColumns(list(sources), [DataItem(*key) for key in items],
                        values, src, item, value)


class ClaimSet:
    """An immutable snapshot of claims, stored as columns.

    At most one claim per (source, item) pair. Claims are kept in (item,
    source) order: ``claim_source`` and ``claim_item`` index the sorted
    ``sources`` and ``items``, and ``claim_value`` the table ``values``
    (shared with ``restrict``ed views, like its keys ``value_key`` into
    ``spellings`` and granularities ``value_gran``). Item k's claims are
    rows ``item_start[k]`` to ``item_start[k + 1]``, its attribute and
    object codes ``item_attr[k]`` and ``item_object[k]`` into the sorted
    ``attributes`` and ``object_ids`` with claims. Safe to share across
    concurrent readers.
    """

    def __init__(self, snapshot_label: str, schema: Mapping[str, AttributeSpec],
                 cols: ClaimColumns):
        self.snapshot_label = snapshot_label
        self.schema: dict[str, AttributeSpec] = dict(schema)
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
    def item_index(self) -> dict[DataItem, int]:
        """Each item's number in ``items``."""
        return {it: k for k, it in enumerate(self.items)}

    def attribute_of(self, item: DataItem) -> AttributeSpec:
        return self.schema[item.attribute]

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
    trusted = claims.restrict(sources)
    votes: dict[int, Counter] = {}
    for i, v in zip(trusted.claim_item.tolist(),
                    trusted.claim_value.tolist()):
        votes.setdefault(i, Counter())[trusted.values[v]] += 1
    entries: dict[DataItem, Value] = {}
    for i, counts in votes.items():
        (top, n), *rest = counts.most_common(2)
        if counts.total() >= min_providers and not (rest and rest[0][1] == n):
            entries[trusted.items[i]] = top
    return GoldStandard(entries=entries, orphan_count=0)
