"""Value canonicalization, tolerance, bucketing, the formatting-subsumption
relation, and the distance rule that every comparison of values calls.

All functions here are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .config import FusionConfig
from .model import (
    AttributeSpec,
    ClaimSet,
    DataItem,
    Kind,
    KindMismatchError,
    Value,
    ValueParseError,
    fold_text,
    value_keys,
)

_SUFFIX_MULT = {"k": 1e3, "m": 1e6, "b": 1e9}
# Dropped from a number's spelling: currency signs, thousands separators
# and percent signs.
_DROP = str.maketrans("", "", "$€£¥,%")

_NUMBER_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<mantissa>\d+(?:\.\d*)?|\.\d+)(?P<suffix>[kKmMbB])?$")
_TIME_RE = re.compile(
    r"^(?P<h>\d{1,2}):(?P<m>\d{2})\s*(?P<ampm>[ap]\.?m\.?)?$",
    re.IGNORECASE)


@dataclass(frozen=True)
class Bucket:
    """A group of nearly-equal values on one item.

    Numeric/time buckets live on a half-open grid anchored at the dominant
    value, spaced one matching tolerance apart (tau for numbers, the minute
    tolerance for times). Text buckets are exact case-folded equality
    classes.
    """

    center: Value
    half_width: float
    members: tuple[Value, ...]
    provider_count: int
    providers: tuple[str, ...]


def normalize_value(raw: str, kind: Kind) -> Value:
    """Canonicalize a raw string: "6.7M" == "6,700,000" == "6700000".

    Numbers: currency symbols, thousands separators and '%' are stripped and
    K/M/B suffixes expanded; the granularity (power of ten of the last
    significant digit) is inferred from the spelling. Times parse from
    ``HH:MM`` with optional am/pm. Text is trimmed and case-folded.
    """
    if not raw or not raw.strip():
        raise ValueParseError(raw, kind, "empty")
    if kind is Kind.TEXT:
        return Value.of_text(raw)
    if kind is Kind.TIME_OF_DAY:
        return _parse_time(raw)
    return _parse_number(raw)


def _parse_number(raw: str) -> Value:
    s = raw.translate(_DROP).strip()
    m = _NUMBER_RE.match(s)
    if m is None:
        # Fall back to plain float syntax (covers exponents); granularity
        # is unknown for such spellings.
        try:
            x = float(s)
        except ValueError:
            raise ValueParseError(raw, Kind.NUMBER) from None
        granularity = None
    else:
        sign, mantissa, suffix = m.groups()
        mult = _SUFFIX_MULT[suffix.lower()] if suffix else 1.0
        x = float(mantissa) * mult
        x = -x if sign == "-" else x
        granularity = _granularity(mantissa, mult)
    if not math.isfinite(x):
        raise ValueParseError(raw, Kind.NUMBER, "not finite")
    return Value(Kind.NUMBER, num=x, granularity=granularity)


def _granularity(mantissa: str, mult: float) -> float:
    """Power of ten of the last significant digit of the raw spelling."""
    whole, dot, frac = mantissa.partition(".")
    if dot:
        return 10.0 ** (-len(frac)) * mult
    digits = whole.lstrip("0")
    return 10.0 ** (len(digits) - len(digits.rstrip("0"))) * mult


def _parse_time(raw: str) -> Value:
    m = _TIME_RE.match(raw.strip())
    if m is None:
        raise ValueParseError(raw, Kind.TIME_OF_DAY)
    h, mins = int(m.group("h")), int(m.group("m"))
    ampm = (m.group("ampm") or "").lower().replace(".", "")
    if mins >= 60:
        raise ValueParseError(raw, Kind.TIME_OF_DAY, "minutes >= 60")
    if ampm:
        if not (1 <= h <= 12):
            raise ValueParseError(raw, Kind.TIME_OF_DAY,
                                  "hour out of 1..12 with am/pm")
        h = h % 12 + (12 if ampm == "pm" else 0)
    elif h >= 24:
        raise ValueParseError(raw, Kind.TIME_OF_DAY, "hour >= 24")
    return Value.time(h * 60 + mins)


def tolerance(attribute: AttributeSpec, values) -> float:
    """Relative tolerance tau = alpha * median of all provided values.

    The median of an even-length multiset is the mean of the two middle
    elements. Only defined for numeric attributes.
    """
    if attribute.kind is not Kind.NUMBER:
        raise KindMismatchError(
            f"tolerance() is defined for numeric attributes, "
            f"got {attribute.kind.value}")
    xs = np.sort(np.asarray(values, dtype=float), kind="stable")
    if not xs.size:
        raise ValueError(f"attribute {attribute.name!r} has no values")
    n = len(xs)
    mid = n // 2
    median = float(xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0)
    return attribute.tolerance_param * median


def tolerances(claims: ClaimSet) -> dict[str, float | None]:
    """Per-attribute matching tolerances for every attribute with claims:
    tau of its claimed numbers (``value_key``) for numbers, else
    ``match_width``."""
    attr = claims.item_attr[claims.claim_item]
    keys = claims.value_key[claims.claim_value]
    specs = [claims.schema[a] for a in claims.attributes]
    return {name: tolerance(a, keys[attr == k]) if a.kind is Kind.NUMBER
            else match_width(a, None)
            for k, (name, a) in enumerate(zip(claims.attributes, specs))}


# -- the distance rule: keys (numbers, minutes, codes of case-folded text:
# ``model.value_keys``), their offsets, match widths and similarities.
# Every comparison of values in the package calls these.


def key_offset(x, y):
    """Signed offset from key ``y`` to ``x``, on linear minutes for times
    (ROADMAP item 1: 23:55 and 00:05 lie 1430 apart)."""
    return x - y


def keys_match(x, y, width):
    """Whether paired keys lie within ``width`` of each other (a negative
    tau matches nothing: ROADMAP item 1)."""
    return np.abs(key_offset(x, y)) <= width


def match_width(attribute: AttributeSpec, tau: float | None) -> float | None:
    """``tau`` for numbers, the minute tolerance for times, None for text,
    whose keys match only when equal."""
    if attribute.kind is Kind.NUMBER:
        return tau
    if attribute.kind is Kind.TIME_OF_DAY:
        return attribute.tolerance_param
    return None


def bucket_width(attribute: AttributeSpec, tau: float | None) -> float:
    """Grid spacing: the match width, 0 (exact classes) for text or a
    number without tau."""
    return float(match_width(attribute, tau) or 0.0)


def item_widths(claims: ClaimSet,
                taus: dict[str, float | None]) -> np.ndarray:
    """Each item's ``bucket_width`` under ``taus``, by its attribute."""
    return np.array([bucket_width(claims.schema[a], taus[a])
                     for a in claims.attributes], dtype=float)[claims.item_attr]


def decay_span(attribute: AttributeSpec, tau: float | None,
               config: FusionConfig) -> float:
    """Where similarity reaches zero: ``sim_decay_width_multiplier`` * tau
    for numbers, ``sim_time_zero_at`` for times; NaN for text (edit
    similarity)."""
    if attribute.kind is Kind.NUMBER:
        return config.sim_decay_width_multiplier * tau
    if attribute.kind is Kind.TIME_OF_DAY:
        return config.sim_time_zero_at
    return math.nan


def key_similarity(x: np.ndarray, y: np.ndarray, span: np.ndarray,
                   spellings: list[str]) -> np.ndarray:
    """Similarity in [0, 1] of paired keys: their distance decays linearly
    to zero at ``span`` (equality where span <= 0); where span is NaN, the
    ``edit_similarity`` of the spellings their text codes name."""
    d = np.abs(key_offset(x, y))
    live = span > 0
    sims = np.maximum(np.where(live, 1.0 - d / np.where(live, span, 1.0),
                               (d == 0).astype(float)), 0.0)
    for k in np.flatnonzero(np.isnan(span)).tolist():
        sims[k] = edit_similarity(spellings[int(x[k])], spellings[int(y[k])])
    return sims


def edit_similarity(a: str, b: str) -> float:
    """Edit similarity of two folded spellings: 1 when equal, else one
    minus their edit distance over the longer length."""
    return 1.0 if a == b else 1.0 - _levenshtein(a, b) / max(len(a), len(b))


def values_match(v1: Value, v2: Value, attribute: AttributeSpec,
                 tau: float | None = None) -> bool:
    """Tolerant equality: |diff| <= tau for numbers, <= m minutes for times,
    case-insensitive equality for text."""
    _check_kinds(v1, v2, attribute, tau)
    keys, _ = value_keys([v1, v2])
    return bool(keys_match(keys[0], keys[1], bucket_width(attribute, tau)))


def _check_kinds(v1: Value, v2: Value, attribute: AttributeSpec,
                 tau: float | None) -> None:
    if v1.kind is not v2.kind or v1.kind is not attribute.kind:
        raise KindMismatchError(
            f"cannot compare {v1.kind.value} against {v2.kind.value} "
            f"under attribute {attribute.name!r} ({attribute.kind.value})")
    if attribute.kind is Kind.NUMBER and tau is None:
        raise ValueError("comparing numbers requires tau")


def bucketize(item: DataItem, claims: ClaimSet,
              tau: float | None = None) -> list[Bucket]:
    """Partition an item's claims into tolerance buckets.

    Buckets lie on the half-open grid (v0 - 3w/2, v0 - w/2], (v0 - w/2,
    v0 + w/2], ... anchored at the dominant raw value v0, where w is the
    grid spacing. Every claim lands in exactly one bucket; empty buckets
    are omitted. Text values bucket by equality of their folded spellings.
    """
    k = claims.item_index.get(item)
    if k is None:
        raise ValueError(f"item {item} has no claims")
    rows = slice(*claims.item_start[k:k + 2])
    code = claims.claim_value[rows]
    values = [claims.values[v] for v in code.tolist()]
    sources = [claims.sources[s] for s in claims.claim_source[rows].tolist()]
    width = bucket_width(claims.attribute_of(item), tau)
    order, bucket_of, _, centres = bucket_claims(
        np.zeros(len(values), dtype=np.int64), claims.value_key[code],
        np.array([width]))
    groups: list[list[int]] = [[] for _ in centres]
    for i, b in zip(order.tolist(), bucket_of.tolist()):
        groups[b].append(i)
    return [Bucket(bucket_centre(values[g[0]], x), width / 2.0,
                   tuple(sorted({values[i] for i in g}, key=Value.sort_key)),
                   len(g), tuple(sorted(sources[i] for i in g)))
            for g, x in zip(groups, centres.tolist())]


def bucket_claims(item_of: np.ndarray, keys: np.ndarray,
                  widths: np.ndarray):
    """The bucketing rule, for the claims of any number of items at once.

    Claims come in (item, source) order; ``widths`` are the items' grid
    widths (<= 0: exact grouping). An item's anchor is its most frequent
    key, the smallest on ties; a claim's centre is anchor + k*w with
    k = ceil(offset/w - 0.5), its ``key_offset`` from the anchor. Returns
    the claims' stable order by (item, centre), the bucket of each ordered
    claim, and each bucket's first claim (in source order) and centre.
    """
    by_key = np.lexsort((keys, item_of))
    item_k, key_k = item_of[by_key], keys[by_key]
    run = np.flatnonzero(run_starts(item_k, key_k))
    run_len = np.diff(np.append(run, len(keys)))
    best = np.lexsort((key_k[run], -run_len, item_k[run]))
    top = run[best[run_starts(item_k[run][best])]]
    anchor = np.zeros(int(item_of.max(initial=-1)) + 1)
    anchor[item_k[top]] = key_k[top]
    a, w = anchor[item_of], widths[item_of]
    grid = w > 0
    w = np.where(grid, w, 1.0)
    # "+ 0.0" turns ceil's -0.0 into the 0 an integer index would give.
    k = np.ceil(key_offset(keys, a) / w - 0.5) + 0.0
    centre = np.where(grid, a + k * w, keys)
    order = np.lexsort((centre, item_of))
    starts = run_starts(item_of[order], centre[order])
    return (order, np.cumsum(starts) - 1, order[starts],
            centre[order][starts])


def bucket_centre(first: Value, centre: float) -> Value:
    """A bucket's centre as a value, given its first claim's value (which
    names a text bucket). Grid centres may land marginally outside the
    clock range, so the time constructor's range check is bypassed."""
    if first.kind is Kind.TEXT:
        return Value.of_text(first.text)
    if first.kind is Kind.NUMBER:
        return Value.number(centre)
    return Value(Kind.TIME_OF_DAY, num=centre)


def run_starts(*cols: np.ndarray) -> np.ndarray:
    """True where a run of equal rows of the (sorted) columns begins."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def similarity(v1: Value, v2: Value, attribute: AttributeSpec,
               config: FusionConfig = FusionConfig(),
               tau: float | None = None) -> float:
    """Symmetric similarity in [0, 1]; 1 on identical values. Numbers decay
    linearly to zero at k*tau, times at ``sim_time_zero_at`` minutes
    (``key_similarity``); text is the ``edit_similarity`` of the folded
    spellings."""
    _check_kinds(v1, v2, attribute, tau)
    if attribute.kind is Kind.TEXT:
        return edit_similarity(fold_text(v1.text), fold_text(v2.text))
    keys, _ = value_keys([v1, v2])
    return float(key_similarity(keys[:1], keys[1:], np.array(
        [decay_span(attribute, tau, config)]), [])[0])


def _levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def subsumes(coarse: Value, fine: Value, attribute: AttributeSpec) -> bool:
    """True iff rounding ``fine`` to the inferred precision of ``coarse``
    yields ``coarse`` (e.g. "8M" subsumes 7,528,396).

    For time and text kinds subsumption degenerates to equality. For
    distinct numeric values the coarse side must carry strictly coarser
    inferred precision; values with unknown granularity subsume only
    themselves.
    """
    if coarse.kind is not fine.kind or coarse.kind is not attribute.kind:
        raise KindMismatchError("subsumption requires matching kinds")
    if coarse == fine:
        return True
    if attribute.kind is not Kind.NUMBER:
        return False
    return bool(keys_subsume(coarse.num, coarse.granularity or 0.0, fine.num,
                             fine.granularity or 0.0))


def keys_subsume(coarse, coarse_gran, fine, fine_gran):
    """Whether each number ``coarse``, spelled to granularity ``coarse_gran``,
    subsumes ``fine``, of granularity ``fine_gran`` (0 where unknown): the
    coarse spelling is strictly coarser, and ``fine`` rounded to it is
    ``coarse`` (``math.isclose`` with rel_tol 1e-9 and abs_tol 1e-9 *
    granularity, written out because ``np.isclose`` is not symmetric)."""
    g = np.asarray(coarse_gran, dtype=float)
    a = np.rint(fine / np.where(g > 0, g, 1.0)) * g
    diff = np.abs(coarse - a)
    close = (a == coarse) | (np.isfinite(a) & (
        (diff <= np.abs(1e-9 * coarse)) | (diff <= np.abs(1e-9 * a))
        | (diff <= g * 1e-9)))
    return close & (g > fine_gran)
