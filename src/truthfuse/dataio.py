"""Delimited-text ingestion and serialization for claims, gold standards,
schemas, trust maps, and known-copier lists.

Formats (UTF-8, header row, quoted fields allowed, delimiter configurable):

* claims:  source,object,attribute,value
* gold:    object,attribute,value
* schema:  one attribute per line: name,kind,tolerance_param
* trust:   source,trust            (or source,attribute,trust)
* copiers: copier,original,probability
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from .model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    LoadError,
    Value,
    ValueParseError,
)
from .normalize import normalize_value

CLAIM_HEADER = ["source", "object", "attribute", "value"]
GOLD_HEADER = ["object", "attribute", "value"]


def load_schema(path: str | Path, delimiter: str = ",",
                default_alpha: float = 0.01,
                default_time_tolerance: float = 10.0,
                ) -> dict[str, AttributeSpec]:
    """Read attribute specs; returns a name -> spec map.

    An explicit per-attribute tolerance parameter wins; blank cells take
    the configured defaults (relative factor for numbers, minutes for
    times).
    """
    schema: dict[str, AttributeSpec] = {}
    for lineno, row in _csv_rows(path, delimiter):
        if len(row) < 2:
            raise LoadError(f"{path}:{lineno}: expected "
                            f"name,kind[,tolerance_param]")
        name = row[0].strip()
        kind = Kind.parse(row[1])
        param_raw = row[2].strip() if len(row) > 2 else ""
        if param_raw:
            try:
                param = float(param_raw)
            except ValueError:
                raise LoadError(f"{path}:{lineno}: bad tolerance "
                                f"parameter {param_raw!r}") from None
        else:
            param = {Kind.NUMBER: default_alpha,
                     Kind.TIME_OF_DAY: default_time_tolerance,
                     Kind.TEXT: 0.0}[kind]
        if name in schema:
            raise LoadError(f"{path}:{lineno}: duplicate attribute "
                            f"{name!r}")
        schema[name] = AttributeSpec(name, kind, param)
    if not schema:
        raise LoadError(f"{path}: empty schema")
    return schema


def load_claims(path: str | Path, schema: dict[str, AttributeSpec],
                snapshot_label: str | None = None,
                delimiter: str = ",") -> ClaimSet:
    """Load, normalize, validate, and index a claims file.

    Rejects duplicate (source, item) pairs, unparseable values, and unknown
    attributes, naming the offending line. Parses each spelling once.
    """
    claims: list[Claim] = []
    items: dict[tuple[str, str], DataItem] = {}
    seen: set[tuple[str, str, str]] = set()
    for lineno, (source, obj, attr_name, raw), spellings in _rows(
            path, CLAIM_HEADER, schema, delimiter):
        seen.add((source, obj, attr_name))
        if len(seen) == len(claims):
            raise LoadError(f"{path}:{lineno}: duplicate claim by "
                            f"{source!r} on ({obj!r}, {attr_name!r})")
        item = items.get((obj, attr_name))
        if item is None:
            item = items[obj, attr_name] = DataItem(obj, attr_name)
        claims.append(Claim(source, item, spellings.get(raw) or _parse(
            path, lineno, spellings, raw, schema[attr_name].kind)))
    label = snapshot_label if snapshot_label is not None else Path(path).stem
    return ClaimSet(label, schema, claims)


def load_gold(path: str | Path, claims: ClaimSet,
              delimiter: str = ",") -> GoldStandard:
    """Load a gold standard, normalized identically to claims.

    Gold items with no claim coverage are allowed but counted in
    ``orphan_count``.
    """
    entries: dict[DataItem, Value] = {}
    for lineno, (obj, attr_name, raw), spellings in _rows(
            path, GOLD_HEADER, claims.schema, delimiter):
        item = DataItem(obj, attr_name)
        if item in entries:
            raise LoadError(f"{path}:{lineno}: duplicate gold row for "
                            f"({obj!r}, {attr_name!r})")
        entries[item] = spellings.get(raw) or _parse(
            path, lineno, spellings, raw, claims.schema[attr_name].kind)
    orphans = sum(1 for item in entries if item not in claims.by_item)
    return GoldStandard(entries=entries, orphan_count=orphans)


def _csv_rows(path: str | Path, delimiter: str):
    """(line number, fields) of each non-blank row of a delimited file."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), 1):
            if row and (len(row) > 1 or row[0].strip()):
                yield lineno, row


def _rows(path: str | Path, header: list[str],
          schema: dict[str, AttributeSpec], delimiter: str):
    """(line number, stripped fields, its attribute's spelling -> value
    memo) of each row of a claims or gold file, checked up to the value."""
    memo: dict[str, dict[str, Value]] = {name: {} for name in schema}
    rows = _csv_rows(path, delimiter)
    lineno, first = next(rows, (0, None))
    if lineno != 1 or [h.strip().lower() for h in first] != header:
        raise LoadError(f"{path}: expected header {','.join(header)!r}")
    for lineno, row in rows:
        if len(row) != len(header):
            raise LoadError(f"{path}:{lineno}: expected {len(header)} "
                            f"columns, got {len(row)}")
        fields = list(map(str.strip, row))
        spellings = memo.get(fields[-2])
        if spellings is None:
            raise LoadError(f"{path}:{lineno}: unknown attribute "
                            f"{fields[-2]!r}")
        yield lineno, fields, spellings


def _parse(path, lineno: int, spellings: dict, raw: str, kind: Kind) -> Value:
    """Parse a spelling not in ``spellings`` yet; only successes are kept."""
    try:
        value = spellings[raw] = normalize_value(raw, kind)
    except ValueParseError as exc:
        raise LoadError(f"{path}:{lineno}: {exc}") from exc
    return value


def write_schema(schema: dict[str, AttributeSpec], path: str | Path,
                 delimiter: str = ",") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        for name in sorted(schema):
            a = schema[name]
            writer.writerow([a.name, a.kind.value, _fmt(a.tolerance_param)])


def write_claims(claims: ClaimSet, path: str | Path,
                 delimiter: str = ",") -> None:
    """Serialize a snapshot; loading the result reproduces the ClaimSet."""
    write_rows(path, CLAIM_HEADER,
               ((c.source, c.item.object_id, c.item.attribute, str(c.value))
                for c in claims.claims), delimiter)


def write_gold(gold: GoldStandard, path: str | Path,
               delimiter: str = ",") -> None:
    write_rows(path, GOLD_HEADER,
               ((it.object_id, it.attribute, str(gold.entries[it]))
                for it in sorted(gold.entries, key=DataItem.sort_key)),
               delimiter)


def load_trust(path: str | Path, delimiter: str = ",") -> dict:
    """Read a trust map: ``source,trust`` rows, or ``source,attribute,trust``
    rows for per-attribute trust (keys become (source, attribute) tuples)."""
    out: dict = {}
    for lineno, row in _csv_rows(path, delimiter):
        if lineno == 1 and row[-1].strip().lower() == "trust":
            continue
        try:
            if len(row) == 2:
                out[row[0].strip()] = float(row[1])
            elif len(row) == 3:
                out[(row[0].strip(), row[1].strip())] = float(row[2])
            else:
                raise ValueError
        except ValueError:
            raise LoadError(f"{path}:{lineno}: expected "
                            f"source[,attribute],trust") from None
    if not out:
        raise LoadError(f"{path}: empty trust file")
    return out


def write_trust(trust: dict, path: str | Path, delimiter: str = ",") -> None:
    per_attr = any(isinstance(k, tuple) for k in trust)
    write_rows(path, ["source", "attribute", "trust"] if per_attr
               else ["source", "trust"],
               ((*k, trust[k]) if per_attr else (k, trust[k])
                for k in sorted(trust)), delimiter)


def load_known_copiers(path: str | Path,
                       delimiter: str = ",") -> dict[tuple[str, str], float]:
    """Read declared copying pairs: ``copier,original,probability``."""
    out: dict[tuple[str, str], float] = {}
    for lineno, row in _csv_rows(path, delimiter):
        if lineno == 1 and row[-1].strip().lower() == "probability":
            continue
        if len(row) != 3:
            raise LoadError(f"{path}:{lineno}: expected "
                            f"copier,original,probability")
        try:
            prob = float(row[2])
        except ValueError:
            raise LoadError(f"{path}:{lineno}: bad probability "
                            f"{row[2]!r}") from None
        if not (0.0 <= prob <= 1.0):
            raise LoadError(f"{path}:{lineno}: probability out of [0,1]")
        out[(row[0].strip(), row[1].strip())] = prob
    return out


def write_rows(path: str | Path, header: Iterable[str],
               rows: Iterable[Iterable], delimiter: str = ",") -> None:
    """Write a plot-ready delimited table with deterministic float text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _fmt(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)
