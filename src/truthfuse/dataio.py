"""Delimited-text ingestion and serialization for claims, gold standards,
schemas, trust maps, and known-copier lists.

Formats (UTF-8, quoted fields allowed, delimiter configurable):

* claims:  source,object,attribute,value
* gold:    object,attribute,value
* schema:  one attribute per line: name,kind,tolerance_param (no header)
* trust:   source,trust            (or source,attribute,trust)
* copiers: copier,original,probability
* groups:  remarks,members        (members separated by ';')

A header row holds the format's column names (``_is_header``): claims and
gold files start with one; trust, copier and group files may.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import FusionConfig
from .model import (
    AttributeSpec,
    ClaimColumns,
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
TRUST_HEADERS = (["source", "trust"], ["source", "attribute", "trust"])
COPIER_HEADER = ["copier", "original", "probability"]
GROUP_HEADER = ["remarks", "members"]


def load_schema(path: str | Path, delimiter: str = ",",
                defaults: FusionConfig = FusionConfig(),
                ) -> dict[str, AttributeSpec]:
    """Read attribute specs; returns a name -> spec map.

    An explicit per-attribute tolerance parameter wins; blank cells take
    the ``defaults``' (``FusionConfig.default_tolerance``).
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
            param = defaults.default_tolerance(kind)
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
    attributes, naming the offending line. Reads the file into the
    snapshot's columns at once, parsing each spelling once.
    """
    (source, obj, attr, _), code, values = _table(
        path, CLAIM_HEADER, schema, delimiter, lambda c, k: (
            f"duplicate claim by {c[0][k]!r} on ({c[1][k]!r}, {c[2][k]!r})"))
    sources: dict[str, int] = {}
    items: dict[tuple[str, str], int] = {}
    src = [sources.setdefault(s, len(sources)) for s in source]
    item = [items.setdefault(key, len(items)) for key in zip(obj, attr)]
    if "" in sources:
        raise LoadError("source id must be non-empty")
    label = snapshot_label if snapshot_label is not None else Path(path).stem
    return ClaimSet(label, schema, ClaimColumns(
        list(sources), [DataItem(*key) for key in items], values,
        np.array(src, dtype=np.int64), np.array(item, dtype=np.int64), code))


def load_gold(path: str | Path, claims: ClaimSet,
              delimiter: str = ",") -> GoldStandard:
    """Load a gold standard, normalized identically to claims.

    Gold items with no claim coverage are allowed but counted in
    ``orphan_count``.
    """
    (obj, attr, _), code, values = _table(
        path, GOLD_HEADER, claims.schema, delimiter,
        lambda c, k: f"duplicate gold row for ({c[0][k]!r}, {c[1][k]!r})")
    entries = {DataItem(o, a): values[v]
               for o, a, v in zip(obj, attr, code.tolist())}
    orphans = sum(1 for item in entries if item not in claims.item_index)
    return GoldStandard(entries=entries, orphan_count=orphans)


def _csv_rows(path: str | Path, delimiter: str):
    """(line number, fields) of each non-blank row of a delimited file."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), 1):
            if _filled(row):
                yield lineno, row


def _filled(row: list[str]) -> bool:
    return bool(row) and (len(row) > 1 or bool(row[0].strip()))


def _is_header(row: list[str], *headers: list[str]) -> bool:
    """Whether the row's stripped, case-folded fields are a header's."""
    return [f.strip().casefold() for f in row] in headers


def _data_rows(path: str | Path, delimiter: str, *headers: list[str]):
    """``_csv_rows`` without the first non-blank row if it is a header."""
    rows = list(_csv_rows(path, delimiter))
    return rows[1:] if rows and _is_header(rows[0][1], *headers) else rows


def _table(path: str | Path, header: list[str],
           schema: dict[str, AttributeSpec], delimiter: str, duplicate):
    """The rows of a claims or gold file as stripped columns; each row's
    code of its (attribute, spelling), and the values parsed for the
    codes. Raises for the first malformed row in file order, where a
    row's width, attribute, key (all columns but the value: its repeat
    is named by ``duplicate(columns, row)``) and value are checked in
    turn."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        if not _is_header(next(reader, []), header):
            raise LoadError(f"{path}: expected header {','.join(header)!r}")
        rows = [row for row in reader if _filled(row)]
    errors: list[tuple[int, int, str]] = []     # (row, check, message)
    widths = [len(row) for row in rows]
    if set(widths) - {len(header)}:
        bad = next(k for k, n in enumerate(widths) if n != len(header))
        errors.append((bad, 0, f"expected {len(header)} columns, got "
                       f"{widths[bad]}"))
        del rows[bad:]
    cols = [list(map(str.strip, c)) for c in zip(*rows)]
    cols = cols or [[] for _ in header]
    if len(set(zip(*cols[:-1]))) < len(cols[0]):
        seen: set = set()       # set.add gives None: the first repeat stops
        k = next(k for k, key in enumerate(zip(*cols[:-1]))
                 if key in seen or seen.add(key))
        errors.append((k, 2, duplicate(cols, k)))
    spellings: dict[tuple[str, str], int] = {}
    code = [spellings.setdefault(key, len(spellings))
            for key in zip(cols[-2], cols[-1])]
    values: list[Value] = []
    for k, (attr, raw) in zip(np.unique(code, return_index=True)[1].tolist(),
                              spellings):
        if attr not in schema:
            errors.append((k, 1, f"unknown attribute {attr!r}"))
            break
        try:
            values.append(normalize_value(raw, schema[attr].kind))
        except ValueParseError as exc:
            errors.append((k, 3, str(exc)))
            break
    if errors:
        row, _, message = min(errors)
        lineno = next(itertools.islice(_csv_rows(path, delimiter), row + 1,
                                       None))[0]
        raise LoadError(f"{path}:{lineno}: {message}")
    return cols, np.array(code, dtype=np.int64), values


def write_schema(schema: dict[str, AttributeSpec], path: str | Path,
                 delimiter: str = ",") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        for name in sorted(schema):
            a = schema[name]
            writer.writerow([a.name, a.kind.value, _fmt(a.tolerance_param)])


def write_claims(claims: ClaimSet, path: str | Path,
                 delimiter: str = ",") -> None:
    """Serialize a snapshot, read off its columns; loading the result
    reproduces the ClaimSet."""
    items = [claims.items[i] for i in claims.claim_item.tolist()]
    write_rows(path, CLAIM_HEADER, (
        (claims.sources[s], it.object_id, it.attribute, str(claims.values[v]))
        for s, it, v in zip(claims.claim_source.tolist(), items,
                            claims.claim_value.tolist())), delimiter)


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
    for lineno, row in _data_rows(path, delimiter, *TRUST_HEADERS):
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
    write_rows(path, TRUST_HEADERS[per_attr],
               ((*k, trust[k]) if per_attr else (k, trust[k])
                for k in sorted(trust)), delimiter)


def load_known_copiers(path: str | Path,
                       delimiter: str = ",") -> dict[tuple[str, str], float]:
    """Read declared copying pairs: ``copier,original,probability``."""
    out: dict[tuple[str, str], float] = {}
    for lineno, row in _data_rows(path, delimiter, COPIER_HEADER):
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


def load_groups(path: str | Path,
                delimiter: str = ",") -> list[tuple[str, tuple[str, ...]]]:
    """Read declared source groups: ``remarks,members`` rows."""
    out = []
    for lineno, row in _data_rows(path, delimiter, GROUP_HEADER):
        if len(row) < 2:
            raise LoadError(f"{path}:{lineno}: expected remarks,members")
        out.append((row[0].strip(), tuple(map(str.strip, row[1].split(";")))))
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
