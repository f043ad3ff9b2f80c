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
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import FusionConfig
from .model import (
    AttributeSpec,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    LoadError,
    TruthFuseError,
    Value,
    ValueParseError,
    claim_columns,
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
    """Load, normalize, validate (``claim_columns``) and index a claims
    file, naming the first offending line. Reads the file into the
    snapshot's columns at once, parsing each spelling once."""
    label = snapshot_label if snapshot_label is not None else Path(path).stem
    return ClaimSet(label, schema, _table(
        path, CLAIM_HEADER, schema, delimiter,
        lambda *cols: claim_columns(schema, *cols)))


def load_gold(path: str | Path, claims: ClaimSet,
              delimiter: str = ",") -> GoldStandard:
    """Load a gold standard, normalized identically to claims, with known
    attributes and no item twice; items no claim covers are allowed but
    counted in ``orphan_count``."""
    schema = claims.schema

    def entries_of(obj, attr, code: np.ndarray, values: list[Value]):
        entries: dict[DataItem, Value] = {}
        for k, (o, a, v) in enumerate(zip(obj, attr, code.tolist())):
            item = DataItem(o, a)
            if a not in schema or item in entries:
                exc = LoadError(f"unknown attribute {a!r}" if a not in schema
                                else f"duplicate gold row for {(o, a)!r}")
                exc.row = k
                raise exc
            entries[item] = values[v]
        return entries

    gold = _table(path, GOLD_HEADER, schema, delimiter, entries_of)
    return GoldStandard(gold, len(gold.keys() - claims.item_index.keys()))


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
           schema: dict[str, AttributeSpec], delimiter: str, check):
    """What ``check(*columns, codes, values)`` makes of the stripped columns
    of a claims or gold file, less the value; each row's code of its
    (attribute, spelling); and the values parsed for the codes, a blank for
    one that does not parse. Raises for the first bad row in file order, by
    width, ``check``'s rules (errors with a ``row``), then value, in turn."""
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
    cols = [list(map(str.strip, c)) for c in zip(*rows)] or [[]] * len(header)
    spellings: dict[tuple[str, str], int] = {}
    code = np.array([spellings.setdefault(key, len(spellings))
                     for key in zip(cols[-2], cols[-1])], dtype=np.int64)
    values: list[Value] = []
    for k, (attr, raw) in zip(np.unique(code, return_index=True)[1].tolist(),
                              spellings):
        kind = schema[attr].kind if attr in schema else Kind.TEXT
        try:    # ``check`` rejects an unknown attribute's rows
            values.append(normalize_value(raw, kind))
        except ValueParseError as exc:
            values.append(Value(kind))
            errors.append((k, 2, str(exc)))
    try:
        out = check(*cols[:-1], code, values)
    except TruthFuseError as exc:
        errors.append((exc.row, 1, str(exc)))
    if errors:
        row, _, message = min(errors)
        lineno = [n for n, _ in _csv_rows(path, delimiter)][row + 1]
        raise LoadError(f"{path}:{lineno}: {message}")
    return out


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
