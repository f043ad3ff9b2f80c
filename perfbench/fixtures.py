"""Seeded input files for the benchmark workloads.

The generator is the benchmark's own: the program under test receives only
the ``schema.csv``, ``claims*.csv`` and ``gold*.csv`` files written here.
It draws the kinds of conflicting values the source paper found on the
Deep Web, so that every fusion code path has work to do:

* near-misses inside the matching tolerance and inside the similarity
  window (outside the tolerance);
* coarse spellings of a number ("7.5M" for 7528396), which the
  formatting-aware methods credit;
* unit-scale errors (thousands for counts, hundreds for prices);
* out-of-date values (the previous day's value, shared by stale sources);
* copier blocks that repeat an original's claims, errors included;
* a signed ``change`` column whose median is negative;
* flight times that cross midnight, and 12-hour spellings.

Values are drawn with ``random.Random`` seeded from the workload seed, so
one seed always gives byte-identical files.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ALPHA = 0.01                 # truthfuse's default relative tolerance factor
TIME_TOLERANCE_MIN = 10.0    # truthfuse's default minute tolerance

STOCK_ATTRIBUTES = (
    # name, decimals, large (spelled with thousands separators / suffixes)
    ("open", 2, False), ("high", 2, False), ("low", 2, False),
    ("last", 2, False), ("prev_close", 2, False), ("change", 2, False),
    ("volume", 0, True), ("avg_volume", 0, True), ("shares", 0, True),
    ("market_cap", 0, True), ("eps", 2, False), ("pe", 2, False),
    ("dividend", 2, False), ("yield_pct", 2, False),
    ("week52_high", 2, False), ("week52_low", 2, False),
)
FLIGHT_TIMES = ("sched_dep", "actual_dep", "sched_arr", "actual_arr")

# The traffic mix. The source paper's per-dataset figures (its breakdown of
# why values conflict, and the spread of source accuracy and coverage) are
# not part of this repository, so every value below is assumed; the README
# lists them. Only the shapes follow the paper: about 55 Stock sources over
# 16 numeric attributes, and Flight departure and arrival times with a gate.
LAGGING_PERIOD = 6            # sources 1, 7, 13, ... serve yesterday's values
LAGGING_ACCURACY = 0.4
ACCURACY_RANGE = (0.4, 0.9)   # accuracy of the other sources, by index
OBJECT_COVERAGE_MIN = 0.35    # every fifth source covers every object
ATTRIBUTE_COVERAGE_MIN = 0.6  # every third source covers every attribute
STYLES = ("plain", "plain", "commas", "abbrev")
# How true stock claims are spelled: a near-miss inside the tolerance, a
# one-digit coarse spelling (large numbers only), or the exact value.
STOCK_TRUE_MIX = (("near_miss", 0.08), ("coarse", 0.10), ("exact", 0.82))
# Kinds of false claims, with their shares. Lagging sources' false claims
# are all out-of-date.
STOCK_FALSE_MIX = (("near_miss", 0.35), ("stale", 0.25), ("unit", 0.15),
                   ("other", 0.25))
FLIGHT_TRUE_NEAR_MISS = 0.15  # true times off by 1-8 minutes
FLIGHT_FALSE_MIX = (("near_miss", 0.40), ("stale", 0.30), ("am_pm", 0.10),
                    ("other", 0.20))
GATE_FALSE_MIX = (("transposed", 0.40), ("stale", 0.30), ("other", 0.30))
LATE_EVENING_SHARE = 0.2      # delayed departures that mostly cross midnight


@dataclass(frozen=True)
class StockShape:
    n_sources: int = 55
    n_objects: int = 60
    n_days: int = 1
    copier_groups: tuple[tuple[int, int, float], ...] = (
        # (original index, number of copiers, copy rate)
        (1, 4, 0.9), (7, 3, 0.8))
    n_desks: int = 1      # snapshots each day's objects are dealt into


@dataclass(frozen=True)
class FlightShape:
    n_sources: int = 15
    n_objects: int = 40
    copier_groups: tuple[tuple[int, int, float], ...] = ((7, 3, 0.85),)
    n_desks: int = 1      # snapshots the flights are dealt into


@dataclass
class Snapshot:
    """One generated snapshot (a day, or one desk of a day): its files and
    the truth the gold file holds."""

    claims_path: Path
    gold_path: Path
    n_claims: int
    n_items: int
    n_sources: int
    truth: dict[tuple[str, str], float | str] = field(repr=False)


@dataclass
class Fixture:
    """Everything a workload needs to run and to score its outputs."""

    schema_path: Path
    snapshots: list[Snapshot]
    sources: list[str]
    kinds: dict[str, str]            # attribute -> Number/TimeOfDay/Text
    score_tolerance: dict[str, float]   # attribute -> match tolerance

    @property
    def n_sources(self) -> int:
        return len(self.sources)


# -- shared helpers -----------------------------------------------------------


def _write_csv(path: Path, header: list[str] | None, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _spread(i: int, n: int, stride: int) -> float:
    """A fixed point of [0, 1) per source index, scattered by ``stride``."""
    return (i * stride) % n / n


def _sources(n: int, groups) -> tuple[list[dict], dict]:
    """Source profiles (accuracy, coverage, spelling style) and a
    copier -> (original, rate) map.

    Profiles depend on the source index only, so every seed has the same
    number of claims and of false claims per source; the seed decides which
    objects, attributes and claims they fall on.
    """
    originals = {g[0] for g in groups}
    profiles = []
    for i in range(n):
        # Lagging sources serve yesterday's values for all their errors;
        # copier blocks repeat a lagging original.
        lagging = i % LAGGING_PERIOD == 1 or i in originals
        lo, hi = ACCURACY_RANGE
        profiles.append({
            "name": f"src{i + 1:02d}",
            "lagging": lagging,
            "accuracy": (LAGGING_ACCURACY if lagging
                         else hi - (hi - lo) * _spread(i, n, 37)),
            "object_cov": 1.0 if i % 5 == 0 else OBJECT_COVERAGE_MIN + (
                1.0 - OBJECT_COVERAGE_MIN) * _spread(i, n, 13),
            "attr_cov": 1.0 if i % 3 == 0 else ATTRIBUTE_COVERAGE_MIN + (
                1.0 - ATTRIBUTE_COVERAGE_MIN) * _spread(i, n, 7),
            "style": STYLES[i % len(STYLES)],
        })
    copiers: dict[int, tuple[int, float]] = {}
    nxt = n - 1
    for original, count, rate in groups:
        for _ in range(count):
            copiers[nxt] = (original, rate)
            nxt -= 1
    return profiles, copiers


def _coverage(rng: random.Random, profiles, copiers, objects, attributes):
    """(source index) -> sorted (object, attribute) pairs provided.
    Copiers cover what their original covers."""
    cov: dict[int, list] = {}
    for i, p in enumerate(profiles):
        if i in copiers:
            continue
        objs = rng.sample(objects, max(1, round(p["object_cov"]
                                                * len(objects))))
        attrs = rng.sample(attributes, max(1, round(p["attr_cov"]
                                                    * len(attributes))))
        cov[i] = sorted((o, a) for o in objs for a in attrs)
    for i, (original, _) in copiers.items():
        cov[i] = list(cov[original])
    return cov


def _pick(r: float, mix) -> str:
    """The kind of ``mix`` whose cumulative share first exceeds ``r``; the
    last kind takes the rest."""
    for kind, share in mix[:-1]:
        if r < share:
            return kind
        r -= share
    return mix[-1][0]


def _false_claims(rng: random.Random, keys: list, accuracy: float) -> set:
    """Exactly round((1 - accuracy) * len(keys)) of the keys, at random."""
    return set(rng.sample(keys, round((1.0 - accuracy) * len(keys))))


# -- stock --------------------------------------------------------------------


def _stock_truth(rng: random.Random, objects: list[str], prev=None):
    """Per-object true values for one trading day; ``prev`` is the previous
    day's truth, from which prices drift."""
    truth: dict[tuple[str, str], float] = {}
    for o in objects:
        if prev is None:
            close0 = round(math.exp(rng.uniform(math.log(8), math.log(400))),
                           2)
            shares = float(int(math.exp(rng.uniform(math.log(2e7),
                                                    math.log(3e9)))))
            eps = round(rng.gauss(2.5, 2.0), 2)
            dividend = round(rng.uniform(0.1, 3.0), 2)
            hi52 = round(close0 * rng.uniform(1.05, 1.6), 2)
            lo52 = round(close0 * rng.uniform(0.5, 0.95), 2)
            avg_vol = float(int(math.exp(rng.uniform(math.log(2e5),
                                                     math.log(2e7)))))
        else:
            close0 = prev[(o, "last")]
            shares = prev[(o, "shares")]
            eps = prev[(o, "eps")]
            dividend = prev[(o, "dividend")]
            hi52 = max(prev[(o, "week52_high")], prev[(o, "high")])
            lo52 = min(prev[(o, "week52_low")], prev[(o, "low")])
            avg_vol = float(int(prev[(o, "avg_volume")] * 0.9
                                + prev[(o, "volume")] * 0.1))
        # A down day on average, so the change column's median is negative.
        change = round(close0 * rng.gauss(-0.012, 0.01), 2)
        last = round(close0 + change, 2)
        opn = round(close0 * (1.0 + rng.gauss(0.0, 0.004)), 2)
        high = round(max(opn, last) * (1.0 + rng.uniform(0.0, 0.01)), 2)
        low = round(min(opn, last) * (1.0 - rng.uniform(0.0, 0.01)), 2)
        volume = float(int(avg_vol * rng.uniform(0.6, 1.5)))
        values = {
            "open": opn, "high": high, "low": low, "last": last,
            "prev_close": close0, "change": change, "volume": volume,
            "avg_volume": avg_vol, "shares": shares,
            "market_cap": float(round(shares * last)), "eps": eps,
            "pe": round(last / eps, 2) if eps > 0.05 else round(
                rng.uniform(150.0, 300.0), 2),
            "dividend": dividend,
            "yield_pct": round(100.0 * dividend / last, 2),
            "week52_high": hi52, "week52_low": lo52,
        }
        for a, v in values.items():
            truth[(o, a)] = v
    return truth


def _spell_number(x: float, decimals: int, large: bool, style: str) -> str:
    if large and style == "abbrev":
        return _abbrev(x, 2)
    if style == "commas":
        return f"{x:,.{decimals}f}"
    return f"{x:.{decimals}f}"


def _abbrev(x: float, sig: int) -> str:
    """Coarse spelling with a K/M/B suffix and ``sig`` significant digits."""
    ax = abs(x)
    for suffix, mult in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if ax >= mult:
            break
    else:
        return f"{x:.0f}"
    scaled = x / mult
    decimals = max(0, sig - 1 - int(math.floor(math.log10(abs(scaled)))))
    return f"{scaled:.{decimals}f}{suffix}"


def _stock_claim(rng: random.Random, value: float, stale: float, tau: float,
                 decimals: int, large: bool, correct: bool,
                 source: dict) -> str:
    style = source["style"]
    if correct:
        kind = _pick(rng.random(), STOCK_TRUE_MIX)
        if kind == "near_miss":
            # Near-miss inside the matching tolerance.
            value += rng.choice((-1, 1)) * rng.uniform(0.1, 0.45) * tau
        elif kind == "coarse" and large:
            # Coarse spelling: one significant digit ("8M" for 7528396).
            return _abbrev(value, 1)
        return _spell_number(value, decimals, large, style)
    kind = ("stale" if source["lagging"]
            else _pick(rng.random(), STOCK_FALSE_MIX))
    if kind == "near_miss":
        # Near-miss outside the tolerance, inside the similarity window.
        value += rng.choice((-1, 1)) * rng.uniform(1.5, 6.0) * tau
    elif kind == "stale":
        value = stale
    elif kind == "unit":
        # Unit-scale error: thousands for counts, hundredths for prices.
        value *= (1000.0 if rng.random() < 0.5 else 0.001) if large else 100.0
    else:
        value *= 1.0 + rng.choice((-1, 1)) * rng.uniform(0.15, 0.6)
    return _spell_number(value, decimals, large, style)


def generate_stock(seed: int, out: Path, shape: StockShape) -> Fixture:
    """Stock-like snapshots: ``shape.n_days`` consecutive trading days over
    the same sources and objects, with errors drawn afresh each day. Each
    day's objects are dealt round-robin into ``shape.n_desks`` snapshots."""
    rng = random.Random(f"stock:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    objects = [f"T{i:04d}" for i in range(shape.n_objects)]
    attributes = [a for a, _, _ in STOCK_ATTRIBUTES]
    spec = {a: (d, large) for a, d, large in STOCK_ATTRIBUTES}
    profiles, copiers = _sources(shape.n_sources, shape.copier_groups)
    cov = _coverage(rng, profiles, copiers, objects, attributes)

    schema_path = out / "schema.csv"
    _write_csv(schema_path, None, [(a, "Number", "") for a in attributes])

    prev = _stock_truth(rng, objects)
    taus: dict[str, float] = {}
    snapshots = []
    for day in range(1, shape.n_days + 1):
        truth = _stock_truth(rng, objects, prev)
        for a in attributes:
            vals = sorted(abs(truth[(o, a)]) for o in objects)
            # Scoring tolerance: alpha times the absolute median, and never
            # finer than the attribute's last printed digit.
            taus[a] = max(ALPHA * vals[len(vals) // 2], 10.0 ** -spec[a][0])
        claimed: dict[tuple[int, tuple[str, str]], str] = {}
        order = sorted(cov, key=lambda i: i in copiers)
        for i in order:
            p = profiles[i]
            false = _false_claims(rng, cov[i], p["accuracy"])
            for key in cov[i]:
                if i in copiers and rng.random() < copiers[i][1]:
                    claimed[(i, key)] = claimed[(copiers[i][0], key)]
                    continue
                d, large = spec[key[1]]
                claimed[(i, key)] = _stock_claim(
                    rng, truth[key], prev[key], taus[key[1]], d, large,
                    key not in false, p)
        snapshots += _write_desks(
            out, "" if shape.n_days == 1 else f"_d{day}", objects,
            shape.n_desks, profiles, claimed, truth,
            lambda key, v: f"{v:.{spec[key[1]][0]}f}")
        prev = truth
    return Fixture(schema_path, snapshots, [p["name"] for p in profiles],
                   {a: "Number" for a in attributes}, taus)


def _write_desks(out: Path, suffix: str, objects: list[str], n_desks: int,
                 profiles, claimed, truth, spell_truth) -> list[Snapshot]:
    """One snapshot per desk, the objects dealt round-robin. Several small
    desks instead of one big snapshot average the seed's effect on the
    work (fixed-point and AccuCopy rounds, candidates) over independent
    draws, and give shorter operations, between which the benchmark times
    its calibration loop."""
    snaps = []
    for d in range(n_desks):
        desk = set(objects[d::n_desks])
        snaps.append(_write_snapshot(
            out, f"{suffix}_desk{d + 1}" if n_desks > 1 else suffix,
            profiles, {k: v for k, v in claimed.items() if k[1][0] in desk},
            truth, spell_truth))
    return snaps


def _write_snapshot(out: Path, suffix: str, profiles, claimed, truth,
                    spell_truth) -> Snapshot:
    claims_path = out / f"claims{suffix}.csv"
    gold_path = out / f"gold{suffix}.csv"
    rows = [(profiles[i]["name"], o, a, v)
            for (i, (o, a)), v in sorted(claimed.items())]
    _write_csv(claims_path, ["source", "object", "attribute", "value"], rows)
    items = sorted({key for (_, key) in claimed})
    _write_csv(gold_path, ["object", "attribute", "value"],
               [(o, a, spell_truth((o, a), truth[(o, a)])) for o, a in items])
    return Snapshot(claims_path, gold_path, len(rows), len(items),
                    len({i for (i, _) in claimed}),
                    {key: truth[key] for key in items})


# -- flight -------------------------------------------------------------------


def _clock(m: float) -> str:
    m = int(round(m)) % 1440
    return f"{m // 60:02d}:{m % 60:02d}"


def _clock12(m: float) -> str:
    m = int(round(m)) % 1440
    h, mins = divmod(m, 60)
    return f"{(h % 12) or 12}:{mins:02d} {'pm' if h >= 12 else 'am'}"


def _flight_truth(rng: random.Random, objects: list[str]):
    truth: dict[tuple[str, str], float | str] = {}
    stale: dict[tuple[str, str], float | str] = {}
    for o in objects:
        if rng.random() < LATE_EVENING_SHARE:
            # Delayed late-evening departures, which mostly leave after
            # midnight.
            dep = float(int(rng.uniform(1400.0, 1439.0)) // 5 * 5)
            delay = 10.0 + rng.expovariate(1.0 / 30.0)
        else:
            dep = float(int(rng.uniform(330.0, 1380.0)) // 5 * 5)
            delay = rng.choice((0.0, 0.0, rng.uniform(-5.0, 5.0),
                                rng.expovariate(1.0 / 35.0)))
        duration = rng.uniform(60.0, 330.0)
        arr = dep + duration
        arr_delay = delay + rng.uniform(-15.0, 15.0)
        values = {
            "sched_dep": dep, "actual_dep": dep + delay,
            "sched_arr": arr, "actual_arr": arr + arr_delay,
        }
        for a, v in values.items():
            truth[(o, a)] = float(int(round(v)) % 1440)
        # Out-of-date: the schedule stands in for the actual time, and the
        # previous timetable for the schedule.
        stale[(o, "actual_dep")] = truth[(o, "sched_dep")]
        stale[(o, "actual_arr")] = truth[(o, "sched_arr")]
        stale[(o, "sched_dep")] = float(int(dep + 15.0) % 1440)
        stale[(o, "sched_arr")] = float(int(arr + 15.0) % 1440)
        gate = f"{rng.choice('ABCDEF')}{rng.randint(1, 45)}"
        truth[(o, "gate")] = gate
        stale[(o, "gate")] = f"{rng.choice('ABCDEF')}{rng.randint(1, 45)}"
    return truth, stale


def _flight_claim(rng: random.Random, attr: str, value, stale,
                  correct: bool, source: dict) -> str:
    style = source["style"]
    if attr == "gate":
        if correct:
            return value.lower() if style == "abbrev" else value
        kind = ("stale" if source["lagging"]
                else _pick(rng.random(), GATE_FALSE_MIX))
        if kind == "transposed" and len(value) > 2:
            return value[0] + value[:0:-1]
        if kind in ("transposed", "stale"):
            return stale
        return f"{rng.choice('ABCDEFG')}{rng.randint(1, 60)}"
    if not correct and source["lagging"]:
        value = stale
    elif correct:
        if rng.random() < FLIGHT_TRUE_NEAR_MISS:
            value += rng.choice((-1, 1)) * rng.randint(1, 8)   # in tolerance
    else:
        kind = _pick(rng.random(), FLIGHT_FALSE_MIX)
        if kind == "near_miss":
            # Outside the tolerance, inside the similarity window.
            value += rng.choice((-1, 1)) * rng.randint(15, 50)
        elif kind == "stale":
            value = stale
        elif kind == "am_pm":
            value += 720.0
        else:
            value += rng.uniform(90.0, 1350.0)
    return _clock12(value) if style == "abbrev" else _clock(value)


def generate_flight(seed: int, out: Path, shape: FlightShape) -> Fixture:
    """Flight-like snapshots: four times of day and a departure gate. The
    flights are dealt round-robin into ``shape.n_desks`` snapshots over the
    same sources."""
    rng = random.Random(f"flight:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    objects = [f"UA{100 + 7 * i}" for i in range(shape.n_objects)]
    attributes = list(FLIGHT_TIMES) + ["gate"]
    profiles, copiers = _sources(shape.n_sources, shape.copier_groups)
    cov = _coverage(rng, profiles, copiers, objects, attributes)
    schema_path = out / "schema.csv"
    kinds = {a: "TimeOfDay" for a in FLIGHT_TIMES}
    kinds["gate"] = "Text"
    _write_csv(schema_path, None, [(a, kinds[a], "") for a in attributes])
    truth, stale = _flight_truth(rng, objects)
    claimed: dict = {}
    for i in sorted(cov, key=lambda i: i in copiers):
        p = profiles[i]
        false = _false_claims(rng, cov[i], p["accuracy"])
        for key in cov[i]:
            if i in copiers and rng.random() < copiers[i][1]:
                claimed[(i, key)] = claimed[(copiers[i][0], key)]
                continue
            claimed[(i, key)] = _flight_claim(
                rng, key[1], truth[key], stale[key],
                key not in false, p)
    snapshots = _write_desks(
        out, "", objects, shape.n_desks, profiles, claimed, truth,
        lambda key, v: v if key[1] == "gate" else _clock(v))
    tol = {a: TIME_TOLERANCE_MIN for a in FLIGHT_TIMES}
    tol["gate"] = 0.0
    return Fixture(schema_path, snapshots, [p["name"] for p in profiles],
                   kinds, tol)
