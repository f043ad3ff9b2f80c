"""Spans around truthfuse's public entry points, recorded from outside.

``Tracer.install()`` replaces each wrapped function in every ``truthfuse``
module that imported it by name (``cli``, ``evalharness``, ``metrics`` and
``copydetect`` bind several of them directly), and each wrapped method on
its class. Spans live in memory until ``layer_metrics()`` turns them into
per-layer self times and counts at the end of the run. Tracing is only
ever installed in the traced worker, never in a timed one.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from itertools import count

# (module, attribute path) of every traced entry point. Methods are given
# as "Class.method". The private ``cli`` helpers hold the histogram and
# summary loops of ``profile``; without them that work would be
# indistinguishable from work no span covers.
ENTRY_POINTS = (
    ("cli", "main"), ("cli", "_write_attribute_summary"),
    ("cli", "_write_histograms"), ("cli", "_conflict_rows"),
    ("dataio", "load_schema"), ("dataio", "load_claims"),
    ("dataio", "load_gold"), ("dataio", "load_trust"),
    ("dataio", "load_known_copiers"), ("dataio", "write_rows"),
    ("dataio", "write_trust"), ("dataio", "write_schema"),
    ("dataio", "write_claims"), ("dataio", "write_gold"),
    ("model", "ClaimSet.__init__"), ("model", "ClaimSet.restrict"),
    ("normalize", "tolerances"), ("normalize", "bucketize"),
    ("metrics", "profile_items"), ("metrics", "profile_sources"),
    ("metrics", "source_accuracy"),
    ("fusion", "run_fusion"), ("fusion", "sample_trust"),
    ("fusion", "FusionEngine.__init__"), ("fusion", "FusionEngine.step"),
    ("fusion", "FusionEngine.votes_once"),
    ("fusion", "FusionEngine.build_result"),
    ("copydetect", "detect_copying"), ("copydetect", "run_accucopy"),
    ("copydetect", "group_commonality"),
    ("evalharness", "incremental_curve"), ("evalharness", "timed_run"),
    ("evalharness", "precision_by_dominance"),
    ("evalharness", "precision_recall"),
)

# Per-layer self-time metrics: metric name -> spans whose self time it sums.
SELF_TIME_METRICS = {
    "dataio.load_s": ("dataio.load_schema", "dataio.load_claims",
                      "dataio.load_gold", "dataio.load_trust",
                      "dataio.load_known_copiers"),
    "dataio.write_s": ("dataio.write_rows", "dataio.write_trust",
                       "dataio.write_schema", "dataio.write_claims",
                       "dataio.write_gold"),
    "model.claimset_build_s": ("model.ClaimSet.__init__",),
    "model.restrict_s": ("model.ClaimSet.restrict",),
    "normalize.tolerances_s": ("normalize.tolerances",),
    "normalize.bucketize_s": ("normalize.bucketize",),
    "metrics.profile_items_s": ("metrics.profile_items",),
    "metrics.source_accuracy_s": ("metrics.source_accuracy",),
    "fusion.engine_build_s": ("fusion.FusionEngine.__init__",),
    "fusion.rounds_s": ("fusion.FusionEngine.step",),
    "fusion.votes_s": ("fusion.FusionEngine.votes_once",),
    "fusion.select_s": ("fusion.FusionEngine.build_result",),
    "fusion.sample_trust_s": ("fusion.sample_trust",),
    "copydetect.detect_s": ("copydetect.detect_copying",),
    "copydetect.accucopy_iter_s": ("copydetect.run_accucopy",),
    "copydetect.group_s": ("copydetect.group_commonality",),
    "evalharness.curve_s": ("evalharness.incremental_curve",),
    "evalharness.timed_run_s": ("evalharness.timed_run",),
    "evalharness.dominance_s": ("evalharness.precision_by_dominance",),
    "evalharness.precision_recall_s": ("evalharness.precision_recall",),
    "cli.main_self_s": ("cli.main",),
    "cli.summaries_s": ("cli._write_attribute_summary",
                        "cli._write_histograms", "cli._conflict_rows"),
}
# Call counts: metric name -> span name.
CALL_COUNT_METRICS = {
    "model.claimsets_built": "model.ClaimSet.__init__",
    "normalize.tolerances_calls": "normalize.tolerances",
    "normalize.bucketize_calls": "normalize.bucketize",
    "metrics.source_accuracy_calls": "metrics.source_accuracy",
    "fusion.engines_built": "fusion.FusionEngine.__init__",
    "fusion.rounds": "fusion.FusionEngine.step",
    "fusion.run_fusion_calls": "fusion.run_fusion",
}
MODULES = ("cli", "dataio", "model", "normalize", "metrics", "fusion",
           "copydetect", "evalharness")


class Span:
    """One call of a traced entry point."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping or out-of-bounds children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans and the counts read off arguments and return values."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = count()
        self.claims_loaded = 0
        self.tolerance_snapshots: set[int] = set()
        self.bucketized_items: set[tuple[int, object]] = set()
        self.engine_snapshots: set[tuple[int, bool]] = set()
        self.candidates = 0
        self.sim_pairs = 0
        self.format_pairs = 0
        self.accucopy_rounds = 0
        self.copy_pairs = 0
        self.curve_points = 0

    # -- recording ------------------------------------------------------------

    def _serial(self, claims) -> int:
        """A number per live ClaimSet; unlike id(), never reused."""
        s = self._serials.get(claims)
        if s is None:
            s = self._serials[claims] = next(self._next_serial)
        return s

    def wrap(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _hooks(self) -> dict:
        def loaded(args, result):
            self.claims_loaded += len(result)

        def tolerances(args, result):
            self.tolerance_snapshots.add(self._serial(args[0]))

        def bucketize(args, result):
            self.bucketized_items.add((self._serial(args[1]), args[0]))

        def engine(args, result):
            eng = args[0]
            self.engine_snapshots.add((self._serial(eng.claims),
                                       bool(eng.per_attribute)))
            self.candidates += eng.n_cands
            self.sim_pairs += len(eng.sim_i)
            self.format_pairs += len(eng.fmt_claim)

        def accucopy(args, result):
            self.accucopy_rounds += result.rounds_used
            self.copy_pairs += len(result.copy_matrix.prob)

        def detect(args, result):
            self.copy_pairs += len(result.prob)

        def curve(args, result):
            self.curve_points += len(result)

        return {
            "dataio.load_claims": loaded,
            "normalize.tolerances": tolerances,
            "normalize.bucketize": bucketize,
            "fusion.FusionEngine.__init__": engine,
            "copydetect.run_accucopy": accucopy,
            "copydetect.detect_copying": detect,
            "evalharness.incremental_curve": curve,
        }

    def install(self) -> list[str]:
        """Wrap every entry point in every truthfuse module bound to it.

        Returns the entry points the program no longer has. They are
        skipped; the work they did then shows as uncovered ``cli.main``
        time, which the coverage gate reports.
        """
        import truthfuse  # noqa: F401  (loads every submodule)

        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "truthfuse" or n.startswith("truthfuse.")]
        missing = []
        for mod_name, attr in ENTRY_POINTS:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"truthfuse.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = getattr(home, cls_name, object).__dict__.get(meth)
                if original is None:
                    missing.append(name)
                    continue
                self._patch(getattr(home, cls_name), meth, original,
                            self.wrap(name, original, hooks.get(name)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                missing.append(name)
                continue
            traced = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, traced)
        return missing

    def _patch(self, owner, attr: str, original, traced) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (seconds) and counts over all spans."""
        selfs = self_times(self.spans)
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, selfs):
            by_name[s.name] += t
            calls[s.name] += 1
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(by_name[n] for n in names)
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                t for n, t in by_name.items() if n.split(".")[0] == mod)
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = calls[name]
        out["cli.write_s"] = sum(
            s.end - s.start for s in self.spans
            if s.name.startswith("dataio.write_") and s.parent >= 0
            and self.spans[s.parent].name == "cli.main")
        out["dataio.claims_loaded"] = self.claims_loaded
        out["normalize.tolerances_per_snapshot"] = _ratio(
            calls["normalize.tolerances"], len(self.tolerance_snapshots))
        out["normalize.bucketize_per_item"] = _ratio(
            calls["normalize.bucketize"], len(self.bucketized_items))
        out["fusion.engines_per_snapshot"] = _ratio(
            calls["fusion.FusionEngine.__init__"], len(self.engine_snapshots))
        out["fusion.candidates"] = self.candidates
        out["fusion.sim_pairs"] = self.sim_pairs
        out["fusion.format_pairs"] = self.format_pairs
        out["copydetect.accucopy_rounds"] = self.accucopy_rounds
        out["copydetect.copy_pairs"] = self.copy_pairs
        out["evalharness.curve_points"] = self.curve_points
        out["trace.spans"] = len(self.spans)
        out["trace.self_sum_s"] = sum(selfs)
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
