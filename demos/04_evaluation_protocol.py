"""The full evaluation protocol on synthetic snapshots.

Covers the source-addition recall curve (sources ranked by coverage x
accuracy), precision stratified by dominance factor, and the multi-snapshot
precision summary.
"""

import truthfuse as tf
from truthfuse.evalharness import (
    incremental_curve,
    precision_by_dominance,
    time_series_summary,
    timed_run,
)
from truthfuse.model import Kind
from truthfuse.synthetic import CopierGroup, SyntheticAttribute, SyntheticSpec

spec = SyntheticSpec(
    n_sources=8, n_items=250,
    attributes=(SyntheticAttribute("open_price", Kind.NUMBER, 0.01),),
    accuracies=(0.95, 0.9, 0.85, 0.8, 0.55, 0.55, 0.55, 0.55),
    coverage=(1.0, 0.95, 0.9, 0.9, 1.0, 1.0, 1.0, 1.0),
    copier_groups=(CopierGroup(("s06", "s07", "s08"), "s05", 1.0),),
    false_pool=10)
config = tf.load_config()
claims, gold, _ = tf.generate_synthetic(spec, seed=3)

method = tf.MethodSpec.parse("PopAccu")
print(f"== source-addition curve ({method.label()}) ==")
print("sources ranked by coverage x accuracy; recall vs the full gold set")
for p in incremental_curve(method, claims, gold, config):
    bar = "#" * int(round(p.recall * 40))
    print(f"  k={p.k} (+{p.added_source})  recall={p.recall:.3f} {bar}")
print("adding the low-quality copier block only hurts.\n")

# One engine and its gold match serve the run, its scores and the report;
# an Attr method runs on the engine's per-attribute view.
engine = tf.FusionEngine(claims, config.fusion).scoped(
    method.per_attribute_trust)
match = engine.gold_match(gold.entries)
result = tf.run_fusion(method, claims, config, engine=engine)
rows = precision_by_dominance(result, gold, claims, match=match)
print("== precision by dominance factor ==")
print(f"  {'bucket':>12} {'items':>6} {'method':>7} {'vote':>6}")
for row in rows:
    if row["count"] == 0:
        continue
    print(f"  [{row['lo']:.1f}, {row['hi']:.1f})  {row['count']:>6} "
          f"{row['precision']:>7.3f} {row['vote_precision']:>6.3f}")
print("the gains concentrate where no value has a strong majority.\n")

print("== one-method report ==")
report = timed_run(result, claims, config, gold, engine=engine, match=match)
print(f"  precision={report.precision:.3f} recall={report.recall:.3f} "
      f"with-trust={report.precision_with_trust:.3f}")
print(f"  trust deviation={report.trust_deviation:.3f} "
      f"difference={report.trust_difference:+.3f}")
print(f"  {report.rounds} rounds in {report.wall_time * 1000:.1f} ms\n")

print("== precision over a series of snapshots ==")
snaps, golds = [], []
for day in range(5):
    c, g, _ = tf.generate_synthetic(spec, seed=100 + day)
    snaps.append(c)
    golds.append(g)
for name in ("Vote", "PopAccu", "AccuFormatAttr", "AccuCopy"):
    avg, lo, std = time_series_summary(tf.MethodSpec.parse(name),
                                       snaps, golds, config)
    print(f"  {name:>15}: avg={avg:.3f} min={lo:.3f} deviation={std:.3f}")
