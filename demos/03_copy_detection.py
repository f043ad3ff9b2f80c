"""Detect copying from shared values and discount copied votes.

Builds the adversarial case for plain voting: one accurate independent
source against a group that replicates a mediocre original, errors
included. Shared false values push the pairwise copy posterior toward
certainty, the group's votes collapse to roughly one effective vote, and
the accurate source wins the contested items.
"""

import truthfuse as tf
from truthfuse.copydetect import detect_copying, group_commonality
from truthfuse.model import Kind
from truthfuse.synthetic import CopierGroup, SyntheticAttribute, SyntheticSpec

spec = SyntheticSpec(
    n_sources=5, n_items=400,
    attributes=(SyntheticAttribute("shares_outstanding", Kind.NUMBER, 0.01),),
    accuracies=(0.95, 0.55, 0.55, 0.55, 0.55),
    copier_groups=(CopierGroup(("s03", "s04", "s05"), "s02", 1.0),),
    false_pool=12)
claims, gold, known = tf.generate_synthetic(spec, seed=0)
config = tf.load_config()

vote = tf.run_fusion(tf.MethodSpec("vote"), claims, config)
p_vote, _ = tf.precision_recall(vote, gold, claims)
print(f"vote precision with copier group present: {p_vote:.3f}")

# Detection against the (still biased) vote selection already separates the
# group: its members share distinctive wrong values.
trust0 = {s: 0.8 for s in claims.sources}
matrix = detect_copying(claims, vote.selected, trust0, config)
print("\npairwise copy posteriors (sum of both directions):")
for s1 in claims.sources:
    row = " ".join(
        f"{matrix.probability(s1, s2) + matrix.probability(s2, s1):5.2f}"
        if s1 != s2 else "    -"
        for s2 in claims.sources)
    print(f"  {s1}: {row}")

g = group_commonality(["s02", "s03", "s04", "s05"], claims, gold)
print(f"\ncopy group report: size={g.size} schema_sim={g.schema_sim:.2f} "
      f"object_sim={g.object_sim:.2f} value_sim={g.value_sim:.2f} "
      f"avg_accuracy={g.avg_accuracy:.2f}")

copy_aware = tf.run_fusion(tf.MethodSpec("accucopy"), claims, config)
p_aware, _ = tf.precision_recall(copy_aware, gold, claims)
print(f"\ncopy-aware fusion precision (detected copying): {p_aware:.3f} "
      f"({copy_aware.rounds_used} rounds)")

with_known = tf.run_fusion(tf.MethodSpec("accucopy"), claims, config,
                           known_copiers=known)
p_known, _ = tf.precision_recall(with_known, gold, claims)
print(f"copy-aware fusion precision (declared pairs):   {p_known:.3f}")

item = next(it for it in claims.items
            if copy_aware.selected[it] != vote.selected[it])
weights = {s: w for (s, it), w in
           copy_aware.copy_matrix.independence.items() if it == item}
print(f"\nindependence weights on one flipped item ({item.object_id}):")
for s, w in sorted(weights.items()):
    print(f"  {s}: {w:.3f}")
