"""Sizes of each workload's generated inputs, as truthfuse sees them.

Usage, from the root of a checkout: ``python3 perfbench/stats.py [SEED]``

For the first snapshot (the first desk or day) of every workload it
prints the claims, items, candidates (tolerance buckets), contested items
(two or more candidates), similarity pairs and format pairs of one
global-trust ``FusionEngine``, plus the non-blank line count of ``src/``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402


def fixture_stats(name: str, seed: int, work: Path) -> dict:
    from truthfuse import dataio
    from truthfuse.config import FusionConfig
    from truthfuse.fusion import FusionEngine

    wl = workloads.build(name, seed, work / name, work / name / "out")
    schema = dataio.load_schema(wl.fixture.schema_path)
    claims = dataio.load_claims(wl.fixture.snapshots[0].claims_path, schema)
    engine = FusionEngine(claims, FusionConfig())
    return {
        "snapshots": len(wl.fixture.snapshots),
        "sources": len(claims.sources),
        "claims": len(claims),
        "items": engine.n_items,
        "candidates": engine.n_cands,
        "contested_items": int((engine.item_ncand >= 2).sum()),
        "sim_pairs": len(engine.sim_i),
        "format_pairs": len(engine.fmt_claim),
    }


def src_lines() -> int:
    return sum(1 for p in sorted(SRC.rglob("*.py"))
               for line in p.read_text(encoding="utf-8").splitlines()
               if line.strip())


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        stats = {name: fixture_stats(name, seed, Path(tmp))
                 for name in workloads.WHY}
    print(json.dumps({"seed": seed, "src_nonblank_lines": src_lines(),
                      "workloads": stats}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
