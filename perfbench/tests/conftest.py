"""Puts the benchmark's modules and the checkout's ``src`` on the path.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
for p in (str(SRC), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)
