"""One pass of a workload in a fresh process.

Usage: ``python3 perfbench/worker.py JOB.json``

The job names the checkout's ``src`` directory, the input files to load
during set-up and the CLI argument lists to run. The worker imports
truthfuse, loads the inputs once through ``dataio`` and prints ``ready``;
the parent times set-up from process start to that line. It then runs each
operation in-process through ``truthfuse.cli.main`` and prints one JSON
line with each operation's wall time and outcome, the calibration times
taken before the first operation and after each one, its peak RSS and, when
the job asks for tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

CALIBRATION_LOOPS = 200_000
CALIBRATION_SAMPLES = 3         # taken before the first op and after each


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed at
    this moment. It allocates no containers, so the program's heap and
    garbage collector do not touch it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import truthfuse
    from truthfuse import cli, dataio

    if src not in Path(truthfuse.__file__).resolve().parents:
        print(f"truthfuse imported from {truthfuse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    schema = dataio.load_schema(job["schema"])
    loaded = []
    for claims_path, gold_path in job["snapshots"]:
        claims = dataio.load_claims(claims_path, schema)
        loaded.append((claims, dataio.load_gold(gold_path, claims)))
    del loaded
    print("ready", flush=True)

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        for name in tracer.install():
            print(f"not traced: truthfuse has no {name}", file=sys.stderr)
    ops = []
    calibration = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    for i, argv in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}"
        except Exception:     # one failed operation must not stop the pass
            error = traceback.format_exc(limit=3)
        ops.append({"wall_s": time.perf_counter() - t0, "error": error})
        calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ops": ops, "calibration_s": calibration,
           "peak_rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
