"""truthfuse benchmark: runs one workload for a fixed time and prints its
metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stock-snapshot --seed 1 \
        --seconds 55 --trace 0

The inputs are generated from ``--seed`` by the benchmark's own generator.
A run repeats the workload's pass of CLI operations, each pass in a fresh
worker process, until ``--seconds`` have gone by (and at least
``MIN_PASSES`` times). Every operation's artifacts are checked; an
operation fails when it raises or exits non-zero, misses an artifact, has
a wrong row count, or writes deterministic artifacts that differ from the
first pass.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: medians over passes. Times are scaled to a reference
machine speed. The worker times a fixed pure-Python loop
(``worker.calibrate``) a few times right after set-up and after every
operation. Each operation's wall time is multiplied by
``REFERENCE_CALIBRATION_S`` over the median of the loop times just before
and after it, and set-up time by the same over the loop times right after
it. On a shared machine the CPU speed drifts (passes slowed 1.6x within
a minute), and the program slows with the loop, so raw wall times of runs
minutes apart do not compare; they are printed too, but not gated.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics: medians over the traced passes, plus the tracing
overhead. Per-layer times are not scaled. The last line of standard output
is the JSON result; the lines before it print every metric by name and
unit, the per-subcommand times and the fixture sizes.

``FusionResult.wall_time`` and ``timings.csv`` are deliberately not used:
they leave out engine construction and most of each subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import CALIBRATION_SAMPLES  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 120.0      # a pass that hangs is killed and counted failed
RUN_CEILING_S = 150.0       # no pass starts after this, whatever --seconds
# Traced passes must attribute this share of their wall clock to the
# wrapped entry points below ``cli.main``; the rest is work no span covers.
LAYER_SHARE_GATE = 0.90
# The calibration loop's median time on the machine in perfbench/README.md.
REFERENCE_CALIBRATION_S = 0.020
WORKER = Path(__file__).resolve().parent / "worker.py"


@dataclass
class Pass:
    traced: bool
    setup_s: float = 0.0
    setup_scaled_s: float = 0.0
    op_walls: list[float] = field(default_factory=list)
    op_scaled: list[float] = field(default_factory=list)
    failed_ops: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.op_walls)

    @property
    def run_scaled_s(self) -> float:
        return sum(self.op_scaled)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRUTHFUSE_") and k != "PYTHONPATH"}
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def write_jobs(wl: workloads.Workload, job: Path, src: Path) -> None:
    """The worker's job file, and its traced twin next to it."""
    body = {"src": str(src), **workloads.setup_inputs(wl),
            "ops": [op.argv for op in wl.ops]}
    for path, traced in ((job, False), (Path(f"{job}.trace"), True)):
        path.write_text(json.dumps({**body, "trace": traced}),
                        encoding="utf-8")


def run_pass(wl: workloads.Workload, job: Path, traced: bool, env: dict,
             err_log: Path, reference: dict[str, str]) -> Pass:
    """One worker process over all the workload's operations, then the
    checks of every artifact it wrote."""
    for op in wl.ops:
        shutil.rmtree(op.out, ignore_errors=True)
    p = Pass(traced)
    with open(err_log, "a", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER),
             f"{job}.trace" if traced else str(job)],
            stdout=subprocess.PIPE, stderr=err, env=env, text=True)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            p.setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        p.failed_ops = [f"{op.name}: worker exited with {proc.returncode} "
                        f"(see {err_log.name})" for op in wl.ops]
        return p
    result = json.loads(lines[-1])
    p.peak_rss_mb = result["peak_rss_mb"]
    p.layers = result.get("layers", {})
    # calibration_s holds CALIBRATION_SAMPLES loop times per boundary:
    # after set-up, then after each operation.
    cal = result["calibration_s"]
    k = CALIBRATION_SAMPLES
    p.setup_scaled_s = p.setup_s * _speed(cal[:k])
    for i, (op, r) in enumerate(zip(wl.ops, result["ops"])):
        p.op_walls.append(r["wall_s"])
        p.op_scaled.append(r["wall_s"] * _speed(cal[i * k:(i + 2) * k]))
        problems = ([f"{op.name}: {r['error']}"] if r["error"]
                    else workloads.check(op))
        if not problems:
            d = workloads.digest(op)
            if reference.setdefault(op.name, d) != d:
                problems = [f"{op.name}: artifacts differ from the first "
                            f"pass of this seed"]
        p.failed_ops += problems[:1]
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)
    return p


def _speed(calibration_s: list[float]) -> float:
    """Factor that scales a wall time to the reference machine speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration_s)


def layer_share(layers: dict, run_s: float) -> float:
    """Share of a traced pass's wall clock that the wrapped entry points
    below ``cli.main`` account for."""
    return (layers["trace.self_sum_s"] - layers["cli.main_self_s"]) / run_s


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "truthfuse" / "__init__.py").is_file():
        print(f"error: no truthfuse sources under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = (root / ".perfbench-work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, spec, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, spec: dict, src: Path, work: Path) -> int:
    wl = workloads.build(args.workload, args.seed, work / "inputs",
                         work / "out")
    job = work / "job.json"
    write_jobs(wl, job, src)
    env = worker_env()
    err_log = work / "worker-stderr.log"
    reference: dict[str, str] = {}

    passes: list[Pass] = []
    scores: list[float] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(wl, job, traced, env, err_log, reference))
        if len(passes) == 1 and not passes[0].failed_ops:
            # Answers are deterministic, so the first pass scores them all.
            scores = [s for s in (workloads.precision(op, wl.fixture)
                                  for op in wl.ops) if s is not None]
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        enough = len(passes) >= MIN_PASSES * (2 if args.trace else 1)
        if elapsed > RUN_CEILING_S or (
                enough and elapsed + per_pass > args.seconds):
            break

    attempted = len(wl.ops) * len(passes)
    failed = sum(len(p.failed_ops) for p in passes)
    problems = [m for p in passes for m in p.failed_ops]
    plain = [p for p in passes if not p.traced and not p.failed_ops]
    traced = [p for p in passes if p.traced and not p.failed_ops]

    fx = wl.fixture
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print(f"fixture: sources={fx.n_sources} "
          f"snapshots={len(fx.snapshots)} "
          f"claims={'+'.join(str(s.n_claims) for s in fx.snapshots)} "
          f"items={fx.snapshots[0].n_items}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"operations: {attempted} attempted, {failed} failed")

    if args.trace:
        metrics, gate_problems = _per_layer(spec, wl, plain, traced)
    else:
        metrics, gate_problems = _end_to_end(spec, wl, plain, scores)
    problems += gate_problems
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed = {failed}/{attempted}")
    for msg in problems:
        print(f"problem: {msg}")
    if problems and err_log.is_file():
        sys.stderr.write(err_log.read_text(encoding="utf-8")[-4000:])
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _end_to_end(spec: dict, wl: workloads.Workload, plain: list[Pass],
                scores: list[float]):
    if not plain:
        return {}, ["no pass completed without failures"]
    by_sub: dict[str, list[float]] = {}
    for p in plain:
        sums: dict[str, float] = {}
        for op, t in zip(wl.ops, p.op_scaled):
            sums[op.argv[0]] = sums.get(op.argv[0], 0.0) + t
        for sub, total in sums.items():
            by_sub.setdefault(sub, []).append(total)
    for sub, totals in by_sub.items():
        print(f"{sub}_s = {median(totals):.6g} s  (median of {len(totals)}; "
              f"not gated, see run_s)")
    print(f"unscaled wall clock: setup "
          f"{median([p.setup_s for p in plain]):.6g} s, run "
          f"{median([p.run_s for p in plain]):.6g} s (not gated)")
    values = {
        "setup_s": median([p.setup_scaled_s for p in plain]),
        "run_s": median([p.run_scaled_s for p in plain]),
        "peak_rss_mb": median([p.peak_rss_mb for p in plain]),
        "precision": sum(scores) / len(scores) if scores else 0.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}, []


def _per_layer(spec: dict, wl: workloads.Workload, plain: list[Pass],
               traced: list[Pass]):
    if not traced or not plain:
        return {}, ["no traced and untraced pass pair completed"]
    problems = []
    for p in traced:
        share = layer_share(p.layers, p.run_s)
        if share < LAYER_SHARE_GATE:
            problems.append(f"wrapped entry points cover {share:.1%} of the "
                            f"traced wall clock")
    first = traced[0].layers
    counts = [n for n in first if not n.endswith("_s")]
    for name in counts:
        if any(p.layers[name] != first[name] for p in traced):
            problems.append(f"{name} differs between traced passes")
    if wl.name == "stock-snapshot" and not (first["fusion.sim_pairs"] > 0
                                            and first["fusion.format_pairs"]
                                            > 0):
        problems.append("stock-snapshot fixture has no similarity or "
                        "format pairs")
    values = {n: first[n] for n in counts}
    for name in first:
        if name.endswith("_s"):
            values[name] = median([p.layers[name] for p in traced])
    traced_run = median([p.run_s for p in traced])
    values["trace.wall_s"] = traced_run
    values["trace.overhead_s"] = traced_run - median([p.run_s for p in plain])
    values["trace.layer_share"] = median([layer_share(p.layers, p.run_s)
                                          for p in traced])
    modules = sorted(((values[f"{m}.self_s"], m) for m in tracer.MODULES),
                     reverse=True)
    print("layer shares of traced wall: " + ", ".join(
        f"{m} {t / traced_run:.1%}" for t, m in modules))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}, problems


if __name__ == "__main__":
    sys.exit(main())
