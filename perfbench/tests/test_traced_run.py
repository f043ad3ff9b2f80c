"""Traced and untraced worker passes on small inputs."""

import time
from pathlib import Path

import pytest

import run
import tracer
import workloads
from test_fixtures import SMALL_FLIGHT, SMALL_SERIES, SMALL_STOCK

SRC = Path(__file__).resolve().parents[2] / "src"
SHAPES = {"stock-snapshot": SMALL_STOCK, "flight-compare": SMALL_FLIGHT,
          "stock-series": SMALL_SERIES}


def _pass(wl, tmp_path, traced, reference):
    job = tmp_path / "job.json"
    run.write_jobs(wl, job, SRC)
    return run.run_pass(wl, job, traced, run.worker_env(),
                        tmp_path / "err.log", reference)


def test_traced_fuse_writes_the_same_bytes_as_untraced(tmp_path):
    wl = workloads.build("stock-snapshot", 2, tmp_path / "in",
                         tmp_path / "out", SMALL_STOCK)
    plain = _pass(wl, tmp_path, False, {})
    assert plain.failed_ops == []
    assert len(plain.op_scaled) == len(wl.ops)
    assert plain.run_scaled_s > 0 and plain.setup_scaled_s > 0
    saved = {op.name: {p.name: p.read_bytes() for p in op.out.iterdir()}
             for op in wl.ops}
    traced = _pass(wl, tmp_path, True, {})
    assert traced.failed_ops == []
    assert traced.layers["fusion.engines_built"] > 0
    for op in wl.ops:
        got = {p.name: p.read_bytes() for p in op.out.iterdir()}
        assert got == saved[op.name], op.name


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_wrapped_layers_cover_the_traced_wall_clock(name, tmp_path):
    # Full-size inputs: on tiny ones argument parsing and set-up inside
    # cli.main outweigh the layers.
    wl = workloads.build(name, 3, tmp_path / "in", tmp_path / "out")
    p = _pass(wl, tmp_path, True, {})
    assert p.failed_ops == []
    assert run.layer_share(p.layers, p.run_s) >= run.LAYER_SHARE_GATE
    modules = sum(p.layers[f"{m}.self_s"] for m in tracer.MODULES)
    assert modules == pytest.approx(p.layers["trace.self_sum_s"])
    assert p.layers["trace.self_sum_s"] <= p.run_s


def test_untraced_work_inside_cli_main_fails_the_coverage_gate():
    tr = tracer.Tracer()
    layer = tr.wrap("fusion.run_fusion", lambda: time.sleep(0.02))

    def main(unwrapped_s):
        layer()
        time.sleep(unwrapped_s)

    traced_main = tr.wrap("cli.main", main)
    shares = []
    for unwrapped_s in (0.0, 0.2):
        tr.spans.clear()
        t0 = time.perf_counter()
        traced_main(unwrapped_s)
        wall = time.perf_counter() - t0
        shares.append(run.layer_share(tr.layer_metrics(), wall))
    assert shares[0] >= run.LAYER_SHARE_GATE > shares[1]


def test_a_changed_artifact_counts_as_a_failed_operation(tmp_path):
    wl = workloads.build("stock-series", 4, tmp_path / "in",
                         tmp_path / "out", SMALL_SERIES)
    reference = {op.name: "not-the-digest" for op in wl.ops}
    p = _pass(wl, tmp_path, False, reference)
    assert len(p.failed_ops) == len(wl.ops)
    assert "differ" in p.failed_ops[0]
