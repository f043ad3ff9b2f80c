import math

import pytest

from tracer import Span, Tracer, self_times


def _span(name, start, end, parent):
    s = Span(name, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),      # overlaps a: covered once
        _span("c", 8.0, 12.0, 0),     # runs past root: clipped at 10
    ]
    got = self_times(spans)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 5 - 2
    assert got == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_times_of_a_proper_nest_sum_to_the_root():
    spans = [_span("root", 0.0, 5.0, -1), _span("x", 0.5, 2.0, 0),
             _span("y", 1.0, 1.5, 1), _span("z", 2.5, 4.5, 0)]
    assert math.isclose(sum(self_times(spans)), 5.0)


def test_wrapped_calls_nest_and_pass_results_through():
    tr = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tr.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tr.wrap("outer", outer)
    assert traced_outer(1) == 4
    assert [s.name for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1].parent == 0 and tr.spans[0].parent == -1
    assert traced_outer.__wrapped__ is outer


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans[0].end >= tr.spans[0].start > 0.0
    assert tr._stack == []


def test_install_patches_every_importing_module_and_uninstall_restores():
    import truthfuse
    from truthfuse import cli, evalharness, fusion, metrics, normalize

    original = normalize.tolerances
    tr = Tracer()
    tr.install()
    try:
        for mod in (normalize, cli, evalharness, fusion, metrics, truthfuse):
            assert mod.tolerances is not original
            assert mod.tolerances.__wrapped__ is original
        assert cli.run_fusion.__wrapped__ is fusion.run_fusion.__wrapped__
    finally:
        tr.uninstall()
    for mod in (normalize, cli, evalharness, fusion, metrics, truthfuse):
        assert mod.tolerances is original


def test_install_skips_entry_points_the_program_no_longer_has(monkeypatch):
    import tracer

    gone = (("fusion", "no_such_function"), ("fusion", "FusionEngine.gone"),
            ("fusion", "NoSuchClass.method"))
    monkeypatch.setattr(tracer, "ENTRY_POINTS", tracer.ENTRY_POINTS + gone)
    tr = Tracer()
    try:
        missing = tr.install()
    finally:
        tr.uninstall()
    assert missing == [f"{m}.{a}" for m, a in gone]
