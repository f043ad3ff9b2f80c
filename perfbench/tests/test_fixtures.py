import statistics

import fixtures
import workloads

SMALL_STOCK = fixtures.StockShape(n_sources=8, n_objects=3,
                                  copier_groups=((1, 2, 0.9),))
SMALL_SERIES = fixtures.StockShape(n_sources=6, n_objects=3, n_days=3,
                                   copier_groups=((1, 1, 0.9),))
SMALL_FLIGHT = fixtures.FlightShape(n_sources=5, n_objects=6,
                                    copier_groups=((1, 1, 0.85),))


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*.csv"))}


def _generate(kind, seed, out):
    if kind == "flight":
        return fixtures.generate_flight(seed, out, SMALL_FLIGHT)
    return fixtures.generate_stock(seed, out, SMALL_SERIES)


def test_one_seed_gives_identical_files_and_another_seed_different(tmp_path):
    for kind in ("stock", "flight"):
        _generate(kind, 7, tmp_path / f"{kind}-a")
        _generate(kind, 7, tmp_path / f"{kind}-b")
        _generate(kind, 8, tmp_path / f"{kind}-c")
        a = _files(tmp_path / f"{kind}-a")
        assert a == _files(tmp_path / f"{kind}-b")
        c = _files(tmp_path / f"{kind}-c")
        assert a.keys() == c.keys()
        assert any(a[k] != c[k] for k in a if "claims" in str(k))


def test_fixture_size_does_not_depend_on_the_seed(tmp_path):
    sizes = {fixtures.generate_stock(s, tmp_path / str(s), SMALL_STOCK)
             .snapshots[0].n_claims for s in (1, 2, 3)}
    assert len(sizes) == 1


def test_stock_change_column_has_a_negative_median(tmp_path):
    fx = fixtures.generate_stock(3, tmp_path, SMALL_SERIES)
    for snap in fx.snapshots:
        change = [v for (o, a), v in snap.truth.items() if a == "change"]
        assert statistics.median(change) < 0


def test_flight_times_cross_midnight(tmp_path):
    fx = fixtures.generate_flight(1, tmp_path,
                                  fixtures.FlightShape(n_objects=40))
    truth = fx.snapshots[0].truth
    crossed = [o for (o, a), v in truth.items() if a == "sched_dep"
               and truth[(o, "actual_dep")] < v - 600]
    assert crossed


def test_coarse_spellings_and_twelve_hour_clock_are_drawn(tmp_path):
    fx = fixtures.generate_stock(1, tmp_path / "s", SMALL_STOCK)
    claims = fx.snapshots[0].claims_path.read_text()
    assert any(claims.count(f"{d}M\n") for d in "123456789")
    fl = fixtures.generate_flight(1, tmp_path / "f", SMALL_FLIGHT)
    assert " pm" in fl.snapshots[0].claims_path.read_text()


def test_stock_snapshot_inputs_give_similarity_and_format_pairs(tmp_path):
    from truthfuse import dataio
    from truthfuse.config import FusionConfig
    from truthfuse.fusion import FusionEngine

    wl = workloads.build("stock-snapshot", 1, tmp_path / "in",
                         tmp_path / "out")
    schema = dataio.load_schema(wl.fixture.schema_path)
    claims = dataio.load_claims(wl.fixture.snapshots[0].claims_path, schema)
    engine = FusionEngine(claims, FusionConfig())
    assert len(engine.sim_i) > 0
    assert len(engine.fmt_claim) > 0


def test_desks_deal_out_the_claims_of_one_snapshot(tmp_path):
    def claim_rows(fx):
        return sorted(row for s in fx.snapshots
                      for row in s.claims_path.read_text().splitlines()[1:])

    one = fixtures.generate_flight(5, tmp_path / "one", SMALL_FLIGHT)
    three = fixtures.generate_flight(
        5, tmp_path / "three",
        fixtures.FlightShape(n_sources=5, n_objects=6,
                             copier_groups=((1, 1, 0.85),), n_desks=3))
    assert len(three.snapshots) == 3
    assert claim_rows(three) == claim_rows(one)
    assert sum(s.n_items for s in three.snapshots) == one.snapshots[0].n_items
