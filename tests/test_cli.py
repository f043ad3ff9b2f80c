"""Command-line pipeline: subcommands, file artifacts, config precedence,
error diagnostics, determinism."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import cli, dataio, metrics
from truthfuse.cli import main
from truthfuse.config import load_config

from conftest import claims_of, edge_snapshot, synthetic_snapshot

SPEC = {
    "label": "cli-demo",
    "n_sources": 5,
    "n_items": 40,
    "false_pool": 8,
    "attributes": [
        {"name": "price", "kind": "Number", "tolerance_param": 0.01},
        {"name": "gate", "kind": "Text"},
    ],
    "accuracies": [0.95, 0.85, 0.6, 0.6, 0.6],
    "copier_groups": [
        {"members": ["s04", "s05"], "original": "s03", "rate": 1.0}],
}


@pytest.fixture
def dataset(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    data = tmp_path / "data"
    rc = main(["generate", "--spec", str(spec_path), "--seed", "3",
               "--out", str(data)])
    assert rc == 0
    return data


def run_ok(argv):
    assert main(argv) == 0


class TestGenerate:

    def test_artifacts_written(self, dataset):
        for name in ("claims.csv", "gold.csv", "schema.csv", "copiers.csv"):
            assert (dataset / name).exists()

    def test_same_seed_byte_identical(self, dataset, tmp_path):
        spec_path = tmp_path / "spec.json"
        other = tmp_path / "data2"
        run_ok(["generate", "--spec", str(spec_path), "--seed", "3",
                "--out", str(other)])
        for name in ("claims.csv", "gold.csv", "schema.csv", "copiers.csv"):
            assert (dataset / name).read_bytes() == \
                (other / name).read_bytes()


class TestProfile:

    def test_tables_and_histograms(self, dataset, tmp_path):
        out = tmp_path / "prof"
        run_ok(["profile", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"), "--out", str(out)])
        for name in ("items.csv", "sources.csv", "attributes.csv",
                     "conflicts.csv", "hist_num_values.csv",
                     "hist_entropy.csv", "hist_dominance.csv",
                     "hist_deviation_relative.csv",
                     "hist_item_redundancy.csv",
                     "hist_object_redundancy.csv"):
            assert (out / name).exists(), name
        items = (out / "items.csv").read_text().splitlines()
        assert items[0].startswith("object,attribute,providers")
        assert len(items) == 1 + 80   # 40 items x 2 attributes

    def test_histograms_count_every_item_without_conflicts(self, tmp_path):
        """Without a contested item every entropy and deviation is 0, and
        the histograms still count each item."""
        (tmp_path / "schema.csv").write_text("price,Number,0.01\n",
                                             encoding="utf-8")
        (tmp_path / "claims.csv").write_text(
            "source,object,attribute,value\n"
            "s1,o1,price,100\ns2,o1,price,100\ns1,o2,price,7\n",
            encoding="utf-8")
        out = tmp_path / "prof"
        run_ok(["profile", "--claims", str(tmp_path / "claims.csv"),
                "--schema", str(tmp_path / "schema.csv"), "--out", str(out)])
        for name in ("entropy", "deviation_relative"):
            rows = (out / f"hist_{name}.csv").read_text().splitlines()
            assert rows[1:] == ["0,0.25,2" if name == "entropy"
                                else "0,0.1,2"], name

    def test_profile_without_gold(self, dataset, tmp_path):
        out = tmp_path / "prof2"
        run_ok(["profile", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"), "--out", str(out)])
        sources = (out / "sources.csv").read_text().splitlines()
        assert "null" in sources[1]

    def test_profile_snapshot_series(self, dataset, tmp_path):
        out = tmp_path / "prof3"
        pair = f"{dataset / 'claims.csv'}:{dataset / 'gold.csv'}"
        run_ok(["profile", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--snapshot", pair, "--out", str(out)])
        series = (out / "accuracy_over_time.csv").read_text().splitlines()
        assert series[0] == "source,snapshot,accuracy"
        assert len(series) == 1 + 5 * 2   # 5 sources x 2 snapshots
        sources = (out / "sources.csv").read_text().splitlines()
        assert sources[0].endswith("accuracy_deviation")
        # identical snapshots give a zero deviation series
        assert sources[1].endswith(",0")


def test_attribute_summary_matches_per_attribute_loop(tmp_path):
    """``attributes.csv`` equals the table of one scan per attribute."""
    config = load_config()
    for claims, _ in (edge_snapshot(), synthetic_snapshot()):
        profiles = metrics.profile_items(claims)
        cli._write_attribute_summary(tmp_path, claims, profiles, config)
        rows = []
        for name in sorted({it.attribute for it in claims.items}):
            ps = [profiles[it] for it in claims.items if it.attribute == name]
            devs = [p.deviation for p in ps if p.deviation is not None]
            providers = len({c.source for c in claims_of(claims)
                             if c.item.attribute == name})
            rows.append((
                name, claims.schema[name].kind.value, providers, len(ps),
                sum(p.num_values for p in ps) / len(ps),
                sum(p.entropy for p in ps) / len(ps),
                sum(devs) / len(devs) if devs else None))
        dataio.write_rows(tmp_path / "want.csv",
                          ["attribute", "kind", "providers", "items",
                           "avg_num_values", "avg_entropy", "avg_deviation"],
                          rows, config.delimiter)
        assert ((tmp_path / "attributes.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


def ref_hist(values, width, hard_max=None):
    """``cli._hist`` as it was, one scan of every value per bin, with at
    least the bin [0, width]."""
    if not values:
        return []
    top = hard_max if hard_max is not None else max(values)
    edges = [0.0]
    while len(edges) < 2 or edges[-1] < top - 1e-12:
        edges.append(round(edges[-1] + width, 12))
    rows = []
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        last = i == len(edges) - 2
        rows.append((lo, hi,
                     sum(1 for v in values
                         if lo <= v < hi or (last and v == hi))))
    return rows


EDGY = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 5.0,
                        10.0, -0.1, 1.0000000000001, math.inf, -math.inf])


@given(st.one_of(st.lists(st.one_of(EDGY, st.floats(-1.0, 12.0)),
                         max_size=30),
                st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                         max_size=5)),
       st.sampled_from([0.1, 0.25, 5.0]), st.sampled_from([None, 1.0]))
@settings(max_examples=300, deadline=None)
def test_hist_counts_as_the_per_bin_scan(values, width, hard_max):
    """Edges, the closed last bin and the values left out (below 0, above
    the last edge, NaN) are those of the per-bin scan."""
    if hard_max is None:
        values = [v for v in values if math.isfinite(v)]
    got = cli._hist(values, width, hard_max)
    assert got == ref_hist(values, width, hard_max)
    assert [type(c) for _, _, c in got] == [int] * len(got)
    with_nan = values + [math.nan]
    assert (cli._hist(with_nan, width, 1.0)
            == ref_hist(with_nan, width, 1.0))


@pytest.mark.parametrize("width", [0.1, 0.25])
def test_hist_of_all_zero_values_counts_every_value(width):
    """A snapshot without a contested item has entropies all 0: they fill
    the one bin [0, width], closed like every last bin."""
    assert cli._hist([0.0, 0.0, 0.0], width) == [(0.0, width, 3)]


class TestFuse:

    def test_selection_format(self, dataset, tmp_path):
        out = tmp_path / "fuse"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuPr", "--out", str(out)])
        lines = (out / "selection.csv").read_text().splitlines()
        assert lines[0] == "object,attribute,value,vote,confidence"
        assert len(lines) == 1 + 80
        assert (out / "trust.csv").exists()
        assert (out / "convergence.csv").exists()

    def test_unknown_method_diagnostic(self, dataset, tmp_path, capsys):
        rc = main(["fuse", "--claims", str(dataset / "claims.csv"),
                   "--schema", str(dataset / "schema.csv"),
                   "--method", "AccuWrong", "--out", str(tmp_path / "x")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "AccuWrong" in err and "Vote" in err

    def test_missing_file_diagnostic(self, tmp_path, capsys):
        rc = main(["fuse", "--claims", str(tmp_path / "nope.csv"),
                   "--schema", str(tmp_path / "nope2.csv"),
                   "--method", "Vote", "--out", str(tmp_path / "x")])
        assert rc != 0

    def test_empty_claims_file_diagnostic(self, tmp_path, capsys):
        schema = tmp_path / "schema.csv"
        schema.write_text("price,Number,0.01\n", encoding="utf-8")
        claims = tmp_path / "claims.csv"
        claims.write_text("source,object,attribute,value\n", encoding="utf-8")
        rc = main(["fuse", "--claims", str(claims), "--schema", str(schema),
                   "--method", "Vote", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "empty" in capsys.readouterr().err

    def test_input_trust_single_pass(self, dataset, tmp_path):
        trust = tmp_path / "trust.csv"
        trust.write_text("source,trust\ns01,0.95\ns02,0.85\ns03,0.6\n"
                         "s04,0.6\ns05,0.6\n", encoding="utf-8")
        out = tmp_path / "fuse_t"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuPr", "--input-trust", str(trust),
                "--out", str(out)])
        conv = (out / "convergence.csv").read_text().splitlines()
        assert len(conv) == 1   # header only: no iteration

    def test_accucopy_emits_pair_matrix(self, dataset, tmp_path):
        out = tmp_path / "fuse_ac"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuCopy", "--out", str(out)])
        pairs = (out / "copy_pairs.csv").read_text().splitlines()
        assert pairs[0] == "copier,original,probability"
        assert len(pairs) > 1


    def fuse_accucopy(self, dataset, out, *flags):
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuCopy", "--no-detect", *flags,
                "--out", str(out)])
        return out

    def test_known_copiers_without_detection(self, dataset, tmp_path):
        """The declared copiers are the only copy pairs reported."""
        out = self.fuse_accucopy(dataset, tmp_path / "known",
                                 "--known-copiers",
                                 str(dataset / "copiers.csv"))
        assert ((out / "copy_pairs.csv").read_bytes()
                == (dataset / "copiers.csv").read_bytes())
        assert len((out / "copy_pairs.csv").read_text().splitlines()) == 3

    def test_no_detection_runs_as_accuformat(self, dataset, tmp_path):
        """With no copying, AccuCopy's trust and rounds are AccuFormat's."""
        out = self.fuse_accucopy(dataset, tmp_path / "nodetect")
        fmt = tmp_path / "fmt"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuFormat", "--out", str(fmt)])
        for name in ("trust.csv", "convergence.csv"):
            assert (out / name).read_bytes() == (fmt / name).read_bytes()
        assert ((out / "copy_pairs.csv").read_text()
                == "copier,original,probability\n")

    @pytest.mark.parametrize("head", [
        "", "source,trust\n", "\n Source , TRUST \n",
        "source,attribute,trust\n"])
    def test_trust_file_header_is_optional(self, tmp_path, head):
        path = tmp_path / "trust.csv"
        path.write_text(head + "s01,0.9\ns02,0.5\n", encoding="utf-8")
        assert dataio.load_trust(path) == {"s01": 0.9, "s02": 0.5}

    @pytest.mark.parametrize("head", [
        "", "copier,original,probability\n",
        "\n Copier,ORIGINAL , probability\n"])
    def test_copier_file_header_is_optional(self, tmp_path, head):
        path = tmp_path / "copiers.csv"
        path.write_text(head + "s04,s03,1\ns05,s03,0.5\n", encoding="utf-8")
        assert dataio.load_known_copiers(path) == {
            ("s04", "s03"): 1.0, ("s05", "s03"): 0.5}


class TestCopyDetect:

    def test_pairs_and_groups(self, dataset, tmp_path):
        out = tmp_path / "cd"
        run_ok(["copydetect", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"), "--out", str(out)])
        pairs = (out / "pairs.csv").read_text().splitlines()
        assert pairs[0] == "copier,original,probability"
        groups = (out / "groups.csv").read_text().splitlines()
        assert groups[0] == \
            "remarks,size,schema_sim,object_sim,value_sim,avg_accuracy"
        # the planted rate-1.0 group of three is found
        assert any(",3," in g for g in groups[1:])

    def test_declared_groups_file(self, dataset, tmp_path):
        groups_file = tmp_path / "groups.csv"
        groups_file.write_text("remarks,members\nclaimed,s03;s04;s05\n",
                               encoding="utf-8")
        out = tmp_path / "cd2"
        run_ok(["copydetect", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--groups", str(groups_file), "--out", str(out)])
        body = (out / "groups.csv").read_text().splitlines()[1]
        assert body.startswith("claimed,3,")
        # rate-1.0 copiers share every value with the original
        assert ",1," in body or ",1.0," in body or ",1\n" in body + "\n"

    def test_malformed_groups_file_is_a_load_error(self, dataset, tmp_path,
                                                   capsys):
        groups_file = tmp_path / "groups.csv"
        groups_file.write_text("remarks,members\nlonely\n", encoding="utf-8")
        assert main(["copydetect", "--claims", str(dataset / "claims.csv"),
                     "--schema", str(dataset / "schema.csv"),
                     "--groups", str(groups_file),
                     "--out", str(tmp_path / "cd")]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: .*groups\.csv:2: ", err), err

    def test_groups_file_rows(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("remarks,members\n\n a , s1; s2 \n,\nb,s3;s1\n",
                        encoding="utf-8")
        assert dataio.load_groups(path) == [
            ("a", ("s1", "s2")), ("", ("",)), ("b", ("s3", "s1"))]

    def test_groups_file_skips_its_header_only(self, tmp_path):
        """A group whose remark reads like the header is still a group."""
        path = tmp_path / "groups.csv"
        path.write_text("\nremarks,members\nremarks,s01;s02\n"
                        "claimed,s01;s03\n", encoding="utf-8")
        assert dataio.load_groups(path) == [
            ("remarks", ("s01", "s02")), ("claimed", ("s01", "s03"))]

    @pytest.mark.parametrize("head", [
        "", "\n", "remarks,members\n", "\n Remarks , MEMBERS \n"])
    def test_groups_file_header_is_optional(self, tmp_path, head):
        """The first row is skipped only when it is the header."""
        path = tmp_path / "groups.csv"
        path.write_text(head + "first,s03;s04\nother,s01;s02\n",
                        encoding="utf-8")
        assert dataio.load_groups(path) == [
            ("first", ("s03", "s04")), ("other", ("s01", "s02"))]

    def test_groups_need_two_members_with_claims(self, dataset, tmp_path):
        """A group left with fewer than two members that have claims is
        skipped like a declared group of fewer than two; the rest are
        reported."""
        groups_file = tmp_path / "groups.csv"
        groups_file.write_text(
            "remarks,members\nghosts,s03;nobody;ghost\nsolo,s04\n"
            "claimed,s03;s04;s05;nobody\n", encoding="utf-8")
        out = tmp_path / "cd3"
        run_ok(["copydetect", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--groups", str(groups_file), "--out", str(out)])
        rows = (out / "groups.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["claimed", "3"]]


class TestEvaluateCompare:

    def test_evaluate_artifacts(self, dataset, tmp_path):
        out = tmp_path / "ev"
        run_ok(["evaluate", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--method", "AccuPr", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 1
        entry = report[0]
        for key in ("method", "precision", "recall", "precision_with_trust",
                    "trust_deviation", "trust_difference", "rounds",
                    "converged", "wall_time_ms"):
            assert key in entry
        assert (out / "curve.csv").exists()
        assert (out / "dominance.csv").exists()
        assert (out / "timings.csv").exists()

    def test_compare_selected_methods(self, dataset, tmp_path):
        out = tmp_path / "cmp"
        run_ok(["compare", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--methods", "Vote,AccuPr", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert [r["method"] for r in report] == ["Vote", "AccuPr"]

    def test_compare_rows_do_not_depend_on_method_order(self, dataset,
                                                       tmp_path):
        rows = {}
        for order in ("AccuPr,Vote", "Vote,AccuPr"):
            out = tmp_path / order.replace(",", "_")
            run_ok(["compare", "--claims", str(dataset / "claims.csv"),
                    "--schema", str(dataset / "schema.csv"),
                    "--gold", str(dataset / "gold.csv"),
                    "--methods", order, "--out", str(out)])
            for name in ("report.csv", "curve.csv", "dominance.csv"):
                lines = (out / name).read_text().splitlines()[1:]
                for method in ("Vote", "AccuPr"):
                    rows[order, name, method] = [
                        ln for ln in lines if ln.split(",")[0] == method]
        for name in ("report.csv", "curve.csv", "dominance.csv"):
            for method in ("Vote", "AccuPr"):
                assert rows["AccuPr,Vote", name, method]
                assert (rows["AccuPr,Vote", name, method]
                        == rows["Vote,AccuPr", name, method])

    def test_compare_all_runs_every_method(self, dataset, tmp_path):
        out = tmp_path / "cmp_all"
        run_ok(["compare", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--gold", str(dataset / "gold.csv"),
                "--methods", "all", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 16   # 14 methods + 2 per-attribute variants


class TestConfigPrecedence:

    def test_flag_overrides_env_overrides_file(self, dataset, tmp_path,
                                               monkeypatch):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[fusion]\nn_false = 5\n", encoding="utf-8")
        out1 = tmp_path / "o1"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuPr", "--config", str(cfg),
                "--out", str(out1)])
        monkeypatch.setenv("TRUTHFUSE_FUSION__N_FALSE", "20")
        out2 = tmp_path / "o2"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuPr", "--config", str(cfg),
                "--out", str(out2)])
        out3 = tmp_path / "o3"
        run_ok(["fuse", "--claims", str(dataset / "claims.csv"),
                "--schema", str(dataset / "schema.csv"),
                "--method", "AccuPr", "--config", str(cfg),
                "--n-false", "20", "--out", str(out3)])
        # env and flag agree with each other and differ from the file value
        s1 = (out1 / "selection.csv").read_bytes()
        s2 = (out2 / "selection.csv").read_bytes()
        s3 = (out3 / "selection.csv").read_bytes()
        assert s2 == s3

    def test_alpha_flag_sets_schema_default(self, tmp_path):
        # Blank schema tolerance cells take the configured alpha. Values
        # 100 and 102 share a bucket under alpha=0.05 (tau=5, half-width
        # 2.5) but not under the 0.01 default (tau=1).
        schema = tmp_path / "schema.csv"
        schema.write_text("price,Number,\n", encoding="utf-8")
        claims = tmp_path / "claims.csv"
        claims.write_text("source,object,attribute,value\n"
                          "s1,o1,price,100\ns2,o1,price,102\n"
                          "s3,o1,price,100\n", encoding="utf-8")
        out1, out2 = tmp_path / "loose", tmp_path / "strict"
        run_ok(["profile", "--claims", str(claims), "--schema", str(schema),
                "--alpha", "0.05", "--out", str(out1)])
        run_ok(["profile", "--claims", str(claims), "--schema", str(schema),
                "--out", str(out2)])

        def num_values(out):
            row = (out / "items.csv").read_text().splitlines()[1].split(",")
            return int(row[4])   # object,attribute,providers,redundancy,...

        assert num_values(out1) == 1
        assert num_values(out2) == 2

    def test_generate_fills_blank_tolerances_from_the_flags(self, tmp_path):
        """``generate`` writes the schema ``load_schema`` would read: blank
        tolerances take --alpha and --time-tolerance-minutes, and an
        explicit tolerance_param wins."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "attributes": [
            {"name": "price", "kind": "Number"},
            {"name": "dep", "kind": "TimeOfDay"},
            {"name": "vol", "kind": "Number", "tolerance_param": 0.2}]}),
            encoding="utf-8")
        argv = ["generate", "--spec", str(spec), "--seed", "1"]
        run_ok([*argv, "--alpha", "0.05", "--time-tolerance-minutes", "3",
                "--out", str(tmp_path / "flags")])
        run_ok([*argv, "--out", str(tmp_path / "plain")])

        def tolerances(out):
            return {a: s.tolerance_param for a, s in dataio.load_schema(
                tmp_path / out / "schema.csv").items()}

        assert tolerances("flags") == {"price": 0.05, "dep": 3.0, "vol": 0.2}
        assert tolerances("plain") == {"price": 0.01, "dep": 10.0,
                                       "vol": 0.2}

    def test_settings_read_alike_from_flags_env_and_files(self, tmp_path,
                                                          monkeypatch):
        """One rule reads a setting's text: counts as int, the rest as
        float, from a flag, the environment or a config file."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[fusion]\nround_cap = 7\nrho = 1\n",
                       encoding="utf-8")
        monkeypatch.setenv("TRUTHFUSE_FUSION__N_FALSE", "4")
        monkeypatch.setenv("TRUTHFUSE_COPY__COPY_RATE", "1")
        args = cli._build_parser().parse_args([
            "fuse", "--claims", "c", "--schema", "s", "--method", "Vote",
            "--config", str(cfg), "--attr-min-gold", "3", "--w-fmt", "1"])
        config = cli._config_from_args(args)
        got = {k: getattr(config.fusion, k) for k in (
            "round_cap", "rho", "n_false", "attr_min_gold", "w_fmt")}
        got["copy_rate"] = config.copy.copy_rate
        assert {k: (v, type(v)) for k, v in got.items()} == {
            "round_cap": (7, int), "rho": (1.0, float), "n_false": (4, int),
            "attr_min_gold": (3, int), "w_fmt": (1.0, float),
            "copy_rate": (1.0, float)}

    def test_init_vote_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([
                "fuse", "--claims", "c", "--schema", "s", "--method", "Hub",
                "--init-vote", "1"])
        assert "--init-vote" in capsys.readouterr().err

    def test_unknown_config_key_named(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[fusion]\nn_fasle = 5\n", encoding="utf-8")
        rc = main(["fuse", "--claims", str(dataset / "claims.csv"),
                   "--schema", str(dataset / "schema.csv"),
                   "--method", "Vote", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "n_fasle" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--sim-time-zero-at", "0"), ("--sim-decay-width-multiplier", "-1")])
    def test_invalid_similarity_constant_is_a_config_error(
            self, dataset, tmp_path, capsys, flag, value):
        rc = main(["fuse", "--claims", str(dataset / "claims.csv"),
                   "--schema", str(dataset / "schema.csv"),
                   "--method", "Vote", flag, value,
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            f"error: {flag[2:].replace('-', '_')} must be > 0"]

    def test_blank_schema_cells_follow_the_flags(self, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text("price,Number\ndep,TimeOfDay,\ngate,Text\n"
                        "vol,Number,0.2\n", encoding="utf-8")
        args = cli._build_parser().parse_args([
            "fuse", "--claims", "c", "--schema", str(path), "--method",
            "Vote", "--alpha", "0.05", "--time-tolerance-minutes", "3"])
        config = cli._config_from_args(args)
        got = dataio.load_schema(path, defaults=config.fusion)
        assert {a: s.tolerance_param for a, s in got.items()} == {
            "price": 0.05, "dep": 3.0, "gate": 0.0, "vol": 0.2}
        assert [s.tolerance_param for s in dataio.load_schema(path).values()
                ] == [0.01, 10.0, 0.0, 0.2]


class TestDeterminism:

    MASK = re.compile(r'"wall_time_ms": [0-9.]+')

    def rerun(self, dataset, tmp_path, name, argv_tail):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            run_ok(argv_tail + ["--out", str(out)])
            outs.append(out)
        return outs

    def test_fuse_byte_identical(self, dataset, tmp_path):
        a, b = self.rerun(dataset, tmp_path, "f", [
            "fuse", "--claims", str(dataset / "claims.csv"),
            "--schema", str(dataset / "schema.csv"), "--method", "AccuCopy"])
        for name in ("selection.csv", "trust.csv", "convergence.csv",
                     "copy_pairs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_evaluate_byte_identical_modulo_timing(self, dataset, tmp_path):
        a, b = self.rerun(dataset, tmp_path, "e", [
            "evaluate", "--claims", str(dataset / "claims.csv"),
            "--schema", str(dataset / "schema.csv"),
            "--gold", str(dataset / "gold.csv"), "--method", "PopAccu"])
        ra = self.MASK.sub("T", (a / "report.json").read_text())
        rb = self.MASK.sub("T", (b / "report.json").read_text())
        assert ra == rb
        for name in ("report.csv", "curve.csv", "dominance.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
