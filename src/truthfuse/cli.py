"""Command-line front end.

Subcommands: generate, profile, fuse, copydetect, evaluate, compare.
Every config key is mirrored by a flag (flags win over environment
variables, which win over the config file). Identical inputs produce
byte-identical output files; wall-clock timings are confined to
``timings.csv`` and the ``wall_time_ms`` report field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from . import copydetect as cd
from . import dataio, evalharness, metrics
from .config import CopyParams, FusionConfig, RunConfig, load_config
from .fusion import MethodSpec, engine_for, method_labels, run_fusion
from .model import ClaimSet, DataItem, GoldStandard, Kind, TruthFuseError
from .synthetic import generate_synthetic, spec_from_dict


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        config = _config_from_args(args)
        return args.handler(args, config)
    except (TruthFuseError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="truthfuse",
        description="Profile, fuse, and evaluate conflicting multi-source "
                    "claims.")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")
    # The flags every subcommand takes, made once and shared.
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common)

    gen = sub.add_parser("generate", help="emit a synthetic dataset",
                         parents=[common])
    gen.add_argument("--spec", required=True,
                     help="JSON synthetic-dataset spec")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(handler=_cmd_generate)

    prof = sub.add_parser("profile",
                          help="per-item and per-source consistency tables",
                          parents=[common])
    prof.add_argument("--claims", required=True)
    prof.add_argument("--schema", required=True)
    prof.add_argument("--gold")
    prof.add_argument("--snapshot", action="append", default=[],
                      metavar="CLAIMS:GOLD",
                      help="additional snapshot pair for the per-source "
                           "accuracy-over-time series (repeatable)")
    prof.set_defaults(handler=_cmd_profile)

    fuse = sub.add_parser("fuse", help="resolve conflicts with one method",
                          parents=[common])
    fuse.add_argument("--claims", required=True)
    fuse.add_argument("--schema", required=True)
    fuse.add_argument("--method", required=True,
                      help=f"one of: {', '.join(method_labels())} "
                           f"(append Attr for per-attribute trust)")
    fuse.add_argument("--per-attribute", action="store_true",
                      help="track trust per (source, attribute)")
    fuse.add_argument("--input-trust",
                      help="fixed trust file: single deterministic vote pass")
    fuse.add_argument("--known-copiers",
                      help="declared copier,original,probability rows")
    fuse.add_argument("--no-detect", action="store_true",
                      help="disable copy detection (copy-aware method only)")
    fuse.set_defaults(handler=_cmd_fuse)

    cdp = sub.add_parser("copydetect",
                         help="pairwise copy probabilities and group report",
                         parents=[common])
    cdp.add_argument("--claims", required=True)
    cdp.add_argument("--schema", required=True)
    cdp.add_argument("--gold")
    cdp.add_argument("--groups",
                     help="declared groups file (remarks,members with "
                          "';'-separated members); default: groups are "
                          "connected components over the detection threshold")
    cdp.set_defaults(handler=_cmd_copydetect)

    ev = sub.add_parser("evaluate", help="full protocol for one method",
                        parents=[common])
    ev.add_argument("--claims", required=True)
    ev.add_argument("--schema", required=True)
    ev.add_argument("--gold", required=True)
    ev.add_argument("--method", required=True)
    ev.set_defaults(handler=_cmd_evaluate)

    cmp_ = sub.add_parser("compare", help="full protocol across methods",
                          parents=[common])
    cmp_.add_argument("--claims", required=True)
    cmp_.add_argument("--schema", required=True)
    cmp_.add_argument("--gold", required=True)
    cmp_.add_argument("--methods", default="all",
                      help="comma-separated method names, or 'all'")
    cmp_.set_defaults(handler=_cmd_compare)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", help="INI config file")
    for f in dataclasses.fields(FusionConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}",
                       dest=f"fusion_{f.name}",
                       type=int if "int" in str(f.type) else float,
                       default=None)
    for f in dataclasses.fields(CopyParams):
        p.add_argument(f"--copy-{f.name.replace('_', '-')}",
                       dest=f"copy_{f.name}",
                       type=int if "int" in str(f.type) else float,
                       default=None)
    p.add_argument("--delimiter", default=None)


def _config_from_args(args) -> RunConfig:
    overrides = {
        "fusion": {f.name: getattr(args, f"fusion_{f.name}", None)
                   for f in dataclasses.fields(FusionConfig)},
        "copy": {f.name: getattr(args, f"copy_{f.name}", None)
                 for f in dataclasses.fields(CopyParams)},
        "run": {"delimiter": getattr(args, "delimiter", None)},
    }
    return load_config(getattr(args, "config", None), overrides=overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_dir():    # a stat, not a failed mkdir, when it exists
        out.mkdir(parents=True, exist_ok=True)
    return out


def _load_inputs(args, config: RunConfig,
                 need_gold: bool = False,
                 ) -> tuple[ClaimSet, GoldStandard | None]:
    schema = dataio.load_schema(args.schema, config.delimiter, config.fusion)
    claims = dataio.load_claims(args.claims, schema,
                                delimiter=config.delimiter)
    gold = None
    if getattr(args, "gold", None):
        gold = dataio.load_gold(args.gold, claims, config.delimiter)
    elif need_gold:
        raise TruthFuseError("this command requires --gold")
    return claims, gold


# -- generate ---------------------------------------------------------------


def _cmd_generate(args, config: RunConfig) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    claims, gold, known = generate_synthetic(spec, args.seed)
    out = _out_dir(args)
    dataio.write_schema(claims.schema, out / "schema.csv", config.delimiter)
    dataio.write_claims(claims, out / "claims.csv", config.delimiter)
    dataio.write_gold(gold, out / "gold.csv", config.delimiter)
    dataio.write_rows(out / "copiers.csv",
                      ["copier", "original", "probability"],
                      [(c, o, r) for (c, o), r in sorted(known.items())],
                      config.delimiter)
    print(f"generated {len(claims)} claims from {len(claims.sources)} "
          f"sources over {len(claims.items)} items -> {out}")
    return 0


# -- profile ----------------------------------------------------------------


def _cmd_profile(args, config: RunConfig) -> int:
    claims, gold = _load_inputs(args, config)
    out = _out_dir(args)
    engine = engine_for(claims, config.fusion)
    profiles = metrics.profile_items(claims, engine)   # in item order

    dataio.write_rows(
        out / "items.csv",
        ["object", "attribute", "providers", "redundancy", "num_values",
         "entropy", "deviation", "dominant", "dominance_factor",
         "runners_up"],
        ((it.object_id, it.attribute, p.provider_count,
          metrics.item_redundancy(it, claims), p.num_values, p.entropy,
          p.deviation, str(p.dominant), p.dominance_factor,
          ";".join(str(v) for v in p.runners_up))
         for it, p in profiles.items()),
        config.delimiter)

    snapshots = _load_snapshot_series(args, claims, gold, config)
    source_profiles = metrics.profile_sources(
        claims, gold, snapshots=snapshots,
        match=engine.gold_match(gold.entries) if gold else None)
    dataio.write_rows(
        out / "sources.csv",
        ["source", "claims", "accuracy", "coverage", "accuracy_deviation"],
        ((s, sp.claim_count, sp.accuracy,
          sp.coverage if gold else None, sp.accuracy_deviation)
         for s, sp in sorted(source_profiles.items())),
        config.delimiter)
    if snapshots:
        rows = ((s, snap.snapshot_label, acc)
                for s in claims.sources
                for (snap, _), acc in zip(
                    snapshots, source_profiles[s].snapshot_accuracy))
        dataio.write_rows(out / "accuracy_over_time.csv",
                          ["source", "snapshot", "accuracy"], rows,
                          config.delimiter)

    _write_attribute_summary(out, claims, profiles, config)
    _write_histograms(out, claims, profiles, config)

    dataio.write_rows(
        out / "conflicts.csv",
        ["object", "attribute", "value", "providers"],
        _conflict_rows(engine),
        config.delimiter)
    print(f"profiled {len(profiles)} items, "
          f"{len(claims.sources)} sources -> {out}")
    return 0


def _load_snapshot_series(args, claims: ClaimSet, gold, config: RunConfig):
    """Extra (claims, gold) snapshot pairs for the over-time series; the
    primary snapshot is included first when it has a gold standard."""
    pairs = []
    if getattr(args, "snapshot", None):
        if gold is not None:
            pairs.append((claims, gold))
        for spec in args.snapshot:
            if ":" not in spec:
                raise TruthFuseError(
                    f"--snapshot expects CLAIMS:GOLD, got {spec!r}")
            claims_path, gold_path = spec.split(":", 1)
            snap = dataio.load_claims(claims_path, claims.schema,
                                      delimiter=config.delimiter)
            snap_gold = dataio.load_gold(gold_path, snap, config.delimiter)
            pairs.append((snap, snap_gold))
    return pairs


def _write_attribute_summary(out: Path, claims: ClaimSet, profiles,
                             config: RunConfig) -> None:
    per_attr: list[list] = [[] for _ in claims.attributes]
    for it, a in zip(claims.items, claims.item_attr.tolist()):
        per_attr[a].append(profiles[it])
    providers = metrics.provider_counts(claims, claims.item_attr).tolist()
    rows = []
    for name, ps, n in zip(claims.attributes, per_attr, providers):
        devs = [p.deviation for p in ps if p.deviation is not None]
        rows.append((
            name, claims.schema[name].kind.value, n, len(ps),
            sum(p.num_values for p in ps) / len(ps),
            sum(p.entropy for p in ps) / len(ps),
            sum(devs) / len(devs) if devs else None))
    dataio.write_rows(
        out / "attributes.csv",
        ["attribute", "kind", "providers", "items", "avg_num_values",
         "avg_entropy", "avg_deviation"],
        rows, config.delimiter)


def _write_histograms(out: Path, claims: ClaimSet, profiles,
                      config: RunConfig) -> None:
    ps = [profiles[it] for it in claims.items]
    nv = [p.num_values for p in ps]
    dataio.write_rows(out / "hist_num_values.csv", ["num_values", "count"],
                      sorted((v, nv.count(v)) for v in set(nv)),
                      config.delimiter)
    kinds = [claims.schema[a].kind for a in claims.attributes]
    dev = {kind: [p.deviation for p, a in zip(ps, claims.item_attr.tolist())
                  if p.deviation is not None and kinds[a] is kind]
           for kind in (Kind.NUMBER, Kind.TIME_OF_DAY)}
    for name, values, width, hard_max in (
            ("entropy", [p.entropy for p in ps], 0.25, None),
            ("deviation_relative", dev[Kind.NUMBER], 0.1, None),
            ("deviation_minutes", dev[Kind.TIME_OF_DAY], 5.0, None),
            ("dominance", [p.dominance_factor for p in ps], 0.1, 1.0),
            ("item_redundancy", [metrics.item_redundancy(it, claims)
                                 for it in claims.items], 0.1, 1.0),
            ("object_redundancy",
             list(metrics.object_redundancies(claims).values()), 0.1, 1.0)):
        dataio.write_rows(out / f"hist_{name}.csv", ["lo", "hi", "count"],
                          _hist(values, width, hard_max), config.delimiter)


def _hist(values, width: float, hard_max: float | None = None):
    """(lo, hi, count) rows over bins of ``width`` from 0 up to the top
    value (or ``hard_max``); bins are half-open but the last is closed,
    and values outside [0, last edge] are not counted."""
    if not values:
        return []
    top = hard_max if hard_max is not None else max(values)
    edges = [0.0]
    while edges[-1] < top - 1e-12:
        edges.append(round(edges[-1] + width, 12))
    x = np.asarray(values, dtype=float)
    n = len(edges) - 1
    k = np.searchsorted(edges, x, side="right") - 1
    k[x == edges[-1]] = n - 1
    counts = np.bincount(k[(k >= 0) & (k < n)], minlength=n).tolist()
    return list(zip(edges, edges[1:], counts))


def _conflict_rows(engine):
    """Each bucket of every contested item, with its sorted providers;
    items come in their claim set's order, ``DataItem.sort_key``'s."""
    providers: list[list[str]] = [[] for _ in range(engine.n_cands)]
    for c, v in zip(engine.claim_cand.tolist(), engine.claim_vsrc.tolist()):
        providers[c].append(engine.vsrc_list[v])
    return [(it.object_id, it.attribute, str(engine.cand_values[c]),
             ";".join(sorted(providers[c])))
            for it, cands in zip(engine.items, engine.item_cands())
            if len(cands) > 1 for c in cands]


# -- fuse ---------------------------------------------------------------------


def _cmd_fuse(args, config: RunConfig) -> int:
    claims, _ = _load_inputs(args, config)
    method = MethodSpec.parse(args.method)
    if args.per_attribute and not method.per_attribute_trust:
        method = MethodSpec(method.name, per_attribute_trust=True)
    input_trust = (dataio.load_trust(args.input_trust, config.delimiter)
                   if args.input_trust else None)
    known = (dataio.load_known_copiers(args.known_copiers, config.delimiter)
             if args.known_copiers else None)
    result = run_fusion(method, claims, config, input_trust=input_trust,
                        known_copiers=known,
                        detect_copying=not args.no_detect)
    out = _out_dir(args)
    _write_selection(out / "selection.csv", result, config)
    dataio.write_trust(result.trust, out / "trust.csv", config.delimiter)
    dataio.write_rows(out / "convergence.csv",
                      ["round", "max_trust_change"],
                      list(enumerate(result.trust_deltas, start=1)),
                      config.delimiter)
    if result.copy_matrix is not None:
        _write_copy_pairs(out / "copy_pairs.csv", result.copy_matrix.prob,
                          config)
    status = "converged" if result.converged else "DID NOT CONVERGE"
    print(f"{method.label()}: {len(result.selected)} selections, "
          f"{result.rounds_used} rounds ({status}), "
          f"{result.tie_count} ties -> {out}")
    return 0


def _write_selection(path: Path, result, config: RunConfig) -> None:
    rows = ((it.object_id, it.attribute, str(result.selected[it]),
             result.selected_vote[it], result.confidence[it])
            for it in sorted(result.selected, key=DataItem.sort_key))
    dataio.write_rows(path, ["object", "attribute", "value", "vote",
                             "confidence"], rows, config.delimiter)


def _write_copy_pairs(path: Path, prob: dict, config: RunConfig) -> None:
    name = {v: _vsrc_str(v)
            for v in set(itertools.chain.from_iterable(prob))}
    rows = sorted([(name[a], name[b], p) for (a, b), p in prob.items()],
                  key=operator.itemgetter(0, 1))
    dataio.write_rows(path, ["copier", "original", "probability"], rows,
                      config.delimiter)


def _vsrc_str(key) -> str:
    if isinstance(key, tuple):
        return f"{key[0]}|{key[1]}"
    return str(key)


# -- copydetect ---------------------------------------------------------------


def _cmd_copydetect(args, config: RunConfig) -> int:
    claims, gold = _load_inputs(args, config)
    engine = engine_for(claims, config.fusion)
    vote = run_fusion(MethodSpec("vote"), claims, config, engine=engine)
    trust = {s: config.fusion.init_trust_bayes for s in claims.sources}
    accuracy = None
    if gold is not None:
        accuracy = {s: acc for s, (acc, _) in metrics.source_scores(
            claims, gold, engine.gold_match(gold.entries)).items()}
        trust = {s: t if accuracy[s] is None else accuracy[s]
                 for s, t in trust.items()}
    matrix = cd.detect_copying(claims, vote.selected, trust, config.copy,
                               engine)
    out = _out_dir(args)
    _write_copy_pairs(out / "pairs.csv", matrix.prob, config)

    if args.groups:
        groups = dataio.load_groups(args.groups, config.delimiter)
    else:
        groups = [("detected", members) for members in
                  _components(matrix, claims, config.copy.group_threshold)]
    rows = []
    for remark, members in groups:
        # A group needs two members with claims to be compared.
        if sum(m in claims.sources for m in members) < 2:
            continue
        g = cd.group_commonality(members, claims, gold, engine.taus,
                                 accuracy)
        rows.append((remark, g.size, g.schema_sim, g.object_sim,
                     g.value_sim, g.avg_accuracy))
    dataio.write_rows(out / "groups.csv",
                      ["remarks", "size", "schema_sim", "object_sim",
                       "value_sim", "avg_accuracy"],
                      rows, config.delimiter)
    print(f"{len(matrix.prob)} directed pairs, {len(rows)} groups -> {out}")
    return 0


def _components(matrix, claims: ClaimSet, threshold: float):
    linked: dict[str, set[str]] = {s: {s} for s in claims.sources}
    for (a, b), p in matrix.prob.items():
        total = p + matrix.prob.get((b, a), 0.0)
        if total >= threshold:
            union = linked[a] | linked[b]
            for s in union:
                linked[s] = union
    groups = (tuple(sorted(linked[s])) for s in claims.sources)
    return list(dict.fromkeys(g for g in groups if len(g) > 1))


# -- evaluate / compare --------------------------------------------------------


def _cmd_evaluate(args, config: RunConfig) -> int:
    return _evaluate_methods(args, config, [MethodSpec.parse(args.method)])


def _cmd_compare(args, config: RunConfig) -> int:
    if args.methods.strip().lower() == "all":
        methods = [MethodSpec.parse(m) for m in method_labels()]
        methods += [MethodSpec.parse("AccuSimAttr"),
                    MethodSpec.parse("AccuFormatAttr")]
    else:
        methods = [MethodSpec.parse(m) for m in args.methods.split(",")]
    return _evaluate_methods(args, config, methods)


def _evaluate_methods(args, config: RunConfig,
                      methods: list[MethodSpec]) -> int:
    claims, gold = _load_inputs(args, config, need_gold=True)
    out = _out_dir(args)
    engine = engine_for(claims, config.fusion)
    match = engine.gold_match(gold.entries)
    reports = [evalharness.timed_run(m, claims, config, gold, engine=engine,
                                     match=match) for m in methods]
    dom_rows = [(report.method, r["lo"], r["hi"], r["count"],
                 r["precision"], r["vote_precision"])
                for report in reports
                for r in evalharness.precision_by_dominance(
                    report.result, gold, claims, match=match)]
    ranked = evalharness.rank_sources(claims, gold, match)
    # The curve builds its own engine for each source prefix.
    del engine, match
    curve = evalharness.incremental_curve(methods, claims, gold, config,
                                          ranked)

    columns = ["method", "precision", "recall", "precision_with_trust",
               "trust_deviation", "trust_difference", "rounds", "converged"]
    rows = [[getattr(r, c) for c in columns] for r in reports]
    (out / "report.json").write_text(json.dumps(
        [{**dict(zip(columns, row)), "tie_count": r.result.tie_count,
          "wall_time_ms": round(r.wall_time * 1000.0, 3)}
         for r, row in zip(reports, rows)], sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    dataio.write_rows(out / "report.csv", columns, rows, config.delimiter)
    dataio.write_rows(out / "curve.csv",
                      ["method", "k", "added_source", "recall"],
                      [(p.method, p.k, p.added_source, p.recall)
                       for p in curve],
                      config.delimiter)
    dataio.write_rows(out / "dominance.csv",
                      ["method", "lo", "hi", "count", "precision",
                       "vote_precision"],
                      dom_rows, config.delimiter)
    dataio.write_rows(out / "timings.csv",
                      ["method", "wall_time_ms", "rounds"],
                      [(r.method, r.wall_time * 1000.0, r.rounds)
                       for r in reports], config.delimiter)
    for r in reports:
        print(f"{r.method:>16}  precision={r.precision:.4f}  "
              f"recall={r.recall:.4f}  rounds={r.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
