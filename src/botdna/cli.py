"""Command-line harness for the detection pipeline and its experiments.

Exit codes: 0 success, 2 input error (bad arguments, unparseable files,
unknown users), 3 integrity error (too many malformed records).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import pipeline
from .data import SplitSpec, load, read_id_list
from .errors import BotDnaError, IntegrityError
from .lsh import LshIndex
from .pipeline import RunConfig, canonical_alphabets

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTEGRITY = 3


def _parse_alphabets(text: str) -> tuple[str, ...]:
    try:
        return canonical_alphabets(tuple(part.strip() for part in text.split(",") if part.strip()))
    except ValueError as exc:  # argparse prints an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated ints, with 'a..b' / 'a..b..step' ranges that include b when the steps reach it."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            pieces = part.split("..")
            if len(pieces) == 2:
                lo, hi, step = int(pieces[0]), int(pieces[1]), 1
            elif len(pieces) == 3:
                lo, hi, step = (int(p) for p in pieces)
            else:
                raise ValueError(f"bad range {part!r}")
            out.extend(range(lo, hi + (1 if step > 0 else -1), step))
        else:
            out.append(int(part))
    return out


def _nonempty(option: str, values: list) -> list:
    """``values``; ``ValueError`` naming ``option`` when it expanded to no value."""
    if not values:
        raise ValueError(f"{option} gives no value")
    return values


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_alphabet_grid(text: str) -> list[tuple[str, ...]]:
    return [_parse_alphabets(subset) for subset in text.split("/") if subset.strip()]


_SHARED_OPTIONS = {
    "--alphabets": dict(type=_parse_alphabets, default=RunConfig.alphabets, metavar="IDS",
                        help=f"comma-separated subset of B3,B5,B9 (default {','.join(RunConfig.alphabets)})"),
    "--k-shingle": dict(type=int, default=RunConfig.k_shingle, metavar="K",
                        help="shingle window length in symbols (default %(default)s)"),
    "--threshold": dict(type=float, default=RunConfig.threshold, metavar="T",
                        help="target Jaccard similarity for the LSH plan, in (0, 1] (default %(default)s)"),
    "--num-perm": dict(type=int, default=RunConfig.num_perm, metavar="N",
                       help="MinHash permutations per signature, 2 to 8192 (default %(default)s)"),
    "--seed": dict(type=int, default=RunConfig.seed, metavar="S",
                   help="seed for hashing and splits, in [0, 2**64) (default %(default)s)"),
    "--gt-fraction": dict(type=float, default=SplitSpec.gt_fraction, metavar="F",
                          help="ground-truth share for random splits, in (0, 1) (default %(default)s)"),
    "--split-file": dict(metavar="GT,TEST",
                         help="two comma-separated id-list files for a fixed split"),
    "--max-tweets": dict(type=int, default=RunConfig.max_tweets, metavar="K",
                         help="keep only each user's first K posts, K >= 1"),
    "--jaccard-floor": dict(type=float, default=RunConfig.jaccard_floor, metavar="F",
                            help="drop candidates below this estimated Jaccard, in [0, 1] "
                                 "(default: the index threshold)"),
    "--no-floor": dict(action="store_const", const=0.0, dest="jaccard_floor",
                       help="vote over all banding candidates, unfiltered (--jaccard-floor 0)"),
    "--format": dict(choices=("jsonl", "csv"), default="jsonl",
                     help="input dataset format (default jsonl)"),
    "--out": dict(metavar="PATH", help="write the JSON result here"),
    "--no-timings": dict(action="store_true",
                         help="omit timing/memory fields for byte-reproducible output"),
}
_FLOOR = frozenset({"--jaccard-floor", "--no-floor"})
_SPLIT = frozenset({"--gt-fraction", "--split-file"})


def _shared_options(parser: argparse.ArgumentParser, drop: set[str] | frozenset[str]) -> None:
    """Add every shared option except those in ``drop``, which the subcommand never reads."""
    floor = parser if _FLOOR <= drop else parser.add_mutually_exclusive_group()
    for flag, kwargs in _SHARED_OPTIONS.items():
        if flag not in drop:
            (floor if flag in _FLOOR else parser).add_argument(flag, **kwargs)


def _from_args(args, cls, **extra):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}, **extra)


def _fixed_split(split_file: str) -> SplitSpec:
    try:
        gt_path, test_path = split_file.split(",", 1)
    except ValueError:
        raise BotDnaError("--split-file expects GT_FILE,TEST_FILE") from None
    return SplitSpec(
        mode="fixed_lists",
        gt_ids=read_id_list(gt_path.strip()),
        test_ids=read_id_list(test_path.strip()),
    )


def _config(args) -> RunConfig:
    """The shared settings as a RunConfig, each checked before any file is read."""
    cfg = _from_args(args, RunConfig, split=_from_args(args, SplitSpec))
    split_file = getattr(args, "split_file", None)
    return replace(cfg, split=_fixed_split(split_file)) if split_file else cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _summary(report) -> str:
    return (
        f"F1 {_fmt(report.f1)}  Acc {_fmt(report.accuracy)}  "
        f"Prec {_fmt(report.precision)}  Rec {_fmt(report.recall)}  "
        f"(gt={report.counts.get('ground_truth_users')}, test={report.counts.get('test_users')})"
    )


def _report_json(report, args) -> str:
    return report.to_json(include_timings=not args.no_timings)


def _series_json(key: str, series, args) -> str:
    docs = [
        {key: value, "report": report.to_dict(include_timings=not args.no_timings)}
        for value, report in series
    ]
    return json.dumps({"series": docs}, sort_keys=True, indent=2) + "\n"


_CSV_METRICS = ("f1", "accuracy", "precision", "recall")
_CSV_COUNTS = ("tp", "fp", "tn", "fn")


def _csv_cells(report) -> tuple:
    metrics = (getattr(report, m) for m in _CSV_METRICS)
    return (*("" if v is None else v for v in metrics), *(getattr(report, c) for c in _CSV_COUNTS))


def _series_csv(path: str, key: str, series) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow((key, *_CSV_METRICS, *_CSV_COUNTS, "ground_truth_users", "test_users"))
        for value, report in series:
            writer.writerow(
                (
                    value,
                    *_csv_cells(report),
                    report.counts.get("ground_truth_users"),
                    report.counts.get("test_users"),
                )
            )


def _grid_csv(path: str, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("rank", "alphabets", "k_shingle", "threshold", *_CSV_METRICS, *_CSV_COUNTS))
        for rank, report in enumerate(reports, start=1):
            cfg = report.config
            writer.writerow(
                (
                    rank,
                    "+".join(cfg["alphabets"]),
                    cfg["k_shingle"],
                    cfg["threshold"],
                    *_csv_cells(report),
                )
            )


def _cmd_evaluate(args) -> int:
    cfg = _config(args)  # a bad setting fails before the data is read
    report = pipeline.evaluate(load(args.data, args.format), cfg)
    _emit(_report_json(report, args), args.out)
    print(_summary(report), file=sys.stderr)
    return EXIT_OK


def _cmd_grid_search(args) -> int:
    base = _config(args)
    pipeline.check_jobs(args.jobs)
    pipeline.grid_configs(base, args.k_grid, args.threshold_grid, args.alphabet_grid)
    reports = pipeline.grid_search(
        load(args.data, args.format),
        base,
        ks=args.k_grid,
        thresholds=args.threshold_grid,
        alphabet_subsets=args.alphabet_grid,
        jobs=args.jobs,
    )
    docs = [r.to_dict(include_timings=not args.no_timings) for r in reports]
    _emit(json.dumps({"grid": docs}, sort_keys=True, indent=2) + "\n", args.out)
    if args.csv_out:
        _grid_csv(args.csv_out, reports)
    best = reports[0]
    print(f"best cell: {best.config['alphabets']} k={best.config['k_shingle']} "
          f"t={best.config['threshold']}  {_summary(best)}", file=sys.stderr)
    return EXIT_OK


def _cmd_early_detection(args) -> int:
    cfg = _config(args)
    caps = pipeline.check_caps(_nonempty("--caps", args.caps))
    series = pipeline.early_detection(load(args.data, args.format), cfg, caps=caps)
    _emit(_series_json("max_tweets", series, args), args.out)
    if args.csv_out:
        _series_csv(args.csv_out, "max_tweets", series)
    for cap, report in series:
        print(f"K={cap:>5}  {_summary(report)}", file=sys.stderr)
    return EXIT_OK


def _cmd_gt_sweep(args) -> int:
    cfg = _config(args)
    pipeline.check_fractions(_nonempty("--fractions", args.fractions))
    series = pipeline.gt_sweep(load(args.data, args.format), cfg, fractions=args.fractions)
    _emit(_series_json("gt_fraction", series, args), args.out)
    if args.csv_out:
        _series_csv(args.csv_out, "gt_fraction", series)
    for fraction, report in series:
        print(f"gt={fraction:<4}  {_summary(report)}", file=sys.stderr)
    return EXIT_OK


def _cmd_cross_dataset(args) -> int:
    cfg = _config(args)
    gt_ds = load(args.gt_data, args.format)
    test_ds = load(args.test_data, args.format)
    report = pipeline.cross_dataset(gt_ds, test_ds, cfg)
    _emit(_report_json(report, args), args.out)
    print(_summary(report), file=sys.stderr)
    return EXIT_OK


def _cmd_encode(args) -> int:
    ds = load(args.data, args.format)
    lines = [
        json.dumps(
            {"user_id": seq.user_id, "alphabets": list(seq.alphabets), "symbols": seq.symbols},
            sort_keys=True,
        )
        for seq in pipeline.encode_dataset(ds, args.alphabets)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_index_build(args) -> int:
    if not args.out:
        raise BotDnaError("index-build requires --out PATH")
    cfg = _config(args)
    filtered, removed = pipeline.preprocess(load(args.data, args.format), cfg)
    index = pipeline.build_index(filtered.labeled(), cfg)
    index.save(args.out)
    print(
        f"indexed {len(index)} users (bands={index.plan.bands}, rows={index.plan.rows}, "
        f"removed_short={removed}) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_index_query(args) -> int:
    cfg = _config(args)
    index = LshIndex.load(args.index)
    if index.recipe is None:
        raise BotDnaError(f"{args.index} records no alphabets or k_shingle; "
                          "rebuild it with index-build")
    alphabets, k_shingle = index.recipe
    cfg = replace(cfg, alphabets=alphabets, k_shingle=k_shingle,
                  num_perm=index.num_perm, seed=index.seed, threshold=index.plan.threshold)
    predictions, report = pipeline.classify_against_index(index, load(args.data, args.format), cfg)
    doc = {
        "predictions": [
            {
                "user_id": p.query_id,
                "predicted": p.predicted,
                "neighbor_count": p.neighbor_count,
                "bot_votes": p.bot_votes,
                "no_neighbors": p.no_neighbor_flag,
            }
            for p in predictions
        ],
        "report": report.to_dict(include_timings=not args.no_timings) if report else None,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    if report:
        print(_summary(report), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botdna",
        description="Training-free bot detection over behavioral DNA fingerprints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, drop=frozenset()):
        # No abbreviations: grid-search would take --threshold as --threshold-grid.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _shared_options(p, drop)
        p.set_defaults(func=func)
        return p

    p = add("evaluate", _cmd_evaluate, "split one dataset, build the index, score the test side")
    p.add_argument("data", help="dataset file")

    p = add("grid-search", _cmd_grid_search, "evaluate a hyperparameter grid, ranked by F1",
            drop={"--alphabets", "--k-shingle", "--threshold"})
    p.add_argument("data")
    p.add_argument("--k-grid", type=_parse_int_list, default=list(pipeline.DEFAULT_GRID_K),
                   metavar="KS", help="e.g. 2..15 or 2,4,8 (default 2..15)")
    p.add_argument("--threshold-grid", type=_parse_float_list,
                   default=list(pipeline.DEFAULT_GRID_THRESHOLDS),
                   metavar="TS", help="e.g. 0.1,0.2,0.4 (default 0.1..0.9)")
    p.add_argument("--alphabet-grid", type=_parse_alphabet_grid,
                   default=list(pipeline.ALPHABET_SUBSETS),
                   metavar="SUBSETS", help="subsets joined by '/', e.g. B3/B5/B3,B5 (default: all 7)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the (alphabets, k) groups, capped at the "
                        "number of groups (default 1)")
    p.add_argument("--csv-out", metavar="PATH", help="also write a flat CSV of the ranking")

    p = add("early-detection", _cmd_early_detection, "sweep the per-user post cap on one split",
            drop={"--max-tweets"})
    p.add_argument("data")
    p.add_argument("--caps", type=_parse_int_list, default=list(pipeline.DEFAULT_EARLY_DETECTION_CAPS),
                   metavar="KS", help="post caps, e.g. 20..200..20 or 20,40,80 (default 20,40,...,200)")
    p.add_argument("--csv-out", metavar="PATH")

    p = add("gt-sweep", _cmd_gt_sweep, "sweep the ground-truth fraction under one seed", drop=_SPLIT)
    p.add_argument("data")
    p.add_argument("--fractions", type=_parse_float_list, default=list(pipeline.DEFAULT_GT_FRACTIONS),
                   metavar="FS", help="e.g. 0.1,0.2,0.3 (default)")
    p.add_argument("--csv-out", metavar="PATH")

    p = add("cross-dataset", _cmd_cross_dataset, "index one dataset, classify another", drop=_SPLIT)
    p.add_argument("gt_data", help="ground-truth dataset file")
    p.add_argument("test_data", help="test dataset file")

    p = add("encode", _cmd_encode, "dump each user's DNA string as JSONL",
            drop=frozenset(_SHARED_OPTIONS) - {"--alphabets", "--format", "--out"})
    p.add_argument("data")

    p = add("index-build", _cmd_index_build, "build and persist an index from a labeled dataset",
            drop=_SPLIT | _FLOOR | {"--no-timings"})
    p.add_argument("data")

    p = add("index-query", _cmd_index_query, "classify users against a persisted index",
            drop=_SPLIT | {"--alphabets", "--k-shingle", "--num-perm", "--seed", "--threshold"})
    p.add_argument("index", help="index file from index-build")
    p.add_argument("data", help="query dataset file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (BotDnaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
