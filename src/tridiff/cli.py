"""Command-line front door: ingest data, run lambda sweeps, print recommendations.

Diagnostics go to stderr, data to stdout and files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evaluation, ingest, similarity, snapshot
from .core import TripartiteDataset
from .evaluation import ExperimentConfig, MetricsReport
from .recommend import Scorer


def _float_fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_kinds(value: str) -> list[str]:
    return [k.strip() for k in value.split(",") if k.strip()]


def _parse_int_list(value: str) -> list[int]:
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {value!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridiff",
        description="Tag-aware diffusion collaborative filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse, filter, and snapshot a dataset")
    p_ingest.add_argument("--objects", required=True, help="object-event file")
    p_ingest.add_argument("--tags", required=True, help="tag-event file")
    p_ingest.add_argument("--out", required=True, help="output directory")
    p_ingest.add_argument("--rating-threshold", type=float, default=0)

    p_sweep = sub.add_parser("sweep", help="run the lambda sweep on a snapshot")
    p_sweep.add_argument("--out", required=True, help="snapshot/report directory")
    p_sweep.add_argument("--similarity", type=_parse_kinds, default=["diffusion"])
    p_sweep.add_argument("--lambda-min", type=float, default=0.0)
    p_sweep.add_argument("--lambda-max", type=float, default=1.0)
    p_sweep.add_argument("--lambda-step", type=float, default=0.02)
    p_sweep.add_argument(
        "--lambda", dest="lambda_", type=float, default=None,
        help="single lambda value (overrides the grid flags)",
    )
    p_sweep.add_argument("--runs", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--train-frac", type=float, default=0.9)
    p_sweep.add_argument("--L", type=_parse_int_list, default=[10, 20])

    p_rec = sub.add_parser("recommend", help="print a top-L list for one user")
    p_rec.add_argument("--out", required=True, help="snapshot directory")
    p_rec.add_argument("--user", required=True, help="external user id")
    p_rec.add_argument("--lambda", dest="lambda_", type=float, default=0.5)
    p_rec.add_argument("--L", type=int, default=10)
    p_rec.add_argument("--similarity", default="diffusion", choices=similarity.KINDS)

    return parser


class InputFileError(Exception):
    """An input file that cannot be read as UTF-8 text."""


def _lines(label: str, path: str):
    """The lines of a UTF-8 text file; one that cannot be opened or decoded
    raises InputFileError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {label} file {path}: {exc}") from exc


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        records = ingest.parse(
            _lines("objects", args.objects),
            _lines("tags", args.tags),
            rating_threshold=args.rating_threshold,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    for stream, line in records.headers.items():
        print(f"note: {stream} line 1 skipped as a header: {line!r}", file=sys.stderr)
    for err in records.errors:
        print(
            f"warning: {err.stream} line {err.line_number}: {err.reason}",
            file=sys.stderr,
        )
    dataset = ingest.core_filter(records)
    if dataset.is_empty:
        print("error: dataset is empty after core filtering", file=sys.stderr)
        return 1
    out = Path(args.out)
    snapshot.save_dataset(dataset, out)
    info = snapshot.summary(dataset)
    with (out / "summary.json").open("w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)
    print(json.dumps(info, indent=2))
    return 0


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(row) for row in [header, *rows]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reports(report: MetricsReport, kind: str, out: Path) -> None:
    """sweep_<kind>.csv (one row per cell), summary_<kind>.csv (per-lambda
    means) and optima_<kind>.csv (the best lambda of each metric)."""
    names = evaluation.metric_names(report.config.list_lengths)
    cells = [
        [kind, _float_fmt(lam), str(run), *map(_float_fmt, cell.values())]
        for (lam, run), cell in sorted(report.per_cell.items())
    ]
    _write_csv(out / f"sweep_{kind}.csv", ["similarity", "lambda", "run", *names], cells)
    means = [
        [kind, _float_fmt(lam), *(_float_fmt(report.means[lam][name]) for name in names)]
        for lam in sorted(report.means)
    ]
    _write_csv(out / f"summary_{kind}.csv", ["similarity", "lambda", *names], means)
    optima = [
        [name, *map(_float_fmt, report.optima[name])] for name in names if name in report.optima
    ]
    _write_csv(out / f"optima_{kind}.csv", ["metric", "lambda", "value"], optima)


def _load_snapshot(out: Path) -> TripartiteDataset:
    try:
        return snapshot.load_dataset(out)
    except FileNotFoundError as exc:
        raise snapshot.SnapshotError(f"no snapshot in {out}; run ingest first") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    dataset = _load_snapshot(out)
    try:
        if args.lambda_ is not None:
            grid = (args.lambda_,)
        else:
            grid = evaluation.lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step)
        config = ExperimentConfig(
            similarity_kinds=tuple(args.similarity),
            lambda_grid=grid,
            runs=args.runs,
            train_fraction=args.train_frac,
            list_lengths=tuple(args.L),
            base_seed=args.seed,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    for kind, report in evaluation.run_sweep(dataset, config).items():
        write_reports(report, kind, out)
        for (lam, run), reason in sorted(report.cell_errors.items()):
            print(
                f"warning: {kind} lambda={lam} run={run}: {reason}", file=sys.stderr
            )
        print(f"wrote {out / f'sweep_{kind}.csv'}", file=sys.stderr)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    if not 0.0 <= args.lambda_ <= 1.0:  # also rejects NaN
        print(
            f"usage error: lambda must lie in [0, 1], got {args.lambda_}", file=sys.stderr
        )
        return 2
    if args.L < 1:
        print(f"usage error: L must be >= 1, got {args.L}", file=sys.stderr)
        return 2
    out = Path(args.out)
    dataset = _load_snapshot(out)
    if args.user not in dataset.users.index_of:
        print(f"error: unknown user id {args.user!r}", file=sys.stderr)
        return 1
    v = dataset.users.index_of[args.user]
    scorer = Scorer(dataset, args.similarity)
    p_obj, p_tag = scorer.channel_scores([v])
    p = scorer.combine(p_obj[0], p_tag[0], args.lambda_)
    listing = scorer.top_l(p, v, args.L)
    if not listing:
        print(f"warning: no positive-score objects for user {args.user}", file=sys.stderr)
        return 0
    for obj_idx, score in listing:
        print(f"{dataset.objects.external_ids[obj_idx]}\t{_float_fmt(score)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"ingest": cmd_ingest, "sweep": cmd_sweep, "recommend": cmd_recommend}
    try:
        return handlers[args.command](args)
    except (InputFileError, snapshot.SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
