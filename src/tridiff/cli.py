"""Command-line front door: ingest data, run lambda sweeps, print recommendations.

Diagnostics go to stderr, data to stdout and files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import ingest, similarity, snapshot
from .core import IndexMapError
from .recommend import Scorer

if TYPE_CHECKING:  # sweep alone imports the protocol and its worker pool
    from .evaluation import MetricsReport


def _float_fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_kinds(value: str) -> list[str]:
    return [k.strip() for k in value.split(",") if k.strip()]


def _parse_int_list(value: str) -> list[int]:
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {value!r}") from exc


@functools.cache  # one per process; its defaults are tuples, which no call can change
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
    p_sweep.add_argument("--similarity", type=_parse_kinds, default=("diffusion",))
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
    p_sweep.add_argument("--L", type=_parse_int_list, default=(10, 20))

    p_rec = sub.add_parser("recommend", help="print a top-L list for one user")
    p_rec.add_argument("--out", required=True, help="snapshot directory")
    p_rec.add_argument("--user", required=True, help="external user id")
    p_rec.add_argument("--lambda", dest="lambda_", type=float, default=0.5)
    p_rec.add_argument("--L", type=int, default=10)
    p_rec.add_argument("--similarity", default="diffusion", choices=similarity.KINDS)

    return parser


class FileAccessError(Exception):
    """An input file that cannot be opened or read as UTF-8 text. Files of
    the run directory fail as snapshot.SnapshotError."""


def _lines(label: str, path: str):
    """The lines of a UTF-8 text file, without a leading byte order mark; one
    that cannot be opened or decoded raises FileAccessError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise FileAccessError(f"cannot read {label} file {path}: {exc}") from exc


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        records = ingest.parse(
            _lines("objects", args.objects),
            _lines("tags", args.tags),
            rating_threshold=args.rating_threshold,
        )
    except IndexMapError as exc:  # an id that a snapshot cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    snapshot.save_dataset(dataset, Path(args.out))
    print(snapshot.summary(dataset))
    return 0


def _csv(header: list[str], rows: list[list[str]]) -> bytes:
    return ("\n".join(",".join(row) for row in [header, *rows]) + "\n").encode("utf-8")


def _report_files(
    report: MetricsReport, names: list[str], kind: str, out: Path
) -> dict[Path, bytes]:
    """sweep_<kind>.csv (one row per cell), summary_<kind>.csv (per-lambda
    means) and optima_<kind>.csv (the best lambda of each metric)."""
    grid = [_float_fmt(lam) for lam in report.config.lambda_grid]
    cells = [
        [kind, lam, str(run), *map(_float_fmt, row)]
        for g, lam in enumerate(grid)
        for run, row in enumerate(report.cells[:, g].tolist())
    ]
    means = [[kind, lam, *map(_float_fmt, row)] for lam, row in zip(grid, report.means.tolist())]
    optima = [[name, *map(_float_fmt, best)] for name, best in report.optima.items()]
    return {
        out / f"sweep_{kind}.csv": _csv(["similarity", "lambda", "run", *names], cells),
        out / f"summary_{kind}.csv": _csv(["similarity", "lambda", *names], means),
        out / f"optima_{kind}.csv": _csv(["metric", "lambda", "value"], optima),
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    from concurrent.futures.process import BrokenProcessPool

    from . import evaluation

    out = Path(args.out)
    try:
        if args.lambda_ is not None:
            grid = (args.lambda_,)
        else:
            grid = evaluation.lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step)
        config = evaluation.ExperimentConfig(
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
    dataset = snapshot.load_dataset(out)
    try:
        reports = evaluation.run_sweep(dataset, config)
    except evaluation.UndefinedMetricError as exc:  # a split that holds out nothing
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:  # a worker killed, by the OOM killer say
        print(f"error: a sweep worker died: {exc}", file=sys.stderr)
        return 1
    # one set for all kinds, so that a failed write changes no kind's reports
    names = evaluation.metric_names(config.list_lengths)
    snapshot.write_files({
        path: data
        for kind, report in reports.items()
        for path, data in _report_files(report, names, kind, out).items()
    })
    for kind in reports:
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
    dataset = snapshot.load_dataset(out)
    try:  # one vectorized scan of the id array, which the load kept as it was
        v = dataset.users.index_of(args.user)
    except KeyError:
        print(f"error: unknown user id {args.user!r}", file=sys.stderr)
        return 1
    scorer = Scorer(dataset, args.similarity)
    p_obj, p_tag = scorer.channel_scores([v])
    p = scorer.combine(p_obj[0], p_tag[0], args.lambda_)
    listing = scorer.top_l(p, args.L)
    if not listing:
        print(f"warning: no positive-score objects for user {args.user}", file=sys.stderr)
        return 0
    for obj_idx, score in listing:  # only the printed ids become Python strs
        print(f"{dataset.objects.ids[obj_idx]}\t{_float_fmt(score)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"ingest": cmd_ingest, "sweep": cmd_sweep, "recommend": cmd_recommend}
    try:
        return handlers[args.command](args)
    except (FileAccessError, snapshot.SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
