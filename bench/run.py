"""tridiff benchmark: runs one workload through the program's CLI and prints
its metrics as JSON.

    python3 bench/run.py --workload sweep_fine --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout: it imports tridiff from the
checkout's `src/` and works in `.bench_work/` at the checkout root, which it
removes again. Each call is one fresh process and one workload:

1. generate the raw event files from --seed (datagen.py) and compute the
   expected filtered dataset (oracle.py);
2. setup: `tridiff ingest` SETUP_REPEATS times, timed one by one;
3. measure: the workload's main operation, repeated for --seconds, with a
   few probe operations of the other kind spread in between, so that every
   workload reports every metric;
4. check every output against the reference, then print one JSON line of
   run details and, last, the result line.

With --trace 1, operations alternate between untraced and traced; the
result then holds per-layer metrics for one ingest, one main-phase operation
and one probe operation, and the tracing overhead. See README.md for the
workloads and for the map from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import datagen
import oracle
from tracer import Tracer, attribute

ROOT = Path(__file__).resolve().parent.parent

SCALE = datagen.PAPER
SETUP_REPEATS = 3
MIN_RECOMMEND_CALLS = 100  # so that at least 10 samples lie beyond p90
PROBE_RECOMMEND_CALLS = 60
PROBE_SWEEPS = 3
RECOMMEND_L = 10
LIST_LENGTHS = (10, 20)
TRAIN_FRACTION = 0.9
FINE_STEP = 0.02
FINE_CHECKED_INTERIOR = 4  # interior grid points checked besides 0 and 1

# Span names are "<module>.<function>" inside tridiff.
TARGETS = {
    "ingest.parse": lambda r: {
        "ingest.parse_events": len(r.object_events) + len(r.tag_events),
        "ingest.parse_errors": len(r.errors),
    },
    "ingest.core_filter": lambda d: {"ingest.core_filter_users_kept": len(d.users)},
    "ingest.split": None,
    "core.build_graph": lambda g: {"core.build_graph_edges": g.edge_count},
    "snapshot.save_dataset": lambda path: {"snapshot.bytes": Path(path).stat().st_size},
    "snapshot.load_dataset": None,
    "similarity.similarity_vector": None,
    "similarity.diffusion_row": None,
    "similarity.cosine_row": None,
    "similarity.jaccard_row": None,
    "similarity.fuse": None,
    "recommend.score_objects": lambda s: {"recommend.scored_objects": len(s.scores)},
    "recommend.top_l": None,
    "evaluation.run_experiment": lambda rep: {
        "evaluation.test_pairs": sum({run: c.n_p for (_, run), c in rep.per_cell.items()}.values()),
        "evaluation.rank_evals": sum(c.n_p for c in rep.per_cell.values()),
        "evaluation.cell_errors": len(rep.cell_errors),
    },
}
ROOT_SPAN = "cli.main"
SELF_TIME = {
    ROOT_SPAN: "cli.self_s",
    "ingest.parse": "ingest.parse_s",
    "ingest.core_filter": "ingest.core_filter_s",
    "ingest.split": "ingest.split_s",
    "core.build_graph": "core.build_graph_s",
    "snapshot.save_dataset": "snapshot.save_s",
    "snapshot.load_dataset": "snapshot.load_s",
    "similarity.similarity_vector": "similarity.vector_s",
    "similarity.diffusion_row": "similarity.row_s",
    "similarity.cosine_row": "similarity.row_s",
    "similarity.jaccard_row": "similarity.row_s",
    "similarity.fuse": "similarity.row_s",
    "recommend.score_objects": "recommend.score_s",
    "recommend.top_l": "recommend.top_l_s",
    "evaluation.run_experiment": "evaluation.self_s",
}
CALLS = {
    "ingest.split": "ingest.split_calls",
    "snapshot.load_dataset": "snapshot.load_calls",
    "similarity.similarity_vector": "similarity.vector_calls",
}
LAYER_METRICS = [
    "ingest.parse_s", "ingest.parse_events", "ingest.parse_errors",
    "ingest.core_filter_s", "ingest.core_filter_users_removed",
    "ingest.split_s", "ingest.split_calls",
    "core.build_graph_s", "core.build_graph_edges",
    "snapshot.save_s", "snapshot.bytes", "snapshot.load_s", "snapshot.load_calls",
    "similarity.vector_s", "similarity.vector_calls", "similarity.vector_thread_s",
    "similarity.row_s",
    "recommend.score_s", "recommend.top_l_s", "recommend.scored_objects",
    "evaluation.self_s", "evaluation.test_pairs", "evaluation.rank_evals",
    "evaluation.cell_errors",
    "cli.self_s", "cli.bytes_written",
]


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import tridiff.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tridiff" / "cli.py").is_file():
        raise ProgramMissing(f"no tridiff sources under {src}")
    sys.path.insert(0, str(src))
    from tridiff import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"tridiff imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Op:
    phase: str
    argv: list[str]
    traced: bool
    wall: float = 0.0
    rc: object = None
    stdout: str = ""
    stderr: str = ""
    files: dict[str, str] = field(default_factory=dict)  # report files read back
    layers: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


@dataclass
class Stream:
    """A kind of operation: `argv_of(i)` gives the i-th call's arguments."""

    phase: str
    argv_of: Callable[[int], list[str]]
    count: int  # the minimum for a main phase, the exact count for a probe


class Bench:
    """Runs CLI operations in-process and keeps every operation's record."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.out = work / "run"
        self.tracer = Tracer("tridiff", TARGETS)
        self.ops: list[Op] = []

    def run(self, phase: str, argv: list[str], traced: bool = False) -> Op:
        op = Op(phase, argv, traced)
        if argv[0] == "sweep":
            for stale in self.out.glob("sweep_*.csv"):
                stale.unlink()
        before = self._listing()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if traced else contextlib.nullcontext()
        self.tracer.spans.clear()
        with tracer:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    op.rc = self.cli.main(argv)
                except SystemExit as exc:
                    op.rc = exc.code
                except Exception:  # the run goes on; the operation counts as failed
                    op.rc = "exception"
                    traceback.print_exc()
            end = time.perf_counter()
        op.wall = end - start
        op.stdout, op.stderr = out.getvalue(), err.getvalue()
        if op.rc != 0:
            op.failures.append(f"exit {op.rc}: {op.stderr.strip()[-300:]}")
        written = {
            name: path for name, path in self._listing().items()
            if before.get(name) != path and name != "dataset.json"
        }
        if argv[0] == "sweep":
            op.files = {
                name: (self.out / name).read_text(encoding="utf-8")
                for name in written if name.startswith("sweep_")
            }
        if traced:
            self.tracer.record(ROOT_SPAN, start, end)
            op.layers = self._layers(start, end)
            op.layers["cli.bytes_written"] = (
                len(op.stdout.encode()) + len(op.stderr.encode())
                + sum((self.out / name).stat().st_size for name in written)
            )
        self.ops.append(op)
        return op

    def _listing(self) -> dict[str, tuple[int, int]]:
        if not self.out.is_dir():
            return {}
        return {
            p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in self.out.iterdir() if p.is_file()
        }

    def _layers(self, start: float, end: float) -> dict[str, float]:
        spans = self.tracer.spans
        layers: dict[str, float] = {}
        wall = attribute(spans, threading.get_ident(), start, end, ROOT_SPAN)
        for name, seconds in wall.items():
            metric = SELF_TIME[name]
            layers[metric] = layers.get(metric, 0.0) + seconds
        for s in spans:
            if s.name in CALLS:
                layers[CALLS[s.name]] = layers.get(CALLS[s.name], 0) + 1
            if s.name == "similarity.similarity_vector":
                key = "similarity.vector_thread_s"
                layers[key] = layers.get(key, 0.0) + (s.end - s.start)
            for key, value in (s.counts or {}).items():
                layers[key] = layers.get(key, 0) + value
        return layers


# ---------------------------------------------------------------- workloads


@dataclass
class Context:
    bench: Bench
    raw: datagen.RawData
    ref: oracle.Filtered
    seed: int
    seconds: float
    trace: bool

    @property
    def out(self) -> str:
        return str(self.bench.out)


def setup(ctx: Context) -> None:
    argv = [
        "ingest", "--objects", str(ctx.raw.objects_path),
        "--tags", str(ctx.raw.tags_path), "--out", ctx.out,
    ]
    for i in range(SETUP_REPEATS):
        op = ctx.bench.run("setup", argv, traced=ctx.trace and i % 2 == 1)
        check_ingest(ctx, op)


def measure(ctx: Context, main: Stream, probe: Stream) -> tuple[list[Op], list[Op]]:
    """Run main operations until --seconds have passed and at least
    `main.count` ran, with `probe.count` probe operations spread evenly over
    that time, so that both see the same share of the machine's slow and
    fast spells. When tracing, every second operation of each is traced."""
    minimum = max(main.count, 2) if ctx.trace else main.count
    main_ops: list[Op] = []
    probe_ops: list[Op] = []

    def step(stream: Stream, ops: list[Op]) -> None:
        i = len(ops)
        ops.append(ctx.bench.run(stream.phase, stream.argv_of(i), ctx.trace and i % 2 == 1))

    start = time.perf_counter()
    while len(main_ops) < minimum or time.perf_counter() - start < ctx.seconds:
        elapsed = time.perf_counter() - start
        due = min(probe.count, int(elapsed / ctx.seconds * probe.count) + 1)
        while len(probe_ops) < due:
            step(probe, probe_ops)
        step(main, main_ops)
    while len(probe_ops) < probe.count:
        step(probe, probe_ops)
    return main_ops, probe_ops


def sweep_argv(ctx: Context, kinds: str, runs: int, lam: float | None) -> list[str]:
    grid = (
        ["--lambda", repr(lam)] if lam is not None
        else ["--lambda-min", "0", "--lambda-max", "1", "--lambda-step", repr(FINE_STEP)]
    )
    return [
        "sweep", "--out", ctx.out, "--similarity", kinds, *grid,
        "--runs", str(runs), "--seed", str(ctx.seed),
        "--train-frac", repr(TRAIN_FRACTION), "--L", ",".join(map(str, LIST_LENGTHS)),
    ]


def recommend_plan(ref: oracle.Filtered, seed: int) -> list[tuple[int, str, float]]:
    """Distinct users, about 80% drawn at random and 20% from the top decile
    by degree; kinds cycle; lambda is seeded in [0, 1]."""
    m = len(ref.users)
    rng = np.random.default_rng([seed, 7])
    degree = np.bincount(ref.user_object[:, 0], minlength=m)
    top = list(rng.permutation(np.argsort(-degree, kind="stable")[: max(1, m // 10)]))
    anyone = list(rng.permutation(m))
    used: set[int] = set()
    plan = []
    while len(plan) < m:
        pool = top if (rng.random() < 0.2 and top) or not anyone else anyone
        user = int(pool.pop())
        if user in used:
            continue
        used.add(user)
        i = len(plan)
        plan.append((user, oracle.KINDS[i % 3], round(float(rng.random()), 6)))
    return plan


def recommend_argv(ctx: Context, plan, i: int) -> list[str]:
    user, kind, lam = plan[i % len(plan)]
    return [
        "recommend", "--out", ctx.out, "--user", ctx.ref.users[user],
        "--lambda", repr(lam), "--L", str(RECOMMEND_L), "--similarity", kind,
    ]


def sweeps(ctx: Context, kinds: str, runs: int, lam: float | None, count: int) -> Stream:
    argv = sweep_argv(ctx, kinds, runs, lam)
    return Stream("sweep", lambda i: argv, count)


def recommends(ctx: Context, count: int) -> Stream:
    plan = recommend_plan(ctx.ref, ctx.seed)
    return Stream("recommend", lambda i: recommend_argv(ctx, plan, i), count)


def seeded_lambda(seed: int, stream: int) -> float:
    """One of 0.1 .. 0.9, fixed by the seed."""
    return int(np.random.default_rng([seed, stream]).integers(1, 10)) / 10


def sweep_fine(ctx: Context) -> tuple[list[Op], list[Op]]:
    main = sweeps(ctx, "diffusion", 1, None, 1)
    return measure(ctx, main, recommends(ctx, PROBE_RECOMMEND_CALLS))


def recommend_mix(ctx: Context) -> tuple[list[Op], list[Op]]:
    # every similarity kind at one lambda: the probe sweeps carry the
    # similarity kernels and the split, the rank loop is small
    probe = sweeps(ctx, ",".join(oracle.KINDS), 1, seeded_lambda(ctx.seed, 5), PROBE_SWEEPS)
    return measure(ctx, recommends(ctx, MIN_RECOMMEND_CALLS), probe)


WORKLOADS = {
    "sweep_fine": sweep_fine,
    "recommend_mix": recommend_mix,
}


# ------------------------------------------------------------------ checks


def check_ingest(ctx: Context, op: Op) -> None:
    if op.rc != 0:
        return
    try:
        summary = json.loads(op.stdout)
    except json.JSONDecodeError:
        summary = None
    if summary != ctx.ref.summary():
        op.failures.append(f"ingest summary {summary} != {ctx.ref.summary()}")
    warnings = sum(line.startswith("warning:") for line in op.stderr.splitlines())
    if warnings != ctx.raw.parse_errors:
        op.failures.append(f"{warnings} parse warnings, expected {ctx.raw.parse_errors}")


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_sweeps(ctx: Context, ops: list[Op], checked_lambdas=None) -> dict:
    """Check sweep CSVs against the reference; returns per-kind details.

    A cell error reported on stderr fails its operation. Every cell of every
    kind is checked for structure and for the identity
    precision * m * L == recall * test pairs; the cells at the reference
    lambdas (all of them unless `checked_lambdas` is given) are compared with
    the reference within oracle.TOLERANCE. Later operations with the same
    arguments must write byte-identical CSVs.
    """
    for op in ops:
        cell_errors = [line for line in op.stderr.splitlines() if line.startswith("warning:")]
        if cell_errors:
            op.failures.append(f"{len(cell_errors)} cell errors, first: {cell_errors[0]}")
    ops = [op for op in ops if op.rc == 0]
    details: dict[str, dict] = {}
    if not ops:
        return details
    argv = ops[0].argv
    kinds = _argv_value(argv, "--similarity").split(",")
    runs = int(_argv_value(argv, "--runs"))
    if "--lambda" in argv:
        grid = [float(_argv_value(argv, "--lambda"))]
    else:
        grid = [round(i * FINE_STEP, 10) for i in range(round(1 / FINE_STEP) + 1)]
    lambdas = grid if checked_lambdas is None else checked_lambdas
    header = ["similarity", "lambda", "run", "rank_score"]
    header += [f"recall@{L}" for L in LIST_LENGTHS]
    header += [f"precision@{L}" for L in LIST_LENGTHS]
    m = len(ctx.ref.users)
    for kind in kinds:
        name = f"sweep_{kind}.csv"
        first = ops[0].files.get(name)
        if first is None:
            ops[0].failures.append(f"{name} not written")
            continue
        digest = hashlib.sha256(first.encode()).hexdigest()
        for op in ops[1:]:
            if op.files.get(name) != first:
                op.failures.append(f"{name} differs between identical sweeps")
        reference, test_pairs = oracle.sweep_rows(
            ctx.ref, kind, lambdas, runs, ctx.seed, TRAIN_FRACTION, LIST_LENGTHS
        )
        fail = ops[0].failures
        lines = first.splitlines()
        if lines[:1] != [",".join(header)]:
            fail.append(f"{name}: header {lines[:1]}")
            continue
        rows = [line.split(",") for line in lines[1:]]
        expected_keys = [(lam, run) for lam in grid for run in range(runs)]
        try:
            keys = [(float(r[1]), int(r[2])) for r in rows]
            values = [[float(x) for x in r[3:]] for r in rows]
        except (ValueError, IndexError):
            fail.append(f"{name}: unparseable row")
            continue
        if sorted(keys) != sorted(expected_keys) or any(r[0] != kind for r in rows):
            fail.append(f"{name}: cells {len(keys)}, expected {len(expected_keys)}")
            continue
        identical = True
        for row, key, vals in zip(rows, keys, values):
            n_p = test_pairs[key[1]]
            rank, recall, precision = vals[0], vals[1 : 1 + len(LIST_LENGTHS)], vals[1 + len(LIST_LENGTHS) :]
            if not 0.0 < rank < 1.0 or any(not 0.0 <= v <= 1.0 for v in recall + precision):
                fail.append(f"{name} {key}: value out of range")
            for L, r, p in zip(LIST_LENGTHS, recall, precision):
                if abs(p * m * L - r * n_p) > 1e-6 * max(1.0, r * n_p):
                    fail.append(f"{name} {key}: precision and recall disagree at L={L}")
            if key in reference:
                ref_row = reference[key]
                identical &= row == ref_row
                for col, value, ref_value in zip(header[3:], vals, ref_row[3:]):
                    if not oracle.within_tolerance(col, value, float(ref_value)):
                        fail.append(f"{name} {key} {col}: {value!r}, reference {ref_value}")
        details[kind] = {
            "sha256": digest,
            "cells": len(rows),
            "cells_vs_reference": len(reference),
            "rows_identical_to_reference": identical,
        }
    return details


def check_recommends(ctx: Context, ops: list[Op]) -> None:
    graphs = [(adj, adj.T.tocsr()) for adj in ctx.ref.graphs()]
    user_index = {u: i for i, u in enumerate(ctx.ref.users)}
    object_index = {o: i for i, o in enumerate(ctx.ref.objects)}
    for op in ops:
        if op.rc != 0:
            continue
        user = user_index[_argv_value(op.argv, "--user")]
        kind = _argv_value(op.argv, "--similarity")
        lam = float(_argv_value(op.argv, "--lambda"))
        L = int(_argv_value(op.argv, "--L"))
        try:
            printed = [
                (object_index[obj], float(score))
                for obj, score in (line.split("\t") for line in op.stdout.splitlines())
            ]
        except (KeyError, ValueError):
            op.failures.append("unparseable recommend output")
            continue
        problem = oracle.check_top_l(printed, oracle.recommend_scores(graphs, user, kind, lam), L)
        if problem:
            op.failures.append(f"recommend {op.argv[3:]}: {problem}")


def checked_fine_lambdas(seed: int) -> list[float]:
    points = round(1 / FINE_STEP)
    rng = np.random.default_rng([seed, 11])
    interior = rng.choice(np.arange(1, points), FINE_CHECKED_INTERIOR, replace=False)
    return [round(int(i) * FINE_STEP, 10) for i in sorted([0, points, *interior.tolist()])]


# ----------------------------------------------------------------- metrics


def end_to_end(setup_ops, sweep_ops, recommend_ops, rss_mb: float) -> dict:
    rec_ms = [op.wall * 1000.0 for op in recommend_ops]
    return {
        "setup_s": (statistics.median(op.wall for op in setup_ops), "s"),
        "sweep_s": (statistics.median(op.wall for op in sweep_ops), "s"),
        "recommend_p50_ms": (float(np.percentile(rec_ms, 50)), "ms"),
        "recommend_p90_ms": (float(np.percentile(rec_ms, 90)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ctx: Context, phases: list[list[Op]], failed: int, attempted: int) -> dict:
    """Per-layer metrics summed over phases, each phase's value the mean
    over its traced operations."""
    totals: dict[str, float] = {}
    traced_wall = untraced_wall = 0.0
    for ops in phases:
        traced = [op for op in ops if op.traced]
        sums: dict[str, float] = {}
        for op in traced:
            for key, value in op.layers.items():
                sums[key] = sums.get(key, 0) + value
        for key, value in sums.items():
            totals[key] = totals.get(key, 0) + value / len(traced)
        traced_wall += statistics.mean(op.wall for op in traced)
        untraced_wall += statistics.mean(op.wall for op in ops if not op.traced)
    kept = totals.pop("ingest.core_filter_users_kept")
    totals["ingest.core_filter_users_removed"] = ctx.raw.raw_users - kept
    metrics = {}
    for name in LAYER_METRICS:
        unit = "s" if name.endswith("_s") else "bytes" if "bytes" in name else "count"
        metrics[name] = (float(totals.get(name, 0.0)), unit)
    metrics["trace.overhead_pct"] = ((traced_wall / untraced_wall - 1.0) * 100.0, "%")
    metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics


def environment() -> dict:
    import tridiff

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tridiff": getattr(tridiff, "__version__", "unknown"),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("TRIDIFF_")]:
        del os.environ[key]  # the CLI reads flags from TRIDIFF_* variables
    try:
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    clock = {"start": time.perf_counter()}
    try:
        raw = datagen.generate(args.seed, SCALE, work / "raw")
        ref = oracle.core_filter(raw)
        bench = Bench(cli, work)
        ctx = Context(bench, raw, ref, args.seed, args.seconds, bool(args.trace))
        clock["data"] = time.perf_counter()
        setup(ctx)
        clock["setup"] = time.perf_counter()
        main_ops, probe_ops = WORKLOADS[args.workload](ctx)
        clock["measure"] = time.perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_ops = [op for op in bench.ops if op.phase == "setup"]
        sweeps = [op for op in bench.ops if op.phase == "sweep"]
        recommends = [op for op in bench.ops if op.phase == "recommend"]
        checked = checked_fine_lambdas(args.seed) if args.workload == "sweep_fine" else None
        csv_details = check_sweeps(ctx, sweeps, checked)
        check_recommends(ctx, recommends)
        clock["check"] = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    attempted = len(bench.ops)
    failures = [f for op in bench.ops for f in op.failures]
    failed = sum(1 for op in bench.ops if op.failures)
    if args.trace:
        phases = [setup_ops, main_ops, probe_ops]
        metrics = per_layer(ctx, phases, failed, attempted)
    else:
        metrics = end_to_end(setup_ops, sweeps, recommends, rss_mb)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "data": {
            **ref.summary(),
            "raw_users": raw.raw_users,
            "raw_object_events": len(raw.object_events),
            "raw_tag_events": len(raw.tag_events),
            "parse_errors": raw.parse_errors,
            "core_filter_passes": ref.passes,
        },
        "samples": {"setup": len(setup_ops), "sweep": len(sweeps), "recommend": len(recommends)},
        "phase_s": {
            name: round(clock[name] - clock[prev], 3)
            for prev, name in zip(list(clock), list(clock)[1:])
        },
        "sweep_csv": csv_details,
        "tolerance": oracle.TOLERANCE,
        "trace_skipped": bench.tracer.skipped,
        "failures": failures[:10],
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
