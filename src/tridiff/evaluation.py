"""Experimental protocol: ranking score, Recall@L, Precision@L over seeded
random splits and a lambda sweep. Every similarity kind of a sweep is scored
on the same splits.

Ranking convention: for a held-out (user, object) pair the object is ranked
among ALL objects the user did not collect in training, by descending
preference score. Tie blocks (including the large zero-score block) get the
midrank of the block, which equals the expected rank over random tie
orderings. The relative rank is midrank / (number of uncollected objects);
averaging it over all test pairs gives the ranking score (lower is better).

Recall@L and Precision@L share the numerator sum-of-hits; Precision divides
by m * L with m the full filtered user count, so P * m * L = R * N_p holds
exactly per cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import TripartiteDataset
from .ingest import EvaluationSplit, split
from .recommend import Scorer
from .similarity import DIFFUSION, KINDS


class UndefinedMetricError(ValueError):
    """Raised when a metric is requested for an empty test set."""


MAX_LAMBDA_POINTS = 10_001
# Test users scored at once: on the benchmark's seed-1 data (2-vCPU VM) 16
# was the fastest block measured, and a block's dense scores stay small.
BLOCK_USERS = 16


def lambda_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Grid lo .. hi inclusive at the given step, each point rounded to 10 places."""
    if not (step > 0.0 and math.isfinite((hi - lo) / step)):
        raise ValueError(f"lambda grid needs finite bounds and a step > 0, got {step}")
    count = round((hi - lo) / step)
    if count >= MAX_LAMBDA_POINTS:
        raise ValueError(
            f"lambda grid of {count + 1} points exceeds the limit of {MAX_LAMBDA_POINTS}"
        )
    return tuple(round(lo + i * step, 10) for i in range(count + 1))


def metric_names(list_lengths: Sequence[int]) -> list[str]:
    """The metric columns of a sweep, in report order."""
    return ["rank_score"] + [f"{m}@{L}" for m in ("recall", "precision") for L in list_lengths]


@dataclass(frozen=True)
class ExperimentConfig:
    similarity_kinds: tuple[str, ...] = (DIFFUSION,)
    lambda_grid: tuple[float, ...] = field(
        default_factory=functools.partial(lambda_grid, 0.0, 1.0, 0.02)
    )
    runs: int = 5
    train_fraction: float = 0.9
    list_lengths: tuple[int, ...] = (10, 20)
    base_seed: int = 0

    def __post_init__(self) -> None:
        kinds = tuple(self.similarity_kinds)
        if not kinds or len(set(kinds)) != len(kinds) or not set(kinds) <= set(KINDS):
            raise ValueError(f"similarity kinds must be distinct ones of {KINDS}, got {kinds}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        grid = tuple(self.lambda_grid)
        if not grid or any(not 0.0 <= lam <= 1.0 for lam in grid):
            raise ValueError("lambda_grid must be non-empty within [0, 1]")
        if list(grid) != sorted(grid):
            raise ValueError("lambda_grid must be sorted ascending")
        if not 0.0 < self.train_fraction <= 1.0:  # also rejects NaN
            raise ValueError(f"train_fraction must lie in (0, 1], got {self.train_fraction}")
        if any(length < 1 for length in self.list_lengths):
            raise ValueError("list lengths must be >= 1")
        if len(set(self.list_lengths)) != len(self.list_lengths):
            raise ValueError(f"list lengths must be distinct, got {self.list_lengths}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True)
class CellMetrics:
    """Metrics of one (lambda, run) cell. hits[L] is the shared numerator."""

    rank_score: float
    recall: dict[int, float]
    precision: dict[int, float]
    hits: dict[int, int]
    n_p: int

    def values(self) -> list[float]:
        """The cell's metrics in metric_names order."""
        return [self.rank_score, *self.recall.values(), *self.precision.values()]


@dataclass(frozen=True)
class MetricsReport:
    config: ExperimentConfig
    per_cell: dict[tuple[float, int], CellMetrics]
    cell_errors: dict[tuple[float, int], str]
    means: dict[float, dict[str, float]]
    optima: dict[str, tuple[float, float]]


def evaluate_split(
    evaluation_split: EvaluationSplit,
    kind: str,
    lambda_grid: Sequence[float],
    list_lengths: Sequence[int],
) -> dict[float, CellMetrics]:
    """Ranking score, Recall@L and Precision@L of one split at every lambda.

    Each distinct test pair counts once. Raises UndefinedMetricError when the
    split has no test pair.
    """
    pairs = np.unique(evaluation_split.test_edges, axis=0)  # by user, then object
    n_p = len(pairs)
    if n_p == 0:
        raise UndefinedMetricError("metrics are undefined for an empty test set")

    training = evaluation_split.training
    m = training.user_object.left_count
    scorer = Scorer(training, kind)
    rank_sums = np.zeros(len(lambda_grid))
    hit_sums = np.zeros((len(lambda_grid), len(list_lengths)), dtype=np.int64)

    users, starts = np.unique(pairs[:, 0], return_index=True)
    test_objects = np.split(pairs[:, 1], starts[1:])
    for start in range(0, len(users), BLOCK_USERS):
        block = users[start : start + BLOCK_USERS]
        p_obj, p_tag = scorer.channel_scores(block)
        for i, v in enumerate(block.tolist()):
            ranks, hits = scorer.sweep_stats(
                p_obj[i], p_tag[i], v, test_objects[start + i], lambda_grid, list_lengths
            )
            rank_sums += np.cumsum(ranks, axis=0)[-1]  # in test-object order
            hit_sums += hits

    cells = {}
    for g, lam in enumerate(lambda_grid):
        hits = dict(zip(list_lengths, hit_sums[g].tolist()))
        cells[lam] = CellMetrics(
            rank_score=float(rank_sums[g] / n_p),
            recall={L: h / n_p for L, h in hits.items()},
            precision={L: h / (m * L) for L, h in hits.items()},
            hits=hits,
            n_p=n_p,
        )
    return cells


def _report(
    config: ExperimentConfig,
    per_cell: dict[tuple[float, int], CellMetrics],
    cell_errors: dict[tuple[float, int], str],
) -> MetricsReport:
    """Per-lambda means over runs, and the lambda that optimises each mean:
    the lowest rank score, the highest recall and precision, ties to the
    smaller lambda."""
    names = metric_names(config.list_lengths)
    means: dict[float, dict[str, float]] = {}
    for lam in config.lambda_grid:
        cells = [per_cell[(lam, r)] for r in range(config.runs) if (lam, r) in per_cell]
        if cells:
            columns = zip(*(cell.values() for cell in cells))
            means[lam] = {name: float(np.mean(col)) for name, col in zip(names, columns)}

    optima: dict[str, tuple[float, float]] = {}
    if means:
        lams = sorted(means)
        for name in names:
            sign = 1 if name == "rank_score" else -1
            best = min(lams, key=lambda lam: (sign * means[lam][name], lam))
            optima[name] = (best, means[best][name])
    return MetricsReport(config, per_cell, cell_errors, means, optima)


def run_sweep(dataset: TripartiteDataset, config: ExperimentConfig) -> dict[str, MetricsReport]:
    """Full protocol: seeded splits, lambda sweep, per-run metrics, means,
    optima. Each run draws one split and scores every kind on it; the
    reports are keyed by kind in config order.

    Deterministic given the config.
    """
    if dataset.is_empty:
        raise ValueError("dataset is empty")

    per_cell: dict[str, dict[tuple[float, int], CellMetrics]] = {
        kind: {} for kind in config.similarity_kinds
    }
    cell_errors: dict[tuple[float, int], str] = {}
    for run in range(config.runs):
        evaluation_split = split(dataset, config.train_fraction, config.base_seed + run)
        if len(evaluation_split.test_edges) == 0:
            cell_errors.update(((lam, run), "empty test set") for lam in config.lambda_grid)
            continue
        for kind, cells in per_cell.items():
            scored = evaluate_split(
                evaluation_split, kind, config.lambda_grid, config.list_lengths
            )
            cells.update(((lam, run), cell) for lam, cell in scored.items())

    return {kind: _report(config, cells, dict(cell_errors)) for kind, cells in per_cell.items()}
