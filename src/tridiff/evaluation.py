"""Experimental protocol: ranking score, Recall@L, Precision@L over seeded
random splits and a lambda sweep.

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
from .recommend import CHANNELS, FUSED, Scorer
from .similarity import DIFFUSION, KINDS


class UndefinedMetricError(ValueError):
    """Raised when a metric is requested for an empty test set."""


def lambda_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Grid lo .. hi inclusive at the given step, each point rounded to 10 places."""
    if not (step > 0.0 and math.isfinite((hi - lo) / step)):
        raise ValueError(f"lambda grid needs finite bounds and a step > 0, got {step}")
    count = round((hi - lo) / step)
    return tuple(round(lo + i * step, 10) for i in range(count + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    similarity_kind: str = DIFFUSION
    lambda_grid: tuple[float, ...] = field(
        default_factory=functools.partial(lambda_grid, 0.0, 1.0, 0.02)
    )
    runs: int = 5
    train_fraction: float = 0.9
    list_lengths: tuple[int, ...] = (10, 20)
    base_seed: int = 0
    channel: str = FUSED  # "fused" sweeps lambda; "object"/"tag" use one graph

    def __post_init__(self) -> None:
        if self.similarity_kind not in KINDS:
            raise ValueError(f"unknown similarity kind: {self.similarity_kind!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel: {self.channel!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        grid = tuple(self.lambda_grid)
        if not grid or any(not 0.0 <= lam <= 1.0 for lam in grid):
            raise ValueError("lambda_grid must be non-empty within [0, 1]")
        if list(grid) != sorted(grid):
            raise ValueError("lambda_grid must be sorted ascending")
        if any(length < 1 for length in self.list_lengths):
            raise ValueError("list lengths must be >= 1")


@dataclass(frozen=True)
class CellMetrics:
    """Metrics of one (lambda, run) cell. hits[L] is the shared numerator."""

    rank_score: float
    recall: dict[int, float]
    precision: dict[int, float]
    hits: dict[int, int]
    n_p: int


@dataclass(frozen=True)
class MetricsReport:
    config: ExperimentConfig
    per_cell: dict[tuple[float, int], CellMetrics]
    cell_errors: dict[tuple[float, int], str]
    means: dict[float, dict[str, float]]
    optima: dict[str, tuple[float, float]]


def _test_pairs_by_user(evaluation_split: EvaluationSplit) -> dict[int, list[int]]:
    by_user: dict[int, list[int]] = {}
    for u, alpha in sorted(evaluation_split.test_edges):
        by_user.setdefault(u, []).append(alpha)
    return by_user


def evaluate_split(
    evaluation_split: EvaluationSplit,
    kind: str,
    lambda_grid: Sequence[float],
    list_lengths: Sequence[int],
    channel: str = FUSED,
) -> dict[float, CellMetrics]:
    """Ranking score, Recall@L and Precision@L of one split at every lambda.

    Raises UndefinedMetricError when the split has no test pair.
    """
    n_p = evaluation_split.test_count
    if n_p == 0:
        raise UndefinedMetricError("metrics are undefined for an empty test set")

    training = evaluation_split.training
    m = training.user_object.left_count
    scorer = Scorer(training, kind)
    rank_sums = {lam: 0.0 for lam in lambda_grid}
    hit_sums = {lam: {L: 0 for L in list_lengths} for lam in lambda_grid}

    for v, test_objects in _test_pairs_by_user(evaluation_split).items():
        p_obj, p_tag = scorer.channel_scores(v)
        for lam in lambda_grid:
            p = scorer.combine(p_obj, p_tag, lam, channel)
            ranks, hits = scorer.pair_stats(p, v, test_objects, list_lengths)
            rank_sums[lam] += sum(ranks)
            for L in list_lengths:
                hit_sums[lam][L] += hits[L]

    return {
        lam: CellMetrics(
            rank_score=rank_sums[lam] / n_p,
            recall={L: hit_sums[lam][L] / n_p for L in list_lengths},
            precision={L: hit_sums[lam][L] / (m * L) for L in list_lengths},
            hits=dict(hit_sums[lam]),
            n_p=n_p,
        )
        for lam in lambda_grid
    }


def run_experiment(dataset: TripartiteDataset, config: ExperimentConfig) -> MetricsReport:
    """Full protocol: seeded splits, lambda sweep, per-run metrics, means, optima.

    Deterministic given the config.
    """
    if dataset.is_empty:
        raise ValueError("dataset is empty")

    per_cell: dict[tuple[float, int], CellMetrics] = {}
    cell_errors: dict[tuple[float, int], str] = {}
    for run in range(config.runs):
        evaluation_split = split(dataset, config.train_fraction, config.base_seed + run)
        try:
            cells = evaluate_split(
                evaluation_split,
                config.similarity_kind,
                config.lambda_grid,
                config.list_lengths,
                config.channel,
            )
        except UndefinedMetricError:
            for lam in config.lambda_grid:
                cell_errors[(lam, run)] = "empty test set"
            continue
        for lam, cell in cells.items():
            per_cell[(lam, run)] = cell

    means: dict[float, dict[str, float]] = {}
    for lam in config.lambda_grid:
        cells = [per_cell[(lam, r)] for r in range(config.runs) if (lam, r) in per_cell]
        if not cells:
            continue
        entry: dict[str, float] = {
            "rank_score": float(np.mean([c.rank_score for c in cells]))
        }
        for L in config.list_lengths:
            entry[f"recall@{L}"] = float(np.mean([c.recall[L] for c in cells]))
            entry[f"precision@{L}"] = float(np.mean([c.precision[L] for c in cells]))
        means[lam] = entry

    optima: dict[str, tuple[float, float]] = {}
    if means:
        lams = sorted(means)
        best = min(lams, key=lambda lam: (means[lam]["rank_score"], lam))
        optima["rank_score"] = (best, means[best]["rank_score"])
        for L in config.list_lengths:
            for metric in (f"recall@{L}", f"precision@{L}"):
                best = max(lams, key=lambda lam: (means[lam][metric], -lam))
                optima[metric] = (best, means[best][metric])

    return MetricsReport(
        config=config,
        per_cell=per_cell,
        cell_errors=cell_errors,
        means=means,
        optima=optima,
    )
