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
by m * L with m the full filtered user count, each a division of Python ints
that rounds once, so P * m * L = R * N_p holds exactly per cell for every L.

Results are arrays. A split's metrics at every lambda form one row per grid
point and one column per metric, in metric_names order; a kind's sweep
stacks them as cells[run, g, k], and its means and optima are read off that
array. The number of held-out edges does not depend on the seed, so every run
of a sweep has test pairs or none has: a sweep whose train fraction holds out
nothing is refused before the first split.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import BipartiteGraph, TripartiteDataset
from .ingest import EvaluationSplit, split
from .recommend import LambdaGrid, Scorer
from .similarity import DIFFUSION, KINDS


class UndefinedMetricError(ValueError):
    """Raised when a metric is requested for an empty test set."""


MAX_LAMBDA_POINTS = 10_001
# Test users scored at once. On the benchmark's seed-1 data (2-vCPU VM, split
# seed 0, one serial evaluate_split, median of 3 interleaved) blocks of 8, 16
# and 32 took 2.00, 1.76 and 2.00 s at 51 lambdas and 0.89, 0.75 and 0.77 s
# at one; a block's dense scores stay small.
BLOCK_USERS = 16
# A split with fewer blocks than this is scored in-process. Starting two
# forked workers, warming them up and ending them cost ~40 ms; on the
# benchmark's seed-1 data (2-vCPU VM, 15 alternating pairs per point) the
# pool broke even near 8 blocks at 51 lambdas and between 16 and 32 blocks
# at one lambda, whose blocks are the lightest (~8 ms).
MIN_POOL_BLOCKS = 32


def lambda_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Grid lo .. hi inclusive at the given step, each point rounded to 10
    places; whole steps must reach hi within 1e-9 at distinct points."""
    if not (0.0 < step < math.inf and lo <= hi and math.isfinite((hi - lo) / step)):
        raise ValueError(f"lambda grid needs finite lo <= hi and finite step > 0, got step {step}")
    count = round((hi - lo) / step)
    if count >= MAX_LAMBDA_POINTS:
        raise ValueError(f"lambda step {step} makes {count + 1} points, over {MAX_LAMBDA_POINTS}")
    if abs(lo + count * step - hi) > 1e-9:
        raise ValueError(f"lambda step {step} from {lo} ends at {lo + count * step}, not {hi}")
    grid = tuple(round(lo + i * step, 10) for i in range(count + 1))
    if len(set(grid)) < len(grid):
        raise ValueError(f"lambda step {step} repeats points rounded to 10 places")
    return grid


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
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly ascending")
        if not 0.0 < self.train_fraction <= 1.0:  # also rejects NaN
            raise ValueError(f"train_fraction must lie in (0, 1], got {self.train_fraction}")
        if not self.list_lengths or any(length < 1 for length in self.list_lengths):
            raise ValueError(f"list lengths must be non-empty and >= 1, got {self.list_lengths}")
        if len(set(self.list_lengths)) != len(self.list_lengths):
            raise ValueError(f"list lengths must be distinct, got {self.list_lengths}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """One kind's sweep: cells[run, g, k] is metric k (metric_names order) of
    run `run` at config.lambda_grid[g]."""

    config: ExperimentConfig
    cells: np.ndarray

    @property
    def means(self) -> np.ndarray:
        """Per-lambda means over runs (lambda x metric). Each is taken along
        a contiguous runs axis, so it equals np.mean of the column bit for
        bit; cells.mean(axis=0) adds the runs in another order."""
        return np.ascontiguousarray(np.moveaxis(self.cells, 0, -1)).mean(axis=-1)

    @property
    def optima(self) -> dict[str, tuple[float, float]]:
        """Each metric's best (lambda, mean): the lowest rank score, the
        highest recall and precision, ties to the smaller lambda."""
        means = self.means
        best = [int(means[:, 0].argmin()), *means[:, 1:].argmax(axis=0).tolist()]
        names = metric_names(self.config.list_lengths)
        return {
            name: (self.config.lambda_grid[g], float(means[g, k]))
            for k, (name, g) in enumerate(zip(names, best))
        }


def evaluate_split(
    evaluation_split: EvaluationSplit,
    kind: str,
    lambda_grid: Sequence[float],
    list_lengths: Sequence[int],
) -> np.ndarray:
    """Ranking score, Recall@L and Precision@L of one split at every lambda,
    as a (lambda x metric) array in metric_names order.

    Each edge of the test graph is one test pair, taken by user, then
    object. Raises ValueError for a lambda outside [0, 1], before any worker
    starts, and UndefinedMetricError when the split has no test pair. The
    ranks of _scored_pairs are added one at a time, each user's in
    test-object order, then the user totals in user order, whoever scored them.
    """
    grid = LambdaGrid(lambda_grid, list_lengths)
    test = evaluation_split.test
    n_p = test.edge_count
    if n_p == 0:
        raise UndefinedMetricError("metrics are undefined for an empty test set")

    ranks, listed = _scored_pairs(Scorer(evaluation_split.training, kind), test, grid)
    # pass k adds the k-th test pair of every user that has one; a user
    # without test pairs keeps a total of 0.0, which adds nothing
    degrees, firsts = test.left_degrees, test.indptr[:-1]
    totals = np.zeros((test.left_count, len(grid.lams)))
    for k in range(degrees.max()):
        totals[degrees > k] += ranks[firsts[degrees > k] + k]
    rank_sums = np.cumsum(totals, axis=0)[-1]
    hit_sums = listed.sum(axis=0)

    # int / int true division rounds once, so recall and precision are the
    # shared hit count over their own denominators (m: all users), exactly;
    # m * L is taken in Python ints, which do not wrap at 2**63
    denominators = np.array([test.left_count * int(L) for L in list_lengths], dtype=object)
    precision = (hit_sums.astype(object) / denominators).astype(np.float64)
    return np.column_stack((rank_sums / n_p, hit_sums / n_p, precision))


# Set by the initializer of each pool worker, never in the parent process.
_worker_state: tuple = ()


def _init_worker(*state) -> None:
    global _worker_state
    _worker_state = state


def _score_block(start: int, state: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """block_stats of the users users[start : start + BLOCK_USERS] as one
    block, where state is (scorer, test, users, grid); a pool worker's by
    default."""
    scorer, test, users, grid = state or _worker_state
    block = users[start : start + BLOCK_USERS]
    return scorer.block_stats(*scorer.channel_scores(block), block, test, grid)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where fork or the mask is missing."""
    if "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _scored_pairs(
    scorer: Scorer, test: BipartiteGraph, grid: LambdaGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Scorer.block_stats' ranks and list flags for every edge of test, in
    edge order: the users with test edges, ascending, are scored in blocks
    of BLOCK_USERS, concatenated in block order. One forked worker per usable
    CPU scores the blocks, inheriting the state without pickling it; with one
    CPU or fewer than MIN_POOL_BLOCKS blocks this process does. A worker
    that dies raises BrokenProcessPool once the others are ended.

    The blocks go out in Pool.map's default chunks, ceil(blocks / (4 *
    workers)): one block per task cost ~18% more at one lambda, and at 51
    lambdas chunks of 1 to 23 blocks measured the same.
    """
    users = np.flatnonzero(test.left_degrees)
    state = (scorer, test, users, grid)
    starts = range(0, len(users), BLOCK_USERS)
    workers = min(_usable_cpus(), len(starts)) if len(starts) >= MIN_POOL_BLOCKS else 1
    if workers < 2:
        blocks = [_score_block(start, state) for start in starts]
    else:
        # fork, not spawn: a spawned pool re-imports the libraries and
        # unpickles the ~6 MB scorer in each worker, ~1 s against ~25 ms.
        # The workers make no BLAS call, so the BLAS thread of `import numpy`,
        # which Python 3.12's fork DeprecationWarning counts, holds no lock
        # a worker could need.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, fork, _init_worker, state) as pool:
            chunk = -(-len(starts) // (4 * workers))
            blocks = list(pool.map(_score_block, starts, chunksize=chunk))
    ranks, listed = zip(*blocks)  # per block
    return np.concatenate(ranks), np.concatenate(listed)


def run_sweep(dataset: TripartiteDataset, config: ExperimentConfig) -> dict[str, MetricsReport]:
    """Full protocol: seeded splits, lambda sweep, per-run metrics, means,
    optima. Each run draws one split and scores every kind on it; the
    reports are keyed by kind in config order.

    Raises UndefinedMetricError before the first split when the train
    fraction holds out no user-object edge (an empty dataset included).
    Deterministic given the config.
    """
    edges = dataset.user_object.edge_count
    if round(config.train_fraction * edges) == edges:
        raise UndefinedMetricError(
            f"train fraction {config.train_fraction} holds out none of the "
            f"{edges} user-object edges, so no metric is defined"
        )

    rows = {kind: [] for kind in config.similarity_kinds}  # per run
    for run in range(config.runs):
        evaluation_split = split(dataset, config.train_fraction, config.base_seed + run)
        for kind, kind_rows in rows.items():
            kind_rows.append(
                evaluate_split(evaluation_split, kind, config.lambda_grid, config.list_lengths)
            )
    return {kind: MetricsReport(config, np.stack(kind_rows)) for kind, kind_rows in rows.items()}
