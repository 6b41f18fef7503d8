"""The scoring engine behind both top-L lists and the evaluation protocol.

The preference of a target user v for an object is the sum, over all other
users, of their similarity toward v times their adjacency to the object.
It is computed once per channel (similarities on the user-object graph and
on the user-tag graph, both scattered over the user-object graph), and the
channels are fused linearly with a weight lam in [0, 1] (lam = 1 keeps only
the object channel).

Objects the target already collected in training score COLLECTED in both
channels and never compete. A top-L list holds positive scores only, best
first, ties broken by ascending object index, as are the evaluation's
per-pair list flags. The protocol ranks a block of test users' held-out
pairs, the block's edges of the test graph, at every lambda of a sweep in
one block_stats call, on a LambdaGrid prepared once per split.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import BipartiteGraph, TripartiteDataset, _sparsetools
from .similarity import similarity_matrix

# A sweep with fewer distinct lambdas inside (0, 1) than this compares fused
# scores at every lambda. On the benchmark's seed-1 data (2-vCPU VM, split
# seed 0, blocks of 16, all 2936 test users, two interleaved passes) the
# crossing path took 1.28 / 1.04 s at 6 interior points against 1.20 / 1.00 s
# for the direct one, 1.27 / 1.05 s against 1.35 / 1.08 s at 7, and 1.27 /
# 1.06 s against 1.48 / 1.23 s at 8 (grids of 0, the interior points and 1).
MIN_CROSSING_POINTS = 7
_MARGIN_FACTOR = 16.0
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_PAIR_CHUNK = 1 << 16  # (competitor, lambda) pairs compared at once
# A collected object's score in both channels: below every real score (>= 0),
# and finite, so combine's 0 * score at lam = 0 or 1 is never NaN.
COLLECTED = -1.0


class LambdaGrid:
    """A sweep's lambdas and top-L list lengths, prepared once for every
    Scorer.block_stats call on them.

    lams holds the lambdas as given, in any order and with repeats. The grid
    is crossing when at least MIN_CROSSING_POINTS distinct lambdas lie inside
    (0, 1); it is then counted at points = [0, those lambdas, 1], where
    lams[g] is points[at[g]]. brackets is points with NaN at both ends, and
    spacing the smallest gap between points. Raises ValueError naming the
    first lambda outside [0, 1] (NaN included).
    """

    def __init__(self, lambdas: Sequence[float], list_lengths: Sequence[int]):
        self.lams = np.asarray(lambdas, dtype=np.float64)
        for lam in self.lams.tolist():
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"lambda {lam} is outside [0, 1]")
        self.list_lengths = tuple(list_lengths)
        interior = np.unique(self.lams[(self.lams > 0.0) & (self.lams < 1.0)])
        self.crossing = len(interior) >= MIN_CROSSING_POINTS
        self.points = np.concatenate(([0.0], interior, [1.0]))
        # a bracket at lam = 0 or 1, which the signs already decide, is NaN
        # and compares as neither above nor equal
        self.brackets = self.points.copy()
        self.brackets[[0, -1]] = np.nan
        self.at = np.searchsorted(self.points, self.lams)
        self.spacing = float(np.diff(self.points).min())


class Scorer:
    """Dense object scores toward users of one dataset for one similarity kind."""

    def __init__(self, dataset: TripartiteDataset, kind: str):
        self.dataset = dataset
        self.kind = kind
        self.n_objects = dataset.user_object.right_count
        _sparsetools()  # loaded here, so that forked pool workers inherit it

    def channel_scores(self, users: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Object scores toward each of users from the object and from the tag
        channel, as two C-contiguous (len(users), n_objects) arrays; each user's
        own similarity is left out. Every score sums over users in ascending
        order and is >= 0, but COLLECTED at the user's collected objects.
        """
        users = np.asarray(users, dtype=np.intp)
        collected = self.dataset.user_object.block_edges(users)
        scores = []
        for graph in (self.dataset.user_object, self.dataset.user_tag):
            s = similarity_matrix(graph, users, self.kind).T  # (m, len(users)), C-ordered
            s[users, np.arange(len(users))] = 0.0
            p = np.ascontiguousarray(self.dataset.user_object.tdot(s).T)
            p[collected] = COLLECTED
            scores.append(p)
        return scores[0], scores[1]

    @staticmethod
    def combine(p_obj: np.ndarray, p_tag: np.ndarray, lam: float) -> np.ndarray:
        """lam * object + (1 - lam) * tag; exactly p_obj at lam = 1 and
        p_tag at lam = 0."""
        return lam * p_obj + (1.0 - lam) * p_tag

    @staticmethod
    def top_l(p: np.ndarray, L: int) -> list[tuple[int, float]]:
        """The L best objects of a user's channel_scores row, or of their
        combine, as (object, score); only positive scores are listed."""
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        candidates = np.flatnonzero(p > 0.0)
        if len(candidates) > L:  # keep the L best and every score tied with the L-th
            values = p[candidates]
            candidates = candidates[values >= np.partition(values, -L)[-L]]
        best = candidates[np.argsort(-p[candidates], kind="stable")[:L]]
        return [(int(a), float(p[a])) for a in best]

    def block_stats(
        self, p_obj: np.ndarray, p_tag: np.ndarray, users: Sequence[int],
        test: BipartiteGraph, grid: LambdaGrid,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Relative midranks of the users' test objects among their
        uncollected objects, and whether each top-L list holds them, at
        every lambda of grid.

        Row i of p_obj and p_tag is channel_scores' row for users[i], whose
        test objects, its neighbors in the test graph (at least one), are
        uncollected. Pair q is the q-th edge of test.block_edges(users): users
        in order, each user's objects ascending, so blocks taken in user
        order concatenate to test's edge order. For pair q of row i, returns
        ranks[q, g], the midrank of its object under combine(p_obj[i],
        p_tag[i], grid.lams[g]) divided by the number of users[i]'s
        uncollected objects, and listed[q, g, j], whether the
        top-grid.list_lengths[j] list of that score holds it. A tie is == on
        combine's output; within a tie block top_l lists lower indices first.

        Both are computed here from each pair's counts at every lambda. A
        crossing grid is counted from crossing points for the whole block
        (_crossing_counts); a shorter grid compares fused scores at every
        lambda, one user at a time (_direct_counts). Neither writes into
        any argument.
        """
        rows, alphas = test.block_edges(users)
        counts = self._crossing_counts if grid.crossing else self._direct_counts
        (greater, equal, before), fa = counts(p_obj, p_tag, rows, alphas, grid)
        degrees = self.dataset.user_object.left_degrees[np.asarray(users)][rows]
        ranks = _midrank(greater, equal, self.n_objects - degrees[:, None])
        return ranks, _listed(fa, greater, before, grid.list_lengths)

    def _direct_counts(
        self, p_obj: np.ndarray, p_tag: np.ndarray,
        rows: np.ndarray, alphas: np.ndarray, grid: LambdaGrid,
    ) -> tuple[np.ndarray, np.ndarray]:
        """_crossing_counts' result by comparing fused scores, one user and
        one lambda at a time."""
        counts, scores = [], []
        for i in range(len(p_obj)):
            tests = alphas[rows == i]
            user_counts, user_scores = [], []
            for lam in grid.lams.tolist():
                p = self.combine(p_obj[i], p_tag[i], lam)
                user_scores.append(p[tests])
                user_counts.append([
                    (_count(p > pa), _count(p == pa), _count(p[:alpha] == pa))
                    for alpha, pa in zip(tests.tolist(), user_scores[-1].tolist())
                ])
            # (lambda, pair, count) -> (count, pair, lambda)
            counts.append(np.array(user_counts, dtype=np.int64).reshape(-1, len(tests), 3).T)
            scores.append(np.array(user_scores).reshape(-1, len(tests)).T)
        return np.concatenate(counts, axis=1), np.concatenate(scores)

    def _crossing_counts(
        self, p_obj: np.ndarray, p_tag: np.ndarray,
        rows: np.ndarray, alphas: np.ndarray, grid: LambdaGrid,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counts of each test pair q, object alphas[q] of row rows[q], at
        every lambda g of a crossing grid: counts[:, q, g] holds how many
        uncollected objects have a fused score above, equal to, and equal to
        with a lower index than the test object's, which is fa[q, g]. One
        pass over the user's row per pair and one crossing stage for the block.

        For a test object alpha and a competitor beta let d0 = t_beta - t_alpha
        and d1 = o_beta - o_alpha (t: tag channel, o: object channel). The
        fused difference lam * d1 + (1 - lam) * d0 is linear in lam, so its
        sign changes at most once, at lam* = d0 / (d0 - d1). At lam = 0 and
        lam = 1 combine returns one channel exactly, and the signs of d0 and
        d1 decide. Inside, beta ties alpha everywhere when d0 = d1 = 0, is
        above (below) alpha everywhere when both are >= 0 (<= 0), and
        otherwise changes side at lam*. Fused scores are compared directly
        at the interior points that bracket lam*, and at every point for a
        beta with |d0| and |d1| both within reach, twice _crossing_margin:
        for those, rounding could decide the comparison.
        """
        points, end = grid.points, len(grid.points) - 1
        reach = (2.0 * _crossing_margin(p_obj, p_tag, grid.spacing)).tolist()
        n = self.n_objects
        stats, cross, near = [], [], []
        for i, alpha in zip(rows.tolist(), alphas.tolist()):
            o, t, r = p_obj[i], p_tag[i], reach[i]
            oa, ta = float(o[alpha]), float(t[alpha])
            up0, down0 = t > ta, t < ta
            up1, down1 = o > oa, o < oa
            box = np.flatnonzero((t >= ta - r) & (t <= ta + r))
            o_box, t_box = o[box], t[box]
            box = box[(o_box >= oa - r) & (o_box <= oa + r) & ((t_box != ta) | (o_box != oa))]
            # count a beta in the box as below alpha everywhere, then compare it directly
            up0[box] = up1[box] = False
            down0[box] = down1[box] = True
            differ0, differ1 = up0 | down0, up1 | down1
            differ = differ0 | differ1
            ties = n - _count(differ)
            # lam = 0 is the tag channel, lam = 1 the object channel
            stats.append((
                (_count(up0), n - _count(differ0), alpha - _count(differ0[:alpha])),
                (_count(up1), n - _count(differ1), alpha - _count(differ1[:alpha])),
                (n - _count(down0 | down1) - ties, ties, alpha - _count(differ[:alpha])),
            ))
            cross.append(np.flatnonzero((up0 & down1) | (down0 & up1)))
            near.append(box)

        # counts[:, q, k]: above, equal and equal-before for pair q at points[k]
        n_pairs, width = len(alphas), end + 1
        stats = np.array(stats, dtype=np.int64).transpose(2, 0, 1)
        counts = np.empty((3, n_pairs, width), dtype=np.int64)
        counts[:, :, 0], counts[:, :, end] = stats[:, :, 0], stats[:, :, 1]
        counts[:, :, 1:end] = stats[:, :, 2, None]
        flat = counts.reshape(3, -1)
        o_alpha, t_alpha = p_obj[rows, alphas], p_tag[rows, alphas]
        fa = self.combine(o_alpha[:, None], t_alpha[:, None], points)

        pair = np.repeat(np.arange(n_pairs), [len(c) for c in cross])
        beta = np.concatenate(cross)
        o_beta, t_beta = p_obj[rows[pair], beta], p_tag[rows[pair], beta]
        d0 = t_beta - t_alpha[pair]
        below = np.searchsorted(points[1:end], d0 / (d0 - (o_beta - o_alpha[pair])))
        # points[below] and points[below + 1] bracket lam*; a beta with d0 > 0
        # is above alpha at points[1 : below], one with d0 < 0 at
        # points[below + 2 : end]
        falling = d0 > 0.0
        key = pair * width
        starts = key + np.where(falling, 1, np.minimum(below + 2, end))
        stops = key + np.where(falling, np.maximum(below, 1), end)
        steps = np.bincount(starts, minlength=flat.shape[1])
        steps -= np.bincount(stops, minlength=flat.shape[1])
        counts[0] += np.cumsum(steps.reshape(n_pairs, width), axis=1)
        lower = beta < alphas[pair]
        for k in (below, below + 1):
            _tally(flat, key + k, self.combine(o_beta, t_beta, grid.brackets[k]), fa, lower)

        pair = np.repeat(np.arange(n_pairs), [len(b) for b in near])
        beta = np.concatenate(near)
        chunk = max(1, _PAIR_CHUNK // width)
        for start in range(0, len(beta), chunk):
            q, b = pair[start : start + chunk], beta[start : start + chunk]
            f = self.combine(p_obj[rows[q], b, None], p_tag[rows[q], b, None], points)
            keys = (q * width)[:, None] + np.arange(width)
            _tally(flat, keys.ravel(), f.ravel(), fa, np.repeat(b < alphas[q], width))

        return counts[:, :, grid.at], fa[:, grid.at]


def _count(mask: np.ndarray) -> int:
    """Number of True entries, as a Python int (numpy scalar arithmetic is slow)."""
    return int(np.count_nonzero(mask))


def _midrank(greater, equal, n_uncollected):
    """Midrank over the number of uncollected objects of an object that
    `greater` objects outscore and `equal` ones, itself included, tie."""
    return (greater + (equal + 1) / 2.0) / n_uncollected


def _listed(score, greater, before, list_lengths):
    """Whether each top-L list, L of list_lengths on a new last axis, holds an
    object with this score, `greater` objects above it and `before` tied ones
    of lower index (top_l's order); a zero score is never listed."""
    return (score > 0.0)[..., None] & ((greater + before)[..., None] < np.asarray(list_lengths))


def _crossing_margin(p_obj: np.ndarray, p_tag: np.ndarray, spacing: float) -> np.ndarray:
    """Bound, for each row of p_obj and p_tag, on |d0| + |d1| under which
    rounding may decide a comparison of fused scores at an interior point of
    a grid whose smallest gap is spacing (see Scorer._crossing_counts).

    Let u = 2**-53, M = max p_obj + max p_tag over the row, and s the
    smallest gap of grid = [0, interior points, 1]: the least of the
    smallest interior lam, the smallest interior mu = fl(1 - lam) and the
    smallest gap between interior points. The margin is 16 (u M +
    2**-1074) / s, capped at 2 M, past which every object is within reach.

    combine computes f = fl(fl(lam * o) + fl(mu * t)). Each of the three
    roundings is within u relative or, below the normal range, within
    2**-1075 absolute, so |f - (lam * o + mu * t)| <= 2.0001 u M + 1.5 * 2**-1074.
    Comparing f_beta with f_alpha thus gives the sign of the exact
    g = lam * d1 + mu * d0 whenever |g| > E = 4.001 u M + 3 * 2**-1074. The
    computed d0, d1 have the exact signs and are within a factor 1 +- u of
    the exact differences.
    - d0, d1 of one sign: |g| >= min(lam, mu) (|d0| + |d1|) / (1 + u), which
      exceeds E when |d0| + |d1| > margin.
    - Opposite signs: g = (lam* - lam) (|d0| + |d1|) + (mu - (1 - lam)) d0
      with |mu - (1 - lam)| <= u / 2, and the computed lam* is within
      4.001 u of the exact one. A point that does not bracket the computed
      lam* lies at least s from it, so |g| >= (s - 4.001 u) margin / (1 + u)
      - u M / 2 > E once s > 6 u. For smaller s the margin is 2 M, and
      every uncollected object is compared directly.
    Every object the bound compares is uncollected: a collected one is below
    all others by both signs and by its fused score (< 0). Uncollected scores
    are >= 0, so M bounds |o| + |t| and is >= 0 (every row holds a test object).
    """
    scale = p_obj.max(axis=1) + p_tag.max(axis=1)
    with np.errstate(over="ignore"):  # a margin past the cap may overflow to inf
        margin = _MARGIN_FACTOR * (_UNIT_ROUNDOFF * scale + _SMALLEST_SUBNORMAL) / spacing
    return np.minimum(margin, 2.0 * scale)


def _tally(
    counts: np.ndarray, keys: np.ndarray, f: np.ndarray, fa: np.ndarray, lower: np.ndarray
) -> None:
    """Add to counts[:, keys] whether each fused score f is above, equal to,
    and equal to with a lower index (lower) than the test object's fa.flat[keys]."""
    size = counts.shape[1]
    fa = fa.reshape(-1)[keys]
    counts[0] += np.bincount(keys[f > fa], minlength=size)
    tie = f == fa
    if tie.any():
        counts[1] += np.bincount(keys[tie], minlength=size)
        counts[2] += np.bincount(keys[tie & lower], minlength=size)
