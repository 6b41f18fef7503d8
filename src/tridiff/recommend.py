"""The scoring engine behind both top-L lists and the evaluation protocol.

The preference of a target user v for an object is the sum, over all other
users, of their similarity toward v times their adjacency to the object.
It is computed once per channel (similarities on the user-object graph and
on the user-tag graph, both scattered over the user-object graph), and the
channels are fused linearly with a weight lam in [0, 1] (lam = 1 keeps only
the object channel).

Objects the target already collected in training never compete. A top-L
list holds positive scores only, best first, ties broken by ascending
object index; the evaluation protocol's hits follow the same rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import TripartiteDataset
from .similarity import similarity_matrix

# A sweep with fewer distinct lambdas inside (0, 1) than this compares fused
# scores at every lambda: on the benchmark's seed-1 data (2-vCPU VM), one
# crossing-point pass over a user's test objects costs about as much as 11
# direct passes.
MIN_CROSSING_POINTS = 11
_MARGIN_FACTOR = 16.0
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_PAIR_CHUNK = 1 << 16  # (competitor, lambda) pairs compared at once


class Scorer:
    """Dense object scores toward users of one dataset for one similarity kind."""

    def __init__(self, dataset: TripartiteDataset, kind: str):
        self.dataset = dataset
        self.kind = kind
        self.n_objects = dataset.user_object.right_count
        self._scatter = dataset.user_object.matrix.T  # CSC view, no copy

    def channel_scores(self, users: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Object scores toward each of users from the object and from the tag
        channel, as two C-contiguous (len(users), n_objects) arrays; each user's
        own similarity is left out. Every score sums over users in ascending order.
        """
        users = np.asarray(users, dtype=np.intp)
        scores = []
        for graph in (self.dataset.user_object, self.dataset.user_tag):
            s = similarity_matrix(graph, users, self.kind).T  # (m, len(users)), C-ordered
            s[users, np.arange(len(users))] = 0.0
            scores.append(np.ascontiguousarray((self._scatter @ s).T))
        return scores[0], scores[1]

    @staticmethod
    def combine(p_obj: np.ndarray, p_tag: np.ndarray, lam: float) -> np.ndarray:
        """lam * object + (1 - lam) * tag; exactly p_obj at lam = 1 and
        p_tag at lam = 0."""
        return lam * p_obj + (1.0 - lam) * p_tag

    def _uncollected(self, p: np.ndarray, v: int) -> np.ndarray:
        """Copy of p with v's collected objects set to -inf, so that they
        rank below every score and never tie."""
        masked = p.copy()
        masked[self.dataset.user_object.left_neighbors(v)] = -np.inf
        return masked

    def top_l(self, p: np.ndarray, v: int, L: int) -> list[tuple[int, float]]:
        """The L best uncollected objects of v as (object, score); zero
        scores are never listed."""
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        masked = self._uncollected(p, v)
        candidates = np.flatnonzero(masked > 0.0)
        if len(candidates) > L:  # keep the L best and every score tied with the L-th
            values = masked[candidates]
            candidates = candidates[values >= np.partition(values, -L)[-L]]
        best = candidates[np.argsort(-masked[candidates], kind="stable")[:L]]
        return [(int(a), float(masked[a])) for a in best]

    def sweep_stats(
        self,
        p_obj: np.ndarray,
        p_tag: np.ndarray,
        v: int,
        test_objects: Sequence[int],
        lambdas: Sequence[float],
        list_lengths: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Relative midranks of v's test objects among v's uncollected
        objects, and how many of them each top-L list holds, at every lambda.

        Returns ranks[i, g], the midrank of test_objects[i] under
        combine(p_obj, p_tag, lambdas[g]) divided by the number of
        uncollected objects, and hits[g, j], how many test objects the
        top-list_lengths[j] list of that score holds. A tie is == on
        combine's output; within a tie block top_l lists lower indices first.

        A grid with at least MIN_CROSSING_POINTS distinct points inside
        (0, 1) is counted from crossing points (_crossing_counts), a shorter
        one by comparing fused scores at every lambda (_direct_stats).
        Raises ValueError for a lambda outside [0, 1].
        """
        lams = np.asarray(lambdas, dtype=np.float64)
        if not all(0.0 <= lam <= 1.0 for lam in lams.tolist()):
            raise ValueError("lambdas must lie in [0, 1]")
        alphas = np.asarray(test_objects, dtype=np.intp)
        n_uncollected = self.n_objects - self.dataset.user_object.left_degree(v)
        interior = ()
        if len(lams) >= MIN_CROSSING_POINTS:
            interior = np.unique(lams[(lams > 0.0) & (lams < 1.0)])
        if len(interior) < MIN_CROSSING_POINTS:
            return self._direct_stats(p_obj, p_tag, v, alphas, lams, list_lengths, n_uncollected)

        grid = np.concatenate(([0.0], interior, [1.0]))
        fa, counts = self._crossing_counts(p_obj, p_tag, v, alphas, grid)
        points = np.searchsorted(grid, lams)
        fa, (greater, equal, before) = fa[:, points], counts[:, :, points]
        lengths = np.asarray(list_lengths)
        listed = _listed(fa[..., None], greater[..., None], before[..., None], lengths)
        return _midrank(greater, equal, n_uncollected), listed.sum(axis=0)

    def _direct_stats(
        self,
        p_obj: np.ndarray,
        p_tag: np.ndarray,
        v: int,
        alphas: np.ndarray,
        lams: np.ndarray,
        list_lengths: Sequence[int],
        n_uncollected: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """sweep_stats by comparing fused scores, one lambda at a time."""
        ranks, hits = [], []
        for lam in lams.tolist():
            p = self.combine(p_obj, p_tag, lam)
            masked = self._uncollected(p, v)
            lam_ranks, lam_hits = [], [0] * len(list_lengths)
            for alpha, pa in zip(alphas.tolist(), p[alphas].tolist()):
                greater = _count(masked > pa)
                equal = _count(masked == pa)
                before = _count(masked[:alpha] == pa)
                lam_ranks.append(_midrank(greater, equal, n_uncollected))
                for j, L in enumerate(list_lengths):
                    lam_hits[j] += _listed(pa, greater, before, L)
            ranks.append(lam_ranks)
            hits.append(lam_hits)
        return (
            np.array(ranks).T.reshape(len(alphas), len(lams)),
            np.array(hits, dtype=np.int64).reshape(len(lams), len(list_lengths)),
        )

    def _crossing_counts(
        self, p_obj: np.ndarray, p_tag: np.ndarray, v: int, alphas: np.ndarray, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused scores fa[i, k] of the test objects alphas at
        grid = [0, interior points, 1], and counts[:, i, k]: the uncollected
        objects whose fused score is above, equal to, and equal to with a
        lower index than fa[i, k], from one pass over them per test object.

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
        end = len(grid) - 1
        o, t = self._uncollected(p_obj, v), self._uncollected(p_tag, v)
        reach = 2.0 * _crossing_margin(p_obj, p_tag, grid)
        # the grid for bracket points: a bracket at lam = 0 or 1, which the
        # signs already decide, becomes NaN and compares as neither above nor equal
        brackets = grid.copy()
        brackets[[0, end]] = np.nan
        fa = self.combine(p_obj[alphas, None], p_tag[alphas, None], grid)
        counts = np.zeros((3, *fa.shape), dtype=np.int64)
        for i, alpha in enumerate(alphas.tolist()):
            c, f_alpha = counts[:, i], fa[i]
            ta, oa = float(p_tag[alpha]), float(p_obj[alpha])
            up0, down0 = t > ta, t < ta
            up1, down1 = o > oa, o < oa
            differ0, differ1 = up0 | down0, up1 | down1
            near = (t >= ta - reach) & (t <= ta + reach) & (o >= oa - reach) & (o <= oa + reach)
            near &= differ0 | differ1
            near = np.flatnonzero(near) if near.any() else near[:0]
            # count a near beta as below alpha everywhere, then compare it directly
            up0[near] = up1[near] = False
            down0[near] = down1[near] = differ0[near] = differ1[near] = True

            n, differ = len(t), differ0 | differ1
            ties, ties_before = n - _count(differ), alpha - _count(differ[:alpha])
            # lam = 0 is the tag channel, lam = 1 the object channel
            c[:, 0] = _count(up0), n - _count(differ0), alpha - _count(differ0[:alpha])
            c[:, end] = _count(up1), n - _count(differ1), alpha - _count(differ1[:alpha])
            c[:, 1:end] = (n - _count(down0 | down1) - ties,), (ties,), (ties_before,)

            cross = np.flatnonzero((up0 & down1) | (down0 & up1))
            d0 = t[cross] - ta
            below = np.searchsorted(grid[1:end], d0 / (d0 - (o[cross] - oa)))
            # grid[below] and grid[below + 1] bracket lam*; a beta with d0 > 0
            # is above alpha at grid[1 : below], one with d0 < 0 at
            # grid[below + 2 : end]
            falling = d0 > 0.0
            starts = np.where(falling, 1, np.minimum(below + 2, end))
            stops = np.where(falling, np.maximum(below, 1), end)
            c[0] += np.cumsum(
                np.bincount(starts, minlength=end + 1) - np.bincount(stops, minlength=end + 1)
            )
            bracket = np.concatenate((below, below + 1))
            _compare(c, o, t, np.concatenate((cross, cross)), bracket, brackets, f_alpha, alpha)
            rows = max(1, _PAIR_CHUNK // len(grid))
            for start in range(0, len(near), rows):
                chunk = near[start : start + rows]
                points = np.tile(np.arange(len(grid)), len(chunk))
                _compare(c, o, t, np.repeat(chunk, len(grid)), points, grid, f_alpha, alpha)
        return fa, counts


def _count(mask: np.ndarray) -> int:
    """Number of True entries, as a Python int (numpy scalar arithmetic is slow)."""
    return int(np.count_nonzero(mask))


def _midrank(greater, equal, n_uncollected):
    """Midrank over the number of uncollected objects of an object that
    `greater` objects outscore and `equal` ones, itself included, tie."""
    return (greater + (equal + 1) / 2.0) / n_uncollected


def _listed(score, greater, before, L):
    """Whether the top-L list holds an object with this score, `greater`
    objects above it and `before` tied ones of lower index (top_l's order);
    a zero score is never listed."""
    return (score > 0.0) & (greater + before < L)


def _crossing_margin(p_obj: np.ndarray, p_tag: np.ndarray, grid: np.ndarray) -> float:
    """Bound on |d0| + |d1| under which rounding may decide a comparison of
    fused scores at an interior point of grid (see Scorer._crossing_counts).

    Let u = 2**-53, M = max|p_obj| + max|p_tag|, and s the smallest gap of
    grid = [0, interior points, 1]: the least of the smallest interior lam,
    the smallest interior mu = fl(1 - lam) and the smallest gap between
    interior points. The margin is 16 (u M + 2**-1074) / s, capped at 2 M,
    past which every object is within reach anyway.

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
      every object is compared directly.
    """
    spacing = float(np.diff(grid).min())
    scale = float(np.abs(p_obj).max() + np.abs(p_tag).max())
    margin = _MARGIN_FACTOR * (_UNIT_ROUNDOFF * scale + _SMALLEST_SUBNORMAL) / spacing
    return min(margin, 2.0 * scale)


def _compare(
    c: np.ndarray,
    o: np.ndarray,
    t: np.ndarray,
    beta: np.ndarray,
    k: np.ndarray,
    grid: np.ndarray,
    f_alpha: np.ndarray,
    alpha: int,
) -> None:
    """Add to c[:, k] whether the fused score of competitor beta at grid[k]
    is above, equal to, and equal to with beta < alpha, the test object's
    f_alpha[k]."""
    f = Scorer.combine(o[beta], t[beta], grid[k])
    fa = f_alpha[k]
    c[0] += np.bincount(k[f > fa], minlength=len(grid))
    tie = f == fa
    if tie.any():
        c[1] += np.bincount(k[tie], minlength=len(grid))
        c[2] += np.bincount(k[tie & (beta < alpha)], minlength=len(grid))
