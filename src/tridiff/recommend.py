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

import numpy as np

from .core import TripartiteDataset
from .similarity import similarity_vector

FUSED = "fused"
OBJECT_ONLY = "object"
TAG_ONLY = "tag"
CHANNELS = (FUSED, OBJECT_ONLY, TAG_ONLY)


class Scorer:
    """Dense object scores toward users of one dataset for one similarity kind."""

    def __init__(self, dataset: TripartiteDataset, kind: str):
        self.dataset = dataset
        self.kind = kind
        self.n_objects = dataset.user_object.right_count
        self._scatter = dataset.user_object.matrix.T  # CSC view, no copy

    def scatter(self, s: np.ndarray, v: int) -> np.ndarray:
        """Object scores from user similarities s toward v, v's own entry excluded."""
        s = s.copy()
        s[v] = 0.0
        return self._scatter @ s

    def channel_scores(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Object scores toward v from the object and from the tag channel."""
        return (
            self.scatter(similarity_vector(self.dataset.user_object, v, self.kind), v),
            self.scatter(similarity_vector(self.dataset.user_tag, v, self.kind), v),
        )

    @staticmethod
    def combine(
        p_obj: np.ndarray, p_tag: np.ndarray, lam: float, channel: str = FUSED
    ) -> np.ndarray:
        """lam * object + (1 - lam) * tag, or one channel alone."""
        if channel == OBJECT_ONLY:
            return p_obj
        if channel == TAG_ONLY:
            return p_tag
        return lam * p_obj + (1.0 - lam) * p_tag

    def _uncollected(self, p: np.ndarray, v: int) -> tuple[np.ndarray, int]:
        """Copy of p with v's collected objects set to NaN, so they never
        compare, and the number of objects left."""
        collected = self.dataset.user_object.left_neighbors(v)
        masked = p.copy()
        masked[collected] = np.nan
        return masked, self.n_objects - len(collected)

    def top_l(self, p: np.ndarray, v: int, L: int) -> list[tuple[int, float]]:
        """The L best uncollected objects of v as (object, score); zero
        scores are never listed."""
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        masked, _ = self._uncollected(p, v)
        candidates = np.flatnonzero(masked > 0.0)
        best = candidates[np.argsort(-masked[candidates], kind="stable")[:L]]
        return [(int(a), float(masked[a])) for a in best]

    def pair_stats(
        self,
        p: np.ndarray,
        v: int,
        test_objects: list[int],
        list_lengths: tuple[int, ...],
    ) -> tuple[list[float], dict[int, int]]:
        """Relative midranks of v's test objects among v's uncollected
        objects, and how many of them each top-L list holds."""
        masked, n_unc = self._uncollected(p, v)
        ranks: list[float] = []
        hits = {L: 0 for L in list_lengths}
        for alpha in test_objects:
            pa = p[alpha]
            greater = int(np.count_nonzero(masked > pa))
            equal = int(np.count_nonzero(masked == pa))
            ranks.append((greater + (equal + 1) / 2.0) / n_unc)
            if pa > 0.0:
                # position in top_l's order: ties by ascending index
                position = greater + int(np.count_nonzero(masked[:alpha] == pa)) + 1
                for L in list_lengths:
                    if position <= L:
                        hits[L] += 1
        return ranks, hits
