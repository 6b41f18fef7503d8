"""Core data model: entity index maps, bipartite adjacency, tripartite container.

Graphs are immutable after construction and safe for concurrent reads.
Adjacency is binary; duplicate input edges collapse to a single edge.
Neighbor lists are kept sorted so similarity kernels can rely on
deterministic iteration order and linear merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse


class GraphConstructionError(ValueError):
    """Raised when edge indices are outside the declared node ranges."""


@dataclass(frozen=True)
class EntityIndexMap:
    """Bijection between external id strings and dense indices [0, count)."""

    external_ids: tuple[str, ...]
    index_of: dict[str, int] = field(repr=False)

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "EntityIndexMap":
        """Build a map assigning dense indices in first-seen order."""
        ordered: list[str] = []
        index: dict[str, int] = {}
        for ext in ids:
            if ext not in index:
                index[ext] = len(ordered)
                ordered.append(ext)
        return cls(external_ids=tuple(ordered), index_of=index)

    def __len__(self) -> int:
        return len(self.external_ids)


class BipartiteGraph:
    """Sparse binary bipartite adjacency with both-direction neighbor lists.

    Left nodes are users; right nodes are objects or tags. Backed by a CSR
    matrix (left -> right) and its CSC twin so both directions are O(degree).
    """

    def __init__(self, matrix: sparse.csr_matrix):
        matrix.sum_duplicates()
        matrix.sort_indices()
        self._csr = matrix
        self._csc = matrix.tocsc()
        self._csc.sort_indices()
        self._left_degrees = np.diff(self._csr.indptr)
        self._right_degrees = np.diff(self._csc.indptr)

    @property
    def left_count(self) -> int:
        return self._csr.shape[0]

    @property
    def right_count(self) -> int:
        return self._csr.shape[1]

    @property
    def edge_count(self) -> int:
        return int(self._csr.nnz)

    @property
    def matrix(self) -> sparse.csr_matrix:
        """CSR adjacency (left x right), values all 1.0. Do not mutate."""
        return self._csr

    def left_neighbors(self, u: int) -> np.ndarray:
        """Sorted right-node indices adjacent to left node u."""
        if not 0 <= u < self.left_count:
            raise IndexError(f"left index {u} out of range [0, {self.left_count})")
        return self._csr.indices[self._csr.indptr[u] : self._csr.indptr[u + 1]]

    def right_neighbors(self, x: int) -> np.ndarray:
        """Sorted left-node indices adjacent to right node x."""
        if not 0 <= x < self.right_count:
            raise IndexError(f"right index {x} out of range [0, {self.right_count})")
        return self._csc.indices[self._csc.indptr[x] : self._csc.indptr[x + 1]]

    def left_degree(self, u: int) -> int:
        return len(self.left_neighbors(u))

    def right_degree(self, x: int) -> int:
        return len(self.right_neighbors(x))

    @property
    def left_degrees(self) -> np.ndarray:
        return self._left_degrees

    @property
    def right_degrees(self) -> np.ndarray:
        return self._right_degrees

    def right_neighbors_flat(self, xs: np.ndarray) -> np.ndarray:
        """Concatenated left-neighbor lists of the right nodes xs."""
        indptr = self._csc.indptr
        counts = indptr[xs + 1] - indptr[xs]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=self._csc.indices.dtype)
        shifts = np.repeat(
            indptr[xs] - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        return self._csc.indices[np.arange(total) + shifts]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (left, right) pairs, sorted lexicographically."""
        coo = self._csr.tocoo()
        return sorted(zip(coo.row.tolist(), coo.col.tolist()))


def build_graph(
    edges: Sequence[tuple[int, int]], left_count: int, right_count: int
) -> BipartiteGraph:
    """Build a binary bipartite graph; duplicate pairs collapse to one edge."""
    if edges:
        left = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
        right = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
        if left.size and (left.min() < 0 or left.max() >= left_count):
            raise GraphConstructionError(
                f"left index out of range [0, {left_count})"
            )
        if right.size and (right.min() < 0 or right.max() >= right_count):
            raise GraphConstructionError(
                f"right index out of range [0, {right_count})"
            )
        data = np.ones(len(edges), dtype=np.float64)
        mat = sparse.csr_matrix(
            (data, (left, right)), shape=(left_count, right_count)
        )
        mat.sum_duplicates()
        mat.data[:] = 1.0  # collapse duplicates to binary
    else:
        mat = sparse.csr_matrix((left_count, right_count), dtype=np.float64)
    return BipartiteGraph(mat)


@dataclass(frozen=True)
class TripartiteDataset:
    """Users, objects and tags plus the two bipartite graphs sharing the user index."""

    users: EntityIndexMap
    objects: EntityIndexMap
    tags: EntityIndexMap
    user_object: BipartiteGraph
    user_tag: BipartiteGraph

    def __post_init__(self) -> None:
        m = len(self.users)
        if self.user_object.left_count != m or self.user_tag.left_count != m:
            raise ValueError("user-object and user-tag graphs must share the user index")
        if self.user_object.right_count != len(self.objects):
            raise ValueError("user-object right count does not match object index map")
        if self.user_tag.right_count != len(self.tags):
            raise ValueError("user-tag right count does not match tag index map")

    @property
    def is_empty(self) -> bool:
        return len(self.users) == 0

