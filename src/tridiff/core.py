"""Core data model: entity index maps, bipartite adjacency, tripartite container.

Graphs are immutable after construction. Adjacency is binary; duplicate
input edges collapse to a single edge. Neighbor lists (the CSR indices) are
kept sorted, which fixes the order in which the similarity and scoring
products sum their terms, and so their floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse


class GraphConstructionError(ValueError):
    """Raised when an edge is not a (left, right) pair of integers or its
    indices are outside the declared node ranges."""


@dataclass(frozen=True)
class EntityIndexMap:
    """Bijection between external id strings and dense indices [0, count).

    external_ids must not repeat an id; from_ids drops repeats."""

    external_ids: tuple[str, ...]

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "EntityIndexMap":
        """Build a map assigning dense indices in first-seen order."""
        return cls(external_ids=tuple(dict.fromkeys(ids)))

    @cached_property
    def index_of(self) -> dict[str, int]:
        """Id -> index, built on first use."""
        return {ext: i for i, ext in enumerate(self.external_ids)}

    def __len__(self) -> int:
        return len(self.external_ids)


class BipartiteGraph:
    """Sparse binary bipartite adjacency in both directions.

    Left nodes are users; right nodes are objects or tags. Backed by a CSR
    matrix (left -> right) and its CSC twin, whose transpose is the CSR
    matrix right -> left.
    """

    def __init__(self, matrix: sparse.csr_matrix):
        matrix.sum_duplicates()
        matrix.sort_indices()
        self._csr = matrix
        self._csc = matrix.tocsc()
        self._csc.sort_indices()
        self._transposed = self._csc.T
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

    @property
    def transposed(self) -> sparse.csr_matrix:
        """CSR adjacency (right x left), a view of the CSC twin. Do not mutate."""
        return self._transposed

    def left_neighbors(self, u: int) -> np.ndarray:
        """Sorted right-node indices adjacent to left node u."""
        if not 0 <= u < self.left_count:
            raise IndexError(f"left index {u} out of range [0, {self.left_count})")
        return self._csr.indices[self._csr.indptr[u] : self._csr.indptr[u + 1]]

    def left_degree(self, u: int) -> int:
        return len(self.left_neighbors(u))

    @property
    def left_degrees(self) -> np.ndarray:
        return self._left_degrees

    @property
    def right_degrees(self) -> np.ndarray:
        return self._right_degrees

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) array of (left, right) rows, sorted
        lexicographically (the row-major order of the canonical CSR)."""
        coo = self._csr.tocoo()
        return np.column_stack((coo.row, coo.col))


def build_graph(
    edges: Sequence[Sequence[int]] | np.ndarray, left_count: int, right_count: int
) -> BipartiteGraph:
    """Build a binary bipartite graph from (left, right) pairs, given as an
    (E, 2) integer array or anything np.asarray turns into one; duplicate
    pairs collapse to one edge."""
    try:
        edges = np.asarray(edges)
    except ValueError as exc:  # ragged pairs
        raise GraphConstructionError(f"edges must have shape (E, 2): {exc}") from exc
    if edges.shape == (0,):
        edges = np.empty((0, 2), dtype=np.intp)
    if not np.issubdtype(edges.dtype, np.integer):
        raise GraphConstructionError(f"edge indices must be integers, got {edges.dtype}")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphConstructionError(f"edges must have shape (E, 2), got {edges.shape}")
    left, right = edges[:, 0], edges[:, 1]
    if left.size and (left.min() < 0 or left.max() >= left_count):
        raise GraphConstructionError(f"left index out of range [0, {left_count})")
    if right.size and (right.min() < 0 or right.max() >= right_count):
        raise GraphConstructionError(f"right index out of range [0, {right_count})")
    mat = sparse.csr_matrix(
        (np.ones(len(edges)), (left, right)), shape=(left_count, right_count)
    )
    mat.sum_duplicates()
    mat.data[:] = 1.0  # collapse duplicates to binary
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

