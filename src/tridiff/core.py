"""Core data model: entity index maps, bipartite adjacency, tripartite container.

An index map holds its ids as one numpy str array, the form a snapshot
stores, and checks them once. Graphs are immutable after construction.
Adjacency is binary; duplicate input edges collapse to a single edge. A
graph holds its shape and canonical CSR arrays (indptr, indices) and is the
one place that checks them. Neighbor lists (the CSR indices) are kept
sorted, which fixes the order in which the similarity and scoring products
sum their terms, and so their floats. A graph runs its products (dot, tdot) on
compiled sparse kernels that _sparsetools loads from their file.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class GraphConstructionError(ValueError):
    """Raised when an edge is not a (left, right) pair of integers, an index
    is outside the declared node ranges, or CSR arrays are not canonical."""


class IndexMapError(ValueError):
    """Raised when ids are not a 1-D str array, repeat an id, or hold an id
    that ends in a NUL character."""


# odd multiplier of the ids' polynomial fingerprints (2**64 / golden ratio)
_FINGERPRINT_BASE = np.uint64(0x9E3779B97F4A7C15)


def _fingerprints(ids: np.ndarray) -> np.ndarray:
    """A 64-bit polynomial hash of each id's UCS-4 code points, trailing
    padding included, so equal ids hash alike. uint64 array arithmetic
    wraps silently, which is the reduction mod 2**64."""
    codes = np.ascontiguousarray(ids).view(np.uint32).reshape(len(ids), ids.itemsize // 4)
    hashes = np.zeros(len(ids), dtype=np.uint64)
    for column in codes.T:
        hashes *= _FINGERPRINT_BASE
        hashes += column
    return hashes


def _repeats_an_id(ids: np.ndarray) -> bool:
    """Whether a str array holds an id twice: a repeat makes two sorted
    fingerprints equal, and only then are the ids compared exactly."""
    hashes = np.sort(_fingerprints(ids))
    if not (hashes[1:] == hashes[:-1]).any():
        return False
    strs = ids.tolist()
    return len(set(strs)) != len(strs)


_KERNELS = "scipy.sparse._sparsetools"


@functools.cache
def _sparsetools():
    """The module scipy.sparse._sparsetools, which is private to scipy: its
    C loops csr_matvec, csr_matvecs, csc_matvec and csc_matvecs compute
    scipy's sparse matrix products.

    It is the imported module if there is one. Otherwise the file
    scipy/sparse/_sparsetools<suffix> is loaded by path and registered under
    that name, where an import of scipy.sparse later finds it. Finding the
    package runs none of scipy's code; importing scipy.sparse takes a
    recommend process about as long as everything else it does. Raises
    ImportError naming the paths tried when no such file exists."""
    if _KERNELS in sys.modules:
        return sys.modules[_KERNELS]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("scipy is not installed")
    base = os.path.join(package.submodule_search_locations[0], "sparse", "_sparsetools")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(f"no sparse kernels: none of {', '.join(paths)} exists")
    spec = importlib.util.spec_from_file_location(_KERNELS, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_KERNELS] = module
    return module


class EntityIndexMap:
    """Bijection between external id strings and dense indices [0, count),
    held as one 1-D numpy str array: ids[i] is the id of index i.

    Built from a str array or from Python strs. The array is as wide as its
    longest id, the dtype np.array(ids, dtype=str) gives, so a subset of a
    map is narrowed; otherwise it is kept as given (do not mutate it). Raises
    IndexMapError unless the array is 1-D of str dtype, when an id repeats,
    and when a Python str ends in a NUL character, which a numpy str array
    drops ("u0\\0" would read back as "u0")."""

    def __init__(self, ids: np.ndarray | Iterable[str]):
        if not isinstance(ids, np.ndarray):
            strs = list(ids)
            lengths = np.fromiter(map(len, strs), dtype=np.intp, count=len(strs))
            ids = np.array(strs, dtype=np.dtype((str, int(lengths.max(initial=1)))))
            if np.char.str_len(ids).sum() != lengths.sum():
                bad = next(s for s in strs if s.endswith("\0"))
                raise IndexMapError(
                    f"id {bad!r} ends in a NUL character, which a str array cannot hold"
                )
        if ids.ndim != 1 or ids.dtype.kind != "U":
            raise IndexMapError(f"ids must be a 1-D str array, got {ids.dtype} {ids.shape}")
        width = int(np.char.str_len(ids).max(initial=1))
        if ids.itemsize != 4 * width:
            ids = ids.astype(np.dtype((str, width)))
        if _repeats_an_id(ids):
            raise IndexMapError("an id repeats")
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, external_id: str) -> int:
        """The index of the id equal to external_id; raises KeyError if none is."""
        hits = np.flatnonzero(self.ids == external_id)
        # numpy's str comparison ignores trailing NULs; a Python str's does not
        if len(hits) == 0 or self.ids[hits[0]] != external_id:
            raise KeyError(external_id)
        return int(hits[0])


class BipartiteGraph:
    """Sparse binary bipartite adjacency (left -> right) in canonical CSR form.

    Left nodes are users; right nodes are objects or tags. shape is
    (left_count, right_count), and row u's right nodes are
    indices[indptr[u] : indptr[u + 1]]. Raises GraphConstructionError unless
    indptr and indices are 1-D signed integer arrays, indptr holds
    left_count + 1 entries rising from 0 to len(indices), every index lies in
    [0, right_count), and every row is strictly increasing (sorted, no
    repeated edge). The arrays are kept as given; do not mutate them.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]):
        for name, array in (("indptr", indptr), ("indices", indices)):
            if not isinstance(array, np.ndarray) or array.dtype.kind != "i" or array.ndim != 1:
                raise GraphConstructionError(f"{name} must be a 1-D signed integer array")
        left_count, right_count = int(shape[0]), int(shape[1])
        if len(indptr) != left_count + 1:
            raise GraphConstructionError(
                f"indptr holds {len(indptr)} entries; {left_count} rows need {left_count + 1}"
            )
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphConstructionError(f"indptr must run from 0 to len(indices), {len(indices)}")
        if (indptr[1:] < indptr[:-1]).any():
            raise GraphConstructionError("indptr decreases")
        if len(indices) and (indices.min() < 0 or indices.max() >= right_count):
            raise GraphConstructionError(f"right index out of range [0, {right_count})")
        row_start = np.zeros(len(indices) + 1, dtype=bool)
        row_start[indptr] = True
        if not ((indices[1:] > indices[:-1]) | row_start[1:-1]).all():
            raise GraphConstructionError("a row has unsorted or repeated indices")
        self.indptr = indptr
        self.indices = indices
        self.shape = (left_count, right_count)
        self.left_count, self.right_count = self.shape
        self.left_degrees = np.diff(indptr)

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    @cached_property
    def right_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.right_count)

    @cached_property
    def _ones(self) -> np.ndarray:
        return np.ones(len(self.indices))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x for the graph's (left x right) 0/1 matrix A and a float64
        block x of shape (right_count, k), with the csr kernels: each entry
        sums over the row's right nodes in ascending order."""
        return self._product("csr", self.left_count, self.right_count, x)

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x for a float64 block x of shape (left_count, k), with the
        csc kernels over the same arrays: each entry sums over the right
        node's users in ascending order."""
        return self._product("csc", self.right_count, self.left_count, x)

    def _product(self, layout: str, rows: int, cols: int, x: np.ndarray) -> np.ndarray:
        """The product of the (cols, k) block x with the (rows x cols) matrix
        that indptr and indices hold in layout. One column goes to the
        _matvec kernel, k != 1 columns in C order to _matvecs, as a sparse
        matrix's @ dispatches them; the kernels read x unchecked."""
        if x.ndim != 2 or x.shape[0] != cols:
            raise ValueError(f"cannot multiply a ({rows}, {cols}) matrix by shape {x.shape}")
        out = np.zeros((rows, x.shape[1]))
        if x.shape[1] == 1:
            kernel, k = getattr(_sparsetools(), layout + "_matvec"), ()
        else:
            kernel, k = getattr(_sparsetools(), layout + "_matvecs"), (x.shape[1],)
        kernel(rows, cols, *k, self.indptr, self.indices, self._ones, x.ravel(), out.ravel())
        return out

    def block_edges(self, lefts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The edges of a block of left nodes as (row, right) arrays: row i
        indexes lefts, and the sorted neighbors of lefts[i] follow each other
        in the order of lefts. The pair indexes a (len(lefts), right_count) array."""
        lefts = np.asarray(lefts, dtype=np.intp)
        degrees = self.left_degrees[lefts]
        rows = np.repeat(np.arange(len(lefts)), degrees)
        first = self.indptr[lefts] - (np.cumsum(degrees) - degrees)
        return rows, self.indices[np.arange(len(rows)) + np.repeat(first, degrees)]

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) array of (left, right) rows, sorted
        lexicographically (the row-major order of the canonical CSR)."""
        rows = np.arange(self.left_count, dtype=self.indices.dtype)
        return np.column_stack((np.repeat(rows, self.left_degrees), self.indices))


def build_graph(
    edges: Sequence[Sequence[int]] | np.ndarray, left_count: int, right_count: int
) -> BipartiteGraph:
    """Build a binary bipartite graph from (left, right) pairs, given as an
    (E, 2) integer array or anything np.asarray turns into one; duplicate
    pairs collapse to one edge. The CSR arrays are int32 while the node and
    edge counts stay below 2**31, else int64, as the sparse products expect."""
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
    # edge keys in row-major order, sorted and deduplicated (np.unique hashes: slower)
    keys = np.sort(left.astype(np.int64) * right_count + right.astype(np.int64))
    keys = keys[np.diff(keys, prepend=-1) > 0]
    rows, cols = np.divmod(keys, right_count)
    dtype = np.int32 if max(left_count, right_count, len(keys)) < 2**31 else np.int64
    indptr = np.zeros(left_count + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=left_count), out=indptr[1:])
    return BipartiteGraph(indptr, cols.astype(dtype), (left_count, right_count))


@dataclass(frozen=True)
class TripartiteDataset:
    """Users, objects and tags plus the two bipartite graphs sharing the user index."""

    users: EntityIndexMap
    objects: EntityIndexMap
    tags: EntityIndexMap
    user_object: BipartiteGraph
    user_tag: BipartiteGraph

    def __post_init__(self) -> None:
        for name, right in (("user_object", self.objects), ("user_tag", self.tags)):
            graph, shape = getattr(self, name), (len(self.users), len(right))
            if graph.shape != shape:
                raise ValueError(f"{name} graph has shape {graph.shape}; the id maps give {shape}")

    @property
    def is_empty(self) -> bool:
        return len(self.users) == 0

