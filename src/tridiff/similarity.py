"""User-user similarity kernels on a bipartite graph.

Three families, computed for a block of target users at once (never as a
full m x m matrix):

* diffusion: a unit of resource at the target spreads equally to its
  right-node neighbors, then each right node spreads its share equally back
  to its users. The fraction user u ends up with is the (asymmetric)
  similarity of u toward the target. Rows conserve mass: they sum to 1
  whenever the target has degree >= 1.
* cosine: overlap / sqrt(k(u) * k(v)) on the binary neighbor sets.
* jaccard: overlap / union size.

Each is one sparse product of the targets' adjacency rows with the
transposed adjacency; tridiff.recommend turns the rows of the two graphs
into object scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import BipartiteGraph

DIFFUSION = "diffusion"
COSINE = "cosine"
JACCARD = "jaccard"
KINDS = (DIFFUSION, COSINE, JACCARD)


def similarity_matrix(graph: BipartiteGraph, users: Sequence[int], kind: str) -> np.ndarray:
    """Dense (len(users), left_count) array whose row i holds every user's
    similarity toward users[i]; rows of a target without edges are zero.

    Each entry is summed over the shared right nodes in ascending order
    (scipy's CSR x CSR product follows the row's sorted indices).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown similarity kind: {kind!r}")
    users = np.asarray(users, dtype=np.intp)
    rows = graph.matrix[users]
    k_v = graph.left_degrees[users]
    if kind == DIFFUSION:
        k_v_per_edge = np.repeat(k_v.astype(np.int64), np.diff(rows.indptr))
        rows.data = 1.0 / (k_v_per_edge * graph.right_degrees[rows.indices])
    s = (rows @ graph.transposed).toarray()
    if kind == DIFFUSION:
        return s
    deg = graph.left_degrees
    if kind == COSINE:
        denominator = np.sqrt(deg * k_v[:, None].astype(np.float64))
    else:
        denominator = deg + k_v[:, None] - s
    return np.divide(s, denominator, out=s, where=s > 0)
