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

Each is one product of the CSR adjacency with a dense array that holds the
targets' edge weights, one column per target; tridiff.recommend turns the
rows of the two graphs into object scores.
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

    It is (graph.matrix @ x).T, where column i of the dense x holds users[i]'s
    edge weights (1 / (k_v * k_alpha) for diffusion, 1.0 for the overlap
    counts) and 0.0 off its right nodes. scipy sums each entry over the
    user's sorted right nodes; the zeros add +0.0, so it is the sum over the
    shared right nodes in ascending order. Degrees are floored at 1 in the
    normalisation: 0 / 0 becomes 0 / positive; no positive overlap's divisor moves.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown similarity kind: {kind!r}")
    users = np.asarray(users, dtype=np.intp)
    k_v = graph.left_degrees[users]
    # the targets' edges, target by target: their CSR positions and right nodes
    owner = np.repeat(np.arange(len(users)), k_v)
    first = graph.matrix.indptr[users] - (np.cumsum(k_v) - k_v)
    right = graph.matrix.indices[np.arange(len(owner)) + np.repeat(first, k_v)]
    x = np.zeros((graph.right_count, len(users)))
    if kind == DIFFUSION:
        x[right, owner] = 1.0 / (k_v.astype(np.int64)[owner] * graph.right_degrees[right])
        return (graph.matrix @ x).T
    x[right, owner] = 1.0
    s = graph.matrix @ x
    deg, k_v = np.maximum(graph.left_degrees, 1)[:, None], np.maximum(k_v, 1)
    s /= np.sqrt(deg * k_v.astype(np.float64)) if kind == COSINE else deg + k_v - s
    return s.T
