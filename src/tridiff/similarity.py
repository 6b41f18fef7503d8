"""User-user similarity kernels on a bipartite graph.

Three families, all computed per target user (never as a full m x m matrix):

* diffusion: a unit of resource at the target spreads equally to its
  right-node neighbors, then each right node spreads its share equally back
  to its users. The fraction user u ends up with is the (asymmetric)
  similarity of u toward the target. Rows conserve mass: they sum to 1
  whenever the target has degree >= 1.
* cosine: overlap / sqrt(k(u) * k(v)) on the binary neighbor sets.
* jaccard: overlap / union size.

Each kernel returns a dense vector over all users; tridiff.recommend turns
the vectors of the two graphs into object scores.
"""

from __future__ import annotations

import numpy as np

from .core import BipartiteGraph

DIFFUSION = "diffusion"
COSINE = "cosine"
JACCARD = "jaccard"
KINDS = (DIFFUSION, COSINE, JACCARD)


def diffusion_vector(graph: BipartiteGraph, v: int) -> np.ndarray:
    """Dense two-step diffusion similarities toward target v (length left_count)."""
    alphas = graph.left_neighbors(v)
    kv = len(alphas)
    if kv == 0:
        return np.zeros(graph.left_count)
    right_deg = graph.right_degrees[alphas]
    users = graph.right_neighbors_flat(alphas)
    weights = np.repeat(1.0 / (kv * right_deg), right_deg)
    return np.bincount(users, weights=weights, minlength=graph.left_count)


def overlap_vector(graph: BipartiteGraph, v: int) -> np.ndarray:
    """Dense neighbor-set overlap counts |G(u) & G(v)| for all u."""
    alphas = graph.left_neighbors(v)
    if len(alphas) == 0:
        return np.zeros(graph.left_count)
    users = graph.right_neighbors_flat(alphas)
    return np.bincount(users, minlength=graph.left_count).astype(np.float64)


def cosine_vector(graph: BipartiteGraph, v: int) -> np.ndarray:
    """Dense binary cosine similarities toward target v."""
    ov = overlap_vector(graph, v)
    kv = graph.left_degree(v)
    if kv == 0:
        return ov
    nz = ov > 0
    deg = graph.left_degrees
    ov[nz] /= np.sqrt(deg[nz] * float(kv))
    return ov


def jaccard_vector(graph: BipartiteGraph, v: int) -> np.ndarray:
    """Dense Jaccard similarities toward target v."""
    ov = overlap_vector(graph, v)
    kv = graph.left_degree(v)
    if kv == 0:
        return ov
    nz = ov > 0
    deg = graph.left_degrees
    ov[nz] /= deg[nz] + kv - ov[nz]
    return ov


def similarity_vector(graph: BipartiteGraph, v: int, kind: str) -> np.ndarray:
    """Dispatch on similarity family name."""
    if kind == DIFFUSION:
        return diffusion_vector(graph, v)
    if kind == COSINE:
        return cosine_vector(graph, v)
    if kind == JACCARD:
        return jaccard_vector(graph, v)
    raise ValueError(f"unknown similarity kind: {kind!r}")
