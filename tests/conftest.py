import json
import zlib

import numpy as np
import pytest
from scipy import sparse

from tridiff import snapshot
from tridiff.core import (
    BipartiteGraph,
    EntityIndexMap,
    TripartiteDataset,
    build_graph,
)
from tridiff.ingest import EvaluationSplit
from tridiff.recommend import LambdaGrid

# Fixture F1: users {u1,u2,u3}, objects {o1,o2};
# edges u1-o1, u1-o2, u2-o1, u3-o2.
F1_EDGES = [(0, 0), (0, 1), (1, 0), (2, 1)]


@pytest.fixture
def f1_graph() -> BipartiteGraph:
    return build_graph(F1_EDGES, 3, 2)


def make_dataset(uo_edges, ut_edges, m, n, r) -> TripartiteDataset:
    return TripartiteDataset(
        users=EntityIndexMap([f"u{i}" for i in range(m)]),
        objects=EntityIndexMap([f"o{i}" for i in range(n)]),
        tags=EntityIndexMap([f"t{i}" for i in range(r)]),
        user_object=build_graph(uo_edges, m, n),
        user_tag=build_graph(ut_edges, m, r),
    )


def held_out(training: TripartiteDataset, pairs) -> EvaluationSplit:
    """A split of training plus the held-out (user, object) pairs, as a
    test graph over training's users and objects."""
    graph = training.user_object
    return EvaluationSplit(training, build_graph(pairs, graph.left_count, graph.right_count))


@pytest.fixture
def f1_dataset() -> TripartiteDataset:
    # F1 object graph plus one shared tag so the container is well-formed.
    return make_dataset(F1_EDGES, [(0, 0), (1, 0), (2, 0)], 3, 2, 1)


@pytest.fixture
def f2_dataset() -> TripartiteDataset:
    # F2 = F1 plus object o3 (index 2) with edge u2-o3.
    return make_dataset(F1_EDGES + [(1, 2)], [(0, 0), (1, 0), (2, 0)], 3, 3, 1)


def random_graph(rng: np.random.Generator, max_left=50, max_right=50) -> BipartiteGraph:
    """Random bipartite graph with varied size and density."""
    m = int(rng.integers(1, max_left + 1))
    n = int(rng.integers(1, max_right + 1))
    density = float(rng.uniform(0.02, 0.5))
    mask = rng.random((m, n)) < density
    left, right = np.nonzero(mask)
    return build_graph(list(zip(left.tolist(), right.tolist())), m, n)


def scipy_matrix(graph: BipartiteGraph) -> sparse.csr_matrix:
    """scipy's CSR matrix over the graph's own indptr and indices, values 1.0:
    a reference for the graph's products and its transpose."""
    return sparse.csr_matrix(
        (np.ones(graph.edge_count), graph.indices, graph.indptr),
        shape=(graph.left_count, graph.right_count),
    )


def dense_adjacency(graph: BipartiteGraph) -> np.ndarray:
    """Independent dense 0/1 matrix built from the edge list alone."""
    A = np.zeros((graph.left_count, graph.right_count))
    for u, x in graph.edge_array().tolist():
        A[u, x] = 1.0
    return A


def brute_diffusion_matrix(graph: BipartiteGraph) -> np.ndarray:
    """Dense two-step transition product; S[u, v] is the mass u receives
    from target v. Computed from scratch, independent of the sparse kernel."""
    A = dense_adjacency(graph)
    k_left = A.sum(axis=1)
    k_right = A.sum(axis=0)
    inv_right = np.divide(1.0, k_right, out=np.zeros_like(k_right), where=k_right > 0)
    inv_left = np.divide(1.0, k_left, out=np.zeros_like(k_left), where=k_left > 0)
    # step 1: v -> right nodes (equal split); step 2: right node -> users.
    return A @ np.diag(inv_right) @ A.T @ np.diag(inv_left)


def random_tripartite(
    rng: np.random.Generator, m: int, n: int, r: int,
    obj_density: float = 0.02, tag_density: float = 0.02,
) -> TripartiteDataset:
    """Seeded synthetic tripartite dataset; every user gets >= 1 edge per graph."""
    uo = rng.random((m, n)) < obj_density
    ut = rng.random((m, r)) < tag_density
    for u in range(m):
        if not uo[u].any():
            uo[u, rng.integers(0, n)] = True
        if not ut[u].any():
            ut[u, rng.integers(0, r)] = True
    uo_edges = list(zip(*(a.tolist() for a in np.nonzero(uo))))
    ut_edges = list(zip(*(a.tolist() for a in np.nonzero(ut))))
    return make_dataset(uo_edges, ut_edges, m, n, r)


def stats_of_one(scorer, p_obj, p_tag, v, test_objects, lambdas, list_lengths):
    """Scorer.block_stats for a block of one user v, whose distinct
    test_objects form a one-user test graph: ranks (test object x lambda,
    in the order of test_objects) and hits (lambda x list length)."""
    graph = scorer.dataset.user_object
    test = build_graph([(v, a) for a in test_objects], graph.left_count, graph.right_count)
    ranks, listed = scorer.block_stats(
        np.array([p_obj]), np.array([p_tag]), [v], test, LambdaGrid(lambdas, list_lengths)
    )
    _, alphas = test.block_edges([v])
    return ranks[np.searchsorted(alphas, test_objects)], listed.sum(axis=0)


def rewrite_snapshot(path, drop=(), version=None, **arrays) -> None:
    """Rewrite the snapshot file at path through the library's own packer,
    with arrays replaced or dropped, or with another format version in its
    header."""
    members = snapshot._unpack(bytearray(path.read_bytes()))
    members = {name: array for name, array in members.items() if name not in drop}
    members.update(arrays)
    with pytest.MonkeyPatch.context() as patch:
        if version is not None:
            patch.setattr(snapshot, "FORMAT_VERSION", version)
        path.write_bytes(snapshot._pack(members))


def sealed(data: bytes) -> bytes:
    """data followed by its CRC-32, as a snapshot file ends."""
    return data + zlib.crc32(data).to_bytes(4, "little")


def snapshot_parts(path) -> tuple[dict, bytes]:
    """The JSON header of the snapshot file at path, parsed, and its array
    bytes: from the first array's offset up to the CRC."""
    data = path.read_bytes()
    header_end = 12 + int.from_bytes(data[8:12], "little")
    return json.loads(data[12:header_end]), data[header_end + -header_end % 8 : -4]


def frame_snapshot(header: dict | bytes, arrays: bytes) -> bytes:
    """Snapshot file bytes: the magic, the header's length, the header (a
    dict is written as JSON), zero bytes up to a multiple of 8, the array
    bytes and the CRC-32."""
    if isinstance(header, dict):
        header = json.dumps(header).encode("utf-8")
    data = snapshot.MAGIC + len(header).to_bytes(4, "little") + header
    return sealed(data + bytes(-len(data) % 8) + arrays)
