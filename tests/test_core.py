import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.core import (
    EntityIndexMap,
    GraphConstructionError,
    build_graph,
)

from conftest import F1_EDGES, make_dataset


def edge_lists(max_left=20, max_right=20):
    return st.integers(1, max_left).flatmap(
        lambda m: st.integers(1, max_right).flatmap(
            lambda n: st.tuples(
                st.just(m),
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                    max_size=80,
                ),
            )
        )
    )


class TestEntityIndexMap:
    def test_first_seen_order(self):
        idx = EntityIndexMap.from_ids(["b", "a", "b", "c", "a"])
        assert idx.external_ids == ("b", "a", "c")
        assert [idx.index_of[e] for e in idx.external_ids] == [0, 1, 2]

    def test_bijection(self):
        idx = EntityIndexMap.from_ids(str(i % 7) for i in range(30))
        for i, ext in enumerate(idx.external_ids):
            assert idx.index_of[ext] == i
        assert sorted(idx.index_of.values()) == list(range(len(idx)))


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([], 3, 2)
        assert g.edge_count == 0
        assert all(g.left_degree(u) == 0 for u in range(3))
        assert g.right_degrees.tolist() == [0, 0]

    def test_duplicate_collapse(self):
        g = build_graph([(0, 0), (0, 0), (0, 1)], 2, 2)
        assert g.edge_count == 2
        assert g.left_degree(0) == 2

    def test_f1_degrees(self):
        g = build_graph(F1_EDGES, 3, 2)
        assert [g.left_degree(u) for u in range(3)] == [2, 1, 1]
        assert g.right_degrees.tolist() == [2, 2]

    def test_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            build_graph([(3, 0)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 2)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(-1, 0)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 0, 1)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 1), (2,)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph(np.zeros((1, 3), dtype=np.int64), 3, 2)
        # non-integer indices are rejected, not truncated or parsed
        for bad in ([[0.5, 1]], [["1", 0]], [(0, None)], np.array([[0.5, 1.0]])):
            with pytest.raises(GraphConstructionError):
                build_graph(bad, 3, 2)

    def test_neighbor_index_errors(self):
        g = build_graph(F1_EDGES, 3, 2)
        with pytest.raises(IndexError):
            g.left_neighbors(3)


class TestGraphInvariants:
    @settings(max_examples=150)
    @given(edge_lists())
    def test_degree_sums_and_roundtrip(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        assert g.left_degrees.sum() == g.right_degrees.sum() == g.edge_count
        assert g.edge_count == len(set(edges))
        # both directions enumerate the same edge set
        from_left = {
            (u, int(x)) for u in range(m) for x in g.left_neighbors(u)
        }
        by_right = g.transposed
        from_right = {
            (int(u), x)
            for x in range(n)
            for u in by_right.indices[by_right.indptr[x] : by_right.indptr[x + 1]]
        }
        assert from_left == from_right == set(map(tuple, g.edge_array().tolist()))

    @settings(max_examples=100)
    @given(edge_lists())
    def test_rebuild_identity(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        g2 = build_graph(g.edge_array().tolist(), m, n)
        assert g2.edge_array().tolist() == g.edge_array().tolist()

    @settings(max_examples=100)
    @given(edge_lists())
    def test_neighbor_lists_sorted_unique(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        for u in range(m):
            neigh = g.left_neighbors(u)
            assert np.all(np.diff(neigh) > 0)


class TestTripartiteDataset:
    def test_degree_accessors(self, f1_dataset):
        assert f1_dataset.user_object.left_degree(0) == 2
        assert f1_dataset.user_tag.left_degree(0) == 1

    def test_zero_degree_user(self):
        ds = make_dataset([(1, 0)], [(0, 0), (1, 0)], 2, 1, 1)
        assert ds.user_object.left_degree(0) == 0

    def test_degree_out_of_range(self, f1_dataset):
        with pytest.raises(IndexError):
            f1_dataset.user_object.left_degree(3)

    def test_star_user_degree(self):
        # one user linked to every object and every tag
        n, r = 4, 3
        ds = make_dataset(
            [(0, x) for x in range(n)], [(0, t) for t in range(r)], 1, n, r
        )
        assert ds.user_object.left_degree(0) == n
        assert ds.user_tag.left_degree(0) == r

    def test_mismatched_user_counts_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([(0, 0)], [(0, 0)], 1, 1, 1).__class__(
                users=EntityIndexMap.from_ids(["u0", "u1"]),
                objects=EntityIndexMap.from_ids(["o0"]),
                tags=EntityIndexMap.from_ids(["t0"]),
                user_object=build_graph([(0, 0)], 1, 1),
                user_tag=build_graph([(0, 0)], 2, 1),
            )
