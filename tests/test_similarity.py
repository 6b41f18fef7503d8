import math

import numpy as np
import pytest

from tridiff.core import build_graph
from tridiff.recommend import Scorer
from tridiff.similarity import cosine_vector, diffusion_vector, jaccard_vector

from conftest import brute_diffusion_matrix, random_graph


class TestDiffusionRow:
    def test_f1_target_u1(self, f1_graph):
        assert diffusion_vector(f1_graph, 0).tolist() == [0.5, 0.25, 0.25]

    def test_f1_asymmetry(self, f1_graph):
        # s_{u1,u2} = 0.5 while s_{u2,u1} = 0.25
        assert diffusion_vector(f1_graph, 1).tolist() == [0.5, 0.5, 0.0]

    def test_isolated_target_empty_row(self):
        g = build_graph([(1, 0)], 2, 1)
        assert not diffusion_vector(g, 0).any()

    def test_degree_one_identity(self):
        # v's only neighbor has degree 1, so all mass returns to v
        g = build_graph([(0, 0), (1, 1), (2, 1)], 3, 2)
        assert diffusion_vector(g, 0).tolist() == [1.0, 0.0, 0.0]

    def test_conservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng)
            for v in range(g.left_count):
                if g.left_degree(v) >= 1:
                    total = sum(diffusion_vector(g, v))
                    assert abs(total - 1.0) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_graph(rng)
            S = brute_diffusion_matrix(g)
            for v in range(g.left_count):
                np.testing.assert_allclose(
                    diffusion_vector(g, v), S[:, v], rtol=0, atol=1e-12
                )

    def test_detailed_balance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_graph(rng)
            rows = [diffusion_vector(g, v) for v in range(g.left_count)]
            deg = g.left_degrees
            for v in range(g.left_count):
                for u in range(g.left_count):
                    assert abs(deg[v] * rows[v][u] - deg[u] * rows[u][v]) < 1e-12

    def test_only_coneighbors_present(self, f1_graph):
        g = build_graph([(0, 0), (1, 0), (2, 1)], 3, 2)
        assert diffusion_vector(g, 0)[2] == 0.0


class TestCosineJaccard:
    def test_cosine_f1(self, f1_graph):
        row = cosine_vector(f1_graph, 0)
        assert row[0] == pytest.approx(1.0, abs=1e-15)
        assert row[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert row[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_jaccard_f1(self, f1_graph):
        assert jaccard_vector(f1_graph, 0).tolist() == [1.0, 0.5, 0.5]

    def test_identical_neighbor_sets(self):
        g = build_graph([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
        assert cosine_vector(g, 0)[1] == pytest.approx(1.0, abs=1e-15)
        assert jaccard_vector(g, 0)[1] == 1.0

    def test_disjoint_sets_absent(self):
        g = build_graph([(0, 0), (1, 1)], 2, 2)
        assert cosine_vector(g, 0)[1] == 0.0
        assert jaccard_vector(g, 0)[1] == 0.0

    def test_isolated_target(self):
        g = build_graph([(1, 0)], 2, 1)
        assert not cosine_vector(g, 0).any()
        assert not jaccard_vector(g, 0).any()

    def test_matches_naive_set_arithmetic(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = random_graph(rng)
            neigh = [set(g.left_neighbors(u).tolist()) for u in range(g.left_count)]
            for v in range(g.left_count):
                cos = cosine_vector(g, v)
                jac = jaccard_vector(g, v)
                for u in range(g.left_count):
                    inter = len(neigh[u] & neigh[v])
                    if inter == 0:
                        assert cos[u] == 0.0 and jac[u] == 0.0
                    else:
                        assert cos[u] == inter / math.sqrt(len(neigh[u]) * len(neigh[v]))
                        assert jac[u] == inter / len(neigh[u] | neigh[v])

    def test_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_graph(rng, 20, 20)
            rows_c = [cosine_vector(g, v) for v in range(g.left_count)]
            rows_j = [jaccard_vector(g, v) for v in range(g.left_count)]
            for v in range(g.left_count):
                for u in np.flatnonzero(rows_c[v]):
                    assert rows_c[u][v] == rows_c[v][u]
                for u in np.flatnonzero(rows_j[v]):
                    assert rows_j[u][v] == rows_j[v][u]


class TestFuse:
    """Channel fusion, Scorer.combine, on dense per-user vectors."""

    combine = staticmethod(Scorer.combine)

    def test_endpoint_object_only(self):
        obj = np.array([0.0, 0.25, 0.75, 0.0])
        tag = np.array([0.0, 0.5, 0.0, 0.5])
        assert np.array_equal(self.combine(obj, tag, 1.0), obj)

    def test_endpoint_tag_only(self):
        obj = np.array([0.0, 0.25, 0.75, 0.0])
        tag = np.array([0.0, 0.5, 0.0, 0.5])
        assert np.array_equal(self.combine(obj, tag, 0.0), tag)

    def test_arithmetic(self):
        fused = self.combine(np.array([0.0, 0.25, 0.0]), np.array([0.0, 0.5, 0.1]), 0.74)
        assert fused[1] == pytest.approx(0.315, abs=1e-12)
        assert fused[2] == pytest.approx(0.026, abs=1e-12)

    def test_linear_in_lambda(self):
        obj = np.array([0.0, 0.3, 0.7, 0.0])
        tag = np.array([0.0, 0.0, 0.2, 0.8])
        for l1, l2 in [(0.0, 1.0), (0.1, 0.7), (0.38, 0.92)]:
            a = self.combine(obj, tag, l1)
            b = self.combine(obj, tag, l2)
            mid = self.combine(obj, tag, (l1 + l2) / 2)
            assert np.abs(mid - (a + b) / 2).max() < 1e-12

    def test_no_zero_entries_materialized(self):
        fused = self.combine(np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, 0.5]), 1.0)
        assert fused[2] == 0.0
        assert (fused >= 0.0).all()
