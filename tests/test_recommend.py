import numpy as np
import pytest

from tridiff.evaluation import lambda_grid
from tridiff.ingest import split
from tridiff.recommend import Scorer

from conftest import make_dataset, random_tripartite


def scores(dataset, target, sims):
    """Positive scores of the target's uncollected objects, scattered from
    the given user similarities toward the target."""
    scorer = Scorer(dataset, "diffusion")
    s = np.zeros(len(dataset.users))
    for u, x in sims.items():
        s[u] = x
    p = scorer.scatter(s, target)
    return dict(scorer.top_l(p, target, scorer.n_objects))


class TestScoreObjects:
    def test_f1_all_collected(self, f1_dataset):
        # u1 already collected both objects, so nothing is scorable
        assert scores(f1_dataset, 0, {1: 0.25, 2: 0.25}) == {}

    def test_f2_uncollected_object(self, f2_dataset):
        assert scores(f2_dataset, 0, {1: 0.25, 2: 0.25}) == {2: 0.25}

    def test_empty_row(self, f2_dataset):
        assert scores(f2_dataset, 0, {}) == {}

    def test_self_entry_excluded(self, f2_dataset):
        with_self = scores(f2_dataset, 0, {0: 9.0, 1: 0.25})
        without = scores(f2_dataset, 0, {1: 0.25})
        assert with_self == without

    def test_accumulates_over_users(self, f2_dataset):
        # target u3 (index 2) collected only o2; o1 is backed by u1 and u2
        sv = scores(f2_dataset, 2, {0: 0.5, 1: 0.25})
        assert sv[0] == pytest.approx(0.75, abs=1e-15)
        assert sv[2] == pytest.approx(0.25, abs=1e-15)

    def test_no_leakage(self, f2_dataset):
        for target in range(3):
            sv = scores(f2_dataset, target, {u: 1.0 for u in range(3) if u != target})
            collected = set(
                f2_dataset.user_object.left_neighbors(target).tolist()
            )
            assert not collected & set(sv)


@pytest.fixture
def no_collections():
    """Scorer for a user 0 who collected none of 10 objects."""
    return Scorer(make_dataset([(1, 0)], [(1, 0)], 2, 10, 1), "diffusion")


def dense(entries, n=10):
    p = np.zeros(n)
    for obj, s in entries.items():
        p[obj] = s
    return p


class TestTopL:
    def test_sort_and_tiebreak(self, no_collections):
        p = dense({3: 0.25, 5: 0.25, 4: 0.9})
        assert no_collections.top_l(p, 0, 2) == [(4, 0.9), (3, 0.25)]

    def test_empty(self, no_collections):
        assert no_collections.top_l(dense({}), 0, 5) == []

    def test_truncation_to_positive(self, no_collections):
        p = dense({1: 0.1, 2: 0.2})
        assert [o for o, _ in no_collections.top_l(p, 0, 10)] == [2, 1]

    def test_l_validation(self, no_collections):
        with pytest.raises(ValueError):
            no_collections.top_l(dense({}), 0, 0)

    def test_tie_block_ascending_index(self, no_collections):
        p = dense({9: 0.5, 2: 0.5, 7: 0.5})
        assert [o for o, _ in no_collections.top_l(p, 0, 3)] == [2, 7, 9]


class TestProperties:
    def test_scale_invariance(self, f2_dataset):
        l1 = scores(f2_dataset, 2, {0: 0.5, 1: 0.25})
        l2 = scores(f2_dataset, 2, {0: 0.5 * 7.3, 1: 0.25 * 7.3})
        assert list(l1) == list(l2)

    def test_lambda_endpoint_consistency(self, f2_dataset):
        v = 2
        scorer = Scorer(f2_dataset, "diffusion")
        p_obj, p_tag = scorer.channel_scores(v)
        fused = scorer.combine(p_obj, p_tag, 1.0)
        assert scorer.top_l(fused, v, 3) == scorer.top_l(p_obj, v, 3)
        assert np.array_equal(fused, p_obj)


class TestListsMatchEvaluation:
    @pytest.mark.parametrize("kind", ["diffusion", "cosine", "jaccard"])
    def test_hit_iff_listed(self, kind):
        # a held-out pair is a top-L hit in the evaluation exactly when the
        # recommendation list of length L holds its object
        dataset = random_tripartite(
            np.random.default_rng(5), m=60, n=80, r=30,
            obj_density=0.08, tag_density=0.08,
        )
        evaluation_split = split(dataset, 0.9, 3)
        scorer = Scorer(evaluation_split.training, kind)
        listed_hits = 0
        # a short grid compares fused scores directly, a long one uses crossing points
        for grid in ((0.0, 0.5, 1.0), lambda_grid(0.0, 1.0, 0.05)):
            for v, alpha in sorted(evaluation_split.test_edges):
                p_obj, p_tag = scorer.channel_scores(v)
                _, hits = scorer.sweep_stats(p_obj, p_tag, v, [alpha], grid, (5, 10))
                for g, lam in enumerate(grid):
                    p = scorer.combine(p_obj, p_tag, lam)
                    for j, L in enumerate((5, 10)):
                        listed = alpha in [obj for obj, _ in scorer.top_l(p, v, L)]
                        assert hits[g, j] == int(listed)
                        listed_hits += listed
        assert listed_hits > 0
