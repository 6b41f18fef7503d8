import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff import recommend
from tridiff.evaluation import lambda_grid
from tridiff.ingest import split
from tridiff.recommend import COLLECTED, Scorer
from tridiff.similarity import KINDS, similarity_matrix

from conftest import make_dataset, random_tripartite, scipy_matrix, stats_of_one


def scores(dataset, target, sims):
    """Positive scores of the target's uncollected objects, scattered from
    the given user similarities toward the target (they stand in for the
    kernel's in both channels)."""
    scorer = Scorer(dataset, "diffusion")
    s = np.zeros((1, len(dataset.users)))
    for u, x in sims.items():
        s[0, u] = x
    with mock.patch.object(recommend, "similarity_matrix", lambda *_: s.copy()):
        p_obj, _ = scorer.channel_scores([target])
    return dict(scorer.top_l(p_obj[0], scorer.n_objects))


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
            graph = f2_dataset.user_object
            collected = set(graph.indices[graph.indptr[target] : graph.indptr[target + 1]].tolist())
            assert not collected & set(sv)


def dense(entries, n=10):
    p = np.zeros(n)
    for obj, s in entries.items():
        p[obj] = s
    return p


class TestTopL:
    top_l = staticmethod(Scorer.top_l)

    def test_sort_and_tiebreak(self):
        p = dense({3: 0.25, 5: 0.25, 4: 0.9})
        assert self.top_l(p, 2) == [(4, 0.9), (3, 0.25)]

    def test_empty(self):
        assert self.top_l(dense({}), 5) == []

    def test_truncation_to_positive(self):
        p = dense({1: 0.1, 2: 0.2})
        assert [o for o, _ in self.top_l(p, 10)] == [2, 1]

    def test_l_validation(self):
        with pytest.raises(ValueError):
            self.top_l(dense({}), 0)

    def test_tie_block_ascending_index(self):
        p = dense({9: 0.5, 2: 0.5, 7: 0.5})
        assert [o for o, _ in self.top_l(p, 3)] == [2, 7, 9]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_stable_sort(self, data):
        # few distinct values, 0 among them, so ties straddle the L-th place
        n = data.draw(st.integers(1, 25))
        values = data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=n, max_size=n))
        collected = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        L = data.draw(st.integers(1, n + 2))
        p = np.array(values)
        candidates = np.array([a for a in range(n) if not collected[a] and p[a] > 0.0], dtype=np.intp)
        best = candidates[np.argsort(-p[candidates], kind="stable")[:L]]
        masked = np.where(collected, COLLECTED, p)  # as channel_scores writes it
        assert self.top_l(masked, L) == [(int(a), float(p[a])) for a in best]


class TestProperties:
    def test_scale_invariance(self, f2_dataset):
        l1 = scores(f2_dataset, 2, {0: 0.5, 1: 0.25})
        l2 = scores(f2_dataset, 2, {0: 0.5 * 7.3, 1: 0.25 * 7.3})
        assert list(l1) == list(l2)

    def test_lambda_endpoint_consistency(self, f2_dataset):
        v = 2
        scorer = Scorer(f2_dataset, "diffusion")
        p_obj, p_tag = (p[0] for p in scorer.channel_scores([v]))
        fused = scorer.combine(p_obj, p_tag, 1.0)
        assert scorer.top_l(fused, 3) == scorer.top_l(p_obj, 3)
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
            for v, alpha in evaluation_split.test.edge_array().tolist():
                p_obj, p_tag = (p[0] for p in scorer.channel_scores([v]))
                _, hits = stats_of_one(scorer, p_obj, p_tag, v, [alpha], grid, (5, 10))
                for g, lam in enumerate(grid):
                    p = scorer.combine(p_obj, p_tag, lam)
                    for j, L in enumerate((5, 10)):
                        listed = alpha in [obj for obj, _ in scorer.top_l(p, L)]
                        assert hits[g, j] == int(listed)
                        listed_hits += listed
        assert listed_hits > 0


def reference_similarity(graph, v, kind):
    """Similarities toward v from one user at a time: np.bincount over the
    user lists of v's right nodes, taken in ascending node order."""
    alphas = graph.indices[graph.indptr[v] : graph.indptr[v + 1]]
    kv = len(alphas)
    if kv == 0:
        return np.zeros(graph.left_count)
    right_deg = graph.right_degrees[alphas]
    by_right = scipy_matrix(graph).T.tocsr()
    users = np.concatenate(
        [by_right.indices[by_right.indptr[a] : by_right.indptr[a + 1]] for a in alphas]
    )
    if kind == "diffusion":
        weights = np.repeat(1.0 / (kv * right_deg), right_deg)
        return np.bincount(users, weights=weights, minlength=graph.left_count)
    ov = np.bincount(users, minlength=graph.left_count).astype(np.float64)
    nz = ov > 0
    deg = graph.left_degrees
    if kind == "cosine":
        ov[nz] /= np.sqrt(deg[nz] * float(kv))
    else:
        ov[nz] /= deg[nz] + kv - ov[nz]
    return ov


def reference_channel_scores(dataset, v, kind):
    """Object scores toward v per channel: v's own similarity zeroed, then
    a sparse matrix-vector product with the user-object graph, all >= 0;
    then COLLECTED at v's collected objects."""
    objects = dataset.user_object
    collected = objects.indices[objects.indptr[v] : objects.indptr[v + 1]]
    scores = []
    for graph in (objects, dataset.user_tag):
        s = reference_similarity(graph, v, kind)
        s[v] = 0.0
        p = scipy_matrix(objects).T @ s
        assert (p >= 0.0).all()
        p[collected] = COLLECTED
        scores.append(p)
    return scores


@st.composite
def edge_cases(draw):
    """A training set of random_tripartite data in which user 0 has no
    objects, user 1 no tags and user 2 no edges at all, plus a block of
    distinct users in any order."""
    m, n, r = draw(st.integers(3, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = random_tripartite(
        rng, m, n, r,
        obj_density=draw(st.floats(0.02, 0.6)), tag_density=draw(st.floats(0.02, 0.6)),
    )
    uo = [(u, x) for u, x in full.user_object.edge_array().tolist() if u not in (0, 2)]
    ut = [(u, t) for u, t in full.user_tag.edge_array().tolist() if u not in (1, 2)]
    dataset = make_dataset(uo, ut, m, n, r)
    training = split(dataset, draw(st.sampled_from((0.5, 0.9, 1.0))), draw(st.integers(0, 9)))
    block = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return training.training, block


class TestUsersWithoutEdges:
    """The normalisation floors degrees at 1: a user or a target without
    edges gets zeros, with no 0 / 0 and no warning."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_degree_users_score_zero(self, kind):
        # users 0-2 share objects and tags, user 3 (never a target) and
        # user 4 (a target) have no edges at all
        uo = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
        ut = [(0, 0), (1, 0), (1, 1), (2, 1)]
        dataset = make_dataset(uo, ut, 5, 3, 2)
        block = [0, 4, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for graph in (dataset.user_object, dataset.user_tag):
                s = similarity_matrix(graph, block, kind)
                a = scipy_matrix(graph).toarray()
                overlap = a[block] @ a.T
                assert np.isfinite(s).all()
                assert not s[overlap == 0].any() and (s[overlap > 0] > 0).all()
                for i, v in enumerate(block):
                    assert np.array_equal(s[i], reference_similarity(graph, v, kind))
            p_obj, p_tag = Scorer(dataset, kind).channel_scores(block)
        for i, v in enumerate(block):
            ref_obj, ref_tag = reference_channel_scores(dataset, v, kind)
            assert np.array_equal(p_obj[i], ref_obj) and np.array_equal(p_tag[i], ref_tag)
        assert np.isfinite(p_obj).all() and np.isfinite(p_tag).all()
        assert not p_obj[1].any() and not p_tag[1].any()


class TestBlockScoresMatchPerUser:
    """Block scores are bit-for-bit the per-user ones. The equality rests on
    scipy summing each product entry in ascending index order; a scipy that
    sums in another order fails here, and may change which scores tie."""

    @settings(max_examples=100, deadline=None)
    @given(edge_cases(), st.sampled_from(KINDS))
    def test_blocks_of_one_some_and_all(self, case, kind):
        dataset, some = case
        scorer = Scorer(dataset, kind)
        m = len(dataset.users)
        for block in ([some[0]], some, list(range(m))):
            p_obj, p_tag = scorer.channel_scores(block)
            assert p_obj.shape == p_tag.shape == (len(block), scorer.n_objects)
            for i, v in enumerate(block):
                ref_obj, ref_tag = reference_channel_scores(dataset, v, kind)
                assert np.array_equal(p_obj[i], ref_obj)
                assert np.array_equal(p_tag[i], ref_tag)
