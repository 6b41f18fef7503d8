import itertools

import numpy as np
import pytest

from tridiff.evaluation import (
    ExperimentConfig,
    UndefinedMetricError,
    evaluate_split,
    lambda_grid,
    run_experiment,
)
from tridiff.ingest import EvaluationSplit
from tridiff.recommend import Scorer

from conftest import make_dataset, random_tripartite


def rank_third_setup(n=101, test_edges=frozenset({(0, 3)})):
    """Target u0 with n - 1 uncollected objects; objects 1, 2 and 3 are
    scored uniquely first, second and third, and 3 is held out."""
    uo = [(0, 0)]
    uo += [(1, 0), (1, 1), (1, 2), (1, 3)]
    uo += [(2, 0), (2, 1), (2, 2)]
    uo += [(3, 0), (3, 1)]
    ds = make_dataset(uo, [(u, 0) for u in range(4)], 4, n, 1)
    split = EvaluationSplit(training=ds, test_edges=test_edges, seed=0)
    return ds, split


def object_channel_cell(split, L=()):
    """Metrics of the split at lambda = 1 (object channel only)."""
    return evaluate_split(split, "diffusion", (1.0,), L)[1.0]


class TestRankOfTestPairs:
    def test_third_of_hundred(self):
        _, split = rank_third_setup()
        assert object_channel_cell(split).rank_score == 0.03

    def test_unique_top_of_ten(self):
        uo = [(0, 0), (1, 0), (1, 1)]
        ds = make_dataset(uo, [(0, 0), (1, 0)], 2, 11, 1)
        split = EvaluationSplit(training=ds, test_edges=frozenset({(0, 1)}), seed=0)
        assert object_channel_cell(split).rank_score == 0.1

    def test_zero_score_block_midrank(self):
        # target has no training edges at all: every uncollected object ties
        # at score zero and gets the midrank 5.5 of 10
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = EvaluationSplit(training=ds, test_edges=frozenset({(0, 4)}), seed=0)
        assert object_channel_cell(split).rank_score == 0.55

    def test_midrank_equals_enumeration(self):
        # exhaustive oracle: mean rank of a tie-block member over all
        # orderings of the block equals the midrank
        scores = [0.9, 0.2, 0.2, 0.2, 0.05, 0.0, 0.0]
        target_idx = 2  # one of the 0.2 block
        block = [i for i, s in enumerate(scores) if s == scores[target_idx]]
        others = [s for s in scores if s != scores[target_idx]]
        positions = []
        for order in itertools.permutations(block):
            pos_in_block = order.index(target_idx)
            positions.append(sum(s > scores[target_idx] for s in others) + pos_in_block + 1)
        expected_midrank = sum(positions) / len(positions)

        ds = make_dataset([(1, 0)], [(1, 0)], 2, len(scores), 1)
        engine = Scorer(ds, "diffusion")
        p = np.array(scores)
        ranks, _ = engine.pair_stats(p, 0, [target_idx], ())
        assert ranks[0] == pytest.approx(expected_midrank / len(scores), abs=1e-15)

    def test_monotone_in_score(self):
        # raising the test object's score above one more competitor lowers r
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 5, 1)
        engine = Scorer(ds, "diffusion")
        lo, _ = engine.pair_stats(np.array([0.9, 0.5, 0.3, 0.0, 0.0]), 0, [2], ())
        hi, _ = engine.pair_stats(np.array([0.9, 0.5, 0.7, 0.0, 0.0]), 0, [2], ())
        assert hi[0] < lo[0]


class TestRankingScore:
    def test_single_pair(self):
        _, split = rank_third_setup()
        assert object_channel_cell(split).rank_score == 0.03

    def test_mean(self):
        # ranks 0.1 (object 1) and 0.3 (object 3) among 10 uncollected
        _, split = rank_third_setup(n=11, test_edges=frozenset({(0, 1), (0, 3)}))
        assert object_channel_cell(split).rank_score == pytest.approx(0.2, abs=1e-15)

    def test_empty_raises(self):
        _, split = rank_third_setup(test_edges=frozenset())
        with pytest.raises(UndefinedMetricError):
            object_channel_cell(split)


class TestRecallPrecision:
    def test_perfect_recall(self):
        _, split = rank_third_setup()
        cell = object_channel_cell(split, L=(10,))
        r, p = cell.recall[10], cell.precision[10]
        assert r == 1.0
        assert p == 1.0 / (4 * 10)

    def test_no_hits(self):
        ds, _ = rank_third_setup()
        split = EvaluationSplit(training=ds, test_edges=frozenset({(0, 50)}), seed=0)
        cell = object_channel_cell(split, L=(10,))
        r, p = cell.recall[10], cell.precision[10]
        assert r == 0.0 and p == 0.0

    def test_zero_score_object_never_hit(self):
        # the held-out object ties at zero: even L > n must not count it
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = EvaluationSplit(training=ds, test_edges=frozenset({(0, 4)}), seed=0)
        r = object_channel_cell(split, L=(10,)).recall[10]
        assert r == 0.0

    def test_empty_test_set_raises(self):
        ds, _ = rank_third_setup()
        split = EvaluationSplit(training=ds, test_edges=frozenset(), seed=0)
        with pytest.raises(UndefinedMetricError):
            object_channel_cell(split, L=(10,))


class TestConfig:
    def test_default_grid(self):
        grid = lambda_grid(0.0, 1.0, 0.02)
        assert len(grid) == 51
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[37] == pytest.approx(0.74, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"similarity_kind": "pearson"},
            {"runs": 0},
            {"lambda_grid": (0.5, 0.2)},
            {"lambda_grid": (0.0, 1.5)},
            {"lambda_grid": ()},
            {"list_lengths": (0,)},
            {"channel": "both"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def dataset():
    return random_tripartite(
        np.random.default_rng(5), m=60, n=80, r=30,
        obj_density=0.08, tag_density=0.08,
    )


class TestRunExperiment:
    def cfg(self, **kw):
        base = dict(
            similarity_kind="diffusion",
            lambda_grid=(0.0, 0.5, 1.0),
            runs=2,
            train_fraction=0.9,
            list_lengths=(5, 10),
            base_seed=7,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_shape_and_bounds(self, dataset):
        report = run_experiment(dataset, self.cfg())
        assert len(report.per_cell) == 3 * 2
        for cell in report.per_cell.values():
            assert 0.0 < cell.rank_score <= 1.0
            for L in (5, 10):
                assert 0.0 <= cell.recall[L] <= 1.0
                assert 0.0 <= cell.precision[L] <= 1.0

    def test_identity_p_m_l_equals_r_np(self, dataset):
        report = run_experiment(dataset, self.cfg())
        m = dataset.user_object.left_count
        for cell in report.per_cell.values():
            for L in (5, 10):
                # both metrics are the shared integer numerator over their
                # own denominators, so the identity holds as rationals
                assert cell.recall[L] == cell.hits[L] / cell.n_p
                assert cell.precision[L] == cell.hits[L] / (m * L)
                assert cell.precision[L] * m * L == pytest.approx(
                    cell.recall[L] * cell.n_p, rel=1e-12
                )

    def test_np_matches_rounding_rule(self, dataset):
        report = run_experiment(dataset, self.cfg())
        e = dataset.user_object.edge_count
        for cell in report.per_cell.values():
            assert cell.n_p == e - round(0.9 * e)

    def test_determinism(self, dataset):
        r1 = run_experiment(dataset, self.cfg())
        r2 = run_experiment(dataset, self.cfg())
        assert r1.per_cell == r2.per_cell
        assert r1.means == r2.means
        assert r1.optima == r2.optima

    def test_endpoint_bitwise_object(self, dataset):
        fused = run_experiment(dataset, self.cfg())
        obj = run_experiment(dataset, self.cfg(lambda_grid=(1.0,), channel="object"))
        for run in range(2):
            assert fused.per_cell[(1.0, run)] == obj.per_cell[(1.0, run)]

    def test_endpoint_bitwise_tag(self, dataset):
        fused = run_experiment(dataset, self.cfg())
        tag = run_experiment(dataset, self.cfg(lambda_grid=(0.0,), channel="tag"))
        for run in range(2):
            assert fused.per_cell[(0.0, run)] == tag.per_cell[(0.0, run)]

    def test_single_cell_tag_free(self, dataset):
        report = run_experiment(dataset, self.cfg(lambda_grid=(1.0,), runs=1))
        assert set(report.per_cell) == {(1.0, 0)}
        assert report.optima["rank_score"][0] == 1.0

    def test_empty_test_cells_reported_not_fatal(self, dataset):
        report = run_experiment(dataset, self.cfg(train_fraction=1.0))
        assert report.per_cell == {}
        assert len(report.cell_errors) == 3 * 2
        assert report.means == {} and report.optima == {}

    def test_empty_dataset_rejected(self):
        empty = make_dataset([], [], 0, 0, 0)
        with pytest.raises(ValueError):
            run_experiment(empty, self.cfg())

    def test_means_average_runs(self, dataset):
        report = run_experiment(dataset, self.cfg())
        for lam in (0.0, 0.5, 1.0):
            expect = np.mean(
                [report.per_cell[(lam, r)].rank_score for r in range(2)]
            )
            assert report.means[lam]["rank_score"] == pytest.approx(expect, abs=1e-15)

    def test_optima_select_extremes(self, dataset):
        report = run_experiment(dataset, self.cfg())
        lam, value = report.optima["rank_score"]
        assert value == min(m["rank_score"] for m in report.means.values())
        assert report.means[lam]["rank_score"] == value
        lam, value = report.optima["recall@5"]
        assert value == max(m["recall@5"] for m in report.means.values())

    def test_cosine_and_jaccard_kinds_run(self, dataset):
        for kind in ("cosine", "jaccard"):
            report = run_experiment(dataset, self.cfg(similarity_kind=kind, runs=1))
            for cell in report.per_cell.values():
                assert 0.0 < cell.rank_score <= 1.0
