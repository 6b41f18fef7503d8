import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridiff import recommend
from tridiff.cli import main
from tridiff.evaluation import (
    ExperimentConfig,
    UndefinedMetricError,
    evaluate_split,
    lambda_grid,
    run_sweep,
)
from tridiff.ingest import EvaluationSplit, split
from tridiff.recommend import Scorer
from tridiff.snapshot import save_dataset

from conftest import make_dataset, random_tripartite


def rank_third_setup(n=101, test_edges=((0, 3),)):
    """Target u0 with n - 1 uncollected objects; objects 1, 2 and 3 are
    scored uniquely first, second and third, and 3 is held out."""
    uo = [(0, 0)]
    uo += [(1, 0), (1, 1), (1, 2), (1, 3)]
    uo += [(2, 0), (2, 1), (2, 2)]
    uo += [(3, 0), (3, 1)]
    ds = make_dataset(uo, [(u, 0) for u in range(4)], 4, n, 1)
    test_edges = np.array(test_edges, dtype=np.int64).reshape(-1, 2)
    return ds, EvaluationSplit(training=ds, test_edges=test_edges)


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
        split = EvaluationSplit(training=ds, test_edges=np.array([[0, 1]]))
        assert object_channel_cell(split).rank_score == 0.1

    def test_zero_score_block_midrank(self):
        # target has no training edges at all: every uncollected object ties
        # at score zero and gets the midrank 5.5 of 10
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = EvaluationSplit(training=ds, test_edges=np.array([[0, 4]]))
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
        ranks, _ = engine.sweep_stats(p, p, 0, [target_idx], (1.0,), ())
        assert ranks[0, 0] == pytest.approx(expected_midrank / len(scores), abs=1e-15)

    def test_monotone_in_score(self):
        # raising the test object's score above one more competitor lowers r
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 5, 1)
        engine = Scorer(ds, "diffusion")
        lo_p = np.array([0.9, 0.5, 0.3, 0.0, 0.0])
        hi_p = np.array([0.9, 0.5, 0.7, 0.0, 0.0])
        lo, _ = engine.sweep_stats(lo_p, lo_p, 0, [2], (1.0,), ())
        hi, _ = engine.sweep_stats(hi_p, hi_p, 0, [2], (1.0,), ())
        assert hi[0, 0] < lo[0, 0]


def brute_sweep_stats(p_obj, p_tag, collected, test_objects, lambdas, list_lengths):
    """Midranks and top-L hits by brute force, one lambda at a time: the
    fused score is lam * p_obj + (1 - lam) * p_tag in float64, and the
    top-L lists are sorted outright."""
    uncollected = [b for b in range(len(p_obj)) if b not in collected]
    ranks = np.zeros((len(test_objects), len(lambdas)))
    hits = np.zeros((len(lambdas), len(list_lengths)), dtype=np.int64)
    for g, lam in enumerate(lambdas):
        p = lam * p_obj + (1.0 - lam) * p_tag
        ranked = sorted((b for b in uncollected if p[b] > 0.0), key=lambda b: (-p[b], b))
        for i, alpha in enumerate(test_objects):
            greater = sum(p[b] > p[alpha] for b in uncollected)
            equal = sum(p[b] == p[alpha] for b in uncollected)
            ranks[i, g] = (greater + (equal + 1) / 2.0) / len(uncollected)
            for j, L in enumerate(list_lengths):
                hits[g, j] += alpha in ranked[:L]
    return ranks, hits


# exact ties, 1-ulp neighbours, sums that round (0.1 + 0.2), zeros, subnormals
SCORE_POOL = (
    0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.2, 0.1 + 0.2, 0.3,
    np.nextafter(0.3, 1.0), np.nextafter(0.3, 0.0), 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0,
)
LAMBDA_POOL = (0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5, np.nextafter(0.5, 1.0), 0.25, 0.75, 0.02, 1 / 3)


@st.composite
def sweep_cases(draw):
    """A target's two channel score vectors, its collected objects, its test
    objects and a lambda grid (unsorted, with duplicates)."""
    n = draw(st.integers(2, 24))
    score = st.one_of(st.sampled_from(SCORE_POOL), st.floats(0.0, 3.0))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300)))
    p_obj = np.array(draw(st.lists(score, min_size=n, max_size=n))) * scale
    p_tag = np.array(draw(st.lists(score, min_size=n, max_size=n))) * scale
    collected = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    free = [b for b in range(n) if b not in collected]
    test_objects = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    lam = st.one_of(st.sampled_from(LAMBDA_POOL), st.floats(0.0, 1.0))
    lambdas = draw(st.lists(lam, min_size=1, max_size=16))
    return p_obj, p_tag, sorted(collected), test_objects, lambdas


class TestSweepStats:
    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    @example(  # beta and alpha swap scores: they tie at lam = 0.5 only
        (np.array([0.2, 0.1, 0.0]), np.array([0.1, 0.2, 0.0]), [], [1], [0.25, 0.5, 0.75])
    )
    @example(  # a 51-point grid on 1-ulp neighbours and a zero block
        (
            np.array([0.3, np.nextafter(0.3, 1.0), 0.0, 0.0, 0.1 + 0.2]),
            np.array([np.nextafter(0.3, 0.0), 0.3, 0.0, 0.0, 0.3]),
            [2], [0, 3], list(lambda_grid(0.0, 1.0, 0.02)),
        )
    )
    def test_matches_brute_force(self, case):
        p_obj, p_tag, collected, test_objects, lambdas = case
        n = len(p_obj)
        ds = make_dataset([(0, b) for b in collected] + [(1, 0)], [(0, 0), (1, 0)], 2, n, 1)
        scorer = Scorer(ds, "diffusion")
        expected = brute_sweep_stats(p_obj, p_tag, collected, test_objects, lambdas, (1, 2, 5))
        # every grid through the crossing path, then every grid compared directly
        for threshold in (1, len(lambdas) + 1):
            with mock.patch.object(recommend, "MIN_CROSSING_POINTS", threshold):
                ranks, hits = scorer.sweep_stats(
                    p_obj, p_tag, 0, test_objects, lambdas, (1, 2, 5)
                )
            assert np.array_equal(ranks, expected[0])
            assert np.array_equal(hits, expected[1])

    def test_rejects_lambda_outside_unit_interval(self):
        scorer = Scorer(make_dataset([(1, 0)], [(1, 0)], 2, 3, 1), "diffusion")
        p = np.zeros(3)
        for lam in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                scorer.sweep_stats(p, p, 0, [1], (0.5, lam), (1,))


class TestRankingScore:
    def test_single_pair(self):
        _, split = rank_third_setup()
        assert object_channel_cell(split).rank_score == 0.03

    def test_mean(self):
        # ranks 0.1 (object 1) and 0.3 (object 3) among 10 uncollected
        _, split = rank_third_setup(n=11, test_edges=((0, 1), (0, 3)))
        assert object_channel_cell(split).rank_score == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("test_edges", [((0, 3), (0, 1)), ((0, 3), (0, 1), (0, 3))])
    def test_row_order_and_repeats_ignored(self, test_edges):
        # each distinct pair counts once, summed in (user, object) order
        _, expected = rank_third_setup(n=11, test_edges=((0, 1), (0, 3)))
        _, split = rank_third_setup(n=11, test_edges=test_edges)
        assert object_channel_cell(split) == object_channel_cell(expected)

    def test_empty_raises(self):
        _, split = rank_third_setup(test_edges=())
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
        split = EvaluationSplit(training=ds, test_edges=np.array([[0, 50]]))
        cell = object_channel_cell(split, L=(10,))
        r, p = cell.recall[10], cell.precision[10]
        assert r == 0.0 and p == 0.0

    def test_zero_score_object_never_hit(self):
        # the held-out object ties at zero: even L > n must not count it
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = EvaluationSplit(training=ds, test_edges=np.array([[0, 4]]))
        r = object_channel_cell(split, L=(10,)).recall[10]
        assert r == 0.0

    def test_empty_test_set_raises(self):
        ds, _ = rank_third_setup()
        split = EvaluationSplit(training=ds, test_edges=np.empty((0, 2), np.int64))
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
            {"similarity_kinds": ("pearson",)},
            {"runs": 0},
            {"lambda_grid": (0.5, 0.2)},
            {"lambda_grid": (0.0, 1.5)},
            {"lambda_grid": ()},
            {"list_lengths": (0,)},
            {"train_fraction": 0.0},
            {"train_fraction": 1.5},
            {"train_fraction": float("nan")},
            {"list_lengths": (10, 10)},
            {"base_seed": -1},
            {"similarity_kinds": ()},
            {"similarity_kinds": ("diffusion", "diffusion")},
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
    """The sweep protocol, run_sweep, one kind at a time unless a test says so."""

    def cfg(self, **kw):
        base = dict(
            similarity_kinds=("diffusion",),
            lambda_grid=(0.0, 0.5, 1.0),
            runs=2,
            train_fraction=0.9,
            list_lengths=(5, 10),
            base_seed=7,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def report(self, dataset, **kw):
        """The diffusion report of a sweep of self.cfg(**kw)."""
        return run_sweep(dataset, self.cfg(**kw))["diffusion"]

    def test_shape_and_bounds(self, dataset):
        report = self.report(dataset)
        assert len(report.per_cell) == 3 * 2
        for cell in report.per_cell.values():
            assert 0.0 < cell.rank_score <= 1.0
            for L in (5, 10):
                assert 0.0 <= cell.recall[L] <= 1.0
                assert 0.0 <= cell.precision[L] <= 1.0

    def test_identity_p_m_l_equals_r_np(self, dataset):
        report = self.report(dataset)
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
        report = self.report(dataset)
        e = dataset.user_object.edge_count
        for cell in report.per_cell.values():
            assert cell.n_p == e - round(0.9 * e)

    def test_determinism(self, dataset):
        r1 = self.report(dataset)
        r2 = self.report(dataset)
        assert r1.per_cell == r2.per_cell
        assert r1.means == r2.means
        assert r1.optima == r2.optima

    def test_single_cell_tag_free(self, dataset):
        report = self.report(dataset, lambda_grid=(1.0,), runs=1)
        assert set(report.per_cell) == {(1.0, 0)}
        assert report.optima["rank_score"][0] == 1.0

    def test_empty_test_cells_reported_not_fatal(self, dataset):
        report = self.report(dataset, train_fraction=1.0)
        assert report.per_cell == {}
        assert len(report.cell_errors) == 3 * 2
        assert report.means == {} and report.optima == {}

    def test_empty_dataset_rejected(self):
        empty = make_dataset([], [], 0, 0, 0)
        with pytest.raises(ValueError):
            run_sweep(empty, self.cfg())

    def test_means_average_runs(self, dataset):
        report = self.report(dataset)
        for lam in (0.0, 0.5, 1.0):
            expect = np.mean(
                [report.per_cell[(lam, r)].rank_score for r in range(2)]
            )
            assert report.means[lam]["rank_score"] == pytest.approx(expect, abs=1e-15)

    def test_optima_select_extremes(self, dataset):
        report = self.report(dataset)
        lam, value = report.optima["rank_score"]
        assert value == min(m["rank_score"] for m in report.means.values())
        assert report.means[lam]["rank_score"] == value
        lam, value = report.optima["recall@5"]
        assert value == max(m["recall@5"] for m in report.means.values())

    def test_cosine_and_jaccard_kinds_run(self, dataset):
        reports = run_sweep(dataset, self.cfg(similarity_kinds=("cosine", "jaccard"), runs=1))
        assert list(reports) == ["cosine", "jaccard"]
        for report in reports.values():
            for cell in report.per_cell.values():
                assert 0.0 < cell.rank_score <= 1.0

    def test_one_split_per_run_whatever_the_kinds(self, dataset):
        calls = []

        def counted(*args):
            calls.append(args)
            return split(*args)

        with mock.patch("tridiff.evaluation.split", counted):
            reports = run_sweep(
                dataset, self.cfg(similarity_kinds=("diffusion", "cosine", "jaccard"))
            )
        assert len(reports) == 3
        assert [seed for _, _, seed in calls] == [7, 8]

    def test_each_kind_as_if_swept_alone(self, dataset):
        kinds = ("jaccard", "diffusion", "cosine")
        for train_fraction in (0.9, 1.0):
            together = run_sweep(
                dataset, self.cfg(similarity_kinds=kinds, train_fraction=train_fraction)
            )
            assert list(together) == list(kinds)
            for kind in kinds:
                alone = run_sweep(
                    dataset, self.cfg(similarity_kinds=(kind,), train_fraction=train_fraction)
                )[kind]
                assert together[kind].per_cell == alone.per_cell
                assert together[kind].cell_errors == alone.cell_errors
                assert together[kind].means == alone.means
                assert together[kind].optima == alone.optima


class TestSweepCsvPinned:
    # sha256 of each sweep_<kind>.csv of a 51-lambda sweep of the fixture
    # below as comparing fused scores at every lambda writes them; a faster
    # ranking must leave these bytes as they are
    EXPECTED = {
        "diffusion": "b979427d64819706cf4d888256f09b64c738a5956d34cbf805b60a717d37cf45",
        "cosine": "bf1094cee0a9347ac6e8c71c99ff7dedc27536843a8ee4e25341d54eb83f2fc3",
        "jaccard": "f05d1f03ab1042a33c98e8b769a4cf0ece8f8030935729053c2386ae0df6a74b",
    }

    def test_sweep_csv_bytes(self, tmp_path):
        dataset = random_tripartite(
            np.random.default_rng(11), m=60, n=80, r=30,
            obj_density=0.1, tag_density=0.1,
        )
        save_dataset(dataset, tmp_path)
        rc = main(
            ["sweep", "--out", str(tmp_path), "--similarity", "diffusion,cosine,jaccard",
             "--runs", "2", "--seed", "4", "--L", "5,10"]
        )
        assert rc == 0
        for kind, digest in self.EXPECTED.items():
            csv = (tmp_path / f"sweep_{kind}.csv").read_bytes()
            assert len(csv.splitlines()) == 1 + 51 * 2
            assert hashlib.sha256(csv).hexdigest() == digest
