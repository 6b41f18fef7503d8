import contextlib
import hashlib
import itertools
import math
import os
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridiff import evaluation, recommend
from tridiff.cli import main
from tridiff.core import EntityIndexMap, build_graph
from tridiff.evaluation import (
    ExperimentConfig,
    UndefinedMetricError,
    evaluate_split,
    lambda_grid,
    run_sweep,
)
from tridiff.ingest import EvaluationSplit, split
from tridiff.recommend import COLLECTED, LambdaGrid, Scorer
from tridiff.snapshot import save_dataset

from conftest import held_out, make_dataset, random_tripartite, stats_of_one


def rank_third_setup(n=101, test_pairs=((0, 3),)):
    """Target u0 with n - 1 uncollected objects; objects 1, 2 and 3 are
    scored uniquely first, second and third, and 3 is held out."""
    uo = [(0, 0)]
    uo += [(1, 0), (1, 1), (1, 2), (1, 3)]
    uo += [(2, 0), (2, 1), (2, 2)]
    uo += [(3, 0), (3, 1)]
    ds = make_dataset(uo, [(u, 0) for u in range(4)], 4, n, 1)
    return ds, held_out(ds, test_pairs)


def object_channel_cell(split, L=()):
    """Metrics of the split at lambda = 1 (object channel only), by name."""
    row = evaluate_split(split, "diffusion", (1.0,), L)[0]
    return dict(zip(evaluation.metric_names(L), row.tolist()))


class TestRankOfTestPairs:
    def test_third_of_hundred(self):
        _, split = rank_third_setup()
        assert object_channel_cell(split)["rank_score"] == 0.03

    def test_unique_top_of_ten(self):
        uo = [(0, 0), (1, 0), (1, 1)]
        ds = make_dataset(uo, [(0, 0), (1, 0)], 2, 11, 1)
        split = held_out(ds, [(0, 1)])
        assert object_channel_cell(split)["rank_score"] == 0.1

    def test_zero_score_block_midrank(self):
        # target has no training edges at all: every uncollected object ties
        # at score zero and gets the midrank 5.5 of 10
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = held_out(ds, [(0, 4)])
        assert object_channel_cell(split)["rank_score"] == 0.55

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
        ranks, _ = stats_of_one(engine, p, p, 0, [target_idx], (1.0,), ())
        assert ranks[0, 0] == pytest.approx(expected_midrank / len(scores), abs=1e-15)

    def test_monotone_in_score(self):
        # raising the test object's score above one more competitor lowers r
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 5, 1)
        engine = Scorer(ds, "diffusion")
        lo_p = np.array([0.9, 0.5, 0.3, 0.0, 0.0])
        hi_p = np.array([0.9, 0.5, 0.7, 0.0, 0.0])
        lo, _ = stats_of_one(engine, lo_p, lo_p, 0, [2], (1.0,), ())
        hi, _ = stats_of_one(engine, hi_p, hi_p, 0, [2], (1.0,), ())
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


def masked(p, collected):
    """A copy of the score row p holding COLLECTED at the collected objects,
    as channel_scores returns it."""
    p = p.copy()
    p[collected] = COLLECTED
    return p


SCORE = st.one_of(st.sampled_from(SCORE_POOL), st.floats(0.0, 3.0))
LAMBDA = st.one_of(st.sampled_from(LAMBDA_POOL), st.floats(0.0, 1.0))


def draw_user(draw, n):
    """One user's two channel score vectors over n objects at a drawn scale,
    its collected objects and 1-4 of its uncollected objects held out."""
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300)))
    p_obj = np.array(draw(st.lists(SCORE, min_size=n, max_size=n))) * scale
    p_tag = np.array(draw(st.lists(SCORE, min_size=n, max_size=n))) * scale
    collected = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    free = [b for b in range(n) if b not in collected]
    test_objects = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    return p_obj, p_tag, sorted(collected), test_objects


@st.composite
def sweep_cases(draw):
    """A target's two channel score vectors, its collected objects, its test
    objects and a lambda grid (unsorted, with duplicates)."""
    user = draw_user(draw, draw(st.integers(2, 24)))
    return (*user, draw(st.lists(LAMBDA, min_size=1, max_size=16)))


@st.composite
def block_cases(draw):
    """1-4 users over the same objects, each drawn as in sweep_cases with
    its own scale, collected and test objects, and one lambda grid."""
    n = draw(st.integers(2, 24))
    users = [draw_user(draw, n) for _ in range(draw(st.integers(1, 4)))]
    return users, draw(st.lists(LAMBDA, min_size=1, max_size=16))


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
                ranks, hits = stats_of_one(
                    scorer, masked(p_obj, collected), masked(p_tag, collected), 0,
                    test_objects, lambdas, (1, 2, 5),
                )
            assert np.array_equal(ranks, expected[0])
            assert np.array_equal(hits, expected[1])

    @settings(max_examples=300, deadline=None)
    @given(block_cases())
    def test_block_matches_brute_force_per_user(self, case):
        # rows share object indices but not scales, collected or test objects
        users, lambdas = case
        n, b = len(users[0][0]), len(users)
        uo = [(i, x) for i, (_, _, collected, _) in enumerate(users) for x in collected]
        ds = make_dataset(uo + [(b, 0)], [(i, 0) for i in range(b + 1)], b + 1, n, 1)
        scorer = Scorer(ds, "diffusion")
        p_obj = np.array([masked(o, collected) for o, _, collected, _ in users])
        p_tag = np.array([masked(t, collected) for _, t, collected, _ in users])
        pairs = [(i, x) for i, (*_, tests) in enumerate(users) for x in tests]
        test = build_graph(pairs, b + 1, n)
        first = np.cumsum([0] + [len(tests) for *_, tests in users])
        # the path is chosen when the grid is prepared: crossing, then direct
        for threshold in (1, len(lambdas) + 1):
            with mock.patch.object(recommend, "MIN_CROSSING_POINTS", threshold):
                grid = LambdaGrid(lambdas, (1, 2, 5))
            assert grid.crossing == (threshold == 1 and any(0.0 < lam < 1.0 for lam in lambdas))
            ranks, listed = scorer.block_stats(p_obj, p_tag, range(b), test, grid)
            for i, (o, t, collected, tests) in enumerate(users):
                expected = brute_sweep_stats(o, t, collected, sorted(tests), lambdas, (1, 2, 5))
                assert np.array_equal(ranks[first[i] : first[i + 1]], expected[0])
                assert np.array_equal(listed[first[i] : first[i + 1]].sum(axis=0), expected[1])

    @pytest.mark.parametrize("lambdas", [lambda_grid(0.0, 1.0, 0.02), (0.5,)])
    def test_leaves_its_inputs_unchanged(self, lambdas):
        # a crossing grid and a one-lambda grid, on a block of real channel scores
        dataset = random_tripartite(
            np.random.default_rng(7), m=40, n=60, r=20, obj_density=0.1, tag_density=0.1
        )
        evaluation_split = split(dataset, 0.8, 1)
        scorer = Scorer(evaluation_split.training, "diffusion")
        test = evaluation_split.test
        block = np.flatnonzero(test.left_degrees)
        grid = LambdaGrid(lambdas, (5,))
        assert grid.crossing == (len(lambdas) > 1)
        p_obj, p_tag = scorer.channel_scores(block)
        before = p_obj.tobytes(), p_tag.tobytes()
        scorer.block_stats(p_obj, p_tag, block, test, grid)
        assert (p_obj.tobytes(), p_tag.tobytes()) == before

    def test_rejects_lambda_outside_unit_interval(self):
        for lam in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"lambda {lam} is outside")):
                LambdaGrid((0.5, lam), (1,))


class TestRankingScore:
    def test_single_pair(self):
        _, split = rank_third_setup()
        assert object_channel_cell(split)["rank_score"] == 0.03

    def test_mean(self):
        # ranks 0.1 (object 1) and 0.3 (object 3) among 10 uncollected
        _, split = rank_third_setup(n=11, test_pairs=((0, 1), (0, 3)))
        assert object_channel_cell(split)["rank_score"] == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize(
        "test_pairs", [((0, 3), (0, 1)), ((0, 3), (0, 1), (0, 3))], ids=["reordered", "repeated"]
    )
    def test_row_order_and_repeats_ignored(self, test_pairs):
        # the test graph holds each distinct pair once, in (user, object) order
        _, expected = rank_third_setup(n=11, test_pairs=((0, 1), (0, 3)))
        _, split = rank_third_setup(n=11, test_pairs=test_pairs)
        assert object_channel_cell(split) == object_channel_cell(expected)

    def test_empty_raises(self):
        _, split = rank_third_setup(test_pairs=())
        with pytest.raises(UndefinedMetricError):
            object_channel_cell(split)


class TestRecallPrecision:
    def test_perfect_recall(self):
        _, split = rank_third_setup()
        cell = object_channel_cell(split, L=(10,))
        r, p = cell["recall@10"], cell["precision@10"]
        assert r == 1.0
        assert p == 1.0 / (4 * 10)

    def test_no_hits(self):
        ds, _ = rank_third_setup()
        split = held_out(ds, [(0, 50)])
        cell = object_channel_cell(split, L=(10,))
        r, p = cell["recall@10"], cell["precision@10"]
        assert r == 0.0 and p == 0.0

    def test_zero_score_object_never_hit(self):
        # the held-out object ties at zero: even L > n must not count it
        ds = make_dataset([(1, 0)], [(1, 0)], 2, 10, 1)
        split = held_out(ds, [(0, 4)])
        r = object_channel_cell(split, L=(10,))["recall@10"]
        assert r == 0.0

    def test_empty_test_set_raises(self):
        ds, _ = rank_third_setup()
        split = held_out(ds, np.empty((0, 2), np.int64))
        with pytest.raises(UndefinedMetricError):
            object_channel_cell(split, L=(10,))


class TestConfig:
    def test_default_grid(self):
        grid = lambda_grid(0.0, 1.0, 0.02)
        assert len(grid) == 51
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[37] == pytest.approx(0.74, abs=1e-12)

    @pytest.mark.parametrize("step", [0.02, 0.05, 0.1, 0.25, 0.5, 0.3333333333])
    def test_grid_reaches_hi(self, step):
        grid = lambda_grid(0.0, 1.0, step)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize(
        "lo, hi, step, message",
        [
            (0.0, 1.0, 0.3, "lambda step 0.3 from 0.0 ends at 0.8999999999999999, not 1.0"),
            (0.0, 1.0, 0.7, "lambda step 0.7 from 0.0 ends at 0.7, not 1.0"),
            (0.0, 1.0, 0.6, "lambda step 0.6 from 0.0 ends at 1.2, not 1.0"),
            (0.0, 1.0, math.inf, "finite lo <= hi and finite step > 0, got step inf"),
            (0.0, 1.0, math.nan, "finite lo <= hi and finite step > 0, got step nan"),
            (0.0, 1.0, 0.0, "finite lo <= hi and finite step > 0, got step 0.0"),
            (0.0, math.inf, 0.1, "finite lo <= hi and finite step > 0, got step 0.1"),
            (1.0, 0.0, 0.1, "finite lo <= hi and finite step > 0, got step 0.1"),
            (0.0, 1.0, 1e-12, "lambda step 1e-12 makes 1000000000001 points, over 10001"),
            (0.0, 1e-10, 1e-11, "lambda step 1e-11 repeats points rounded to 10 places"),
        ],
        ids=["short", "one-step", "overshoot", "inf-step", "nan-step", "zero-step",
             "inf-bound", "reversed", "too-many", "repeats"],
    )
    def test_refused_grid_names_step(self, lo, hi, step, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lambda_grid(lo, hi, step)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"similarity_kinds": ("pearson",)},
            {"runs": 0},
            {"lambda_grid": (0.5, 0.2)},
            {"lambda_grid": (0.5, 0.5)},
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
            {"list_lengths": ()},
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
        assert report.cells.shape == (2, 3, 5)  # runs x lambdas x metrics
        assert report.means.shape == (3, 5)
        assert (0.0 < report.cells[..., 0]).all() and (report.cells[..., 0] <= 1.0).all()
        assert (0.0 <= report.cells[..., 1:]).all() and (report.cells[..., 1:] <= 1.0).all()

    def test_identity_p_m_l_equals_r_np(self, dataset):
        report = self.report(dataset)
        m = dataset.user_object.left_count
        e = dataset.user_object.edge_count
        n_p = e - round(0.9 * e)
        for cell in report.cells.reshape(-1, 5).tolist():
            for k, L in enumerate((5, 10), start=1):
                recall, precision = cell[k], cell[k + 2]
                # both metrics are the shared integer numerator over their
                # own denominators, so the identity holds as rationals
                hits = round(recall * n_p)
                assert recall * n_p == pytest.approx(hits, abs=1e-9)  # integral
                assert recall == hits / n_p
                assert precision == hits / (m * L)
                assert precision * m * L == pytest.approx(recall * n_p, rel=1e-12)

    def test_np_matches_rounding_rule(self, dataset):
        e = dataset.user_object.edge_count
        for seed in (7, 8):  # the two runs of self.cfg()
            pairs = split(dataset, 0.9, seed).test.edge_array()
            assert len(pairs) == e - round(0.9 * e)

    def test_determinism(self, dataset):
        r1 = self.report(dataset)
        r2 = self.report(dataset)
        assert np.array_equal(r1.cells, r2.cells)
        assert np.array_equal(r1.means, r2.means)
        assert r1.optima == r2.optima

    def test_single_cell_tag_free(self, dataset):
        report = self.report(dataset, lambda_grid=(1.0,), runs=1)
        assert report.cells.shape == (1, 1, 5)
        assert report.optima["rank_score"][0] == 1.0

    def test_holding_out_nothing_raises(self, dataset):
        # the held-out count does not depend on the seed, so no run could
        # be scored: the sweep is refused before its first split
        with mock.patch("tridiff.evaluation.split", side_effect=AssertionError("split")):
            with pytest.raises(UndefinedMetricError, match="holds out none"):
                self.report(dataset, train_fraction=1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=14),
        st.floats(0.0, 1.0, exclude_min=True) | st.integers(1, 24).map(lambda k: k / 24),
        st.integers(0, 3),
    )
    def test_refused_exactly_when_split_holds_out_nothing(self, m, n, pairs, fraction, seed):
        # run_sweep's precheck and split both hold out
        # edges - round(train_fraction * edges) user-object edges
        pairs = [(u % m, o % n) for u, o in pairs]
        dataset = make_dataset(pairs, [(u, 0) for u in range(m)], m, n, 1)
        config = self.cfg(lambda_grid=(0.5,), runs=1, train_fraction=fraction, base_seed=seed)
        holds_out_none = split(dataset, fraction, seed).test.edge_count == 0
        try:
            run_sweep(dataset, config)
            refused = False
        except UndefinedMetricError:
            refused = True
        assert refused == holds_out_none

    def test_empty_dataset_rejected(self):
        empty = make_dataset([], [], 0, 0, 0)
        with pytest.raises(ValueError):
            run_sweep(empty, self.cfg())

    def test_means_average_runs(self, dataset):
        # equal to np.mean of each column, bit for bit: the report CSVs print
        # every mean at 17 digits
        for runs in (2, 9):
            report = self.report(dataset, runs=runs)
            for g in range(3):
                for k in range(5):
                    expect = np.mean(report.cells[:, g, k].tolist())
                    assert report.means[g, k] == expect

    def test_optima_select_extremes(self, dataset):
        report = self.report(dataset)
        grid = report.config.lambda_grid
        lam, value = report.optima["rank_score"]
        assert value == report.means[:, 0].min()
        assert report.means[grid.index(lam), 0] == value
        lam, value = report.optima["recall@5"]
        assert value == report.means[:, 1].max()

    def test_optima_ties_go_to_smaller_lambda(self):
        cells = np.zeros((2, 3, 5))
        cells[:, 1:, 0] = 0.25  # rank score lowest at lambda 0.0 alone
        cells[:, 1:, 1] = 0.5  # recall@5 highest at 0.5 and 1.0
        report = evaluation.MetricsReport(self.cfg(), cells)
        assert report.optima["rank_score"] == (0.0, 0.0)
        assert report.optima["recall@5"] == (0.5, 0.5)
        assert report.optima["precision@10"] == (0.0, 0.0)

    def test_cosine_and_jaccard_kinds_run(self, dataset):
        reports = run_sweep(dataset, self.cfg(similarity_kinds=("cosine", "jaccard"), runs=1))
        assert list(reports) == ["cosine", "jaccard"]
        for report in reports.values():
            ranks = report.cells[..., 0]
            assert (0.0 < ranks).all() and (ranks <= 1.0).all()

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

    def test_nothing_sized_by_runs_before_the_first_split(self, dataset):
        # a run count no array could hold reaches the first split untouched
        class FirstSplit(Exception):
            pass

        def refused(*args):
            raise FirstSplit

        with mock.patch("tridiff.evaluation.split", refused), pytest.raises(FirstSplit):
            run_sweep(dataset, self.cfg(runs=10**30))

    def test_each_kind_as_if_swept_alone(self, dataset):
        kinds = ("jaccard", "diffusion", "cosine")
        together = run_sweep(dataset, self.cfg(similarity_kinds=kinds))
        assert list(together) == list(kinds)
        for kind in kinds:
            alone = run_sweep(dataset, self.cfg(similarity_kinds=(kind,)))[kind]
            assert np.array_equal(together[kind].cells, alone.cells)
            assert np.array_equal(together[kind].means, alone.means)
            assert together[kind].optima == alone.optima
        # a split that holds out nothing is refused alike, together or alone
        for chosen in (kinds, *((kind,) for kind in kinds)):
            with pytest.raises(UndefinedMetricError):
                run_sweep(dataset, self.cfg(similarity_kinds=chosen, train_fraction=1.0))


@contextlib.contextmanager
def forced_pool(cpus=3):
    """Every split is scored by a pool of up to `cpus` forked workers, whatever
    its size; yields a spy on the pool constructor. cpus=None leaves the
    affinity mask, or its absence, as it is."""
    affinity = (
        contextlib.nullcontext() if cpus is None
        else mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus)))
    )
    executor = evaluation.ProcessPoolExecutor
    with affinity, mock.patch.object(evaluation, "MIN_POOL_BLOCKS", 1), \
            mock.patch.object(evaluation, "ProcessPoolExecutor", wraps=executor) as pool:
        yield pool


def _pool_cases():
    """(kind, grid, BLOCK_USERS): the split's 28 test users make 7 full
    blocks of 4, or 10 blocks of 3 whose last one holds a single user."""
    grids = {"51": lambda_grid(0.0, 1.0, 0.02), "1": (0.5,)}
    return [
        pytest.param(kind, grid, block_users, id=f"{kind}-{gid}{suffix}")
        for block_users, suffix in ((4, ""), (3, "-partial"))
        for kind in ("diffusion", "cosine", "jaccard")
        for gid, grid in grids.items()
    ]


class TestWorkerPool:
    @pytest.fixture
    def evaluation_split(self, dataset):
        return split(dataset, 0.9, 3)

    @pytest.mark.parametrize("kind, grid, block_users", _pool_cases())
    def test_cells_equal_inline(self, evaluation_split, kind, grid, block_users):
        # small blocks give each of the three workers more than one map chunk,
        # finished in any order; blocks of 3 leave a partial last block
        n_users = np.count_nonzero(evaluation_split.test.left_degrees)
        assert n_users == 28
        assert (n_users % block_users != 0) == (block_users == 3)
        with mock.patch.object(evaluation, "BLOCK_USERS", block_users):
            inline = evaluate_split(evaluation_split, kind, grid, (5, 10))
            with forced_pool() as pool:
                pooled = evaluate_split(evaluation_split, kind, grid, (5, 10))
        assert pool.call_count == 1
        assert np.array_equal(pooled, inline)

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    @pytest.mark.parametrize("block_users", [4, 3])
    @pytest.mark.parametrize("grid", [lambda_grid(0.0, 1.0, 0.02), (0.5,)], ids=["51", "1"])
    def test_reduction_order(self, dataset, grid, block_users, pooled):
        # the rank column is each user's block_stats ranks added left to
        # right, then the user totals added left to right, in Python floats;
        # the hits are the sums of the list flags. This split's 47 test users
        # hold up to 6 pairs each, and it makes 12 blocks of 4 or 16 of 3, the
        # last one partial; on it both np.add.reduceat per user and one flat
        # sum over the pairs move the rank column at both grids
        evaluation_split = split(dataset, 0.7, 1)
        L, test = (5, 10), evaluation_split.test
        assert np.count_nonzero(test.left_degrees) == 47
        scorer = Scorer(evaluation_split.training, "diffusion")
        users = np.flatnonzero(test.left_degrees)
        rank_sums, hits = [0.0] * len(grid), 0
        for start in range(0, len(users), block_users):
            block = users[start : start + block_users]
            p_obj, p_tag = scorer.channel_scores(block)
            ranks, listed = scorer.block_stats(p_obj, p_tag, block, test, LambdaGrid(grid, L))
            rows, _ = test.block_edges(block)
            for i in range(len(block)):
                total = [0.0] * len(grid)
                for row in ranks[rows == i].tolist():
                    total = [a + b for a, b in zip(total, row)]
                rank_sums = [a + b for a, b in zip(rank_sums, total)]
            hits += listed.sum(axis=0)
        with mock.patch.object(evaluation, "BLOCK_USERS", block_users):
            with forced_pool() if pooled else contextlib.nullcontext():
                cells = evaluate_split(evaluation_split, "diffusion", grid, L)
        n_p = test.edge_count
        assert cells[:, 0].tobytes() == np.array([r / n_p for r in rank_sums]).tobytes()
        assert cells[:, 1:3].tobytes() == (hits / n_p).tobytes()

    def test_worker_exception_reaches_caller(self, evaluation_split):
        boom = RuntimeError("boom in a worker")
        with forced_pool() as pool, mock.patch.object(Scorer, "block_stats", side_effect=boom):
            with pytest.raises(RuntimeError, match="boom in a worker"):
                evaluate_split(evaluation_split, "diffusion", (0.5,), (5,))
        assert pool.call_count == 1

    def test_bad_lambda_refused_before_fork(self, evaluation_split):
        for lam in (-0.1, 1.1, float("nan")):
            with forced_pool() as pool:
                with pytest.raises(ValueError, match=re.escape(f"lambda {lam} is outside")):
                    evaluate_split(evaluation_split, "diffusion", (0.5, lam), (5,))
            pool.assert_not_called()

    def test_one_cpu_starts_no_pool(self, evaluation_split):
        inline = evaluate_split(evaluation_split, "diffusion", (0.5,), (5,))
        with forced_pool(cpus=1) as pool:
            pooled = evaluate_split(evaluation_split, "diffusion", (0.5,), (5,))
        assert np.array_equal(pooled, inline)
        pool.assert_not_called()

    def test_no_affinity_mask_starts_no_pool(self, evaluation_split, monkeypatch):
        # as on macOS, whose os module has no sched_getaffinity
        inline = evaluate_split(evaluation_split, "diffusion", (0.5,), (5,))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert evaluation._usable_cpus() == 1
        with forced_pool(cpus=None) as pool:
            pooled = evaluate_split(evaluation_split, "diffusion", (0.5,), (5,))
        assert np.array_equal(pooled, inline)
        pool.assert_not_called()


def renumbered(evaluation_split, objects=None, tags=None):
    """The split with object x renamed objects[x] and tag t renamed
    tags[t], in the training and the test graphs alike; None keeps them."""
    training = evaluation_split.training

    def graph(g, perm):
        if perm is None:
            return g
        left, right = g.edge_array().T
        return build_graph(np.column_stack((left, perm[right])), g.left_count, g.right_count)

    def index(ids, perm):
        if perm is None:
            return ids
        moved = np.empty_like(ids.ids)
        moved[perm] = ids.ids
        return EntityIndexMap(moved)

    dataset = replace(
        training,
        objects=index(training.objects, objects), tags=index(training.tags, tags),
        user_object=graph(training.user_object, objects), user_tag=graph(training.user_tag, tags),
    )
    return EvaluationSplit(dataset, graph(evaluation_split.test, objects))


class TestLabelInvariance:
    """Relations that hold exactly by construction. Cosine and jaccard count
    overlaps in integers, and a channel score sums over users in user order,
    so renaming objects or tags changes no float. Not checked here:
    diffusion, whose weights sum over a user's objects or tags in index
    order, and renamed users, which reorder every channel score's sum; both
    can split a tie on larger data."""

    GRIDS = {"51": lambda_grid(0.0, 1.0, 0.02), "1": (0.5,)}

    @pytest.fixture
    def evaluation_split(self, dataset):
        return split(dataset, 0.9, 3)

    @staticmethod
    def pair_ranks(evaluation_split, kind, grid):
        """Every test pair's ranks, in edge order, and its (user, object) key."""
        test = evaluation_split.test
        scorer = Scorer(evaluation_split.training, kind)
        ranks, _ = evaluation._scored_pairs(scorer, test, LambdaGrid(grid, (5,)))
        users, objects = test.edge_array().T
        return ranks, users * test.right_count + objects

    @staticmethod
    def top_l_scores(evaluation_split, kind, grid, L=5):
        """The score sequence of each test user's top-L list at every lambda."""
        scorer = Scorer(evaluation_split.training, kind)
        users = np.flatnonzero(evaluation_split.test.left_degrees)
        p_obj, p_tag = scorer.channel_scores(users)
        return [
            [score for _, score in scorer.top_l(scorer.combine(o, t, lam), L)]
            for o, t in zip(p_obj, p_tag)
            for lam in grid
        ]

    @pytest.mark.parametrize("kind", ["cosine", "jaccard"])
    @pytest.mark.parametrize("gid", list(GRIDS))
    def test_renumbered_objects(self, evaluation_split, kind, gid, pooled=False):
        grid = self.GRIDS[gid]
        n = evaluation_split.test.right_count
        perm = np.random.default_rng(17).permutation(n)
        moved = renumbered(evaluation_split, objects=perm)
        with forced_pool() if pooled else contextlib.nullcontext() as pool:
            ranks, keys = self.pair_ranks(evaluation_split, kind, grid)
            moved_ranks, moved_keys = self.pair_ranks(moved, kind, grid)
        assert pool is None or pool.call_count == 2
        # pair (u, x) is pair (u, perm[x]) of the renumbered split
        users, objects = np.divmod(keys, n)
        at = np.searchsorted(moved_keys, users * n + perm[objects])
        assert np.array_equal(moved_keys[at], users * n + perm[objects])
        assert moved_ranks[at].tobytes() == ranks.tobytes()
        assert self.top_l_scores(moved, kind, grid) == self.top_l_scores(evaluation_split, kind, grid)

    def test_renumbered_objects_pooled(self, evaluation_split):
        with mock.patch.object(evaluation, "BLOCK_USERS", 4):
            self.test_renumbered_objects(evaluation_split, "cosine", "51", pooled=True)

    @pytest.mark.parametrize("kind", ["cosine", "jaccard"])
    @pytest.mark.parametrize("gid", list(GRIDS))
    def test_renumbered_tags(self, evaluation_split, kind, gid):
        grid = self.GRIDS[gid]
        perm = np.random.default_rng(19).permutation(evaluation_split.training.tags.ids.size)
        moved = renumbered(evaluation_split, tags=perm)
        cells = evaluate_split(evaluation_split, kind, grid, (5, 10))
        assert evaluate_split(moved, kind, grid, (5, 10)).tobytes() == cells.tobytes()


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

    # sha256 of every report file of a sweep of the same fixture, at 2 runs
    # of the 51-point grid and at 9 runs of an 11-point one: a mean or an
    # optimum that moved in its last bits shows here. The last two grids, at
    # 2 runs, are short enough to compare fused scores at every lambda: one
    # lambda, and 5 points of which 3 lie inside (0, 1)
    REPORTS = {
        ("2", "--lambda-step", "0.02"): {
            "sweep_diffusion.csv": "b979427d64819706cf4d888256f09b64c738a5956d34cbf805b60a717d37cf45",
            "sweep_cosine.csv": "bf1094cee0a9347ac6e8c71c99ff7dedc27536843a8ee4e25341d54eb83f2fc3",
            "sweep_jaccard.csv": "f05d1f03ab1042a33c98e8b769a4cf0ece8f8030935729053c2386ae0df6a74b",
            "summary_diffusion.csv": "5353e59656b5a2b035da80a73a91aa6bf44aa9d4e916412e55b816c9265d7f07",
            "summary_cosine.csv": "0edabe249e77fffcc52ea265bbb727c375f15b993a4a9c8e38984aa33b6f5634",
            "summary_jaccard.csv": "e65c7a71606bd5d5f2262e861c26877282b1ec563c55a2df8f6675973e8eac01",
            "optima_diffusion.csv": "5ab4c0a4d1dd4fa24baa28b701aea52841be507aa92b0a3a472e8a9a049884fb",
            "optima_cosine.csv": "7ac650b3784c021dbc1675d78a4636de604110cdf3e9f539ea91c09a1d348471",
            "optima_jaccard.csv": "c17007ddf35c0050834fac249391160ede2e62897daf2f6ea70b4ea28374214f",
        },
        ("9", "--lambda-step", "0.1"): {
            "sweep_diffusion.csv": "1de53bdaefb54a8342a00d1fe6d1b3cbf44b79c870663b83add848046984ee94",
            "sweep_cosine.csv": "0b9d69c0c5ee7251d7d05554951721bd6570e660a0a7371335c7d2c5be52718a",
            "sweep_jaccard.csv": "a7f2f6b0fce750aaecf686b8b2fe23197c47f74cd6a5fee4f42c5c2df179dcf4",
            "summary_diffusion.csv": "4d7ce11da295b31c1870d9143422545e3b810bb9383a064c0534c8881ca723a9",
            "summary_cosine.csv": "857c487d927832f37715b859eb621657284387d2cb626dd4ca951c86190678aa",
            "summary_jaccard.csv": "a0a9fa138f2c84dd4d3eefdc2d8c77b220425a6e7d0a16e736e2c0b970ed501d",
            "optima_diffusion.csv": "c034614598ea077c6eb2de86e4e6e34dc55b1dd5b19c163f3ca2804fac07eaa6",
            "optima_cosine.csv": "e1f2f8a1ca2bf144000cddc8b30137ffc3640d832737ebc2deef3b6aa16fa6b2",
            "optima_jaccard.csv": "e1007e13c552a4d838e0a27959db7a7f77004f1e2dc2cd9ff3a48508b07fd01c",
        },
        ("2", "--lambda", "0.5"): {
            "sweep_diffusion.csv": "1db73e68b86546106d02e7da4caac6a995f21db0d031f0a00147da866a50e158",
            "sweep_cosine.csv": "640a2b9ec285f2f564dc8e167fc8045318ac1813161ec1c204bb23c13846e690",
            "sweep_jaccard.csv": "c590fc790cbbf0c1eb8a7be05a51e7a18fd5346e727c529f3243f47f09acf7d6",
            "summary_diffusion.csv": "1266fd8b2f55c6637087b385d85e3000d44c5df7944f17535147d61a3486a072",
            "summary_cosine.csv": "fa5bdfd546daae29b36d9818b190a5636f4099462290100d4f5be3bff22cb4cc",
            "summary_jaccard.csv": "1eb7340f6833e14b635da2b69551633295ec5113905d46920733c47a961a341f",
            "optima_diffusion.csv": "c6d79492f8149bf1eb0840d9c7ef807af74a9907b4445a00e229fc81da158c3d",
            "optima_cosine.csv": "8110d3b2bca421790c042eb906ca96999c3640ae6726dddfde0c07d2af6364d1",
            "optima_jaccard.csv": "bed81fe749fc485bbac4665dfd7bd40bb62625ed470d76d4718daacf52f2a44b",
        },
        ("2", "--lambda-step", "0.25"): {
            "sweep_diffusion.csv": "8f5548f504cde1024b5584f9173352229e77f9b41ba9fac95eca2b9c6755bdd8",
            "sweep_cosine.csv": "6fdb5aeb2a47017d8d57544fb75eac90ba00504fd399c6eed6463697d0e0828f",
            "sweep_jaccard.csv": "81652b2877593dc37f8f03f8782b5c2d8a2929a0a282f4b05d26af3fc5cea751",
            "summary_diffusion.csv": "3dc437fcb884eb81a45f328a514fb81d58bedf132b0576b628b3375993257d8b",
            "summary_cosine.csv": "1d7e4085b1a2be72cebd2521e94aefe246a298b22ae264093f53c1ec559d3d57",
            "summary_jaccard.csv": "11778c76bab39cab9f33713d05ebf3c91ed7572e20156936ec7a4bb4a1e09f4a",
            "optima_diffusion.csv": "5ab4c0a4d1dd4fa24baa28b701aea52841be507aa92b0a3a472e8a9a049884fb",
            "optima_cosine.csv": "7ac650b3784c021dbc1675d78a4636de604110cdf3e9f539ea91c09a1d348471",
            "optima_jaccard.csv": "d0c63365519794e25512890e9df8a4d95bb9732e63e95600bdd424cfad7ecdc1",
        },
    }

    @pytest.mark.parametrize(
        "case", list(REPORTS), ids=["2-runs", "9-runs", "direct-1-lambda", "direct-3-interior"]
    )
    def test_report_bytes(self, tmp_path, case):
        runs, *grid = case
        dataset = random_tripartite(
            np.random.default_rng(11), m=60, n=80, r=30,
            obj_density=0.1, tag_density=0.1,
        )
        save_dataset(dataset, tmp_path)
        rc = main(
            ["sweep", "--out", str(tmp_path), "--similarity", "diffusion,cosine,jaccard",
             "--runs", runs, "--seed", "4", "--L", "5,10", *grid]
        )
        assert rc == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.REPORTS[case]
        }
        assert digests == self.REPORTS[case]

    # sha256 of the stdout of `recommend` for every user of the same fixture,
    # for each kind and lambda in {0, 0.5, 1}, in that loop order
    RECOMMEND = "70c0e1def6d24310943b3ef9dad956004d1a3b033c2e4f89563ccf9f2e8e8c75"

    def test_recommend_stdout_bytes(self, tmp_path, capsys):
        dataset = random_tripartite(
            np.random.default_rng(11), m=60, n=80, r=30,
            obj_density=0.1, tag_density=0.1,
        )
        save_dataset(dataset, tmp_path)
        digest = hashlib.sha256()
        for kind in ("diffusion", "cosine", "jaccard"):
            for lam in ("0", "0.5", "1"):
                for user in dataset.users.ids.tolist():
                    rc = main(["recommend", "--out", str(tmp_path), "--user", user,
                               "--similarity", kind, "--lambda", lam])
                    assert rc == 0
                    digest.update(capsys.readouterr().out.encode("utf-8"))
        assert digest.hexdigest() == self.RECOMMEND

    def test_sweep_csv_bytes_from_worker_pool(self, tmp_path):
        with forced_pool() as pool:
            self.test_sweep_csv_bytes(tmp_path)
        assert pool.call_count == 3 * 2  # a pool per kind and run
