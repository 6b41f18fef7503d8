"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The two dataset-dependent criteria need a tagged MovieLens-family dump and
are skipped unless TRIDIFF_MOVIELENS_OBJECTS / TRIDIFF_MOVIELENS_TAGS point
at the raw event files (set TRIDIFF_MOVIELENS_EXACT=1 if the files are the
original 3710/5724/5228 snapshot).
"""

import math
import os
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from tridiff.cli import main as cli_main
from tridiff.evaluation import ExperimentConfig, lambda_grid, run_sweep
from tridiff.ingest import core_filter, parse
from tridiff.similarity import similarity_matrix
from tridiff.snapshot import save_dataset

from conftest import (
    brute_diffusion_matrix,
    random_graph,
    random_tripartite,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}", file=sys.stderr)
        raise
    print(f"[PASS] {name}", file=sys.stderr)


def test_conservation_suite():
    with criterion("conservation: 1000 random graphs, rows sum to 1 within 1e-12"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g = random_graph(rng, max_left=200, max_right=200)
            rows = similarity_matrix(g, np.arange(g.left_count), "diffusion")
            for v in range(g.left_count):
                if g.left_degrees[v] >= 1:
                    assert abs(rows[v].sum() - 1.0) < 1e-12


def test_brute_force_oracle():
    with criterion("oracle: 200 graphs <= 50x50 match dense product / set arithmetic"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g = random_graph(rng, max_left=50, max_right=50)
            S = brute_diffusion_matrix(g)
            neigh = [
                set(g.indices[g.indptr[u] : g.indptr[u + 1]].tolist()) for u in range(g.left_count)
            ]
            users = np.arange(g.left_count)
            rows_d, rows_c, rows_j = (
                similarity_matrix(g, users, kind) for kind in ("diffusion", "cosine", "jaccard")
            )
            for v in range(g.left_count):
                np.testing.assert_allclose(rows_d[v], S[:, v], rtol=0, atol=1e-12)
                cos = rows_c[v]
                jac = rows_j[v]
                for u in range(g.left_count):
                    inter = len(neigh[u] & neigh[v])
                    if inter == 0:
                        assert cos[u] == 0.0 and jac[u] == 0.0
                    else:
                        assert cos[u] == inter / math.sqrt(
                            len(neigh[u]) * len(neigh[v])
                        )
                        assert jac[u] == inter / len(neigh[u] | neigh[v])


def test_detailed_balance():
    with criterion("detailed balance: k(v) s_uv = k(u) s_vu within 1e-12"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g = random_graph(rng, max_left=50, max_right=50)
            deg = g.left_degrees
            rows = similarity_matrix(g, np.arange(g.left_count), "diffusion")
            # rows[v, u] = s_uv; detailed balance as a matrix identity
            scaled = rows * deg[:, None]
            assert np.abs(scaled - scaled.T).max() < 1e-12


def test_fixture_f1_values(f1_graph):
    with criterion("fixture F1: diffusion rows and asymmetry exact"):
        assert similarity_matrix(f1_graph, [0], "diffusion")[0].tolist() == [0.5, 0.25, 0.25]
        assert similarity_matrix(f1_graph, [1], "diffusion")[0].tolist() == [0.5, 0.5, 0.0]


def test_metric_identity_synthetic():
    with criterion("metric identity: P*m*L = R*N_p exactly on 500x800x300 run"):
        dataset = random_tripartite(
            np.random.default_rng(17), m=500, n=800, r=300,
            obj_density=0.01, tag_density=0.01,
        )
        config = ExperimentConfig(
            similarity_kinds=("diffusion",),
            lambda_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
            runs=2,
            train_fraction=0.9,
            list_lengths=(10, 20),
            base_seed=42,
        )
        report = run_sweep(dataset, config)["diffusion"]
        m = dataset.user_object.left_count
        e = dataset.user_object.edge_count
        n_p = e - round(0.9 * e)
        assert report.cells.shape == (2, 5, 5)  # runs x lambdas x metrics
        for cell in report.cells.reshape(-1, 5).tolist():
            assert 0.0 < cell[0] <= 1.0
            for k, L in enumerate((10, 20), start=1):
                recall, precision = cell[k], cell[k + 2]
                # both sides are the shared integer numerator over their own
                # denominator, so the identity is exact
                hits = round(recall * n_p)
                assert recall * n_p == pytest.approx(hits, abs=1e-9)  # integral
                assert recall == hits / n_p
                assert precision == hits / (m * L)


def test_ranks_example_third_of_hundred():
    with criterion("ranking example: unique third of 100 uncollected gives r = 0.03"):
        from tridiff.evaluation import evaluate_split
        from conftest import held_out, make_dataset

        uo = [(0, 0)]
        uo += [(1, 0), (1, 1), (1, 2), (1, 3)]
        uo += [(2, 0), (2, 1), (2, 2)]
        uo += [(3, 0), (3, 1)]
        ds = make_dataset(uo, [(u, 0) for u in range(4)], 4, 101, 1)
        split = held_out(ds, [(0, 3)])
        cells = evaluate_split(split, "diffusion", (1.0,), ())
        assert cells[0, 0] == 0.03  # lambda 1.0, rank score


def test_endpoint_equivalence():
    with criterion("endpoints: lambda=1 / lambda=0 cells bitwise equal across grids"):
        dataset = random_tripartite(
            np.random.default_rng(5), m=60, n=80, r=30,
            obj_density=0.08, tag_density=0.08,
        )

        def cfg(**kw):
            base = dict(
                similarity_kinds=("diffusion",), lambda_grid=(0.0, 0.5, 1.0),
                runs=2, train_fraction=0.9, list_lengths=(5, 10), base_seed=7,
            )
            base.update(kw)
            return ExperimentConfig(**base)

        fused = run_sweep(dataset, cfg())["diffusion"]
        fused_grid = fused.config.lambda_grid
        # the 21-point grid ranks through crossing points, the others directly
        for grid in (lambda_grid(0.0, 1.0, 0.05), (1.0,), (0.0,)):
            other = run_sweep(dataset, cfg(lambda_grid=grid))["diffusion"]
            for lam in {0.0, 1.0} & set(grid):
                for run in range(2):
                    assert np.array_equal(
                        other.cells[run, grid.index(lam)],
                        fused.cells[run, fused_grid.index(lam)],
                    )


def test_sweep_determinism(tmp_path):
    with criterion("determinism: two identical sweep invocations, byte-identical CSV"):
        dataset = random_tripartite(
            np.random.default_rng(31), m=40, n=60, r=20,
            obj_density=0.1, tag_density=0.1,
        )
        out = tmp_path / "snap"
        save_dataset(dataset, out)
        args = [
            "sweep", "--out", str(out), "--similarity", "diffusion",
            "--lambda-step", "0.25", "--runs", "3", "--seed", "11",
            "--L", "10,20",
        ]
        assert cli_main(args) == 0
        first = (out / "sweep_diffusion.csv").read_bytes()
        assert cli_main(args) == 0
        assert (out / "sweep_diffusion.csv").read_bytes() == first


def _movielens_dataset():
    obj_path = os.environ.get("TRIDIFF_MOVIELENS_OBJECTS")
    tag_path = os.environ.get("TRIDIFF_MOVIELENS_TAGS")
    if not (obj_path and tag_path and os.path.isfile(obj_path) and os.path.isfile(tag_path)):
        pytest.skip(
            "tagged MovieLens-family dataset not available "
            "(set TRIDIFF_MOVIELENS_OBJECTS / TRIDIFF_MOVIELENS_TAGS)"
        )
    with open(obj_path, encoding="utf-8") as ofh, open(tag_path, encoding="utf-8") as tfh:
        records = parse(ofh, tfh)
    dataset = core_filter(records)
    assert not dataset.is_empty
    return dataset


@pytest.mark.slow
def test_qualitative_reproduction_movielens():
    dataset = _movielens_dataset()
    with criterion(
        "qualitative: diffusion beats cosine on mean rank score; interior optimum"
    ):
        grid = tuple(round(i * 0.02, 10) for i in range(51))
        reports = run_sweep(
            dataset,
            ExperimentConfig(
                similarity_kinds=("diffusion", "cosine"), lambda_grid=grid, runs=5,
                train_fraction=0.9, list_lengths=(10, 20), base_seed=1,
            ),
        )
        d_lam, d_opt = reports["diffusion"].optima["rank_score"]
        c_lam, c_opt = reports["cosine"].optima["rank_score"]
        print(
            f"\nrank score optima: diffusion {d_opt:.5f} at lambda={d_lam}, "
            f"cosine {c_opt:.5f} at lambda={c_lam}",
            file=sys.stderr,
        )
        # (a) diffusion strictly better than cosine at their own optima
        assert d_opt < c_opt
        # (b) interior optimum with >= 1% improvement over the tag-free case
        tag_free = reports["diffusion"].means[grid.index(1.0), 0]  # rank score
        improvement = (tag_free - d_opt) / tag_free
        print(f"improvement over lambda=1: {improvement:.2%}", file=sys.stderr)
        assert 0.0 < d_lam < 1.0
        assert improvement >= 0.01


@pytest.mark.slow
def test_exact_snapshot_targets_movielens():
    if os.environ.get("TRIDIFF_MOVIELENS_EXACT") != "1":
        pytest.skip("exact 2006-era snapshot not available (set TRIDIFF_MOVIELENS_EXACT=1)")
    dataset = _movielens_dataset()
    with criterion("exact snapshot: rank score optimum 0.19943 +/- 0.005 near lambda 0.74"):
        assert (
            len(dataset.users),
            len(dataset.objects),
            len(dataset.tags),
        ) == (3710, 5724, 5228)
        grid = tuple(round(i * 0.02, 10) for i in range(51))
        report = run_sweep(
            dataset,
            ExperimentConfig(
                similarity_kinds=("diffusion",), lambda_grid=grid, runs=5,
                train_fraction=0.9, list_lengths=(10, 20), base_seed=1,
            ),
        )["diffusion"]
        lam, opt = report.optima["rank_score"]
        assert abs(opt - 0.19943) <= 0.005
        r_lam, r_opt = report.optima["recall@10"]
        assert abs(r_opt - 0.08469) <= 0.005
