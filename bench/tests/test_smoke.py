"""Tiny-scale smoke test of the benchmark: metric names and output checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import datagen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Span, attribute  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(run, "SCALE", datagen.TINY)


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    details, result = out.getvalue().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_emitted(workload, trace):
    details, result = bench(workload, trace)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert details["data"]["core_filter_passes"] > 1
    assert not details["trace_skipped"]


def test_perturbed_sweep_reference_fails(monkeypatch):
    real = oracle.sweep_rows

    def perturbed(*args, **kwargs):
        cells, pairs = real(*args, **kwargs)
        for row in cells.values():
            row[3] = repr(float(row[3]) * 1.01)  # ranking score
        return cells, pairs

    monkeypatch.setattr(oracle, "sweep_rows", perturbed)
    details, result = bench("recommend_mix", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert any("rank_score" in f for f in details["failures"])


def test_perturbed_recommend_reference_fails(monkeypatch):
    real = oracle.recommend_scores

    def perturbed(*args, **kwargs):
        scores = real(*args, **kwargs)
        best = int(scores.argmax())
        scores[best] *= 1.001
        return scores

    monkeypatch.setattr(oracle, "recommend_scores", perturbed)
    details, result = bench("recommend_mix", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert any("recommend" in f for f in details["failures"])


def test_perturbed_ingest_reference_fails(monkeypatch):
    real = oracle.Filtered.summary

    def perturbed(self):
        counts = real(self)
        counts["user_object_edges"] += 1
        return counts

    monkeypatch.setattr(oracle.Filtered, "summary", perturbed)
    details, result = bench("sweep_fine", 0)
    assert not result["correct"]
    assert any("ingest summary" in f for f in details["failures"])


def test_missing_program_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH_DIR / "no-such-checkout")
    assert run.main(["--workload", "sweep_fine", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_missing_trace_target_is_skipped(monkeypatch):
    monkeypatch.setitem(run.TARGETS, "similarity.no_such_function", None)
    details, result = bench("recommend_mix", 1)
    assert result["correct"]
    assert details["trace_skipped"] == ["similarity.no_such_function"]


def test_attribute_splits_wall_time_among_busy_workers():
    main, a, b = 1, 2, 3
    spans = [
        Span("cli.main", main, 0.0, 10.0),
        Span("evaluation.run_experiment", main, 1.0, 9.0),
        Span("similarity.similarity_vector", a, 2.0, 4.0),
        Span("similarity.similarity_vector", a, 5.0, 6.0),
        Span("similarity.similarity_vector", b, 2.0, 3.0),
    ]
    totals = attribute(spans, main, 0.0, 10.0, "cli.main")
    # worker a is busy from 2 to 6 and does run_experiment's own work from
    # 4 to 5; the main thread only counts while no worker is busy
    assert totals == pytest.approx({
        "cli.main": 2.0,
        "evaluation.run_experiment": 5.0,
        "similarity.similarity_vector": 3.0,
    })
