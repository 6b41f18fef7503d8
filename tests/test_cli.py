import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tridiff.cli import main
from tridiff.snapshot import SNAPSHOT_NAME, save_dataset

from conftest import make_dataset, rewrite_snapshot

OBJECT_LINES = """\
userId\tmovieId\trating
1\t101\t5
1\t102\t4
2\t101\t3
2\t103\t4
3\t102\t5
3\t103\t2
"""

TAG_LINES = """\
userId\tmovieId\ttag
1\t101\tFunny
2\t101\tfunny
2\t103\tDark
3\t103\tdark
"""


@pytest.fixture
def data_files(tmp_path):
    objects = tmp_path / "objects.tsv"
    tags = tmp_path / "tags.tsv"
    objects.write_text(OBJECT_LINES, encoding="utf-8")
    tags.write_text(TAG_LINES, encoding="utf-8")
    return objects, tags


@pytest.fixture
def snapshot_dir(data_files, tmp_path):
    objects, tags = data_files
    out = tmp_path / "out"
    rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
    assert rc == 0
    return out


class TestIngest:
    def test_summary(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        out = tmp_path / "out"
        rc = main(
            ["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {
            "users": 3,
            "objects": 3,
            "tags": 2,
            "user_object_edges": 6,
            "user_tag_edges": 4,
        }
        assert (out / SNAPSHOT_NAME).is_file()
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_unreadable_file(self, tmp_path, capsys):
        rc = main(
            ["ingest", "--objects", str(tmp_path / "nope"), "--tags", str(tmp_path / "nope"),
             "--out", str(tmp_path / "out")]
        )
        assert rc != 0
        assert "cannot read" in capsys.readouterr().err

    def test_header_lines_noted(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        rc = main(
            ["ingest", "--objects", str(objects), "--tags", str(tags),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: objects line 1 skipped as a header: 'userId\\tmovieId\\trating'",
            "note: tags line 1 skipped as a header: 'userId\\tmovieId\\ttag'",
        ]

    def test_file_not_utf8(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        objects.write_bytes(OBJECT_LINES.encode() + b"4\t10\xff\t5\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read objects file {objects}:")
        assert not (out / SNAPSHOT_NAME).exists()

    def test_empty_after_filter(self, tmp_path):
        objects = tmp_path / "o.tsv"
        tags = tmp_path / "t.tsv"
        objects.write_text("1\t101\t5\n", encoding="utf-8")
        tags.write_text("1\t101\tsolo\n", encoding="utf-8")
        # a fresh process: pytest's log capture would hide a stray logging line
        done = subprocess.run(
            [sys.executable, "-m", "tridiff.cli", "ingest", "--objects", str(objects),
             "--tags", str(tags), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 1
        assert done.stderr == "error: dataset is empty after core filtering\n"
        assert done.stdout == ""

    def test_nan_rating_threshold_exit_2(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        out = tmp_path / "out"
        rc = main(
            ["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out),
             "--rating-threshold", "nan"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""
        assert not out.exists()

    def test_out_is_a_file(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        out = tmp_path / "out"
        out.write_text("not a directory", encoding="utf-8")
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        last = err.splitlines()[-1]
        assert last.startswith(f"error: cannot write snapshot {out / SNAPSHOT_NAME}:")
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "not a directory"


class TestSweep:
    def sweep_args(self, out, **extra):
        args = [
            "sweep", "--out", str(out), "--similarity", "diffusion",
            "--lambda-step", "0.5", "--runs", "2", "--seed", "3",
            "--train-frac", "0.9", "--L", "2,3",
        ]
        for flag, value in extra.items():
            args += [flag, value]
        return args

    def test_writes_reports(self, snapshot_dir):
        assert main(self.sweep_args(snapshot_dir)) == 0
        cells = (snapshot_dir / "sweep_diffusion.csv").read_text().splitlines()
        assert cells[0] == (
            "similarity,lambda,run,rank_score,recall@2,recall@3,precision@2,precision@3"
        )
        assert len(cells) == 1 + 3 * 2  # grid {0, 0.5, 1} x 2 runs
        assert (snapshot_dir / "summary_diffusion.csv").is_file()
        assert (snapshot_dir / "optima_diffusion.csv").is_file()

    def test_byte_identical_rerun(self, snapshot_dir):
        assert main(self.sweep_args(snapshot_dir)) == 0
        first = (snapshot_dir / "sweep_diffusion.csv").read_bytes()
        assert main(self.sweep_args(snapshot_dir)) == 0
        assert (snapshot_dir / "sweep_diffusion.csv").read_bytes() == first

    def test_csv_roundtrips_floats(self, snapshot_dir):
        from tridiff import ExperimentConfig, run_sweep
        from tridiff.snapshot import load_dataset

        assert main(self.sweep_args(snapshot_dir)) == 0
        dataset = load_dataset(snapshot_dir)
        report = run_sweep(
            dataset,
            ExperimentConfig(
                similarity_kinds=("diffusion",), lambda_grid=(0.0, 0.5, 1.0),
                runs=2, train_fraction=0.9, list_lengths=(2, 3), base_seed=3,
            ),
        )["diffusion"]
        lines = (snapshot_dir / "sweep_diffusion.csv").read_text().splitlines()[1:]
        for line in lines:
            kind, lam, run, rank, r2, r3, p2, p3 = line.split(",")
            cell = report.per_cell[(float(lam), int(run))]
            assert float(rank) == cell.rank_score
            assert float(r2) == cell.recall[2] and float(r3) == cell.recall[3]
            assert float(p2) == cell.precision[2] and float(p3) == cell.precision[3]

    def test_single_lambda_flag(self, snapshot_dir):
        rc = main(
            ["sweep", "--out", str(snapshot_dir), "--lambda", "1.0",
             "--runs", "1", "--L", "2"]
        )
        assert rc == 0
        lines = (snapshot_dir / "sweep_diffusion.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("diffusion,1,0,")

    def test_multiple_kinds(self, snapshot_dir):
        rc = main(
            ["sweep", "--out", str(snapshot_dir), "--similarity", "diffusion,cosine",
             "--lambda", "0.5", "--runs", "1", "--L", "2"]
        )
        assert rc == 0
        assert (snapshot_dir / "sweep_cosine.csv").is_file()

    def test_invalid_config_exit_2(self, snapshot_dir, capsys):
        rc = main(
            ["sweep", "--out", str(snapshot_dir), "--runs", "0"]
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda-step", "0"), ("--lambda-step", "-0.1"), ("--lambda-step", "nan"),
         ("--lambda-max", "inf"), ("--lambda-step", "1e-12"),
         ("--train-frac", "0"), ("--train-frac", "1.5"), ("--train-frac", "nan"),
         ("--L", "10,10"), ("--seed", "-1"),
         ("--similarity", ","), ("--similarity", "diffusion,diffusion")],
    )
    def test_bad_lambda_grid_exit_2(self, snapshot_dir, capsys, flag, value):
        rc = main(["sweep", "--out", str(snapshot_dir), "--runs", "1", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "Traceback" not in err

    def test_missing_snapshot(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path / "void")])
        assert rc == 1
        assert "run ingest first" in capsys.readouterr().err

    def test_json_snapshot_needs_new_ingest(self, tmp_path, capsys):
        (tmp_path / "dataset.json").write_text('{"users": []}', encoding="utf-8")
        assert main(["sweep", "--out", str(tmp_path)]) == 1
        assert "run ingest first" in capsys.readouterr().err

    def test_env_does_not_override_flags(self, snapshot_dir, monkeypatch):
        monkeypatch.setenv("TRIDIFF_RUNS", "1")
        monkeypatch.setenv("TRIDIFF_LAMBDA", "0.5")
        assert main(self.sweep_args(snapshot_dir)) == 0
        lines = (snapshot_dir / "sweep_diffusion.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # grid {0, 0.5, 1} x 2 runs, as flagged


class TestRecommend:
    def test_prints_tab_separated(self, snapshot_dir, capsys):
        rc = main(
            ["recommend", "--out", str(snapshot_dir), "--user", "1",
             "--lambda", "1.0", "--L", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert 0 < len(out) <= 10
        for line in out:
            obj, score = line.split("\t")
            assert obj.startswith("10")
            assert float(score) > 0

    @pytest.mark.parametrize("lam", ["-0.1", "1.1", "nan"])
    def test_lambda_out_of_range_exit_2(self, snapshot_dir, capsys, lam):
        rc = main(
            ["recommend", "--out", str(snapshot_dir), "--user", "1", f"--lambda={lam}"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""

    @pytest.mark.parametrize("L", ["0", "-3"])
    def test_list_length_below_one_exit_2(self, snapshot_dir, capsys, L):
        rc = main(["recommend", "--out", str(snapshot_dir), "--user", "1", f"--L={L}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""

    def test_unknown_user(self, snapshot_dir, capsys):
        rc = main(["recommend", "--out", str(snapshot_dir), "--user", "ghost"])
        assert rc != 0
        assert "ghost" in capsys.readouterr().err

    def test_lambda_endpoints_differ(self, tmp_path, capsys):
        # F2-style data where the channels rank objects differently for u3:
        # the object channel backs o1 via u1/u2, the tag channel only via u2
        ds = make_dataset(
            [(0, 0), (0, 1), (1, 0), (2, 1), (1, 2)],
            [(0, 0), (1, 1), (2, 1)],
            3, 3, 2,
        )
        out = tmp_path / "snap"
        save_dataset(ds, out)

        def listing(lam):
            rc = main(
                ["recommend", "--out", str(out), "--user", "u2",
                 "--lambda", lam, "--L", "3"]
            )
            assert rc == 0
            return [l.split("\t")[0] for l in capsys.readouterr().out.splitlines()]

        assert listing("0.0") != listing("1.0")

    def test_empty_scores_zero_lines_exit_zero(self, tmp_path, capsys):
        # u0 shares no objects or tags with anyone: empty similarity row
        ds = make_dataset(
            [(0, 0), (1, 1), (2, 1)], [(0, 0), (1, 1), (2, 1)], 3, 2, 2
        )
        out = tmp_path / "snap"
        save_dataset(ds, out)
        rc = main(["recommend", "--out", str(out), "--user", "u0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert "no positive-score objects" in captured.err


DAMAGES = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-100]),
    "float_edges": lambda path: rewrite_snapshot(path, user_object=np.array([[0.5, 0.0]])),
    "object_member": lambda path: rewrite_snapshot(
        path, tags=np.array(["funny", None], dtype=object)
    ),
}


@pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES.keys())
@pytest.mark.parametrize(
    "command", [["sweep", "--runs", "1"], ["recommend", "--user", "1"]], ids=["sweep", "recommend"]
)
def test_corrupt_snapshot_is_one_error_line(snapshot_dir, capsys, damage, command):
    damage(snapshot_dir / SNAPSHOT_NAME)
    rc = main([command[0], "--out", str(snapshot_dir), *command[1:]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
