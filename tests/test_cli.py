import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tridiff.cli import build_parser, main
from tridiff.snapshot import SNAPSHOT_NAME, save_dataset

from conftest import frame_snapshot, make_dataset, random_tripartite, rewrite_snapshot

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

    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_dropped(self, data_files, tmp_path, capsys, header):
        # spreadsheet tools start a UTF-8 file with a byte order mark; it must
        # neither hide a header nor turn line 1 of data into one
        objects, tags = data_files
        lines = OBJECT_LINES if header else OBJECT_LINES.split("\n", 1)[1]
        objects.write_bytes(b"\xef\xbb\xbf" + lines.encode())
        tags.write_bytes(b"\xef\xbb\xbf" + TAG_LINES.encode())
        out = tmp_path / "out"
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "users": 3,
            "objects": 3,
            "tags": 2,
            "user_object_edges": 6,
            "user_tag_edges": 4,
        }
        notes = ["note: tags line 1 skipped as a header: 'userId\\tmovieId\\ttag'"]
        if header:
            notes.insert(0, "note: objects line 1 skipped as a header: 'userId\\tmovieId\\trating'")
        assert captured.err.splitlines() == notes

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

    def test_id_ending_in_nul(self, tmp_path, capsys):
        # user "1\0" survives the core filter; a str array would store it as "1"
        objects = tmp_path / "o.tsv"
        tags = tmp_path / "t.tsv"
        # no header lines (a line 1 starting "1\0" would be one), so no note: lines
        objects.write_text(
            "2\t101\t3\n1\0\t101\t5\n1\0\t102\t4\n2\t103\t4\n3\t102\t5\n3\t103\t2\n",
            encoding="utf-8",
        )
        tags.write_text(
            "2\t101\tfunny\n1\0\t101\tfunny\n2\t103\tdark\n3\t103\tdark\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "NUL" in err[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""
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

    def test_ingest_process_imports_no_scipy(self, data_files, tmp_path):
        # ingest needs no scipy; recommend and sweep load only its compiled
        # sparse kernels, by path, and import no module of scipy. Only sweep
        # loads the evaluation protocol and the modules of its worker pool
        objects, tags = data_files
        out = str(tmp_path / "out")
        ingest = ["ingest", "--objects", str(objects), "--tags", str(tags), "--out", out]
        recommend = ["recommend", "--out", out, "--user", "1"]
        sweep = ["sweep", "--out", out, "--runs", "1", "--lambda-step", "0.5", "--L", "2"]
        done = python_process(
            "import sys\n"
            "from tridiff.cli import main\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "def sweep_modules():\n"
            "    names = ('tridiff.evaluation', 'multiprocessing', 'concurrent.futures')\n"
            "    return [m for m in names if m in sys.modules]\n"
            f"assert main({ingest!r}) == 0\n"
            "assert scipy_modules() == [], scipy_modules()\n"
            "assert sweep_modules() == [], sweep_modules()\n"
            f"assert main({recommend!r}) == 0\n"
            "assert scipy_modules() == ['scipy.sparse._sparsetools'], scipy_modules()\n"
            "assert sweep_modules() == [], sweep_modules()\n"
            f"assert main({sweep!r}) == 0\n"
            "assert scipy_modules() == ['scipy.sparse._sparsetools'], scipy_modules()\n"
            "assert len(sweep_modules()) == 3, sweep_modules()\n"
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / SNAPSHOT_NAME).is_file()
        assert (tmp_path / "out" / "sweep_diffusion.csv").is_file()

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
        assert last.startswith(f"error: cannot write {out / SNAPSHOT_NAME}:")
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_summary_unwritable(self, data_files, tmp_path, capsys):
        objects, tags = data_files
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if not line.startswith("note:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot write {out / 'summary.json'}:")
        assert captured.out == ""
        assert {p.name for p in out.iterdir()} == {"summary.json"}

    @pytest.mark.parametrize("name", [SNAPSHOT_NAME, "summary.json"])
    def test_temporary_name_taken_by_a_directory(self, data_files, tmp_path, capsys, name):
        objects, tags = data_files
        out = tmp_path / "out"
        (out / f"{name}.tmp").mkdir(parents=True)
        rc = main(["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: cannot write {out / name}:")
        assert "Traceback" not in err
        assert {p.name for p in out.iterdir()} == {f"{name}.tmp"}

    def test_summary_unwritable_keeps_earlier_snapshot(self, snapshot_dir, data_files, capsys):
        # an earlier good ingest, then one of more events whose summary fails
        objects, tags = data_files
        objects.write_text(OBJECT_LINES + "3\t101\t4\n", encoding="utf-8")
        (snapshot_dir / "summary.json").unlink()
        earlier = (snapshot_dir / SNAPSHOT_NAME).read_bytes()
        (snapshot_dir / "summary.json").mkdir()
        capsys.readouterr()
        rc = main(
            ["ingest", "--objects", str(objects), "--tags", str(tags), "--out", str(snapshot_dir)]
        )
        assert rc == 1
        assert capsys.readouterr().out == ""
        assert (snapshot_dir / SNAPSHOT_NAME).read_bytes() == earlier
        assert {p.name for p in snapshot_dir.iterdir()} == {SNAPSHOT_NAME, "summary.json"}


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
        from tridiff.evaluation import ExperimentConfig, run_sweep
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
            cell = report.cells[int(run), report.config.lambda_grid.index(float(lam))]
            assert float(rank) == cell[0]
            assert float(r2) == cell[1] and float(r3) == cell[2]
            assert float(p2) == cell[3] and float(p3) == cell[4]

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
         # steps that stop short of 1, overshoot it or are not finite
         ("--lambda-step", "0.3"), ("--lambda-step", "0.7"), ("--lambda-step", "0.6"),
         ("--lambda-step", "inf"),
         # two flags: a step below the 10-place rounding repeats points
         ("--lambda-max=1e-10", "--lambda-step=1e-11"),
         ("--train-frac", "0"), ("--train-frac", "1.5"), ("--train-frac", "nan"),
         ("--L", "10,10"), ("--seed", "-1"),
         ("--similarity", ","), ("--similarity", "diffusion,diffusion"), ("--L", ",")],
    )
    def test_bad_lambda_grid_exit_2(self, snapshot_dir, capsys, flag, value):
        before = {p.name: p.read_bytes() for p in snapshot_dir.iterdir()}
        rc = main(["sweep", "--out", str(snapshot_dir), "--runs", "1", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        if flag.startswith("--lambda"):
            assert "step" in err
        assert {p.name: p.read_bytes() for p in snapshot_dir.iterdir()} == before

    def test_train_frac_holding_out_nothing_exit_2(self, snapshot_dir, capsys):
        # an earlier run's report set, then a sweep with no test pair
        assert main(self.sweep_args(snapshot_dir)) == 0
        earlier = {p.name: p.read_bytes() for p in snapshot_dir.iterdir()}
        capsys.readouterr()
        rc = main(self.sweep_args(snapshot_dir, **{"--train-frac": "1"}))
        assert rc == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: train fraction 1.0 holds out none")
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in snapshot_dir.iterdir()} == earlier
        reports = {f"{stem}_diffusion.csv" for stem in ("sweep", "summary", "optima")}
        assert reports <= set(earlier)

    def test_report_unwritable(self, snapshot_dir, capsys):
        # an earlier run's report set, then a directory in one file's place
        assert main(self.sweep_args(snapshot_dir)) == 0
        (snapshot_dir / "summary_diffusion.csv").unlink()
        earlier = {p.name: p.read_bytes() for p in snapshot_dir.iterdir() if p.is_file()}
        capsys.readouterr()
        (snapshot_dir / "summary_diffusion.csv").mkdir()
        rc = main(["sweep", "--out", str(snapshot_dir), "--runs", "1", "--lambda", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {snapshot_dir / 'summary_diffusion.csv'}:")
        assert len(err.splitlines()) == 1
        # the earlier run's files are untouched and no temporary file is left
        after = {p.name: p.read_bytes() for p in snapshot_dir.iterdir() if p.is_file()}
        assert after == earlier
        assert {p.name for p in snapshot_dir.iterdir()} == {*earlier, "summary_diffusion.csv"}

    def test_kinds_written_as_one_set(self, snapshot_dir, capsys):
        # an earlier two-kind run's reports, then a directory in the last kind's
        # summary's place: no file of either kind may change
        argv = ["sweep", "--out", str(snapshot_dir), "--similarity", "diffusion,cosine",
                "--runs", "1", "--L", "2"]
        assert main([*argv, "--lambda", "0.5"]) == 0
        (snapshot_dir / "summary_cosine.csv").unlink()
        earlier = {p.name: p.read_bytes() for p in snapshot_dir.iterdir()}
        (snapshot_dir / "summary_cosine.csv").mkdir()
        capsys.readouterr()
        assert main([*argv, "--lambda", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {snapshot_dir / 'summary_cosine.csv'}:")
        assert len(err.splitlines()) == 1
        after = {p.name: p.read_bytes() for p in snapshot_dir.iterdir() if p.is_file()}
        assert after == earlier
        assert {p.name for p in snapshot_dir.iterdir()} == {*earlier, "summary_cosine.csv"}

    def test_dead_worker_is_one_error_line(self, tmp_path):
        # a pooled sweep whose workers die, as one killed by the OOM killer
        # would, fails within the timeout, writes no report and leaves no
        # worker process behind
        save_dataset(
            random_tripartite(np.random.default_rng(5), m=60, n=80, r=30,
                              obj_density=0.08, tag_density=0.08),
            tmp_path,
        )
        sweep = ["sweep", "--out", str(tmp_path), "--runs", "1", "--lambda", "0.5"]
        done = python_process(
            "import os, sys\n"
            "from tridiff import evaluation\n"
            "from tridiff.cli import main\n"
            "from tridiff.recommend import Scorer\n"
            "evaluation.BLOCK_USERS = evaluation.MIN_POOL_BLOCKS = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "Scorer.block_stats = lambda *args: os._exit(1)\n"
            f"rc = main({sweep!r})\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:  # no child process, running or ended\n"
            "    sys.exit(rc)\n"
            "sys.exit('a worker process is left behind')\n",
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: a sweep worker died: ")
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [SNAPSHOT_NAME, "summary.json"]

    def test_missing_snapshot(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path / "void")])
        assert rc == 1
        assert "run ingest first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--lambda-step", "0"], ["sweep", "--runs", "0"],
         ["sweep", "--similarity", "nosuch"], ["recommend", "--user", "1", "--lambda", "2"]],
    )
    def test_bad_flag_refused_before_snapshot_read(self, tmp_path, capsys, argv):
        # no snapshot in the directory: a bad flag is named, not the missing file
        assert main([argv[0], "--out", str(tmp_path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""

    def test_version_1_snapshot_needs_new_ingest(self, tmp_path, capsys):
        # the .npz archive that format versions 1 and 2 wrote has another name;
        # this one holds version 1's members: (E, 2) edge lists, no CSR arrays
        with (tmp_path / "dataset.npz").open("wb") as fh:
            np.savez(
                fh,
                format_version=np.array(1),
                users=np.array(["1", "2"]),
                objects=np.array(["o1"]),
                tags=np.array(["t1"]),
                user_object=np.array([[0, 0], [1, 0]]),
                user_tag=np.array([[0, 0], [1, 0]]),
            )
        self.assert_every_command_fails(
            tmp_path, capsys, f"error: no snapshot in {tmp_path}; run ingest first\n"
        )
        # a snapshot of today's layout whose header holds another version
        path = tmp_path / SNAPSHOT_NAME
        path.write_bytes(frame_snapshot({"version": 2, "arrays": []}, b""))
        self.assert_every_command_fails(
            tmp_path, capsys,
            f"error: cannot read snapshot {path}: format version 2, expected 3; "
            "run tridiff ingest again\n",
        )

    @staticmethod
    def assert_every_command_fails(out, capsys, want):
        for command in (["sweep", "--runs", "1"], ["recommend", "--user", "1"]):
            assert main([command[0], "--out", str(out), *command[1:]]) == 1
            captured = capsys.readouterr()
            assert captured.err == want
            assert captured.out == ""

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

    def test_user_id_with_trailing_nul_is_unknown(self, snapshot_dir, capsys):
        # user "1" exists; numpy's str comparison would also match "1\0"
        assert main(["recommend", "--out", str(snapshot_dir), "--user", "1"]) == 0
        capsys.readouterr()
        rc = main(["recommend", "--out", str(snapshot_dir), "--user", "1\0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown user id")
        assert captured.out == ""

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
    "float_edges": lambda path: rewrite_snapshot(
        path, user_object_indices=np.array([0.5, 0.0])
    ),
    "object_member": lambda path: rewrite_snapshot(
        path, tags=np.array(["funny", None], dtype=object)
    ),
    "directory": lambda path: (path.unlink(), path.mkdir()),
    "out_is_a_file": lambda path: (
        shutil.rmtree(path.parent), path.parent.write_text("not a directory", encoding="utf-8")
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


SRC = str(Path(__file__).resolve().parent.parent / "src")


def python_process(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run code in a fresh Python process that imports tridiff from src/."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=timeout,
    )


class TestSparseKernels:
    """core._sparsetools loads scipy's kernel module by path; scipy.sparse,
    imported before or after it, holds the same module. (The attribute
    scipy.sparse._sparsetools is hidden by scipy's lazy __getattr__ in
    both orders, so the tests read the one scipy's products use.)"""

    def test_loaded_before_scipy_sparse(self):
        done = python_process(
            "import numpy as np\n"
            "from tridiff import core\n"
            "kernels = core._sparsetools()\n"
            "import scipy.sparse\n"
            "from scipy.sparse import _compressed\n"
            "assert _compressed._sparsetools is kernels\n"
            "a = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))\n"
            "assert (a @ np.array([1.0, 1.0])).tolist() == [1.0, 5.0]\n"
            "assert (a.T @ np.ones((2, 2))).tolist() == [[3.0, 3.0], [3.0, 3.0]]\n"
        )
        assert done.returncode == 0, done.stderr

    def test_loaded_after_scipy_sparse(self):
        done = python_process(
            "import scipy.sparse\n"
            "from scipy.sparse import _compressed\n"
            "from tridiff import core\n"
            "assert core._sparsetools() is _compressed._sparsetools\n"
        )
        assert done.returncode == 0, done.stderr

    def test_missing_file_names_its_path(self):
        done = python_process(
            "import importlib.machinery, sys\n"
            "from tridiff import core\n"
            "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
            "try:\n"
            "    core._sparsetools()\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('no ImportError')\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        )
        assert done.returncode == 0, done.stderr
        package = importlib.util.find_spec("scipy").submodule_search_locations[0]
        assert os.path.join(package, "sparse", "_sparsetools.missing") in done.stdout


def test_one_parser_shares_no_state(snapshot_dir, tmp_path, capsys):
    # the parser is built once per process: a call's flags must not become
    # a later call's defaults
    assert build_parser() is build_parser()
    fresh = tmp_path / "fresh"
    shutil.copytree(snapshot_dir, fresh)
    sweep = ["sweep", "--runs", "1", "--lambda-step", "0.25"]
    assert main([*sweep, "--out", str(snapshot_dir), "--L", "5", "--similarity", "cosine"]) == 0
    assert main([*sweep, "--out", str(snapshot_dir)]) == 0
    done = subprocess.run(
        [sys.executable, "-m", "tridiff.cli", *sweep, "--out", str(fresh)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    written = (snapshot_dir / "sweep_diffusion.csv").read_bytes()
    assert written == (fresh / "sweep_diffusion.csv").read_bytes()
    assert b"recall@10,recall@20" in written
    capsys.readouterr()
    assert main(["recommend", "--out", str(snapshot_dir), "--user", "1", "--lambda", "2"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_console_script_end_to_end(tmp_path):
    # the CI workflow's console-script step, run as `python -m tridiff.cli`
    # processes: ingest; sweeps through crossing points (an 11-point grid)
    # and comparing fused scores (one lambda), whose lambda = 0.5 rows must
    # be equal; top-L lists of two kinds; top-L lists at lambda = 0 and 1
    # with warnings as errors (0 x a collected object's score must give no
    # NaN); a top-L list whose import log names no scipy and no
    # multiprocessing module; an unknown user; and a snapshot cut short by
    # 100 bytes, each one error line and exit 1
    (tmp_path / "objects.tsv").write_text(
        "1\t101\t5\n1\t102\t4\n2\t101\t3\n2\t103\t4\n3\t102\t5\n3\t103\t2\n", encoding="utf-8"
    )
    (tmp_path / "tags.tsv").write_text(
        "1\t101\tfunny\n2\t101\tfunny\n2\t103\tdark\n3\t103\tdark\n", encoding="utf-8"
    )

    def tridiff(*args, **env):
        return subprocess.run(
            [sys.executable, "-m", "tridiff.cli", *args], cwd=tmp_path, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": SRC, **env}, timeout=120,
        )

    def succeeds(*args, **env):
        done = tridiff(*args, **env)
        assert done.returncode == 0, done.stderr
        return done

    succeeds("ingest", "--objects", "objects.tsv", "--tags", "tags.tsv", "--out", "run")
    rows = []
    for grid in (["--lambda-step", "0.1"], ["--lambda", "0.5"]):
        succeeds("sweep", "--out", "run", "--runs", "1", *grid, "--train-frac", "0.5", "--L", "2")
        lines = (tmp_path / "run" / "sweep_diffusion.csv").read_text(encoding="utf-8")
        rows.append([line for line in lines.splitlines() if line.startswith("diffusion,0.5,")])
    assert rows[0] and rows[0] == rows[1]
    succeeds("recommend", "--out", "run", "--user", "1")
    succeeds("recommend", "--out", "run", "--user", "1", "--similarity", "cosine")
    succeeds("recommend", "--out", "run", "--user", "1", "--lambda", "0", PYTHONWARNINGS="error")
    succeeds("recommend", "--out", "run", "--user", "1", "--lambda", "1", PYTHONWARNINGS="error")
    imports = succeeds("recommend", "--out", "run", "--user", "1", PYTHONPROFILEIMPORTTIME="1")
    assert "import time:" in imports.stderr and "scipy" not in imports.stderr
    assert "multiprocessing" not in imports.stderr

    done = tridiff("recommend", "--out", "run", "--user", "nosuchuser")
    assert done.returncode == 1
    assert done.stderr.startswith("error: unknown user id")

    snapshot = tmp_path / "run" / SNAPSHOT_NAME
    (tmp_path / "cut.bin").write_bytes(snapshot.read_bytes()[:-100])
    os.replace(tmp_path / "cut.bin", snapshot)
    done = tridiff("recommend", "--out", "run", "--user", "1")
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: cannot read snapshot")
