"""End-to-end checks of the command-line interface in real subprocesses."""

import json
import subprocess
import sys

import pytest

from test_harness import small_fixture


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "recbench.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    interactions, content = small_fixture(tmp)
    config = {
        "interactions_path": interactions,
        "content_path": content,
        "algorithms": {"cf": {}, "sup": {}},
        "k_values": [5, 10],
        "fold_count": 5,
        "rng_seed": 3,
    }
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp, interactions, config_path


class TestStats:
    def test_prints_all_fields(self, workspace):
        _, interactions, _ = workspace
        proc = run_cli("stats", "--interactions", interactions)
        assert proc.returncode == 0
        out = dict(line.split(None, 1) for line in proc.stdout.strip().splitlines())
        assert out["n_users"] == "30"
        assert out["n_items"] == "60"
        assert out["n_activities"] == "720"
        assert out["avg_items_per_user"] == "24.000000"
        assert out["sparsity"] == f"{1 - 720 / 1800:.6f}"

    def test_implicit_flag(self, tmp_path):
        p = tmp_path / "imp.tsv"
        p.write_text("u1\ta\nu1\tb\nu2\ta\n")
        proc = run_cli("stats", "--interactions", str(p), "--implicit")
        assert proc.returncode == 0
        out = dict(line.split(None, 1) for line in proc.stdout.strip().splitlines())
        assert out["n_activities"] == "3"

    def test_missing_file_is_exit_1(self):
        proc = run_cli("stats", "--interactions", "/no/such/file.tsv")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_malformed_file_is_exit_1(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\ta\tnot-a-rating\n")
        proc = run_cli("stats", "--interactions", str(p))
        assert proc.returncode == 1
        assert ":1:" in proc.stderr


class TestUsageErrors:
    def test_unknown_flag(self, workspace):
        _, interactions, _ = workspace
        proc = run_cli("stats", "--interactions", interactions, "--frobnicate")
        assert proc.returncode == 1

    def test_missing_required_argument(self):
        proc = run_cli("run")
        assert proc.returncode == 1

    def test_unknown_subcommand(self):
        proc = run_cli("explode")
        assert proc.returncode == 1


class TestRun:
    def test_run_writes_artifacts(self, workspace):
        tmp, _, config_path = workspace
        out = tmp / "run1"
        proc = run_cli("run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("records.csv", "summary.csv", "lists.csv", "hidden.csv", "config.json"):
            assert (out / name).is_file()
            assert f"wrote {out}/{name}" in proc.stdout

    def test_two_processes_produce_identical_bytes(self, workspace):
        tmp, _, config_path = workspace
        out_a, out_b = tmp / "run_a", tmp / "run_b"
        proc_a = run_cli("run", "--config", str(config_path), "--out", str(out_a))
        proc_b = run_cli("run", "--config", str(config_path), "--out", str(out_b))
        assert proc_a.returncode == 0 and proc_b.returncode == 0
        for name in ("records.csv", "records.json", "summary.csv", "intersections.csv",
                     "plot_data.csv", "lists.csv", "hidden.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_invalid_config_is_exit_1(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"interactions_path": "/nope.tsv", "k_values": []}')
        proc = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "interactions_path" in proc.stderr
        assert "k_values" in proc.stderr

    def test_missing_config_is_exit_1(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path))
        assert proc.returncode == 1


@pytest.fixture(scope="module")
def finished_run(workspace):
    tmp, _, config_path = workspace
    out = tmp / "cmp_run"
    proc = run_cli("run", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestCompare:
    def test_requires_disambiguation_when_ambiguous(self, finished_run):
        proc = run_cli(
            "compare", "--run-a", str(finished_run), "--run-b", str(finished_run), "--k", "10"
        )
        assert proc.returncode == 1
        assert "--algorithm-a" in proc.stderr

    def test_self_comparison_is_identity(self, finished_run):
        proc = run_cli(
            "compare",
            "--run-a", str(finished_run), "--algorithm-a", "cf",
            "--run-b", str(finished_run), "--algorithm-b", "cf",
            "--k", "10",
        )
        assert proc.returncode == 0, proc.stderr
        lines = dict(
            line.split(": ", 1) for line in proc.stdout.strip().splitlines() if ": " in line
        )
        assert lines["users_compared"] == "30"
        assert lines["jaccard@10"] == "1.0"
        assert lines["exclusive_a"] == "0"
        assert lines["exclusive_b"] == "0"

    def test_cross_algorithm_comparison(self, finished_run):
        proc = run_cli(
            "compare",
            "--run-a", str(finished_run), "--algorithm-a", "cf",
            "--run-b", str(finished_run), "--algorithm-b", "sup",
            "--k", "5",
        )
        assert proc.returncode == 0, proc.stderr
        lines = dict(
            line.split(": ", 1) for line in proc.stdout.strip().splitlines() if ": " in line
        )
        assert 0.0 <= float(lines["jaccard@5"]) <= 1.0
        assert int(lines["exclusive_a"]) >= 0

    def test_k_above_the_runs_largest_k_is_exit_1(self, finished_run):
        proc = run_cli(
            "compare",
            "--run-a", str(finished_run), "--algorithm-a", "cf",
            "--run-b", str(finished_run), "--algorithm-b", "sup",
            "--k", "11",
        )
        assert proc.returncode == 1
        assert "largest k" in proc.stderr and "(10)" in proc.stderr
        assert proc.stdout == ""

    def test_missing_run_dir_is_exit_1(self, finished_run, tmp_path):
        proc = run_cli(
            "compare", "--run-a", str(finished_run), "--algorithm-a", "cf",
            "--run-b", str(tmp_path / "ghost"), "--k", "10",
        )
        assert proc.returncode == 1

    def test_corrupt_run_dir_is_runtime_failure(self, finished_run, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        # strip the score column header so list parsing blows up downstream
        lists = broken / "lists.csv"
        lines = lists.read_text().splitlines()
        lines[0] = lines[0].replace("score", "points")
        lists.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "compare", "--run-a", str(broken), "--algorithm-a", "cf",
            "--run-b", str(broken), "--algorithm-b", "cf", "--k", "10",
        )
        assert proc.returncode == 2
        assert "runtime failure" in proc.stderr
