"""Byte gate: every benchmark workload, generated at seed 0, must still produce
the run directory and the compare output recorded in ``perfbench/recorded.json``."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from recbench import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 0
# No benchmark workload runs cf under the pearson metric, so this pins the bytes
# of dense-content (seed 0) with cf added as {"similarity_metric": "pearson"}.
PEARSON_RUN_SHA256 = "3600252c4f36fdec8a22f1fa32e28c53fb871bf50137537b6a87b5f4835431e8"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _recorded(name):
    with open(PERFBENCH / "recorded.json", encoding="utf-8") as fh:
        return json.load(fh)["runs"][name][str(SEED)]


def tree_digest(directory):
    """sha256 over every file's name and bytes, in name order (the scheme of
    ``perfbench/run.py``)."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.COMPARES))
def test_workload_matches_recording(name, tmp_path, monkeypatch, capsys):
    recorded = _recorded(name)
    workloads.write_workload(name, SEED, tmp_path)
    monkeypatch.chdir(tmp_path)  # the workload's config names its inputs relative to it
    assert cli.main(["run", "--config", workloads.CONFIG, "--out", "run"]) == 0
    capsys.readouterr()
    (alg_a, sel_a), (alg_b, sel_b), k = workloads.COMPARES[name]
    argv = [
        "compare", "--run-a", "run", "--run-b", "run", "--k", str(k),
        "--algorithm-a", alg_a, "--selection-a", sel_a,
        "--algorithm-b", alg_b, "--selection-b", sel_b,
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == recorded["compare_stdout"]
    assert tree_digest(tmp_path / "run") == recorded["run_sha256"]


def test_pearson_run_matches_recording(tmp_path, monkeypatch):
    workloads.write_workload("dense-content", SEED, tmp_path)
    config_path = tmp_path / workloads.CONFIG
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["algorithms"]["cf"] = {**workloads.CF_PARAMS, "similarity_metric": "pearson"}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", workloads.CONFIG, "--out", "run"]) == 0
    assert tree_digest(tmp_path / "run") == PEARSON_RUN_SHA256


@pytest.mark.parametrize("name", sorted(workloads.COMPARES))
def test_setup_probe_matches_recording(name, tmp_path):
    """The benchmark's set-up probe reads what the package builds (an index's
    vocabulary and empty items, the corpus's attribute names): run it as the
    benchmark does, in the workload directory against ``src``."""
    workloads.write_workload(name, SEED, tmp_path)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _recorded(name)["setup_stdout"]
