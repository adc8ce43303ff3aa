"""End-to-end checks of the command-line interface in real subprocesses."""

import csv
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import synth
from recbench import cli
from test_harness import small_fixture

ROOT = Path(__file__).resolve().parents[1]


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

    def test_leading_bom_is_not_part_of_the_first_user(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_bytes(b"\xef\xbb\xbfu1\ti1\t5\nu1\ti2\t4\nu2\ti1\t3\n")
        proc = run_cli("stats", "--interactions", str(p))
        assert proc.returncode == 0, proc.stderr
        out = dict(line.split(None, 1) for line in proc.stdout.strip().splitlines())
        assert (out["n_users"], out["n_items"], out["n_activities"]) == ("2", "2", "3")


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


# a value that json.loads cannot turn into a Python object, and a fragment of its error
BEYOND_THE_PARSER = [
    ("1" * 5000, "Exceeds the limit (4300 digits)"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
]


def with_rng_seed(config, value):
    """The JSON text of ``config`` with ``value``, raw JSON text, as its rng_seed."""
    return json.dumps({**config, "rng_seed": "@"}).replace('"@"', value)


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

    def test_repeated_config_key_is_exit_1(self, workspace, tmp_path):
        """A JSON parser keeps the last of two equal keys, so a repeated key
        would run with one of its values silently; it is listed with the
        file's other problems instead."""
        _, _, config_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(config_path.read_text()[:-1] + ', "fold_count": 3, "k_values": [0]}')
        proc = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {bad}: repeated config key 'fold_count'; repeated config key 'k_values'; "
            "k_values must be positive integers, got [0]\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_exit_1(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path))
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("attribute_selections", None, "attribute_selections must be a non-empty list, got None"),
            ("attribute_selections", "all", "attribute_selections must be a non-empty list, got 'all'"),
            ("k_values", 5, "k_values must be a non-empty list, got 5"),
            ("interactions_path", 5, "interactions_path must name an existing file, got 5"),
            ("content_path", ["c.jsonl"], "content_path must name an existing file, got ['c.jsonl']"),
            ("stopwords_path", 5, "stopwords_path must name an existing file, got 5"),
        ],
        ids=["null-selections", "string-selections", "int-k-values", "int-interactions-path",
             "list-content-path", "int-stopwords-path"],
    )
    def test_field_of_the_wrong_json_type_is_exit_1(self, workspace, tmp_path, field, value, problem):
        """Each is one listed problem, not a crash inside validation (exit 2)
        and not one message per character of a string."""
        _, _, config_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(config_path.read_text()), field: value}))
        proc = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {bad}: {problem}\n"

    @pytest.mark.parametrize("value, fragment", BEYOND_THE_PARSER, ids=["long-integer", "deep-nesting"])
    def test_json_beyond_the_parsers_limits_is_exit_1(self, workspace, tmp_path, value, fragment):
        """Each is an input error naming the file, not a runtime failure (exit 2)."""
        _, _, config_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(with_rng_seed(json.loads(config_path.read_text()), value))
        proc = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {bad}: invalid JSON: ")
        assert fragment in proc.stderr

    def test_selection_name_with_a_line_break_is_exit_1(self, workspace, tmp_path):
        """A line break in a name would split plot_data.csv's series header
        over two lines, though the corpus has that attribute."""
        tmp, _, config_path = workspace
        content = tmp_path / "content.jsonl"
        content.write_text((tmp / "content.jsonl").read_text().replace('"title"', '"ti\\ntle"'))
        config = {
            **json.loads(config_path.read_text()),
            "content_path": str(content),
            "attribute_selections": [["ti\ntle"]],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        proc = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: {bad}: attribute selection names must be printable, got ['ti\\ntle']\n"
        assert not (tmp_path / "out").exists()

    def test_selection_with_an_empty_vocabulary_fails_before_any_fold(self, tmp_path):
        """Every protocol_fixture title is a term of its own document only, so
        the title selection keeps no term; the run stops before splitting."""
        data = synth.protocol_fixture()
        data.write_interactions(tmp_path / "interactions.tsv")
        data.write_content(tmp_path / "content.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "interactions_path": str(tmp_path / "interactions.tsv"),
            "content_path": str(tmp_path / "content.jsonl"),
            "algorithms": {"cf": {}, "sup": {}},
            "attribute_selections": ["all", ["title"]],
            "fold_count": 3,
        }))
        proc = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert not [line for line in proc.stderr.splitlines() if line.startswith("fold ")]
        assert proc.stderr == (
            "error: selection title: vocabulary is empty after stopword"
            " and single-document term removal\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def finished_run(workspace):
    tmp, _, config_path = workspace
    out = tmp / "cmp_run"
    proc = run_cli("run", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def compare_cf_sup(run):
    """``recbench compare`` of a run's cf and sup lists at k=10."""
    return run_cli(
        "compare", "--run-a", str(run), "--algorithm-a", "cf",
        "--run-b", str(run), "--algorithm-b", "sup", "--k", "10",
    )


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

    @pytest.mark.parametrize(
        "case, location, fragment",
        [
            pytest.param(case, location, fragment, id=case)
            for case, location, fragment in (
                ("missing-column", "lists.csv:1:", "missing column(s) score"),
                ("non-integer-rank", "lists.csv:2:", "rank 'first' is not an integer"),
                ("non-numeric-score", "lists.csv:2:", "score 'high' is not a number"),
                ("repeated-item", "lists.csv:3:", "duplicate item"),
                ("empty-item-id", "lists.csv:2:", "item_id must be a non-empty string"),
                ("nan-score", "lists.csv:2:", "is not finite: nan"),
                ("infinite-score", "lists.csv:2:", "is not finite: inf"),
                ("rank-2-nan-score", "lists.csv:3:", "is not finite: nan"),
                ("rank-2-score-rises", "lists.csv:3:", "non-increasing"),
                ("rank-11-row", "lists.csv:3:", "11 entries exceed target_k=10"),
                ("row-in-another-fold", "lists.csv:2:", "is in fold 0 in hidden.csv, not fold 1"),
            )
        ],
    )
    def test_malformed_lists_csv_is_exit_1(self, finished_run, tmp_path, case, location, fragment):
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        with open(broken / "lists.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, first, second = rows[:3]
        if case == "missing-column":
            header[header.index("score")] = "points"
        elif case == "non-integer-rank":
            first[header.index("rank")] = "first"
        elif case == "non-numeric-score":
            first[header.index("score")] = "high"
        elif case == "empty-item-id":
            first[header.index("item_id")] = ""
        elif case == "row-in-another-fold":
            assert first[header.index("fold")] == "0"
            first[header.index("fold")] = "1"
        elif case == "rank-11-row":
            # the run's largest k is 10: extend the first list to rank 11, inserting the
            # new rows after rank 1 in descending rank, so that rank 11 is on line 3
            rank, item = header.index("rank"), header.index("item_id")
            last = [row for row in rows if row[:rank] == first[:rank]][-1]
            for r in range(int(last[rank]) + 1, 12):
                row = list(last)  # the list's last score again: scores may tie
                row[rank], row[item] = str(r), f"extra{r}"
                rows.insert(2, row)
        elif case in ("nan-score", "infinite-score"):
            # a NaN compares false with its neighbours, so only a finiteness check finds it
            first[header.index("score")] = "nan" if case == "nan-score" else "inf"
        else:
            # each of these breaks the rule at rank 2, the row the error must name
            assert first[:4] == second[:4], "the first two rows should hold one user's list"
            score = header.index("score")
            if case == "rank-2-nan-score":
                second[score] = "nan"
            elif case == "rank-2-score-rises":
                second[score] = repr(float(first[score]) + 1.0)
            else:
                second[header.index("item_id")] = first[header.index("item_id")]
        with open(broken / "lists.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        proc = run_cli(
            "compare", "--run-a", str(broken), "--algorithm-a", "cf",
            "--run-b", str(broken), "--algorithm-b", "cf", "--k", "10",
        )
        assert proc.returncode == 1, proc.stderr
        assert f"{broken / location}" in proc.stderr
        assert fragment in proc.stderr

    @pytest.mark.parametrize(
        "case, location",
        [("rank-2-removed", "lists.csv:3:"), ("rank-1-removed", "lists.csv:2:"), ("rank-repeated", "lists.csv:")],
    )
    def test_ranks_not_running_1_to_n_are_exit_1(self, finished_run, tmp_path, case, location):
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        with open(broken / "lists.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, first, second, third = rows[:4]
        rank = header.index("rank")
        algorithm, selection, user = (
            first[header.index(c)] for c in ("algorithm", "attribute_selection", "user_id")
        )
        assert first[:rank] == second[:rank] == third[:rank], "the first three rows should hold one list"
        assert [first[rank], second[rank], third[rank]] == ["1", "2", "3"]
        if case == "rank-2-removed":
            del rows[2]
        elif case == "rank-1-removed":
            del rows[1]
        else:
            second[rank] = "1"
        with open(broken / "lists.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        proc = run_cli(
            "compare", "--run-a", str(broken), "--algorithm-a", "cf",
            "--run-b", str(broken), "--algorithm-b", "sup", "--k", "10",
        )
        assert proc.returncode == 1, proc.stderr
        assert f"{broken / location}" in proc.stderr
        assert f"the {algorithm}/{selection} list of user {user!r}" in proc.stderr
        assert "ranks must run 1..n" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name", ["lists.csv", "hidden.csv"])
    @pytest.mark.parametrize("case", ["short", "long"])
    def test_row_with_another_field_count_than_its_header_is_exit_1(
        self, finished_run, tmp_path, name, case
    ):
        """A short hidden.csv row would otherwise read as a hidden item None,
        and a long row's extra fields would be dropped unseen."""
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        rows = read_csv(broken / name)
        header, first = rows[:2]
        if case == "short":
            del first[-1]
        else:
            first.append("extra")
        write_csv(broken / name, rows)
        proc = compare_cf_sup(broken)
        assert proc.returncode == 1, proc.stderr
        assert f"{broken / name}:2: {len(first)} fields where the header has {len(header)}" in proc.stderr
        assert proc.stdout == ""

    def test_columns_are_found_by_name(self, finished_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        expected = compare_cf_sup(run)
        assert expected.returncode == 0, expected.stderr
        for name in ("lists.csv", "hidden.csv"):
            write_csv(run / name, [row[::-1] for row in read_csv(run / name)])
        assert (run / "hidden.csv").read_text().startswith("item_id,user_id,fold\n")
        proc = compare_cf_sup(run)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.stdout

    def test_data_rows_in_any_order_give_the_same_output(self, finished_run, tmp_path):
        """Each list is put back in rank order and each hidden set is a set,
        so shuffling the data rows of both files changes no output byte."""
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        expected = compare_cf_sup(run)
        assert expected.returncode == 0, expected.stderr
        rng = random.Random(0)
        for name in ("lists.csv", "hidden.csv"):
            header, *rows = read_csv(run / name)
            shuffled = rng.sample(rows, len(rows))
            assert shuffled != rows
            write_csv(run / name, [header, *shuffled])
        proc = compare_cf_sup(run)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.stdout

    def test_a_blank_line_keeps_the_physical_line_numbers(self, finished_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        expected = compare_cf_sup(run)
        assert expected.returncode == 0, expected.stderr
        lines = (run / "lists.csv").read_text().splitlines(keepends=True)
        (run / "lists.csv").write_text("".join([*lines[:2], "\n", *lines[2:]]))
        proc = compare_cf_sup(run)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.stdout

        rows = read_csv(run / "lists.csv")
        assert rows[2] == [], "line 3 should be the blank one"
        rows[3][rows[0].index("rank")] = "second"
        write_csv(run / "lists.csv", rows)
        proc = compare_cf_sup(run)
        assert proc.returncode == 1, proc.stderr
        assert f"{run / 'lists.csv'}:4: rank 'second' is not an integer" in proc.stderr
        assert proc.stdout == ""

    def test_no_matching_list_set_reports_zero(self, finished_run):
        proc = run_cli(
            "compare", "--run-a", str(finished_run), "--algorithm-a", "upa",
            "--run-b", str(finished_run), "--algorithm-b", "cf", "--k", "10",
        )
        assert proc.returncode == 1
        assert "holds 0 matching list sets (cf/-, sup/all)" in proc.stderr

    def test_run_without_selections_is_compared(self, workspace, tmp_path, capsys):
        """A cf-only run may configure no attribute selection at all."""
        _, interactions, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "interactions_path": interactions,
            "algorithms": {"cf": {}},
            "attribute_selections": [],
            "k_values": [5],
            "fold_count": 3,
        }))
        run = tmp_path / "run"
        assert cli.main(["run", "--config", str(config), "--out", str(run)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--run-a", str(run), "--run-b", str(run), "--k", "5"]) == 0
        assert f"run_a: {run} algorithm=cf attribute_selection=-\n" in capsys.readouterr().out

    def test_all_empty_list_set_is_compared(self, tmp_path, capsys):
        """Disjoint profiles give cf no neighbour, so no cf list has a row in
        lists.csv; the set still exists, as the run's config.json says."""
        users = [f"u{n}" for n in range(10)]
        with open(tmp_path / "ratings.tsv", "w", encoding="utf-8") as fh:
            for u in users:
                fh.writelines(f"{u}\t{u}i{j:02d}\t1\n" for j in range(25))
        with open(tmp_path / "content.jsonl", "w", encoding="utf-8") as fh:
            for u in users:
                fh.writelines(
                    json.dumps({"item_id": f"{u}i{j:02d}", "attributes": {"text": f"tag{u}"}}) + "\n"
                    for j in range(25)
                )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "interactions_path": str(tmp_path / "ratings.tsv"),
            "content_path": str(tmp_path / "content.jsonl"),
            "algorithms": {"cf": {}, "sup": {}},
            "k_values": [5],
            "fold_count": 2,
        }))
        run = tmp_path / "run"
        assert cli.main(["run", "--config", str(config), "--out", str(run)]) == 0
        assert "cf," not in (run / "lists.csv").read_text()
        capsys.readouterr()
        assert cli.main([
            "compare", "--run-a", str(run), "--algorithm-a", "cf",
            "--run-b", str(run), "--algorithm-b", "sup", "--k", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "users_compared: 10\njaccard@5: 0.0\nexclusive_a: 0\nexclusive_b: 50\n" in out

    @pytest.mark.parametrize(
        "case, location, fragment",
        [
            pytest.param(case, location, fragment, id=case)
            for case, location, fragment in (
                ("user-without-hidden-set", "lists.csv:2:", "in the run's config.json and hidden.csv"),
                ("no-hidden-rows", "hidden.csv:", "the run has no test users"),
                ("user-in-two-folds", "hidden.csv:", "but in fold 0 above; a run places each test user in one fold"),
                # the user's lists have no row to name, so the file is named
                ("empty-hidden-user-id", "lists.csv: the cf/- list of user ''", "user_id must be a non-empty string"),
                ("empty-hidden-item-id", "hidden.csv:2:", "item_id must be a non-empty string"),
                ("unconfigured-list-set", "lists.csv:2:", "no upa/all list of user"),
                ("malformed-algorithms", "config.json:", "algorithms must be a non-empty mapping"),
                ("malformed-selections", "config.json:", 'attribute selection must be "all" or'),
                ("missing-k-values", "config.json:", "missing config key 'k_values'"),
                ("unknown-config-key", "config.json:", "unknown config key 'k_value'"),
            )
        ],
    )
    def test_run_structure_defects_are_exit_1(self, finished_run, tmp_path, case, location, fragment):
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        with open(broken / "lists.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, first = rows[:2]
        config = json.loads((broken / "config.json").read_text())
        if case in (
            "user-without-hidden-set", "no-hidden-rows", "user-in-two-folds", "empty-hidden-user-id",
            "empty-hidden-item-id",
        ):
            with open(broken / "hidden.csv", encoding="utf-8", newline="") as fh:
                hidden_rows = list(csv.reader(fh))
            if case == "no-hidden-rows":
                kept = hidden_rows[:1]
            elif case == "user-in-two-folds":
                # fold 0's first user gets one more hidden item, in fold 1
                fold, user, _ = hidden_rows[1]
                assert fold == "0"
                kept = [*hidden_rows, ["1", user, "an-item-of-fold-1"]]
            elif case == "empty-hidden-user-id":
                kept = [*hidden_rows, ["0", "", "an-item"]]
            elif case == "empty-hidden-item-id":
                hidden_rows[1][2] = ""
                kept = hidden_rows
            else:
                user = first[header.index("user_id")]
                kept = [row for row in hidden_rows if row[1] != user]
            with open(broken / "hidden.csv", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(kept)
        elif case == "unconfigured-list-set":
            first[:2] = ["upa", "all"]
        elif case == "malformed-algorithms":
            config["algorithms"] = ["cf", "sup"]
        elif case == "malformed-selections":
            config["attribute_selections"] = [7]
        elif case == "missing-k-values":
            del config["k_values"]
        else:
            config["k_value"] = config["k_values"]
        with open(broken / "lists.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        (broken / "config.json").write_text(json.dumps(config))
        proc = run_cli(
            "compare", "--run-a", str(broken), "--algorithm-a", "cf",
            "--run-b", str(broken), "--algorithm-b", "sup", "--k", "10",
        )
        assert proc.returncode == 1, proc.stderr
        assert f"{broken / location}" in proc.stderr
        assert fragment in proc.stderr

    def test_a_field_error_names_the_config_file_as_run_does(self, finished_run, tmp_path):
        """``run --config`` and ``compare`` report one broken field alike: the
        file, then the problem."""
        config = {**json.loads((finished_run / "config.json").read_text()), "k_values": [0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        run = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        (broken / "config.json").write_text(json.dumps(config))
        compared = compare_cf_sup(broken)
        problem = "k_values must be positive integers, got [0]"
        assert (run.returncode, run.stderr) == (1, f"error: {bad}: {problem}\n")
        assert (compared.returncode, compared.stderr) == (1, f"error: {broken / 'config.json'}: {problem}\n")

    def test_repeated_key_in_a_runs_config_is_exit_1(self, finished_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        text = (broken / "config.json").read_text()
        (broken / "config.json").write_text(text.replace("{", '{\n  "rng_seed": 9,', 1))
        proc = compare_cf_sup(broken)
        assert proc.returncode == 1
        assert f"{broken / 'config.json'}: repeated config key 'rng_seed'" in proc.stderr

    @pytest.mark.parametrize("value, fragment", BEYOND_THE_PARSER, ids=["long-integer", "deep-nesting"])
    def test_json_beyond_the_parsers_limits_in_a_runs_config_is_exit_1(
        self, finished_run, tmp_path, value, fragment
    ):
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        config_path = broken / "config.json"
        config_path.write_text(with_rng_seed(json.loads(config_path.read_text()), value))
        proc = compare_cf_sup(broken)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {config_path}: invalid JSON: ")
        assert fragment in proc.stderr

    def test_selection_name_with_a_line_break_in_a_runs_config_is_exit_1(self, finished_run, tmp_path):
        """The label would reach compare's ``attribute_selection=`` line raw."""
        broken = tmp_path / "broken"
        shutil.copytree(finished_run, broken)
        rows = read_csv(broken / "lists.csv")
        column = rows[0].index("attribute_selection")
        for row in rows[1:]:
            if row[column] == "all":
                row[column] = "ti\ntle"
        write_csv(broken / "lists.csv", rows)
        config = json.loads((broken / "config.json").read_text())
        (broken / "config.json").write_text(json.dumps({**config, "attribute_selections": [["ti\ntle"]]}))
        proc = compare_cf_sup(broken)
        assert proc.returncode == 1, proc.stderr
        assert "attribute selection names must be printable, got ['ti\\ntle']" in proc.stderr
        assert proc.stdout == ""

    def test_one_run_named_twice_is_read_once(self, finished_run, tmp_path, monkeypatch, capsys):
        reads = []
        read_run_lists = cli.read_run_lists

        def counting(run_dir):
            reads.append(run_dir)
            return read_run_lists(run_dir)

        monkeypatch.setattr(cli, "read_run_lists", counting)
        copy = tmp_path / "copy"
        shutil.copytree(finished_run, copy)
        argv = ["compare", "--run-a", str(finished_run), "--algorithm-a", "cf",
                "--algorithm-b", "sup", "--k", "10"]
        assert cli.main([*argv, "--run-b", str(copy)]) == 0
        from_two_dirs = capsys.readouterr().out
        assert len(reads) == 2
        same = f"{finished_run}/."  # another spelling of the same directory
        assert cli.main([*argv, "--run-b", same]) == 0
        from_one_dir = capsys.readouterr().out
        assert len(reads) == 3
        assert from_one_dir.replace(same, str(copy)) == from_two_dirs


class TestUndecodableInput:
    def test_interactions_file_is_exit_1(self, tmp_path):
        p = tmp_path / "latin1.tsv"
        p.write_bytes(b"u1\ta\t5\nu1\tcaf\xe9\t4\n")
        proc = run_cli("stats", "--interactions", str(p))
        assert proc.returncode == 1, proc.stderr
        assert f"{p}:2: not valid UTF-8 at byte offset 13" in proc.stderr

    def test_config_file_is_exit_1(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_bytes(b'{"interactions_path": "caf\xe9.tsv"}')
        proc = run_cli("run", "--config", str(p), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert f"{p}:1: not valid UTF-8 at byte offset 26" in proc.stderr

    def test_content_escaping_a_lone_surrogate_is_exit_1(self, tmp_path):
        """The escaped id copies a recommended item's text; it cannot be
        written as UTF-8, so it must be rejected before any output exists."""
        interactions, content = small_fixture(tmp_path)
        with open(content, "a") as fh:
            doc = {"item_id": "\ud800x", "attributes": {"plot": "t0w1 t0w2 t0w3"}}
            fh.write(json.dumps(doc) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "interactions_path": interactions,
            "content_path": content,
            "algorithms": {"sup": {}},
            "k_values": [5, 10],
            "fold_count": 5,
        }))
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert f"{content}:61:" in proc.stderr
        assert not out.exists()


class TestTrace:
    def test_traced_run_measures_every_target(self, tmp_path):
        """perfbench/traced.py wraps recbench functions through their module
        attributes; a call that bypasses them reads as zero in the benchmark."""
        interactions, content = small_fixture(tmp_path)
        config = {
            "interactions_path": interactions,
            "content_path": content,
            "algorithms": {"cf": {}, "sup": {}, "upa": {}},
            "attribute_selections": ["all", ["plot"]],
            "k_values": [5, 10],
            "fold_count": 5,
            "rng_seed": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        spans, out = tmp_path / "spans.json", tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans),
             "run", "--config", str(config_path), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(spans.read_text())
        assert trace["unmeasured"] == []
        with open(out / "hidden.csv", encoding="utf-8", newline="") as fh:
            test_users = {(row["fold"], row["user_id"]) for row in csv.DictReader(fh)}
        selections = len(config["attribute_selections"])
        assert trace["counts"]["lists.cf"] == len(test_users)
        assert trace["counts"]["lists.sup"] == len(test_users) * selections
        assert trace["counts"]["lists.upa"] == len(test_users) * selections
