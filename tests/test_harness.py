import csv
import json
import math
import random
import weakref
from pathlib import Path

import pytest

from recbench import (
    ConfigurationError,
    ExperimentConfig,
    ExperimentResult,
    ParseError,
    RecbenchError,
    ReportRecord,
    evaluate,
    hit_intersection,
    run_experiment,
    summarize,
    write_run_dir,
)
from recbench.harness import IntersectionRecord, read_run_lists, selection_label
from recbench.recommenders import RecommendationList
from recbench import harness

import synth


def small_fixture(tmp_path, n_users=30, n_items=60, profile_size=24):
    """Write a compact explicit dataset plus matching content to disk."""
    rng = random.Random(101)
    items = [f"i{n:02d}" for n in range(n_items)]
    with open(tmp_path / "interactions.tsv", "w") as fh:
        for u in range(n_users):
            for item in rng.sample(items, profile_size):
                fh.write(f"u{u:02d}\t{item}\t{rng.randint(1, 5)}\n")
    with open(tmp_path / "content.jsonl", "w") as fh:
        for n, item in enumerate(items):
            g = n // 10
            vocab = [f"t{g}w{j}" for j in range(10)]
            words = " ".join(rng.sample(vocab, 5))
            doc = {"item_id": item, "attributes": {"title": f"t{g}w{n % 10} extra", "plot": words}}
            fh.write(json.dumps(doc) + "\n")
    return str(tmp_path / "interactions.tsv"), str(tmp_path / "content.jsonl")


@pytest.fixture
def paths(tmp_path):
    return small_fixture(tmp_path)


def make_config(paths, **overrides):
    base = dict(
        interactions_path=paths[0],
        content_path=paths[1],
        k_values=[5, 10],
        fold_count=5,
        given_n=10,
        min_train_items=10,
        rng_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self, paths, tmp_path):
        cfg = make_config(paths, algorithms={"sup": {"votes_per_item": 7}, "cf": {}})
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg.to_json_dict()))
        loaded = ExperimentConfig.from_json(p)
        assert loaded.to_json_dict() == cfg.to_json_dict()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text('{"interaction_path": "x.tsv"}')
        with pytest.raises(ConfigurationError, match="interaction_path"):
            ExperimentConfig.from_json(p)

    def test_repeated_keys_rejected_at_any_depth(self, paths, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(
            '{"interactions_path": %s, "fold_count": 10, "fold_count": 3,'
            ' "algorithms": {"cf": {}, "cf": {"neighborhood_size": 5, "neighborhood_size": 6}}}'
            % json.dumps(paths[0])
        )
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig.from_json(p)
        assert exc.value.problems == [
            "repeated config key 'neighborhood_size'",
            "repeated config key 'cf'",
            "repeated config key 'fold_count'",
        ]
        assert str(exc.value) == f"{p}: " + "; ".join(exc.value.problems)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentConfig.from_json(p)

    def test_invalid_utf8_is_located(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_bytes(b'{\n  "stopwords_path": "na\xefve.txt"\n}\n')
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig.from_json(p)
        assert f"{p}:2: not valid UTF-8 at byte offset 25" in str(exc.value)

    def test_all_problems_reported_at_once(self, paths):
        cfg = make_config(
            paths,
            interactions_path="/definitely/not/here.tsv",
            algorithms={"knn": {}, "cf": {"neighborhood_size": 0}},
            k_values=[20, 10],
        )
        with pytest.raises(ConfigurationError) as exc:
            cfg.validate()
        message = str(exc.value)
        for fragment in ("interactions_path", "knn", "neighborhood_size", "ascending"):
            assert fragment in message

    def test_content_required_for_cb(self, paths):
        cfg = make_config(paths, content_path=None, algorithms={"upa": {}})
        with pytest.raises(ConfigurationError, match="content_path"):
            cfg.validate()
        # CF alone is fine without content
        make_config(paths, content_path=None, algorithms={"cf": {}}).validate()

    def test_bool_is_not_a_valid_int(self, paths):
        cfg = make_config(paths, algorithms={"cf": {"neighborhood_size": True}})
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_omitted_parameters_run_as_the_fit_defaults(self, paths, tmp_path):
        """A parameter left out takes ``fit_<name>``'s keyword default: the
        run's reports are the bytes of the run that spells every one out."""
        spelled = {
            "cf": {"neighborhood_size": 50, "similarity_metric": "cosine"},
            "upa": {"profile_term_budget": 100},
        }
        for out, algorithms in (("omitted", {"cf": None, "upa": {}}), ("spelled", spelled)):
            cfg = make_config(paths, algorithms=algorithms)
            write_run_dir(run_experiment(cfg), cfg, tmp_path / out)
        for name in ("records.csv", "summary.csv", "intersections.csv", "lists.csv", "hidden.csv"):
            assert (tmp_path / "omitted" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes(), name

    def test_readme_example_passes_the_shared_rules(self, tmp_path):
        """The README's experiment.json names only real fields and breaks no
        rule; only its paths, which need not exist here, go unchecked."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("`experiment.json` mirrors", 1)[1].split("```json\n", 1)[1]
        p = tmp_path / "experiment.json"
        p.write_text(block.split("```", 1)[0], encoding="utf-8")
        raw, problems = ExperimentConfig.read_json(p)
        assert problems == []
        assert ExperimentConfig(**raw).problems() == []

    def test_selection_labels(self):
        assert selection_label("all") == "all"
        assert selection_label(("title", "plot")) == "title+plot"

    @pytest.mark.parametrize(
        "selections, label",
        [
            ([["plot"], ["plot"]], "plot"),
            ([["title+plot"], ["title", "plot"]], "title+plot"),
            (["all", ["all"]], "all"),
        ],
    )
    def test_selections_sharing_a_label_rejected(self, paths, selections, label):
        cfg = make_config(paths, attribute_selections=[["title"], *selections])
        with pytest.raises(ConfigurationError, match=r"entries \[1, 2\] share the report label") as exc:
            cfg.validate()
        assert repr(label) in str(exc.value)


class TestRunExperiment:
    def test_single_algorithm_record_count(self, paths):
        cfg = make_config(paths, algorithms={"sup": {}}, k_values=[10])
        result = run_experiment(cfg)
        # 5 folds x 1 algorithm x 1 selection x 1 k x 4 metrics
        assert len(result.records) == 20
        assert {r.metric for r in result.records} == {"map", "map_nonempty", "ucov", "ccov"}
        assert result.intersections == []

    def test_full_run_shape(self, paths):
        cfg = make_config(paths)
        result = run_experiment(cfg)
        # per-list metrics: 3 algorithms x 5 folds x 2 ks x 4 metrics
        plain = [r for r in result.records if r.metric != "jaccard"]
        assert len(plain) == 3 * 5 * 2 * 4
        pairs = {r.algorithm for r in result.records if r.metric == "jaccard"}
        assert pairs == {"cf_x_sup", "cf_x_upa", "sup_x_upa"}
        assert len(result.intersections) == 3 * 2  # pairs x ks, summed over folds

        test_users_seen = set()
        for fold, hidden in result.hidden.items():
            assert all(len(h) == cfg.given_n for h in hidden.values())
            assert not test_users_seen & set(hidden)
            test_users_seen.update(hidden)
        for (algorithm, label, fold), lists in result.lists.items():
            assert set(lists) == set(result.hidden[fold])
            for lst in lists.values():
                assert len(lst) <= max(cfg.k_values)

    def test_one_index_and_one_split_alive_at_a_time(self, paths, monkeypatch):
        built = {"build_index": [], "materialize_split": []}

        def tracking(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                earlier = built[name]
                assert all(ref() is None for ref in earlier), f"an earlier {name} result is alive"
                result = original(*args, **kwargs)
                earlier.append(weakref.ref(result))
                return result

            monkeypatch.setattr(harness, name, wrapper)

        tracking("build_index")
        tracking("materialize_split")
        cfg = make_config(paths, attribute_selections=["all", ["plot"], ["title"]])
        run_experiment(cfg)
        assert len(built["build_index"]) == 3
        assert len(built["materialize_split"]) == cfg.fold_count

    def test_raw_content_is_released_before_any_index(self, paths, monkeypatch):
        loaded, built = [], []
        load_content, build_index = harness.load_content, harness.build_index

        def loading(path):
            corpus = load_content(path)
            loaded.append(weakref.ref(corpus))
            return corpus

        def building(*args, **kwargs):
            assert [ref() for ref in loaded] == [None], "the loaded content corpus is alive"
            built.append(args[1])
            return build_index(*args, **kwargs)

        monkeypatch.setattr(harness, "load_content", loading)
        monkeypatch.setattr(harness, "build_index", building)
        run_experiment(make_config(paths, attribute_selections=["all", ["plot"], ["title"]]))
        assert built == [("plot", "title"), ("plot",), ("title",)]

    def test_interactions_are_released_before_any_index(self, paths, monkeypatch):
        loaded, built = [], []
        load_interactions, build_index = harness.load_interactions, harness.build_index

        def loading(*args, **kwargs):
            ds = load_interactions(*args, **kwargs)
            loaded.append(weakref.ref(ds))
            return ds

        def building(*args, **kwargs):
            assert [ref() for ref in loaded] == [None], "the interaction dataset is alive"
            built.append(args[1])
            return build_index(*args, **kwargs)

        monkeypatch.setattr(harness, "load_interactions", loading)
        monkeypatch.setattr(harness, "build_index", building)
        run_experiment(make_config(paths, attribute_selections=["all", ["plot"], ["title"]]))
        assert built == [("plot", "title"), ("plot",), ("title",)]

    def test_no_index_is_alive_when_lists_are_evaluated(self, paths, monkeypatch):
        built, evaluated = [], []
        build_index, evaluate = harness.build_index, harness.evaluate

        def building(*args, **kwargs):
            index = build_index(*args, **kwargs)
            built.append(weakref.ref(index))
            return index

        def evaluating(*args, **kwargs):
            assert [ref() for ref in built] == [None] * len(built), "an index is alive"
            evaluated.append(args[3])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(harness, "build_index", building)
        monkeypatch.setattr(harness, "evaluate", evaluating)
        cfg = make_config(paths, attribute_selections=["all", ["plot"], ["title"]])
        run_experiment(cfg)
        assert len(built) == 3
        # 3 algorithms, with sup and upa under each selection, x 5 folds x 2 ks
        assert len(evaluated) == (1 + 2 * 3) * cfg.fold_count * 2

    def test_unknown_attribute_fails_before_any_split(self, paths, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("a fold was split before the selections were checked")

        monkeypatch.setattr(harness, "materialize_split", no_split)
        # every unknown attribute of every selection is named in the one error
        cfg = make_config(paths, attribute_selections=["all", ["title", "nope"], ["zilch"]])
        with pytest.raises(ConfigurationError) as exc:
            run_experiment(cfg)
        assert exc.value.problems == [
            "attribute 'nope' does not occur in any document",
            "attribute 'zilch' does not occur in any document",
        ]

    def test_empty_vocabulary_names_the_selection(self, tmp_path):
        # every protocol_fixture title is a term of its own document only
        data = synth.protocol_fixture()
        data.write_interactions(tmp_path / "interactions.tsv")
        data.write_content(tmp_path / "content.jsonl")
        cfg = make_config(
            (str(tmp_path / "interactions.tsv"), str(tmp_path / "content.jsonl")),
            algorithms={"sup": {}},
            attribute_selections=["all", ["title"]],
            fold_count=3,
        )
        with pytest.raises(ConfigurationError, match=r"selection title: vocabulary is empty"):
            run_experiment(cfg)

    def test_items_without_a_document_are_counted(self, paths, caplog):
        # 7 of the 60 rated items lose their document; a content-only item is no gap
        content = Path(paths[1])
        lines = content.read_text().splitlines(keepends=True)[7:]
        lines.append(json.dumps({"item_id": "extra", "attributes": {"plot": "t0w0 t0w1"}}) + "\n")
        content.write_text("".join(lines))
        with caplog.at_level("INFO", logger="recbench"):
            run_experiment(make_config(paths, algorithms={"upa": {}}, k_values=[5]))
        assert "7 of 60 items have no content document" in caplog.messages

    def test_attribute_selections_run_separately(self, paths):
        cfg = make_config(
            paths,
            algorithms={"upa": {}},
            attribute_selections=["all", ["plot"]],
            k_values=[10],
        )
        result = run_experiment(cfg)
        labels = {r.attribute_selection for r in result.records}
        assert labels == {"all", "plot"}

    def test_same_seed_reproduces_records(self, paths):
        cfg = make_config(paths, algorithms={"cf": {}, "sup": {}}, k_values=[5])
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records
        assert a.intersections == b.intersections

    def test_different_seed_changes_partition(self, paths):
        a = run_experiment(make_config(paths, algorithms={"cf": {}}, rng_seed=1))
        b = run_experiment(make_config(paths, algorithms={"cf": {}}, rng_seed=2))
        assert a.hidden != b.hidden


class TestEmitters:
    @pytest.fixture
    def records(self):
        return [
            ReportRecord("cf", "-", f, 10, "map", 0.2 + 0.2 * f) for f in range(2)
        ] + [
            ReportRecord("cf", "-", f, 20, "map", 0.3 + 0.2 * f) for f in range(2)
        ]

    @staticmethod
    def write(records, out, intersections=()):
        """Write a run directory holding ``records`` (shuffled, as a run may
        hand them over) and ``intersections``, and no lists."""
        records = list(records)
        random.Random(5).shuffle(records)
        result = ExperimentResult(
            records=records, intersections=list(intersections), lists={}, hidden={}, catalog=()
        )
        cfg = ExperimentConfig(interactions_path="unused.tsv", algorithms={"cf": {}}, k_values=[10, 20])
        write_run_dir(result, cfg, out)
        return out

    def test_csv_report_round_trips_floats(self, records, tmp_path):
        p = self.write(records, tmp_path / "run") / "records.csv"
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        by_key = {(r["fold"], r["k"]): float(r["value"]) for r in rows}
        assert by_key[("1", "10")] == 0.2 + 0.2
        # fixed ordering: fold advances before k
        assert [(r["fold"], r["k"]) for r in rows] == [
            ("0", "10"), ("0", "20"), ("1", "10"), ("1", "20")
        ]

    def test_json_report(self, records, tmp_path):
        p = self.write(records, tmp_path / "run") / "records.json"
        payload = json.loads(p.read_text())
        assert payload[0] == {
            "algorithm": "cf", "attribute_selection": "-", "fold": 0, "k": 10, "metric": "map", "value": 0.2
        }
        assert [(r["fold"], r["k"]) for r in payload] == [(0, 10), (0, 20), (1, 10), (1, 20)]
        assert payload[2]["value"] == 0.2 + 0.2

    def test_summarize_means_and_population_std(self, records):
        rows = summarize(records)
        assert [r[:4] for r in rows] == [("cf", "-", 10, "map"), ("cf", "-", 20, "map")]
        mean, std = rows[0][4], rows[0][5]
        assert math.isclose(mean, 0.3, rel_tol=1e-12)
        assert math.isclose(std, 0.1, rel_tol=1e-12)

    def test_summarize_mean_sums_fold_values_in_order(self):
        """Left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum
        (``sum()`` from Python 3.12) would give a mean of 1/3 instead."""
        records = [ReportRecord("cf", "-", f, 10, "map", v) for f, v in enumerate([1e16, 1.0, -1e16])]
        assert summarize(records)[0][4] == 0.0

    def test_summarize_std_is_correctly_rounded(self):
        """Fold values 0, 0, 0, 0, 1/4, 3/4 have variance 11/144, so the std is
        sqrt(11)/12 = 0.27638539919628332076..., between the doubles
        0.276385399196283298995... and 0.276385399196283354506...; the first
        is nearer. Rounding the variance to a float before its square root
        (``statistics.pstdev`` before Python 3.11) gives the second."""
        records = [ReportRecord("cf", "-", f, 10, "map", v) for f, v in enumerate([0, 0, 0, 0, 0.25, 0.75])]
        assert summarize(records)[0][5] == 0.2763853991962833
        assert math.sqrt(11 / 144) == 0.27638539919628335
        one = [ReportRecord("cf", "-", 0, 10, "map", 0.3)]
        assert summarize(one)[0][5] == 0.0

    def test_plot_data_blocks(self, records, tmp_path):
        inter = [
            IntersectionRecord("cf", "sup", "all", 10, 3, 4, 5),
            IntersectionRecord("cf", "sup", "all", 20, 6, 7, 8),
        ]
        text = (self.write(records, tmp_path / "run", inter) / "plot_data.csv").read_text()
        assert "# series algorithm=cf attribute_selection=- metric=map" in text
        assert "# series algorithm=cf_x_sup attribute_selection=all metric=common" in text
        assert "10,5\n20,8" in text


class TestRunDir:
    def test_writes_expected_files(self, paths, tmp_path):
        cfg = make_config(paths, algorithms={"cf": {}, "upa": {}})
        result = run_experiment(cfg)
        out = tmp_path / "run"
        written = write_run_dir(result, cfg, out)
        assert set(written) == {
            "records.csv", "records.json", "summary.csv", "intersections.csv",
            "plot_data.csv", "lists.csv", "hidden.csv", "config.json",
        }
        for name in written:
            assert (out / name).is_file()
        # the config echo is itself a loadable config
        loaded = ExperimentConfig.from_json(out / "config.json")
        assert loaded.k_values == cfg.k_values

    def test_metric_names_are_the_reports_own(self, paths, tmp_path):
        """``evaluate`` and ``hit_intersection`` name each measure as the run
        directory does: every key ``evaluate`` returns is a ``metric`` of
        ``records.csv`` holding that value, and ``hit_intersection``'s keys are
        ``intersections.csv``'s count columns, in column order."""
        cfg = make_config(paths, algorithms={"cf": {}, "upa": {}})
        result = run_experiment(cfg)
        out = tmp_path / "run"
        write_run_dir(result, cfg, out)
        with open(out / "records.csv", newline="") as fh:
            values = {
                (r["algorithm"], r["attribute_selection"], int(r["fold"]), int(r["k"]), r["metric"]): r["value"]
                for r in csv.DictReader(fh)
            }
        catalog = set(result.catalog)
        for (algorithm, label, fold), lists in result.lists.items():
            for k in cfg.k_values:
                report = evaluate(lists, result.hidden[fold], catalog, k)
                assert list(report) == ["map", "map_nonempty", "ucov", "ccov"]
                for metric, value in report.items():
                    assert values[algorithm, label, fold, k, metric] == repr(value)

        with open(out / "intersections.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        count_columns = list(IntersectionRecord._fields[4:])
        assert rows[0][4:] == count_columns
        k = cfg.k_values[0]
        totals = {name: 0 for name in count_columns}
        for fold, hidden in result.hidden.items():
            counts = hit_intersection(result.lists["cf", "-", fold], result.lists["upa", "all", fold], hidden, k)
            assert list(counts) == count_columns
            for name, count in counts.items():
                totals[name] += count
        assert ["cf", "upa", "all", str(k), *map(str, totals.values())] in rows

    def test_single_k_skips_plot(self, paths, tmp_path):
        cfg = make_config(paths, algorithms={"cf": {}}, k_values=[10])
        result = run_experiment(cfg)
        written = write_run_dir(result, cfg, tmp_path / "run")
        assert "plot_data.csv" not in written
        assert not (tmp_path / "run" / "plot_data.csv").exists()

    def test_reused_directory_drops_stale_plot_data(self, paths, tmp_path):
        out = tmp_path / "run"
        two_ks = make_config(paths, algorithms={"cf": {}}, k_values=[5, 10])
        write_run_dir(run_experiment(two_ks), two_ks, out)
        assert (out / "plot_data.csv").is_file()
        one_k = make_config(paths, algorithms={"cf": {}}, k_values=[10])
        written = write_run_dir(run_experiment(one_k), one_k, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
        assert "plot_data.csv" not in written

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(algorithms={"cf": {}}, attribute_selections=[]),
            dict(algorithms={"cf": {}}),
            dict(algorithms={"cf": {}, "sup": {}}, attribute_selections=["all", ["plot"]]),
            dict(algorithms={"sup": {}, "upa": {}}),
        ],
        ids=["cf-no-selection", "cf-default-selections", "cf-sup-two-selections", "sup-upa"],
    )
    def test_reader_restores_the_written_list_sets(self, paths, tmp_path, overrides):
        cfg = make_config(paths, **overrides)
        result = run_experiment(cfg)
        write_run_dir(result, cfg, tmp_path / "run")
        lists, _ = read_run_lists(tmp_path / "run")
        assert set(lists) == {(a, label) for a, label, _ in result.lists}

    def test_lists_round_trip_including_empty(self, tmp_path):
        lists = {
            ("cf", "-", 0): {
                "u1": RecommendationList("u1", (("a", 2.0), ("b", 1.5)), target_k=5),
                "u2": RecommendationList("u2", (), target_k=5),
            },
            ("cf", "-", 1): {
                "u3": RecommendationList("u3", (("c", 1 / 3),), target_k=5),
            },
        }
        hidden = {
            0: {"u1": frozenset({"x"}), "u2": frozenset({"y"})},
            1: {"u3": frozenset({"c", "z"})},
        }
        records = [ReportRecord("cf", "-", 0, 5, "map", 0.0)]
        result = ExperimentResult(
            records=records, intersections=[], lists=lists, hidden=hidden, catalog=("a",)
        )
        cfg = ExperimentConfig(interactions_path="unused.tsv", algorithms={"cf": {}})
        out = tmp_path / "run"
        write_run_dir(result, cfg, out)

        read_lists, read_hidden = read_run_lists(out)
        pooled = read_lists[("cf", "-")]
        assert pooled["u1"].entries == (("a", 2.0), ("b", 1.5))
        assert pooled["u2"].entries == ()
        assert pooled["u3"].entries == (("c", 1 / 3),)  # repr round-trips exactly
        # the lists were cut at the run's largest k, which config.json records
        assert {lst.target_k for lst in pooled.values()} == {max(cfg.k_values)}
        assert read_hidden == {"u1": {"x"}, "u2": {"y"}, "u3": {"c", "z"}}

    def test_a_user_in_two_folds_is_rejected(self, tmp_path):
        # a run places each test user in one fold; pooling the folds would
        # silently merge the two hidden sets into one
        lists = {("cf", "-", fold): {"u1": RecommendationList("u1", (), target_k=5)} for fold in (0, 1)}
        hidden = {0: {"u1": frozenset({"x"})}, 1: {"u1": frozenset({"y"})}}
        result = ExperimentResult(records=[], intersections=[], lists=lists, hidden=hidden, catalog=("x",))
        cfg = ExperimentConfig(interactions_path="unused.tsv", algorithms={"cf": {}})
        write_run_dir(result, cfg, tmp_path / "run")
        with pytest.raises(RecbenchError, match=r"hidden.csv:3: user 'u1' is in fold 1 here but in fold 0 above"):
            read_run_lists(tmp_path / "run")


def _with(line, column, value):
    """An edit of a CSV file's rows that sets ``column`` of the physical
    ``line`` (the header is line 1) to ``value``."""

    def edit(rows):
        rows = [list(row) for row in rows]
        rows[line - 1][rows[0].index(column)] = value
        return rows

    return edit


class TestRunDirErrors:
    """Every located error of ``read_run_lists`` is a ``ParseError`` whose
    ``.path`` names the file and ``.line`` the row, or ``None`` for a rule on
    the whole file or list."""

    @pytest.fixture
    def run(self, tmp_path):
        # lists.csv: header, u1 rank 1 and 2 (lines 2-3), u2 (line 4), u3 (line 5);
        # hidden.csv: header, u1, u2, then u3's two items (lines 2-5)
        lists = {
            ("cf", "-", 0): {
                "u1": RecommendationList("u1", (("a", 2.0), ("b", 1.5)), target_k=2),
                "u2": RecommendationList("u2", (("c", 1.0),), target_k=2),
            },
            ("cf", "-", 1): {"u3": RecommendationList("u3", (("c", 0.5),), target_k=2)},
        }
        hidden = {0: {"u1": frozenset({"x"}), "u2": frozenset({"y"})}, 1: {"u3": frozenset({"c", "z"})}}
        result = ExperimentResult(records=[], intersections=[], lists=lists, hidden=hidden, catalog=("a",))
        cfg = ExperimentConfig(interactions_path="unused.tsv", algorithms={"cf": {}}, k_values=[2])
        write_run_dir(result, cfg, tmp_path / "run")
        return tmp_path / "run"

    @pytest.mark.parametrize(
        "edited, edit, named, line",
        [
            pytest.param("lists.csv", _with(3, "rank", "3"), "lists.csv", 3, id="rank-gap"),
            pytest.param("lists.csv", _with(3, "item_id", "a"), "lists.csv", 3, id="repeated-item"),
            pytest.param("lists.csv", _with(2, "item_id", ""), "lists.csv", 2, id="empty-item"),
            pytest.param("lists.csv", _with(3, "score", "nan"), "lists.csv", 3, id="nan-score"),
            pytest.param("lists.csv", _with(4, "rank", "first"), "lists.csv", 4, id="non-integer-rank"),
            pytest.param(
                "lists.csv", lambda rows: [*rows, ["cf", "-", "0", "u1", "3", "d", "1.0"]], "lists.csv", 6,
                id="row-past-largest-k",
            ),
            pytest.param(
                "lists.csv", lambda rows: [*rows[:2], [*rows[2], "extra"], *rows[3:]], "lists.csv", 3,
                id="field-count-mismatch",
            ),
            pytest.param("lists.csv", _with(1, "score", "points"), "lists.csv", 1, id="missing-column"),
            pytest.param("lists.csv", _with(5, "algorithm", "upa"), "lists.csv", 5, id="unknown-list"),
            pytest.param("lists.csv", _with(4, "fold", "1"), "lists.csv", 4, id="row-in-another-fold"),
            pytest.param(
                "hidden.csv", _with(3, "item_id", "x" * (csv.field_size_limit() + 1)), "hidden.csv", 3,
                id="field-over-the-csv-limit",
            ),
            pytest.param(
                "hidden.csv", lambda rows: [*rows, ["1", "u1", "w"]], "hidden.csv", 6, id="user-in-two-folds"
            ),
            pytest.param("hidden.csv", _with(2, "item_id", ""), "hidden.csv", 2, id="empty-hidden-item"),
            pytest.param("hidden.csv", lambda rows: rows[:1], "hidden.csv", None, id="no-hidden-rows"),
            # the empty user's list has no row to name
            pytest.param(
                "hidden.csv", lambda rows: [*rows, ["0", "", "q"]], "lists.csv", None, id="empty-hidden-user"
            ),
        ],
    )
    def test_a_malformed_run_directory_raises_a_located_parse_error(self, run, edited, edit, named, line):
        with open(run / edited, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(run / edited, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(edit(rows))
        with pytest.raises(ParseError) as exc:
            read_run_lists(run)
        assert (exc.value.path, exc.value.line) == (str(run / named), line)
        where = f"{run / named}:" if line is None else f"{run / named}:{line}:"
        assert str(exc.value).startswith(f"{where} ")
