import csv
import json
import math
import random
import weakref

import pytest

from recbench import (
    ConfigurationError,
    ExperimentConfig,
    ExperimentResult,
    IntersectionRecord,
    RecommendationList,
    ReportRecord,
    emit_plot_data,
    emit_report,
    read_run_lists,
    run_experiment,
    selection_label,
    summarize,
    write_run_dir,
)
from recbench import harness


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

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentConfig.from_json(p)

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

    def test_defaults_fill_in(self, paths):
        cfg = make_config(paths, algorithms={"cf": None, "upa": {"profile_term_budget": 9}})
        resolved = cfg.resolved_algorithms()
        assert resolved["cf"]["neighborhood_size"] == 50
        assert resolved["cf"]["similarity_metric"] == "cosine"
        assert resolved["upa"]["profile_term_budget"] == 9
        assert "sup" not in resolved

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

    def test_unknown_attribute_fails_before_any_split(self, paths, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("a fold was split before the selections were checked")

        monkeypatch.setattr(harness, "materialize_split", no_split)
        cfg = make_config(paths, attribute_selections=["all", ["nope"]])
        with pytest.raises(ConfigurationError, match="'nope' does not occur"):
            run_experiment(cfg)

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

    def test_csv_report_round_trips_floats(self, records, tmp_path):
        p = tmp_path / "records.csv"
        emit_report(records, p, "csv")
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
        p = tmp_path / "records.json"
        emit_report(records, p, "json")
        payload = json.loads(p.read_text())
        assert payload[0]["algorithm"] == "cf"
        assert payload[0]["value"] == 0.2

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "r.csv")

    def test_bad_format_rejected(self, records, tmp_path):
        with pytest.raises(ValueError):
            emit_report(records, tmp_path / "r.xml", "xml")

    def test_summarize_means_and_population_std(self, records):
        rows = summarize(records)
        assert [r[:4] for r in rows] == [("cf", "-", 10, "map"), ("cf", "-", 20, "map")]
        mean, std = rows[0][4], rows[0][5]
        assert math.isclose(mean, 0.3, rel_tol=1e-12)
        assert math.isclose(std, 0.1, rel_tol=1e-12)

    def test_plot_data_blocks(self, records, tmp_path):
        inter = [
            IntersectionRecord("cf", "sup", "all", 10, 3, 4, 5),
            IntersectionRecord("cf", "sup", "all", 20, 6, 7, 8),
        ]
        p = tmp_path / "plot.csv"
        emit_plot_data(records, p, inter)
        text = p.read_text()
        assert "# series algorithm=cf attribute_selection=- metric=map" in text
        assert "# series algorithm=cf_x_sup attribute_selection=all metric=common" in text
        assert "10,5\n20,8" in text

    def test_plot_data_needs_two_ks(self, tmp_path):
        only_one = [ReportRecord("cf", "-", 0, 10, "map", 0.5)]
        with pytest.raises(ConfigurationError):
            emit_plot_data(only_one, tmp_path / "plot.csv")


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
