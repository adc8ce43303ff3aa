"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints an ``ACCEPTANCE n ...:
PASS`` / ``FAIL`` line (visible with ``pytest -s``). The suite combines exact
formula identities, brute-force oracle equivalence, qualitative behaviour on
generated datasets, and full-run determinism, with wall-clock budgets on the
heavier checks.
"""

import contextlib
import math
import random
import time

import pytest

from recbench import (
    ExperimentConfig,
    UserProfile,
    build_index,
    evaluate,
    fit_cf,
    fit_sup,
    fit_upa,
    hit_intersection,
    jaccard_list_similarity,
    load_interactions,
    materialize_split,
    plan_splits,
    recommend_cf,
    recommend_sup,
    recommend_upa,
    run_experiment,
    write_run_dir,
)
from recbench.corpus import ContentCorpus, DatasetStats, compute_stats
from recbench.recommenders import RecommendationList
from conftest import as_term_dicts, dataset
from oracles import (
    oracle_ap,
    oracle_ccov,
    oracle_hits,
    oracle_jaccard,
    oracle_map,
    oracle_sup,
    oracle_ucov,
    oracle_upa,
)
import synth


@contextlib.contextmanager
def criterion(number, label):
    """Print one PASS/FAIL line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} {label}: PASS", flush=True)


def fold_mean(records, algorithm, metric, k):
    values = [
        r.value
        for r in records
        if r.algorithm == algorithm and r.metric == metric and r.k == k
    ]
    assert values, f"no {metric} records for {algorithm} at k={k}"
    return sum(values) / len(values)


def ranked(user, items, k):
    entries = tuple((item, float(len(items) - n)) for n, item in enumerate(items))
    return RecommendationList(user, entries, target_k=k)


# ---------------------------------------------------------------------------
# shared experiment runs (each preset is generated and run once per session)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sparse_run(tmp_path_factory):
    started = time.perf_counter()
    data = synth.sparse_implicit()
    root = tmp_path_factory.mktemp("sparse")
    interactions = root / "interactions.tsv"
    content = root / "content.jsonl"
    data.write_interactions(interactions)
    data.write_content(content)
    stats = compute_stats(load_interactions(interactions, format="implicit"))
    config = ExperimentConfig(
        interactions_path=str(interactions),
        interactions_format="implicit",
        content_path=str(content),
        algorithms={"cf": {}, "sup": {}, "upa": {}},
        k_values=[10],
        fold_count=5,
        rng_seed=0,
    )
    config.validate()
    result = run_experiment(config)
    return stats, result, time.perf_counter() - started


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    data = synth.dense()
    root = tmp_path_factory.mktemp("dense")
    interactions = root / "interactions.tsv"
    content = root / "content.jsonl"
    data.write_interactions(interactions)
    data.write_content(content)
    config = ExperimentConfig(
        interactions_path=str(interactions),
        content_path=str(content),
        algorithms={"cf": {}, "sup": {"votes_per_item": 15}, "upa": {}},
        k_values=[10, 20, 30, 50, 100],
        fold_count=10,
        rng_seed=0,
    )
    config.validate()
    return run_experiment(config)


@pytest.fixture(scope="module")
def cluster_run(tmp_path_factory):
    data = synth.two_cluster()
    root = tmp_path_factory.mktemp("cluster")
    interactions = root / "interactions.tsv"
    content = root / "content.jsonl"
    data.write_interactions(interactions)
    data.write_content(content)
    config = ExperimentConfig(
        interactions_path=str(interactions),
        content_path=str(content),
        algorithms={"sup": {}, "upa": {}},
        k_values=[10],
        fold_count=5,
        rng_seed=0,
    )
    config.validate()
    return config, run_experiment(config)


# ---------------------------------------------------------------------------
# 1. dataset statistics
# ---------------------------------------------------------------------------


def _random_dataset(rng):
    n_users = rng.randint(2, 12)
    n_items = rng.randint(2, 15)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items)]
    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
    return dataset((f"u{u}", f"i{i}", rng.randint(1, 5)) for u, i in chosen)


def _check_stats_identities(ds):
    stats = compute_stats(ds)
    per_user = {}
    per_item = {}
    n_rows = 0
    for user in ds.users:
        if user in ds.profiles:
            profile = ds.profiles[user]
            if profile:
                per_user[user] = len(profile)
                n_rows += len(profile)
                for item in profile:
                    per_item[item] = per_item.get(item, 0) + 1
    n_users, n_items = len(ds.users), len(ds.items)
    assert stats.n_users == n_users
    assert stats.n_items == n_items
    assert stats.n_activities == n_rows
    assert abs(stats.items_per_user_ratio - n_items / n_users) <= 1e-12
    assert abs(stats.avg_items_per_user - n_rows / n_users) <= 1e-12
    assert abs(stats.avg_users_per_item - n_rows / n_items) <= 1e-12
    assert abs(stats.sparsity - (1.0 - n_rows / (n_users * n_items))) <= 1e-12
    assert stats.max_items_per_user == max(per_user.values())
    assert stats.min_items_per_user == min(per_user.values())
    assert stats.max_users_per_item == max(per_item.values())
    assert stats.min_users_per_item == min(per_item.values())
    assert stats.min_items_per_user <= stats.avg_items_per_user <= stats.max_items_per_user


def test_1_dataset_statistics(tmp_path):
    with criterion(1, "dataset statistics"):
        started = time.perf_counter()

        movielens = DatasetStats.from_counts(6038, 3533, 575279, 1435, 1, 2853, 1)
        assert abs(movielens.sparsity - 0.9730) <= 1e-4
        assert abs(movielens.avg_items_per_user - 95.2764) <= 1e-3

        for name, data in (("cluster", synth.two_cluster()), ("fixture", synth.protocol_fixture())):
            path = tmp_path / f"{name}.tsv"
            data.write_interactions(path)
            _check_stats_identities(load_interactions(path))

        rng = random.Random(2024)
        for _ in range(25):
            _check_stats_identities(_random_dataset(rng))

        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. metric oracle equivalence
# ---------------------------------------------------------------------------

INSTANCE_ITEMS = tuple(f"x{j}" for j in range(8))


def _random_lists(rng, users, k):
    lists = {}
    for user in users:
        size = rng.randint(0, min(k, len(INSTANCE_ITEMS)))
        lists[user] = ranked(user, rng.sample(INSTANCE_ITEMS, size), k)
    return lists


def test_2_metric_oracle_equivalence():
    with criterion(2, "metric oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(515)
        catalog = set(INSTANCE_ITEMS)
        for _ in range(1000):
            users = [f"u{j}" for j in range(rng.randint(1, 5))]
            k = rng.randint(1, 8)
            hidden = {
                u: frozenset(rng.sample(INSTANCE_ITEMS, rng.randint(1, 3))) for u in users
            }
            lists_a = _random_lists(rng, users, k)
            lists_b = _random_lists(rng, users, k)
            ids_a = {u: lists_a[u].item_ids() for u in users}
            ids_b = {u: lists_b[u].item_ids() for u in users}

            report = evaluate(lists_a, hidden, catalog, k)
            assert abs(report["map"] - oracle_map(ids_a, hidden, k)) <= 1e-12
            assert abs(report["ucov"] - oracle_ucov(ids_a, k)) <= 1e-12
            assert abs(report["ccov"] - oracle_ccov(ids_a, catalog, k)) <= 1e-12

            similarity = jaccard_list_similarity(lists_a, lists_b, k)
            assert abs(similarity - oracle_jaccard(ids_a, ids_b, k)) <= 1e-12

            overlap = hit_intersection(lists_a, lists_b, hidden, k)
            hits_a = oracle_hits(ids_a, hidden, k)
            hits_b = oracle_hits(ids_b, hidden, k)
            assert overlap["common"] == len(hits_a & hits_b)
            assert overlap["exclusive_a"] == len(hits_a - hits_b)
            assert overlap["exclusive_b"] == len(hits_b - hits_a)
        assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 3. trivial bounds
# ---------------------------------------------------------------------------


def test_3_trivial_bounds():
    with criterion(3, "trivial metric bounds"):
        users = [f"u{j}" for j in range(4)]
        hidden = {u: frozenset({f"h{u}{n}" for n in range(3)}) for u in users}
        perfect = {u: ranked(u, sorted(hidden[u]), 3) for u in users}
        catalog = {i for s in hidden.values() for i in s} | {"pad"}
        report = evaluate(perfect, hidden, catalog, 3)
        assert report["map"] == 1.0
        assert report["ucov"] == 1.0

        assert jaccard_list_similarity(perfect, perfect, 3) == 1.0
        overlap = hit_intersection(perfect, perfect, hidden, 3)
        assert overlap["exclusive_a"] == 0 and overlap["exclusive_b"] == 0
        assert overlap["common"] == sum(len(s) for s in hidden.values())


# ---------------------------------------------------------------------------
# 4. recommender oracle equivalence
# ---------------------------------------------------------------------------


def _random_content(rng, n_items):
    pool = [f"w{j:02d}" for j in range(12)]
    docs = {}
    for n in range(n_items):
        words = rng.choices(pool, k=rng.randint(3, 12))
        docs[f"i{n:02d}"] = {"text": " ".join(words)}
    return ContentCorpus(docs)


def test_4_recommender_oracle_equivalence():
    with criterion(4, "recommender oracle equivalence"):
        rng = random.Random(846)
        for _ in range(100):
            corpus = _random_content(rng, rng.randint(10, 50))
            index = build_index(corpus, ("text",))
            vectors = as_term_dicts(index)
            ids = sorted(vectors)
            profile_ids = rng.sample(ids, rng.randint(1, 5))
            user = UserProfile("u", {i: None for i in profile_ids})
            k = rng.randint(1, 12)
            budget = rng.randint(1, 8)
            votes = rng.randint(1, 6)

            upa = recommend_upa(fit_upa(index, profile_term_budget=budget), user, k)
            assert list(upa.entries) == oracle_upa(vectors, profile_ids, budget, k)

            sup = recommend_sup(fit_sup(index, votes_per_item=votes), user, k)
            assert list(sup.entries) == oracle_sup(vectors, profile_ids, votes, k)

        train = dataset(
            (
                ("u1", "i1", 5.0),
                ("u1", "i2", 3.0),
                ("u1", "i4", 1.0),
                ("u2", "i1", 4.0),
                ("u2", "i3", 4.0),
                ("u3", "i2", 2.0),
                ("u3", "i4", 5.0),
                ("u4", "i1", 1.0),
                ("u4", "i5", 5.0),
            )
        )
        model = fit_cf(train)
        s12 = 20.0 / math.sqrt(35.0 * 32.0)
        s14 = 5.0 / math.sqrt(35.0 * 26.0)
        s24 = 4.0 / math.sqrt(32.0 * 26.0)

        def matches(entries, expected):
            assert len(entries) == len(expected)
            for (item, score), (want_item, want_score) in zip(entries, expected):
                assert item == want_item
                assert math.isclose(score, want_score, rel_tol=1e-12, abs_tol=1e-15)

        u1 = recommend_cf(model, UserProfile("u1", train.profiles["u1"]), 5)
        matches(u1.entries, [("i3", 4.0 * s12), ("i5", 5.0 * s14)])
        u4 = recommend_cf(model, UserProfile("u4", train.profiles["u4"]), 5)
        matches(u4.entries, [("i3", 4.0 * s24), ("i2", 3.0 * s14), ("i4", 1.0 * s14)])


# ---------------------------------------------------------------------------
# 5. coverage contrast on sparse implicit data
# ---------------------------------------------------------------------------


def test_5_sparse_coverage_contrast(sparse_run):
    with criterion(5, "coverage contrast on sparse data"):
        stats, result, elapsed = sparse_run
        assert stats.sparsity >= 0.999
        assert stats.n_items >= 500
        assert fold_mean(result.records, "sup", "ucov", 10) == 1.0
        assert fold_mean(result.records, "upa", "ucov", 10) == 1.0
        assert fold_mean(result.records, "cf", "ucov", 10) < 0.5
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. catalog coverage ordering on dense data
# ---------------------------------------------------------------------------


def test_6_dense_catalog_coverage_ordering(dense_run):
    with criterion(6, "catalog coverage ordering on dense data"):
        k_values = (10, 20, 30, 50, 100)
        for k in k_values:
            cf = fold_mean(dense_run.records, "cf", "ccov", k)
            sup = fold_mean(dense_run.records, "sup", "ccov", k)
            upa = fold_mean(dense_run.records, "upa", "ccov", k)
            assert upa > sup > cf, f"k={k}: upa={upa:.4f} sup={sup:.4f} cf={cf:.4f}"
        for algorithm in ("cf", "sup", "upa"):
            by_fold = {}
            for r in dense_run.records:
                if r.algorithm == algorithm and r.metric == "ccov":
                    by_fold.setdefault(r.fold, {})[r.k] = r.value
            for fold, values in by_fold.items():
                series = [values[k] for k in k_values]
                assert series == sorted(series), f"{algorithm} fold {fold}: {series}"


# ---------------------------------------------------------------------------
# 7. precision against a random-ranker baseline
# ---------------------------------------------------------------------------


def _random_ranker_map(config, result, k):
    ds = load_interactions(config.interactions_path, format=config.interactions_format)
    plan = plan_splits(
        ds,
        fold_count=config.fold_count,
        given_n=config.given_n,
        min_train_items=config.min_train_items,
        rng_seed=config.rng_seed,
    )
    catalog = set(result.catalog)
    fold_maps = []
    for fold in range(plan.fold_count):
        split = materialize_split(ds, plan, fold)
        ap_values = []
        for user in plan.users_in_fold(fold):
            candidates = sorted(catalog - set(split.train.profiles[user]))
            rng = random.Random(f"baseline:{fold}:{user}")
            sample = rng.sample(candidates, min(k, len(candidates)))
            ap_values.append(oracle_ap(sample, split.hidden[user], k))
        fold_maps.append(sum(ap_values) / len(ap_values))
    return sum(fold_maps) / len(fold_maps)


def test_7_precision_vs_baselines(cluster_run, sparse_run):
    with criterion(7, "precision against baselines"):
        config, result = cluster_run
        baseline = _random_ranker_map(config, result, 10)
        assert baseline > 0.0
        for algorithm in ("sup", "upa"):
            score = fold_mean(result.records, algorithm, "map", 10)
            assert score >= 5.0 * baseline, f"{algorithm}: {score:.4f} vs baseline {baseline:.4f}"

        _, sparse_result, _ = sparse_run
        cf_map = fold_mean(sparse_result.records, "cf", "map", 10)
        assert fold_mean(sparse_result.records, "sup", "map", 10) > cf_map
        assert fold_mean(sparse_result.records, "upa", "map", 10) > cf_map


# ---------------------------------------------------------------------------
# 8. protocol integrity and determinism
# ---------------------------------------------------------------------------


def test_8_protocol_integrity_and_determinism(tmp_path):
    with criterion(8, "protocol integrity and determinism"):
        started = time.perf_counter()
        data = synth.protocol_fixture()
        interactions = tmp_path / "interactions.tsv"
        content = tmp_path / "content.jsonl"
        data.write_interactions(interactions)
        data.write_content(content)

        ds = load_interactions(interactions)
        config = ExperimentConfig(
            interactions_path=str(interactions),
            content_path=str(content),
            algorithms={"cf": {}, "sup": {}, "upa": {}},
            k_values=[10, 20],
            fold_count=10,
            rng_seed=0,
        )
        config.validate()

        plan = plan_splits(
            ds,
            fold_count=config.fold_count,
            given_n=config.given_n,
            min_train_items=config.min_train_items,
            rng_seed=config.rng_seed,
        )
        threshold = config.given_n + config.min_train_items
        eligible = {u for u in ds.users if ds.profiles[u] and len(ds.profiles[u]) >= threshold}
        assert set(plan.folds) == eligible
        assert sum(len(plan.users_in_fold(f)) for f in range(plan.fold_count)) == len(eligible)

        for fold in range(plan.fold_count):
            split = materialize_split(ds, plan, fold)
            assert split.train.users == ds.users
            assert split.train.items == ds.items
            for user in plan.users_in_fold(fold):
                profile = set(ds.profiles[user])
                hidden = split.hidden[user]
                train_items = set(split.train.profiles[user])
                assert len(hidden) == config.given_n
                assert hidden <= profile
                assert train_items == profile - hidden
                assert len(train_items) >= config.min_train_items
            for user in ds.users:
                if user not in eligible and user in ds.profiles:
                    assert set(split.train.profiles[user]) == set(ds.profiles[user])

        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        names_a = write_run_dir(run_experiment(config), config, out_a)
        names_b = write_run_dir(run_experiment(config), config, out_b)
        assert sorted(names_a) == sorted(names_b)
        for name in sorted(names_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

        assert time.perf_counter() - started < 60.0
