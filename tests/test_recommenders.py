import math
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbench import (
    ColdStartError,
    UserProfile,
    build_index,
    fit_cf,
    fit_sup,
    fit_upa,
    load_interactions,
    materialize_split,
    plan_splits,
    recommend_cf,
    recommend_sup,
    recommend_upa,
)
from recbench import recommenders
from recbench.corpus import ContentCorpus
from recbench.recommenders import RecommendationList
from recbench.textproc import top_k_similar

from conftest import as_term_dicts, dataset
from oracles import oracle_cf, oracle_cf_neighbors, oracle_cf_similarity, oracle_sup, oracle_upa
import synth


def _profile(model_ds, user):
    return UserProfile(user, model_ds.profiles[user])


class TestUserProfile:
    def test_built_from_training_ratings(self, ratings_4x5):
        p = UserProfile("u2", ratings_4x5.profiles["u2"])
        assert p.items == {"i1": 4.0, "i3": 4.0}

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            UserProfile("u", {})


class TestRecommendationList:
    def test_scores_must_not_increase(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RecommendationList("u", (("a", 1.0), ("b", 2.0)), target_k=5)

    @pytest.mark.parametrize(
        "scores", [(1.0, math.nan, 3.0), (math.nan,), (math.inf, 1.0), (2.0, -math.inf)], ids=str
    )
    def test_non_finite_scores_rejected(self, scores):
        # every comparison with a NaN is false, so the order check alone passes (1.0, nan, 3.0)
        entries = [(f"i{n}", score) for n, score in enumerate(scores)]
        with pytest.raises(ValueError, match=r"score of item 'i\d' is not finite"):
            RecommendationList("u", entries, target_k=5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RecommendationList("u", (("a", 1.0), ("a", 0.5)), target_k=5)

    def test_cannot_exceed_target(self):
        with pytest.raises(ValueError):
            RecommendationList("u", (("a", 1.0), ("b", 0.5)), target_k=1)

    @pytest.mark.parametrize(
        "second, target_k, message",
        [
            (("b", 0.5), 1, "2 entries exceed target_k=1"),
            (("", 0.5), 5, "item_id must be a non-empty string"),
            (("a", 0.5), 5, "duplicate item 'a'"),
            (("b", math.nan), 5, "score of item 'b' is not finite: nan"),
            (("b", 2.0), 5, "scores must be non-increasing"),
        ],
        ids=["count", "empty-item", "duplicate", "nan", "rising"],
    )
    def test_reads_no_entry_after_the_rejected_one(self, second, target_k, message):
        entries = iter([("a", 1.0), second, ("unread", 0.0)])
        with pytest.raises(ValueError, match=re.escape(message)):
            RecommendationList("u", entries, target_k=target_k)
        assert list(entries) == [("unread", 0.0)]

    def test_the_first_entry_that_breaks_any_rule_is_named(self):
        # rank 1's NaN comes before rank 3's repeat, though the repeat rule is checked first
        entries = (("a", math.nan), ("b", 1.0), ("b", 0.5))
        with pytest.raises(ValueError, match=r"^score of item 'a' is not finite: nan$"):
            RecommendationList("u", entries, target_k=5)

    def test_item_ids_prefix(self):
        lst = RecommendationList("u", (("a", 3.0), ("b", 2.0), ("c", 1.0)), target_k=5)
        assert lst.item_ids(2) == ("a", "b")
        assert lst.item_ids() == ("a", "b", "c")
        assert len(lst) == 3

    def test_entries_cost_under_32_bytes_each(self):
        ids = [f"item{n:03d}" for n in range(100)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lists = [
                RecommendationList("u", ((item, (1000 - n + j) / 7) for n, item in enumerate(ids)), 100)
                for j in range(1000)
            ]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, lists)) == 100_000
        assert kept - before < 32 * 100_000

    def test_entries_pair_item_ids_with_scores(self):
        lst = RecommendationList("u", (("a", 3), ("b", 2.5), ("c", 2.5)), target_k=5)
        assert lst.entries == tuple(zip(lst.item_ids(), lst.scores))
        assert lst.entries == (("a", 3.0), ("b", 2.5), ("c", 2.5))
        assert all(type(score) is float for score in lst.scores)

    def test_scores_round_trip_exactly(self):
        lst = RecommendationList("u", (("a", 1 / 3), ("b", -0.0)), target_k=5)
        assert [s.hex() for s in lst.scores] == [(1 / 3).hex(), (-0.0).hex()]
        assert [s.hex() for _, s in lst.entries] == [(1 / 3).hex(), (-0.0).hex()]

    def test_pickle_round_trip_keeps_the_content(self):
        a = RecommendationList("u", iter((("a", 2), ("b", 1 / 3))), target_k=5)
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is RecommendationList
        assert (b.user_id, b.entries, b.target_k) == ("u", (("a", 2.0), ("b", 1 / 3)), 5)

    def test_list_is_immutable(self):
        lst = RecommendationList("u", (("a", 1.0),), target_k=5)
        for name in ("user_id", "target_k", "entries", "scores", "_ids", "_scores", "other"):
            with pytest.raises(AttributeError):
                setattr(lst, name, None)
        with pytest.raises(AttributeError):
            del lst.user_id
        assert lst.entries == (("a", 1.0),)


def close(a, b):
    """Hand-derived algebra vs float accumulation: equal to 1e-12."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def entries_close(entries, expected):
    return len(entries) == len(expected) and all(
        i == j and close(s, t) for (i, s), (j, t) in zip(entries, expected)
    )


@given(
    st.dictionaries(
        st.text("abc", max_size=3),
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0),
        max_size=30,
    ),
    st.integers(1, 40),
)
def test_top_is_the_documented_ranking(scores, k):
    """Many ties, zeros and negatives: ``_top`` keeps the positive scores,
    by descending score and then ascending id, cut at ``k``."""
    positive = [(i, s) for i, s in scores.items() if s > 0.0]
    assert recommenders._top(scores, k) == sorted(positive, key=lambda e: (-e[1], e[0]))[:k]


class TestCF:
    def test_reads_training_ratings_in_place(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        for u in ratings_4x5.users:
            assert model.profiles[u] is ratings_4x5.profiles[u]

    def test_hand_computed_similarities(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        u1, u2 = dict(model.neighbors("u1")), dict(model.neighbors("u2"))
        assert close(u1["u2"], 20 / math.sqrt(35 * 32))
        assert close(u1["u3"], 11 / math.sqrt(35 * 29))
        assert close(u1["u4"], 5 / math.sqrt(35 * 26))
        assert close(u2["u4"], 4 / math.sqrt(32 * 26))
        assert "u3" not in u2  # no common item: similarity 0, not a neighbour

    def test_neighbors_ranked_and_truncated(self, ratings_4x5):
        model = fit_cf(ratings_4x5, neighborhood_size=2)
        got = model.neighbors("u1")
        assert [v for v, _ in got] == ["u2", "u3"]
        assert got[0][1] > got[1][1]

    def test_recommendation_hand_values(self, ratings_4x5):
        model = fit_cf(ratings_4x5, neighborhood_size=2)
        lst = recommend_cf(model, _profile(ratings_4x5, "u1"), 5)
        assert entries_close(lst.entries, (("i3", 4 * (20 / math.sqrt(35 * 32))),))

        lst = recommend_cf(model, _profile(ratings_4x5, "u4"), 5)
        assert entries_close(
            lst.entries,
            (
                ("i3", 4 * (4 / math.sqrt(32 * 26))),
                ("i2", 3 * (5 / math.sqrt(35 * 26))),
                ("i4", 1 * (5 / math.sqrt(35 * 26))),
            ),
        )

    def test_neighborhood_size_limits_sources(self, ratings_4x5):
        model = fit_cf(ratings_4x5, neighborhood_size=1)
        lst = recommend_cf(model, _profile(ratings_4x5, "u4"), 5)
        # only u1 contributes: u2's i3 is out of reach
        assert [i for i, _ in lst.entries] == ["i2", "i4"]

    def test_own_items_never_recommended(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        for u in ratings_4x5.users:
            lst = recommend_cf(model, _profile(ratings_4x5, u), 10)
            assert not set(lst.item_ids()) & set(ratings_4x5.profiles[u])

    def test_unknown_user_is_cold(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        with pytest.raises(ColdStartError):
            recommend_cf(model, UserProfile("nobody", {"i1": 5.0}), 5)

    def test_implicit_ratings_count_as_one(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\na\ty\nb\tx\nb\tz\n")
        ds = load_interactions(p, format="implicit")
        model = fit_cf(ds)
        assert close(dict(model.neighbors("a"))["b"], 1 / 2)
        lst = recommend_cf(model, _profile(ds, "a"), 5)
        assert entries_close(lst.entries, (("z", 0.5),))

    def test_pearson_hand_values(self):
        ds = dataset(
            [
                ("a", "x", 1.0), ("a", "y", 5.0), ("a", "z", 3.0),
                ("b", "x", 2.0), ("b", "y", 4.0), ("b", "z", 3.0),
                ("c", "x", 5.0), ("c", "y", 1.0), ("c", "w", 2.0),
            ]
        )
        model = fit_cf(ds, similarity_metric="pearson")
        a, c = ds.profiles["a"], ds.profiles["c"]
        assert recommenders.CFModel._pearson([(a[i], c[i]) for i in a if i in c]) == -1.0
        # anti-correlated users are not neighbours
        assert model.neighbors("a") == (("b", 1.0),)

    def test_pearson_needs_two_common_items(self):
        ds = dataset(
            [
                ("a", "x", 5.0), ("a", "y", 1.0),
                ("b", "x", 4.0), ("b", "z", 2.0),
            ]
        )
        model = fit_cf(ds, similarity_metric="pearson")
        assert recommenders.CFModel._pearson([(5.0, 4.0)]) == 0.0
        assert model.neighbors("a") == () and model.neighbors("b") == ()

    def test_bad_params(self, ratings_4x5):
        with pytest.raises(ValueError):
            fit_cf(ratings_4x5, neighborhood_size=0)
        with pytest.raises(ValueError, match=re.escape("similarity_metric must be one of ['cosine', 'pearson']")):
            fit_cf(ratings_4x5, similarity_metric="jaccard")
        model = fit_cf(ratings_4x5)
        with pytest.raises(ValueError):
            recommend_cf(model, _profile(ratings_4x5, "u1"), 0)


def _random_explicit(rng):
    """Sparse random ratings over ten items, some of them 0.0. Two users rate
    six items, so a two-fold split with ``given_n=2`` has users to hide."""
    items = [f"i{n}" for n in range(10)]
    rows = []
    for n in range(rng.randint(6, 12)):
        for item in rng.sample(items, 6 if n < 2 else rng.randint(1, 6)):
            r = rng.choice((0.0, 1.0, 2.5, 5.0)) if rng.random() < 0.6 else rng.uniform(0.0, 5.0)
            rows.append((f"u{n:02d}", item, r))
    return dataset(rows)


class TestParameterRules:
    """Fitting checks a parameter by the rule a run's config uses, so a value
    the config refuses is refused here too, naming the parameter, instead of
    failing later with a ``TypeError``."""

    @pytest.mark.parametrize("value", [0, 2.5, True, "5"], ids=["zero", "float", "bool", "str"])
    def test_counts_are_positive_integers(self, ratings_4x5, toy_index, value):
        for fit, source, name in (
            (fit_cf, ratings_4x5, "neighborhood_size"),
            (fit_sup, toy_index, "votes_per_item"),
            (fit_upa, toy_index, "profile_term_budget"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {value!r}")):
                fit(source, **{name: value})


class TestCFAgainstBruteForce:
    """``neighbors`` and ``recommend_cf`` equal the exhaustive oracle exactly,
    on random datasets and on their training splits."""

    @pytest.mark.parametrize("metric", recommenders.SIMILARITY_METRICS)
    def test_matches_oracle(self, metric):
        rng = random.Random(4321)
        zero_ratings = single_common = 0
        for trial in range(25):
            ds = _random_explicit(rng)
            plan = plan_splits(ds, fold_count=2, given_n=2, min_train_items=2, rng_seed=trial)
            for data in (ds, *(materialize_split(ds, plan, fold).train for fold in range(2))):
                ratings = {u: dict(data.profiles[u]) for u in data.users}
                zero_ratings += sum(r == 0.0 for p in ratings.values() for r in p.values())
                single_common += sum(
                    len(ratings[u].keys() & ratings[v].keys()) == 1
                    for u in ratings for v in ratings if u < v
                )
                for size in (1, 3, 50):
                    model = fit_cf(data, neighborhood_size=size, similarity_metric=metric)
                    for u in data.users:
                        assert list(model.neighbors(u)) == oracle_cf_neighbors(ratings, u, size, metric)
                        lst = recommend_cf(model, UserProfile(u, data.profiles[u]), 5)
                        assert list(lst.entries) == oracle_cf(ratings, u, size, 5, metric)
        assert zero_ratings and single_common

    def test_each_pair_sums_in_the_users_item_order(self):
        """Co-rated products 1e16, 1.0, 1.0 by ascending item id sum to 1e16
        left to right and to 1e16 + 2 right to left, so a score that summed
        them in another order would differ from the pairwise oracle."""
        cosine = dataset((u, i, r) for u in "ab" for i, r in (("i1", 1e8), ("i2", 1.0), ("i3", 1.0)))
        # pearson sums the ratings themselves first: 1e16, 1.0, 1.0 again
        pearson = dataset(
            [("a", i, r) for i, r in (("i1", 1e16), ("i2", 1.0), ("i3", 1.0))]
            + [("b", i, r) for i, r in (("i1", 4.0), ("i2", 1.0), ("i3", 2.0))]
        )
        for metric, ds in (("cosine", cosine), ("pearson", pearson)):
            model = fit_cf(ds, similarity_metric=metric)
            ratings = {u: dict(ds.profiles[u]) for u in ds.users}
            for u, v in (("a", "b"), ("b", "a")):
                ((neighbor, score),) = model.neighbors(u)
                assert neighbor == v
                assert score.hex() == oracle_cf_similarity(ratings, u, v, metric).hex()
        # the order shows on these inputs: right to left gives other scores
        assert fit_cf(cosine).neighbors("a") == (("b", 1.0),)
        assert (1.0 + 1.0) + 1e16 == 1e16 + 2.0
        pa, pb = pearson.profiles["a"], pearson.profiles["b"]
        pairs = [(pa[i], pb[i]) for i in ("i1", "i2", "i3")]
        pearson_of = recommenders.CFModel._pearson
        assert pearson_of(pairs) != pearson_of(pairs[::-1])


@pytest.fixture
def toy_index(toy_corpus):
    return build_index(toy_corpus, ("text",))


class TestUPA:
    def test_budget_two_hand_value(self, toy_index):
        model = fit_upa(toy_index, profile_term_budget=2)
        lst = recommend_upa(model, UserProfile("u", {"d1": None, "d2": None}), 5)
        assert entries_close(lst.entries, (("d3", 2 / math.sqrt(26)),))

    def test_budget_three_hand_value(self, toy_index):
        model = fit_upa(toy_index, profile_term_budget=3)
        lst = recommend_upa(model, UserProfile("u", {"d1": None, "d2": None}), 5)
        assert entries_close(lst.entries, (("d3", 3 / math.sqrt(28)),))

    def test_budget_tie_keeps_ascending_term(self):
        corpus = ContentCorpus(
            {
                "d1": {"text": "aa bb"},
                "d2": {"text": "aa xx"},
                "d3": {"text": "bb yy"},
            }
        )
        model = fit_upa(build_index(corpus, ("text",)), profile_term_budget=1)
        # aggregated weights for aa and bb tie; the query must keep "aa"
        lst = recommend_upa(model, UserProfile("u", {"d1": 1.0}), 5)
        assert lst.item_ids() == ("d2",)

    def test_profile_without_content_yields_empty_list(self, toy_index):
        corpus = ContentCorpus(
            {
                "d1": {"text": "shared stuff"},
                "d2": {"text": "shared stuff"},
                "d3": {"text": "rare"},
            }
        )
        model = fit_upa(build_index(corpus, ("text",)))
        lst = recommend_upa(model, UserProfile("u", {"d3": 1.0, "ghost": 1.0}), 5)
        assert lst.entries == ()

    def test_profile_items_excluded(self, toy_index):
        model = fit_upa(toy_index)
        lst = recommend_upa(model, UserProfile("u", {"d1": None}), 5)
        assert "d1" not in lst.item_ids()

    def test_profile_excluded_before_cutoff(self):
        corpus = ContentCorpus(
            {
                "v": {"text": "aa bb"},
                "p": {"text": "aa bb"},
                "c": {"text": "aa"},
                "other": {"text": "dd"},
            }
        )
        model = fit_upa(build_index(corpus, ("text",)))
        # v and p outrank c; with both excluded first, c still takes the single slot
        lst = recommend_upa(model, UserProfile("u", {"v": None, "p": None}), 1)
        a, b = math.log(4 / 3), math.log(4 / 2)
        assert entries_close(lst.entries, (("c", a / math.sqrt(a * a + b * b)),))


class TestSUP:
    def test_votes_accumulate_across_voters(self, toy_index):
        model = fit_sup(toy_index)
        lst = recommend_sup(model, UserProfile("u", {"d1": None, "d2": None}), 5)
        assert entries_close(lst.entries, (("d3", 3 / math.sqrt(10)),))

    def test_profile_excluded_before_cutoff(self):
        corpus = ContentCorpus(
            {
                "v": {"text": "aa bb"},
                "p": {"text": "aa bb"},
                "c": {"text": "aa"},
                "other": {"text": "dd"},
            }
        )
        index = build_index(corpus, ("text",))
        model = fit_sup(index, votes_per_item=1)
        # p would fill v's single slot; with p excluded first, c still gets
        # nominated by both profile items
        lst = recommend_sup(model, UserProfile("u", {"v": None, "p": None}), 5)
        a, b = math.log(4 / 3), math.log(4 / 2)
        assert entries_close(lst.entries, (("c", 2 * (a / math.sqrt(a * a + b * b))),))

    def test_votes_per_item_caps_nominations(self):
        corpus = ContentCorpus(
            {
                "voter": {"text": "aa bb cc"},
                "close": {"text": "aa bb cc"},
                "far": {"text": "aa zz zz zz"},
                "pad": {"text": "zz"},
            }
        )
        model = fit_sup(build_index(corpus, ("text",)), votes_per_item=1)
        lst = recommend_sup(model, UserProfile("u", {"voter": None}), 5)
        assert lst.item_ids() == ("close",)

    def test_content_free_profile_yields_empty_list(self):
        corpus = ContentCorpus(
            {
                "d1": {"text": "shared stuff"},
                "d2": {"text": "shared stuff"},
                "lone": {"text": "singleton"},
            }
        )
        model = fit_sup(build_index(corpus, ("text",)))
        lst = recommend_sup(model, UserProfile("u", {"lone": 1.0}), 5)
        assert lst.entries == ()


def _random_corpus(rng, n_items):
    pool = [f"w{j:02d}" for j in range(8)]
    docs = {}
    for n in range(n_items):
        words = rng.choices(pool, k=rng.randint(0, 6))
        docs[f"i{n:02d}"] = {"text": " ".join(words)}
    return ContentCorpus(docs)


class TestAgainstBruteForce:
    """Spot-check both content recommenders on random small corpora."""

    def test_matches_oracles(self):
        rng = random.Random(1234)
        checked = 0
        for trial in range(25):
            corpus = _random_corpus(rng, rng.randint(4, 12))
            try:
                index = build_index(corpus, ("text",))
            except Exception:
                continue  # vocabulary collapsed; nothing to compare
            vectors = as_term_dicts(index)
            ids = sorted(vectors)
            profile_ids = rng.sample(ids, rng.randint(1, min(3, len(ids))))
            user = UserProfile("u", {i: None for i in profile_ids})
            k = rng.randint(1, 6)
            budget = rng.randint(1, 5)
            votes = rng.randint(1, 4)

            upa = recommend_upa(fit_upa(index, profile_term_budget=budget), user, k)
            assert list(upa.entries) == oracle_upa(vectors, profile_ids, budget, k)

            sup = recommend_sup(fit_sup(index, votes_per_item=votes), user, k)
            assert list(sup.entries) == oracle_sup(vectors, profile_ids, votes, k)
            checked += 1
        assert checked >= 15


def _count_top_k_calls(monkeypatch, index):
    """Count ``top_k_similar`` calls from the recommenders, per voter item."""
    voter_of = {id(vec): item_id for item_id, vec in index.vectors.items()}
    calls = {}
    original = recommenders.top_k_similar

    def counting(index_arg, query, k):
        voter = voter_of.get(id(query))
        calls[voter] = calls.get(voter, 0) + 1
        return original(index_arg, query, k)

    monkeypatch.setattr(recommenders, "top_k_similar", counting)
    return calls


class TestNeighborTable:
    """One fitted ``sup`` model keeps a per-voter neighbour table that is
    shared by every user it serves."""

    def test_shared_model_is_exact_in_any_order(self, monkeypatch):
        rng = random.Random(77)
        pool = [f"w{j:02d}" for j in range(10)]
        corpus = ContentCorpus(
            {f"i{n:02d}": {"text": " ".join(rng.choices(pool, k=rng.randint(0, 7)))} for n in range(40)}
        )
        index = build_index(corpus, ("text",))
        vectors = as_term_dicts(index)
        ids = sorted(vectors)
        hub = next(i for i in ids if vectors[i])
        others = [i for i in ids if i != hub]
        users = []
        for size in range(1, 9):
            # every profile holds the hub voter; their sizes differ, so the
            # depth asked of the hub's ranking differs from user to user
            profile = [hub] + rng.sample(others, size - 1)
            users.append(UserProfile(f"h{size}", {i: None for i in profile}))
        for n in range(12):
            profile = rng.sample(ids, rng.randint(1, 8))
            users.append(UserProfile(f"r{n}", {i: None for i in profile}))
        rng.shuffle(users)
        votes, k = 3, 6

        calls = _count_top_k_calls(monkeypatch, index)
        shared = fit_sup(index, votes_per_item=votes)
        got = {u.user_id: recommend_sup(shared, u, k) for u in users}
        assert calls[hub] > 1, "the hub's ranking was never deepened"
        for user in users:
            expected = oracle_sup(vectors, list(user.items), votes, k)
            assert list(got[user.user_id].entries) == expected, user.user_id
            fresh = recommend_sup(fit_sup(index, votes_per_item=votes), user, k)
            assert got[user.user_id].entries == fresh.entries, user.user_id

    def test_one_ranking_per_voter_on_dense_preset(self, monkeypatch):
        data = synth.dense()
        ds = dataset(data.interactions)
        corpus = ContentCorpus(data.documents)
        index = build_index(corpus, ("text",))
        plan = plan_splits(ds, fold_count=10, rng_seed=0)
        profiles = []
        for fold in range(plan.fold_count):
            split = materialize_split(ds, plan, fold)
            profiles += [UserProfile(u, split.train.profiles[u]) for u in plan.users_in_fold(fold)]
        # largest profiles first: no later user asks for a deeper ranking
        profiles.sort(key=lambda p: -len(p.items))

        calls = _count_top_k_calls(monkeypatch, index)
        model = fit_sup(index, votes_per_item=15)
        for profile in profiles:
            recommend_sup(model, profile, 100)
        voters = {i for p in profiles for i in p.items if index.vectors.get(i)}
        uses = sum(1 for p in profiles for i in p.items if i in voters)
        assert uses > 5 * len(voters)  # voters really are shared across users and folds
        assert calls == dict.fromkeys(voters, 1)

    def test_table_pairs_equal_a_ranking_bit_for_bit_on_every_path(self, monkeypatch):
        corpus = ContentCorpus(
            {
                **{f"h{n}": {"text": " ".join(["aa"] * (1 + n % 3) + ["bb"] * (n % 2))} for n in range(8)},
                "z0": {"text": "zz"},
                "z1": {"text": "zz yy yy"},
                "y0": {"text": "yy"},
            }
        )
        index = build_index(corpus, ("text",))
        calls = _count_top_k_calls(monkeypatch, index)
        model = fit_sup(index)

        def read(item_id, depth, ranked_at):
            """Read the table at ``depth``; it must hold the ranking asked for at ``ranked_at``."""
            got = [(i, s.hex()) for i, s in model.neighbors(item_id, depth)]
            want = top_k_similar(index, index.vectors[item_id], ranked_at)
            assert got == [(i, s.hex()) for i, s in want]
            return len(got)

        assert read("h0", 4, ranked_at=4) == 4  # a fresh fill
        assert read("h0", 2, ranked_at=4) == 4  # a shallower read
        assert calls == {"h0": 1}
        assert read("z1", 5, ranked_at=5) == 3  # fewer than asked: the ranking is complete
        assert read("z1", 9, ranked_at=9) == 3  # so a deeper read reuses it
        assert calls == {"h0": 1, "z1": 1}
        assert read("h0", 6, ranked_at=6) == 6  # a full shallow ranking is recomputed deeper
        assert calls == {"h0": 2, "z1": 1}
