import math
import random

import pytest

from recbench import (
    ColdStartError,
    ContentCorpus,
    Interaction,
    InteractionDataset,
    ItemDocument,
    RecommendationList,
    UserProfile,
    build_index,
    fit_cf,
    fit_sup,
    fit_upa,
    materialize_split,
    plan_splits,
    recommend_cf,
    recommend_sup,
    recommend_upa,
)
from recbench import recommenders

from conftest import as_term_dicts
from oracles import oracle_sup, oracle_upa
import synth


def _profile(model_ds, user):
    return UserProfile.from_training(model_ds, user)


class TestUserProfile:
    def test_from_training(self, ratings_4x5):
        p = UserProfile.from_training(ratings_4x5, "u2")
        assert p.items == {"i1": 4.0, "i3": 4.0}

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            UserProfile("u", {})


class TestRecommendationList:
    def test_scores_must_not_increase(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RecommendationList("u", (("a", 1.0), ("b", 2.0)), target_k=5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RecommendationList("u", (("a", 1.0), ("a", 0.5)), target_k=5)

    def test_cannot_exceed_target(self):
        with pytest.raises(ValueError):
            RecommendationList("u", (("a", 1.0), ("b", 0.5)), target_k=1)

    def test_item_ids_prefix(self):
        lst = RecommendationList("u", (("a", 3.0), ("b", 2.0), ("c", 1.0)), target_k=5)
        assert lst.item_ids(2) == ("a", "b")
        assert lst.item_ids() == ("a", "b", "c")
        assert len(lst) == 3


def close(a, b):
    """Hand-derived algebra vs float accumulation: equal to 1e-12."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def entries_close(entries, expected):
    return len(entries) == len(expected) and all(
        i == j and close(s, t) for (i, s), (j, t) in zip(entries, expected)
    )


class TestCF:
    def test_hand_computed_similarities(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        assert close(model.similarity("u1", "u2"), 20 / math.sqrt(35 * 32))
        assert close(model.similarity("u1", "u3"), 11 / math.sqrt(35 * 29))
        assert close(model.similarity("u1", "u4"), 5 / math.sqrt(35 * 26))
        assert close(model.similarity("u2", "u4"), 4 / math.sqrt(32 * 26))
        assert model.similarity("u2", "u3") == 0.0

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
            assert not set(lst.item_ids()) & set(ratings_4x5.profile(u))

    def test_unknown_user_is_cold(self, ratings_4x5):
        model = fit_cf(ratings_4x5)
        with pytest.raises(ColdStartError):
            recommend_cf(model, UserProfile("nobody", {"i1": 5.0}), 5)

    def test_implicit_ratings_count_as_one(self):
        ds = InteractionDataset(
            [
                Interaction("a", "x"), Interaction("a", "y"),
                Interaction("b", "x"), Interaction("b", "z"),
            ]
        )
        model = fit_cf(ds)
        assert close(model.similarity("a", "b"), 1 / 2)
        lst = recommend_cf(model, _profile(ds, "a"), 5)
        assert entries_close(lst.entries, (("z", 0.5),))

    def test_pearson_hand_values(self):
        ds = InteractionDataset(
            [
                Interaction("a", "x", 1.0), Interaction("a", "y", 5.0), Interaction("a", "z", 3.0),
                Interaction("b", "x", 2.0), Interaction("b", "y", 4.0), Interaction("b", "z", 3.0),
                Interaction("c", "x", 5.0), Interaction("c", "y", 1.0), Interaction("c", "w", 2.0),
            ]
        )
        model = fit_cf(ds, similarity_metric="pearson")
        assert model.similarity("a", "b") == 1.0
        assert model.similarity("a", "c") == -1.0
        # anti-correlated users are not neighbours
        assert [v for v, _ in model.neighbors("a")] == ["b"]

    def test_pearson_needs_two_common_items(self):
        ds = InteractionDataset(
            [
                Interaction("a", "x", 5.0), Interaction("a", "y", 1.0),
                Interaction("b", "x", 4.0), Interaction("b", "z", 2.0),
            ]
        )
        model = fit_cf(ds, similarity_metric="pearson")
        assert model.similarity("a", "b") == 0.0

    def test_bad_params(self, ratings_4x5):
        with pytest.raises(ValueError):
            fit_cf(ratings_4x5, neighborhood_size=0)
        with pytest.raises(ValueError):
            fit_cf(ratings_4x5, similarity_metric="jaccard")
        model = fit_cf(ratings_4x5)
        with pytest.raises(ValueError):
            recommend_cf(model, _profile(ratings_4x5, "u1"), 0)


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
            [
                ItemDocument("d1", {"text": "aa bb"}),
                ItemDocument("d2", {"text": "aa xx"}),
                ItemDocument("d3", {"text": "bb yy"}),
            ]
        )
        model = fit_upa(build_index(corpus, ("text",)), profile_term_budget=1)
        # aggregated weights for aa and bb tie; the query must keep "aa"
        lst = recommend_upa(model, UserProfile("u", {"d1": 1.0}), 5)
        assert lst.item_ids() == ("d2",)

    def test_profile_without_content_yields_empty_list(self, toy_index):
        corpus = ContentCorpus(
            [
                ItemDocument("d1", {"text": "shared stuff"}),
                ItemDocument("d2", {"text": "shared stuff"}),
                ItemDocument("d3", {"text": "rare"}),
            ]
        )
        model = fit_upa(build_index(corpus, ("text",)))
        lst = recommend_upa(model, UserProfile("u", {"d3": 1.0, "ghost": 1.0}), 5)
        assert lst.entries == ()

    def test_profile_items_excluded(self, toy_index):
        model = fit_upa(toy_index)
        lst = recommend_upa(model, UserProfile("u", {"d1": None}), 5)
        assert "d1" not in lst.item_ids()


class TestSUP:
    def test_votes_accumulate_across_voters(self, toy_index):
        model = fit_sup(toy_index)
        lst = recommend_sup(model, UserProfile("u", {"d1": None, "d2": None}), 5)
        assert entries_close(lst.entries, (("d3", 3 / math.sqrt(10)),))

    def test_profile_excluded_before_cutoff(self):
        corpus = ContentCorpus(
            [
                ItemDocument("v", {"text": "aa bb"}),
                ItemDocument("p", {"text": "aa bb"}),
                ItemDocument("c", {"text": "aa"}),
                ItemDocument("other", {"text": "dd"}),
            ]
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
            [
                ItemDocument("voter", {"text": "aa bb cc"}),
                ItemDocument("close", {"text": "aa bb cc"}),
                ItemDocument("far", {"text": "aa zz zz zz"}),
                ItemDocument("pad", {"text": "zz"}),
            ]
        )
        model = fit_sup(build_index(corpus, ("text",)), votes_per_item=1)
        lst = recommend_sup(model, UserProfile("u", {"voter": None}), 5)
        assert lst.item_ids() == ("close",)

    def test_content_free_profile_yields_empty_list(self):
        corpus = ContentCorpus(
            [
                ItemDocument("d1", {"text": "shared stuff"}),
                ItemDocument("d2", {"text": "shared stuff"}),
                ItemDocument("lone", {"text": "singleton"}),
            ]
        )
        model = fit_sup(build_index(corpus, ("text",)))
        lst = recommend_sup(model, UserProfile("u", {"lone": 1.0}), 5)
        assert lst.entries == ()


def _random_corpus(rng, n_items):
    pool = [f"w{j:02d}" for j in range(8)]
    docs = []
    for n in range(n_items):
        words = rng.choices(pool, k=rng.randint(0, 6))
        docs.append(ItemDocument(f"i{n:02d}", {"text": " ".join(words)}))
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

    def counting(index_arg, query, k, exclude=frozenset()):
        voter = voter_of.get(id(query))
        calls[voter] = calls.get(voter, 0) + 1
        return original(index_arg, query, k, exclude)

    monkeypatch.setattr(recommenders, "top_k_similar", counting)
    return calls


class TestNeighborTable:
    """One fitted ``sup`` model keeps a per-voter neighbour table that is
    shared by every user it serves."""

    def test_shared_model_is_exact_in_any_order(self, monkeypatch):
        rng = random.Random(77)
        pool = [f"w{j:02d}" for j in range(10)]
        corpus = ContentCorpus(
            ItemDocument(f"i{n:02d}", {"text": " ".join(rng.choices(pool, k=rng.randint(0, 7)))})
            for n in range(40)
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
        ds = InteractionDataset(Interaction(u, i, float(r)) for u, i, r in data.interactions)
        corpus = ContentCorpus(ItemDocument(i, attrs) for i, attrs in data.documents.items())
        index = build_index(corpus, ("text",))
        plan = plan_splits(ds, fold_count=10, rng_seed=0)
        profiles = []
        for fold in range(plan.fold_count):
            split = materialize_split(ds, plan, fold)
            profiles += [UserProfile.from_training(split.train, u) for u in plan.users_in_fold(fold)]
        # largest profiles first: no later user asks for a deeper ranking
        profiles.sort(key=lambda p: -len(p.items))

        calls = _count_top_k_calls(monkeypatch, index)
        model = fit_sup(index, votes_per_item=15)
        for profile in profiles:
            recommend_sup(model, profile, 100)
        voters = {i for p in profiles for i in p.items if i in index and index.vector(i)}
        uses = sum(1 for p in profiles for i in p.items if i in voters)
        assert uses > 5 * len(voters)  # voters really are shared across users and folds
        assert calls == dict.fromkeys(voters, 1)
