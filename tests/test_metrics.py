import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recbench import UndefinedMetricError, evaluate, hit_intersection, jaccard_list_similarity
from recbench.metrics import average_precision_at_k
from recbench.recommenders import RecommendationList

from oracles import (
    oracle_ap,
    oracle_ccov,
    oracle_hits,
    oracle_jaccard,
    oracle_map,
    oracle_ucov,
)

ITEMS = tuple(f"i{j}" for j in range(8))


def rl(user, items, k=8):
    """Build a list with synthetic descending scores."""
    entries = tuple((item, float(len(items) - p)) for p, item in enumerate(items))
    return RecommendationList(user, entries, target_k=max(k, len(items), 1))


class TestAveragePrecision:
    def test_hand_value(self):
        lst = rl("u", ["x1", "a", "y1", "b", "z1"])
        assert average_precision_at_k(lst, {"a", "b"}, 5) == 0.5

    def test_perfect_ranking(self):
        lst = rl("u", ["a", "b", "c"])
        assert average_precision_at_k(lst, {"a", "b", "c"}, 10) == 1.0

    def test_denominator_caps_at_k(self):
        lst = rl("u", ["a", "b"])
        assert average_precision_at_k(lst, {"a", "b", "c"}, 2) == 1.0

    def test_hits_beyond_k_ignored(self):
        lst = rl("u", ["x1", "x2", "a"])
        assert average_precision_at_k(lst, {"a"}, 2) == 0.0

    def test_empty_list_scores_zero(self):
        assert average_precision_at_k(rl("u", []), {"a"}, 5) == 0.0

    def test_empty_hidden_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision_at_k(rl("u", ["a"]), frozenset(), 5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            average_precision_at_k(rl("u", ["a"]), {"a"}, 0)


class TestBatchMetrics:
    def test_map_counts_empty_lists(self):
        report = evaluate(
            lists={"u1": rl("u1", ["a"]), "u2": rl("u2", [])},
            hidden={"u1": {"a"}, "u2": {"a"}},
            catalog=set(ITEMS),
            k=5,
        )
        assert report["map"] == 0.5
        assert report["map_nonempty"] == 1.0

    def test_ucov_hand_value(self):
        wide = [f"w{j}" for j in range(10)]
        report = evaluate(
            lists={"u1": rl("u1", wide, k=10), "u2": rl("u2", wide[:5], k=10)},
            hidden={"u1": {"w0"}, "u2": {"w0"}},
            catalog=set(wide),
            k=10,
        )
        assert report["ucov"] == 0.75

    def test_ucov_all_empty(self):
        assert evaluate({"u1": rl("u1", [])}, {"u1": {"a"}}, {"a"}, 3)["ucov"] == 0.0

    def test_ccov_hand_value(self):
        catalog = {f"c{j}" for j in range(10)}
        report = evaluate(
            lists={
                "u1": rl("u1", ["c1", "c2"]),
                "u2": rl("u2", ["c2", "c3", "c4"]),
            },
            hidden={"u1": {"c1"}, "u2": {"c1"}},
            catalog=catalog,
            k=5,
        )
        assert report["ccov"] == 0.4

    def test_ccov_union_is_idempotent(self):
        same = ["c1", "c2", "c3"]
        report = evaluate(
            lists={f"u{n}": rl(f"u{n}", same) for n in range(4)},
            hidden={f"u{n}": {"c1"} for n in range(4)},
            catalog={f"c{j}" for j in range(6)},
            k=5,
        )
        assert report["ccov"] == 0.5

    def test_no_users_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            evaluate({}, {}, {"a"}, 5)

    def test_empty_catalog_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            evaluate({"u": rl("u", ["a"])}, {"u": {"a"}}, set(), 5)

    def test_list_without_hidden_rejected(self):
        with pytest.raises(ValueError, match="user 'u' has a list but no hidden set"):
            evaluate({"u": rl("u", ["a"])}, {}, {"a"}, 5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="^k must be a positive integer, got 0$"):
            evaluate({"u": rl("u", ["a"])}, {"u": {"a"}}, {"a"}, 0)

    def test_evaluate_matches_individual_functions_exactly(self):
        rng = random.Random(77)
        for _ in range(30):
            lists, hidden = {}, {}
            for u in range(rng.randint(1, 5)):
                uid = f"u{u}"
                items = rng.sample(ITEMS, rng.randint(0, 8))
                lists[uid] = rl(uid, items)
                hidden[uid] = frozenset(rng.sample(ITEMS, rng.randint(1, 3)))
            k = rng.randint(1, 8)
            report = evaluate(lists, hidden, set(ITEMS), k)
            # the means accumulate per-user values in ascending user order
            total = nonempty_total = 0.0
            nonempty = 0
            for uid in sorted(lists):
                ap = average_precision_at_k(lists[uid], hidden[uid], k)
                total += ap
                if len(lists[uid]):
                    nonempty_total += ap
                    nonempty += 1
            assert report["map"] == total / len(lists)
            assert report["map_nonempty"] == (nonempty_total / nonempty if nonempty else 0.0)
            assert report["ucov"] == oracle_ucov(ids_of(lists), k)
            assert report["ccov"] == oracle_ccov(ids_of(lists), ITEMS, k)


class TestJaccard:
    def test_hand_value(self):
        a = {"u": rl("u", ["i1", "i2", "i3"])}
        b = {"u": rl("u", ["i2", "i3", "i4"])}
        assert jaccard_list_similarity(a, b, 5) == 0.5

    def test_identical_lists(self):
        a = {"u": rl("u", ["i1", "i2"])}
        assert jaccard_list_similarity(a, a, 5) == 1.0

    def test_disjoint_lists(self):
        a = {"u": rl("u", ["i1", "i2"])}
        b = {"u": rl("u", ["i3", "i4"])}
        assert jaccard_list_similarity(a, b, 5) == 0.0

    def test_two_empty_lists_count_zero(self):
        a = {"u": rl("u", []), "v": rl("v", ["i1"])}
        b = {"u": rl("u", []), "v": rl("v", ["i1"])}
        assert jaccard_list_similarity(a, b, 5) == 0.5

    def test_extra_users_ignored(self):
        a = {"u": rl("u", ["i1"]), "only_a": rl("only_a", ["i9"])}
        b = {"u": rl("u", ["i1"])}
        assert jaccard_list_similarity(a, b, 5) == 1.0

    def test_no_common_users_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            jaccard_list_similarity({"u": rl("u", ["i1"])}, {"v": rl("v", ["i1"])}, 5)


class TestHitIntersection:
    def test_identical_lists_share_all_hits(self):
        lists = {"u": rl("u", ["i1", "i2", "i3"])}
        hidden = {"u": {"i1", "i3"}}
        report = hit_intersection(lists, lists, hidden, 5)
        assert (report["exclusive_a"], report["exclusive_b"], report["common"]) == (0, 0, 2)

    def test_disjoint_hits(self):
        a = {"u1": rl("u1", ["i1"])}
        b = {"u1": rl("u1", ["i2"])}
        report = hit_intersection(a, b, {"u1": {"i1", "i2"}}, 5)
        assert (report["exclusive_a"], report["exclusive_b"], report["common"]) == (1, 1, 0)

    def test_user_mismatch_rejected(self):
        a = {"u1": rl("u1", ["i1"])}
        b = {"u2": rl("u2", ["i1"])}
        with pytest.raises(ValueError):
            hit_intersection(a, b, {"u1": {"i1"}, "u2": {"i1"}}, 5)

    def test_missing_hidden_rejected(self):
        a = {"u1": rl("u1", ["i1"])}
        with pytest.raises(ValueError):
            hit_intersection(a, a, {}, 5)


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def instances(draw):
    n_users = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=8))
    lists, hidden = {}, {}
    for u in range(n_users):
        uid = f"u{u}"
        size = draw(st.integers(min_value=0, max_value=8))
        order = draw(st.permutations(ITEMS))
        lists[uid] = rl(uid, list(order)[:size])
        hidden[uid] = frozenset(
            draw(st.sets(st.sampled_from(ITEMS), min_size=1, max_size=3))
        )
    return lists, hidden, k


def ids_of(lists):
    return {u: lst.item_ids() for u, lst in lists.items()}


@given(instances())
def test_batch_metrics_match_oracles_exactly(instance):
    lists, hidden, k = instance
    report = evaluate(lists, hidden, set(ITEMS), k)
    assert report["map"] == oracle_map(ids_of(lists), hidden, k)
    assert report["ucov"] == oracle_ucov(ids_of(lists), k)
    assert report["ccov"] == oracle_ccov(ids_of(lists), ITEMS, k)
    assert 0.0 <= report["map"] <= 1.0
    assert 0.0 <= report["map_nonempty"] <= 1.0
    assert 0.0 <= report["ucov"] <= 1.0
    assert 0.0 <= report["ccov"] <= 1.0


@given(instances(), instances())
def test_jaccard_is_symmetric(inst_a, inst_b):
    lists_a = inst_a[0]
    lists_b = {u: lst for u, lst in inst_b[0].items() if u in lists_a}
    if not lists_b:
        return
    k = inst_a[2]
    assert jaccard_list_similarity(lists_a, lists_b, k) == jaccard_list_similarity(
        lists_b, lists_a, k
    )
    assert jaccard_list_similarity(lists_a, lists_b, k) == oracle_jaccard(
        ids_of(lists_a), ids_of(lists_b), k
    )


@given(instances(), st.randoms(use_true_random=False))
def test_intersection_conserves_hits(instance, rng):
    lists_a, hidden, k = instance
    lists_b = {}
    for u, lst in lists_a.items():
        items = list(lst.item_ids())
        rng.shuffle(items)
        lists_b[u] = rl(u, items[: rng.randint(0, len(items))])
    report = hit_intersection(lists_a, lists_b, hidden, k)
    hits_a = oracle_hits(ids_of(lists_a), hidden, k)
    hits_b = oracle_hits(ids_of(lists_b), hidden, k)
    assert report["exclusive_a"] + report["common"] == len(hits_a)
    assert report["exclusive_b"] + report["common"] == len(hits_b)
    assert report["common"] == len(hits_a & hits_b)


@given(instances(), st.data())
def test_inserting_a_hidden_item_never_lowers_ap(instance, data):
    lists, hidden, k = instance
    uid = sorted(lists)[0]
    lst = lists[uid]
    missing = sorted(set(hidden[uid]) - set(lst.item_ids()))
    if not missing:
        return
    item = data.draw(st.sampled_from(missing))
    pos = data.draw(st.integers(min_value=0, max_value=len(lst)))
    before = average_precision_at_k(lst, hidden[uid], k)
    items = list(lst.item_ids())
    items.insert(pos, item)
    after = average_precision_at_k(rl(uid, items), hidden[uid], k)
    assert after >= before


@given(instances())
def test_ccov_never_decreases_with_k(instance):
    lists, hidden, _ = instance
    values = []
    for k in range(1, 9):
        values.append(evaluate(lists, hidden, set(ITEMS), k)["ccov"])
    assert values == sorted(values)
