"""Ranking-quality and coverage measures for batches of top-N lists.

Every measure reads only the top-``k`` prefix of each list. Mean values are
always accumulated over users in ascending user-id order so repeated
evaluations are bit-for-bit identical.
"""

from collections.abc import Mapping, Set as AbstractSet

from .corpus import _positive_int, _require
from .errors import UndefinedMetricError
from .recommenders import RecommendationList


def average_precision_at_k(recs: RecommendationList, hidden: AbstractSet[str], k: int) -> float:
    """Average precision of the top-``k`` prefix against ``hidden``.

    Precision is sampled at every hit rank and the sum is divided by
    ``min(|hidden|, k)``. An empty list scores 0.0; an empty hidden set has
    no defined value and raises ``UndefinedMetricError``.
    """
    _require("k", k, _positive_int)
    if not hidden:
        raise UndefinedMetricError("hidden set is empty")
    hits = 0
    total = 0.0
    for rank, item_id in enumerate(recs.item_ids(k), start=1):
        if item_id in hidden:
            hits += 1
            total += hits / rank
    return total / min(len(hidden), k)


def evaluate(
    lists: Mapping[str, RecommendationList],
    hidden: Mapping[str, AbstractSet[str]],
    catalog: AbstractSet[str],
    k: int,
) -> dict[str, float]:
    """Compute every list metric for one batch in a single pass.

    ``lists`` holds a (possibly empty) list for every evaluated user,
    ``hidden`` the user's withheld items, ``catalog`` the full set of items
    the system could recommend, and ``k`` the evaluation cutoff. Returns the
    measures under their ``records.csv`` names, in this order: ``map``
    averages over every evaluated user (empty lists score 0);
    ``map_nonempty`` averages over users with at least one recommended item,
    as a side-by-side diagnostic for algorithms that cannot always fill
    their lists; ``ucov`` (user coverage) is the mean of ``min(|list|, k) /
    k`` over every evaluated user; ``ccov`` (catalog coverage) is the
    fraction of the catalog recommended to anyone.
    """
    _require("k", k, _positive_int)
    for user_id in lists:
        if user_id not in hidden:
            raise ValueError(f"user {user_id!r} has a list but no hidden set")
    if not catalog:
        raise UndefinedMetricError("catalog is empty")
    users = sorted(lists)
    if not users:
        raise UndefinedMetricError("no users to evaluate")
    recommended: set[str] = set()
    total = 0.0
    fill_total = 0.0
    nonempty_total = 0.0
    nonempty_count = 0
    for u in users:
        lst = lists[u]
        ap = average_precision_at_k(lst, hidden[u], k)
        total += ap
        fill_total += min(len(lst), k) / k
        if len(lst) > 0:
            nonempty_total += ap
            nonempty_count += 1
        recommended.update(lst.item_ids(k))
    return {
        "map": total / len(users),
        "map_nonempty": (nonempty_total / nonempty_count) if nonempty_count else 0.0,
        "ucov": fill_total / len(users),
        "ccov": len(recommended) / len(catalog),
    }


def jaccard_list_similarity(
    lists_a: Mapping[str, RecommendationList],
    lists_b: Mapping[str, RecommendationList],
    k: int,
) -> float:
    """Mean Jaccard similarity of the two top-``k`` item sets per user.

    Only users present in both collections are compared; a user whose two
    lists are both empty contributes 0.0. Raises ``UndefinedMetricError``
    when the collections share no users.
    """
    _require("k", k, _positive_int)
    common_users = sorted(set(lists_a) & set(lists_b))
    if not common_users:
        raise UndefinedMetricError("the two list collections share no users")
    total = 0.0
    for u in common_users:
        a = set(lists_a[u].item_ids(k))
        b = set(lists_b[u].item_ids(k))
        union = a | b
        total += len(a & b) / len(union) if union else 0.0
    return total / len(common_users)


def hit_intersection(
    lists_a: Mapping[str, RecommendationList],
    lists_b: Mapping[str, RecommendationList],
    hidden: Mapping[str, AbstractSet[str]],
    k: int,
) -> dict[str, int]:
    """Split the correct top-``k`` recommendations of two algorithms into
    exclusive and shared (user, item) hits: the counts ``exclusive_a``,
    ``exclusive_b`` and ``common``, named and ordered as ``intersections.csv``
    writes them."""
    _require("k", k, _positive_int)
    if set(lists_a) != set(lists_b):
        raise ValueError("the two list collections must cover the same users")
    users = sorted(lists_a)
    for u in users:
        if u not in hidden:
            raise ValueError(f"user {u!r} has no hidden set")
    hits_a = {(u, i) for u in users for i in lists_a[u].item_ids(k) if i in hidden[u]}
    hits_b = {(u, i) for u in users for i in lists_b[u].item_ids(k) if i in hidden[u]}
    return {
        "exclusive_a": len(hits_a - hits_b),
        "exclusive_b": len(hits_b - hits_a),
        "common": len(hits_a & hits_b),
    }
