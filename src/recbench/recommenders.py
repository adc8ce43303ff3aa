"""Three top-N recommenders behind one ranked-list contract.

* ``cf``  - user-based nearest-neighbour collaborative filtering
* ``upa`` - user profile aggregation: query by the strongest profile terms
* ``sup`` - similar-item voting: profile items nominate their neighbours

All of them return lists sorted by descending score with ties broken by
ascending item id, never recommend an item from the user's own profile, and
omit zero-score candidates (a list may therefore be shorter than requested).
``ALGORITHMS`` holds each one's parameter checks and inputs for a run; a
parameter's default is the keyword default of ``fit_<name>``, and nowhere else.
"""

import heapq
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import islice

from .corpus import InteractionDataset, _positive_int, _require
from .errors import ColdStartError
from .textproc import DocumentIndex, FrozenSlots, SparseVector, top_k_similar

SIMILARITY_METRICS = ("cosine", "pearson")


@dataclass(frozen=True)
class UserProfile:
    """A user's training-time items and their ratings, kept by ascending item
    id so that every sum over the profile runs in one fixed order."""

    user_id: str
    items: Mapping[str, float]

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be a non-empty string")
        if not self.items:
            raise ValueError("profile must contain at least one item")
        object.__setattr__(self, "items", dict(sorted(self.items.items())))


class RecommendationList(FrozenSlots):
    """A ranked list of ``(item_id, score)`` pairs for one user.

    ``target_k`` is the requested length; the list may be shorter when too
    few candidates score above zero. It is built from an iterable of pairs
    but stores them as two columns: the item ids in one tuple and the
    scores, each passed through ``float()``, in one ``array("d")``, which
    holds every double exactly at 8 bytes and no float object per entry.
    Entries are checked as they are read, each by these rules in this order:
    at most ``target_k`` entries, a non-empty item id, no repeated item, a
    finite score, and no score above the one before. The first entry that
    breaks a rule raises ``ValueError``, and no entry after it is read.
    ``item_ids(k)`` slices the ids tuple; ``scores`` and ``entries`` (the
    pairs) are tuples built on each read. The list is immutable and
    pickles as its constructor arguments.
    """

    __slots__ = ("user_id", "target_k", "_ids", "_scores")

    def __init__(self, user_id: str, entries: Iterable[tuple[str, float]], target_k: int):
        if not user_id:
            raise ValueError("user_id must be a non-empty string")
        _require("target_k", target_k, _positive_int)
        # a good entry passes one test, and only a bad one works out which rule it
        # broke; the empty id starts out seen, so the membership test fails an empty
        # item too, and the score range ends at the largest finite float, so inf and nan fail it
        ids, scores, seen = [], [], {""}
        low, last = -math.inf, sys.float_info.max
        for item_id, score in entries:
            score = float(score)
            if len(ids) == target_k or item_id in seen or not low < score <= last:
                if len(ids) == target_k:
                    raise ValueError(f"{target_k + 1} entries exceed target_k={target_k}")
                if item_id == "":
                    raise ValueError("item_id must be a non-empty string")
                if item_id in seen:
                    raise ValueError(f"duplicate item {item_id!r} in recommendation list")
                if not math.isfinite(score):
                    raise ValueError(f"score of item {item_id!r} is not finite: {score!r}")
                raise ValueError("scores must be non-increasing")
            seen.add(item_id)
            ids.append(item_id)
            scores.append(score)
            last = score
        object.__setattr__(self, "user_id", user_id)
        object.__setattr__(self, "target_k", target_k)
        object.__setattr__(self, "_ids", tuple(ids))
        object.__setattr__(self, "_scores", array("d", scores))

    def __reduce__(self):
        return type(self), (self.user_id, self.entries, self.target_k)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self._ids, self._scores))

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(self._scores)

    def item_ids(self, k: int | None = None) -> tuple[str, ...]:
        return self._ids if k is None else self._ids[:k]


def _top(scores: Mapping[str | int, float], k: int) -> list[tuple[str | int, float]]:
    """The ``k`` best positive ``(id, score)`` pairs by the exact key ``(-score, id)``
    (negation loses nothing); given a list, nsmallest sorts one no longer than ``k``."""
    best = heapq.nsmallest(k, [(-s, i) for i, s in scores.items() if s > 0.0])
    return [(i, -neg) for neg, i in best]


def _unseen(ranking, profile: Mapping[str, float], n: int) -> Iterator[tuple[str, float]]:
    """The first ``n`` pairs of ``ranking`` whose id is not in ``profile``. From a ranking
    ``n + len(profile)`` deep, they are exactly the first ``n`` of a ranking that excluded
    the profile before its cutoff, as no similarity depends on what is excluded. No
    ranking is longer than ``sys.maxsize``, the largest cutoff ``islice`` takes."""
    return islice((pair for pair in ranking if pair[0] not in profile), min(n, sys.maxsize))


class CFModel:
    """User-based nearest-neighbour model over the training matrix.

    ``profiles`` is the training set's ``{user: {item: rating}}``, read in
    place, and every sum over a profile runs in its ascending item order; an
    unrated interaction was loaded as 1.0, so purely implicit data yields a
    binary matrix. Fitting adds one column per item (user -> rating), which
    lives as long as the model. Nothing changes after fitting.
    """

    def __init__(self, train: InteractionDataset, neighborhood_size: int, similarity_metric: str):
        _require("neighborhood_size", neighborhood_size, _positive_int)
        _require("similarity_metric", similarity_metric, _similarity_metric)
        self.neighborhood_size = neighborhood_size
        self.similarity_metric = similarity_metric
        self.profiles = train.profiles
        self._norms: dict[str, float] = {}
        self._columns: dict[str, dict[str, float]] = {}
        for u, prof in self.profiles.items():
            s = 0.0
            for i, r in prof.items():
                s += r * r
                self._columns.setdefault(i, {})[u] = r
            self._norms[u] = math.sqrt(s)

    @staticmethod
    def _pearson(pairs: list[tuple[float, float]]) -> float:
        """The clamped correlation of ``(rating_a, rating_b)`` pairs, summed in
        list order; 0 for fewer than two pairs or a side with no variance."""
        n = len(pairs)
        if n < 2:
            return 0.0
        sum_a = sum_b = 0.0
        for ra, rb in pairs:
            sum_a += ra
            sum_b += rb
        mean_a, mean_b = sum_a / n, sum_b / n
        cov = var_a = var_b = 0.0
        for ra, rb in pairs:
            da = ra - mean_a
            db = rb - mean_b
            cov += da * db
            var_a += da * da
            var_b += db * db
        if var_a == 0.0 or var_b == 0.0:
            return 0.0
        r = cov / math.sqrt(var_a * var_b)
        return max(-1.0, min(1.0, r))

    def neighbors(self, user_id: str) -> tuple[tuple[str, float], ...]:
        """The user's most similar co-rating users, strongest first.

        Only users with strictly positive similarity qualify; at most
        ``neighborhood_size`` are returned, ties broken by ascending id. One
        pass over the user's profile, in ascending item order, reads every
        co-rater from the item columns, so each pair sums its common items in
        the queried user's ascending item order.
        """
        pa = self.profiles[user_id]
        if self.similarity_metric == "cosine":
            dots: dict[str, float] = {}
            for i, ra in pa.items():
                for v, rb in self._columns[i].items():
                    dots[v] = dots.get(v, 0.0) + ra * rb
            na = self._norms[user_id]
            sims = {v: dot / (na * self._norms[v]) for v, dot in dots.items() if dot != 0.0 and v != user_id}
        else:
            pairs: dict[str, list[tuple[float, float]]] = {}
            for i, ra in pa.items():
                for v, rb in self._columns[i].items():
                    pairs.setdefault(v, []).append((ra, rb))
            pairs.pop(user_id, None)
            sims = {v: self._pearson(common) for v, common in pairs.items()}
        return tuple(_top(sims, self.neighborhood_size))


def fit_cf(
    train: InteractionDataset,
    neighborhood_size: int = 50,
    similarity_metric: str = "cosine",
) -> CFModel:
    """Fit the collaborative model on a training dataset."""
    return CFModel(train, neighborhood_size, similarity_metric)


def recommend_cf(model: CFModel, user: UserProfile, k: int) -> RecommendationList:
    """Score items rated by the user's neighbours.

    A candidate's score is the sum over neighbours who rated it of the
    neighbour's similarity times the neighbour's rating. The user must exist
    in the training matrix; an unknown id raises ``ColdStartError`` rather
    than returning an empty list.
    """
    _require("k", k, _positive_int)
    profiles = model.profiles
    if user.user_id not in profiles:
        raise ColdStartError(f"user {user.user_id!r} is not in the training matrix")
    scores: dict[str, float] = {}
    # ascending neighbour id keeps the float sums reproducible
    for v, sim in sorted(model.neighbors(user.user_id)):
        for i, r in profiles[v].items():
            if i not in user.items:
                scores[i] = scores.get(i, 0.0) + sim * r
    return RecommendationList(user_id=user.user_id, entries=tuple(_top(scores, k)), target_k=k)


@dataclass(frozen=True)
class UPAModel:
    """Content model that queries with aggregated profile terms."""

    index: DocumentIndex
    profile_term_budget: int

    def __post_init__(self):
        _require("profile_term_budget", self.profile_term_budget, _positive_int)


def fit_upa(index: DocumentIndex, profile_term_budget: int = 100) -> UPAModel:
    return UPAModel(index=index, profile_term_budget=profile_term_budget)


def recommend_upa(model: UPAModel, user: UserProfile, k: int) -> RecommendationList:
    """Recommend items similar to the user's aggregated profile terms.

    Term weights of every content-bearing profile item are summed term-wise;
    the highest-weight terms (up to the model's budget, ties broken by
    ascending term string) form a query vector that keeps those aggregated
    weights. Indexed items outside the profile are ranked by cosine
    similarity to the query (``_unseen`` cuts a ranking ``k + len(profile)``
    deep). A profile with no content at all yields an empty list.
    """
    _require("k", k, _positive_int)
    vectors = model.index.vectors
    aggregated: dict[int, float] = {}
    for item_id in user.items:
        vec = vectors.get(item_id)
        if not vec:
            continue
        for t, w in zip(vec.terms, vec.weights):
            aggregated[t] = aggregated.get(t, 0.0) + w
    if not aggregated:
        return RecommendationList(user_id=user.user_id, entries=(), target_k=k)
    # term index order is term order, so ties keep the ascending term; the
    # query holds the chosen terms by ascending index
    query = SparseVector(*zip(*sorted(_top(aggregated, model.profile_term_budget))))
    entries = _unseen(top_k_similar(model.index, query, k + len(user.items)), user.items, k)
    return RecommendationList(user_id=user.user_id, entries=tuple(entries), target_k=k)


@dataclass(frozen=True)
class SUPModel:
    """Content model where profile items vote for their nearest items.

    The model owns a neighbour table that is empty after fitting and fills
    on demand: for each voter item it keeps the depth a ranking was asked
    for and the item's unfiltered ranking from ``top_k_similar`` (the item
    itself included), stored like a ``RecommendationList``: the item ids in
    one tuple and the scores in one ``array("d")``. The index depends on
    neither the user nor the fold, so one fitted model serves every user of
    every fold, and a voter item shared by many profiles is ranked once.
    Each fill keeps a prefix of one exact ranking, so no list depends on the
    order of fills. A run is one process; a copy of the model in another
    process fills its own table.
    """

    index: DocumentIndex
    votes_per_item: int
    _neighbors: dict[str, tuple[int, tuple[str, ...], array]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _require("votes_per_item", self.votes_per_item, _positive_int)

    def neighbors(self, item_id: str, depth: int) -> Iterator[tuple[str, float]]:
        """Yield the indexed item's most similar items as ``(item_id, score)``
        pairs, best first, the item itself included.

        Yields the top ``depth`` items, or every positively scored item when
        fewer exist, and may yield more when a deeper ranking is cached. A
        cached ranking is reused when it was asked for at least ``depth``
        items or came back shorter than it was asked for (it is then
        complete); a full but shallower one is recomputed at ``depth``.
        """
        cached = self._neighbors.get(item_id)
        if cached is not None:
            cached_depth, ids, scores = cached
            if cached_depth >= depth or len(ids) < cached_depth:
                return zip(ids, scores)
        ranking = top_k_similar(self.index, self.index.vectors[item_id], depth)
        ids = tuple(item for item, _ in ranking)
        scores = array("d", (score for _, score in ranking))
        self._neighbors[item_id] = (depth, ids, scores)
        return zip(ids, scores)


def fit_sup(index: DocumentIndex, votes_per_item: int = 50) -> SUPModel:
    return SUPModel(index=index, votes_per_item=votes_per_item)


def recommend_sup(model: SUPModel, user: UserProfile, k: int) -> RecommendationList:
    """Accumulate votes from each profile item's most similar items.

    Every content-bearing profile item nominates its ``votes_per_item`` most
    similar non-profile items (profile items are excluded before the cutoff
    is applied, by ``_unseen`` on the model's neighbour table at depth
    ``votes_per_item + len(profile)``), contributing its cosine similarity
    as vote weight. Candidates are ranked by total accumulated weight.
    Voters are processed in ascending item-id order, so the result never
    depends on how the profile mapping happens to be ordered.
    """
    _require("k", k, _positive_int)
    depth = model.votes_per_item + len(user.items)
    vectors = model.index.vectors
    votes: dict[str, float] = {}
    for item_id in user.items:
        if not vectors.get(item_id):
            continue
        ranking = model.neighbors(item_id, depth)
        for candidate, sim in _unseen(ranking, user.items, model.votes_per_item):
            votes[candidate] = votes.get(candidate, 0.0) + sim
    return RecommendationList(user_id=user.user_id, entries=tuple(_top(votes, k)), target_k=k)


def _similarity_metric(value) -> str | None:
    if value not in SIMILARITY_METRICS:
        return f"must be one of {list(SIMILARITY_METRICS)}"
    return None


@dataclass(frozen=True)
class AlgorithmSpec:
    """How a run configures, fits and queries one recommender.

    ``params`` maps each parameter, named as the keyword of ``fit_<name>``,
    to a check that returns why a value is invalid, or ``None`` for a valid
    one; a parameter left out takes ``fit_<name>``'s keyword default. An
    algorithm that ``needs_content`` is fitted on an attribute selection's
    ``DocumentIndex``, any other on a fold's training ``InteractionDataset``.
    """

    name: str
    params: Mapping[str, Callable[[object], str | None]]
    needs_content: bool

    # fit_<name> and recommend_<name> are looked up when called, not when the
    # table is built, so a wrapper rebound onto the module attribute (a
    # profiler's or a test's) sees every call a run makes
    def fit(self, source, **params):
        return globals()[f"fit_{self.name}"](source, **params)

    def recommend(self, model, user: UserProfile, k: int) -> RecommendationList:
        return globals()[f"recommend_{self.name}"](model, user, k)


ALGORITHMS: Mapping[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "cf",
            {"neighborhood_size": _positive_int, "similarity_metric": _similarity_metric},
            needs_content=False,
        ),
        AlgorithmSpec("sup", {"votes_per_item": _positive_int}, needs_content=True),
        AlgorithmSpec("upa", {"profile_term_budget": _positive_int}, needs_content=True),
    )
}
