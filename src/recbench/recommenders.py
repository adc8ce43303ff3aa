"""Three top-N recommenders behind one ranked-list contract.

* ``cf``  - user-based nearest-neighbour collaborative filtering
* ``upa`` - user profile aggregation: query by the strongest profile terms
* ``sup`` - similar-item voting: profile items nominate their neighbours

All of them return lists sorted by descending score with ties broken by
ascending item id, never recommend an item from the user's own profile, and
omit zero-score candidates (a list may therefore be shorter than requested).
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from .corpus import InteractionDataset
from .errors import ColdStartError
from .textproc import DocumentIndex, SparseVector, top_k_similar

DEFAULT_NEIGHBORHOOD_SIZE = 50
DEFAULT_PROFILE_TERM_BUDGET = 100
DEFAULT_VOTES_PER_ITEM = 50
SIMILARITY_METRICS = ("cosine", "pearson")


@dataclass(frozen=True)
class UserProfile:
    """A user's training-time items, with ratings where available."""

    user_id: str
    items: Mapping[str, float | None]

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be a non-empty string")
        if not self.items:
            raise ValueError("profile must contain at least one item")
        object.__setattr__(self, "items", dict(self.items))

    @classmethod
    def from_training(cls, train: InteractionDataset, user_id: str) -> "UserProfile":
        return cls(user_id=user_id, items=train.profile(user_id))


@dataclass(frozen=True)
class RecommendationList:
    """A ranked list of ``(item_id, score)`` pairs for one user.

    ``target_k`` is the requested length; ``entries`` may be shorter when
    too few candidates score above zero.
    """

    user_id: str
    entries: tuple[tuple[str, float], ...]
    target_k: int

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be a non-empty string")
        if self.target_k < 1:
            raise ValueError("target_k must be >= 1")
        entries = tuple((item_id, float(score)) for item_id, score in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) > self.target_k:
            raise ValueError(f"{len(entries)} entries exceed target_k={self.target_k}")
        seen = set()
        for item_id, _ in entries:
            if item_id in seen:
                raise ValueError(f"duplicate item {item_id!r} in recommendation list")
            seen.add(item_id)
        for (_, a), (_, b) in zip(entries, entries[1:]):
            if b > a:
                raise ValueError("scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def item_ids(self, k: int | None = None) -> tuple[str, ...]:
        rows = self.entries if k is None else self.entries[:k]
        return tuple(item_id for item_id, _ in rows)


class CFModel:
    """User-based nearest-neighbour model over the training matrix.

    Interactions without an explicit rating count as 1.0, so purely implicit
    data yields a binary matrix. Instances are immutable after fitting and
    safe for concurrent queries.
    """

    def __init__(self, train: InteractionDataset, neighborhood_size: int, similarity_metric: str):
        if neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")
        if similarity_metric not in SIMILARITY_METRICS:
            raise ValueError(f"similarity_metric must be one of {SIMILARITY_METRICS}")
        self.neighborhood_size = neighborhood_size
        self.similarity_metric = similarity_metric
        self._ratings: dict[str, dict[str, float]] = {
            u: {i: (1.0 if r is None else float(r)) for i, r in prof.items()}
            for u, prof in train.profiles.items()
        }
        self._norms: dict[str, float] = {}
        for u, prof in self._ratings.items():
            s = 0.0
            for i in sorted(prof):
                r = prof[i]
                s += r * r
            self._norms[u] = math.sqrt(s)
        item_users: dict[str, list[str]] = {}
        for u, prof in self._ratings.items():
            for i in prof:
                item_users.setdefault(i, []).append(u)
        self._item_users = {i: tuple(us) for i, us in item_users.items()}

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._ratings

    def ratings_of(self, user_id: str) -> Mapping[str, float]:
        return self._ratings[user_id]

    def similarity(self, user_a: str, user_b: str) -> float:
        """Similarity between two known users under the configured metric."""
        pa, pb = self._ratings[user_a], self._ratings[user_b]
        common = sorted(pa.keys() & pb.keys())
        if self.similarity_metric == "cosine":
            dot = 0.0
            for i in common:
                dot += pa[i] * pb[i]
            if dot == 0.0:
                return 0.0
            return dot / (self._norms[user_a] * self._norms[user_b])
        return self._pearson(pa, pb, common)

    @staticmethod
    def _pearson(pa: Mapping[str, float], pb: Mapping[str, float], common: list[str]) -> float:
        if len(common) < 2:
            return 0.0
        mean_a = sum(pa[i] for i in common) / len(common)
        mean_b = sum(pb[i] for i in common) / len(common)
        cov = var_a = var_b = 0.0
        for i in common:
            da = pa[i] - mean_a
            db = pb[i] - mean_b
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
        ``neighborhood_size`` are returned, ties broken by ascending id.
        """
        prof = self._ratings[user_id]
        co_users: set[str] = set()
        for i in prof:
            co_users.update(self._item_users.get(i, ()))
        co_users.discard(user_id)
        sims = []
        for v in sorted(co_users):
            s = self.similarity(user_id, v)
            if s > 0.0:
                sims.append((v, s))
        sims.sort(key=lambda e: (-e[1], e[0]))
        return tuple(sims[: self.neighborhood_size])


def fit_cf(
    train: InteractionDataset,
    neighborhood_size: int = DEFAULT_NEIGHBORHOOD_SIZE,
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
    if k < 1:
        raise ValueError("k must be >= 1")
    if user.user_id not in model:
        raise ColdStartError(f"user {user.user_id!r} is not in the training matrix")
    own = set(user.items)
    scores: dict[str, float] = {}
    # ascending neighbour id keeps the float sums reproducible
    for v, sim in sorted(model.neighbors(user.user_id)):
        ratings = model.ratings_of(v)
        for i in sorted(ratings):
            if i in own:
                continue
            scores[i] = scores.get(i, 0.0) + sim * ratings[i]
    entries = [(i, s) for i, s in scores.items() if s > 0.0]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return RecommendationList(user_id=user.user_id, entries=tuple(entries[:k]), target_k=k)


@dataclass(frozen=True)
class UPAModel:
    """Content model that queries with aggregated profile terms."""

    index: DocumentIndex
    profile_term_budget: int

    def __post_init__(self):
        if self.profile_term_budget < 1:
            raise ValueError("profile_term_budget must be >= 1")


def fit_upa(index: DocumentIndex, profile_term_budget: int = DEFAULT_PROFILE_TERM_BUDGET) -> UPAModel:
    return UPAModel(index=index, profile_term_budget=profile_term_budget)


def recommend_upa(model: UPAModel, user: UserProfile, k: int) -> RecommendationList:
    """Recommend items similar to the user's aggregated profile terms.

    Term weights of every content-bearing profile item are summed term-wise;
    the highest-weight terms (up to the model's budget, ties broken by
    ascending term string) form a query vector that keeps those aggregated
    weights. Indexed items outside the profile are ranked by cosine
    similarity to the query. A profile with no content at all yields an
    empty list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    profile_ids = sorted(user.items)
    aggregated: dict[int, float] = {}
    for item_id in profile_ids:
        if item_id not in model.index:
            continue
        vec = model.index.vector(item_id)
        for t in sorted(vec.entries):
            aggregated[t] = aggregated.get(t, 0.0) + vec.entries[t]
    if not aggregated:
        return RecommendationList(user_id=user.user_id, entries=(), target_k=k)
    terms = model.index.vocabulary.terms
    ranked = sorted(aggregated.items(), key=lambda kv: (-kv[1], terms[kv[0]]))
    query = SparseVector(dict(ranked[: model.profile_term_budget]))
    entries = top_k_similar(model.index, query, k, exclude=set(profile_ids))
    return RecommendationList(user_id=user.user_id, entries=tuple(entries), target_k=k)


@dataclass(frozen=True)
class SUPModel:
    """Content model where profile items vote for their nearest items.

    The model owns a neighbour table that is empty after fitting and fills
    on demand: for each voter item it keeps the item's unfiltered ranking
    from ``top_k_similar`` (the item itself included) and the depth that
    ranking was asked for. The index depends on neither the user nor the
    fold, so one fitted model serves every user of every fold, and a voter
    item shared by many profiles is ranked once. A fill that loses a race
    with a concurrent one stores an equally exact ranking, so concurrent
    queries stay correct.
    """

    index: DocumentIndex
    votes_per_item: int
    _neighbors: dict[str, tuple[int, list[tuple[str, float]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.votes_per_item < 1:
            raise ValueError("votes_per_item must be >= 1")

    def neighbors(self, item_id: str, depth: int) -> list[tuple[str, float]]:
        """The indexed item's most similar items, the item itself included.

        Holds the top ``depth`` items, or every positively scored item when
        fewer exist. A cached ranking is reused when it was asked for at
        least ``depth`` items or came back shorter than it was asked for
        (it is then complete); a full but shallower one is recomputed at
        ``depth``.
        """
        cached = self._neighbors.get(item_id)
        if cached is not None:
            cached_depth, ranking = cached
            if cached_depth >= depth or len(ranking) < cached_depth:
                return ranking
        ranking = top_k_similar(self.index, self.index.vector(item_id), depth)
        self._neighbors[item_id] = (depth, ranking)
        return ranking


def fit_sup(index: DocumentIndex, votes_per_item: int = DEFAULT_VOTES_PER_ITEM) -> SUPModel:
    return SUPModel(index=index, votes_per_item=votes_per_item)


def recommend_sup(model: SUPModel, user: UserProfile, k: int) -> RecommendationList:
    """Accumulate votes from each profile item's most similar items.

    Every content-bearing profile item nominates its ``votes_per_item`` most
    similar non-profile items (profile items are excluded before the cutoff
    is applied), contributing its cosine similarity as vote weight.
    Candidates are ranked by total accumulated weight. Voters are processed
    in ascending item-id order, so the result never depends on how the
    profile mapping happens to be ordered.

    Nominations come from the model's neighbour table at depth
    ``votes_per_item + len(profile)``: at most ``len(profile)`` of those
    rows are profile items, so filtering them out and cutting at
    ``votes_per_item`` leaves the same pairs, in the same order, as
    excluding the profile before ranking. A similarity does not depend on
    what is excluded, so the vote sums are identical to the last bit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    profile_ids = sorted(user.items)
    exclude = set(profile_ids)
    depth = model.votes_per_item + len(profile_ids)
    votes: dict[str, float] = {}
    for item_id in profile_ids:
        if item_id not in model.index or not model.index.vector(item_id):
            continue
        nominated = 0
        for candidate, sim in model.neighbors(item_id, depth):
            if candidate in exclude:
                continue
            votes[candidate] = votes.get(candidate, 0.0) + sim
            nominated += 1
            if nominated == model.votes_per_item:
                break
    entries = sorted(votes.items(), key=lambda e: (-e[1], e[0]))
    return RecommendationList(user_id=user.user_id, entries=tuple(entries[:k]), target_k=k)
