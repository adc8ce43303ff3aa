"""Interaction and content data: loading, statistics, and holdout splits."""

import copy
import json
import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial

from .errors import EmptyDatasetError, ParseError, ProtocolError, decode_error

INTERACTION_FORMATS = ("explicit", "implicit")

IMPLICIT_RATING = 1.0


def _positive_int(value) -> str | None:
    """Why ``value`` is not a count (an ``int`` of at least 1, not a ``bool``),
    or ``None`` when it is one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        return "must be a positive integer"
    return None


def _require(name: str, value, rule) -> None:
    """Raise ``ValueError`` naming the parameter ``name`` when ``rule(value)``
    finds a problem, in the form a configuration problem takes."""
    problem = rule(value)
    if problem:
        raise ValueError(f"{name} {problem}, got {value!r}")


class InteractionDataset:
    """An immutable collection of user-item activities: one profile per user,
    holding item id -> rating by ascending item id. ``users`` and ``items``
    keep first-appearance order; a training split keeps every item even when
    it loses all its activities. Instances are read-only after construction.
    """

    def __init__(self, profiles: dict[str, dict[str, float]], items: Iterable[str]):
        """Adopt ``profiles`` (user -> item -> rating, users in first-appearance
        order) and ``items``, sorting each profile by item id in place so only
        one unsorted profile is alive at a time."""
        self.users: tuple[str, ...] = tuple(profiles)
        self.items: tuple[str, ...] = tuple(items)
        for user, profile in profiles.items():
            profiles[user] = dict(sorted(profile.items()))
        self._profiles = profiles

    def _without(self, hidden: Mapping[str, frozenset[str]]) -> "InteractionDataset":
        """A shallow copy without each ``hidden`` user's items; untouched rows are shared."""
        out = copy.copy(self)
        out._profiles = dict(self._profiles)
        for user, items in hidden.items():
            out._profiles[user] = {i: r for i, r in self._profiles[user].items() if i not in items}
        return out

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_activities(self) -> int:
        return sum(map(len, self._profiles.values()))

    @property
    def profiles(self) -> Mapping[str, Mapping[str, float]]:
        """Read-only view of user -> {item -> rating}."""
        return self._profiles


def _rows(path, parse):
    """Yield ``parse(line)``, line end removed, for each line of the UTF-8
    text file ``path`` but those it maps to ``None``; a leading BOM is not
    part of the first line. A ``ValueError`` from ``parse``, or a byte that
    is not UTF-8, is a ``ParseError`` at its line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    row = parse(line.rstrip("\n"))
                except ValueError as exc:
                    raise ParseError(str(exc), path=str(path), line=lineno) from None
                if row is not None:
                    yield row
        except UnicodeDecodeError:
            raise decode_error(path) from None


def _parse_interaction_row(line: str, format: str) -> tuple[str, str, float] | None:
    """``(user id, item id, rating)`` of one tab-separated line: non-empty
    ids and a finite, non-negative rating; ``None`` for a blank or ``#`` line."""
    if not line.strip() or line.startswith("#"):
        return None
    fields = line.split("\t")
    max_fields = 4 if format == "explicit" else 3  # the last one a timestamp
    if len(fields) < 2:
        raise ValueError(f"expected at least 2 tab-separated fields, got {len(fields)}")
    if len(fields) > max_fields:
        raise ValueError(f"expected at most {max_fields} tab-separated fields, got {len(fields)}")
    rating = IMPLICIT_RATING
    if max_fields == 4 and len(fields) >= 3:
        try:
            rating = float(fields[2])
        except ValueError:
            raise ValueError(f"invalid rating {fields[2]!r}") from None
    # the timestamp is checked but not kept: no step of the protocol reads it
    timestamp = fields[max_fields - 1:]
    if timestamp:
        try:
            int(timestamp[0])
        except ValueError:
            raise ValueError(f"invalid timestamp {timestamp[0]!r}") from None
    if not fields[0]:
        raise ValueError("user_id must be a non-empty string")
    if not fields[1]:
        raise ValueError("item_id must be a non-empty string")
    if not math.isfinite(rating) or rating < 0:
        raise ValueError(f"rating must be finite and non-negative, got {rating!r}")
    return fields[0], fields[1], rating


def load_interactions(path, format: str = "explicit") -> InteractionDataset:
    """Read a UTF-8, tab-separated activity file into a dataset.

    Rows are ``user<TAB>item[<TAB>rating[<TAB>timestamp]]`` in the explicit
    format and ``user<TAB>item[<TAB>timestamp]`` in the implicit one; a row
    without a rating, so every implicit row, is recorded with rating 1.0.
    Lines starting with ``#`` and blank lines are skipped. Users and items
    keep first-appearance order; when a (user, item) pair repeats, the last
    occurrence's rating wins. Each row goes straight into its user's profile,
    so memory grows with distinct pairs, not with rows.
    """
    if format not in INTERACTION_FORMATS:
        raise ValueError(f"format must be one of {INTERACTION_FORMATS}, got {format!r}")
    profiles: dict[str, dict[str, float]] = {}
    items: dict[str, str] = {}
    for user, item, rating in _rows(path, partial(_parse_interaction_row, format=format)):
        # every profile keys the item by the one id string that items holds
        item = items.setdefault(item, item)
        try:
            profiles[user][item] = rating
        except KeyError:
            profiles[user] = {item: rating}
    if not profiles:
        raise EmptyDatasetError(f"{path}: no interaction records")
    return InteractionDataset(profiles, items)


class ContentCorpus:
    """Item content: ``documents`` maps each item id, in load order, to its
    ``{attribute: text}`` dict. The dict given is adopted as it is, not
    copied; read-only after construction."""

    def __init__(self, documents: dict[str, dict[str, str]]):
        self.documents = documents

    def __len__(self) -> int:
        return len(self.documents)

    def item_ids(self) -> tuple[str, ...]:
        return tuple(self.documents)

    def attribute_names(self) -> tuple[str, ...]:
        names: set[str] = set()
        for attributes in self.documents.values():
            names.update(attributes)
        return tuple(sorted(names))


def _parse_document(line: str) -> tuple[str, dict[str, str]] | None:
    """``(item id, {attribute: text})`` of one JSON-lines row, scalar
    attribute values coerced to strings; ``None`` for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
        if "\\u" in line:
            # a lone surrogate can only come from an escape: no UTF-8 file holds one
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except UnicodeEncodeError:
        raise ValueError("a \\u escape makes a lone surrogate") from None
    except (ValueError, RecursionError) as exc:
        # an integer longer than int() accepts, or nesting deeper than the stack
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    item_id = obj.get("item_id")
    if not isinstance(item_id, str) or not item_id:
        raise ValueError("item_id must be a non-empty string")
    attrs = obj.get("attributes", {})
    if not isinstance(attrs, dict):
        raise ValueError("attributes must be an object")
    clean: dict[str, str] = {}
    for name, value in attrs.items():
        if isinstance(value, str):
            clean[name] = value
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            clean[name] = str(value)
        else:
            raise ValueError(f"attribute {name!r} must be text or a number")
    return item_id, clean


def load_content(path) -> ContentCorpus:
    """Read item documents from a UTF-8 JSON-lines file into a
    ``ContentCorpus`` whose ``documents`` maps each item id to its
    ``{attribute: text}`` dict.

    Each line is an object ``{"item_id": ..., "attributes": {name: text}}``.
    Scalar attribute values are coerced to strings; blank lines are skipped
    and a repeated item_id keeps its last document. A string that escapes a
    lone surrogate (``"\\ud800"``) cannot be written as UTF-8 and is an error.
    """
    docs = dict(_rows(path, _parse_document))
    if not docs:
        raise EmptyDatasetError(f"{path}: no item documents")
    return ContentCorpus(docs)


@dataclass(frozen=True)
class DatasetStats:
    """Descriptive statistics of an interaction dataset."""

    n_users: int
    n_items: int
    n_activities: int
    items_per_user_ratio: float
    avg_items_per_user: float
    avg_users_per_item: float
    max_items_per_user: int
    min_items_per_user: int
    max_users_per_item: int
    min_users_per_item: int
    sparsity: float

    @classmethod
    def from_counts(
        cls,
        n_users: int,
        n_items: int,
        n_activities: int,
        max_items_per_user: int,
        min_items_per_user: int,
        max_users_per_item: int,
        min_users_per_item: int,
    ) -> "DatasetStats":
        """Derive the ratio fields from raw counts.

        All derived quantities are computed from the counts themselves:
        ratio of catalog size to user count, mean activities per user and per
        item, and sparsity ``1 - n_activities / (n_users * n_items)``.
        """
        if n_users < 1 or n_items < 1 or n_activities < 1:
            raise ValueError("counts must be positive")
        return cls(
            n_users=n_users,
            n_items=n_items,
            n_activities=n_activities,
            items_per_user_ratio=n_items / n_users,
            avg_items_per_user=n_activities / n_users,
            avg_users_per_item=n_activities / n_items,
            max_items_per_user=max_items_per_user,
            min_items_per_user=min_items_per_user,
            max_users_per_item=max_users_per_item,
            min_users_per_item=min_users_per_item,
            sparsity=1.0 - n_activities / (n_users * n_items),
        )


def compute_stats(ds: InteractionDataset) -> DatasetStats:
    """Compute descriptive statistics for ``ds``."""
    per_user = list(map(len, ds.profiles.values()))
    raters = dict.fromkeys(ds.items, 0)
    for profile in ds.profiles.values():
        for i in profile:
            raters[i] += 1
    per_item = list(raters.values())
    return DatasetStats.from_counts(
        n_users=ds.n_users,
        n_items=ds.n_items,
        n_activities=ds.n_activities,
        max_items_per_user=max(per_user),
        min_items_per_user=min(per_user),
        max_users_per_item=max(per_item),
        min_users_per_item=min(per_item),
    )


@dataclass(frozen=True)
class SplitPlan:
    """Assignment of protocol-eligible users to cross-validation folds."""

    fold_count: int
    given_n: int
    rng_seed: int
    folds: Mapping[str, int]

    def users_in_fold(self, fold: int) -> tuple[str, ...]:
        return tuple(sorted(u for u, f in self.folds.items() if f == fold))


def plan_splits(
    ds: InteractionDataset,
    fold_count: int = 10,
    given_n: int = 10,
    min_train_items: int = 10,
    rng_seed: int = 0,
) -> SplitPlan:
    """Partition eligible users into ``fold_count`` folds of near-equal size.

    A user is eligible when their profile holds at least
    ``given_n + min_train_items`` interactions, so that hiding ``given_n``
    items always leaves at least ``min_train_items`` for training.
    Ineligible users stay out of every fold and are used as training-only
    users. The same seed always yields the same plan.
    """
    _require("fold_count", fold_count, _positive_int)
    _require("given_n", given_n, _positive_int)
    _require("min_train_items", min_train_items, _positive_int)
    threshold = given_n + min_train_items
    eligible = sorted(u for u, profile in ds.profiles.items() if len(profile) >= threshold)
    if not eligible:
        raise ProtocolError(
            f"no user has the {threshold} interactions required by the holdout protocol"
        )
    if len(eligible) < fold_count:
        raise ProtocolError(
            f"only {len(eligible)} eligible users for {fold_count} folds"
        )
    rng = random.Random(rng_seed)
    rng.shuffle(eligible)
    folds = {u: i % fold_count for i, u in enumerate(eligible)}
    return SplitPlan(
        fold_count=fold_count,
        given_n=given_n,
        rng_seed=rng_seed,
        folds=folds,
    )


@dataclass(frozen=True)
class HoldoutSplit:
    """One fold's training dataset plus the hidden items of each fold user, by ascending id."""

    train: InteractionDataset
    hidden: Mapping[str, frozenset[str]]


def materialize_split(ds: InteractionDataset, plan: SplitPlan, fold: int) -> HoldoutSplit:
    """Hide ``given_n`` random items for every user of ``fold``.

    The training dataset keeps every other interaction along with the full
    user and item catalogs of ``ds``. Hidden items are drawn per user with
    an rng seeded from (plan seed, fold, user id), so the split depends only
    on those values and never on iteration order.
    """
    if not isinstance(fold, int) or isinstance(fold, bool) or not 0 <= fold < plan.fold_count:
        raise ValueError(f"fold must be an integer in [0, {plan.fold_count}), got {fold!r}")
    hidden: dict[str, frozenset[str]] = {}
    for user in plan.users_in_fold(fold):
        # string seeds hash the text itself, immune to per-process hash randomization
        rng = random.Random(f"{plan.rng_seed}:{fold}:{user}")
        hidden[user] = frozenset(rng.sample(list(ds.profiles[user]), plan.given_n))
    return HoldoutSplit(train=ds._without(hidden), hidden=hidden)
