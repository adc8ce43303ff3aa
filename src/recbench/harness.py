"""Experiment runner: wires data loading, splitting, indexing, the three
recommenders and the metrics into cross-validated runs, and writes every
output file deterministically (the same configuration and seed always
produce byte-identical reports)."""

import csv
import json
import logging
import statistics
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path

from .corpus import (
    INTERACTION_FORMATS,
    load_content,
    load_interactions,
    materialize_split,
    plan_splits,
)
from .errors import ConfigurationError, RecbenchError
from .metrics import EvalInput, evaluate, hit_intersection, jaccard_list_similarity
from .recommenders import (
    DEFAULT_NEIGHBORHOOD_SIZE,
    DEFAULT_PROFILE_TERM_BUDGET,
    DEFAULT_VOTES_PER_ITEM,
    SIMILARITY_METRICS,
    RecommendationList,
    UserProfile,
    fit_cf,
    fit_sup,
    fit_upa,
    recommend_cf,
    recommend_sup,
    recommend_upa,
)
from .textproc import build_index, check_selection, default_stopwords, load_stopwords

log = logging.getLogger("recbench")

ALGORITHM_NAMES = ("cf", "sup", "upa")
CONTENT_ALGORITHMS = ("sup", "upa")
CF_SELECTION_LABEL = "-"
LIST_METRICS = ("map", "map_nonempty", "ucov", "ccov")

_DEFAULT_PARAMS = {
    "cf": {"neighborhood_size": DEFAULT_NEIGHBORHOOD_SIZE, "similarity_metric": "cosine"},
    "upa": {"profile_term_budget": DEFAULT_PROFILE_TERM_BUDGET},
    "sup": {"votes_per_item": DEFAULT_VOTES_PER_ITEM},
}


@dataclass
class ExperimentConfig:
    """Everything a run needs; mirrors the JSON config file key for key."""

    interactions_path: str = ""
    interactions_format: str = "explicit"
    content_path: str | None = None
    stopwords_path: str | None = None
    algorithms: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: {name: {} for name in ALGORITHM_NAMES}
    )
    attribute_selections: Sequence[object] = ("all",)
    k_values: Sequence[int] = (10, 20, 30, 50, 100)
    fold_count: int = 10
    given_n: int = 10
    min_train_items: int = 10
    rng_seed: int = 0

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load and validate a configuration file."""
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        problems = [f"unknown config key {key!r}" for key in sorted(set(raw) - known)]
        if problems:
            raise ConfigurationError(problems)
        config = cls(**raw)
        config.validate()
        return config

    def validate(self) -> None:
        """Check every field and raise one error listing all problems."""
        problems: list[str] = []

        if not self.interactions_path:
            problems.append("interactions_path is required")
        elif not Path(self.interactions_path).is_file():
            problems.append(f"interactions_path does not exist: {self.interactions_path!r}")
        if self.interactions_format not in INTERACTION_FORMATS:
            problems.append(
                f"interactions_format must be one of {list(INTERACTION_FORMATS)}, "
                f"got {self.interactions_format!r}"
            )

        if not isinstance(self.algorithms, Mapping) or not self.algorithms:
            problems.append("algorithms must be a non-empty mapping of algorithm name to parameters")
            content_needed = False
        else:
            unknown = sorted(set(self.algorithms) - set(ALGORITHM_NAMES))
            for name in unknown:
                problems.append(f"unknown algorithm {name!r} (choose from {list(ALGORITHM_NAMES)})")
            for name, params in self.algorithms.items():
                if name not in ALGORITHM_NAMES:
                    continue
                if params is None:
                    continue
                if not isinstance(params, Mapping):
                    problems.append(f"parameters for {name!r} must be a mapping")
                    continue
                allowed = set(_DEFAULT_PARAMS[name])
                for p in sorted(set(params) - allowed):
                    problems.append(f"unknown parameter {p!r} for algorithm {name!r}")
                for p in params.keys() & allowed:
                    value = params[p]
                    if p == "similarity_metric":
                        if value not in SIMILARITY_METRICS:
                            problems.append(
                                f"{name}.{p} must be one of {list(SIMILARITY_METRICS)}, got {value!r}"
                            )
                    elif not isinstance(value, int) or isinstance(value, bool) or value < 1:
                        problems.append(f"{name}.{p} must be a positive integer, got {value!r}")
            content_needed = any(a in self.algorithms for a in CONTENT_ALGORITHMS)

        if content_needed:
            if not self.content_path:
                problems.append("content_path is required when a content-based algorithm is configured")
            elif not Path(self.content_path).is_file():
                problems.append(f"content_path does not exist: {self.content_path!r}")
            if not self.attribute_selections:
                problems.append("attribute_selections must not be empty")
        if self.stopwords_path is not None and not Path(self.stopwords_path).is_file():
            problems.append(f"stopwords_path does not exist: {self.stopwords_path!r}")

        # results are keyed by selection label, so two selections sharing one
        # would overwrite each other's index and double-count their records
        label_positions: dict[str, list[int]] = {}
        for position, sel in enumerate(self.attribute_selections):
            if sel == "all":
                label_positions.setdefault("all", []).append(position)
                continue
            if isinstance(sel, str):
                problems.append(
                    f"attribute selection must be \"all\" or a list of attribute names, got {sel!r}"
                )
            elif not isinstance(sel, Sequence) or not sel or not all(
                isinstance(a, str) and a for a in sel
            ):
                problems.append(f"attribute selection must be a non-empty list of names, got {sel!r}")
            elif len(set(sel)) != len(sel):
                problems.append(f"attribute selection has duplicate names: {list(sel)!r}")
            else:
                label_positions.setdefault(selection_label(sel), []).append(position)
        for label, positions in label_positions.items():
            if len(positions) > 1:
                problems.append(
                    f"attribute_selections entries {positions} share the report label {label!r}"
                )

        if not self.k_values:
            problems.append("k_values must not be empty")
        else:
            bad = [k for k in self.k_values if not isinstance(k, int) or isinstance(k, bool) or k < 1]
            if bad:
                problems.append(f"k_values must be positive integers, got {bad!r}")
            elif list(self.k_values) != sorted(set(self.k_values)):
                problems.append(f"k_values must be strictly ascending, got {list(self.k_values)!r}")

        for name in ("fold_count", "given_n", "min_train_items"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                problems.append(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.rng_seed, int) or isinstance(self.rng_seed, bool):
            problems.append(f"rng_seed must be an integer, got {self.rng_seed!r}")

        if problems:
            raise ConfigurationError(problems)

    def resolved_algorithms(self) -> dict[str, dict[str, object]]:
        """Configured algorithms with defaults filled in for missing params."""
        resolved = {}
        for name in ALGORITHM_NAMES:
            if name not in self.algorithms:
                continue
            params = dict(_DEFAULT_PARAMS[name])
            params.update(self.algorithms[name] or {})
            resolved[name] = params
        return resolved

    def to_json_dict(self) -> dict:
        return {
            "interactions_path": self.interactions_path,
            "interactions_format": self.interactions_format,
            "content_path": self.content_path,
            "stopwords_path": self.stopwords_path,
            "algorithms": {name: dict(params or {}) for name, params in self.algorithms.items()},
            "attribute_selections": [
                sel if isinstance(sel, str) else list(sel) for sel in self.attribute_selections
            ],
            "k_values": list(self.k_values),
            "fold_count": self.fold_count,
            "given_n": self.given_n,
            "min_train_items": self.min_train_items,
            "rng_seed": self.rng_seed,
        }


def selection_label(selection) -> str:
    """Stable report label for an attribute selection."""
    if selection == "all":
        return "all"
    return "+".join(selection)


@dataclass(frozen=True)
class ReportRecord:
    """One metric value for one (algorithm, selection, fold, k) cell."""

    algorithm: str
    attribute_selection: str
    fold: int
    k: int
    metric: str
    value: float


@dataclass(frozen=True)
class IntersectionRecord:
    """Run-level hit overlap between two algorithms at one cutoff."""

    algorithm_a: str
    algorithm_b: str
    attribute_selection: str
    k: int
    exclusive_a: int
    exclusive_b: int
    common: int


@dataclass
class ExperimentResult:
    """Everything a run produced, before any file is written.

    ``lists`` maps (algorithm, selection label, fold) to the per-user ranked
    lists generated at the largest configured cutoff; smaller cutoffs are
    evaluated on prefixes of the same lists.
    """

    records: list[ReportRecord]
    intersections: list[IntersectionRecord]
    lists: dict[tuple[str, str, int], dict[str, RecommendationList]]
    hidden: dict[int, dict[str, frozenset[str]]]
    catalog: tuple[str, ...]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured algorithms through every cross-validation fold.

    Every protocol user of a fold gets one ranked list per algorithm (and
    per attribute selection for the content-based ones), generated once at
    the largest configured k. The work runs in three passes:

    1. Per fold: build the split, keep the test users' profiles and hidden
       sets, and produce the ``cf`` lists. The split and the CF model are
       dropped before the next fold's split is built.
    2. Per attribute selection: build the index, fit ``sup`` and ``upa``
       once, and produce their lists for every fold. The index, and the
       ``sup`` neighbour table built on it, are dropped before the next
       selection's index is built.
    3. Per fold: record quality and coverage metrics per (algorithm,
       selection, k); when several algorithms run, also compare their
       lists pairwise per selection (list-overlap records and run-level
       hit intersections).
    """
    config.validate()
    ds = load_interactions(config.interactions_path, format=config.interactions_format)
    algorithms = config.resolved_algorithms()
    cb_algorithms = [a for a in CONTENT_ALGORITHMS if a in algorithms]

    selections: list[tuple[str, ...]] = []
    labels: list[str] = []
    if cb_algorithms:
        corpus = load_content(config.content_path)
        gaps = corpus.missing_items(ds.items)
        if gaps:
            log.info("%d of %d items have no content document", len(gaps), ds.n_items)
        stopwords = (
            load_stopwords(config.stopwords_path) if config.stopwords_path else default_stopwords()
        )
        # checked here, before the fold pass, so a bad selection fails fast
        selections = [
            check_selection(corpus, corpus.attribute_names() if sel == "all" else sel)
            for sel in config.attribute_selections
        ]
        labels = [selection_label(sel) for sel in config.attribute_selections]

    plan = plan_splits(
        ds,
        fold_count=config.fold_count,
        given_n=config.given_n,
        min_train_items=config.min_train_items,
        rng_seed=config.rng_seed,
    )
    kmax = max(config.k_values)
    # The catalog is everything the system could recommend: every item with
    # an interaction plus every item with a content document. CF can only
    # reach the rated part; keeping both in the denominator is what lets
    # catalog coverage expose that.
    catalog: list[str] = list(ds.items)
    if cb_algorithms:
        seen = set(catalog)
        catalog.extend(i for i in sorted(corpus.item_ids()) if i not in seen)
    catalog_set = set(catalog)

    lists_store: dict[tuple[str, str, int], dict[str, RecommendationList]] = {}
    hidden_store: dict[int, dict[str, frozenset[str]]] = {}
    profiles_by_fold: dict[int, dict[str, UserProfile]] = {}
    for fold in range(config.fold_count):
        profiles, hidden_store[fold], cf_lists = _prepare_fold(
            ds, plan, fold, algorithms.get("cf"), kmax
        )
        profiles_by_fold[fold] = profiles
        if cf_lists is not None:
            lists_store[("cf", CF_SELECTION_LABEL, fold)] = cf_lists
        log.info("fold %d/%d split (%d test users)", fold + 1, config.fold_count, len(profiles))
    for names, label in zip(selections, labels):
        lists_store.update(
            _content_lists(corpus, names, label, stopwords, algorithms, profiles_by_fold, kmax)
        )
        log.info("selection %s done", label)

    records: list[ReportRecord] = []
    inter_counts: dict[tuple[str, str, str, int], list[int]] = {}
    for fold in range(config.fold_count):
        hidden = hidden_store[fold]
        for key in sorted(key for key in lists_store if key[2] == fold):
            algorithm, label, _ = key
            lists = lists_store[key]
            for k in config.k_values:
                report = evaluate(EvalInput(lists=lists, hidden=hidden, catalog=catalog_set, k=k))
                records.append(ReportRecord(algorithm, label, fold, k, "map", report.map_at_k))
                records.append(
                    ReportRecord(algorithm, label, fold, k, "map_nonempty", report.map_at_k_nonempty)
                )
                records.append(ReportRecord(algorithm, label, fold, k, "ucov", report.ucov_at_k))
                records.append(ReportRecord(algorithm, label, fold, k, "ccov", report.ccov_at_k))

        if len(algorithms) >= 2:
            for label in labels or [CF_SELECTION_LABEL]:
                available: list[tuple[str, dict[str, RecommendationList]]] = []
                if "cf" in algorithms:
                    available.append(("cf", lists_store[("cf", CF_SELECTION_LABEL, fold)]))
                for a in cb_algorithms:
                    available.append((a, lists_store[(a, label, fold)]))
                available.sort(key=lambda e: e[0])
                for (name_a, lists_a), (name_b, lists_b) in combinations(available, 2):
                    pair = f"{name_a}_x_{name_b}"
                    for k in config.k_values:
                        overlap = jaccard_list_similarity(lists_a, lists_b, k)
                        records.append(ReportRecord(pair, label, fold, k, "jaccard", overlap))
                        report = hit_intersection(lists_a, lists_b, hidden, k)
                        acc = inter_counts.setdefault((name_a, name_b, label, k), [0, 0, 0])
                        acc[0] += report.exclusive_a
                        acc[1] += report.exclusive_b
                        acc[2] += report.common

    intersections = [
        IntersectionRecord(a, b, label, k, counts[0], counts[1], counts[2])
        for (a, b, label, k), counts in sorted(inter_counts.items())
    ]
    return ExperimentResult(
        records=records,
        intersections=intersections,
        lists=lists_store,
        hidden=hidden_store,
        catalog=tuple(catalog),
    )


def _prepare_fold(ds, plan, fold, cf_params, k):
    """Build one fold's split and return its test users' profiles, their
    hidden sets and, when ``cf_params`` is given, the ``cf`` lists.

    The split and the CF model live only in this call, so neither outlives
    the fold.
    """
    split = materialize_split(ds, plan, fold)
    profiles = {u: UserProfile.from_training(split.train, u) for u in plan.users_in_fold(fold)}
    cf_lists = None
    if cf_params is not None:
        model = fit_cf(
            split.train,
            neighborhood_size=cf_params["neighborhood_size"],
            similarity_metric=cf_params["similarity_metric"],
        )
        cf_lists = {u: recommend_cf(model, profile, k) for u, profile in profiles.items()}
    return profiles, dict(split.hidden), cf_lists


def _content_lists(corpus, names, label, stopwords, algorithms, profiles_by_fold, k):
    """Every content algorithm's lists on the attributes ``names``, for
    every fold, keyed like ``ExperimentResult.lists``.

    The index and the models fitted on it live only in this call, so at
    most one selection's index is alive at a time.
    """
    index = build_index(corpus, names, stopwords)
    empty = index.empty_item_ids
    if empty:
        log.info("selection %s: %d items have empty vectors", label, len(empty))
    models = []
    if "sup" in algorithms:
        models.append(
            ("sup", fit_sup(index, votes_per_item=algorithms["sup"]["votes_per_item"]), recommend_sup)
        )
    if "upa" in algorithms:
        models.append((
            "upa",
            fit_upa(index, profile_term_budget=algorithms["upa"]["profile_term_budget"]),
            recommend_upa,
        ))
    return {
        (name, label, fold): {u: recommend(model, profile, k) for u, profile in profiles.items()}
        for fold, profiles in profiles_by_fold.items()
        for name, model, recommend in models
    }


_RECORD_KEY = ("algorithm", "attribute_selection", "fold", "k", "metric")


def _sorted_records(records) -> list[ReportRecord]:
    return sorted(
        records, key=lambda r: (r.algorithm, r.attribute_selection, r.fold, r.k, r.metric)
    )


def emit_report(records, path, format: str = "csv") -> None:
    """Write metric records to ``path`` as CSV or JSON in a fixed row order
    (algorithm, selection, fold, k, metric)."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    rows = _sorted_records(records)
    if not rows:
        raise ValueError("no records to emit")
    path = Path(path)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*_RECORD_KEY, "value"])
            for r in rows:
                writer.writerow(
                    [r.algorithm, r.attribute_selection, r.fold, r.k, r.metric, repr(r.value)]
                )
    else:
        payload = [
            {
                "algorithm": r.algorithm,
                "attribute_selection": r.attribute_selection,
                "fold": r.fold,
                "k": r.k,
                "metric": r.metric,
                "value": r.value,
            }
            for r in rows
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def summarize(records) -> list[tuple[str, str, int, str, float, float]]:
    """Cross-fold aggregation: mean and population standard deviation of the
    fold values for every (algorithm, selection, k, metric)."""
    groups: dict[tuple[str, str, int, str], list[float]] = {}
    for r in _sorted_records(records):
        groups.setdefault((r.algorithm, r.attribute_selection, r.k, r.metric), []).append(r.value)
    out = []
    for (algorithm, label, k, metric), values in sorted(groups.items()):
        mean = sum(values) / len(values)
        std = statistics.pstdev(values) if len(values) > 1 else 0.0
        out.append((algorithm, label, k, metric, mean, std))
    return out


def emit_plot_data(records, path, intersections=()) -> None:
    """Write chartable series: one ``k,value`` block per (algorithm,
    selection, metric) holding cross-fold means, plus three blocks
    (exclusive_a / exclusive_b / common) per intersection pair.

    Requires records spanning at least two k values; nothing is written
    when validation fails.
    """
    rows = list(records)
    if not rows:
        raise ValueError("no records to plot")
    if len({r.k for r in rows}) < 2:
        raise ConfigurationError("plot data needs records at two or more k values")
    series: dict[tuple[str, str, str], list[tuple[int, float]]] = {}
    for algorithm, label, k, metric, mean, _ in summarize(rows):
        series.setdefault((algorithm, label, metric), []).append((k, mean))
    inter_series: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
    for rec in intersections:
        pair = f"{rec.algorithm_a}_x_{rec.algorithm_b}"
        for metric, value in (
            ("exclusive_a", rec.exclusive_a),
            ("exclusive_b", rec.exclusive_b),
            ("common", rec.common),
        ):
            inter_series.setdefault((pair, rec.attribute_selection, metric), []).append(
                (rec.k, value)
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(series) + sorted(inter_series):
            algorithm, label, metric = key
            points = series.get(key) or inter_series.get(key)
            fh.write(f"# series algorithm={algorithm} attribute_selection={label} metric={metric}\n")
            fh.write("k,value\n")
            for k, value in sorted(points):
                fh.write(f"{k},{value!r}\n")
            fh.write("\n")


def write_run_dir(result: ExperimentResult, config: ExperimentConfig, out_dir) -> list[str]:
    """Write every artifact of a run into ``out_dir``; returns file names.

    Emits per-fold records (CSV and JSON), the cross-fold summary, hit
    intersections, plot series (when two or more k values were configured),
    the full ranked lists, the hidden sets, and an echo of the
    configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    emit_report(result.records, out / "records.csv", "csv")
    emit_report(result.records, out / "records.json", "json")
    written += ["records.csv", "records.json"]

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "attribute_selection", "k", "metric", "mean", "std"])
        for algorithm, label, k, metric, mean, std in summarize(result.records):
            writer.writerow([algorithm, label, k, metric, repr(mean), repr(std)])
    written.append("summary.csv")

    with open(out / "intersections.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["algorithm_a", "algorithm_b", "attribute_selection", "k",
             "exclusive_a", "exclusive_b", "common"]
        )
        for rec in result.intersections:
            writer.writerow(
                [rec.algorithm_a, rec.algorithm_b, rec.attribute_selection, rec.k,
                 rec.exclusive_a, rec.exclusive_b, rec.common]
            )
    written.append("intersections.csv")

    if len({r.k for r in result.records}) >= 2:
        emit_plot_data(result.records, out / "plot_data.csv", result.intersections)
        written.append("plot_data.csv")
    else:
        # a reused directory may still hold an earlier run's plot series
        (out / "plot_data.csv").unlink(missing_ok=True)
        log.info("skipping plot_data.csv: only one k value configured")

    with open(out / "lists.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["algorithm", "attribute_selection", "fold", "user_id", "rank", "item_id", "score"]
        )
        for (algorithm, label, fold) in sorted(result.lists):
            lists = result.lists[(algorithm, label, fold)]
            for user_id in sorted(lists):
                for rank, (item_id, score) in enumerate(lists[user_id].entries, start=1):
                    writer.writerow([algorithm, label, fold, user_id, rank, item_id, repr(score)])
    written.append("lists.csv")

    with open(out / "hidden.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold", "user_id", "item_id"])
        for fold in sorted(result.hidden):
            for user_id in sorted(result.hidden[fold]):
                for item_id in sorted(result.hidden[fold][user_id]):
                    writer.writerow([fold, user_id, item_id])
    written.append("hidden.csv")

    with open(out / "config.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(config.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append("config.json")
    return written


def read_run_lists(run_dir):
    """Read ``lists.csv`` and ``hidden.csv`` back from a run directory.

    Returns ``(lists, hidden)`` where lists maps (algorithm, selection) to
    {user_id: RecommendationList} pooled across folds, and hidden maps
    user_id to the user's hidden item set. Test users whose list was empty
    have no rows in ``lists.csv``; they are restored as empty lists from the
    user set of ``hidden.csv``. Every list's ``target_k`` is the run's
    largest k, read from ``config.json``: the lists were cut there.
    """
    run = Path(run_dir)
    config_path = run / "config.json"
    with open(config_path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError:
            config = None
    k_values = config.get("k_values") if isinstance(config, dict) else None
    if not isinstance(k_values, list) or not k_values or not all(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in k_values
    ):
        raise RecbenchError(f"{config_path}: no valid k_values, so the lists' cutoff is unknown")
    target_k = max(k_values)
    rows_by_key: dict[tuple[str, str], dict[str, list[tuple[int, str, float]]]] = {}
    with open(run / "lists.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["algorithm"], row["attribute_selection"])
            rows_by_key.setdefault(key, {}).setdefault(row["user_id"], []).append(
                (int(row["rank"]), row["item_id"], float(row["score"]))
            )
    sets: dict[str, set[str]] = {}
    with open(run / "hidden.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            sets.setdefault(row["user_id"], set()).add(row["item_id"])
    hidden = {u: frozenset(s) for u, s in sets.items()}
    lists: dict[tuple[str, str], dict[str, RecommendationList]] = {}
    for key, per_user in rows_by_key.items():
        lists[key] = {}
        for user_id, rows in per_user.items():
            rows.sort()
            entries = tuple((item_id, score) for _, item_id, score in rows)
            lists[key][user_id] = RecommendationList(
                user_id=user_id, entries=entries, target_k=target_k
            )
        for user_id in hidden:
            if user_id not in lists[key]:
                lists[key][user_id] = RecommendationList(
                    user_id=user_id, entries=(), target_k=target_k
                )
    return lists, hidden
