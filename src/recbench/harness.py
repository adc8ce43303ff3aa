"""Experiment runner: wires data loading, splitting, indexing, the three
recommenders and the metrics into cross-validated runs, and writes every
output file deterministically (the same configuration and seed always
produce byte-identical reports)."""

import csv
import json
import logging
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import combinations, groupby
from operator import add, itemgetter, length_hint
from pathlib import Path
from typing import NamedTuple

from .corpus import (
    INTERACTION_FORMATS,
    _positive_int,
    load_content,
    load_interactions,
    materialize_split,
    plan_splits,
)
from .errors import ConfigurationError, ParseError, decode_error
from .metrics import evaluate, hit_intersection, jaccard_list_similarity
from .recommenders import ALGORITHMS, RecommendationList, UserProfile
from .textproc import (
    build_index,
    default_stopwords,
    empty_vocabulary,
    load_stopwords,
    tokenize_content,
)

log = logging.getLogger("recbench")

# the selection label of lists from an algorithm that reads no content
NO_SELECTION_LABEL = "-"

# the columns of lists.csv and hidden.csv, in file order
LISTS_COLUMNS = ("algorithm", "attribute_selection", "fold", "user_id", "rank", "item_id", "score")
HIDDEN_COLUMNS = ("fold", "user_id", "item_id")


@dataclass
class ExperimentConfig:
    """Everything a run needs; mirrors the JSON config file key for key."""

    interactions_path: str = ""
    interactions_format: str = "explicit"
    content_path: str | None = None
    stopwords_path: str | None = None
    algorithms: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: {name: {} for name in ALGORITHMS}
    )
    attribute_selections: Sequence[object] = ("all",)
    k_values: Sequence[int] = (10, 20, 30, 50, 100)
    fold_count: int = 10
    given_n: int = 10
    min_train_items: int = 10
    rng_seed: int = 0

    @classmethod
    def read_json(cls, path) -> tuple[dict, list[str]]:
        """Read the configuration file ``path``: return its known fields and
        one problem per key repeated within an object, at any depth, and per
        unknown key. Invalid JSON or UTF-8 and a value that is not an object
        raise a located error."""
        problems: list[str] = []

        def unique_keys(pairs):
            keys = [key for key, _ in pairs]
            problems.extend(f"repeated config key {k!r}" for n, k in enumerate(keys) if k in keys[:n])
            return dict(pairs)

        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh, object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"invalid JSON: {exc.msg} (line {exc.lineno})", path) from None
            except UnicodeDecodeError:
                raise ConfigurationError(str(decode_error(path))) from None
            except (ValueError, RecursionError) as exc:
                # an integer longer than int() accepts, or nesting deeper than the stack
                raise ConfigurationError(f"invalid JSON: {exc}", path) from None
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object", path)
        known = {f.name for f in fields(cls)}
        problems += [f"unknown config key {key!r}" for key in sorted(set(raw) - known)]
        return {key: value for key, value in raw.items() if key in known}, problems

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load and validate a configuration file; one error, naming the
        file, lists every problem of the file and of its fields."""
        return cls._from_file(path, lambda config, raw: config._missing_files() + config.problems())

    @classmethod
    def _from_file(cls, path, check) -> "ExperimentConfig":
        """The configuration in the file ``path``. One error, naming the file,
        lists every problem ``read_json`` reports and every one that
        ``check(config, raw)`` returns, given the file's known fields ``raw``."""
        raw, problems = cls.read_json(path)
        config = cls(**raw)
        problems += check(config, raw)
        if problems:
            raise ConfigurationError(problems, path)
        return config

    def validate(self) -> None:
        """Check every field and raise one error listing all problems."""
        problems = self._missing_files() + self.problems()
        if problems:
            raise ConfigurationError(problems)

    def _missing_files(self) -> list[str]:
        """One problem per configured path that names no existing file."""
        paths = {
            # an empty required path is reported by problems() as missing
            "interactions_path": self.interactions_path or None,
            "content_path": (self.content_path or None) if self._needs_content() else None,
            "stopwords_path": self.stopwords_path,
        }
        return [
            f"{name} must name an existing file, got {path!r}"
            for name, path in paths.items()
            if path is not None and not (isinstance(path, str) and Path(path).is_file())
        ]

    def _needs_content(self) -> bool:
        return isinstance(self.algorithms, Mapping) and any(
            spec.needs_content for name, spec in ALGORITHMS.items() if name in self.algorithms
        )

    def problems(self) -> list[str]:
        """Every problem of the configuration except a path that names no
        existing file, the one check that reads the filesystem."""
        problems: list[str] = []

        if not self.interactions_path:
            problems.append("interactions_path is required")
        if self.interactions_format not in INTERACTION_FORMATS:
            problems.append(
                f"interactions_format must be one of {list(INTERACTION_FORMATS)}, "
                f"got {self.interactions_format!r}"
            )

        if not isinstance(self.algorithms, Mapping) or not self.algorithms:
            problems.append("algorithms must be a non-empty mapping of algorithm name to parameters")
        else:
            for name in sorted(set(self.algorithms) - set(ALGORITHMS)):
                problems.append(f"unknown algorithm {name!r} (choose from {list(ALGORITHMS)})")
            for name, params in self.algorithms.items():
                spec = ALGORITHMS.get(name)
                if spec is None or params is None:
                    continue
                if not isinstance(params, Mapping):
                    problems.append(f"parameters for {name!r} must be a mapping")
                    continue
                for p in sorted(set(params) - set(spec.params)):
                    problems.append(f"unknown parameter {p!r} for algorithm {name!r}")
                for p, check in spec.params.items():
                    problem = check(params[p]) if p in params else None
                    if problem:
                        problems.append(f"{name}.{p} {problem}, got {params[p]!r}")

        if self._needs_content() and not self.content_path:
            problems.append("content_path is required when a content-based algorithm is configured")

        selections = self.attribute_selections
        if not isinstance(selections, (list, tuple)) or self._needs_content() and not selections:
            problems.append(f"attribute_selections must be a non-empty list, got {selections!r}")
            selections = ()
        # results are keyed by selection label, so two selections sharing one
        # would overwrite each other's index and double-count their records
        label_positions: dict[str, list[int]] = {}
        for position, sel in enumerate(selections):
            if sel == "all":
                label_positions.setdefault("all", []).append(position)
            elif isinstance(sel, str) or not isinstance(sel, Sequence) or not sel or not all(
                isinstance(a, str) and a for a in sel
            ):
                problems.append(
                    f"attribute selection must be \"all\" or a non-empty list of names, got {sel!r}"
                )
            elif len(set(sel)) != len(sel):
                problems.append(f"attribute selection has duplicate names: {list(sel)!r}")
            elif not all(a.isprintable() for a in sel):
                # a line break in a name would split plot_data.csv's series header
                problems.append(f"attribute selection names must be printable, got {list(sel)!r}")
            else:
                label_positions.setdefault(selection_label(sel), []).append(position)
        for label, positions in label_positions.items():
            if len(positions) > 1:
                problems.append(
                    f"attribute_selections entries {positions} share the report label {label!r}"
                )

        if not isinstance(self.k_values, (list, tuple)) or not self.k_values:
            problems.append(f"k_values must be a non-empty list, got {self.k_values!r}")
        else:
            bad = [k for k in self.k_values if _positive_int(k)]
            if bad:
                problems.append(f"k_values must be positive integers, got {bad!r}")
            elif list(self.k_values) != sorted(set(self.k_values)):
                problems.append(f"k_values must be strictly ascending, got {list(self.k_values)!r}")

        for name in ("fold_count", "given_n", "min_train_items"):
            value = getattr(self, name)
            problem = _positive_int(value)
            if problem:
                problems.append(f"{name} {problem}, got {value!r}")
        if not isinstance(self.rng_seed, int) or isinstance(self.rng_seed, bool):
            problems.append(f"rng_seed must be an integer, got {self.rng_seed!r}")
        return problems

    def list_sets(self) -> dict[str, list[tuple[str, str]]]:
        """For each report label, the ``(algorithm, list label)`` key of each
        configured algorithm's lists, in name order. An algorithm that reads
        no content lists under ``NO_SELECTION_LABEL``, and so does every
        report of a run without a content algorithm."""
        labels = [NO_SELECTION_LABEL]
        if self._needs_content():
            labels = [selection_label(sel) for sel in self.attribute_selections]
        return {
            label: [
                (name, label if ALGORITHMS[name].needs_content else NO_SELECTION_LABEL)
                for name in sorted(self.algorithms)
            ]
            for label in labels
        }

    def to_json_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "algorithms": {name: dict(params or {}) for name, params in self.algorithms.items()},
            "attribute_selections": [
                sel if isinstance(sel, str) else list(sel) for sel in self.attribute_selections
            ],
            "k_values": list(self.k_values),
        }


def selection_label(selection) -> str:
    """Stable report label for an attribute selection."""
    if selection == "all":
        return "all"
    return "+".join(selection)


class ReportRecord(NamedTuple):
    """One metric value for one (algorithm, selection, fold, k) cell: a row of
    ``records.csv``, whose columns are these fields and whose rows are sorted."""

    algorithm: str
    attribute_selection: str
    fold: int
    k: int
    metric: str
    value: float


class IntersectionRecord(NamedTuple):
    """Run-level hit overlap between two algorithms at one cutoff: a row of
    ``intersections.csv``, whose columns are these fields and whose rows are sorted."""

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
    the largest configured k. The stages run in order, each one's split,
    index and models alive only in its own call:

    1. ``_load_content`` (content algorithms only): a bad selection fails
       here, before any fold, and the raw text goes after the token pass.
    2. ``_run_fold`` per fold: test profiles, hidden sets and ``cf`` lists.
       The interactions and the fold plan are dropped after the last fold.
    3. ``_selection_lists`` per attribute selection: ``sup`` and ``upa`` lists.
    4. ``_evaluate``: per-list metrics and per-pair overlaps, per k.
    """
    config.validate()
    ds = load_interactions(config.interactions_path, format=config.interactions_format)
    algorithms = [(ALGORITHMS[name], params or {}) for name, params in sorted(config.algorithms.items())]
    fold_algorithms = [(spec, params) for spec, params in algorithms if not spec.needs_content]
    content_algorithms = [(spec, params) for spec, params in algorithms if spec.needs_content]
    if content_algorithms:
        content, selections = _load_content(config, ds.items)

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
    if content_algorithms:
        catalog += sorted(set(content.item_ids).difference(catalog))

    lists: dict[tuple[str, str, int], dict[str, RecommendationList]] = {}
    hidden: dict[int, dict[str, frozenset[str]]] = {}
    profiles_by_fold: dict[int, dict[str, UserProfile]] = {}
    for fold in range(config.fold_count):
        profiles_by_fold[fold], hidden[fold], fold_lists = _run_fold(ds, plan, fold, fold_algorithms, kmax)
        lists.update(fold_lists)
        log.info("fold %d/%d split (%d test users)", fold + 1, config.fold_count, len(hidden[fold]))
    # no step after the folds reads the interactions: drop them before any index
    del ds, plan
    if content_algorithms:
        for label, names in selections.items():
            lists.update(_selection_lists(content, names, label, content_algorithms, profiles_by_fold, kmax))
            log.info("selection %s done", label)

    # the catalog's item set is built only now, when no index is alive any more
    records, intersections = _evaluate(lists, hidden, set(catalog), config.k_values, config.list_sets())
    return ExperimentResult(records, intersections, lists, hidden, tuple(catalog))


def _load_content(config, items):
    """The tokenized content and ``{report label: attribute names}``. The
    token pass names every selected attribute that no document has, and then
    every selection with an empty vocabulary, in one ``ConfigurationError``."""
    corpus = load_content(config.content_path)
    gaps = len(set(items).difference(corpus.documents))
    if gaps:
        log.info("%d of %d items have no content document", gaps, len(items))
    stopwords = load_stopwords(config.stopwords_path) if config.stopwords_path else default_stopwords()
    selections = {
        selection_label(sel): corpus.attribute_names() if sel == "all" else tuple(sel)
        for sel in config.attribute_selections
    }
    # one pass tokenizes every selected attribute; no later step reads the
    # raw text, so it goes before the vocabulary check allocates its sets
    content = tokenize_content(corpus, sorted({a for names in selections.values() for a in names}), stopwords)
    del corpus
    empty = [label for label, names in selections.items() if not content.shares_a_term(names)]
    if empty:
        raise ConfigurationError([empty_vocabulary(label) for label in empty])
    return content, selections


def _run_fold(ds, plan, fold, algorithms, k):
    """One fold's test profiles, hidden sets and the ``_lists`` of
    ``algorithms`` fitted on its training set."""
    split = materialize_split(ds, plan, fold)
    profiles = {u: UserProfile(u, split.train.profiles[u]) for u in split.hidden}
    lists = _lists(algorithms, split.train, NO_SELECTION_LABEL, {fold: profiles}, k)
    return profiles, dict(split.hidden), lists


def _selection_lists(content, names, label, algorithms, profiles_by_fold, k):
    """The ``_lists`` of ``algorithms`` fitted on the index of the
    attributes ``names`` of the tokenized ``content``."""
    index = build_index(content, names, content.stopwords)
    empty = index.empty_item_ids
    if empty:
        log.info("selection %s: %d items have empty vectors", label, len(empty))
    return _lists(algorithms, index, label, profiles_by_fold, k)


def _lists(algorithms, source, label, profiles_by_fold, k):
    """Fit each ``(spec, params)`` on ``source`` (a training set or an index)
    and list every profile at ``k``, keyed like ``ExperimentResult.lists``."""
    models = [(spec, spec.fit(source, **params)) for spec, params in algorithms]
    return {
        (spec.name, label, fold): {u: spec.recommend(model, profile, k) for u, profile in profiles.items()}
        for fold, profiles in profiles_by_fold.items()
        for spec, model in models
    }


def _evaluate(lists, hidden, catalog_set, k_values, list_sets):
    """Records and intersections: per list set and k, quality and coverage
    metrics; per pair of algorithms under one report label and per k, each
    fold's list overlap and the folds' summed hit intersections."""
    records: list[ReportRecord] = []
    for (algorithm, label, fold), fold_lists in lists.items():
        for k in k_values:
            for metric, value in evaluate(fold_lists, hidden[fold], catalog_set, k).items():
                records.append(ReportRecord(algorithm, label, fold, k, metric, value))

    intersections: list[IntersectionRecord] = []
    for label, keys in list_sets.items():
        for (name_a, label_a), (name_b, label_b) in combinations(keys, 2):
            pair = f"{name_a}_x_{name_b}"
            for k in k_values:
                counts: Counter[str] = Counter()
                for fold, fold_hidden in hidden.items():
                    lists_a = lists[(name_a, label_a, fold)]
                    lists_b = lists[(name_b, label_b, fold)]
                    overlap = jaccard_list_similarity(lists_a, lists_b, k)
                    records.append(ReportRecord(pair, label, fold, k, "jaccard", overlap))
                    counts.update(hit_intersection(lists_a, lists_b, fold_hidden, k))
                intersections.append(IntersectionRecord(name_a, name_b, label, k, **counts))
    intersections.sort()
    return records, intersections


def _write_csv(path, header, rows) -> None:
    """Write a run directory CSV file: UTF-8, ``\\n`` line ends, minimal
    quoting, and a float as its ``repr`` (the csv module's own choice), so
    reading it back recovers the exact value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _pstdev(values: Sequence[float]) -> float:
    """Population standard deviation, correctly rounded on every Python version
    (``statistics.pstdev`` is only from 3.11 on): the square root of the exact
    variance ``num / den``, rounded once."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)  # float denominators are powers of two
    xs = [n * (scale // d) for n, d in ratios]
    num = len(xs) * sum(x * x for x in xs) - sum(xs) ** 2
    den = (len(xs) * scale) ** 2
    # scaled by 4**e the integer root holds at least 55 bits; setting its last
    # bit when inexact (round to odd) lets int / int round it once, correctly
    e = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
    root = math.isqrt((num << 2 * e) // den)
    root |= root * root * den != num << 2 * e
    return root / (1 << e)


def summarize(records) -> list[tuple[str, str, int, str, float, float]]:
    """Cross-fold aggregation: mean and population standard deviation of the
    fold values for every (algorithm, selection, k, metric), in that order.
    The mean sums each cell's values in the order given, which is fold order
    for records sorted as ``records.csv`` lists them."""
    groups: dict[tuple[str, str, int, str], list[float]] = {}
    for r in records:
        groups.setdefault((r.algorithm, r.attribute_selection, r.k, r.metric), []).append(r.value)
    out = []
    for (algorithm, label, k, metric), values in sorted(groups.items()):
        # left to right: sum() compensates its rounding on Python >= 3.12
        mean = reduce(add, values, 0.0) / len(values)
        out.append((algorithm, label, k, metric, mean, _pstdev(values)))
    return out


def _write_plot_data(path, summary, intersections) -> None:
    """Write chartable series: one ``k,value`` block per (algorithm,
    selection, metric) of ``summary`` holding the cross-fold means, then
    three blocks (exclusive_a / exclusive_b / common) per intersection pair
    and selection."""
    means = [((algorithm, label, metric), k, mean) for algorithm, label, k, metric, mean, _ in summary]
    counts = [
        ((f"{r.algorithm_a}_x_{r.algorithm_b}", r.attribute_selection, metric), r.k, getattr(r, metric))
        for r in intersections
        for metric in ("exclusive_a", "exclusive_b", "common")
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for points in (means, counts):
            for (algorithm, label, metric), block in groupby(sorted(points), key=itemgetter(0)):
                fh.write(f"# series algorithm={algorithm} attribute_selection={label} metric={metric}\n")
                fh.writelines(["k,value\n", *(f"{k},{value!r}\n" for _, k, value in block), "\n"])


def write_run_dir(result: ExperimentResult, config: ExperimentConfig, out_dir) -> list[str]:
    """Write every artifact of a run into ``out_dir``; returns file names.

    Writes the per-fold records (CSV and JSON, in (algorithm, selection,
    fold, k, metric) order), the cross-fold summary, hit intersections, plot
    series (when two or more k values were configured), the full ranked
    lists, the hidden sets, and an echo of the configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = ["records.csv", "records.json", "summary.csv", "intersections.csv"]

    records = sorted(result.records)
    _write_csv(out / "records.csv", ReportRecord._fields, records)
    with open(out / "records.json", "w", encoding="utf-8", newline="") as fh:
        json.dump([r._asdict() for r in records], fh, indent=2)
        fh.write("\n")

    summary = summarize(records)
    header = ["algorithm", "attribute_selection", "k", "metric", "mean", "std"]
    _write_csv(out / "summary.csv", header, summary)
    _write_csv(out / "intersections.csv", IntersectionRecord._fields, result.intersections)

    if len({r.k for r in records}) >= 2:
        _write_plot_data(out / "plot_data.csv", summary, result.intersections)
        written.append("plot_data.csv")
    else:
        # a reused directory may still hold an earlier run's plot series
        (out / "plot_data.csv").unlink(missing_ok=True)
        log.info("skipping plot_data.csv: only one k value configured")

    list_rows = (
        (*key, user_id, rank, item_id, score)
        for key, lists in sorted(result.lists.items())
        for user_id, lst in sorted(lists.items())
        for rank, (item_id, score) in enumerate(zip(lst.item_ids(), lst.scores), start=1)
    )
    _write_csv(out / "lists.csv", LISTS_COLUMNS, list_rows)
    hidden_rows = (
        (fold, user_id, item_id)
        for fold, per_user in sorted(result.hidden.items())
        for user_id in sorted(per_user)
        for item_id in sorted(per_user[user_id])
    )
    _write_csv(out / "hidden.csv", HIDDEN_COLUMNS, hidden_rows)

    with open(out / "config.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(config.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written + ["lists.csv", "hidden.csv", "config.json"]


def read_run_lists(run_dir):
    """Read ``lists.csv`` and ``hidden.csv`` back from a run directory.

    Returns ``(lists, hidden)`` where lists maps (algorithm, selection) to
    {user_id: RecommendationList} pooled across folds, and hidden maps
    user_id to the user's hidden item set; a user ``hidden.csv`` places in
    two folds is an error, and so is a list row in another fold than the
    one ``hidden.csv`` gives its user. The run's ``config.json`` must hold
    every field and pass ``ExperimentConfig.problems()``; its paths need not
    exist here. The list sets are its ``list_sets()``, and each holds a
    list for every user of ``hidden.csv``: an empty list has no rows in
    ``lists.csv``, so even a set whose lists are all empty is restored.
    Every list's ``target_k`` is the run's largest k: the lists were cut there.
    Both files are read by column name through ``_csv_rows``, so a row with
    more or fewer fields than its header is an error there.
    A list's ranks must run exactly 1..n: a gap or a repeated rank is an error.
    A list ``RecommendationList`` rejects is an error at the row that breaks
    the rule: a row past the largest k, an empty or repeated item, a
    non-finite score or a rising score; so is a hidden row with an empty item.
    Each of these errors is a ``ParseError`` naming the file, and the row
    unless the rule is on the whole file or list.
    """
    run = Path(run_dir)

    def saved_config_problems(config, raw):
        # the writer writes every field: a lost one is reported, never checked
        # (or used) as its default
        missing = [f"missing config key {f.name!r}" for f in fields(ExperimentConfig) if f.name not in raw]
        return missing or config.problems()

    config = ExperimentConfig._from_file(run / "config.json", saved_config_problems)
    target_k = max(config.k_values)
    hidden_path = str(run / "hidden.csv")
    sets: dict[str, set[str]] = {}
    folds: dict[str, str] = {}  # each user's fold, as its first row names it
    for line, (fold, user_id, item_id) in _csv_rows(hidden_path, HIDDEN_COLUMNS):
        if folds.setdefault(user_id, fold) != fold:
            raise ParseError(
                f"user {user_id!r} is in fold {fold} here but in fold {folds[user_id]} above; "
                "a run places each test user in one fold", hidden_path, line
            )
        if not item_id:
            raise ParseError("item_id must be a non-empty string", hidden_path, line)
        sets.setdefault(user_id, set()).add(item_id)
    if not sets:
        raise ParseError("no hidden items, so the run has no test users", hidden_path)
    hidden = {u: frozenset(s) for u, s in sets.items()}
    # (rank, item, score, line) per (algorithm, selection) and user
    rows_by_key: dict[tuple[str, str], dict[str, list[tuple[int, str, float, int]]]] = {
        key: {u: [] for u in hidden} for keys in config.list_sets().values() for key in keys
    }
    lists_path = str(run / "lists.csv")
    list_rows = _csv_rows(lists_path, LISTS_COLUMNS)
    for line, (algorithm, selection, fold, user_id, rank, item_id, score) in list_rows:
        try:
            rank, score = int(rank), float(score)
        except ValueError:
            raise ParseError(
                f"rank {rank!r} is not an integer or score {score!r} is not a number", lists_path, line
            ) from None
        try:
            rows = rows_by_key[algorithm, selection][user_id]
        except KeyError:
            raise ParseError(
                f"no {algorithm}/{selection} list of user {user_id!r} in the run's config.json and hidden.csv",
                lists_path, line,
            ) from None
        if fold != folds[user_id]:
            message = f"user {user_id!r} is in fold {folds[user_id]} in hidden.csv, not fold {fold}"
            raise ParseError(message, lists_path, line)
        rows.append((rank, item_id, score, line))
    lists: dict[tuple[str, str], dict[str, RecommendationList]] = {}
    for key, per_user in rows_by_key.items():
        lists[key] = {}
        for user_id, rows in per_user.items():
            rows.sort()
            for expected, (rank, _, _, line) in enumerate(rows, start=1):
                if rank != expected:
                    raise ParseError(
                        f"the {'/'.join(key)} list of user {user_id!r} "
                        f"has rank {rank} where rank {expected} belongs; ranks must run 1..n", lists_path, line
                    )
            # the constructor reads the rows one by one and raises at the first
            # that breaks a rule: that row is the last one read (none, for a rule
            # on the list as a whole)
            it = iter(rows)
            try:
                lists[key][user_id] = RecommendationList(user_id, map(itemgetter(1, 2), it), target_k)
            except ValueError as exc:
                read = len(rows) - length_hint(it)
                message = f"the {'/'.join(key)} list of user {user_id!r}: {exc}"
                raise ParseError(message, lists_path, rows[read - 1][3] if read else None) from None
    return lists, hidden


def _csv_rows(path, columns):
    """Yield ``(line number, values)`` for each data row of the CSV file
    ``path``, where values is the tuple of the row's fields in the order of
    ``columns`` (two or more header names, looked up once by name). The
    header must name every one of ``columns``, and every row must have as
    many fields as the header; blank lines are skipped, and the line number
    is the row's physical one."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}  # the last of repeated names
            missing = [c for c in columns if c not in position]
            if missing:
                raise ParseError(f"missing column(s) {', '.join(missing)}", str(path), 1)
            pick = itemgetter(*(position[c] for c in columns))
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    message = f"{len(row)} fields where the header has {width}"
                    raise ParseError(message, str(path), reader.line_num)
                yield reader.line_num, pick(row)
        except UnicodeDecodeError:
            raise decode_error(path) from None
        except csv.Error as exc:
            raise ParseError(str(exc), str(path), reader.line_num) from None
