"""Differential oracle for whole runs: the lists and reports of a ``recbench
run``, recomputed from its own ``hidden.csv`` plus the input files.

Each example writes a small generated dataset (a ``tests/synth.py`` preset)
whose documents gain a ``common`` attribute with the same terms in every
document (so a selection of it has only empty vectors) and lose a share of
the rated items' documents. It picks a random configuration and runs the CLI.

* Lists: each fold's training set is rebuilt from the interactions minus the
  fold's ``hidden.csv`` rows, and every list of ``lists.csv`` is recomputed
  with the brute-force recommender oracles on it (``cf``) or on the oracle
  TF-IDF vectors of the selection's attributes (``sup``, ``upa``). Ids, order
  and ``repr`` scores must match exactly.
* Reports: every row of ``records.csv`` (and ``records.json``),
  ``summary.csv``, ``intersections.csv`` and every ``plot_data.csv`` series
  is rebuilt from the run's lists with the brute-force metric oracles.
  Counts must match exactly and metric values within 1e-12.
* ``compare``: the run is compared with itself for every algorithm pair under
  each report label at one drawn k. Its counts must equal the run's
  ``intersections.csv`` row, it must count every ``hidden.csv`` user, and
  its Jaccard value must equal the pooled oracle value within 1e-12.
"""

import contextlib
import csv
import io
import json
import re
import statistics
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from recbench import cli, default_stopwords
from oracles import (
    oracle_ccov,
    oracle_cf,
    oracle_hits,
    oracle_jaccard,
    oracle_map,
    oracle_sup,
    oracle_tfidf,
    oracle_ucov,
    oracle_upa,
)
import synth

TOLERANCE = 1e-12
CONTENT_ALGORITHMS = ("sup", "upa")

# the attribute added to every document: each of its terms occurs in every
# document, so its weight is ln(1) = 0 and a selection of it has no vector
COMMON = ("common", "shelf shelf catalogue")

# preset name -> (generator at a seed, the selections its attributes allow);
# every eligible profile holds at least 18 items, and every preset has more
# than four eligible users, so given_n <= 5, min_train_items <= 12 and
# fold_count <= 4 always leave a valid protocol
PRESETS = {
    "two_cluster": (synth.two_cluster, ["all", ["text"], ["common"]]),
    "dense": (
        lambda seed: synth.dense(
            seed, n_topics=6, items_per_topic=12, n_users=24, rated_per_topic=6, cold_per_topic=3
        ),
        ["all", ["text"], ["common"]],
    ),
    "protocol": (
        lambda seed: synth.protocol_fixture(seed, n_users=60, n_eligible=40, n_items=250),
        # every title is a term of its own, so "title" alone has no vocabulary
        ["all", ["text"], ["title", "text"], ["common"]],
    ),
}


@st.composite
def experiments(draw):
    """A preset name and seed, the stride of the documents to drop (every
    ``stride``-th from the first), a valid configuration (without paths) and
    the k of its ``compare`` checks."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    names = draw(st.lists(st.sampled_from(["cf", "sup", "upa"]), min_size=1, max_size=3, unique=True))
    algorithms = {}
    for name in sorted(names):
        if name == "cf":
            algorithms[name] = {
                "similarity_metric": draw(st.sampled_from(["cosine", "pearson"])),
                "neighborhood_size": draw(st.integers(1, 30)),
            }
        elif name == "sup":
            algorithms[name] = {"votes_per_item": draw(st.integers(1, 15))}
        else:
            algorithms[name] = {"profile_term_budget": draw(st.integers(1, 40))}
    pool = PRESETS[preset][1]
    picked = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
    ks = sorted(set(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))))
    if draw(st.booleans()):
        ks.append(400)  # above every preset's catalog size
    config = {
        "algorithms": algorithms,
        "attribute_selections": [pool[i] for i in picked],
        "k_values": ks,
        "fold_count": draw(st.integers(1, 4)),
        "given_n": draw(st.integers(1, 5)),
        "min_train_items": draw(st.integers(1, 12)),
        "rng_seed": draw(st.integers(0, 2**16)),
    }
    return preset, draw(st.integers(0, 50)), draw(st.integers(2, 6)), config, draw(st.sampled_from(ks))


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def label_of(selection):
    return selection if selection == "all" else "+".join(selection)


def report_labels(config):
    """The run's report labels: one per selection when it reads content."""
    if any(name in CONTENT_ALGORITHMS for name in config["algorithms"]):
        return [label_of(sel) for sel in config["attribute_selections"]]
    return ["-"]


def list_label(name, label):
    """The selection label of ``name``'s lists under the report label ``label``."""
    return label if name in CONTENT_ALGORITHMS else "-"


def read_inputs(interactions_path, content_path, implicit):
    """The ratings ``{user: {item: rating}}`` (1.0 where a row has none; a
    repeated pair keeps its last row) and the documents ``{item: {attribute:
    text}}``."""
    ratings = {}
    with open(interactions_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                fields = line.rstrip("\n").split("\t")
                rating = 1.0 if implicit or len(fields) < 3 else float(fields[2])
                ratings.setdefault(fields[0], {})[fields[1]] = rating
    documents = {}
    with open(content_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                documents[record["item_id"]] = record["attributes"]
    return ratings, documents


def catalog_of(ratings, documents, config):
    """Every rated item, plus every document's item when content is read."""
    catalog = {item for profile in ratings.values() for item in profile}
    if any(name in CONTENT_ALGORITHMS for name in config["algorithms"]):
        catalog.update(documents)
    return catalog


def selection_vectors(documents, selection, stopwords):
    """The oracle TF-IDF vectors of the selected attributes: a document's
    tokens are the lowercased runs of two or more letters or digits of each
    selected attribute's text, less the stopwords."""
    if selection == "all":
        selection = sorted({name for attributes in documents.values() for name in attributes})
    doc_tokens = {
        item: [
            token
            for name in selection
            for token in re.findall(r"[^\W_]+", attributes.get(name, "").lower())
            if len(token) >= 2 and token not in stopwords
        ]
        for item, attributes in documents.items()
    }
    return oracle_tfidf(doc_tokens)[1]


def expected_lists(config, hidden, ratings, documents):
    """Every non-empty list of the run, recomputed by the recommender oracles
    at the largest k, as ``{(algorithm, selection, fold, user): [(item,
    repr(score)), ...]}``. A fold's training set is ``ratings`` less the
    hidden items of the fold's users."""
    k = max(config["k_values"])
    vectors = {}
    if any(name in CONTENT_ALGORITHMS for name in config["algorithms"]):
        stopwords = default_stopwords()
        vectors = {
            label_of(sel): selection_vectors(documents, sel, stopwords)
            for sel in config["attribute_selections"]
        }
    want = {}
    for fold, fold_hidden in hidden.items():
        for user, items in fold_hidden.items():
            assert items <= ratings[user].keys(), (fold, user)
        train = {
            user: {item: r for item, r in profile.items() if item not in fold_hidden.get(user, ())}
            for user, profile in ratings.items()
        }
        for name, params in config["algorithms"].items():
            for user in fold_hidden:
                profile = list(train[user])
                if name == "cf":
                    size, metric = params["neighborhood_size"], params["similarity_metric"]
                    by_label = {"-": oracle_cf(train, user, size, k, metric)}
                elif name == "sup":
                    votes = params["votes_per_item"]
                    by_label = {label: oracle_sup(v, profile, votes, k) for label, v in vectors.items()}
                else:
                    budget = params["profile_term_budget"]
                    by_label = {label: oracle_upa(v, profile, budget, k) for label, v in vectors.items()}
                for label, entries in by_label.items():
                    if entries:
                        want[name, label, fold, user] = [(item, repr(score)) for item, score in entries]
    return want


def read_run(run):
    """The run's hidden sets ``{fold: {user: set}}`` and its list rows
    ``{(algorithm, selection, fold, user): [(item, score text), ...]}`` in
    rank order."""
    header, rows = read_csv(run / "hidden.csv")
    assert header == ["fold", "user_id", "item_id"]
    hidden = {}
    for fold, user, item in rows:
        hidden.setdefault(int(fold), {}).setdefault(user, set()).add(item)
    header, rows = read_csv(run / "lists.csv")
    assert header == ["algorithm", "attribute_selection", "fold", "user_id", "rank", "item_id", "score"]
    ranked = {}
    for algorithm, selection, fold, user, rank, item, score in rows:
        ranked.setdefault((algorithm, selection, int(fold), user), []).append((int(rank), item, score))
    for key, entries in ranked.items():
        assert [rank for rank, _, _ in entries] == list(range(1, len(entries) + 1)), key
        ranked[key] = [(item, score) for _, item, score in entries]
    return hidden, ranked


def expected_reports(config, hidden, ranked, catalog):
    """Records, summary rows and intersection rows, each in report order."""
    names = sorted(config["algorithms"])
    labels = report_labels(config)
    ks = config["k_values"]

    def lists(name, label, fold):
        key = (name, list_label(name, label))
        return {u: ranked.get((*key, fold, u), []) for u in hidden[fold]}

    list_keys = {(name, list_label(name, label)) for label in labels for name in names}
    assert {key[:2] for key in ranked} <= list_keys
    assert {key[2] for key in ranked} <= set(hidden) == set(range(config["fold_count"]))

    records = []
    counts = {}
    for fold, fold_hidden in hidden.items():
        for name, label in list_keys:
            per_user = lists(name, label, fold)
            nonempty = {u: ids for u, ids in per_user.items() if ids}
            for k in ks:
                records += [
                    (name, label, fold, k, "map", oracle_map(per_user, fold_hidden, k)),
                    (name, label, fold, k, "map_nonempty",
                     oracle_map(nonempty, fold_hidden, k) if nonempty else 0.0),
                    (name, label, fold, k, "ucov", oracle_ucov(per_user, k)),
                    (name, label, fold, k, "ccov", oracle_ccov(per_user, catalog, k)),
                ]
        for label in labels:
            for a, b in combinations(names, 2):
                lists_a, lists_b = lists(a, label, fold), lists(b, label, fold)
                for k in ks:
                    overlap = oracle_jaccard(lists_a, lists_b, k)
                    records.append((f"{a}_x_{b}", label, fold, k, "jaccard", overlap))
                    hits_a = oracle_hits(lists_a, fold_hidden, k)
                    hits_b = oracle_hits(lists_b, fold_hidden, k)
                    total = counts.setdefault((a, b, label, k), [0, 0, 0])
                    total[0] += len(hits_a - hits_b)
                    total[1] += len(hits_b - hits_a)
                    total[2] += len(hits_a & hits_b)
    records.sort(key=lambda r: r[:5])

    groups = {}
    for algorithm, label, _, k, metric, value in records:
        groups.setdefault((algorithm, label, k, metric), []).append(value)
    summary = [
        (*key, sum(values) / len(values), statistics.pstdev(values))
        for key, values in sorted(groups.items())
    ]
    intersections = [(*key, *totals) for key, totals in sorted(counts.items())]
    return records, summary, intersections


def assert_close(got, want, where):
    assert abs(float(got) - want) <= TOLERANCE, f"{where}: {got} != {want!r}"


def check_plot_data(path, summary, intersections, ks):
    if len(ks) < 2:
        assert not path.exists()
        return
    series = {}
    for algorithm, label, k, metric, mean, _ in summary:
        series.setdefault((algorithm, label, metric), []).append((k, mean))
    pair_series = {}
    for a, b, label, k, *totals in intersections:
        for metric, count in zip(("exclusive_a", "exclusive_b", "common"), totals):
            pair_series.setdefault((f"{a}_x_{b}", label, metric), []).append((k, count))
    want = [(key, series[key]) for key in sorted(series)]
    want += [(key, pair_series[key]) for key in sorted(pair_series)]

    blocks = path.read_text(encoding="utf-8").split("\n\n")
    assert blocks.pop() == ""
    assert len(blocks) == len(want)
    for block, (key, points) in zip(blocks, want):
        title, columns, *lines = block.split("\n")
        assert title == "# series algorithm={} attribute_selection={} metric={}".format(*key)
        assert columns == "k,value"
        assert [int(line.split(",")[0]) for line in lines] == [k for k, _ in points]
        for line, (k, value) in zip(lines, points):
            got = line.split(",")[1]
            if isinstance(value, int):
                assert got == str(value), (key, k)
            else:
                assert_close(got, value, (key, k))


def check_compare(run, config, hidden, ranked, k):
    """``compare`` of the run with itself, for every algorithm pair under each
    report label at ``k``, against ``intersections.csv`` and the oracles."""
    users = {user for fold_hidden in hidden.values() for user in fold_hidden}
    _, rows = read_csv(run / "intersections.csv")
    counts = {(a, b, label, int(row_k)): rest for a, b, label, row_k, *rest in rows}

    def pooled(name, label):
        return {user: ranked.get((name, label, fold, user), []) for fold in hidden for user in hidden[fold]}

    for label in report_labels(config):
        for a, b in combinations(sorted(config["algorithms"]), 2):
            label_a, label_b = list_label(a, label), list_label(b, label)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([
                    "compare", "--run-a", str(run), "--run-b", str(run), "--k", str(k),
                    "--algorithm-a", a, "--selection-a", label_a,
                    "--algorithm-b", b, "--selection-b", label_b,
                ])
            assert code == 0, (a, b, label)
            got = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
            assert [got["exclusive_a"], got["exclusive_b"], got["common"]] == counts[a, b, label, k]
            assert int(got["users_compared"]) == len(users)
            want = oracle_jaccard(pooled(a, label_a), pooled(b, label_b), k)
            assert_close(got[f"jaccard@{k}"], want, (a, b, label, k))


def check_run(run, config, ratings, documents, compare_k):
    hidden, entries = read_run(run)
    assert entries == expected_lists(config, hidden, ratings, documents)
    ranked = {key: [item for item, _ in pairs] for key, pairs in entries.items()}
    check_compare(run, config, hidden, ranked, compare_k)
    catalog = catalog_of(ratings, documents, config)
    records, summary, intersections = expected_reports(config, hidden, ranked, catalog)

    header, rows = read_csv(run / "records.csv")
    assert header == ["algorithm", "attribute_selection", "fold", "k", "metric", "value"]
    assert [(a, s, int(f), int(k), m) for a, s, f, k, m, _ in rows] == [r[:5] for r in records]
    for row, record in zip(rows, records):
        assert_close(row[5], record[5], record[:5])
    payload = json.loads((run / "records.json").read_text(encoding="utf-8"))
    assert payload == [
        dict(zip(header, (a, s, int(f), int(k), m, float(v)))) for a, s, f, k, m, v in rows
    ]

    header, rows = read_csv(run / "summary.csv")
    assert header == ["algorithm", "attribute_selection", "k", "metric", "mean", "std"]
    assert [(a, s, int(k), m) for a, s, k, m, _, _ in rows] == [r[:4] for r in summary]
    for row, want in zip(rows, summary):
        assert_close(row[4], want[4], want[:4])
        assert_close(row[5], want[5], want[:4])

    header, rows = read_csv(run / "intersections.csv")
    assert header == [
        "algorithm_a", "algorithm_b", "attribute_selection", "k", "exclusive_a", "exclusive_b", "common"
    ]
    assert [(a, b, s, *map(int, rest)) for a, b, s, *rest in rows] == intersections

    check_plot_data(run / "plot_data.csv", summary, intersections, config["k_values"])


@settings(max_examples=40, deadline=None)
@given(experiments())
def test_run_reports_match_the_oracles(experiment):
    preset, seed, stride, config, compare_k = experiment
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = PRESETS[preset][0](seed)
        data.write_interactions(tmp / "interactions.tsv")
        data.documents = {
            item: {**attributes, COMMON[0]: COMMON[1]}
            for n, (item, attributes) in enumerate(data.documents.items())
            if n % stride
        }
        data.write_content(tmp / "content.jsonl")
        config = {
            **config,
            "interactions_path": str(tmp / "interactions.tsv"),
            "interactions_format": "implicit" if data.implicit else "explicit",
            "content_path": str(tmp / "content.jsonl"),
        }
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "run")]) == 0
        ratings, documents = read_inputs(tmp / "interactions.tsv", tmp / "content.jsonl", data.implicit)
        # some rated items have no document
        assert {item for profile in ratings.values() for item in profile} - documents.keys()
        check_run(tmp / "run", config, ratings, documents, compare_k)
