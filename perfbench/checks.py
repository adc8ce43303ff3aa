"""Output checks that do not trust the package: brute-force recomputation of
a fixed sample of users' ranked lists from the generated inputs.

Content lists (``sup``, ``upa``) are recomputed with the reference
implementations in the repository's ``tests/oracles.py``; ``cf`` lists with
the brute-force user-user model below. Both accumulate floats in the
canonical order the package documents, so lists must agree exactly.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path


def _load_oracles(root):
    spec = importlib.util.spec_from_file_location("oracles", Path(root) / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_lists(run_dir):
    lists = {}
    with open(Path(run_dir) / "lists.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["algorithm"], row["attribute_selection"], row["user_id"])
            lists.setdefault(key, []).append((int(row["rank"]), row["item_id"], float(row["score"])))
    return {key: [(i, s) for _, i, s in sorted(rows)] for key, rows in lists.items()}


def _read_hidden(run_dir):
    """{user: (fold, hidden items)} and {fold: {(user, item) hidden in it}}."""
    users, by_fold = {}, {}
    with open(Path(run_dir) / "hidden.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            fold, user, item = int(row["fold"]), row["user_id"], row["item_id"]
            users.setdefault(user, (fold, set()))[1].add(item)
            by_fold.setdefault(fold, set()).add((user, item))
    return users, by_fold


def _read_ratings(workload_dir, config):
    ratings = {}
    with open(Path(workload_dir) / config["interactions_path"], encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            r = 1.0 if config["interactions_format"] == "implicit" else float(fields[2])
            ratings.setdefault(fields[0], {})[fields[1]] = r
    return ratings


def oracle_cf(ratings, user, neighborhood_size, k):
    """Cosine user-user CF scoring every other user exhaustively."""
    def norm(prof):
        s = 0.0
        for i in sorted(prof):
            s += prof[i] * prof[i]
        return math.sqrt(s)

    own = ratings[user]
    sims = []
    for v in sorted(ratings):
        if v == user:
            continue
        dot = 0.0
        for i in sorted(own.keys() & ratings[v].keys()):
            dot += own[i] * ratings[v][i]
        if dot > 0.0:
            sims.append((v, dot / (norm(own) * norm(ratings[v]))))
    sims.sort(key=lambda e: (-e[1], e[0]))
    scores = {}
    for v, sim in sorted(sims[:neighborhood_size]):
        for i in sorted(ratings[v]):
            if i not in own:
                scores[i] = scores.get(i, 0.0) + sim * ratings[v][i]
    ranked = sorted(((i, s) for i, s in scores.items() if s > 0.0), key=lambda e: (-e[1], e[0]))
    return ranked[:k]


def _content_vectors(workload_dir, config, oracles):
    """Oracle TF-IDF vectors per selection label, keyed by term string."""
    from recbench import default_stopwords, tokenize

    stopwords = default_stopwords()
    docs = {}
    with open(Path(workload_dir) / config["content_path"], encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            docs[record["item_id"]] = record["attributes"]
    all_names = sorted({name for attrs in docs.values() for name in attrs})
    vectors = {}
    for selection in config["attribute_selections"]:
        names = all_names if selection == "all" else selection
        tokens = {
            item: [t for t in tokenize(" ".join(a.get(n, "") for n in names)) if t not in stopwords]
            for item, a in docs.items()
        }
        label = "all" if selection == "all" else "+".join(selection)
        vectors[label] = oracles.oracle_tfidf(tokens)[1]
    return vectors


def check_lists(root, workload_dir, run_dir, sample_size):
    """Recompute the lists of ``sample_size`` evenly spaced test users for
    every (algorithm, selection) in the run; return a list of mismatches."""
    with open(Path(workload_dir) / "config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    kmax = max(config["k_values"])
    algorithms = config["algorithms"]
    lists = _read_lists(run_dir)
    hidden, by_fold = _read_hidden(run_dir)
    ratings = _read_ratings(workload_dir, config)
    users = sorted(hidden)
    sample = users[:: max(1, len(users) // sample_size)][:sample_size]
    oracles = _load_oracles(root) if config.get("content_path") else None
    vectors = _content_vectors(workload_dir, config, oracles) if oracles else {}

    problems = []
    for user in sample:
        fold, hidden_items = hidden[user]
        profile = sorted(set(ratings[user]) - hidden_items)
        expected = {}
        if "cf" in algorithms:
            train = {
                u: {i: r for i, r in prof.items() if (u, i) not in by_fold[fold]}
                for u, prof in ratings.items()
            }
            n = algorithms["cf"]["neighborhood_size"]
            expected["cf", "-"] = oracle_cf(train, user, n, kmax)
        for label, vecs in vectors.items():
            if "sup" in algorithms:
                votes = algorithms["sup"]["votes_per_item"]
                expected["sup", label] = oracles.oracle_sup(vecs, profile, votes, kmax)
            if "upa" in algorithms:
                budget = algorithms["upa"]["profile_term_budget"]
                expected["upa", label] = oracles.oracle_upa(vecs, profile, budget, kmax)
        for (algorithm, label), want in expected.items():
            got = lists.get((algorithm, label, user), [])
            if got != want:
                problems.append(f"{algorithm}/{label} list of {user} differs from the oracle")
    return problems
