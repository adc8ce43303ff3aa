"""The fold-invariant preparation every ``recbench run`` pays, in a fresh process.

Usage (from a workload directory): python3 setup_probe.py

Reads ``config.json`` and, through the package's public functions, loads the
interactions and the content, builds one index per configured attribute
selection and plans the folds. Prints one JSON line that summarises what was
built, so the benchmark can check it.
"""

import json

from recbench import build_index, default_stopwords, load_content, load_interactions, plan_splits


def main():
    with open("config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    ds = load_interactions(config["interactions_path"], format=config["interactions_format"])
    summary = {"users": ds.n_users, "items": ds.n_items, "activities": ds.n_activities}
    if config.get("content_path"):
        corpus = load_content(config["content_path"])
        stopwords = default_stopwords()
        for selection in config["attribute_selections"]:
            names = corpus.attribute_names() if selection == "all" else tuple(selection)
            index = build_index(corpus, names, stopwords)
            summary["+".join(names)] = [len(index.vocabulary), len(index.empty_item_ids)]
    plan = plan_splits(
        ds,
        fold_count=config["fold_count"],
        given_n=config["given_n"],
        min_train_items=config["min_train_items"],
        rng_seed=config["rng_seed"],
    )
    summary["fold_sizes"] = [len(plan.users_in_fold(f)) for f in range(plan.fold_count)]
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
