"""Seeded input generators and run configs for the three benchmark workloads.

The generators are derived from the ``sparse_implicit`` and ``dense`` test
presets but live here, so edits to test fixtures never shift the workloads.
Every generator takes the seed as its only varying argument; the sizes are
fixed. Configs use paths relative to the workload directory, so every
run-directory file (``config.json`` included) is independent of where the
benchmark runs.
"""

import json
import random
from pathlib import Path

INTERACTIONS = "interactions.tsv"
CONTENT = "content.jsonl"
CONFIG = "config.json"

# Every parameter is spelled out, so the oracle checks never rely on the
# package's defaults.
CF_PARAMS = {"neighborhood_size": 50, "similarity_metric": "cosine"}
UPA_PARAMS = {"profile_term_budget": 100}


def _sample(rng, pool, n):
    return rng.sample(pool, min(n, len(pool)))


def sparse_content(seed):
    """Implicit feedback over an 8,000-item catalog.

    ``tokenize`` splits words like ``tw12_17`` at the underscore into
    ``tw12`` and a bare index shared by every topic, so 8,000 documents
    collapse to about 270 terms and every query's postings cover most of the
    catalog (the long-postings case). Each active user sits
    in its own topic and is tested in one fold only, so every voter item is
    queried exactly once (no reuse). CF finds almost no neighbours: only two
    two-item companion users per active topic co-rate with the active users.
    """
    rng = random.Random(seed)
    n_topics, items_per_topic, n_active, profile_size = 200, 40, 25, 22
    common = [f"com{j}" for j in range(50)]
    documents, topic_items = {}, []
    for t in range(n_topics):
        vocab = [f"tw{t}_{j}" for j in range(30)]
        items = []
        for n in range(items_per_topic):
            item_id = f"p{t:03d}x{n:02d}"
            words = _sample(rng, vocab, 8) + _sample(rng, common, 2)
            rng.shuffle(words)
            documents[item_id] = {"text": " ".join(words)}
            items.append(item_id)
        topic_items.append(items)
    rows = []
    for u in range(n_active):
        rows += [(f"u{u:02d}", item) for item in _sample(rng, topic_items[u], profile_size)]
    for t in range(n_active):
        for c in range(2):
            user = f"c{2 * t + c:03d}"
            rows += [(user, item) for item in _sample(rng, topic_items[t], 2)]
    outside = sorted(item for t in range(n_active, n_topics) for item in topic_items[t])
    for f in range(3000):
        rows += [(f"f{f:04d}", item) for item in _sample(rng, outside, 2)]
    config = {
        "interactions_format": "implicit",
        "algorithms": {"cf": CF_PARAMS, "sup": {"votes_per_item": 50}, "upa": UPA_PARAMS},
        "attribute_selections": ["all"],
        "k_values": [10, 20, 50],
        "fold_count": 5,
    }
    return rows, documents, config


def _dense(rng, n_topics, n_users, with_title):
    """The ``dense`` preset: topics on a ring sharing vocabulary with their
    neighbours, Zipf-skewed 13-item picks from three topics per user, and a
    never-rated slice of each topic."""
    items_per_topic, ratable, chain_share = 30, 20, 30
    shared = [[f"sh{t:02d}_{j}" for j in range(chain_share)] for t in range(n_topics)]
    topic_vocab = [
        [f"pv{t:02d}_{j}" for j in range(120 - 2 * chain_share)]
        + shared[t] + shared[(t + 1) % n_topics]
        for t in range(n_topics)
    ]
    global_pool = [f"gx{j:03d}" for j in range(150)]
    title_pool = [f"ti{j:03d}" for j in range(60)]
    documents, topic_items = {}, []
    for t in range(n_topics):
        cores = [f"core{t:02d}_{j}" for j in range(3)]
        items = []
        for n in range(items_per_topic):
            item_id = f"d{t:02d}n{n:02d}"
            words = (
                cores
                + _sample(rng, topic_vocab[t], rng.randint(25, 45))
                + _sample(rng, global_pool, rng.randint(2, 4))
            )
            rng.shuffle(words)
            documents[item_id] = {"text": " ".join(words)}
            if with_title:
                # short: one topic word plus two words from a pool every topic shares
                title = [f"core{t:02d}"] + _sample(rng, title_pool, 2)
                documents[item_id]["title"] = " ".join(title)
            items.append(item_id)
        topic_items.append(items)
    weights = [1.0 / (r + 1) ** 1.2 for r in range(ratable)]
    rows = []
    for u in range(n_users):
        user = f"u{u:04d}"
        for t in rng.sample(range(n_topics), 3):
            pool = topic_items[t][:ratable]
            picked = set()
            while len(picked) < 13:
                picked.add(rng.choices(pool, weights=weights)[0])
            rows += [(user, item, rng.randint(2, 5)) for item in sorted(picked)]
    return rows, documents


def dense_cf(seed):
    """Many users with overlapping 39-item profiles over 400 rated items:
    user-user CF dominates and no content is involved."""
    rows, _ = _dense(random.Random(seed), n_topics=20, n_users=600, with_title=False)
    config = {
        "interactions_format": "explicit",
        "algorithms": {"cf": CF_PARAMS},
        "k_values": [10, 20, 30, 50, 100],
        "fold_count": 10,
    }
    return rows, None, config


def dense_content(seed):
    """Few users over 300 rich documents with a short ``title`` attribute:
    popular items vote in many users' profiles across folds (high voter
    reuse) and the postings are short."""
    rows, documents = _dense(random.Random(seed), n_topics=10, n_users=60, with_title=True)
    config = {
        "interactions_format": "explicit",
        "algorithms": {"sup": {"votes_per_item": 15}, "upa": UPA_PARAMS},
        "attribute_selections": [["title"], ["text"], "all"],
        "k_values": [10, 20, 30, 50, 100],
        "fold_count": 10,
    }
    return rows, documents, config


GENERATORS = {
    "sparse-content": sparse_content,
    "dense-cf": dense_cf,
    "dense-content": dense_content,
}

# The compare each workload times: (algorithm/selection a, algorithm/selection b, k).
COMPARES = {
    "sparse-content": (("sup", "all"), ("upa", "all"), 50),
    "dense-cf": (("cf", "-"), ("cf", "-"), 100),
    "dense-content": (("sup", "all"), ("upa", "all"), 100),
}


def write_workload(name, seed, directory):
    """Generate workload ``name`` from ``seed`` into ``directory``.

    Writes the interaction file, the content file when the workload has one,
    and ``config.json`` with paths relative to ``directory``.
    """
    rows, documents, config = GENERATORS[name](seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / INTERACTIONS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {name} seed {seed}\n")
        for row in rows:
            fh.write("\t".join(str(f) for f in row) + "\n")
    config = {
        "interactions_path": INTERACTIONS, **config,
        "given_n": 10, "min_train_items": 10, "rng_seed": seed,
    }
    if documents is not None:
        with open(directory / CONTENT, "w", encoding="utf-8", newline="\n") as fh:
            for item_id, attributes in documents.items():
                fh.write(json.dumps({"item_id": item_id, "attributes": attributes}) + "\n")
        config["content_path"] = CONTENT
    with open(directory / CONFIG, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
