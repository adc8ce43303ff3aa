import pytest

from recbench import InteractionDataset
from recbench.corpus import ContentCorpus


@pytest.fixture
def toy_corpus():
    """Three tiny documents over the vocabulary {blue, green, red}."""
    return ContentCorpus(
        {
            "d1": {"text": "red red blue"},
            "d2": {"text": "red green green"},
            "d3": {"text": "blue green"},
        }
    )


@pytest.fixture
def ratings_4x5():
    """Fixed 4-user, 5-item rating matrix used for hand-checked CF values."""
    rows = [
        ("u1", "i1", 5), ("u1", "i2", 3), ("u1", "i4", 1),
        ("u2", "i1", 4), ("u2", "i3", 4),
        ("u3", "i2", 2), ("u3", "i4", 5),
        ("u4", "i1", 1), ("u4", "i5", 5),
    ]
    return dataset(rows)


def dataset(rows):
    """The dataset of ``(user, item, rating)`` rows, built as ``load_interactions``
    builds one: users and items in first-appearance order, a repeated pair
    keeping its last rating."""
    profiles, items = {}, {}
    for user, item, rating in rows:
        profiles.setdefault(user, {})[item] = float(rating)
        items[item] = None
    return InteractionDataset(profiles, items)


def as_term_dicts(index):
    """Re-key an index's vectors by term string for the brute-force oracles."""
    terms = index.vocabulary
    return {
        item: {terms[i]: w for i, w in vec.entries.items()}
        for item, vec in index.vectors.items()
    }
