"""Bag-of-words TF-IDF vectors and cosine-similarity retrieval.

Floating-point accumulation is always done in ascending term-index order so
that scores are bit-for-bit reproducible no matter which retrieval path
computes them.
"""

import heapq
import math
import re
from collections import Counter
from collections.abc import Mapping, Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from importlib import resources

from .corpus import ContentCorpus
from .errors import ConfigurationError

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text``, split on non-alphanumeric characters, and drop
    tokens shorter than two characters."""
    return [t for t in _TOKEN.findall(text.lower()) if len(t) >= 2]


def _parse_stopword_lines(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: UTF-8, one lowercase term per line."""
    with open(path, encoding="utf-8") as fh:
        return _parse_stopword_lines(fh.read())


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("recbench").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return _parse_stopword_lines(text)


@dataclass(frozen=True)
class Vocabulary:
    """Retained terms in sorted order, with document frequencies.

    Term indices are positions in ``terms``; ``n_docs`` is the total number
    of documents the vocabulary was built from.
    """

    terms: tuple[str, ...]
    df: Mapping[str, int]
    n_docs: int
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_docs < 1:
            raise ValueError("n_docs must be >= 1")
        for t in self.terms:
            if t not in self.df:
                raise ValueError(f"term {t!r} has no document frequency")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def index_of(self, term: str) -> int | None:
        return self._index.get(term)


@dataclass
class SparseVector:
    """Non-zero, non-negative weights keyed by vocabulary term index."""

    entries: dict[int, float]

    def __post_init__(self):
        clean: dict[int, float] = {}
        for i, w in self.entries.items():
            if w < 0:
                raise ValueError(f"weight for term index {i} is negative")
            if w != 0.0:
                clean[i] = w
        self.entries = clean

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def norm(self) -> float:
        s = 0.0
        for i in sorted(self.entries):
            w = self.entries[i]
            s += w * w
        return math.sqrt(s)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity of two vectors over the same vocabulary.

    Returns 0.0 when either vector has no entries (zero norm).
    """
    if not a.entries or not b.entries:
        return 0.0
    dot = 0.0
    for i in sorted(a.entries.keys() & b.entries.keys()):
        dot += a.entries[i] * b.entries[i]
    if dot == 0.0:
        return 0.0
    return dot / (a.norm() * b.norm())


class DocumentIndex:
    """TF-IDF vectors for a document collection plus retrieval structures.

    Holds one vector per item (possibly empty), per-item norms, and an
    inverted index from term index to the items carrying that term.
    Immutable once constructed; safe to query concurrently.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        vectors: Mapping[str, SparseVector],
        attribute_selection: Sequence[str],
    ):
        if not attribute_selection:
            raise ValueError("attribute_selection must be non-empty")
        self.vocabulary = vocabulary
        self.vectors: dict[str, SparseVector] = dict(vectors)
        self.attribute_selection: tuple[str, ...] = tuple(attribute_selection)
        n_terms = len(vocabulary)
        for item_id, vec in self.vectors.items():
            for t in vec.entries:
                if not 0 <= t < n_terms:
                    raise ValueError(f"vector for {item_id!r} uses term index {t} outside the vocabulary")
        self._norms = {item_id: vec.norm() for item_id, vec in self.vectors.items()}
        postings: dict[int, list[tuple[str, float]]] = {}
        for item_id, vec in self.vectors.items():
            for t, w in vec.entries.items():
                postings.setdefault(t, []).append((item_id, w))
        self._postings = {t: tuple(rows) for t, rows in postings.items()}

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.vectors

    def vector(self, item_id: str) -> SparseVector:
        return self.vectors[item_id]

    def norm(self, item_id: str) -> float:
        return self._norms[item_id]

    def postings(self, term_index: int) -> tuple[tuple[str, float], ...]:
        return self._postings.get(term_index, ())

    @property
    def empty_item_ids(self) -> tuple[str, ...]:
        """Items whose document produced no retained terms."""
        return tuple(sorted(i for i, v in self.vectors.items() if not v.entries))


def check_selection(corpus: ContentCorpus, attribute_selection: Sequence[str]) -> tuple[str, ...]:
    """Return ``attribute_selection`` as a tuple, or raise
    ``ConfigurationError`` listing why it cannot be indexed over ``corpus``."""
    if len(corpus) == 0:
        raise ConfigurationError("content corpus is empty")
    selection = tuple(attribute_selection)
    problems = []
    if not selection:
        problems.append("attribute selection is empty")
    elif len(set(selection)) != len(selection):
        problems.append(f"attribute selection has duplicate names: {selection!r}")
    else:
        known = set(corpus.attribute_names())
        missing = [a for a in selection if a not in known]
        for a in missing:
            problems.append(f"attribute {a!r} does not occur in any document")
    if problems:
        raise ConfigurationError(problems)
    return selection


def build_index(
    corpus: ContentCorpus,
    attribute_selection: Sequence[str],
    stopwords: AbstractSet[str] = frozenset(),
) -> DocumentIndex:
    """Build TF-IDF vectors over the selected content attributes.

    Each item's document is the space-joined text of its selected
    attributes, tokenized and filtered against ``stopwords``. Terms that
    survive in only one document are discarded. A retained term's weight in
    a document is its raw in-document count times ``ln(n_docs / df)``; no
    vector length normalization is applied, so weights of exactly zero
    (terms present in every document) are simply not stored.
    """
    selection = check_selection(corpus, attribute_selection)

    counts_by_item: dict[str, Counter] = {}
    df: Counter = Counter()
    for item_id, doc in corpus.documents.items():
        text = " ".join(doc.attributes.get(a, "") for a in selection)
        tokens = [t for t in tokenize(text) if t not in stopwords]
        counts = Counter(tokens)
        counts_by_item[item_id] = counts
        df.update(counts.keys())

    terms = tuple(sorted(t for t, d in df.items() if d >= 2))
    if not terms:
        raise ConfigurationError(
            "vocabulary is empty after stopword and single-document term removal"
        )
    n_docs = len(corpus)
    vocab = Vocabulary(terms=terms, df={t: df[t] for t in terms}, n_docs=n_docs)
    index_of = {t: i for i, t in enumerate(terms)}
    vectors: dict[str, SparseVector] = {}
    for item_id, counts in counts_by_item.items():
        entries: dict[int, float] = {}
        for t in sorted(counts):
            i = index_of.get(t)
            if i is None:
                continue
            w = counts[t] * math.log(n_docs / df[t])
            if w != 0.0:
                entries[i] = w
        vectors[item_id] = SparseVector(entries)
    return DocumentIndex(vocab, vectors, selection)


def top_k_similar(
    index: DocumentIndex,
    query: SparseVector,
    k: int,
    exclude: AbstractSet[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Rank indexed items by cosine similarity to ``query``.

    Returns at most ``k`` ``(item_id, score)`` pairs with strictly positive
    scores, ordered by descending score with ties broken by ascending item
    id; ids in ``exclude`` are never returned. Each item's dot product is
    summed in ascending term order whatever ``exclude`` holds, so an item's
    score never depends on which other items are excluded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    qnorm = query.norm()
    if qnorm == 0.0:
        return []
    postings = index._postings
    norms = index._norms
    entries = query.entries
    dots: dict[str, float] = {}
    get = dots.get
    for t in sorted(entries):
        qw = entries[t]
        for item_id, w in postings.get(t, ()):
            dots[item_id] = get(item_id, 0.0) + qw * w
    # negating a float is exact, so (-score, id) orders exactly as the
    # documented (descending score, ascending id)
    best = heapq.nsmallest(
        k,
        (
            (-(d / (qnorm * norms[item_id])), item_id)
            for item_id, d in dots.items()
            if d > 0.0 and item_id not in exclude
        ),
    )
    return [(item_id, -neg) for neg, item_id in best]
