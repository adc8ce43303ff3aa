"""Bag-of-words TF-IDF vectors and cosine-similarity retrieval.

Floating-point accumulation is always done in ascending term-index order so
that scores are bit-for-bit reproducible no matter which retrieval path
computes them.
"""

import heapq
import math
import re
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence, Set as AbstractSet
from dataclasses import FrozenInstanceError
from importlib import resources
from itertools import accumulate, chain

from .corpus import ContentCorpus, _positive_int, _require, _rows
from .errors import ConfigurationError

# a run of one letter or digit is never a token, so it is never matched
_TOKEN = re.compile(r"[^\W_]{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text``, split on non-alphanumeric characters, and drop
    tokens shorter than two characters."""
    return _TOKEN.findall(text.lower())


def _stopwords(text: str) -> set[str]:
    """The terms of stopword text: each non-blank line as ``str.splitlines``
    splits it, stripped and lowercased."""
    return {line.strip().lower() for line in text.splitlines()} - {""}


def load_stopwords(path) -> frozenset[str]:
    """Read a UTF-8 stopword file: each non-blank line as ``str.splitlines``
    splits it, stripped and lowercased, is one term; a ``#`` stays in its term."""
    return frozenset(chain.from_iterable(_rows(path, _stopwords)))


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("recbench").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(_stopwords(text))


class FrozenSlots:
    """Base of a slotted class whose attributes are set once, in ``__init__``
    through ``object.__setattr__``, and never assigned or deleted after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SparseVector(FrozenSlots):
    """Positive, finite weights keyed by vocabulary term index.

    Holds two tuples as they were built: ``terms``, the term indices in
    strictly ascending order, and ``weights``, each term's weight beside it,
    the very float objects it was given (an index's vectors share one float
    per (term, count)). ``norm``, the vector's Euclidean length, is summed
    once over the weights in term order and kept in a slot. ``entries`` is
    a dict built on each read, so changing it leaves the vector as it was.
    """

    __slots__ = ("terms", "weights", "norm")

    def __init__(self, terms: Sequence[int], weights: Sequence[float]):
        terms, weights = tuple(terms), tuple(weights)
        if any(a >= b for a, b in zip(terms, terms[1:])):
            raise ValueError("term indices must be strictly ascending")
        s = 0.0
        for t, w in zip(terms, weights, strict=True):
            if not 0.0 < w < math.inf:  # also false for NaN
                raise ValueError(f"weight for term index {t} is not positive and finite: {w!r}")
            s += w * w
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "norm", math.sqrt(s))

    @property
    def entries(self) -> dict[int, float]:
        return dict(zip(self.terms, self.weights))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


class DocumentIndex:
    """TF-IDF vectors for a document collection plus retrieval structures.

    Holds one vector per item (possibly empty), each with its norm in its
    own slot, and an inverted index from term index to the items carrying
    that term: per term, a tuple of item ids in index order and, beside it,
    an ``array("d")`` of each item's weight over its norm, 8 bytes a posting
    with no float object. An (item, term) entry is thus a term-index and a
    weight reference in the vector's two tuples plus one posting.
    ``vocabulary`` is the ascending tuple of retained terms, and a term's
    index is its position in it. ``vectors`` maps each indexed item id to
    its vector. Nothing changes after construction.
    """

    def __init__(self, vocabulary: tuple[str, ...], vectors: Mapping[str, SparseVector]):
        self.vocabulary = vocabulary
        self.vectors: dict[str, SparseVector] = dict(vectors)
        n_terms = len(vocabulary)
        for item_id, vec in self.vectors.items():
            for t in vec.terms:
                if not 0 <= t < n_terms:
                    raise ValueError(f"vector for {item_id!r} uses term index {t} outside the vocabulary")
        # per term, the items carrying it and their weights over the item's
        # norm, in index order; the largest weight is the term's bound
        columns: dict[int, tuple[list[str], array]] = defaultdict(lambda: ([], array("d")))
        for item_id, vec in self.vectors.items():
            for t, w in zip(vec.terms, vec.weights):
                ids, scaled = columns[t]
                ids.append(item_id)
                scaled.append(w / vec.norm)
        self._postings = {t: (tuple(ids), scaled) for t, (ids, scaled) in columns.items()}
        self._bounds = {t: max(scaled) for t, (_, scaled) in self._postings.items()}

    def __len__(self) -> int:
        return len(self.vectors)

    def postings(self, term_index: int) -> tuple[tuple[str, float], ...]:
        """``(item_id, weight over the item's norm)`` for each item carrying
        the term, in index order: the stored posting column."""
        return tuple(zip(*self._postings.get(term_index, ((), ()))))

    @property
    def empty_item_ids(self) -> tuple[str, ...]:
        """Items whose document produced no retained terms."""
        return tuple(sorted(i for i, v in self.vectors.items() if not v))


def check_selection(corpus, attribute_selection: Sequence[str]) -> tuple[str, ...]:
    """Return ``attribute_selection`` as a tuple, or raise
    ``ConfigurationError`` listing why it cannot be indexed over ``corpus``
    (a ``ContentCorpus`` or a ``TokenizedContent``)."""
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


def empty_vocabulary(label: str) -> str:
    """The problem of the selection ``label`` whose vocabulary is empty."""
    return f"selection {label}: vocabulary is empty after stopword and single-document term removal"


class TokenizedContent:
    """Item documents as tokens, with none of their raw text.

    ``columns`` maps each attribute name, in ascending order, to one tuple
    of tokens per document of ``item_ids``: the attribute's tokens in text
    order after removing ``stopwords``, empty where the document lacks the
    attribute. Every equal term is held as one shared string.
    """

    __slots__ = ("item_ids", "columns", "stopwords")

    def __init__(
        self, item_ids: tuple[str, ...], columns: dict[str, list[tuple[str, ...]]], stopwords: AbstractSet[str]
    ):
        self.item_ids = item_ids
        self.columns = columns
        self.stopwords = stopwords

    def __len__(self) -> int:
        return len(self.item_ids)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def shares_a_term(self, attribute_selection: Sequence[str]) -> bool:
        """Whether some term of the selected attributes occurs in two or
        more documents, so the selection's vocabulary is not empty. The scan
        stops at the first term seen in a second document."""
        seen: set[str] = set()
        for parts in zip(*(self.columns[a] for a in attribute_selection)):
            terms = set().union(*parts)
            if not seen.isdisjoint(terms):
                return True
            seen |= terms
        return False


def tokenize_content(
    corpus: ContentCorpus, attributes: Sequence[str], stopwords: AbstractSet[str] = frozenset()
) -> TokenizedContent:
    """Tokenize each document of ``corpus`` once per attribute of
    ``attributes`` and drop ``stopwords``.

    The tokens of a selection's attributes, taken in turn, are the tokens of
    their space-joined text, because a space always splits tokens.
    """
    names = check_selection(corpus, attributes)
    shared: dict[str, str] = {}
    share = shared.setdefault
    columns = {}
    for a in sorted(names):
        columns[a] = [
            tuple([share(t, t) for t in tokenize(text) if t not in stopwords])
            if (text := attributes.get(a))
            else ()
            for attributes in corpus.documents.values()
        ]
    return TokenizedContent(corpus.item_ids(), columns, stopwords)


def build_index(
    corpus: ContentCorpus | TokenizedContent,
    attribute_selection: Sequence[str],
    stopwords: AbstractSet[str] = frozenset(),
) -> DocumentIndex:
    """Build TF-IDF vectors over the selected content attributes.

    Each item's document is the space-joined text of its selected
    attributes, tokenized and filtered against ``stopwords``. Terms that
    survive in only one document are discarded. A retained term's weight in
    a document is its raw in-document count times ``ln(n_docs / df)``; no
    vector length normalization is applied, so weights of exactly zero
    (terms present in every document) are simply not stored. The weight is
    computed once per (term, count), and every document with that count of
    the term holds the same float object. The index's ``vocabulary`` is the
    ascending tuple of retained terms, and a term's index is its position
    in it; each vector's term and weight tuples are filled in ascending term
    order as the document is read.

    ``corpus`` is a ``ContentCorpus`` (``documents`` maps each item id to
    ``{attribute: text}``), tokenized here over the selected attributes
    only, or the ``TokenizedContent`` of an earlier ``tokenize_content``
    pass over them, and possibly more, with the same ``stopwords``.
    """
    if not isinstance(corpus, TokenizedContent):
        corpus = tokenize_content(corpus, attribute_selection, stopwords)
    elif corpus.stopwords != stopwords:
        raise ValueError("the content was tokenized against other stopwords")
    selection = check_selection(corpus, attribute_selection)
    columns = [corpus.columns[a] for a in selection]

    # df first, so that each document's counts live only while its vector is built
    df = Counter(chain.from_iterable(set().union(*parts) for parts in zip(*columns)))
    terms = tuple(sorted(t for t, d in df.items() if d >= 2))
    if not terms:
        raise ConfigurationError(empty_vocabulary("+".join(selection)))
    n_docs = len(corpus)
    index_of = {t: i for i, t in enumerate(terms)}
    weights: dict[tuple[int, int], float] = {}
    vectors: dict[str, SparseVector] = {}
    for item_id, *parts in zip(corpus.item_ids, *columns):
        counts: dict[str, int] = {}
        for tokens in parts:
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
        doc_terms, doc_weights = [], []
        # vocabulary indices follow term order, so they come out ascending
        for t in sorted(counts):
            i = index_of.get(t)
            if i is None:
                continue
            w = weights.get((i, counts[t]))
            if w is None:
                w = weights[i, counts[t]] = counts[t] * math.log(n_docs / df[t])
            if w != 0.0:
                doc_terms.append(i)
                doc_weights.append(w)
        vectors[item_id] = SparseVector(doc_terms, doc_weights)
    return DocumentIndex(terms, vectors)


# relative allowance for rounding in the pruning bounds and partial sums,
# whose own float error is ~1e-16 per term added
_SLACK = 1e-9

# once a walk that has not stopped has reached more than this share of the
# index, the rest of its postings cost more than scoring every item directly
_SCAN_SHARE = 0.5


def top_k_similar(index: DocumentIndex, query: SparseVector, k: int) -> list[tuple[str, float]]:
    """Rank indexed items by cosine similarity to ``query``.

    Returns at most ``k`` ``(item_id, score)`` pairs with strictly positive
    scores, ordered by descending score with ties broken by ascending item
    id. Each item's dot product is summed in ascending term order, so an
    item's score depends only on its vector and the query.

    Postings are read as in MaxScore (Turtle & Flood 1995): query terms in
    descending order of their bound, adding up each reached item's partial
    score (times the query norm), a lower bound. Once k partial scores beat
    the bound sum of the unread terms, no unreached item can enter the top k
    and reading stops. The reached items whose partial score plus that sum
    still reaches the k-th partial score are rescored exactly from their own
    vectors; both comparisons allow a relative slack for rounding, so only
    items that cannot reach the k-th score are skipped.

    A query that has reached more than ``_SCAN_SHARE`` of the index without
    stopping, as a long query over common terms does, would rescore most of
    the index anyway: reading stops there and every item's vector is scored
    instead. Both paths score an item by the same sum in the same order and
    select by the same key, so they return the same list, bit for bit.
    """
    _require("k", k, _positive_int)
    qnorm = query.norm
    if qnorm == 0.0:
        return []
    postings = index._postings
    bounds = index._bounds
    walk = sorted(
        ((qw * bounds[t], t, qw) for t, qw in zip(query.terms, query.weights) if t in bounds), reverse=True
    )
    # rests[j]: the most the terms walk[j:] can add to any item's score
    rests = [*accumulate((bound for bound, _, _ in reversed(walk)), initial=0.0)][::-1]
    scan_at = _SCAN_SHARE * len(index)
    acc: dict[str, float] = {}
    get = acc.get
    rest = 0.0
    for j, (_, t, qw) in enumerate(walk, start=1):
        ids, scaled = postings[t]
        for item_id, sw in zip(ids, scaled):
            acc[item_id] = get(item_id, 0.0) + qw * sw
        rest = rests[j]
        bar = rest * (1.0 + _SLACK)
        if len(acc) >= k and sum(map(bar.__lt__, acc.values())) >= k:
            break
        if len(acc) > scan_at:
            return _scored(index, query, qnorm, k, index.vectors)
    cut = 0.0
    if len(acc) > k:
        kth = heapq.nlargest(k, acc.values())[-1]
        cut = kth * (1.0 - _SLACK) / (1.0 + _SLACK) - rest
    return _scored(index, query, qnorm, k, (item_id for item_id, p in acc.items() if p >= cut))


def _scored(
    index: DocumentIndex, query: SparseVector, qnorm: float, k: int, item_ids: Iterable[str]
) -> list[tuple[str, float]]:
    """The top ``k`` of ``item_ids`` by exact cosine with ``query``, whose
    norm is ``qnorm``, each dot product summed in ascending term order.

    The query's weights go into one list indexed by term, 0.0 where the
    query lacks the term; query terms outside the vocabulary, which no item
    carries, are left out. Every term of an item's vector is then summed,
    and a term the query lacks adds ``0.0 * w``, which is +0.0 since no
    weight is negative, so each sum is the same double as over the shared
    terms alone.
    """
    n_terms = len(index.vocabulary)
    dense = [0.0] * n_terms
    for t, qw in zip(query.terms, query.weights):
        if 0 <= t < n_terms:
            dense[t] = qw
    vectors = index.vectors
    scored = []
    for item_id in item_ids:
        vec = vectors[item_id]
        d = 0.0
        for t, w in zip(vec.terms, vec.weights):
            d += dense[t] * w
        if d > 0.0:
            # negating a float is exact, so (-score, id) orders exactly as
            # the documented (descending score, ascending id)
            scored.append((-(d / (qnorm * vec.norm)), item_id))
    return [(item_id, -neg) for neg, item_id in heapq.nsmallest(k, scored)]
