import math
import random
import re
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbench import ConfigurationError, ParseError, build_index, default_stopwords, textproc, tokenize
from recbench.corpus import ContentCorpus
from recbench.textproc import DocumentIndex, SparseVector, load_stopwords, top_k_similar

from conftest import as_term_dicts
from oracles import oracle_tfidf, oracle_top_k


def _vec(entries):
    """The vector of the ``{term index: weight}`` mapping ``entries``."""
    terms = sorted(entries)
    return SparseVector(terms, [entries[t] for t in terms])


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("The Dark-Knight returns!") == ["the", "dark", "knight", "returns"]

    def test_underscore_is_a_separator(self):
        assert tokenize("sci_fi") == ["sci", "fi"]

    def test_short_tokens_dropped(self):
        assert tokenize("a I ok") == ["ok"]

    def test_digits_kept(self):
        assert tokenize("area 51") == ["area", "51"]

    def test_apostrophes(self):
        assert tokenize("Ben's dog") == ["ben", "dog"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  \t ") == []


# words that share a term once lowercased, with a final sigma (ΟΔΟΣ -> οδος),
# digits, underscores and combining marks; separators that split a token or
# join two words into one
_WORDS = st.sampled_from(["ΟΔΟΣ", "οδος", "ΣΑ", "σα", "ab", "Ab_cd", "x9", "99", "e\u0301t\u0308", "a", "İt"])
_GLUE = st.sampled_from([" ", "_", "-", "\u0301", "\u0308", "Σ", ""])
ATTRIBUTE_TEXT = st.lists(st.tuples(_WORDS, _GLUE), max_size=8).map(
    lambda parts: "".join(word + glue for word, glue in parts)
)


class TestTokenPass:
    """Tokenizing attribute by attribute is tokenizing the space-joined text."""

    STOPWORDS = frozenset({"ab", "σα"})

    @given(st.text())
    def test_tokens_are_runs_of_two_or_more_letters_or_digits(self, text):
        assert tokenize(text) == [t for t in re.findall(r"[^\W_]+", text.lower()) if len(t) >= 2]

    @given(st.lists(st.one_of(ATTRIBUTE_TEXT, st.text()), min_size=1, max_size=4))
    def test_attribute_tokens_in_turn_are_the_joined_texts_tokens(self, texts):
        names = [f"a{n}" for n in range(len(texts))]
        corpus = ContentCorpus({"d": dict(zip(names, texts))})
        content = textproc.tokenize_content(corpus, names, self.STOPWORDS)
        assert [t for a in names for t in content.columns[a][0]] == [
            t for t in tokenize(" ".join(texts)) if t not in self.STOPWORDS
        ]

    @given(st.lists(st.tuples(ATTRIBUTE_TEXT, ATTRIBUTE_TEXT, ATTRIBUTE_TEXT), min_size=2, max_size=6))
    def test_multi_attribute_index_is_the_joined_texts_index(self, docs):
        def built(corpus, selection):
            try:
                index = build_index(corpus, selection, self.STOPWORDS)
            except ConfigurationError:
                return None
            # the weights fix each term's df: a count times ln(n_docs / df)
            vectors = [(i, {t: w.hex() for t, w in v.entries.items()}) for i, v in index.vectors.items()]
            return index.vocabulary, vectors

        joined = ContentCorpus({f"d{n}": {"text": f"{a} {b}"} for n, (a, b, _) in enumerate(docs)})
        corpus = ContentCorpus({f"d{n}": {"c": c, "b": b, "a": a} for n, (a, b, c) in enumerate(docs)})
        content = textproc.tokenize_content(corpus, ("a", "b"), self.STOPWORDS)
        # run_experiment's one token pass also covers the attributes of other selections
        wider = textproc.tokenize_content(corpus, ("a", "b", "c"), self.STOPWORDS)
        expected = built(joined, ("text",))
        assert built(corpus, ("a", "b")) == expected
        assert built(content, ("a", "b")) == expected
        assert built(wider, ("a", "b")) == expected
        assert content.shares_a_term(("a", "b")) == (expected is not None)

    def test_tokens_share_one_string_per_term(self):
        corpus = ContentCorpus({"a": {"title": "Red fox", "plot": "red red"}, "b": {"plot": "fox"}})
        content = textproc.tokenize_content(corpus, ("plot", "title"))
        assert content.columns == {"plot": [("red", "red"), ("fox",)], "title": [("red", "fox"), ()]}
        reds = [content.columns["plot"][0][0], content.columns["plot"][0][1], content.columns["title"][0][0]]
        assert all(t is reds[0] for t in reds)
        assert content.columns["title"][0][1] is content.columns["plot"][1][0]

    def test_tokens_made_with_other_stopwords_are_refused(self, toy_corpus):
        content = textproc.tokenize_content(toy_corpus, ("text",), frozenset({"red"}))
        with pytest.raises(ValueError, match="other stopwords"):
            build_index(content, ("text",))


class TestStopwords:
    def test_default_list_has_common_words(self):
        sw = default_stopwords()
        assert {"the", "and", "of"} <= sw

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("foo\nBAR\n\n# not a comment, a term\n")
        sw = load_stopwords(p)
        assert "foo" in sw and "bar" in sw

    def test_a_line_is_a_whole_term_so_a_hash_matches_no_token(self, tmp_path):
        # no line is a comment: a "#" stays in its term, and no token holds
        # a "#" or a space, so "the # article" leaves "the" in the vocabulary
        p = tmp_path / "stop.txt"
        p.write_text("  The # article\n# of\nAND\n", encoding="utf-8")
        sw = load_stopwords(p)
        assert sw == {"the # article", "# of", "and"}
        corpus = ContentCorpus({"a": {"text": "the of and cat"}, "b": {"text": "the of and dog"}})
        assert build_index(corpus, ("text",), sw).vocabulary == ("of", "the")

    def test_invalid_utf8_is_located(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_bytes(b"the\nna\xefve\n")
        with pytest.raises(ParseError, match="not valid UTF-8 at byte offset 6") as exc:
            load_stopwords(p)
        assert exc.value.line == 2


class TestBuildIndex:
    def test_toy_weights(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        assert index.vocabulary == ("blue", "green", "red")
        # each term is in two of the three documents, so its idf is ln(3 / 2)
        red = index.vocabulary.index("red")
        assert index.vectors["d1"].entries[red] == 2 * math.log(3 / 2)
        assert index.vectors["d3"].norm == math.sqrt(2 * math.log(3 / 2) ** 2)
        tokens = {item: tokenize(attributes["text"]) for item, attributes in toy_corpus.documents.items()}
        assert (list(index.vocabulary), as_term_dicts(index)) == oracle_tfidf(tokens)

    def test_single_document_terms_pruned(self):
        corpus = ContentCorpus(
            {
                "a": {"text": "shared unique1"},
                "b": {"text": "shared unique2"},
            }
        )
        index = build_index(corpus, ("text",))
        assert index.vocabulary == ("shared",)

    def test_stopwords_removed_before_df(self):
        corpus = ContentCorpus(
            {
                "a": {"text": "the cat sat"},
                "b": {"text": "the cat ran"},
            }
        )
        index = build_index(corpus, ("text",), stopwords=frozenset({"the"}))
        assert "the" not in index.vocabulary
        assert "cat" in index.vocabulary

    def test_term_in_every_document_gets_zero_weight(self, toy_corpus):
        # a term present in all documents has idf ln(1) = 0 and is not stored
        corpus = ContentCorpus(
            {
                "a": {"text": "common alpha"},
                "b": {"text": "common alpha"},
                "c": {"text": "common beta beta"},
            }
        )
        index = build_index(corpus, ("text",))
        common = index.vocabulary.index("common")
        for item in ("a", "b", "c"):
            assert common not in index.vectors[item].entries

    def test_selection_restricts_attributes(self):
        corpus = ContentCorpus(
            {
                "a": {"title": "alpha beta", "plot": "gamma delta"},
                "b": {"title": "alpha", "plot": "gamma"},
            }
        )
        title_only = build_index(corpus, ("title",))
        assert "gamma" not in title_only.vocabulary
        both = build_index(corpus, ("title", "plot"))
        assert {"alpha", "gamma"} <= set(both.vocabulary)

    def test_bad_selection_reports_every_problem(self):
        corpus = ContentCorpus({"a": {"title": "x y"}})
        with pytest.raises(ConfigurationError, match="nope"):
            build_index(corpus, ("title", "nope"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_index(corpus, ("title", "title"))

    def test_empty_vocabulary_rejected(self):
        corpus = ContentCorpus(
            {
                "a": {"text": "onlyhere"},
                "b": {"text": "onlythere"},
            }
        )
        with pytest.raises(ConfigurationError, match="vocabulary"):
            build_index(corpus, ("text",))

    def test_postings_are_item_and_scaled_weight_pairs_in_index_order(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        for t in range(len(index.vocabulary)):
            assert index.postings(t) == tuple(
                (item_id, vec.entries[t] / vec.norm) for item_id, vec in index.vectors.items() if t in vec.entries
            )
        red = index.vocabulary.index("red")
        d1, d2 = index.vectors["d1"].norm, index.vectors["d2"].norm
        assert index.postings(red) == (("d1", 2 * math.log(3 / 2) / d1), ("d2", math.log(3 / 2) / d2))
        assert index.postings(len(index.vocabulary)) == ()

    def test_index_peak_stays_near_what_the_index_keeps(self):
        # 2,000 documents of 20 words, each drawn from its topic's 30 words
        rng = random.Random(5)
        corpus = ContentCorpus(
            {f"d{d:04d}": {"text": " ".join(f"w{d % 50}x{rng.randrange(30)}" for _ in range(20))} for d in range(2000)}
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            index = build_index(corpus, ("text",))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == 2000
        assert peak - before <= 1.5 * (kept - before)

    def test_empty_item_ids(self):
        corpus = ContentCorpus(
            {
                "a": {"text": "shared words here"},
                "b": {"text": "shared words"},
                "c": {"text": "zz"},
            }
        )
        index = build_index(corpus, ("text",))
        assert index.empty_item_ids == ("c",)


class TestIndexLayout:
    """What an index holds per entry: shared weights, unboxed postings and
    slotted, immutable vectors of two tuples."""

    def test_documents_share_the_weight_of_a_term_and_count(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        blue = index.vocabulary.index("blue")
        # "blue" occurs once in d1 and once in d3
        d1, d3 = index.vectors["d1"].entries[blue], index.vectors["d3"].entries[blue]
        assert d1 == math.log(3 / 2)
        assert d1 is d3
        v1, v3 = index.vectors["d1"], index.vectors["d3"]
        assert v1.weights[v1.terms.index(blue)] is v3.weights[v3.terms.index(blue)]

    def test_vector_stores_a_term_tuple_and_a_weight_tuple(self):
        w = 1.5
        v = SparseVector([1, 3], [0.25, w])
        assert type(v).__slots__ == ("terms", "weights", "norm")
        assert not hasattr(v, "__dict__")
        assert type(v.terms) is tuple and v.terms == (1, 3)
        assert type(v.weights) is tuple and v.weights == (0.25, 1.5)
        assert v.weights[1] is w
        assert v.norm == math.sqrt(0.25 * 0.25 + w * w)

    def test_changing_the_entries_read_changes_nothing(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        vec = index.vectors["d1"]
        layout, norm, ranked = (vec.terms, vec.weights), vec.norm, top_k_similar(index, vec, 3)
        entries = vec.entries
        entries[next(iter(entries))] = 1e6
        entries[index.vocabulary.index("green")] = 1e6  # a term d1 lacks
        assert vec.entries != entries
        assert (vec.terms, vec.weights) == layout
        assert vec.norm == norm
        assert top_k_similar(index, vec, 3) == ranked
        entries.clear()
        assert vec and top_k_similar(index, vec, 3) == ranked

    def test_vector_is_immutable(self):
        v = _vec({1: 2.0})
        for name in ("terms", "weights", "norm", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, ())
        with pytest.raises(AttributeError):
            del v.terms
        assert v.entries == {1: 2.0}

    def test_posting_weights_are_double_arrays(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        assert len(index._postings) == len(index.vocabulary)
        for ids, scaled in index._postings.values():
            assert type(ids) is tuple
            assert type(scaled) is array and scaled.typecode == "d"
            assert len(scaled) == len(ids)


class TestVectors:
    @pytest.mark.parametrize("weight", [0.0, -0.0])
    def test_zero_weight_rejected(self, weight):
        # neither builder makes a zero weight: build_index drops a term in every document
        with pytest.raises(ValueError, match="term index 1 is not positive and finite"):
            SparseVector((0, 1), (1.0, weight))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SparseVector((0,), (-0.5,))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="term index 1 is not positive and finite"):
            SparseVector((0, 1), (1.0, weight))

    @pytest.mark.parametrize("terms", [(2, 0), (1, 1)])
    def test_terms_must_be_strictly_ascending(self, terms):
        with pytest.raises(ValueError, match="strictly ascending"):
            SparseVector(terms, (1.0, 2.0))

    def test_one_weight_per_term(self):
        with pytest.raises(ValueError, match="shorter"):
            SparseVector((0, 1), (1.0,))

    def test_entries_ascend_by_term_index(self):
        v = _vec({5: 1.0, 0: 2.0, 2: 4.0})
        assert list(v.entries.items()) == [(0, 2.0), (2, 4.0), (5, 1.0)]
        assert len(v) == 3

    # cosine similarity is the score top_k_similar ranks by; an item a
    # ranking omits has similarity zero to the query

    @staticmethod
    def cosine(a, b):
        """The score of vector ``b`` as an indexed item queried by ``a``."""
        n_terms = 1 + max([*a.entries, *b.entries], default=0)
        vocabulary = tuple(f"t{i:02d}" for i in range(n_terms))
        ranked = top_k_similar(DocumentIndex(vocabulary, {"b": b}), a, 1)
        return ranked[0][1] if ranked else 0.0

    def test_cosine_hand_value(self):
        a = _vec({0: 1.0, 1: 1.0})
        b = _vec({0: 1.0})
        assert self.cosine(a, b) == 1 / math.sqrt(2)

    def test_cosine_empty_is_zero(self):
        assert self.cosine(_vec({}), _vec({0: 1.0})) == 0.0
        assert self.cosine(_vec({0: 1.0}), _vec({})) == 0.0

    def test_cosine_disjoint_is_zero(self):
        assert self.cosine(_vec({0: 1.0}), _vec({1: 1.0})) == 0.0

    def test_cosine_symmetric(self):
        a = _vec({0: 0.3, 2: 1.7, 5: 0.2})
        b = _vec({0: 1.1, 2: 0.4, 3: 9.0})
        assert self.cosine(a, b) == self.cosine(b, a)

    def test_cosine_self_is_one(self):
        a = _vec({0: 0.25, 7: 3.5})
        assert math.isclose(self.cosine(a, a), 1.0, rel_tol=1e-12)


class TestTopK:
    @pytest.fixture
    def index(self):
        corpus = ContentCorpus(
            {
                "a2": {"text": "xx yy"},
                "a10": {"text": "xx yy"},
                "b": {"text": "xx zz"},
                "c": {"text": "yy zz"},
            }
        )
        return build_index(corpus, ("text",))

    def test_ties_break_on_ascending_item_id(self, index):
        # a10 and a2 have identical vectors; lexicographic order puts "a10" first
        query = index.vectors["b"]
        ranked = [item for item, _ in top_k_similar(index, query, 4)]
        assert ranked.index("a10") < ranked.index("a2")

    def test_truncates_to_k(self, index):
        assert len(top_k_similar(index, index.vectors["a2"], 2)) == 2

    def test_zero_query_returns_nothing(self, index):
        assert top_k_similar(index, _vec({}), 3) == []

    def test_zero_scores_omitted(self):
        corpus = ContentCorpus(
            {
                "a": {"text": "xx xx yy"},
                "b": {"text": "xx yy"},
                "c": {"text": "ww vv"},
                "d": {"text": "ww vv"},
            }
        )
        index = build_index(corpus, ("text",))
        got = top_k_similar(index, index.vectors["a"], 10)
        assert {item for item, _ in got} == {"a", "b"}

    def test_k_must_be_positive(self, index):
        with pytest.raises(ValueError):
            top_k_similar(index, index.vectors["b"], 0)


def _index(vectors, n_terms=10):
    """An index over the terms t00.. whose items carry the given weights."""
    vocabulary = tuple(f"t{i:02d}" for i in range(n_terms))
    return DocumentIndex(vocabulary, {item: _vec(e) for item, e in vectors.items()})


def _oracle(index, query, k):
    return oracle_top_k(
        as_term_dicts(index), {f"t{i:02d}": w for i, w in query.entries.items()}, k
    )


# a few repeated values force ties
_WEIGHTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.01, 100.0))


@st.composite
def _unsorted(draw, terms):
    pairs = draw(st.lists(st.tuples(terms, _WEIGHTS), max_size=6, unique_by=lambda p: p[0]))
    return dict(draw(st.permutations(pairs)))


@st.composite
def _random_index(draw):
    vectors = draw(st.lists(_unsorted(st.integers(0, 7)), min_size=1, max_size=12))
    # duplicate vectors, under ids that may sort either side of the original
    vectors += [vectors[i] for i in draw(st.lists(st.integers(0, len(vectors) - 1), max_size=4))]
    ids = draw(st.permutations([f"i{n:02d}" for n in range(len(vectors))]))
    return _index(dict(zip(ids, vectors)))


@st.composite
def _long_low_postings(draw):
    """A short posting of items carrying term 0 alone (bound 1), then many
    items carrying terms 1..3 beside a heavy term 9 that no query holds, so
    their postings are long and low: the walk can stop before reading them."""
    n_short = draw(st.integers(1, 4))
    vectors = {f"s{n}": {0: draw(_WEIGHTS)} for n in range(n_short)}
    for n in range(draw(st.integers(5, 30))):
        vectors[f"l{n:02d}"] = {**draw(_unsorted(st.integers(1, 3))), 9: 1000.0}
    return _index(vectors)


class _ReadLog(dict):
    """A postings table that logs the terms whose postings are read."""

    def __init__(self, table):
        super().__init__(table)
        self.read = []

    def __getitem__(self, term_index):
        self.read.append(term_index)
        return super().__getitem__(term_index)


def _logged(vectors):
    index = _index(vectors)
    index._postings = _ReadLog(index._postings)
    return index


# _SCAN_SHARE for each path: "scan" switches after the first term unless the
# walk stops there, "maxscore" never switches
_SHARES = {"scan": 0.0, "maxscore": math.inf, "default": textproc._SCAN_SHARE}


def _top_k(path, index, query, k):
    with mock.patch.object(textproc, "_SCAN_SHARE", _SHARES[path]):
        return top_k_similar(index, query, k)


@pytest.fixture
def maxscore(monkeypatch):
    monkeypatch.setattr(textproc, "_SCAN_SHARE", _SHARES["maxscore"])


class TestTopKAgainstOracle:
    """``top_k_similar`` skips postings or scans every item, so compare it,
    list for list, with the brute-force ranking that scores every item."""

    # items carry t00..t07 only; t08 and t09 have no postings and t10, t11
    # are outside the vocabulary
    @pytest.mark.parametrize("path", _SHARES)
    @given(_random_index(), _unsorted(st.integers(0, 11)), st.integers(1, 20))
    def test_random_index(self, path, index, query, k):
        query = _vec(query)
        got = _top_k(path, index, query, k)
        assert got == _oracle(index, query, k)
        assert got == _top_k("scan", index, query, k) == _top_k("maxscore", index, query, k)

    @pytest.mark.parametrize("path", _SHARES)
    @given(_long_low_postings(), _unsorted(st.integers(1, 3)), _WEIGHTS, st.integers(1, 4))
    def test_long_low_postings(self, path, index, query, w0, k):
        query = _vec({**query, 0: w0})
        got = _top_k(path, index, query, k)
        assert got == _oracle(index, query, k)
        assert got == _top_k("scan", index, query, k) == _top_k("maxscore", index, query, k)

    @pytest.mark.parametrize("path", _SHARES)
    def test_query_terms_outside_the_vocabulary_add_nothing(self, path):
        # the index has terms 0..9; 10, 11 and 64 count in the query's norm
        # but no item carries them
        index = _index({"a": {0: 1.0, 9: 2.0}, "b": {9: 1.0}, "c": {3: 1.0}, "d": {0: 4.0}})
        query = _vec({9: 1.0, 10: 5.0, 11: 2.0, 64: 3.0})
        got = _top_k(path, index, query, 3)
        assert got == _oracle(index, query, 3)
        assert [item for item, _ in got] == ["b", "a"]

    def test_a_query_that_reaches_most_items_switches_to_the_scan(self):
        # t00 (bound 2) reaches a, b and c, 3 of 4 items, and k = 4 partial
        # scores cannot beat t01's bound yet: reading ends there, and the
        # scan still finds d, which only the unread t01 reaches
        vectors = {"a": {0: 1.0}, "b": {0: 1.0}, "c": {0: 1.0}, "d": {1: 1.0}}
        query = _vec({0: 2.0, 1: 1.0})
        for path, read in (("default", [0]), ("maxscore", [0, 1])):
            index = _logged(vectors)
            got = _top_k(path, index, query, 4)
            assert index._postings.read == read, path
            assert got == _oracle(index, query, 4)
            assert [item for item, _ in got] == ["a", "b", "c", "d"]

    def test_an_item_query_that_stops_early_keeps_maxscore(self):
        # s0's own vector as the query, as sup asks: t00 reaches 2 of 22
        # items, whose partial scores beat t01's bound, so the walk stops
        # after one term on either path
        vectors = {
            "s0": {0: 2.0, 1: 1.0},
            "s1": {0: 2.0},
            **{f"l{n:02d}": {1: 1.0, 9: 1000.0} for n in range(20)},
        }
        for path in ("default", "maxscore"):
            index = _logged(vectors)
            query = index.vectors["s0"]
            got = _top_k(path, index, query, 2)
            assert index._postings.read == [0], path
            assert got == _oracle(index, query, 2)
            assert [item for item, _ in got] == ["s0", "s1"]

    @pytest.mark.usefixtures("maxscore")
    def test_stop_is_taken_before_a_long_low_posting(self):
        index = _logged({"s0": {0: 1.0}, **{f"l{n:02d}": {1: 1.0, 9: 1000.0} for n in range(20)}})
        query = _vec({0: 1.0, 1: 1.0})
        assert top_k_similar(index, query, 1) == _oracle(index, query, 1)
        assert index._postings.read == [0]

    @pytest.mark.usefixtures("maxscore")
    def test_tie_with_an_item_only_an_unread_term_reaches(self):
        # after t02 and t01, b and c hold the k-th partial score, 1, which
        # equals t00's bound; a, carrying only t00, ties with them and sorts
        # first, so the walk must go on to t00
        index = _logged({"a": {0: 1.0}, "b": {1: 1.0}, "c": {1: 1.0}, "z": {2: 1.0}})
        query = _vec({0: 1.0, 1: 1.0, 2: 2.0})
        got = top_k_similar(index, query, 3)
        assert index._postings.read == [2, 1, 0]
        assert got == _oracle(index, query, 3)
        assert [item for item, _ in got] == ["z", "a", "b"]
        assert got[1][1] == got[2][1]

    @pytest.mark.usefixtures("maxscore")
    def test_tie_with_an_item_whose_bound_rounds_below_the_kth_partial_score(self):
        # after t01 the walk stops (t's 3.6 beats t00's bound); p's partial
        # score plus that bound rounds to 3.5999999999999996, yet p's exact
        # score ties t's and p sorts first
        index = _logged({"p": {0: 420.0, 1: 77.0}, "t": {1: 1.0}})
        query = _vec({0: 3.0, 1: 3.6})
        (_, p), (_, t) = _oracle(index, query, 2)
        assert p == t
        assert top_k_similar(index, query, 1) == _oracle(index, query, 1) == [("p", p)]
        assert index._postings.read == [1]
