import math

import pytest

from recbench import (
    ConfigurationError,
    ContentCorpus,
    DocumentIndex,
    ItemDocument,
    ParseError,
    SparseVector,
    Vocabulary,
    build_index,
    default_stopwords,
    load_stopwords,
    tokenize,
    top_k_similar,
)


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


class TestStopwords:
    def test_default_list_has_common_words(self):
        sw = default_stopwords()
        assert {"the", "and", "of"} <= sw

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("foo\nBAR\n\n# not a comment, a term\n")
        sw = load_stopwords(p)
        assert "foo" in sw and "bar" in sw

    def test_invalid_utf8_is_located(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_bytes(b"the\nna\xefve\n")
        with pytest.raises(ParseError, match="not valid UTF-8 at byte offset 6") as exc:
            load_stopwords(p)
        assert exc.value.line == 2


class TestBuildIndex:
    def test_toy_weights(self, toy_corpus):
        index = build_index(toy_corpus, ("text",))
        vocab = index.vocabulary
        assert vocab.terms == ("blue", "green", "red")
        assert vocab.df == {"blue": 2, "green": 2, "red": 2}
        red = vocab.index_of("red")
        assert index.vector("d1").entries[red] == 2 * math.log(3 / 2)
        assert index.norm("d3") == math.sqrt(2 * math.log(3 / 2) ** 2)

    def test_single_document_terms_pruned(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "shared unique1"}),
                ItemDocument("b", {"text": "shared unique2"}),
            ]
        )
        index = build_index(corpus, ("text",))
        assert index.vocabulary.terms == ("shared",)

    def test_stopwords_removed_before_df(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "the cat sat"}),
                ItemDocument("b", {"text": "the cat ran"}),
            ]
        )
        index = build_index(corpus, ("text",), stopwords=frozenset({"the"}))
        assert "the" not in index.vocabulary.terms
        assert "cat" in index.vocabulary.terms

    def test_term_in_every_document_gets_zero_weight(self, toy_corpus):
        # a term present in all documents has idf ln(1) = 0 and is not stored
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "common alpha"}),
                ItemDocument("b", {"text": "common alpha"}),
                ItemDocument("c", {"text": "common beta beta"}),
            ]
        )
        index = build_index(corpus, ("text",))
        common = index.vocabulary.index_of("common")
        for item in ("a", "b", "c"):
            assert common not in index.vector(item).entries

    def test_selection_restricts_attributes(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"title": "alpha beta", "plot": "gamma delta"}),
                ItemDocument("b", {"title": "alpha", "plot": "gamma"}),
            ]
        )
        title_only = build_index(corpus, ("title",))
        assert "gamma" not in title_only.vocabulary.terms
        both = build_index(corpus, ("title", "plot"))
        assert {"alpha", "gamma"} <= set(both.vocabulary.terms)

    def test_bad_selection_reports_every_problem(self):
        corpus = ContentCorpus([ItemDocument("a", {"title": "x y"})])
        with pytest.raises(ConfigurationError, match="nope"):
            build_index(corpus, ("title", "nope"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_index(corpus, ("title", "title"))

    def test_empty_vocabulary_rejected(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "onlyhere"}),
                ItemDocument("b", {"text": "onlythere"}),
            ]
        )
        with pytest.raises(ConfigurationError, match="vocabulary"):
            build_index(corpus, ("text",))

    def test_empty_item_ids(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "shared words here"}),
                ItemDocument("b", {"text": "shared words"}),
                ItemDocument("c", {"text": "zz"}),
            ]
        )
        index = build_index(corpus, ("text",))
        assert index.empty_item_ids == ("c",)


class TestVocabulary:
    @pytest.mark.parametrize("terms", [("bb", "aa"), ("aa", "aa"), ("aa", "cc", "bb")])
    def test_terms_must_be_strictly_ascending(self, terms):
        with pytest.raises(ValueError, match="strictly ascending"):
            Vocabulary(terms=terms, df=dict.fromkeys(terms, 2), n_docs=2)


class TestVectors:
    def test_zero_weights_dropped(self):
        v = SparseVector({0: 0.0, 1: 2.0})
        assert v.entries == {1: 2.0}
        assert len(v) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SparseVector({0: -0.5})

    # cosine similarity is the score top_k_similar ranks by; an item a
    # ranking omits has similarity zero to the query

    @staticmethod
    def cosine(a, b):
        """The score of vector ``b`` as an indexed item queried by ``a``."""
        n_terms = 1 + max([*a.entries, *b.entries], default=0)
        vocab = Vocabulary(
            terms=tuple(f"t{i:02d}" for i in range(n_terms)),
            df={f"t{i:02d}": 2 for i in range(n_terms)},
            n_docs=2,
        )
        ranked = top_k_similar(DocumentIndex(vocab, {"b": b}, ("text",)), a, 1)
        return ranked[0][1] if ranked else 0.0

    def test_cosine_hand_value(self):
        a = SparseVector({0: 1.0, 1: 1.0})
        b = SparseVector({0: 1.0})
        assert self.cosine(a, b) == 1 / math.sqrt(2)

    def test_cosine_empty_is_zero(self):
        assert self.cosine(SparseVector({}), SparseVector({0: 1.0})) == 0.0
        assert self.cosine(SparseVector({0: 1.0}), SparseVector({})) == 0.0

    def test_cosine_disjoint_is_zero(self):
        assert self.cosine(SparseVector({0: 1.0}), SparseVector({1: 1.0})) == 0.0

    def test_cosine_symmetric(self):
        a = SparseVector({0: 0.3, 2: 1.7, 5: 0.2})
        b = SparseVector({0: 1.1, 2: 0.4, 3: 9.0})
        assert self.cosine(a, b) == self.cosine(b, a)

    def test_cosine_self_is_one(self):
        a = SparseVector({0: 0.25, 7: 3.5})
        assert math.isclose(self.cosine(a, a), 1.0, rel_tol=1e-12)


class TestTopK:
    @pytest.fixture
    def index(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a2", {"text": "xx yy"}),
                ItemDocument("a10", {"text": "xx yy"}),
                ItemDocument("b", {"text": "xx zz"}),
                ItemDocument("c", {"text": "yy zz"}),
            ]
        )
        return build_index(corpus, ("text",))

    def test_ties_break_on_ascending_item_id(self, index):
        # a10 and a2 have identical vectors; lexicographic order puts "a10" first
        query = index.vector("b")
        ranked = [item for item, _ in top_k_similar(index, query, 4)]
        assert ranked.index("a10") < ranked.index("a2")

    def test_truncates_to_k(self, index):
        assert len(top_k_similar(index, index.vector("a2"), 2)) == 2

    def test_zero_query_returns_nothing(self, index):
        assert top_k_similar(index, SparseVector({}), 3) == []

    def test_zero_scores_omitted(self):
        corpus = ContentCorpus(
            [
                ItemDocument("a", {"text": "xx xx yy"}),
                ItemDocument("b", {"text": "xx yy"}),
                ItemDocument("c", {"text": "ww vv"}),
                ItemDocument("d", {"text": "ww vv"}),
            ]
        )
        index = build_index(corpus, ("text",))
        got = top_k_similar(index, index.vector("a"), 10)
        assert {item for item, _ in got} == {"a", "b"}

    def test_k_must_be_positive(self, index):
        with pytest.raises(ValueError):
            top_k_similar(index, index.vector("b"), 0)
