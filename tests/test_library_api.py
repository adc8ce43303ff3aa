"""The library API that README's "Library use" documents is what the package exports,
and its entry points check their counts by the config's rule."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recbench
from recbench import (
    UserProfile,
    build_index,
    evaluate,
    fit_cf,
    fit_sup,
    fit_upa,
    hit_intersection,
    jaccard_list_similarity,
    recommend_cf,
    recommend_sup,
    recommend_upa,
)
from recbench import errors
from recbench.corpus import ContentCorpus
from recbench.metrics import average_precision_at_k
from recbench.recommenders import RecommendationList
from recbench.textproc import top_k_similar

from conftest import dataset

ROOT = Path(__file__).resolve().parents[1]


def _section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _documented():
    """The names of the list that follows the paragraph "The package root exports ..."."""
    listing = _section().split("\nThe package root exports ", 1)[1].split("\n\n", 2)[1]
    assert listing.startswith("- ")
    return set(re.findall(r"`(\w+)`", listing))


def _error_classes():
    return {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}


def test_documented_names_are_exported():
    # both ways: __all__ is README's names plus the error classes
    documented = _documented() | _error_classes()
    exported = set(recbench.__all__)
    assert len(recbench.__all__) == len(exported)
    assert sorted(documented - exported) == []
    assert sorted(exported - documented) == []


def test_error_classes_are_documented():
    assert _error_classes() <= _documented()


def test_the_examples_import_exported_names():
    imported = [
        name.strip()
        for names in re.findall(r"^from recbench import (.+)$", _section(), flags=re.MULTILINE)
        for name in names.split(",")
    ]
    assert imported
    assert [name for name in imported if name not in recbench.__all__] == []


def test_every_exported_name_resolves():
    assert [name for name in recbench.__all__ if not hasattr(recbench, name)] == []


def test_the_algorithms_example_runs_as_written():
    """The snippet after "`ALGORITHMS` is the table" fits and lists through the
    table exactly as ``fit_sup``/``recommend_sup`` do, on a toy index."""
    code = _section().split("\n`ALGORITHMS` is the table", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    words = ("red", "blue", "green", "gold")
    corpus = ContentCorpus({f"i{n}": {"t": f"{words[n % 4]} {words[n % 3]}"} for n in range(1, 9)})
    index = build_index(corpus, ("t",))
    names = {"index": index}
    exec(code, names)
    expected = recommend_sup(fit_sup(index, votes_per_item=20), names["profile"], 10)
    assert names["recs"].item_ids() and names["recs"].entries == expected.entries
    assert names["recs"].target_k == 10


def test_the_benchmark_imports_exported_names():
    # the benchmark's set-up probe and checks import from the package root;
    # a name trimmed from __all__ would fail only inside a benchmark run
    imported = {
        (path.name, alias.name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "recbench" and node.level == 0
        for alias in node.names
    }
    assert {name for _, name in imported} >= {"build_index", "load_content", "tokenize"}
    assert sorted(pair for pair in imported if pair[1] not in recbench.__all__) == []


def _count_entry_points():
    """Each library entry point that takes a count, as (parameter, call with
    that count), on inputs that are valid apart from the count."""
    train = dataset([("u1", "i1", 5), ("u1", "i2", 3), ("u2", "i1", 4), ("u2", "i3", 2)])
    corpus = ContentCorpus({"i1": {"t": "red blue"}, "i2": {"t": "red green"}, "i3": {"t": "blue green"}})
    index = build_index(corpus, ("t",))
    user = UserProfile("u1", train.profiles["u1"])
    lists = {"u1": RecommendationList("u1", (("i3", 1.0),), target_k=5)}
    hidden = {"u1": frozenset({"i3"})}
    return {
        "recommend_cf": ("k", lambda k: recommend_cf(fit_cf(train), user, k)),
        "recommend_sup": ("k", lambda k: recommend_sup(fit_sup(index), user, k)),
        "recommend_upa": ("k", lambda k: recommend_upa(fit_upa(index), user, k)),
        "evaluate": ("k", lambda k: evaluate(lists, hidden, {"i1", "i2", "i3"}, k)),
        "jaccard_list_similarity": ("k", lambda k: jaccard_list_similarity(lists, lists, k)),
        "hit_intersection": ("k", lambda k: hit_intersection(lists, lists, hidden, k)),
        "average_precision_at_k": ("k", lambda k: average_precision_at_k(lists["u1"], hidden["u1"], k)),
        "top_k_similar": ("k", lambda k: top_k_similar(index, index.vectors["i1"], k)),
        "RecommendationList": ("target_k", lambda k: RecommendationList("u1", (), k)),
    }


COUNT_ENTRY_POINTS = _count_entry_points()


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@settings(max_examples=20, deadline=None)
@given(value=st.one_of(st.integers(max_value=0), st.floats(), st.booleans(), st.text(), st.none()))
@example(value=0)
@example(value=2.5)
@example(value=True)
@example(value="5")
def test_every_count_is_checked_by_the_config_rule(entry, value):
    """The rule a run's config uses (an ``int`` of at least 1, not a ``bool``):
    a fractional k would otherwise fail later as a ``TypeError``."""
    name, call = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
        call(value)
