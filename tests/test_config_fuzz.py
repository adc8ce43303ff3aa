"""Mutation fuzzer for ``recbench run --config``.

A valid config over a tiny fixture is mutated: a key deleted, a value
swapped for one of another JSON type, a number out of range or not an
integer, selection names that are empty, repeated, unprintable or not ASCII,
and in the raw text a repeated key or a value beyond the JSON parser's
limits. The run happens in process. Either it succeeds (exit 0, and
``read_run_lists`` reads its directory back) or it is refused (exit 1, one
``error: `` line on stderr, and no ``--out`` directory). It never exits 2
and never prints a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recbench import cli
from recbench.harness import read_run_lists
from test_harness import small_fixture

# an attribute whose name is not ASCII, so a selection of it can succeed
UNICODE_ATTRIBUTE = "génre"


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    """A config that runs cf, sup and upa over 12 users and 20 items."""
    tmp = tmp_path_factory.mktemp("fuzz")
    interactions, content = small_fixture(tmp, n_users=12, n_items=20, profile_size=8)
    lines = Path(content).read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line) for line in lines]
    for doc in docs:
        doc["attributes"][UNICODE_ATTRIBUTE] = doc["attributes"]["plot"]
    Path(content).write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    stopwords = tmp / "stopwords.txt"
    stopwords.write_text("t0w1\n", encoding="utf-8")
    return {
        "interactions_path": interactions,
        "interactions_format": "explicit",
        "content_path": content,
        "stopwords_path": str(stopwords),
        "algorithms": {
            "cf": {"neighborhood_size": 5, "similarity_metric": "cosine"},
            "sup": {"votes_per_item": 5},
            "upa": {"profile_term_budget": 5},
        },
        "attribute_selections": ["all", ["title"], ["plot", UNICODE_ATTRIBUTE]],
        "k_values": [2, 5],
        "fold_count": 3,
        "given_n": 3,
        "min_train_items": 3,
        "rng_seed": 0,
    }


TOP_KEYS = [
    "interactions_path", "interactions_format", "content_path", "stopwords_path", "algorithms",
    "attribute_selections", "k_values", "fold_count", "given_n", "min_train_items", "rng_seed",
]
NUMBER_PATHS = [
    ("algorithms", "cf", "neighborhood_size"),
    ("algorithms", "sup", "votes_per_item"),
    ("algorithms", "upa", "profile_term_budget"),
    ("k_values", 0),
    ("k_values", 1),
    ("fold_count",),
    ("given_n",),
    ("min_train_items",),
    ("rng_seed",),
]
PATHS = [
    *((key,) for key in TOP_KEYS),
    *(("algorithms", name) for name in ("cf", "sup", "upa")),
    ("algorithms", "cf", "similarity_metric"),
    *NUMBER_PATHS,
    ("attribute_selections", 0),
    ("attribute_selections", 1),
    ("attribute_selections", 2, 1),
]

numbers = st.one_of(
    st.integers(-2, 12),
    st.integers(min_value=2**62),  # past any length a sequence can have
    st.floats(),  # json.dumps writes NaN and Infinity, and json.loads reads them
    st.booleans(),
)
json_values = st.recursive(
    st.none() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
names = st.sampled_from(["title", "plot", UNICODE_ATTRIBUTE, "", "ti\ntle", "plot\x00", "all", "plot+title"])
selections = st.lists(st.just("all") | st.lists(names | st.text(max_size=4), max_size=3), max_size=3)
# raw JSON text, some of it beyond what json.loads turns into a Python value
raw_values = st.sampled_from(
    ["1" * 5000, "[" * 100_000 + "]" * 100_000, "3", "-0", "1e999", "NaN", '"\\ud800"', "{}"]
)
edits = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    st.tuples(st.just("set"), st.sampled_from(PATHS), json_values),
    st.tuples(st.just("set"), st.sampled_from(NUMBER_PATHS), numbers),
    st.tuples(st.just("set"), st.just(("attribute_selections",)), selections),
    st.tuples(st.sampled_from(["raw", "repeat"]), st.sampled_from(TOP_KEYS), raw_values),
)


def mutated(config, edits):
    """The JSON text of ``config`` after ``edits``, applied in turn.

    ``("delete", path)`` and ``("set", path, value)`` act on the parsed
    config; an edit whose path an earlier edit removed or retyped is
    skipped. ``("raw", key, text)`` makes ``text`` the value of the top-level
    ``key``, and ``("repeat", key, text)`` adds ``"key": text`` before the
    other keys, so an existing key appears twice.
    """
    config = copy.deepcopy(config)
    raw, repeats = {}, []
    for kind, path, *value in edits:
        if kind == "repeat":
            repeats.append(f"{json.dumps(path)}: {value[0]}")
            continue
        if kind == "raw":
            marker = f"@raw{len(raw)}@"
            raw[marker] = value[0]
            config[path] = marker
            continue
        *parents, last = path
        node = config
        try:
            for key in parents:
                node = node[key]
            if kind == "delete":
                del node[last]
            else:
                node[last] = value[0]
        except (KeyError, IndexError, TypeError):
            continue
    text = json.dumps(config)
    for marker, value in raw.items():
        text = text.replace(json.dumps(marker), value)
    if repeats:
        text = "{" + ", ".join(repeats) + (", " if config else "") + text[1:]
    return text


@settings(max_examples=50, deadline=None)
@given(edits=st.lists(edits, min_size=1, max_size=3))
@example(edits=[("repeat", "fold_count", "3")])
@example(edits=[("raw", "rng_seed", "1" * 5000)])
@example(edits=[("raw", "k_values", "[" * 100_000 + "]" * 100_000)])
@example(edits=[("set", ("attribute_selections",), [["ti\ntle"]])])
# a cutoff beyond sys.maxsize, the largest that islice takes
@example(edits=[("set", ("k_values", 1), 2**64)])
@example(edits=[("set", ("algorithms", "sup", "votes_per_item"), 2**64)])
def test_a_mutated_config_runs_or_is_refused(base_config, edits):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(mutated(base_config, edits), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--config", str(config), "--out", str(out)])
        err = stderr.getvalue()
        assert "Traceback" not in err
        if code == 0:
            read_run_lists(out)
        else:
            assert code == 1, err
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and err.endswith(errors[0] + "\n"), err
            assert not out.exists()
