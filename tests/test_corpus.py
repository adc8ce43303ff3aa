import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbench import (
    EmptyDatasetError,
    ParseError,
    ProtocolError,
    load_content,
    load_interactions,
    materialize_split,
    plan_splits,
)
from recbench.corpus import DatasetStats, compute_stats

from conftest import dataset


class TestInteractionDataset:
    def test_first_appearance_order(self):
        ds = dataset([("b", "y", 1.0), ("a", "x", 2.0), ("b", "x", 3.0)])
        assert ds.users == ("b", "a")
        assert ds.items == ("y", "x")
        assert ds.n_activities == 3

    def test_profiles_and_inverse(self):
        ds = dataset([("u1", "a", 4.0), ("u1", "b", 2.0), ("u2", "a", 5.0)])
        assert ds.profiles["u1"] == {"a": 4.0, "b": 2.0}
        assert "u2" in ds.profiles and "u3" not in ds.profiles
        with pytest.raises(KeyError):
            ds.profiles["u3"]


class TestLoadInteractions:
    def test_explicit_all_column_shapes(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text(
            "# header comment\n"
            "u1\ta\n"
            "u1\tb\t4\n"
            "\n"
            "u2\ta\t3.5\t987654\n"
        )
        ds = load_interactions(p)
        assert ds.profiles["u1"] == {"a": 1.0, "b": 4.0}
        assert ds.profiles["u2"] == {"a": 3.5}

    def test_implicit_rating_is_constant(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ta\nu1\tb\t123456\n")
        ds = load_interactions(p, format="implicit")
        assert ds.profiles["u1"] == {"a": 1.0, "b": 1.0}

    def test_implicit_rejects_four_columns(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ta\t1\t2\n")
        with pytest.raises(ParseError):
            load_interactions(p, format="implicit")

    def test_duplicate_rows_last_wins(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ta\t2\nu1\ta\t5\n")
        ds = load_interactions(p)
        assert ds.profiles["u1"] == {"a": 5.0}
        assert ds.n_activities == 1

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ta\t3\nu2\tb\tnot-a-number\n")
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert exc.value.line == 2
        assert str(p) in str(exc.value)
        assert ":2:" in str(exc.value)

    def test_single_field_row_rejected(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("loneword\n")
        with pytest.raises(ParseError):
            load_interactions(p)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u\ti\n")
        with pytest.raises(ValueError, match="format"):
            load_interactions(p, format="csv")

    def test_comment_only_file_is_empty(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("# nothing\n\n")
        with pytest.raises(EmptyDatasetError):
            load_interactions(p)

    def test_invalid_utf8_is_located(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_bytes(b"u1\ta\t3\n" + b"x" * 9000 + b"\tb\n\xff\tc\n")
        with pytest.raises(ParseError, match=r"not valid UTF-8 at byte offset 9010") as exc:
            load_interactions(p)
        assert exc.value.line == 3
        assert exc.value.path == str(p)

    def test_bad_byte_after_a_bom_counts_the_bom_bytes(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_bytes(b"\xef\xbb\xbfu1\ta\t3\nu1\tcaf\xe9\n")
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert str(exc.value) == f"{p}:2: not valid UTF-8 at byte offset 16"

    @pytest.mark.parametrize(
        "row, message",
        [
            # each id reads row-user-item-rating
            pytest.param("\ta\t3", "user_id must be a non-empty string", id="\ta\t3--a-3.0"),
            pytest.param("u2\t\t3", "item_id must be a non-empty string", id="u2\t\t3-u2--3.0"),
            pytest.param(
                "u2\ta\t-1", "rating must be finite and non-negative, got -1.0", id="u2\ta\t-1-u2-a--1.0"
            ),
            pytest.param(
                "u2\ta\tnan", "rating must be finite and non-negative, got nan", id="u2\ta\tnan-u2-a-nan"
            ),
            pytest.param(
                "u2\ta\tinf", "rating must be finite and non-negative, got inf", id="u2\ta\tinf-u2-a-inf"
            ),
        ],
    )
    def test_invalid_row_carries_the_interaction_message(self, tmp_path, row, message):
        p = tmp_path / "r.tsv"
        p.write_text(f"u1\ta\t3\n# note\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert exc.value.line == 3
        assert str(exc.value) == f"{p}:3: {message}"

    def test_negative_zero_rating_is_accepted(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ta\t-0\n")
        assert load_interactions(p).profiles["u1"] == {"a": 0.0}

    def test_first_appearance_order_and_last_rating(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("b\ty\na\tx\nb\ty\t5\n")
        ds = load_interactions(p)
        assert ds.users == ("b", "a")
        assert ds.items == ("y", "x")
        assert ds.profiles["b"] == {"y": 5.0}
        assert ds.n_activities == 2

    def test_profiles_key_items_by_the_dataset_item_ids(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\titem1\t4\nu2\titem1\t3\nu2\titem2\t5\nu1\titem2\t1\n")
        ds = load_interactions(p)
        item_ids = {item: item for item in ds.items}
        for user in ds.users:
            for item in ds.profiles[user]:
                assert item is item_ids[item]

    def test_load_peak_stays_near_what_the_dataset_keeps(self, tmp_path):
        # 500 users rating 40 of 600 items: ~20k rows, each of them a distinct pair
        rng = random.Random(5)
        items = [f"item{j:04d}" for j in range(600)]
        rows = [
            f"user{u:04d}\t{i}\t{rng.randint(1, 5)}\t{1_000_000 + u}\n"
            for u in range(500)
            for i in rng.sample(items, 40)
        ]
        p = tmp_path / "r.tsv"
        p.write_text("".join(rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ds = load_interactions(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_activities == 20_000
        assert peak - before <= 2 * (kept - before)


class TestLoadContent:
    def test_round_trip_and_coercion(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"item_id": "m1", "attributes": {"title": "Heat", "year": 1995}}\n'
            '{"item_id": "m2", "attributes": {"title": "Alien"}}\n'
        )
        corpus = load_content(p)
        assert corpus.documents == {"m1": {"title": "Heat", "year": "1995"}, "m2": {"title": "Alien"}}
        assert corpus.attribute_names() == ("title", "year")

    def test_duplicate_item_last_wins(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"item_id": "m1", "attributes": {"title": "old"}}\n'
            '{"item_id": "m1", "attributes": {"title": "new"}}\n'
        )
        corpus = load_content(p)
        assert len(corpus) == 1
        assert corpus.documents == {"m1": {"title": "new"}}

    def test_bad_json_line_is_located(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"item_id": "m1", "attributes": {}}\n{oops\n')
        with pytest.raises(ParseError) as exc:
            load_content(p)
        assert exc.value.line == 2

    def test_non_scalar_attribute_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"item_id": "m1", "attributes": {"cast": ["a", "b"]}}\n')
        with pytest.raises(ParseError):
            load_content(p)

    def test_invalid_utf8_is_located(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b'{"item_id": "m1", "attributes": {}}\n{"item_id": "caf\xc3"}\n')
        with pytest.raises(ParseError, match=r"not valid UTF-8 at byte offset 52") as exc:
            load_content(p)
        assert exc.value.line == 2

    def test_leading_bom_is_not_data(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b'\xef\xbb\xbf{"item_id": "m1", "attributes": {"title": "Heat"}}\n')
        assert load_content(p).documents == {"m1": {"title": "Heat"}}

    @pytest.mark.parametrize(
        "line",
        [
            r'{"item_id": "\ud800x", "attributes": {"title": "a"}}',
            r'{"item_id": "m2", "attributes": {"ti\udc00tle": "a"}}',
            r'{"item_id": "m2", "attributes": {"title": "a \ud83d b"}}',
        ],
        ids=["item-id", "attribute-name", "text"],
    )
    def test_lone_surrogate_escape_is_located(self, tmp_path, line):
        """A lone surrogate cannot be encoded as UTF-8, so it would crash
        the run directory's writer once the item is recommended."""
        p = tmp_path / "c.jsonl"
        # escapes that make whole characters, a surrogate pair included, are fine
        first = r'{"item_id": "m1", "attributes": {"title": "\u00e9 \ud83d\ude00"}}'
        p.write_text(first + "\n" + line + "\n")
        with pytest.raises(ParseError, match="lone surrogate") as exc:
            load_content(p)
        assert exc.value.line == 2
        assert str(p) in str(exc.value)

    def test_integer_beyond_the_digit_limit_is_located(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"item_id": "m1", "attributes": {"year": ' + "9" * 5000 + "}}\n")
        with pytest.raises(ParseError, match="invalid JSON") as exc:
            load_content(p)
        assert exc.value.line == 1


# Arbitrary bytes, and bytes built from the formats' own pieces so that many
# inputs get past the first row.
def _fuzz(pieces):
    return st.binary(max_size=64) | st.lists(st.sampled_from(pieces), max_size=24).map(b"".join)


INTERACTION_PIECES = [
    b"u1", b"i2", b"\t", b"\n", b"\r", b"#", b" ", b"4.5", b"-1", b"nan", b"inf", b"12",
    b"x", b"\xff", b"\xc3", b"\xc3\xa9", b"\x00",
]
CONTENT_PIECES = [
    b'{"item_id": "m1", "attributes": {"title": "Heat"}}', b'{"item_id": ""}', b"{", b"}",
    b"[", b"]", b'"', b":", b",", b"\n", b'"item_id"', b'"attributes"', b"1", b"1e999",
    b"null", b"true", b"\\u", b"\xff", b"\xc3\xa9", b" ",
]


@given(_fuzz(INTERACTION_PIECES), st.sampled_from(["explicit", "implicit"]))
def test_any_interactions_bytes_parse_or_raise_located_errors(tmp_path_factory, data, format):
    p = tmp_path_factory.mktemp("fuzz") / "r.tsv"
    p.write_bytes(data)
    try:
        load_interactions(p, format=format)
    except ParseError as exc:
        assert exc.path == str(p)
    except EmptyDatasetError:
        pass


@given(_fuzz(CONTENT_PIECES))
def test_any_content_bytes_parse_or_raise_located_errors(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    p.write_bytes(data)
    try:
        load_content(p)
    except ParseError as exc:
        assert exc.path == str(p)
    except EmptyDatasetError:
        pass


class TestStats:
    def test_known_benchmark_counts(self):
        stats = DatasetStats.from_counts(
            n_users=6038, n_items=3533, n_activities=575279,
            max_items_per_user=1435, min_items_per_user=1,
            max_users_per_item=2853, min_users_per_item=1,
        )
        assert math.isclose(stats.sparsity, 0.9730, abs_tol=1e-4)
        assert math.isclose(stats.avg_items_per_user, 95.2764, abs_tol=1e-3)
        assert math.isclose(stats.items_per_user_ratio, 3533 / 6038, rel_tol=1e-12)

    def test_compute_stats_small(self):
        ds = dataset([("u1", "a", 1.0), ("u1", "b", 1.0), ("u2", "a", 1.0)])
        stats = compute_stats(ds)
        assert stats.n_users == 2 and stats.n_items == 2 and stats.n_activities == 3
        assert stats.avg_items_per_user == 1.5
        assert stats.avg_users_per_item == 1.5
        assert stats.max_items_per_user == 2 and stats.min_items_per_user == 1
        assert stats.sparsity == 1 - 3 / 4

    def test_identities_hold_on_random_datasets(self):
        rng = random.Random(42)
        for _ in range(50):
            n_users = rng.randint(1, 8)
            n_items = rng.randint(1, 8)
            pairs = set()
            for u in range(n_users):
                for i in rng.sample(range(n_items), rng.randint(1, n_items)):
                    pairs.add((f"u{u}", f"i{i}"))
            ds = dataset((u, i, 1.0) for u, i in sorted(pairs))
            s = compute_stats(ds)
            assert math.isclose(s.avg_items_per_user * s.n_users, s.n_activities, rel_tol=1e-12)
            assert math.isclose(s.avg_users_per_item * s.n_items, s.n_activities, rel_tol=1e-12)
            assert math.isclose(
                s.sparsity, 1 - s.n_activities / (s.n_users * s.n_items), rel_tol=1e-12
            )
            assert math.isclose(s.items_per_user_ratio * s.n_users, s.n_items, rel_tol=1e-12)
            assert s.min_items_per_user <= s.avg_items_per_user <= s.max_items_per_user


def _protocol_ds(n_users=12, profile_size=25, n_items=60):
    rng = random.Random(9)
    rows = []
    for u in range(n_users):
        items = rng.sample(range(n_items), profile_size)
        rows.extend((f"u{u:02d}", f"i{i:02d}", float(rng.randint(1, 5))) for i in items)
    return dataset(rows)


class TestSplits:
    def test_eligibility_boundary(self):
        rows = [("big", f"i{j}", 1.0) for j in range(20)]
        rows += [("small", f"i{j}", 1.0) for j in range(19)]
        plan = plan_splits(dataset(rows), fold_count=1, given_n=10, min_train_items=10)
        assert "big" in plan.folds and "small" not in plan.folds

    def test_folds_partition_eligible_users(self):
        ds = _protocol_ds()
        plan = plan_splits(ds, fold_count=4, given_n=10, min_train_items=10, rng_seed=5)
        assigned = sorted(plan.folds)
        assert assigned == sorted(ds.users)
        sizes = [len(plan.users_in_fold(f)) for f in range(4)]
        assert sum(sizes) == 12
        assert max(sizes) - min(sizes) <= 1

    def test_same_seed_same_plan(self):
        ds = _protocol_ds()
        a = plan_splits(ds, fold_count=4, rng_seed=7)
        b = plan_splits(ds, fold_count=4, rng_seed=7)
        assert a == b

    def test_different_seed_different_plan(self):
        ds = _protocol_ds(n_users=30)
        a = plan_splits(ds, fold_count=5, rng_seed=1)
        b = plan_splits(ds, fold_count=5, rng_seed=2)
        assert a.folds != b.folds

    def test_no_eligible_users(self):
        ds = dataset([("u", "i", 1.0)])
        with pytest.raises(ProtocolError):
            plan_splits(ds, fold_count=2)

    def test_fewer_eligible_than_folds(self):
        ds = _protocol_ds(n_users=3)
        with pytest.raises(ProtocolError):
            plan_splits(ds, fold_count=4)

    def test_materialize_partitions_each_test_profile(self):
        ds = _protocol_ds()
        plan = plan_splits(ds, fold_count=3, given_n=10, min_train_items=10, rng_seed=2)
        for fold in range(3):
            split = materialize_split(ds, plan, fold)
            for user in plan.users_in_fold(fold):
                hidden = split.hidden[user]
                train_items = set(split.train.profiles[user])
                full = set(ds.profiles[user])
                assert len(hidden) == 10
                assert hidden <= full
                assert train_items | hidden == full
                assert not train_items & hidden
            # everyone else keeps their complete profile for training
            for user in ds.users:
                if user not in split.hidden:
                    assert split.train.profiles[user] == ds.profiles[user]
            assert split.train.users == ds.users
            assert split.train.items == ds.items

    def test_split_keeps_items_that_lost_all_activities(self):
        # every item has one rater, so each hidden item loses all its activities
        ds = dataset([(u, f"{u}{j}", 1.0) for u in ("a", "b") for j in range(2)])
        plan = plan_splits(ds, fold_count=2, given_n=1, min_train_items=1)
        for fold in range(2):
            split = materialize_split(ds, plan, fold)
            assert split.train.items == ds.items
            for item in frozenset().union(*split.hidden.values()):
                assert not any(item in p for p in split.train.profiles.values())

    def test_profiles_iterate_in_ascending_item_id(self):
        ds = _protocol_ds()  # each profile's rows are in random item order
        plan = plan_splits(ds, fold_count=3, given_n=10, min_train_items=10, rng_seed=2)
        for data in (ds, *(materialize_split(ds, plan, fold).train for fold in range(3))):
            for user in data.users:
                assert list(data.profiles[user]) == sorted(data.profiles[user])

    def test_split_drops_exactly_the_hidden_activities(self):
        ds = _protocol_ds()
        plan = plan_splits(ds, fold_count=3, given_n=10, min_train_items=10, rng_seed=2)
        for fold in range(3):
            train = materialize_split(ds, plan, fold).train
            assert train.n_activities == ds.n_activities - len(plan.users_in_fold(fold)) * plan.given_n

    def test_splits_leave_the_dataset_as_loaded(self):
        """A training set shares the rows it does not change with ``ds``, so
        a split that edited a shared row in place would show here."""
        ds, fresh = _protocol_ds(), _protocol_ds()
        plan = plan_splits(ds, fold_count=3, given_n=10, min_train_items=10, rng_seed=2)
        for fold in range(3):
            materialize_split(ds, plan, fold)
            assert {u: list(p.items()) for u, p in ds.profiles.items()} == {
                u: list(p.items()) for u, p in fresh.profiles.items()
            }
            assert ds.n_activities == fresh.n_activities

    def test_materialize_is_repeatable(self):
        ds = _protocol_ds()
        plan = plan_splits(ds, fold_count=3, rng_seed=2)
        first = materialize_split(ds, plan, 1)
        second = materialize_split(ds, plan, 1)
        assert first.hidden == second.hidden

    @pytest.mark.parametrize(
        "name, value",
        [("fold_count", 2.5), ("fold_count", True), ("fold_count", 0), ("given_n", 2.5),
         ("min_train_items", 2.5), ("given_n", "10")],
    )
    def test_counts_are_positive_integers(self, name, value):
        """The rule a run's config uses: a fractional fold count would plan
        folds that no split can reach, and a fractional given_n would fail
        only when a split samples it."""
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {value!r}")):
            plan_splits(_protocol_ds(), **{name: value})

    def test_fold_out_of_range(self):
        """A fold is an ``int`` in [0, fold_count), not a ``bool``: a fractional
        fold would be an empty split, and ``True`` fold 1."""
        ds = _protocol_ds()
        plan = plan_splits(ds, fold_count=3)
        for fold in (-1, 3, 1.5, True):
            with pytest.raises(ValueError, match=re.escape(f"fold must be an integer in [0, 3), got {fold!r}")):
                materialize_split(ds, plan, fold)
