import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from adaptreg import data
from adaptreg.data import (
    InteractionLog, Ragged, SplitDataset, _build_split, chronological_split, filter_min_count,
    frequency_groups, group_by, group_reduce, load_interactions, load_manifest, sample_triplets,
    save_id_map, save_manifest,
)
from adaptreg.errors import (
    EmptyCorpusError, ParseError, SaturatedSamplerError, ShapeMismatchError,
)

from _synth import write_plain_log
from conftest import toy_log


def write_lines(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return str(path)


class TestLoadInteractions:
    def test_dedup_keeps_earliest(self, tmp_path):
        p = write_lines(tmp_path / "raw.csv", ["a,x,1", "a,x,5", "b,y,2"])
        log = load_interactions(p)
        assert log.num_users == 2
        assert log.num_items == 2
        assert len(log) == 2
        # (a, x) keeps timestamp 1
        assert log.times[0] == 1

    def test_empty_file(self, tmp_path):
        p = write_lines(tmp_path / "raw.csv", [])
        with pytest.raises(EmptyCorpusError):
            load_interactions(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = write_lines(tmp_path / "raw.csv", ["a,x,1", "broken-row", "b,y,2"])
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert exc.value.line_no == 2

    def test_header_and_delimiter(self, tmp_path):
        p = write_lines(tmp_path / "raw.tsv", ["user\titem\tts", "a\tx\t3"])
        log = load_interactions(p, delimiter="\t", has_header=True)
        assert len(log) == 1
        assert log.user_tokens == ["a"]

    def test_infinite_time_names_line(self, tmp_path):
        p = write_lines(tmp_path / "raw.csv", ["a,x,1", "b,y,inf"])
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text", ["nan", "1e19", "-9223372036854775809",
                                      "9223372036854775808", "12x"])
    def test_bad_time_names_line(self, tmp_path, text):
        p = write_lines(tmp_path / "raw.csv", ["a,x,1", f"b,y,{text}"])
        with pytest.raises(ParseError) as exc:
            load_interactions(p)
        assert exc.value.line_no == 2

    def test_integer_times_exact_beyond_float(self, tmp_path):
        # through a float, ...993 reads as ...992 and ties with it, and the
        # nanosecond stamp loses its last digits
        p = write_lines(tmp_path / "raw.csv", [
            "a,x,9007199254740993", "a,y,9007199254740992", "b,x,1700000000123456789",
            "b,y, 1e9", "c,x,12.0", "c,y,-9223372036854775808"])
        log = load_interactions(p)
        assert log.times.tolist() == [9007199254740993, 9007199254740992,
                                      1700000000123456789, 10**9, 12, -2**63]

    def test_multi_character_delimiter(self, tmp_path):
        p = write_lines(tmp_path / "ratings.dat",
                        ["1::10::5::978300760", "1::10::3::978300700", "2::11::4::5"])
        log = load_interactions(p, delimiter="::", time_col=3)
        assert log.user_tokens == ["1", "2"] and log.item_tokens == ["10", "11"]
        assert log.times.tolist() == [978300700, 5]

    def test_dense_ids(self, tmp_path):
        p = write_lines(tmp_path / "raw.csv", ["u9,i7,1", "u2,i7,2", "u9,i1,3"])
        log = load_interactions(p)
        assert set(log.users) == {0, 1}
        assert set(log.items) == {0, 1}


class TestFilterMinCount:
    def test_noop_threshold(self):
        log = toy_log([(0, 0, 1), (0, 1, 2), (1, 0, 3)])
        out = filter_min_count(log, 0, 0)
        assert len(out) == 3
        assert out.num_users == 2

    def test_cascading_removal(self):
        # user 0 has 3 events, user 1 has 1; item 3 is touched only by user 1
        log = toy_log([(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 3, 4)])
        out = filter_min_count(log, 2, 0)
        assert out.num_users == 1
        assert out.num_items == 3  # item 3 dropped with its only user
        assert len(out) == 3

    def test_fixed_point_cascade(self):
        # dropping item 0 (1 event) starves user 2; users 0/1 survive intact
        log = toy_log([(0, 1, 1), (0, 2, 2), (1, 1, 3), (1, 2, 4), (2, 0, 5)])
        out = filter_min_count(log, 2, 2)
        assert out.num_users == 2
        assert out.num_items == 2
        assert len(out) == 4

    def test_remove_everything(self):
        log = toy_log([(0, 0, 1)])
        with pytest.raises(EmptyCorpusError):
            filter_min_count(log, 5, 5)


class TestChronologicalSplit:
    @pytest.mark.parametrize("n,expected", [
        (10, (6, 2, 2)),
        (5, (3, 1, 1)),
        (21, (13, 5, 3)),
    ])
    def test_rounding(self, n, expected):
        events = [(0, i, i) for i in range(n)]
        split = chronological_split(toy_log(events, num_items=n))
        assert (len(split.train[0]), len(split.val[0]), len(split.test[0])) == expected

    @pytest.mark.parametrize("ratios", [(0.5, 0.5, 0.0), (0.6, 0.2, 0.3), (0.5, 0.5),
                                        (0.4, 0.2, 0.2, 0.2)])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="ratios"):
            chronological_split(toy_log([(0, 0, 1), (0, 1, 2)]), ratios)

    def test_chronology_and_disjointness(self):
        rng = np.random.default_rng(3)
        events = []
        for u in range(12):
            n = int(rng.integers(1, 25))
            for _ in range(n):
                events.append((u, int(rng.integers(0, 40)), int(rng.integers(0, 1000))))
        log = toy_log(events, num_items=40)
        # dedup (u, i): keep earliest, mirroring ingestion
        seen = {}
        for u, i, t in events:
            if (u, i) not in seen or t < seen[(u, i)]:
                seen[(u, i)] = t
        log = toy_log([(u, i, t) for (u, i), t in seen.items()], num_items=40)
        split = chronological_split(log)
        for u in range(12):
            tr, va, te = set(split.train[u]), set(split.val[u]), set(split.test[u])
            assert not (tr & va) and not (tr & te) and not (va & te)
            user_events = {i for (uu, i) in seen if uu == u}
            assert tr | va | te == user_events
            if len(split.train_times[u]) and len(split.val_times[u]):
                assert split.train_times[u].max() <= split.val_times[u].min()
            if len(split.val_times[u]) and len(split.test_times[u]):
                assert split.val_times[u].max() <= split.test_times[u].min()

    def test_single_event_user_keeps_train(self):
        log = toy_log([(0, 0, 1), (1, 0, 1), (1, 1, 2), (1, 2, 3)], num_items=3)
        split = chronological_split(log)
        assert len(split.train[0]) == 1
        assert 0 in split.degenerate_users

    def test_every_array_is_read_only(self, small_split):
        for f in dataclasses.fields(SplitDataset):
            value = getattr(small_split, f.name)
            arrays = (value.flat, value.offsets) if isinstance(value, Ragged) else (value,)
            for a in arrays:
                if isinstance(a, np.ndarray):
                    assert not a.flags.writeable, f.name
        with pytest.raises(ValueError):
            small_split.train[0][0] = 1
        with pytest.raises(ValueError):
            small_split.train_keys[0] = 1

    def test_frequency_tables(self):
        log = toy_log([(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 0, 4)][:3], num_items=3)
        split = chronological_split(log)
        assert split.user_frequency[0] == len(split.train[0])
        assert split.item_frequency.sum() == sum(len(t) for t in split.train)


class TestSplitWorkingSet:
    """The memory of ``chronological_split``, pinned without a clock, in
    units of 8 bytes per event on numpy-generated logs of 40k and 400k
    events. The split keeps each partition's items and times once, the train
    and validation keys and each event's user: 4.07 and 3.83 units kept,
    with build peaks of 5.24 and 4.71. A split that also keeps per-user
    sorted copies of the train and train+validation items, and keys merged
    over both partitions, keeps 6.20 and 5.89 units and peaks at 10.51 and
    9.85, so the bounds sit between the two."""

    @pytest.mark.parametrize("users,items,events", [(2_000, 1_000, 20), (10_000, 4_000, 40)],
                             ids=["40k", "400k"])
    def test_kept_and_peak_per_event(self, users, items, events):
        rng = np.random.default_rng(0)
        n = users * events
        log = InteractionLog(users=rng.integers(0, users, n), items=rng.integers(0, items, n),
                             times=rng.integers(0, 10**6, n), num_users=users,
                             num_items=items)
        chronological_split(log)
        tracemalloc.start()
        try:
            split = chronological_split(log)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split.num_train_events > n / 2
        assert kept < 5 * 8 * n
        assert peak < 8 * 8 * n


class TestIngestWorkingSet:
    """The memory of ``load_interactions`` on plain files, pinned without a
    clock: the tracemalloc peak per input byte on ``write_plain_log`` files
    (4,000 users, 3,000 items, 2% repeated pairs) of 19k and 190k rows,
    0.37 and 3.7 MB. It may not exceed the row reader's on the same file.
    The row reader peaks at 5.09 and 3.34 bytes per input byte (6.86 and
    4.85 before the dedupe tail both readers share stopped holding the id
    columns through its sort). The plain reader, in blocks of an eighth of
    the file, peaks at 4.36 and 2.97; one that takes the whole file as one
    block peaks at 9.27 and 6.09 and fails here."""

    @pytest.mark.parametrize("rows", [19_000, 190_000], ids=["0.37MB", "3.7MB"])
    def test_peak_per_input_byte(self, tmp_path, monkeypatch, rows):
        path = write_plain_log(tmp_path / "raw.csv", rows)
        load_interactions(path)

        def peak():
            tracemalloc.start()
            try:
                load_interactions(path)
                return tracemalloc.get_traced_memory()[1] / path.stat().st_size
            finally:
                tracemalloc.stop()

        plain = peak()
        monkeypatch.setattr(data, "_plain_columns", lambda *args: None)
        assert plain <= peak()


class TestRagged:
    def ragged(self):
        return Ragged(np.arange(7) * 10, np.array([0, 2, 2, 7]))

    def test_rows_are_slices_of_flat(self):
        r = self.ragged()
        assert len(r) == 3
        assert [row.tolist() for row in r] == [[0, 10], [], [20, 30, 40, 50, 60]]
        assert r[-1].tolist() == r[2].tolist() and r[-3].tolist() == r[0].tolist()
        assert r[np.int64(0)].tolist() == [0, 10]

    @pytest.mark.parametrize("n", [3, -4, 100])
    def test_index_past_either_end(self, n):
        with pytest.raises(IndexError):
            self.ragged()[n]

    def test_iteration_equals_indexing(self, small_split):
        r = small_split.train
        rows = list(r)
        assert len(rows) == len(r) == small_split.num_users
        for u, row in enumerate(rows):
            assert row.dtype == r[u].dtype and row.tobytes() == r[u].tobytes()

    def test_every_row_is_a_view_of_flat(self, small_split):
        for f in dataclasses.fields(SplitDataset):
            r = getattr(small_split, f.name)
            if isinstance(r, Ragged):
                assert r.offsets[0] == 0 and r.offsets[-1] == len(r.flat), f.name
                assert all(np.shares_memory(row, r.flat) for row in r if len(row)), f.name

    def test_no_rows(self):
        r = Ragged(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
        assert len(r) == 0 and list(r) == []
        with pytest.raises(IndexError):
            r[0]


class TestSampling:
    def test_forced_train_triplet(self):
        # 1 user, items {0,1}, train={0} -> always (0, 0, 1)
        log = toy_log([(0, 0, 1), (0, 1, 2), (0, 1, 3)][:1], num_items=2)
        split = chronological_split(log)
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = sample_triplets(split, rng, 4, "train")
            assert (b.users == 0).all() and (b.pos == 0).all() and (b.neg == 1).all()

    def test_forced_validation_triplet(self):
        # train={0}, val={1}, items {0,1,2} -> only eligible negative is 2
        z = np.empty(0, dtype=np.int64)
        split = _build_split(
            1, 3,
            [np.array([0])], [np.array([1])], [z],
            [np.array([1])], [np.array([2])], [z],
            degenerate=[0])
        assert list(split.val[0]) == [1]
        rng = np.random.default_rng(0)
        b = sample_triplets(split, rng, 8, "validation")
        assert (b.users == 0).all() and (b.pos == 1).all() and (b.neg == 2).all()

    def test_membership_constraints(self, small_split):
        rng = np.random.default_rng(1)
        for partition in ("train", "validation"):
            b = sample_triplets(small_split, rng, 5000, partition)
            for u, i, j in zip(b.users, b.pos, b.neg):
                if partition == "train":
                    assert i in small_split.train[u]
                    assert j not in small_split.train[u]
                else:
                    assert i in small_split.val[u]
                    assert j not in small_split.train[u] and j not in small_split.val[u]

    def test_seeded_determinism(self, small_split):
        a = sample_triplets(small_split, np.random.default_rng(42), 100, "train")
        b = sample_triplets(small_split, np.random.default_rng(42), 100, "train")
        assert (a.users == b.users).all()
        assert (a.pos == b.pos).all()
        assert (a.neg == b.neg).all()

    def test_negative_distribution_uniform(self):
        # single user with 2 train items out of 10: negatives uniform over the 8
        log = toy_log([(0, 0, 1), (0, 1, 2), (0, 2, 3)], num_items=10)
        split = chronological_split(log)
        eligible = sorted(set(range(10)) - set(split.train[0]))
        rng = np.random.default_rng(5)
        b = sample_triplets(split, rng, 100_000, "train")
        counts = np.bincount(b.neg, minlength=10)[eligible]
        _, p = stats.chisquare(counts)
        assert p > 1e-3

    @staticmethod
    def train_only_split(num_items, train):
        """A split whose users have only the given train items."""
        z = [np.empty(0, dtype=np.int64)] * len(train)
        train = [np.asarray(t, dtype=np.int64) for t in train]
        return _build_split(len(train), num_items, train, z, z, train, z, z,
                            degenerate=list(range(len(train))))

    def test_enumeration_fallback_finds_the_one_negative(self):
        # 1999 of 2000 items excluded: rejection nearly always gives up after
        # MAX_REJECTION_ROUNDS and the eligible item is enumerated
        split = self.train_only_split(2000, [np.delete(np.arange(2000), 7)])
        b = sample_triplets(split, np.random.default_rng(0), 64, "train")
        assert (b.neg == 7).all()

    def test_saturated_user_events_are_resampled(self):
        # user 0 has every item; its events are swapped for user 1's
        split = self.train_only_split(3, [[0, 1, 2], [0]])
        b = sample_triplets(split, np.random.default_rng(0), 64, "train")
        assert (b.users == 1).all() and (b.pos == 0).all()
        assert set(b.neg.tolist()) == {1, 2}

    def test_every_user_saturated(self):
        split = self.train_only_split(2, [[0, 1], [1, 0]])
        with pytest.raises(SaturatedSamplerError):
            sample_triplets(split, np.random.default_rng(0), 4, "train")

    def test_empty_partition(self):
        log = toy_log([(0, 0, 1)], num_items=2)
        split = chronological_split(log)
        with pytest.raises(EmptyCorpusError):
            sample_triplets(split, np.random.default_rng(0), 1, "validation")

    def test_unknown_partition(self, small_split):
        with pytest.raises(ValueError, match="unknown partition"):
            sample_triplets(small_split, np.random.default_rng(0), 1, "test")


class TestFrequencyGroups:
    def test_boundary_rule(self):
        groups = frequency_groups([10, 15, 45, 100], [15, 30, 60])
        assert list(groups) == [0, 1, 2, 3]

    def test_below_first_boundary(self):
        assert frequency_groups([14], [15, 30, 60])[0] == 0

    def test_no_boundaries_single_bucket(self):
        assert (frequency_groups([0, 7, 999], []) == 0).all()

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            frequency_groups([1], [30, 15])


class TestGroupReduce:
    def test_groups_in_label_order_values_in_input_order(self):
        labels = np.array([3, 1, 3, 0, 1, 3])
        ids, order, starts, counts = group_by(labels)
        assert ids.tolist() == [0, 1, 3]
        assert order.tolist() == [3, 1, 4, 0, 2, 5]
        assert starts.tolist() == [0, 1, 3] and counts.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("reduce", [np.mean, np.var])
    def test_bit_equal_to_one_group_at_a_time(self, reduce):
        # group sizes 1 to 3000, past the lengths where numpy's pairwise
        # summation changes form; two groups of each size below 40
        rng = np.random.default_rng(0)
        sizes = np.concatenate([np.arange(1, 40), [127, 128, 129, 3000], np.arange(1, 40)])
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        values = rng.normal(0, 1, len(labels)) ** 3
        ids, order, starts, counts = group_by(labels)
        got = group_reduce(values[order], starts, counts, reduce)
        want = np.array([reduce(values[labels == g]) for g in ids])
        assert got.tobytes() == want.tobytes()

    def test_no_groups(self):
        ids, order, starts, counts = group_by(np.empty(0, dtype=np.int64))
        assert len(ids) == len(order) == 0
        assert group_reduce(np.empty(0), starts, counts).shape == (0,)

    @pytest.mark.parametrize("low, high, key", [
        (0, 256, np.uint8), (0, 65_536, np.uint16), (0, 70_000, np.uint32),
        (-3, 200, np.int16), (-(2**62), 2**62, np.float64)])
    def test_narrow_keys_keep_the_int64_stable_order(self, low, high, key):
        # the labels' range needs ``key`` (no integer type at all for the
        # last, whose top labels a float would tie); many repeats of each
        # label test the stability, and both ends of the range are present
        labels = np.random.default_rng(3).integers(low, high, 5_000)
        labels[:4] = low, high - 1, high - 2, high - 1
        assert np.result_type(np.min_scalar_type(labels.min()),
                              np.min_scalar_type(labels.max())) == key
        for dtype in (np.int64,) if high > 2**31 else (np.int64, np.int32):
            ids, order, starts, counts = group_by(labels.astype(dtype))
            assert order.dtype == np.int64
            assert order.tobytes() == np.argsort(labels, kind="stable").tobytes()
            assert ids.dtype == dtype
            assert ids.tolist() == np.unique(labels).tolist()
            assert counts.tolist() == np.unique(labels, return_counts=True)[1].tolist()
            assert starts.tolist() == (np.cumsum(counts) - counts).tolist()

    def test_empty_labels_keep_their_dtype(self):
        for dtype in (np.int64, np.uint8, np.float64):
            ids, order, starts, counts = group_by(np.empty(0, dtype=dtype))
            assert ids.dtype == dtype and order.dtype == np.int64
            assert len(ids) == len(order) == len(starts) == len(counts) == 0


class TestPersistence:
    def test_manifest_round_trip(self, tmp_path, small_split):
        path = tmp_path / "manifest.csv"
        save_manifest(path, small_split)
        loaded = load_manifest(path)
        assert loaded.num_users == small_split.num_users
        assert loaded.num_items == small_split.num_items
        for u in range(small_split.num_users):
            assert (loaded.train[u] == small_split.train[u]).all()
            assert (loaded.val[u] == small_split.val[u]).all()
            assert (loaded.test[u] == small_split.test[u]).all()
        assert (loaded.train_keys == small_split.train_keys).all()
        assert (loaded.item_frequency == small_split.item_frequency).all()

    def test_manifest_round_trip_with_empty_partitions(self, tmp_path):
        # users 0 and 2 have no rows; user 1 has only train, user 4 no
        # validation, user 3 every partition
        a = lambda *x: np.asarray(x, dtype=np.int64)
        train = [a(), a(3, 1), a(), a(0), a(2)]
        val = [a(), a(), a(), a(4, 2), a()]
        test = [a(), a(), a(), a(5), a(0, 4)]
        times = [[t * 10 + np.arange(len(t), dtype=np.int64) for t in part]
                 for part in (train, val, test)]
        split = _build_split(5, 6, train, val, test, *times, degenerate=[0, 1, 2, 4])
        path = tmp_path / "manifest.csv"
        save_manifest(path, split)
        loaded = load_manifest(path)
        for f in dataclasses.fields(SplitDataset):
            want, got = getattr(split, f.name), getattr(loaded, f.name)
            if isinstance(want, Ragged):
                assert [r.tobytes() for r in got] == [r.tobytes() for r in want], f.name
                assert got.flat.tobytes() == want.flat.tobytes(), f.name
            elif isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name

    @pytest.mark.parametrize("case", ["one-user-without-times", "one-time-short"])
    def test_manifest_of_items_without_times_is_refused(self, tmp_path, case):
        # a split built only to be scored has no times; writing it would
        # leave a manifest without its rows
        a = lambda *x: np.asarray(x, dtype=np.int64)
        if case == "one-user-without-times":
            parts = [a(0, 1, 2, 3)], [a(4)], [a(5)]
            times, where = ([a()], [a()], [a()]), "train partition of user 0"
        else:
            parts = [a(0), a(1), a(2)], [a(3), a(4), a(5, 6)], [a(7), a(8), a(9)]
            times = [[10 * x for x in p] for p in parts]
            times[1][2] = a(50)
            where = "validation partition of user 2"
        split = _build_split(len(parts[0]), 10, *parts, *times, degenerate=[])
        path = tmp_path / "manifest.csv"
        with pytest.raises(ShapeMismatchError, match=where):
            save_manifest(path, split)
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        ["0,train,0,1", "0,train,1,2", "0,test,0,3"],        # test item also a train item
        ["0,train,1,1", "0,validation,2,2", "0,validation,2,3"],
        ["0,train,1,1", "0,validation,2,2", "0,bogus,3,3"],
        ["0,train,1,1", "0,validation,2,2", "0,test,-1,3"],
        ["0,train,1,1", "0,validation,2,2", "-1,test,3,3"],
    ], ids=["across_partitions", "same_partition", "unknown_partition",
            "negative_item", "negative_user"])
    def test_bad_manifest_row_rejected(self, tmp_path, rows):
        path = write_lines(tmp_path / "manifest.csv", ["user,partition,item,timestamp"] + rows)
        with pytest.raises(ParseError) as exc:
            load_manifest(path)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("lines", [[], ["user,partition,item,timestamp"]],
                             ids=["empty", "header-only"])
    def test_manifest_without_rows_rejected(self, tmp_path, lines):
        with pytest.raises(EmptyCorpusError):
            load_manifest(write_lines(tmp_path / "manifest.csv", lines))

    def test_id_map_round_trip(self, tmp_path):
        path = tmp_path / "idmap.csv"
        save_id_map(path, ["alpha", "be,ta", "gamma"])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["alpha", "0"], ["be,ta", "1"], ["gamma", "2"]]

    def test_ingest_reproducible(self, tmp_path):
        lines = ["a,x,5", "a,y,1", "b,x,3", "a,z,9", "b,z,2", "b,y,8"]
        p1 = tmp_path / "r1.csv"
        p1.write_text("\n".join(lines) + "\n")
        log1 = load_interactions(p1)
        log2 = load_interactions(p1)
        s1 = chronological_split(log1)
        s2 = chronological_split(log2)
        assert (s1.train_keys == s2.train_keys).all()
        for u in range(s1.num_users):
            assert (s1.train[u] == s2.train[u]).all()
