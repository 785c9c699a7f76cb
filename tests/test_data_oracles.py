"""The whole-array split, index build, id remap, membership probe and file
readers against the per-user forms they replaced.

The oracles in ``conftest`` are the earlier data-layer code: a split that
gathers, sorts and cuts each user's events on its own, an index build that
tags each user's events with its id one user at a time, an id remap that
walks the events one by one, a membership probe that searches each key array
in the drawn order of the probes, a raw-log reader that keys a dict by token
pairs and sorts them, and a manifest reader that groups rows in per-user
dicts. The rewrite keeps the same arithmetic, so
every field must match by dtype, shape and bytes, and so must a seeded sampler
batch.
"""

import csv
import dataclasses

import numpy as np
import pytest

from adaptreg import data
from adaptreg.data import (
    InteractionLog, Ragged, SplitDataset, _build_split, _member, _redensify,
    chronological_split, filter_min_count, load_interactions, load_manifest,
    sample_triplets, save_manifest,
)
from adaptreg.errors import ParseError

from _synth import make_log
from conftest import (
    oracle_build_split, oracle_chronological_split, oracle_load_interactions,
    oracle_load_manifest, oracle_member, oracle_redensify, same_bytes, toy_log,
)

each_ratio = pytest.mark.parametrize(
    "ratios", [(0.6, 0.2, 0.2), (0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3)],
    ids=["60-20-20", "80-10-10", "50-25-25", "thirds"])


def assert_same_split(got, want):
    for f in dataclasses.fields(SplitDataset):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert same_bytes(g, w), f.name
        elif f.name == "degenerate_users":
            assert g == w and all(type(u) is int for u in g), f.name
        elif isinstance(w, (list, Ragged)):
            assert isinstance(g, Ragged), f.name
            assert len(g) == len(w), f.name
            if len(w):
                assert same_bytes(g.flat, np.concatenate(list(w))), f"{f.name}.flat"
            for u, (a, b) in enumerate(zip(g, w)):
                assert same_bytes(a, b), f"{f.name}[{u}]"
        else:
            assert g == w, f.name


def log_from_arrays(users, items, times, num_users, num_items):
    return InteractionLog(users=np.asarray(users), items=np.asarray(items),
                          times=np.asarray(times), num_users=num_users,
                          num_items=num_items)


def tied_log(seed, num_users=60, num_items=90, distinct_times=4):
    """Each user's events drawn in a shuffled order over a few timestamps, so
    most events tie with another of the same user."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 40, num_users)
    users = rng.permutation(np.repeat(np.arange(num_users), counts))
    items = rng.integers(0, num_items, len(users))
    times = rng.integers(0, distinct_times, len(users)) * 1000
    return log_from_arrays(users, items, times, num_users, num_items)


@each_ratio
@pytest.mark.parametrize("size,seed", [((30, 40), 0), ((120, 200), 5), ((400, 300), 9)])
def test_split_matches_oracle_on_synthetic_logs(size, seed, ratios):
    log = make_log(num_users=size[0], num_items=size[1], seed=seed,
                   min_events=1, max_events=40)
    assert_same_split(chronological_split(log, ratios),
                      oracle_chronological_split(log, ratios))


@each_ratio
@pytest.mark.parametrize("seed", [1, 2])
def test_split_keeps_input_order_on_timestamp_ties(seed, ratios):
    log = tied_log(seed)
    assert_same_split(chronological_split(log, ratios),
                      oracle_chronological_split(log, ratios))


def test_split_many_ties_in_a_large_log():
    # a global sort of a few thousand keys, most of them tied: an unstable
    # sort reorders ties here even where it keeps small inputs in order
    log = tied_log(3, num_users=300, num_items=500, distinct_times=2)
    assert_same_split(chronological_split(log), oracle_chronological_split(log))


@each_ratio
def test_split_small_users_and_a_user_without_events(ratios):
    # users 0..4 have 1, 2, 3, 5 and 8 events; user 5 and the last user have
    # none; events arrive interleaved across users and out of time order
    events = []
    for u, n in enumerate([1, 2, 3, 5, 8]):
        events += [(u, (7 * u + 3 * k) % 11, 100 - 10 * k) for k in range(n)]
    events.sort(key=lambda e: (e[1], -e[0]))
    log = toy_log(events, num_users=7, num_items=11)
    got, want = chronological_split(log, ratios), oracle_chronological_split(log, ratios)
    assert_same_split(got, want)
    assert {5, 6} <= set(got.degenerate_users)


def test_split_keeps_narrow_dtypes():
    log = tied_log(4)
    log.users = log.users.astype(np.int32)
    log.items = log.items.astype(np.int32)
    log.times = log.times.astype(np.int32)
    assert_same_split(chronological_split(log), oracle_chronological_split(log))


def test_split_of_wide_timestamps():
    # timestamps across the whole int64 range still order per user
    rng = np.random.default_rng(6)
    n = 500
    times = rng.integers(-2**62, 2**62, n)
    times[::7] = times[1::7][: len(times[::7])]
    log = log_from_arrays(rng.integers(0, 30, n), rng.integers(0, 50, n), times, 30, 50)
    assert_same_split(chronological_split(log), oracle_chronological_split(log))


def split_counting_sorts(log, monkeypatch):
    """``chronological_split(log)`` and how often it called
    ``np.argsort`` and ``np.unique``."""
    calls = {"argsort": 0, "unique": 0}

    def spy(name):
        real = getattr(np, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(np, name, spy(name))
        split = chronological_split(log)
    return split, calls


def test_split_keeps_narrow_dtypes_over_the_int32_range(monkeypatch):
    # int32 times from the type's minimum to its maximum: their offsets from
    # the minimum wrap in int32, so the (user, time) key must take them in int64
    log = tied_log(4)
    info = np.iinfo(np.int32)
    times = np.random.default_rng(4).integers(info.min, info.max, len(log), endpoint=True)
    times[:2] = info.min, info.max
    log.users = log.users.astype(np.int32)
    log.items = log.items.astype(np.int32)
    log.times = times.astype(np.int32)
    got, calls = split_counting_sorts(log, monkeypatch)
    assert_same_split(got, oracle_chronological_split(log))
    assert calls == {"argsort": 1, "unique": 0}


@pytest.mark.parametrize("num_users,span,dtype,unique_calls", [
    # 2**63 - 1 = 7 * 1317624576693539401: the largest |U| * span the key takes
    (7, (2**63 - 1) // 7, np.int64, 0),
    (8, 2**60, np.int64, 1),
    (2, 2**62, np.int64, 1),
    # uint64 times do not fit int64, so they are ranked even when narrow
    (3, 10, np.uint64, 1),
], ids=["key-at-bound", "rank-past-bound", "rank-two-users", "rank-uint64"])
def test_split_of_wide_timestamps_at_the_key_bound(num_users, span, dtype, unique_calls,
                                                   monkeypatch):
    rng = np.random.default_rng(num_users)
    n = 400
    t_min = 2**64 - span if dtype is np.uint64 else -2**62
    times = t_min + rng.integers(0, span, n, dtype=np.uint64).astype(object)
    times[:2] = t_min, t_min + span - 1
    times[2::9] = times[3::9][: len(times[2::9])]
    log = log_from_arrays(rng.integers(0, num_users, n), rng.integers(0, 50, n),
                          np.asarray(times.tolist(), dtype=dtype), num_users, 50)
    log.users[:2] = 0, num_users - 1
    got, calls = split_counting_sorts(log, monkeypatch)
    assert_same_split(got, oracle_chronological_split(log))
    assert calls["unique"] == unique_calls


def test_split_with_a_train_ratio_a_hair_above_one():
    # the ratios pass the sum check, yet ceil(r_train * n) exceeds n
    ratios = (1 + 1e-10, 1e-11, 1e-11)
    log = tied_log(2, num_users=20)
    got = chronological_split(log, ratios)
    assert_same_split(got, oracle_chronological_split(log, ratios))
    assert len(got.train.flat) == len(log)


def test_split_of_empty_log():
    z = np.empty(0, dtype=np.int64)
    log = log_from_arrays(z, z, z, 3, 4)
    assert_same_split(chronological_split(log), oracle_chronological_split(log))


def test_split_without_users():
    z = np.empty(0, dtype=np.int64)
    log = log_from_arrays(z, z, z, 0, 4)
    got = chronological_split(log)
    assert_same_split(got, oracle_chronological_split(log))
    assert len(got.train) == 0 and list(got.test) == []
    with pytest.raises(IndexError):
        got.val[0]


def _lists(rng, U, I, dtype=np.int64):
    parts = []
    for _ in range(3):
        sizes = rng.integers(0, 6, U)
        parts.append([rng.permutation(I)[:s].astype(dtype) for s in sizes])
    times = [[np.sort(rng.integers(0, 99, len(a))) for a in p] for p in parts]
    return parts, times


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("U,I", [(1, 3), (8, 12), (50, 20)])
def test_build_split_matches_oracle(U, I, dtype):
    rng = np.random.default_rng(U * 100 + I)
    (train, val, test), (train_t, val_t, test_t) = _lists(rng, U, I, dtype)
    degenerate = [u for u in range(U) if len(val[u]) == 0 or len(test[u]) == 0]
    args = (U, I, train, val, test, train_t, val_t, test_t, degenerate)
    assert_same_split(_build_split(*args), oracle_build_split(*args))


def test_build_split_without_users():
    args = (0, 5, [], [], [], [], [], [], [])
    assert_same_split(_build_split(*args), oracle_build_split(*args))


def test_manifest_round_trip_matches_oracle(tmp_path):
    log = make_log(num_users=80, num_items=120, seed=2, min_events=1, max_events=30)
    split = chronological_split(log)
    path = tmp_path / "manifest.csv"
    save_manifest(path, split)
    loaded = load_manifest(path)
    assert_same_split(loaded, oracle_chronological_split(log))


@pytest.mark.parametrize("tokens", [True, False], ids=["tokens", "no-tokens"])
@pytest.mark.parametrize("seed", [0, 3])
def test_filter_min_count_matches_oracle_remap(monkeypatch, seed, tokens):
    log = make_log(num_users=150, num_items=220, seed=seed, min_events=2, max_events=40)
    if not tokens:
        log.user_tokens, log.item_tokens = [], []
    # shuffle the events so first appearance differs from id order
    perm = np.random.default_rng(seed).permutation(len(log))
    log.users, log.items, log.times = log.users[perm], log.items[perm], log.times[perm]
    got = filter_min_count(log, 4, 3)
    monkeypatch.setattr(data, "_redensify", oracle_redensify)
    want = filter_min_count(log, 4, 3)
    for name in ("users", "items", "times"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    assert got.user_tokens == want.user_tokens
    assert got.item_tokens == want.item_tokens


@pytest.mark.parametrize("tokens", [["a", "b", "c", "d", "e", "f"], []],
                         ids=["tokens", "no-tokens"])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_redensify_matches_oracle(tokens, dtype):
    ids = np.asarray([4, 4, 1, 5, 1, 0, 5, 2], dtype=dtype)
    got, want = _redensify(ids, tokens), oracle_redensify(ids, tokens)
    assert same_bytes(got[0], want[0])
    assert got[1] == want[1]


def _probe_case(kind, rng, keys, I):
    n = 300
    if kind == "hits":
        picked = rng.choice(keys, n)
    elif kind == "misses":
        picked = np.setdiff1d(np.arange(keys.max() + I), keys)
        picked = rng.choice(picked, n)
    else:  # duplicates: a few keys, hits and misses, each drawn many times
        picked = rng.choice(np.concatenate([keys[:3], [keys.max() + 1, 0]]), n)
    return picked // I, picked % I


@pytest.mark.parametrize("kind", ["hits", "misses", "duplicates"])
def test_member_matches_oracle(kind, small_split):
    rng = np.random.default_rng(0)
    I = small_split.num_items
    for key_arrays in ((small_split.train_keys,),
                       (small_split.train_keys, small_split.val_keys)):
        keys = np.sort(np.concatenate(key_arrays))
        u, j = _probe_case(kind, rng, keys, I)
        got, want = _member(key_arrays, u, j, I), oracle_member(key_arrays, u, j, I)
        assert same_bytes(got, want)
        assert got.tolist() == [int(k) in set(keys.tolist()) for k in u * I + j]


def test_member_of_mixed_probes_keeps_probe_order(small_split):
    rng = np.random.default_rng(1)
    keys, I = small_split.train_keys, small_split.num_items
    u = rng.integers(0, small_split.num_users, 2000)
    j = rng.integers(0, I, 2000)
    j[::3] = small_split.train.flat[rng.integers(0, len(keys), len(j[::3]))]
    u[::3] = small_split.train_event_user[rng.integers(0, len(keys), len(u[::3]))]
    got = _member((keys,), u, j, I)
    assert 0 < got.sum() < len(got)
    assert same_bytes(got, oracle_member((keys,), u, j, I))


def test_member_of_empty_keys():
    z = np.empty(0, dtype=np.int64)
    u, j = np.array([0, 1, 2]), np.array([3, 0, 1])
    for key_arrays in ((), (z,), (z, z)):
        assert same_bytes(_member(key_arrays, u, j, 4), oracle_member(key_arrays, u, j, 4))


@pytest.mark.parametrize("partition", ["train", "validation"])
def test_sampler_batches_unchanged(monkeypatch, small_split, partition):
    got = sample_triplets(small_split, np.random.default_rng(3), 4096, partition)
    monkeypatch.setattr(data, "_member", oracle_member)
    want = sample_triplets(small_split, np.random.default_rng(3), 4096, partition)
    for name in ("users", "pos", "neg"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name


def assert_same_log(got, want):
    for name in ("users", "items", "times"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    assert got.user_tokens == want.user_tokens
    assert got.item_tokens == want.item_tokens
    assert all(type(t) is str for t in got.user_tokens + got.item_tokens)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def log_rows_with_repeats(seed, **size):
    """A synthetic log's (user, item, timestamp) token rows with a third of
    the pairs repeated once earlier and once later in time, the rows shuffled
    so that a pair's first row is seldom its earliest."""
    log = make_log(seed=seed, **size)
    rows = [[log.user_tokens[u], log.item_tokens[i], int(t)]
            for u, i, t in zip(log.users, log.items, log.times)]
    rng = np.random.default_rng(seed)
    for n in rng.choice(len(rows), len(rows) // 3, replace=False):
        u, i, t = rows[n]
        rows += [[u, i, t - int(rng.integers(1, 1000))], [u, i, t + int(rng.integers(1, 1000))]]
    return [rows[n] for n in rng.permutation(len(rows))]


@pytest.mark.parametrize("size,seed", [((30, 40), 0), ((150, 220), 4)])
def test_load_interactions_matches_oracle_with_repeated_pairs(tmp_path, size, seed):
    rows = log_rows_with_repeats(seed, num_users=size[0], num_items=size[1],
                                 min_events=1, max_events=40)
    path = write_rows(tmp_path / "raw.csv", rows)
    got, want = load_interactions(path), oracle_load_interactions(path)
    assert len(got) < len(rows)
    assert_same_log(got, want)


def test_load_interactions_matches_oracle_on_header_tabs_blanks_and_float_times(tmp_path):
    # columns out of the default order, padded tokens, blank lines in the
    # middle and at the end, and fractional and exponent timestamps
    lines = ["ts\titem\tuser", "12.7\tx\t a", "", "3e2\ty\tb", "  ", "4.0\tx\tb",
             "11.2\t x\ta", "7\tz \ta", "", ""]
    path = tmp_path / "raw.tsv"
    path.write_text("\n".join(lines))
    kwargs = dict(delimiter="\t", has_header=True, user_col=2, item_col=1, time_col=0)
    got = load_interactions(path, **kwargs)
    assert_same_log(got, oracle_load_interactions(path, **kwargs))
    assert got.user_tokens == ["a", "b"] and got.item_tokens == ["x", "y", "z"]
    assert got.times.tolist() == [11, 300, 4, 7]


@pytest.mark.parametrize("lines", [
    ["a,x,1", "b,y,2", "", "c,z"],
    ["a,x,1", "b,y,two"],
    ["a,x,1", "a,x,", "b,y,2"],
], ids=["short-row", "text-time", "empty-time"])
def test_load_interactions_names_the_oracles_line(tmp_path, lines):
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as got:
        load_interactions(path)
    with pytest.raises(ParseError) as want:
        oracle_load_interactions(path)
    assert got.value.line_no == want.value.line_no
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_multi_character_delimiter_reads_like_a_comma_file(tmp_path, newline):
    rows = log_rows_with_repeats(5, num_users=40, num_items=50, min_events=1,
                                 max_events=20)
    comma = write_rows(tmp_path / "raw.csv", rows)
    wide = tmp_path / "raw.dat"
    wide.write_bytes("".join(f"{u}::{i}::{t}{newline}" for u, i, t in rows).encode())
    assert_same_log(load_interactions(wide, delimiter="::"),
                    oracle_load_interactions(comma))


def test_multi_character_delimiter_names_the_line(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::10::5::978300760\n\n1::11\n")
    with pytest.raises(ParseError) as exc:
        load_interactions(path, delimiter="::", time_col=3)
    assert exc.value.line_no == 3
    # the fields as csv would give them, without the line ending
    assert "malformed row ['1', '11']:" in str(exc.value)


@pytest.mark.parametrize("size,seed,ratios", [
    ((40, 60), 0, (0.6, 0.2, 0.2)), ((120, 90), 6, (0.8, 0.1, 0.1)),
    ((200, 300), 9, (1 / 3, 1 / 3, 1 / 3))])
def test_load_manifest_matches_oracle_on_saved_splits(tmp_path, size, seed, ratios):
    log = make_log(num_users=size[0], num_items=size[1], seed=seed,
                   min_events=1, max_events=40)
    split = chronological_split(log, ratios)
    path = tmp_path / "manifest.csv"
    save_manifest(path, split)
    got = load_manifest(path)
    assert_same_split(got, oracle_load_manifest(path))
    assert_same_split(got, split)


def manifest_rows(seed, num_users=30, num_items=40, gap=()):
    """Rows of a valid manifest: distinct items per user, each row in a
    random partition, users in ``gap`` left out."""
    rng = np.random.default_rng(seed)
    parts = ["train", "validation", "test"]
    rows = []
    for u in range(num_users):
        if u in gap:
            continue
        for it in rng.permutation(num_items)[:rng.integers(1, 12)]:
            rows.append([u, parts[rng.integers(0, 3)], int(it), int(rng.integers(0, 99))])
    return rows


@pytest.mark.parametrize("case", ["user-gap", "interleaved", "shuffled"])
def test_load_manifest_matches_oracle_on_unordered_rows(tmp_path, case):
    # "interleaved" keeps each user's rows together but mixes its partitions;
    # "shuffled" also mixes users; "user-gap" drops users 0, 7 and 8 and so
    # leaves empty users at the front and in the middle
    gap = (0, 7, 8) if case == "user-gap" else ()
    rows = manifest_rows(3, gap=gap)
    if case == "shuffled":
        rows = [rows[n] for n in np.random.default_rng(3).permutation(len(rows))]
    path = write_rows(tmp_path / "manifest.csv", [["user", "partition", "item", "timestamp"]] + rows)
    got = load_manifest(path)
    assert_same_split(got, oracle_load_manifest(path))
    if gap:
        assert set(gap) <= set(got.degenerate_users)
        assert all(len(got.train[u]) == 0 for u in gap)


@pytest.mark.parametrize("bad", [
    "5,train,1", "5,holdout,1,1", "-5,test,1,1", "5,test,-1,1", "{u},test,{i},1",
    "2147483648,test,1,1", "5,test,2147483648,1", "4611686018427387904,test,1,1",
    "5,test,4611686018427387904,1", "5,test,99999999999999999999,1",
    "5,test,1,99999999999999999999", "5,test,1,-9223372036854775809"],
    ids=["short-row", "unknown-partition", "negative-user", "negative-item",
         "repeated-pair", "user-at-2^31", "item-at-2^31", "user-at-2^62", "item-at-2^62",
         "item-past-int64", "time-past-int64", "time-below-int64"])
def test_load_manifest_names_the_oracles_line(tmp_path, bad):
    rows = manifest_rows(4, num_users=4)
    bad = bad.format(u=rows[0][0], i=rows[0][2])  # may repeat the first row's pair
    lines = ["user,partition,item,timestamp"] + [",".join(map(str, r)) for r in rows]
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines[:5] + [bad] + lines[5:]) + "\n")
    with pytest.raises(ParseError) as got:
        load_manifest(path)
    with pytest.raises(ParseError) as want:
        oracle_load_manifest(path)
    assert got.value.line_no == want.value.line_no
    assert str(got.value) == str(want.value)


# The plain reader against the row reader and the oracle: seeded plain files,
# and files one byte away from plain, which the plain reader must decline.

PLAIN = [chr(c) for c in range(0x20, 0x7f) if chr(c) != '"']


def plain_lines(seed, delimiter, has_header):
    """A seeded plain file's lines, its read arguments and the fields of each
    line. Tokens are 0 to 20 printable bytes without the delimiter's, drawn
    from small pools so that pairs repeat; times run from small to 18
    digits, negative too, some with leading zeros; the user, item and time
    columns sit anywhere among up to five, and rows may carry extra fields."""
    rng = np.random.default_rng(seed)
    alphabet = [c for c in PLAIN if c not in delimiter]

    def text(longest=20):
        return "".join(rng.choice(alphabet, rng.integers(0, longest + 1)))

    def token():
        return text().strip()

    def time():
        digits = int(rng.integers(1, 19))
        value = str(int(rng.integers(0, 10 ** digits, dtype=np.uint64)))
        sign = "-" if rng.random() < 0.3 else ""
        return sign + "0" * int(digits < 18 and rng.random() < 0.1) + value

    users = [token() for _ in range(rng.integers(1, 30))]
    items = [token() for _ in range(rng.integers(1, 40))]
    width = int(rng.integers(3, 6))
    cols = [int(c) for c in rng.permutation(width)[:3]]
    rows = []
    for _ in range(rng.integers(1, 200)):
        if rows and rng.random() < 0.2:  # a repeated pair
            u, i = rows[rng.integers(0, len(rows))][1]
        else:
            u, i = users[rng.integers(0, len(users))], items[rng.integers(0, len(items))]
        fields = [text(6) for _ in range(width + int(rng.integers(0, 3)))]
        for c, value in zip(cols, (u, i, time())):
            fields[c] = value
        rows.append((fields, (u, i)))
    lines = [delimiter.join(fields) for fields, _ in rows]
    for at in rng.integers(0, len(lines) + 1, rng.integers(0, 4)):
        lines.insert(at, "")  # blank lines
    fields = [f for f, _ in rows]
    if has_header:
        header = [text(8) for _ in range(rng.integers(1, 6))]
        lines.insert(0, delimiter.join(header))
        fields.insert(0, header)
    kwargs = dict(delimiter=delimiter, has_header=has_header, user_col=cols[0],
                  item_col=cols[1], time_col=cols[2])
    return lines, kwargs, fields


def read_columns(read, path, kwargs):
    cols = (kwargs["user_col"], kwargs["item_col"], kwargs["time_col"])
    return read(path, kwargs["delimiter"], kwargs["has_header"], cols)


@pytest.mark.parametrize("blocks", ["one-block", "61-byte-blocks"])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delimiter", [",", "\t", ";", "::"],
                         ids=["comma", "tab", "semicolon", "colons"])
def test_plain_reader_matches_the_row_reader_and_oracle(tmp_path, monkeypatch, delimiter,
                                                         seed, blocks):
    lines, kwargs, fields = plain_lines(100 * seed + len(delimiter), delimiter, seed >= 3)
    # the seeds take LF and CRLF, each with and without a final newline and
    # with and without a header
    newline = "\r\n" if seed % 2 else "\n"
    path = tmp_path / "raw.txt"
    path.write_bytes((newline.join(lines) + newline * (seed // 2 % 2)).encode())
    if blocks == "61-byte-blocks":  # most lines span two blocks or more
        monkeypatch.setattr(data, "_BLOCK_BYTES", 61)
    plain = read_columns(data._plain_columns, path, kwargs)
    rows = read_columns(data._row_columns, path, kwargs)
    assert plain is not None
    for got, want in zip(plain[:3], rows[:3]):
        assert same_bytes(got, np.asarray(want, dtype=np.int64))
    assert plain[3:] == rows[3:]
    got = load_interactions(path, **kwargs)
    if len(delimiter) > 1:
        # the oracle reads csv: the same fields, comma separated and quoted
        path = write_rows(tmp_path / "twin.csv", fields)
        kwargs["delimiter"] = ","
    assert_same_log(got, oracle_load_interactions(path, **kwargs))


def outcome(read, path):
    """The log ``read`` makes of ``path``, or the error it raises: its type,
    message and line."""
    try:
        return read(path)
    except (ParseError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


PLAIN_LINES = ["u1,i1,5", "u2,i1,7", "u1,i2,3", "u3,i3,9", "u2,i3,-4"]


ONE_BYTE_FROM_PLAIN = {
    "quote": 'u1,i"2,3', "padded-token": "u1, i2,3", "plus-sign": "u1,i2,+5",
    "underscore": "u1,i2,1_000", "float-time": "u1,i2,12.0",
    "19-digit-time": "u1,i2,1234567890123456789", "lone-cr": "u1,i2,3,\ru4,i4,4",
    "non-ascii": "u1,ï2,3", "short-row": "u1,i2",
    "over-field-limit": "u1," + "i" * (csv.field_size_limit() + 1) + ",3",
}


@pytest.mark.parametrize("case", ONE_BYTE_FROM_PLAIN)
def test_one_byte_from_plain_reads_like_the_oracle(tmp_path, case):
    line = ONE_BYTE_FROM_PLAIN[case]
    path = tmp_path / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(PLAIN_LINES[:2] + [line] + PLAIN_LINES[2:]) + "\n")
    if case == "over-field-limit":
        assert len(line) > csv.field_size_limit()
    assert data._plain_columns(path, ",", False, (0, 1, 2)) is None
    got, want = outcome(load_interactions, path), outcome(oracle_load_interactions, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_log(got, want)


def test_plain_reader_takes_a_line_at_the_field_limit(tmp_path):
    path = tmp_path / "raw.csv"
    long = "u9,i9,1," + "x" * (csv.field_size_limit() - 8)
    path.write_text("\n".join(PLAIN_LINES + [long]) + "\n")
    assert len(long) == csv.field_size_limit()
    plain = data._plain_columns(path, ",", False, (0, 1, 2))
    assert plain is not None and plain[3][-1] == "u9"
    assert_same_log(load_interactions(path), oracle_load_interactions(path))


# Every input fault of a raw log or a manifest is a ParseError that names the
# file line its row starts on.

def test_parse_error_names_the_line_a_row_starts_on(tmp_path):
    # the quoted field of row 1 spans lines 1 and 2, so row 2 sits on line 3
    path = tmp_path / "raw.csv"
    path.write_bytes(b'u1,"i\n1",5\nu2,i2,abc\n')
    with pytest.raises(ParseError) as got:
        load_interactions(path)
    assert got.value.line_no == 3 and str(got.value).startswith(f"{path}:3: malformed row")
    assert outcome(oracle_load_interactions, path) == (ParseError, str(got.value), 3)


def test_a_header_spanning_lines_is_skipped(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes(b'"user\nid",item,time\nu1,i1,5\nu2,i1,7\n')
    got = load_interactions(path, has_header=True)
    assert_same_log(got, oracle_load_interactions(path, has_header=True))
    assert got.user_tokens == ["u1", "u2"] and got.times.tolist() == [5, 7]


@pytest.mark.parametrize("content,line_no", [
    (b"u1,i1,5\nu2,i\xff2,7\n", 2),
    (b"u1,i1,5\nu2,i2,6\nu3,i3,7\nu4,i\xff4,8", 4),
    (b"u1,i1,5\nu2,i\xc3", 2),
    # past the first block of text that is decoded at once
    (b"".join(b"u%d,i%d,%d\r\n" % (n, n, n) for n in range(3000)) + b"u,\xe9,1\r\n", 3001),
    # 16-byte lines: a lone \r ends the first 8 KiB the text layer decodes
    (b"".join(b"u%05d,i,%06d\r" % (n, n) for n in range(512)) + b"u,\xe9,1\r", 513),
    # inside a quoted field that spans lines
    (b'u1,i1,5\nu2,"i\n2\n\xff",7\n', 4),
], ids=["line-2", "last-line", "cut-at-end", "far-crlf", "far-lone-cr", "quoted"])
@pytest.mark.parametrize("delimiter", [",", "::"], ids=["comma", "double-colon"])
def test_an_undecodable_byte_is_a_parse_error_on_its_line(tmp_path, content, line_no,
                                                          delimiter):
    path = tmp_path / "raw.csv"
    path.write_bytes(content.replace(b",", delimiter.encode()))
    with pytest.raises(ParseError) as exc:
        load_interactions(path, delimiter=delimiter)
    assert exc.value.line_no == line_no
    assert "cannot decode b'\\x" in str(exc.value)


def test_a_field_over_the_limit_is_a_parse_error_on_its_rows_line(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text('u1,i1,5\nu2,"i\n2' + "x" * (csv.field_size_limit() + 1) + '",7\n')
    with pytest.raises(ParseError) as exc:
        load_interactions(path)
    assert exc.value.line_no == 2 and "field larger than field limit" in str(exc.value)
    assert outcome(oracle_load_interactions, path) == (ParseError, str(exc.value), 2)


def test_a_blank_manifest_row_is_still_a_parse_error(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("user,partition,item,timestamp\n0,train,1,5\n\n0,test,2,6\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert exc.value.line_no == 3 and "malformed manifest row" in str(exc.value)


# Arguments the plain reader declines before it reads the file: the row
# reader reads such a file as the oracle does.

@pytest.mark.parametrize("delimiter,cols", [
    ('"', (0, 1, 2)), ("\x01", (0, 1, 2)), ("\xe9", (0, 1, 2)),
    (",", (-1, 1, 0)), (",", (np.int64(0), 1, 2)),
], ids=["quote", "control-byte", "non-ascii", "negative-column", "numpy-column"])
def test_plain_reader_declines_such_arguments(tmp_path, delimiter, cols):
    rows = log_rows_with_repeats(2, num_users=20, num_items=30, min_events=1, max_events=8)
    path = tmp_path / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(delimiter.join(map(str, r)) + "\n" for r in rows))
    assert data._plain_columns(path, delimiter, False, cols) is None
    kwargs = dict(delimiter=delimiter, user_col=cols[0], item_col=cols[1], time_col=cols[2])
    got = outcome(lambda p: load_interactions(p, **kwargs), path)
    want = outcome(lambda p: oracle_load_interactions(p, **kwargs), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_log(got, want)

