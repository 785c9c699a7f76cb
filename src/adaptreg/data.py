"""Interaction-log ingestion, filtering, chronological splitting and triplet sampling."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpusError, ParseError, SaturatedSamplerError
from .mf import TripletBatch


@dataclass
class InteractionLog:
    """Deduplicated implicit-feedback events with dense integer ids."""

    users: np.ndarray  # int64 (n,)
    items: np.ndarray  # int64 (n,)
    times: np.ndarray  # int64 (n,), seconds
    num_users: int
    num_items: int
    user_tokens: list = field(default_factory=list)  # dense id -> original token
    item_tokens: list = field(default_factory=list)

    def __len__(self):
        return len(self.users)


def _parse_time(text):
    # integer text exactly (a float holds 53 bits), other numbers such as
    # 1e9 or 12.0 through float; out of int64 range is an overflow
    try:
        ts = int(text)
    except ValueError:
        ts = int(float(text))
    if not -2**63 <= ts < 2**63:
        raise OverflowError(f"timestamp {text.strip()} is out of int64 range")
    return ts


def load_interactions(path, delimiter=",", has_header=False,
                      user_col=0, item_col=1, time_col=2):
    """Parse a delimited (user, item, timestamp) file into an InteractionLog.

    A one-character delimiter is read with ``csv`` (quoting honoured); a
    longer one, such as MovieLens' ``::``, splits each line on it. Duplicate
    (user, item) pairs collapse to the earliest timestamp; ids are dense in
    order of first appearance and events keep the order of each pair's first
    row.
    """
    user_ids, item_ids = {}, {}  # token -> dense id, in order of first appearance
    users, items, times = [], [], []
    with open(path, newline="") as fh:
        rows = (csv.reader(fh, delimiter=delimiter) if len(delimiter) == 1
                else (line.rstrip("\r\n").split(delimiter) for line in fh))
        for line_no, row in enumerate(rows, start=1):
            if line_no == 1 and has_header:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                u_tok = row[user_col].strip()
                i_tok = row[item_col].strip()
                ts = _parse_time(row[time_col])
            except (IndexError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, f"malformed row {row!r}: {exc}") from None
            users.append(user_ids.setdefault(u_tok, len(user_ids)))
            items.append(item_ids.setdefault(i_tok, len(item_ids)))
            times.append(ts)
    if not users:
        raise EmptyCorpusError(f"no interactions found in {path}")
    # a user's or item's first row is the first row of one of its pairs, so
    # the ids above are also dense in order of first appearance among pairs
    I = len(item_ids)
    times = np.asarray(times, dtype=np.int64)
    pairs, first, inverse = np.unique(
        np.asarray(users, dtype=np.int64) * I + np.asarray(items, dtype=np.int64),
        return_index=True, return_inverse=True)
    earliest = times[first]
    np.minimum.at(earliest, inverse, times)
    order = np.argsort(first)
    pairs = pairs[order]
    return InteractionLog(
        users=pairs // I,
        items=pairs % I,
        times=earliest[order],
        num_users=len(user_ids),
        num_items=I,
        user_tokens=list(user_ids),
        item_tokens=list(item_ids),
    )


def filter_min_count(log, min_user, min_item):
    """Iteratively drop users/items below the event-count thresholds (fixed point)."""
    keep = np.ones(len(log), dtype=bool)
    while True:
        u_counts = np.bincount(log.users[keep], minlength=log.num_users)
        i_counts = np.bincount(log.items[keep], minlength=log.num_items)
        bad = (u_counts[log.users] < min_user) | (i_counts[log.items] < min_item)
        bad &= keep
        if not bad.any():
            break
        keep &= ~bad
    if not keep.any():
        raise EmptyCorpusError("filtering removed every interaction")
    users = log.users[keep]
    items = log.items[keep]
    times = log.times[keep]
    # re-densify ids in order of first appearance within surviving events
    new_users, user_tokens = _redensify(users, log.user_tokens)
    new_items, item_tokens = _redensify(items, log.item_tokens)
    return InteractionLog(
        users=new_users,
        items=new_items,
        times=times,
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
    )


def _redensify(ids, tokens):
    """Dense ids in order of first appearance, and the token of each new id."""
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    new_id = np.empty(len(uniq), dtype=ids.dtype)
    new_id[order] = np.arange(len(uniq))
    olds = uniq[order].tolist()
    new_tokens = [tokens[old] for old in olds] if tokens else [str(old) for old in olds]
    return new_id[inverse], new_tokens


class Ragged:
    """Read-only sequence of arrays stored end to end in one flat array: row
    ``n`` is the view ``flat[offsets[n]:offsets[n + 1]]``."""

    __slots__ = ("flat", "offsets")

    def __init__(self, flat, offsets):
        self.flat = flat.view()
        self.offsets = offsets.view()
        self.flat.flags.writeable = False
        self.offsets.flags.writeable = False

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, n):
        if n < 0:
            n += len(self)
        if not 0 <= n < len(self):
            raise IndexError(f"row {n} out of range for {len(self)} rows")
        return self.flat[self.offsets[n]:self.offsets[n + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.flat[a:b] for a, b in zip(bounds, bounds[1:]))


@dataclass
class SplitDataset:
    """Per-user chronological train/validation/test partition with fast indexes.

    Each per-user field is a ``Ragged`` of |U| rows: ``split.train[u]`` is
    user u's train items in time order, a view into ``split.train.flat``,
    which holds every train event user by user, and is also the sampler's
    event array. Every array the split holds is read-only.
    """

    num_users: int
    num_items: int
    train: Ragged  # per-user item ids, chronological
    val: Ragged
    test: Ragged
    train_times: Ragged
    val_times: Ragged
    test_times: Ragged
    user_pos_train: Ragged  # per-user sorted item ids
    user_pos_train_val: Ragged
    train_keys: np.ndarray  # sorted u*num_items+i over train events
    train_val_keys: np.ndarray
    train_event_user: np.ndarray  # user of each event of train.flat
    val_event_user: np.ndarray  # user of each event of val.flat
    item_frequency: np.ndarray  # train counts
    user_frequency: np.ndarray
    degenerate_users: list  # users with empty validation or test

    @property
    def num_train_events(self):
        return len(self.train_event_user)


def chronological_split(log, ratios=(0.6, 0.2, 0.2)):
    """Per-user time-ordered split.

    Train takes ceil(r_train*n), validation ceil(r_val*n) capped at the
    remainder, test the rest. Timestamp ties keep stable input order.
    """
    if (len(ratios) != 3 or any(r <= 0 for r in ratios)
            or not math.isclose(sum(ratios), 1.0)):
        raise ValueError(f"ratios must be three positive numbers summing to 1, got {ratios}")
    U, I = log.num_users, log.num_items
    users = log.users.astype(np.int64, copy=False)
    order = _time_order(users, log.times, U)
    counts = np.bincount(users, minlength=U)
    # capped so a train ratio a hair above 1 cannot claim more than n events
    n_train = np.minimum(np.ceil(ratios[0] * counts).astype(np.int64), counts)
    n_val = np.minimum(np.ceil(ratios[1] * counts).astype(np.int64), counts - n_train)
    cell_counts = np.concatenate([n_train, n_val, counts - n_train - n_val])
    # in time order each (partition, user) cell is one run of events, which
    # starts at its user's first event plus the partitions before it; the
    # partition-major layout takes the runs cell by cell
    starts = np.cumsum(counts) - counts
    run_starts = np.concatenate([starts, starts + n_train, starts + n_train + n_val])
    source = np.repeat(run_starts - (np.cumsum(cell_counts) - cell_counts), cell_counts)
    source += np.arange(len(source))
    order = order[source]
    return _split_of_layout(U, I, cell_counts, log.items[order], log.times[order])


def _time_order(users, times, U):
    """The stable permutation that orders events by user, then time, ties in
    input order: one stable sort on ``user*span + time - t_min`` when every
    such key fits in int64, else on ``user*T + dense time rank``. Both keys
    give the permutation of ``np.lexsort((times, users))`` at a fraction of
    lexsort's cost."""
    if len(times) and times.dtype.kind in "iu" and np.can_cast(times.dtype, np.int64):
        t_min = int(times.min())
        span = int(times.max()) - t_min + 1
        if int(U) * span < 2**63:
            # the offset is taken in int64: in a narrower dtype it can wrap
            key = times.astype(np.int64)
            key -= t_min
            key += users * span
            return np.argsort(key, kind="stable")
    distinct, t_rank = np.unique(times, return_inverse=True)
    return np.argsort(users * len(distinct) + t_rank, kind="stable")


def _build_split(U, I, train, val, test, train_t, val_t, test_t, degenerate):
    """The split of per-user item and time arrays, one list of |U| arrays per
    partition."""
    def ragged(arrays):
        offsets = np.zeros(U + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, arrays), np.int64, U), out=offsets[1:])
        return Ragged(np.concatenate(arrays) if U else np.empty(0, dtype=np.int64), offsets)

    return _index_split(U, I, *map(ragged, (train, val, test, train_t, val_t, test_t)),
                        degenerate)


def _split_of_layout(U, I, counts, items, times):
    """The split of events laid out partition by partition (train,
    validation, test), and within one user by user: ``counts[p*U + u]``
    events of user u in partition p, so each partition is one slice of
    ``items`` and ``times``."""
    bounds = np.zeros(3 * U + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    degenerate = np.flatnonzero((counts[U:2 * U] == 0) | (counts[2 * U:] == 0)).tolist()

    def partitions(values):
        for b in (bounds[p * U:(p + 1) * U + 1] for p in range(3)):
            yield Ragged(values[b[0]:b[-1]], b - b[0])

    return _index_split(U, I, *partitions(items), *partitions(times), degenerate)


def _index_split(U, I, train, val, test, train_t, val_t, test_t, degenerate):
    """The split of the given partitions, with the sampler's and evaluation's
    indexes built from them."""
    tr_n, va_n = np.diff(train.offsets), np.diff(val.offsets)
    tr_u = np.repeat(np.arange(U, dtype=np.int64), tr_n)
    va_u = np.repeat(np.arange(U, dtype=np.int64), va_n)
    tr_i, va_i = train.flat, val.flat
    # keys order by user, then item, so each user's slice of keys - u*I is
    # that user's sorted items
    train_keys = np.sort(tr_u * I + tr_i)
    train_val_keys = np.sort(np.concatenate([train_keys, va_u * I + va_i]))
    tv_u = np.repeat(np.arange(U, dtype=np.int64), tr_n + va_n)
    dtype = np.result_type(tr_i, va_i)
    pos_train = Ragged((train_keys - tr_u * I).astype(tr_i.dtype, copy=False), train.offsets)
    pos_train_val = Ragged((train_val_keys - tv_u * I).astype(dtype, copy=False),
                           train.offsets + val.offsets)
    item_freq = np.bincount(tr_i, minlength=I).astype(np.int64)
    for a in (train_keys, train_val_keys, tr_u, va_u, item_freq, tr_n):
        a.flags.writeable = False
    return SplitDataset(
        num_users=U, num_items=I,
        train=train, val=val, test=test,
        train_times=train_t, val_times=val_t, test_times=test_t,
        user_pos_train=pos_train, user_pos_train_val=pos_train_val,
        train_keys=train_keys, train_val_keys=train_val_keys,
        train_event_user=tr_u, val_event_user=va_u,
        item_frequency=item_freq, user_frequency=tr_n,
        degenerate_users=degenerate,
    )


def _member(sorted_keys, u, j, num_items):
    """Whether each (u, j) pair is in ``sorted_keys``; the probes are sorted
    before the search and the answers put back in probe order."""
    keys = u * num_items + j
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    order = np.argsort(keys)
    probes = keys[order]
    pos = np.searchsorted(sorted_keys, probes)
    hit = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == probes
    out = np.empty(len(keys), dtype=bool)
    out[order] = hit
    return out


MAX_REJECTION_ROUNDS = 100


def sample_triplets(split, rng, size, partition="train"):
    """Sample a batch of (u, i, j) triplets uniformly over events of a partition.

    Negatives are rejection-sampled uniformly over items outside the user's
    exclusion set (train items for the train partition, train+validation items
    for the validation partition), falling back to explicit enumeration after
    MAX_REJECTION_ROUNDS rounds.
    """
    if partition == "train":
        eu, ei, keys = split.train_event_user, split.train.flat, split.train_keys
        excluded = split.user_pos_train
    elif partition == "validation":
        eu, ei, keys = split.val_event_user, split.val.flat, split.train_val_keys
        excluded = split.user_pos_train_val
    else:
        raise ValueError(f"unknown partition {partition!r}")
    if len(eu) == 0:
        raise EmptyCorpusError(f"{partition} partition has no events")
    I = split.num_items
    idx = rng.integers(0, len(eu), size)
    u = eu[idx].copy()
    i = ei[idx].copy()
    j = rng.integers(0, I, size)
    bad = _member(keys, u, j, I)
    rounds = 0
    while bad.any() and rounds < MAX_REJECTION_ROUNDS:
        j[bad] = rng.integers(0, I, int(bad.sum()))
        bad[bad] = _member(keys, u[bad], j[bad], I)
        rounds += 1
    if bad.any():
        all_items = np.arange(I, dtype=np.int64)
        for n in np.flatnonzero(bad):
            eligible = np.setdiff1d(all_items, excluded[u[n]], assume_unique=True)
            while len(eligible) == 0:
                # user saturated: resample the event (skip the user)
                if np.all(np.diff(excluded.offsets)[eu] >= I):
                    raise SaturatedSamplerError("every user's exclusion set covers all items")
                k = int(rng.integers(0, len(eu)))
                u[n], i[n] = eu[k], ei[k]
                eligible = np.setdiff1d(all_items, excluded[u[n]], assume_unique=True)
            j[n] = eligible[rng.integers(0, len(eligible))]
    return TripletBatch(users=u, pos=i, neg=j)


def frequency_groups(frequencies, boundaries):
    """Group index per entity: number of boundaries <= frequency."""
    boundaries = np.asarray(boundaries)
    if len(boundaries) > 1 and not np.all(np.diff(boundaries) > 0):
        raise ValueError("boundaries must be strictly ascending")
    return np.searchsorted(boundaries, np.asarray(frequencies), side="right")


def group_by(labels):
    """Stable group-by: ``(ids, order, starts, counts)``. Group ``ids[n]`` is
    ``values[order][starts[n]:starts[n] + counts[n]]``, in input order."""
    order = np.argsort(labels, kind="stable")
    ids, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    return ids, order, starts, counts


def group_reduce(values, starts, counts, reduce=np.mean):
    """``reduce(values[start:start + count])`` (``np.mean`` or ``np.var``) per
    group, bit for bit: groups of one size are the rows of one C-ordered
    matrix, and numpy reduces each row in the order of that row alone."""
    out = np.empty(len(starts))
    for c in np.unique(counts):
        sel = np.flatnonzero(counts == c)
        out[sel] = reduce(values[starts[sel, None] + np.arange(c)], axis=1)
    return out


# ---------------------------------------------------------------------------
# Persistence: id maps and split manifest
# ---------------------------------------------------------------------------

def save_id_map(path, tokens):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for idx, tok in enumerate(tokens):
            w.writerow([tok, idx])


def save_manifest(path, split):
    """Delimited (user, partition, item, timestamp) rows, chronological per user."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "partition", "item", "timestamp"])
        for u in range(split.num_users):
            for name, items, times in (
                ("train", split.train[u], split.train_times[u]),
                ("validation", split.val[u], split.val_times[u]),
                ("test", split.test[u], split.test_times[u]),
            ):
                for it, ts in zip(items, times):
                    w.writerow([u, name, int(it), int(ts)])


_PARTITION_CODE = {"train": 0, "validation": 1, "test": 2}


def load_manifest(path):
    """Rebuild a split from ``save_manifest`` rows; every (user, item) pair
    appears once. Rows may come in any order: within a (user, partition) cell
    they keep file order, and users without rows get empty partitions."""
    seen = set()
    users, codes, items, times = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise EmptyCorpusError(f"manifest {path} is empty")
        for line_no, row in enumerate(reader, start=2):
            try:
                u = int(row[0])
                part = row[1]
                it = int(row[2])
                ts = int(row[3])
            except (IndexError, ValueError) as exc:
                raise ParseError(path, line_no, f"malformed manifest row: {exc}") from None
            code = _PARTITION_CODE.get(part)
            if code is None:
                raise ParseError(path, line_no, f"unknown partition {part!r}")
            if u < 0 or it < 0:
                raise ParseError(path, line_no, f"negative id in {row!r}")
            # a repeated pair would be both a positive and an excluded item
            if (u, it) in seen:
                raise ParseError(path, line_no, f"user {u} item {it} is listed twice")
            seen.add((u, it))
            users.append(u)
            codes.append(code)
            items.append(it)
            times.append(ts)
    if not users:
        raise EmptyCorpusError(f"manifest {path} has no rows")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    U = int(users.max()) + 1
    # within a (partition, user) cell the stable sort keeps file order
    cells = np.asarray(codes, dtype=np.int64) * U + users
    order = np.argsort(cells, kind="stable")
    return _split_of_layout(U, int(items.max()) + 1, np.bincount(cells, minlength=3 * U),
                            items[order], np.asarray(times, dtype=np.int64)[order])
