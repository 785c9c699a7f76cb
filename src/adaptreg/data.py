"""Interaction-log ingestion, filtering, chronological splitting and triplet sampling."""

import csv
import itertools
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


def load_interactions(path, delimiter=",", has_header=False,
                      user_col=0, item_col=1, time_col=2):
    """Parse a delimited (user, item, timestamp) file into an InteractionLog.

    Duplicate (user, item) pairs collapse to the earliest timestamp; ids are
    re-indexed densely in order of first appearance.
    """
    seen = {}  # (u_tok, i_tok) -> [order, timestamp]
    order = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1 and has_header:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                u_tok = row[user_col].strip()
                i_tok = row[item_col].strip()
                ts = int(float(row[time_col]))
            except (IndexError, ValueError) as exc:
                raise ParseError(path, line_no, f"malformed row {row!r}: {exc}") from None
            key = (u_tok, i_tok)
            rec = seen.get(key)
            if rec is None:
                seen[key] = [order, ts]
                order += 1
            elif ts < rec[1]:
                rec[1] = ts
    if not seen:
        raise EmptyCorpusError(f"no interactions found in {path}")
    events = sorted(((rec[0], u, i, rec[1]) for (u, i), rec in seen.items()))
    user_ids, item_ids = {}, {}
    user_tokens, item_tokens = [], []
    users, items, times = [], [], []
    for _, u_tok, i_tok, ts in events:
        if u_tok not in user_ids:
            user_ids[u_tok] = len(user_tokens)
            user_tokens.append(u_tok)
        if i_tok not in item_ids:
            item_ids[i_tok] = len(item_tokens)
            item_tokens.append(i_tok)
        users.append(user_ids[u_tok])
        items.append(item_ids[i_tok])
        times.append(ts)
    return InteractionLog(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        times=np.asarray(times, dtype=np.int64),
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
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


@dataclass
class SplitDataset:
    """Per-user chronological train/validation/test partition with fast indexes.

    The per-user arrays are views of a few shared arrays: read them, do not
    write into them.
    """

    num_users: int
    num_items: int
    train: list  # per-user np arrays of item ids, chronological
    val: list
    test: list
    train_times: list
    val_times: list
    test_times: list
    user_pos_train: list  # per-user sorted item-id arrays
    user_pos_train_val: list
    train_keys: np.ndarray  # sorted u*num_items+i over train events
    train_val_keys: np.ndarray
    train_event_user: np.ndarray  # flattened train events for uniform sampling
    train_event_item: np.ndarray
    val_event_user: np.ndarray
    val_event_item: np.ndarray
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
    if any(r <= 0 for r in ratios) or not math.isclose(sum(ratios), 1.0):
        raise ValueError(f"ratios must be positive and sum to 1, got {ratios}")
    U, I = log.num_users, log.num_items
    # one stable sort on (user, dense time rank) puts each user's events in
    # time order, ties in input order; it is the permutation of
    # np.lexsort((times, users)) at a fraction of lexsort's cost
    distinct, t_rank = np.unique(log.times, return_inverse=True)
    key = log.users.astype(np.int64) * len(distinct) + t_rank
    order = np.argsort(key, kind="stable")
    items, times = log.items[order], log.times[order]
    counts = np.bincount(log.users, minlength=U)
    n_train = np.ceil(ratios[0] * counts).astype(np.int64)
    n_val = np.minimum(np.ceil(ratios[1] * counts).astype(np.int64), counts - n_train)
    n_test = counts - n_train - n_val
    # user by user: train, validation, test
    sizes = np.stack([n_train, n_val, n_test], 1).ravel()
    by_item, by_time = _cut(items, sizes), _cut(times, sizes)
    train, val, test = by_item[0::3], by_item[1::3], by_item[2::3]
    train_t, val_t, test_t = by_time[0::3], by_time[1::3], by_time[2::3]
    degenerate = np.flatnonzero((n_val == 0) | (n_test == 0)).tolist()
    return _build_split(U, I, train, val, test, train_t, val_t, test_t, degenerate)


def _cut(values, sizes):
    """``values`` cut into consecutive views of the given sizes."""
    # bounds are made one at a time: a list of them would be freed while the
    # views stay alive in the same allocator arenas, and the process would
    # keep that memory resident (about 9 MB more at 100k users)
    bounds = itertools.accumulate(sizes.tolist(), initial=0)
    return [values[a:b] for a, b in itertools.pairwise(bounds)]


def _build_split(U, I, train, val, test, train_t, val_t, test_t, degenerate):
    empty = np.empty(0, dtype=np.int64)
    tr_n = np.asarray([len(t) for t in train], dtype=np.int64)
    va_n = np.asarray([len(v) for v in val], dtype=np.int64)
    tr_u = np.repeat(np.arange(U, dtype=np.int64), tr_n)
    va_u = np.repeat(np.arange(U, dtype=np.int64), va_n)
    tr_i = np.concatenate(train) if U else empty
    va_i = np.concatenate(val) if U else empty
    # keys order by user, then item, so each user's slice of keys - u*I is
    # that user's sorted items
    train_keys = np.sort(tr_u * I + tr_i)
    train_val_keys = np.sort(np.concatenate([train_keys, va_u * I + va_i]))
    tv_u = np.repeat(np.arange(U, dtype=np.int64), tr_n + va_n)
    dtype = np.result_type(tr_i, va_i)
    pos_train = _cut((train_keys - tr_u * I).astype(tr_i.dtype, copy=False), tr_n)
    pos_train_val = _cut((train_val_keys - tv_u * I).astype(dtype, copy=False), tr_n + va_n)
    item_freq = np.bincount(tr_i, minlength=I).astype(np.int64)
    return SplitDataset(
        num_users=U, num_items=I,
        train=train, val=val, test=test,
        train_times=train_t, val_times=val_t, test_times=test_t,
        user_pos_train=pos_train, user_pos_train_val=pos_train_val,
        train_keys=train_keys, train_val_keys=train_val_keys,
        train_event_user=tr_u, train_event_item=tr_i,
        val_event_user=va_u, val_event_item=va_i,
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
        eu, ei, keys = split.train_event_user, split.train_event_item, split.train_keys
        excluded = split.user_pos_train
    elif partition == "validation":
        eu, ei, keys = split.val_event_user, split.val_event_item, split.train_val_keys
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
                if np.all([len(excluded[x]) >= I for x in np.unique(eu)]):
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


# ---------------------------------------------------------------------------
# Persistence: id maps and split manifest
# ---------------------------------------------------------------------------

def save_id_map(path, tokens):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for idx, tok in enumerate(tokens):
            w.writerow([tok, idx])


def load_id_map(path):
    tokens = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            tokens.append(row[0])
    return tokens


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


def load_manifest(path):
    """Rebuild a split from ``save_manifest`` rows; every (user, item) pair
    appears once."""
    per_user = {}
    seen = set()
    num_items = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyCorpusError(f"manifest {path} is empty")
        for line_no, row in enumerate(reader, start=2):
            try:
                u = int(row[0])
                part = row[1]
                it = int(row[2])
                ts = int(row[3])
            except (IndexError, ValueError) as exc:
                raise ParseError(path, line_no, f"malformed manifest row: {exc}") from None
            if part not in ("train", "validation", "test"):
                raise ParseError(path, line_no, f"unknown partition {part!r}")
            if u < 0 or it < 0:
                raise ParseError(path, line_no, f"negative id in {row!r}")
            # a repeated pair would be both a positive and an excluded item
            if (u, it) in seen:
                raise ParseError(path, line_no, f"user {u} item {it} is listed twice")
            seen.add((u, it))
            per_user.setdefault(u, {"train": [], "validation": [], "test": []})
            per_user[u][part].append((it, ts))
            num_items = max(num_items, it + 1)
    if not per_user:
        raise EmptyCorpusError(f"manifest {path} has no rows")
    U = max(per_user) + 1
    train, val, test = [], [], []
    train_t, val_t, test_t = [], [], []
    degenerate = []
    for u in range(U):
        rec = per_user.get(u, {"train": [], "validation": [], "test": []})
        parts = []
        for name in ("train", "validation", "test"):
            rows = rec[name]
            parts.append((
                np.asarray([r[0] for r in rows], dtype=np.int64),
                np.asarray([r[1] for r in rows], dtype=np.int64),
            ))
        if len(parts[1][0]) == 0 or len(parts[2][0]) == 0:
            degenerate.append(u)
        train.append(parts[0][0]); train_t.append(parts[0][1])
        val.append(parts[1][0]); val_t.append(parts[1][1])
        test.append(parts[2][0]); test_t.append(parts[2][1])
    return _build_split(U, num_items, train, val, test, train_t, val_t, test_t, degenerate)
