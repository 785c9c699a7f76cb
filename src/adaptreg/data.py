"""Interaction-log ingestion, filtering, chronological splitting and triplet sampling."""

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyCorpusError, ParseError, SaturatedSamplerError, ShapeMismatchError
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


_BLOCK_BYTES = 1 << 20  # the plain reader's largest block of whole lines
_TIME_DIGITS = 18  # 10**18 - 1 < 2**63: such a time is exact in int64
_POWERS_OF_10 = 10 ** np.arange(_TIME_DIGITS + 1, dtype=np.int64)
_STRIPPED = np.array([chr(c).isspace() for c in range(256)])  # bytes str.strip() drops
# per n <= 8, the uint64 whose first n bytes are all ones and the rest zero
_LOW_BYTES = np.frombuffer(b"".join(b"\xff" * n + bytes(8 - n) for n in range(9)), np.uint64)


def load_interactions(path, delimiter=",", has_header=False,
                      user_col=0, item_col=1, time_col=2):
    """Parse a delimited (user, item, timestamp) file into an InteractionLog.

    A one-character delimiter is read with ``csv`` (quoting honoured); a
    longer one, such as MovieLens' ``::``, splits each line on it. Duplicate
    (user, item) pairs collapse to the earliest timestamp; ids are dense in
    order of first appearance and events keep the order of each pair's first
    row.

    A plain file is read as arrays, a block of whole lines at a time. A file
    is plain when the delimiter is tab or printable ASCII other than ``"``
    and the columns are non-negative ints; every byte is printable ASCII
    other than ``"``, a byte of the delimiter, ``\\n`` or a ``\\r`` directly
    before ``\\n``; every non-blank line has the configured columns; no line
    is longer than ``csv.field_size_limit()``; no user or item token starts
    or ends with whitespace; and every time field matches ``-?[0-9]{1,18}``.
    Every other file goes through the row reader, with identical results. A
    malformed line makes a file not plain, so a ``ParseError`` always comes
    from the row reader, with its line number.
    """
    cols = (user_col, item_col, time_col)
    users, items, times, user_tokens, item_tokens = (
        _plain_columns(path, delimiter, has_header, cols)
        or _row_columns(path, delimiter, has_header, cols))
    if not len(users):
        raise EmptyCorpusError(f"no interactions found in {path}")
    # a user's or item's first row is the first row of one of its pairs, so
    # the ids above are also dense in order of first appearance among pairs
    I = len(item_tokens)
    times = np.asarray(times, dtype=np.int64)
    pairs = np.asarray(users, dtype=np.int64) * I + np.asarray(items, dtype=np.int64)
    del users, items  # not held through the sort
    pairs, perm, starts = _runs(pairs)
    earliest = np.minimum.reduceat(times[perm], starts)
    order = np.argsort(np.minimum.reduceat(perm, starts))  # by each pair's first row
    del perm, starts, times
    pairs = pairs[order]
    return InteractionLog(
        users=pairs // I,
        items=pairs % I,
        times=earliest[order],
        num_users=len(user_tokens),
        num_items=I,
        user_tokens=user_tokens,
        item_tokens=item_tokens,
    )


def _row_columns(path, delimiter, has_header, cols):
    """Each row's user id, item id and time, one row at a time, and the
    tokens of the ids in order of first appearance."""
    user_col, item_col, time_col = cols
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
    return users, items, times, list(user_ids), list(item_ids)


def _plain_columns(path, delimiter, has_header, cols):
    """What ``_row_columns`` returns, read as arrays a block of whole lines
    at a time, or None when the file is not plain (see ``load_interactions``).

    A longer delimiter is replaced by ``\\x1f``, which a plain file does not
    hold, and which splits a line exactly as ``str.split`` does."""
    if (not delimiter or '"' in delimiter
            or not all(c == "\t" or " " <= c <= "~" for c in delimiter)
            or not all(isinstance(c, int) and c >= 0 for c in cols)):
        return None
    sep = delimiter.encode()
    plain = bytes(range(0x20, 0x7f)).replace(b'"', b"") + sep + b"\n\r"
    limit = csv.field_size_limit()
    tables = ({}, {})  # user and item token -> dense id, in order of first appearance
    parts = ([], [], [])  # per block: user ids, item ids, times
    with open(path, "rb") as fh:
        for n, block in enumerate(_line_blocks(fh)):
            if block.translate(None, plain) or block.count(b"\r") != block.count(b"\r\n"):
                return None
            if len(sep) > 1:
                block = block.replace(sep, b"\x1f")
            part = _plain_block(block, sep[0] if len(sep) == 1 else 0x1f,
                                has_header and n == 0, cols, limit, tables)
            if part is None:
                return None
            for column, p in zip(parts, part):
                column.append(p)
    columns = []
    for blocks in parts:
        columns.append(np.concatenate(blocks) if blocks else np.empty(0, np.int64))
        blocks.clear()  # not held while the next column is joined
    return (*columns, list(tables[0]), list(tables[1]))


def _line_blocks(fh):
    """The file in blocks of whole lines; only the last may lack its newline.
    A block is about an eighth of the file, so that its arrays stay small
    beside the file's own, but 16 KiB at least and ``_BLOCK_BYTES`` at most."""
    size = min(max(os.fstat(fh.fileno()).st_size // 8, 1 << 14), _BLOCK_BYTES)
    rest = b""
    while chunk := fh.read(size):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            rest += chunk
            continue
        block, rest = rest + memoryview(chunk)[:cut], chunk[cut:]
        del chunk  # only the block is held while it is read
        yield block
    if rest:
        yield rest


def _plain_block(block, delimiter, skip_first, cols, limit, tables):
    """The user ids, item ids and times of a block of plain bytes with a
    one-byte ``delimiter``, or None when its lines are not plain."""
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(buf == 10)
    if block[-1:] != b"\n":
        ends = np.append(ends, len(buf))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    # every \r stands right before its line's \n
    ends -= (ends > starts) & (buf[ends - 1] == 13)
    if len(ends) and int((ends - starts).max()) > limit:
        return None
    rows = ends > starts  # blank lines are skipped
    if skip_first:
        rows[:1] = False
    starts, ends = starts[rows], ends[rows]
    if not len(starts):
        return (np.empty(0, np.int64),) * 3
    # the last delimiter is a sentinel past the block
    delims = np.append(np.flatnonzero(buf == delimiter), len(buf))
    first = np.searchsorted(delims, starts)
    if int((np.searchsorted(delims, ends) - first).min()) < max(cols):
        return None

    def field(c):
        """Where each row's field ``c`` starts and ends."""
        a = starts if c == 0 else delims[first + c - 1] + 1
        return a, np.minimum(delims[first + c], ends)

    times = _plain_times(buf, *field(cols[2]))
    if times is None:
        return None
    ids = []
    for c, table in zip(cols[:2], tables):
        a, b = field(c)
        # index -1 reads the block's last byte, and only for an empty token
        edge = _STRIPPED[buf[np.minimum(a, b - 1)]] | _STRIPPED[buf[b - 1]]
        if (edge & (b > a)).any():
            return None
        step = max(_BLOCK_BYTES // int((b - a).max() + 8), 1)  # rows whose keys fit in a block
        ids.append(np.concatenate([_token_ids(buf, a[lo:lo + step], b[lo:lo + step], table)
                                   for lo in range(0, len(a), step)]))
    return ids[0], ids[1], times


def _windows(buf, at, width):
    """Row n is ``buf[at[n]:at[n] + width]``, read as zeros past the end of
    ``buf``; ``at`` ascends."""
    cut = max(len(buf) - width, 0)
    tail = np.zeros(len(buf) - cut + width, np.uint8)
    tail[:len(buf) - cut] = buf[cut:]
    k = np.searchsorted(at, cut)
    out = np.empty((len(at), width), np.uint8)
    if k:
        out[:k] = sliding_window_view(buf, width)[at[:k]]
    out[k:] = sliding_window_view(tail, width)[at[k:] - cut]
    return out


def _plain_times(buf, a, b):
    """The integer of each field ``buf[a:b]``, or None when one is not
    ``-?[0-9]{1,18}``."""
    # a field that is empty at the end of the block reads the byte before it
    neg = buf[np.minimum(a, len(buf) - 1)] == ord("-")
    digits = b - a - neg
    if not ((digits >= 1) & (digits <= _TIME_DIGITS)).all():
        return None
    D = int(digits.max())
    window = _windows(buf, a + neg, D)
    window -= ord("0")  # a byte other than a digit wraps past 9
    window[np.arange(D) >= digits[:, None]] = 0
    if (window > 9).any():
        return None
    # each row reads its digits followed by zeros, then divides the zeros off
    value = np.zeros(len(a), np.int64)
    for k in range(D):
        value *= 10
        value += window[:, k]
    value //= _POWERS_OF_10[D - digits]
    return np.negative(value, out=value, where=neg)


def _token_ids(buf, a, b, table):
    """The dense id of each token ``buf[a:b]``: ids are new in the order the
    tokens first appear, unless ``table`` already holds them."""
    lengths = b - a
    words = max(-(-int(lengths.max()) // 8), 1)
    keys = _windows(buf, a, 8 * words).view(np.uint64)
    # zero every byte past the token; no plain token holds a NUL
    keys &= _LOW_BYTES[np.clip(lengths[:, None] - np.arange(0, 8 * words, 8), 0, 8)]
    keys = (keys if words == 1 else keys.view(f"S{8 * words}")).ravel()
    uniq, perm, starts = _runs(keys)
    del keys
    order = np.argsort(np.minimum.reduceat(perm, starts))  # by first appearance
    # as bytes, a key drops its trailing NULs
    new = uniq[order].view(f"S{8 * words}").tolist()
    local = np.empty(len(uniq), np.int64)
    local[order] = [table.setdefault(tok.decode(), len(table)) for tok in new]
    ids = np.empty(len(perm), np.int64)
    ids[perm] = np.repeat(local, np.diff(starts, append=len(perm)))
    return ids


def _runs(keys):
    """The distinct ``keys`` ascending, a permutation that sorts ``keys``,
    and where each distinct key's run starts in the sorted keys."""
    perm = np.argsort(keys)
    keys = keys[perm]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return keys[starts], perm, starts


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
    """Dense ids in order of first appearance, and the token of each new id.
    Each old id's first appearance is found with ``np.minimum.at`` over
    ``ids.max() + 1`` slots, and only the distinct old ids are sorted by it."""
    first = np.full(int(ids.max()) + 1 if len(ids) else 0, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    olds = np.flatnonzero(first < len(ids))
    olds = olds[np.argsort(first[olds])]
    new_id = np.empty(len(first), dtype=ids.dtype)
    new_id[olds] = np.arange(len(olds))
    olds = olds.tolist()
    new_tokens = [tokens[old] for old in olds] if tokens else [str(old) for old in olds]
    return new_id[ids], new_tokens


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
    event array. The partitions are the only per-user copies of the items:
    evaluation and the sampler read a stage's excluded items from them.
    Every array the split holds is read-only.
    """

    num_users: int
    num_items: int
    train: Ragged  # per-user item ids, chronological
    val: Ragged
    test: Ragged
    train_times: Ragged
    val_times: Ragged
    test_times: Ragged
    train_keys: np.ndarray  # sorted u*num_items+i over train events
    val_keys: np.ndarray  # sorted u*num_items+i over validation events
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
    items, times = log.items[order], log.times[order]
    del order, source  # not held while the split is built
    return _split_of_layout(U, I, cell_counts, items, cell_counts, times)


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
    partition, and the caller's ``degenerate`` users; a split built only to
    be scored may leave its time arrays empty."""
    def layout(*partitions):
        arrays = [a for p in partitions for a in p]
        counts = np.fromiter(map(len, arrays), np.int64, 3 * U)
        return counts, np.concatenate(arrays) if U else np.empty(0, dtype=np.int64)

    split = _split_of_layout(U, I, *layout(train, val, test), *layout(train_t, val_t, test_t))
    return replace(split, degenerate_users=degenerate)


def _split_of_layout(U, I, counts, items, time_counts, times):
    """The split of events laid out partition by partition (train,
    validation, test), and within one user by user: ``counts[p*U + u]``
    items of user u in partition p, so each partition is one slice of
    ``items``; ``time_counts`` lays out ``times`` the same way."""
    def partitions(cells, values):
        bounds = np.zeros(3 * U + 1, dtype=np.int64)
        np.cumsum(cells, out=bounds[1:])
        for b in (bounds[p * U:(p + 1) * U + 1] for p in range(3)):
            yield Ragged(values[b[0]:b[-1]], b - b[0])

    train, val, test = partitions(counts, items)
    train_t, val_t, test_t = partitions(time_counts, times)
    tr_n, va_n = np.diff(train.offsets), np.diff(val.offsets)
    tr_u = np.repeat(np.arange(U, dtype=np.int64), tr_n)
    va_u = np.repeat(np.arange(U, dtype=np.int64), va_n)
    # keys order by user, then item
    train_keys = np.sort(tr_u * I + train.flat)
    val_keys = np.sort(va_u * I + val.flat)
    item_freq = np.bincount(train.flat, minlength=I).astype(np.int64)
    degenerate = np.flatnonzero((counts[U:2 * U] == 0) | (counts[2 * U:] == 0)).tolist()
    for a in (train_keys, val_keys, tr_u, va_u, item_freq, tr_n):
        a.flags.writeable = False
    return SplitDataset(
        num_users=U, num_items=I,
        train=train, val=val, test=test,
        train_times=train_t, val_times=val_t, test_times=test_t,
        train_keys=train_keys, val_keys=val_keys,
        train_event_user=tr_u, val_event_user=va_u,
        item_frequency=item_freq, user_frequency=tr_n,
        degenerate_users=degenerate,
    )


def _member(key_arrays, u, j, num_items):
    """Whether each (u, j) pair is in any of the sorted ``key_arrays``; the
    probes are sorted once before the searches and the answers put back in
    probe order."""
    keys = u * num_items + j
    order = np.argsort(keys)
    probes = keys[order]
    hit = np.zeros(len(keys), dtype=bool)
    for sorted_keys in key_arrays:
        if len(sorted_keys):
            pos = np.searchsorted(sorted_keys, probes)
            hit |= sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == probes
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
        eu, ei = split.train_event_user, split.train.flat
        parts, keys = (split.train,), (split.train_keys,)
    elif partition == "validation":
        eu, ei = split.val_event_user, split.val.flat
        parts, keys = (split.train, split.val), (split.train_keys, split.val_keys)
    else:
        raise ValueError(f"unknown partition {partition!r}")
    if len(eu) == 0:
        raise EmptyCorpusError(f"{partition} partition has no events")
    I = split.num_items
    idx = rng.integers(0, len(eu), size)
    u, i = eu[idx], ei[idx]
    j = rng.integers(0, I, size)
    bad = _member(keys, u, j, I)
    rounds = 0
    while bad.any() and rounds < MAX_REJECTION_ROUNDS:
        j[bad] = rng.integers(0, I, int(bad.sum()))
        bad[bad] = _member(keys, u[bad], j[bad], I)
        rounds += 1
    if bad.any():
        all_items = np.arange(I, dtype=np.int64)
        # a user's partitions are disjoint, so these items are distinct
        excluded = lambda user: np.concatenate([p[user] for p in parts])
        for n in np.flatnonzero(bad):
            eligible = np.setdiff1d(all_items, excluded(u[n]), assume_unique=True)
            while len(eligible) == 0:
                # user saturated: resample the event (skip the user)
                if np.all(sum(np.diff(p.offsets) for p in parts)[eu] >= I):
                    raise SaturatedSamplerError("every user's exclusion set covers all items")
                k = int(rng.integers(0, len(eu)))
                u[n], i[n] = eu[k], ei[k]
                eligible = np.setdiff1d(all_items, excluded(u[n]), assume_unique=True)
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
    """Delimited (user, partition, item, timestamp) rows, chronological per
    user. Every item needs its time: a split whose time arrays differ in
    shape from its item arrays, such as one built only to be scored, raises
    ``ShapeMismatchError`` before the file is opened."""
    partitions = (("train", split.train, split.train_times),
                  ("validation", split.val, split.val_times),
                  ("test", split.test, split.test_times))
    for name, items, times in partitions:
        if not np.array_equal(items.offsets, times.offsets):
            u = int(np.argmax(np.diff(items.offsets) != np.diff(times.offsets)))
            raise ShapeMismatchError(f"{name} partition of user {u}: {len(items[u])} items "
                                     f"but {len(times[u])} times")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "partition", "item", "timestamp"])
        for u in range(split.num_users):
            for name, items, times in partitions:
                for it, ts in zip(items[u], times[u]):
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
    counts = np.bincount(cells, minlength=3 * U)
    return _split_of_layout(U, int(items.max()) + 1, counts, items[order],
                            counts, np.asarray(times, dtype=np.int64)[order])
