"""Synthetic implicit-feedback corpora with long-tailed activity and a planted
low-rank preference structure, for pipeline and ordering tests."""

import csv

import numpy as np

from adaptreg.data import InteractionLog, chronological_split


def make_log(num_users=120, num_items=200, dim=6, seed=0,
             min_events=6, max_events=60):
    rng = np.random.default_rng(seed)
    u_lat = rng.normal(0, 1.0, (num_users, dim))
    i_lat = rng.normal(0, 1.0, (num_items, dim))
    pop = rng.zipf(1.6, num_items).astype(float)
    pop_bonus = np.log(np.clip(pop, 1, 50))
    # long-tailed per-user activity
    raw = rng.pareto(1.5, num_users) + 1.0
    counts = np.clip((raw * min_events).astype(int), min_events, max_events)
    users, items, times = [], [], []
    for u in range(num_users):
        logits = u_lat[u] @ i_lat.T + 0.7 * pop_bonus
        logits += rng.gumbel(0, 1.0, num_items)  # noise, also breaks ties
        chosen = np.argsort(-logits)[:counts[u]]
        ts = rng.integers(0, 10_000_000, len(chosen))
        users.extend([u] * len(chosen))
        items.extend(chosen.tolist())
        times.extend(ts.tolist())
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    # re-densify items (some may never be chosen)
    uniq = np.unique(items)
    remap = np.zeros(num_items, dtype=np.int64)
    remap[uniq] = np.arange(len(uniq))
    items = remap[items]
    return InteractionLog(
        users=users, items=items, times=times,
        num_users=num_users, num_items=len(uniq),
        user_tokens=[f"u{n}" for n in range(num_users)],
        item_tokens=[f"i{n}" for n in range(len(uniq))],
    )


# the ``small_split`` test fixture, which the seeded digests also train on
SMALL_SPLIT = dict(num_users=40, num_items=60, seed=7, min_events=6, max_events=30)


def make_split(**kwargs):
    return chronological_split(make_log(**kwargs))


def write_raw_csv(path, log, delimiter=","):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, delimiter=delimiter)
        for u, i, t in zip(log.users, log.items, log.times):
            w.writerow([log.user_tokens[u], log.item_tokens[i], int(t)])


def write_plain_log(path, rows, num_users=4_000, num_items=3_000, repeat_frac=0.02, seed=0):
    """A ``u<id>,i<id>,<time>`` file of about ``rows`` rows, shaped like the
    pipeline-small corpus: random users and items, a ``repeat_frac`` share
    of rows repeating an earlier pair later, all in time order."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, num_users, rows)
    items = rng.integers(0, num_items, rows)
    times = rng.integers(0, 10_000_000, rows)
    again = rng.random(rows) < repeat_frac
    users = np.concatenate([users, users[again]])
    items = np.concatenate([items, items[again]])
    times = np.concatenate([times, times[again] + rng.integers(1, 1_000_000, int(again.sum()))])
    order = np.argsort(times, kind="stable")
    with open(path, "w", newline="") as fh:
        fh.writelines(f"u{u},i{i},{t}\n" for u, i, t in
                      zip(users[order].tolist(), items[order].tolist(), times[order].tolist()))
    return path
