"""Seeded synthetic inputs for the benchmark workloads.

Both generators are pure functions of their parameters and the seed, so the
same seed always yields the same corpus.
"""

import numpy as np


def write_small_csv(path, seed, num_users, num_items, planted_dim,
                    min_events, max_events, duplicate_frac):
    """Raw ``user,item,timestamp`` CSV with long-tailed user activity, Zipf
    popularity and a planted low-rank preference structure.

    Each user picks their top-scoring items under latent affinity plus a
    popularity bonus plus Gumbel noise. A ``duplicate_frac`` share of rows is
    repeated with a later timestamp, so ingest's de-duplication has work.
    Rows are written in global timestamp order, as a log would be.
    Returns the number of rows written.
    """
    rng = np.random.default_rng(seed)
    u_lat = rng.normal(0.0, 1.0, (num_users, planted_dim))
    i_lat = rng.normal(0.0, 1.0, (num_items, planted_dim))
    pop_bonus = np.log(np.clip(rng.zipf(1.6, num_items), 1, 50).astype(float))
    raw = rng.pareto(1.5, num_users) + 1.0
    counts = np.clip((raw * min_events).astype(np.int64), min_events, max_events)
    users, items = [], []
    block = 500
    for start in range(0, num_users, block):
        stop = min(start + block, num_users)
        logits = u_lat[start:stop] @ i_lat.T + 0.7 * pop_bonus
        logits += rng.gumbel(0.0, 1.0, logits.shape)
        order = np.argsort(-logits, axis=1)
        take = np.arange(num_items)[None, :] < counts[start:stop, None]
        rows, cols = np.nonzero(take)
        users.append(rows + start)
        items.append(order[rows, cols])
    users = np.concatenate(users)
    items = np.concatenate(items)
    times = rng.integers(0, 10_000_000, len(users))
    dup = rng.random(len(users)) < duplicate_frac
    users = np.concatenate([users, users[dup]])
    items = np.concatenate([items, items[dup]])
    times = np.concatenate([times, times[dup] + rng.integers(1, 1_000_000, int(dup.sum()))])
    order = np.argsort(times, kind="stable")
    lines = [f"u{u},i{i},{t}\n" for u, i, t in
             zip(users[order].tolist(), items[order].tolist(), times[order].tolist())]
    with open(path, "w") as fh:
        fh.writelines(lines)
    return len(lines)


def wide_log(seed, num_users, num_items, min_events, max_events,
             zipf_exponent, num_clusters, cluster_share):
    """(users, items, times) arrays for a wide catalog, built vectorized.

    Per-user event counts are Pareto, clipped to [min_events, max_events].
    Items are drawn by Zipf rank: with probability ``cluster_share`` from the
    user's cluster's own ranking of the catalog, otherwise from the global
    ranking, which gives the model a personal signal beyond popularity.
    Repeated (user, item) pairs are dropped, keeping the first draw.
    """
    rng = np.random.default_rng(seed)
    raw = rng.pareto(1.5, num_users) + 1.0
    counts = np.clip((raw * min_events).astype(np.int64), min_events, max_events)
    users = np.repeat(np.arange(num_users, dtype=np.int64), counts)
    n = len(users)
    weights = 1.0 / np.arange(1, num_items + 1) ** zipf_exponent
    cdf = np.cumsum(weights / weights.sum())
    ranks = np.minimum(np.searchsorted(cdf, rng.random(n)), num_items - 1)
    global_perm = rng.permutation(num_items)
    cluster_perm = np.stack([rng.permutation(num_items) for _ in range(num_clusters)])
    cluster_of = rng.integers(0, num_clusters, num_users)
    own = rng.random(n) < cluster_share
    items = np.where(own, cluster_perm[cluster_of[users], ranks], global_perm[ranks])
    _, first = np.unique(users * num_items + items, return_index=True)
    first.sort()
    users, items = users[first], items[first]
    times = rng.integers(0, 10_000_000, len(users))
    return users, items.astype(np.int64), times
