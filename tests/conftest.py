import csv
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from adaptreg.data import InteractionLog, SplitDataset, chronological_split
from adaptreg.errors import EmptyCorpusError, ParseError
from adaptreg.mf import Embeddings, TripletBatch


def toy_log(events, num_users=None, num_items=None):
    """Build an InteractionLog from (user, item, timestamp) tuples."""
    users = np.asarray([e[0] for e in events], dtype=np.int64)
    items = np.asarray([e[1] for e in events], dtype=np.int64)
    times = np.asarray([e[2] for e in events], dtype=np.int64)
    return InteractionLog(
        users=users, items=items, times=times,
        num_users=num_users if num_users is not None else int(users.max()) + 1,
        num_items=num_items if num_items is not None else int(items.max()) + 1,
        user_tokens=[], item_tokens=[],
    )


def random_instance(seed, num_users=5, num_items=8, dim=4, scale=0.3):
    rng = np.random.default_rng(seed)
    emb = Embeddings.init(num_users, num_items, dim, scale, rng)
    return emb, rng


def oracle_index_maps(granularity, num_users, num_items, dim):
    """(|U|,K) and (|I|,K) maps from each embedding coordinate to the flat
    coefficient entry it reads, built coordinate by coordinate: the layout
    reference for ``RegCoefficients``."""
    U, I, K = num_users, num_items, dim
    uu, kk = np.meshgrid(np.arange(U), np.arange(K), indexing="ij")
    ii, ki = np.meshgrid(np.arange(I), np.arange(K), indexing="ij")
    if granularity == "global":
        return np.zeros((U, K), dtype=np.int64), np.zeros((I, K), dtype=np.int64)
    if granularity == "dim":
        return kk, ki
    if granularity == "user":
        return uu, np.full((I, K), U, dtype=np.int64)
    if granularity == "item":
        return np.full((U, K), I, dtype=np.int64), ii
    if granularity == "user-dim":
        return uu * K + kk, U * K + ki
    if granularity == "item-dim":
        return kk, K + ii * K + ki
    assert granularity == "full"
    return uu * K + kk, U * K + ii * K + ki


def random_batch(rng, num_users, num_items, size):
    return TripletBatch(
        users=rng.integers(0, num_users, size),
        pos=rng.integers(0, num_items, size),
        neg=rng.integers(0, num_items, size),
    )


# ---------------------------------------------------------------------------
# Training-step kernel oracles: the numpy BPR kernel that scatters with
# np.add.at into zeros and leaves the loss to a second scoring pass, and the
# Adam row step that gathers each moment again for every use.
# ---------------------------------------------------------------------------

def oracle_bpr_grad_batch(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, n_users, n_items):
    gu = np.zeros((n_users, uf.shape[1]))
    gi = np.zeros((n_items, uf.shape[1]))
    diff = itf[pos] - itf[neg]
    x = np.einsum("tk,tk->t", uf[users], diff)
    d = np.empty_like(x)
    nonneg = x >= 0
    e = np.exp(-x[nonneg])
    d[nonneg] = -e / (1.0 + e)
    d[~nonneg] = -1.0 / (1.0 + np.exp(x[~nonneg]))
    du = d[:, None] * diff
    dv = d[:, None] * uf[users]
    np.add.at(gu, u_inv, du)
    np.add.at(gi, p_inv, dv)
    np.add.at(gi, n_inv, -dv)
    x = np.einsum("tk,tk->t", uf[users], itf[pos] - itf[neg])
    return float(np.sum(np.logaddexp(0.0, -x))), gu, gi


def oracle_adam_step(param, s, r, rows, g, lr, c, b1, b2, eps):
    s[rows] = b1 * s[rows] + (1.0 - b1) * g
    r[rows] = b2 * r[rows] + (1.0 - b2) * g * g
    param[rows] -= lr * c * s[rows] / (np.sqrt(r[rows]) + eps)


@pytest.fixture(scope="session")
def small_split():
    from _synth import SMALL_SPLIT, make_split
    return make_split(**SMALL_SPLIT)


# ---------------------------------------------------------------------------
# Per-user evaluation oracle: gather the candidates, score them, midrank AUC
# and lexsort ranks, each function rebuilding the candidates on its own.
# ---------------------------------------------------------------------------

def average_ranks(scores):
    """1-based ranks ascending by score, ties averaged (midranks)."""
    uniq, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    csum = np.cumsum(counts)
    start = csum - counts + 1
    mean_rank = (start + csum) / 2.0
    return mean_rank[inv]


def oracle_auc_from_scores(pos_scores, neg_scores):
    npos, nneg = len(pos_scores), len(neg_scores)
    allsc = np.concatenate([pos_scores, neg_scores])
    ranks = average_ranks(allsc)
    rsum = ranks[:npos].sum()
    return (rsum - npos * (npos + 1) / 2.0) / (npos * nneg)


def oracle_candidates(split, u, stage):
    """Candidate item ids (ascending) and this user's positives for the stage."""
    if stage == "test":
        excluded = (split.train[u], split.val[u])
        positives = split.test[u]
    else:
        assert stage == "validation"
        excluded = (split.train[u],)
        positives = split.val[u]
    mask = np.ones(split.num_items, dtype=bool)
    for items in excluded:
        mask[items] = False
    return np.flatnonzero(mask), positives


def oracle_user_auc(emb, split, u, stage="test"):
    cands, positives = oracle_candidates(split, u, stage)
    if len(positives) == 0:
        return None
    scores = emb.item[cands] @ emb.user[u]
    pos_mask = np.isin(cands, positives)
    if (~pos_mask).sum() == 0:
        return None
    return float(oracle_auc_from_scores(scores[pos_mask], scores[~pos_mask]))


def oracle_user_topk_ranks(emb, split, u, stage="test"):
    cands, positives = oracle_candidates(split, u, stage)
    if len(positives) == 0:
        return None
    scores = emb.item[cands] @ emb.user[u]
    order = np.lexsort((cands, -scores))
    rank_of = np.empty(len(cands), dtype=np.int64)
    rank_of[order] = np.arange(1, len(cands) + 1)
    pos_idx = np.searchsorted(cands, positives)
    return rank_of[pos_idx]


def oracle_corpus_auc(emb, split, stage="validation"):
    vals = [oracle_user_auc(emb, split, u, stage) for u in range(split.num_users)]
    vals = [a for a in vals if a is not None]
    return float(np.mean(vals)) if vals else float("nan")


def oracle_corpus_metrics(emb, split, ks=(50, 100), stage="test",
                          item_metric_mode="item-specific"):
    """``corpus_metrics`` built on the oracle's per-user functions: the
    per-user loop with one list per k for each metric and the item-metric
    mode branched inside it, as ``corpus_metrics`` was before it averaged
    through ``data.group_reduce``."""
    from adaptreg.evaluate import MetricReport
    user_ids, aucs = [], []
    per_user_hr = {k: [] for k in ks}
    per_user_ndcg = {k: [] for k in ks}
    item_hits = {k: {} for k in ks}
    item_gains = {k: {} for k in ks}
    skipped = 0
    for u in range(split.num_users):
        ranks = oracle_user_topk_ranks(emb, split, u, stage)
        a = None if ranks is None else oracle_user_auc(emb, split, u, stage)
        if a is None:
            skipped += 1
            continue
        user_ids.append(u)
        aucs.append(a)
        positives = split.test[u] if stage == "test" else split.val[u]
        for k in ks:
            hits = ranks <= k
            gains = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
            hr_u, ndcg_u = float(hits.mean()), float(gains.mean())
            per_user_hr[k].append(hr_u)
            per_user_ndcg[k].append(ndcg_u)
            for it, h, g in zip(positives, hits, gains):
                if item_metric_mode == "item-specific":
                    h, g = float(h), float(g)
                else:
                    h, g = hr_u, ndcg_u
                item_hits[k].setdefault(int(it), []).append(h)
                item_gains[k].setdefault(int(it), []).append(g)
    aucs = np.asarray(aucs)
    item_ids = {k: np.asarray(sorted(item_hits[k]), dtype=np.int64) for k in ks}
    return MetricReport(
        ks=tuple(ks),
        auc=float(aucs.mean()) if len(aucs) else float("nan"),
        hr={k: float(np.mean(per_user_hr[k])) for k in ks},
        ndcg={k: float(np.mean(per_user_ndcg[k])) for k in ks},
        user_ids=np.asarray(user_ids, dtype=np.int64),
        user_auc=aucs,
        user_hr={k: np.asarray(per_user_hr[k]) for k in ks},
        user_ndcg={k: np.asarray(per_user_ndcg[k]) for k in ks},
        item_ids=item_ids,
        item_hr={k: np.asarray([np.mean(item_hits[k][i]) for i in item_ids[k]])
                 for k in ks},
        item_ndcg={k: np.asarray([np.mean(item_gains[k][i]) for i in item_ids[k]])
                   for k in ks},
        skipped_users=skipped,
    )


# ---------------------------------------------------------------------------
# Group-mean oracles: the loops over ``x[groups == g]`` that
# ``data.group_by`` and ``data.group_reduce`` replaced.
# ---------------------------------------------------------------------------

def oracle_record_trajectory(lam, step, user_groups, item_groups):
    from adaptreg.adaptive import TrajectoryRow
    u_means = np.ascontiguousarray(lam.user_dense()).mean(axis=1)
    i_means = np.ascontiguousarray(lam.item_dense()).mean(axis=1)
    rows = []
    for groups, means in ((user_groups, u_means), (item_groups, i_means)):
        stats = []
        for g in range(int(groups.max()) + 1 if len(groups) else 0):
            members = means[groups == g]
            if len(members) == 0:
                continue
            stats.append((g, len(members), float(members.mean()),
                          float(members.var())))
        rows.append(stats)
    return TrajectoryRow(
        step=step, user_mean=float(u_means.mean()), item_mean=float(i_means.mean()),
        user_var=float(u_means.var()), item_var=float(i_means.var()),
        user_group_stats=rows[0], item_group_stats=rows[1])


def oracle_group_mean_freq(freqs, groups):
    out = []
    for g in range(int(groups.max()) + 1 if len(groups) else 0):
        members = freqs[groups == g]
        out.append(members.mean() if len(members) else 0.0)
    return np.asarray(out, dtype=np.float64)


def oracle_group_improvement_report(values_a, values_b, entity_ids_a, entity_ids_b,
                                    groups):
    shared, ia, ib = np.intersect1d(entity_ids_a, entity_ids_b, return_indices=True)
    va, vb = np.asarray(values_a)[ia], np.asarray(values_b)[ib]
    glabels = np.asarray(groups)[shared]
    out = []
    for g in range(int(np.asarray(groups).max()) + 1 if len(groups) else 0):
        mask = glabels == g
        size = int(mask.sum())
        if size == 0:
            out.append({"group": g, "size": 0, "delta": None, "note": "empty group"})
            continue
        ma, mb = float(va[mask].mean()), float(vb[mask].mean())
        if ma == 0.0:
            out.append({"group": g, "size": size, "mean_a": ma, "mean_b": mb,
                        "delta": None, "note": "zero baseline"})
        else:
            out.append({"group": g, "size": size, "mean_a": ma, "mean_b": mb,
                        "delta": (mb - ma) / ma, "note": ""})
    return out


# ---------------------------------------------------------------------------
# Data-layer oracles: the per-user split and index build, the per-event id
# remap, the unsorted membership probe and the two file readers that group
# rows through Python dicts, which the whole-array forms in ``adaptreg.data``
# replaced.
# ---------------------------------------------------------------------------

def oracle_chronological_split(log, ratios=(0.6, 0.2, 0.2)):
    U, I = log.num_users, log.num_items
    per_user = [[] for _ in range(U)]
    for n in range(len(log)):
        per_user[log.users[n]].append(n)
    train, val, test = [], [], []
    train_t, val_t, test_t = [], [], []
    degenerate = []
    for u in range(U):
        idx = np.asarray(per_user[u], dtype=np.int64)
        order = np.argsort(log.times[idx], kind="stable")
        idx = idx[order]
        n = len(idx)
        n_train = math.ceil(ratios[0] * n)
        n_val = min(math.ceil(ratios[1] * n), n - n_train)
        tr, va, te = idx[:n_train], idx[n_train:n_train + n_val], idx[n_train + n_val:]
        if len(va) == 0 or len(te) == 0:
            degenerate.append(u)
        train.append(log.items[tr])
        val.append(log.items[va])
        test.append(log.items[te])
        train_t.append(log.times[tr])
        val_t.append(log.times[va])
        test_t.append(log.times[te])
    return oracle_build_split(U, I, train, val, test, train_t, val_t, test_t, degenerate)


def oracle_build_split(U, I, train, val, test, train_t, val_t, test_t, degenerate):
    tr_u = np.concatenate([np.full(len(t), u, dtype=np.int64) for u, t in enumerate(train)]) \
        if U else np.empty(0, dtype=np.int64)
    tr_i = np.concatenate(train) if U else np.empty(0, dtype=np.int64)
    va_u = np.concatenate([np.full(len(v), u, dtype=np.int64) for u, v in enumerate(val)]) \
        if U else np.empty(0, dtype=np.int64)
    va_i = np.concatenate(val) if U else np.empty(0, dtype=np.int64)
    train_keys = np.sort(tr_u * I + tr_i)
    val_keys = np.sort(va_u * I + va_i)
    item_freq = np.bincount(tr_i, minlength=I).astype(np.int64)
    user_freq = np.asarray([len(t) for t in train], dtype=np.int64)
    return SplitDataset(
        num_users=U, num_items=I,
        train=train, val=val, test=test,
        train_times=train_t, val_times=val_t, test_times=test_t,
        train_keys=train_keys, val_keys=val_keys,
        train_event_user=tr_u, val_event_user=va_u,
        item_frequency=item_freq, user_frequency=user_freq,
        degenerate_users=degenerate,
    )


def oracle_redensify(ids, tokens):
    mapping = {}
    out = np.empty_like(ids)
    new_tokens = []
    for n, old in enumerate(ids):
        old = int(old)
        if old not in mapping:
            mapping[old] = len(new_tokens)
            new_tokens.append(tokens[old] if tokens else str(old))
        out[n] = mapping[old]
    return out, new_tokens


def oracle_member(key_arrays, u, j, num_items):
    keys = u * num_items + j
    hit = np.zeros(len(keys), dtype=bool)
    for sorted_keys in key_arrays:
        if len(sorted_keys):
            pos = np.searchsorted(sorted_keys, keys)
            pos_c = np.minimum(pos, len(sorted_keys) - 1)
            hit |= (pos < len(sorted_keys)) & (sorted_keys[pos_c] == keys)
    return hit


def oracle_time(text):
    """Integer text exactly, any other number through float."""
    try:
        return int(text)
    except ValueError:
        return int(float(text))


def oracle_load_interactions(path, delimiter=",", has_header=False,
                             user_col=0, item_col=1, time_col=2):
    """Keep each (user, item) token pair's first-row order and earliest
    timestamp in a dict, sort the pairs, then assign ids pair by pair."""
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
                ts = oracle_time(row[time_col])
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


def oracle_load_manifest(path):
    """Group the rows into per-user dicts of per-partition lists, then build
    each user's arrays and degenerate flag one user at a time."""
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
    return oracle_build_split(U, num_items, train, val, test,
                              train_t, val_t, test_t, degenerate)
