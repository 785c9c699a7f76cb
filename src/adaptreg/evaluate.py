"""Full-catalog ranking metrics: AUC, HR@K, NDCG@K, item-side metrics and
frequency-group improvement reports.

``_score_user`` scores one user with a matrix-vector product and is the
reference for every metric here: ``user_auc`` and ``user_topk_ranks`` call it
directly. ``corpus_auc`` and ``corpus_metrics`` score every user through
``_score_corpus`` instead, which scores a block of users with one matrix
product and sorts each user's row of negatives once. The product sums in
another order than the matrix-vector one, so its scores differ in the last
bits. A comparison between two scores cannot flip, though, when their gap
exceeds twice the rounding-error bound of a dot product. So a user whose
positives each lie further than that band from every negative and from each
other positive is certified: its counts, ranks and AUC are exactly those of
``_score_user``, with no ties. Every other user, including every user with a
non-finite score, is scored again by ``_score_user``, so the results are
bit-identical to the per-user loop and a NaN is reported the same way.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import group_by, group_reduce
from .errors import AdaptRegError, ConfigError

# Scores per block of users in ``_score_corpus``: a block's float64 score
# matrix is at most 4 MB.
BLOCK_ELEMENTS = 1 << 19


def _below(sorted_scores, scores):
    """Per score: how many of ``sorted_scores`` lie strictly below it, and how
    many lie at or below it."""
    return (np.searchsorted(sorted_scores, scores, "left"),
            np.searchsorted(sorted_scores, scores, "right"))


def auc_from_scores(pos_scores, neg_scores, neg_sorted=False):
    """Mann-Whitney AUC with ties counting one half: each positive earns one
    per negative below it and one half per negative it ties. The numerator is
    a sum of half-integers, so it is exact. ``neg_sorted=True`` says that
    ``neg_scores`` is already ascending."""
    neg = neg_scores if neg_sorted else np.sort(neg_scores)
    lo, hi = _below(neg, pos_scores)
    return (lo.sum() + 0.5 * (hi - lo).sum()) / (len(pos_scores) * len(neg))


def _stage_lists(split, stage):
    """The per-user excluded items and positives of ``stage``."""
    if stage == "test":
        return split.user_pos_train_val, split.test
    if stage == "validation":
        return split.user_pos_train, split.val
    raise ValueError(f"unknown stage {stage!r}")


def _score_user(emb, split, u, stage):
    """Score user ``u`` once over the whole catalog.

    Returns None when the user has no positives for the stage, else
    ``(positives, ranks, auc)``: the positives as listed in the split, their
    1-based ranks among the candidates (every item not excluded for the
    stage; score descending, ties by ascending item id), and the AUC against
    the non-positive candidates (None when there are none). A stage's
    positives are distinct and disjoint from its excluded items.
    """
    excluded, positives = _stage_lists(split, stage)
    excluded, positives = excluded[u], positives[u]
    if len(positives) == 0:
        return None
    scores = emb.item @ emb.user[u]
    is_neg = np.ones(split.num_items, dtype=bool)
    is_neg[excluded] = False
    is_neg[positives] = False
    neg = scores[is_neg]
    neg.sort()
    pos = scores[positives]
    # sorting puts NaN last, where a rank would read it as the best score
    if np.isnan(pos).any() or (len(neg) and np.isnan(neg[-1])):
        is_nan = np.isnan(scores)
        is_nan[excluded] = False
        raise AdaptRegError(
            f"NaN score for user {u} at item {int(np.flatnonzero(is_nan)[0])}")
    auc = float(auc_from_scores(pos, neg, neg_sorted=True)) if len(neg) else None
    neg_lo, neg_hi = _below(neg, pos)
    pos_lo, pos_hi = _below(np.sort(pos), pos)
    ranks = 1 + len(neg) + len(pos) - neg_hi - pos_hi
    # a positive that ties another candidate also trails its lower-id ties
    for n in np.flatnonzero(neg_hi - neg_lo + pos_hi - pos_lo > 1):
        item, s = positives[n], pos[n]
        ranks[n] += (np.count_nonzero(is_neg[:item] & (scores[:item] == s))
                     + np.count_nonzero((positives < item) & (pos == s)))
    return positives, ranks, auc


def _bands(emb):
    """Per user, the half-width ``b`` of a band around each of the user's
    block-product scores ``g``: a block score below ``g - b`` (as rounded) is
    below ``g`` in the matrix-vector product too, and one above ``g + b``
    above it. ``inf`` where no band is known."""
    # Let u be the unit roundoff and t the smallest normal float. A K-term
    # dot product x·y summed in any order, with or without fused
    # multiply-adds, errs from the exact one by at most
    #     γ_K·Σ|x_k y_k| + α,   γ_K = Ku/(1 − Ku),   α = 4K·t
    # (Higham 2002, §3.1; α covers up to 2K − 1 roundings that each lose up
    # to t to underflow, gradual or flushed). By Cauchy-Schwarz that is at
    # most E = γ_K·‖x‖·M + α for a user row x, M = max_i ‖y_i‖, for the block
    # product's score g and the matrix-vector product's m alike, so
    # |g − m| ≤ 2E: g_n < g_p − 4E gives m_n < m_p, and g_n > g_p + 4E gives
    # m_n > m_p. The thresholds fl(g ± b) lie within u·(|g| + b) of g ± b,
    # and |g| ≤ ‖x‖·M + E, so they clear g ± 4E once
    # b·(1 − u) ≥ (4 + u)·E + u·‖x‖·M, which holds for
    #     b ≥ 4·γ_{K+2}·‖x‖·M + 5α.
    # A squared norm S comes out at least S·(1 − γ_K) − α, so the computed
    # sqrt(S + α) is at least ‖x‖·(1 − γ_{K+2}), and likewise for M. These
    # two estimates, their product and the constant lose under (2K + 12)·u
    # relative, which the factor 1 + 2^-20 covers for any K < 2^30; 8α
    # covers underflow in the products and the rounding of the sum. Where
    # 4·‖x‖·M overflows, a partial sum may overflow in one product and not
    # in the other, so b = inf.
    fi = np.finfo(np.float64)
    K = emb.dim
    unit, alpha = fi.eps / 2, 4 * K * fi.tiny
    gamma = (K + 2) * unit / (1 - (K + 2) * unit)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = lambda f: np.sqrt(np.einsum("ij,ij->i", f, f) + alpha)
        t = norms(emb.user) * (norms(emb.item).max() if emb.num_items else 0.0)
        return np.where(4 * t < np.inf, 4 * gamma * (1 + 2.0**-20) * t + 8 * alpha,
                        np.inf)


def _score_corpus(emb, split, stage):
    """``[_score_user(emb, split, u, stage) for u in range(num_users)]``, bit
    for bit, scoring ``BLOCK_ELEMENTS // num_items`` users per matrix product.

    Each block's excluded items and positives are set to +inf and each row is
    sorted, so a user's negatives lead its row in ascending order. A user is
    certified when its scores and bands are finite, no negative lies within
    the band of a positive and its positives lie more than the band apart.
    Then the negatives below each positive and the positives at or below it
    are exact counts with no ties, and they give ``_score_user``'s ranks and
    AUC. ``_score_user`` scores every other user.
    """
    excluded, positives = _stage_lists(split, stage)
    U, I = split.num_users, split.num_items
    if np.result_type(emb.user, emb.item) != np.float64:
        return [_score_user(emb, split, u, stage) for u in range(U)]
    bands = _bands(emb)
    out = [None] * U
    step = max(1, BLOCK_ELEMENTS // max(I, 1))
    block = np.empty((min(step, U), I))
    for a in range(0, U, step):
        b = min(a + step, U)
        # each block user's positives are items[bounds[r]:bounds[r + 1]]
        bounds = positives.offsets[a:b + 1] - positives.offsets[a]
        n_pos = np.diff(bounds)
        if not n_pos.any():
            continue
        n_exc = np.diff(excluded.offsets[a:b + 1])
        n_neg = I - n_exc - n_pos
        rows = np.arange(b - a)
        prow = np.repeat(rows, n_pos)
        items = positives.flat[positives.offsets[a]:positives.offsets[b]]
        scores = np.matmul(emb.user[a:b], emb.item.T, out=block[:b - a])
        g = scores[prow, items]
        scores[prow, items] = np.inf
        scores[np.repeat(rows, n_exc),
               excluded.flat[excluded.offsets[a]:excluded.offsets[b]]] = np.inf
        scores.sort(axis=1)
        with np.errstate(invalid="ignore"):
            lo_t, hi_t = g - bands[a + prow], g + bands[a + prow]
        last = scores[rows, np.maximum(n_neg - 1, 0)]
        ok = (n_neg == 0) | (np.isfinite(scores[:, 0]) & np.isfinite(last))
        ok[prow[~(np.isfinite(lo_t) & np.isfinite(hi_t))]] = False
        # positives in ascending score order within each user; each must
        # clear the band of the one below it
        order = np.lexsort((g, prow))
        rs = prow[order]
        ok[rs[1:][(rs[1:] == rs[:-1]) & ~(g[order][1:] > hi_t[order][:-1])]] = False
        pos_hi = np.empty_like(prow)
        pos_hi[order] = np.arange(1, len(order) + 1) - bounds[rs]
        lo, hi = np.zeros_like(prow), np.zeros_like(prow)
        cuts = bounds.tolist()
        for r in np.flatnonzero(ok & (n_pos > 0)).tolist():
            s, neg = slice(cuts[r], cuts[r + 1]), scores[r, :n_neg[r]]
            lo[s] = neg.searchsorted(lo_t[s], "left")
            hi[s] = neg.searchsorted(hi_t[s], "right")
        ok[prow[lo != hi]] = False
        ranks = 1 + n_neg[prow] + n_pos[prow] - lo - pos_hi
        # an exact integer over an exact integer: _score_user's one division
        with np.errstate(divide="ignore", invalid="ignore"):
            aucs = np.bincount(prow, lo, b - a) / (n_pos * n_neg)
        for r in np.flatnonzero(n_pos).tolist():
            if ok[r]:
                s = slice(cuts[r], cuts[r + 1])
                out[a + r] = (items[s], ranks[s], float(aucs[r]) if n_neg[r] else None)
            else:
                out[a + r] = _score_user(emb, split, a + r, stage)
    return out


def user_auc(emb, split, u, stage="test"):
    """AUC of user ``u`` at ``stage`` ("test" or "validation"): the probability
    that a random positive of that partition outranks a random item that is
    neither one of them nor excluded for the stage. None when the user has no
    positives or no such items there."""
    scored = _score_user(emb, split, u, stage)
    return None if scored is None else scored[2]


def user_topk_ranks(emb, split, u, stage="test"):
    """1-based ranks of the user's positives in the full-catalog candidate
    ranking (score descending, ties by ascending item id)."""
    scored = _score_user(emb, split, u, stage)
    return None if scored is None else scored[1]


def _hits_gains(ranks, k):
    """Per positive: whether its rank is within ``k``, and its discounted gain
    ``1 / log2(rank + 1)`` there (0 beyond)."""
    hits = ranks <= k
    return hits, np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)


def user_topk(emb, split, u, k, stage="test"):
    """(HR@k, NDCG@k) averaged over the user's positives at ``stage``."""
    ranks = user_topk_ranks(emb, split, u, stage)
    if ranks is None:
        return None
    hits, gains = _hits_gains(ranks, k)
    return float(hits.mean()), float(gains.mean())


@dataclass
class MetricReport:
    ks: tuple
    auc: float
    hr: dict                      # k -> corpus mean
    ndcg: dict
    user_ids: np.ndarray          # users with >= 1 test item
    user_auc: np.ndarray
    user_hr: dict                 # k -> per-user vector
    user_ndcg: dict
    item_ids: dict = field(default_factory=dict)    # k -> item id vector
    item_hr: dict = field(default_factory=dict)     # k -> per-item vector
    item_ndcg: dict = field(default_factory=dict)
    skipped_users: int = 0


ITEM_METRIC_MODES = ("item-specific", "user-average")


def corpus_metrics(emb, split, ks=(50, 100), stage="test",
                   item_metric_mode="item-specific"):
    """Unweighted per-user means over users with at least one positive and
    one negative candidate (the others count as skipped), plus item-side
    aggregates.

    ks: the cutoffs, distinct positive integers (``ConfigError`` otherwise).
    item_metric_mode: "item-specific" averages the hit/gain of the item itself
    in each test user's ranking; "user-average" averages the whole-user HR/NDCG
    of the item's test users; any other mode is a ``ConfigError``.
    """
    if item_metric_mode not in ITEM_METRIC_MODES:
        raise ConfigError(f"item_metric_mode must be one of {ITEM_METRIC_MODES}, "
                          f"got {item_metric_mode!r}")
    ks = tuple(ks)
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
            raise ConfigError(f"ks must be positive integers, got {k!r}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"ks must not repeat a k, got {ks}")
    scored = _score_corpus(emb, split, stage)
    user_ids = [u for u, s in enumerate(scored) if s is not None and s[2] is not None]
    scored = [scored[u] for u in user_ids]
    aucs = np.asarray([s[2] for s in scored])
    # each user's positives are one run of the concatenated arrays; grouping
    # them by item with a stable sort keeps each item's values in user order,
    # the order its mean must sum them in
    counts = np.asarray([len(s[0]) for s in scored], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    items, ranks = (np.concatenate([s[n] for s in scored] or [np.empty(0, np.int64)])
                    for n in (0, 1))
    item_ids, order, item_starts, item_counts = group_by(items)
    item_ids = item_ids.astype(np.int64)
    user_hr, user_ndcg, item_hr, item_ndcg = {}, {}, {}, {}
    for k in ks:
        hits, gains = _hits_gains(ranks, k)
        hits = hits.astype(np.float64)
        user_hr[k] = group_reduce(hits, starts, counts)
        user_ndcg[k] = group_reduce(gains, starts, counts)
        if item_metric_mode != "item-specific":
            hits, gains = np.repeat(user_hr[k], counts), np.repeat(user_ndcg[k], counts)
        item_hr[k] = group_reduce(hits[order], item_starts, item_counts)
        item_ndcg[k] = group_reduce(gains[order], item_starts, item_counts)
    return MetricReport(
        ks=ks,
        auc=float(aucs.mean()) if len(aucs) else float("nan"),
        hr={k: float(np.mean(user_hr[k])) for k in ks},
        ndcg={k: float(np.mean(user_ndcg[k])) for k in ks},
        user_ids=np.asarray(user_ids, dtype=np.int64),
        user_auc=aucs,
        user_hr=user_hr,
        user_ndcg=user_ndcg,
        item_ids={k: item_ids for k in ks},
        item_hr=item_hr, item_ndcg=item_ndcg,
        skipped_users=split.num_users - len(user_ids),
    )


def corpus_auc(emb, split, stage="validation"):
    """Mean AUC over the users with at least one positive and one negative
    for the stage: the in-training validation metric."""
    vals = [s[2] for s in _score_corpus(emb, split, stage)
            if s is not None and s[2] is not None]
    return float(np.mean(vals)) if vals else float("nan")


def group_improvement_report(values_a, values_b, entity_ids_a, entity_ids_b, groups):
    """Per-group relative deltas (mean_b - mean_a) / mean_a over the shared
    entity universe; empty or zero-baseline groups carry a note instead."""
    shared, ia, ib = np.intersect1d(entity_ids_a, entity_ids_b, return_indices=True)
    groups = np.asarray(groups)
    ids, order, starts, counts = group_by(groups[shared])
    means_a = group_reduce(np.asarray(values_a)[ia][order], starts, counts)
    means_b = group_reduce(np.asarray(values_b)[ib][order], starts, counts)
    found = dict(zip(ids.tolist(), zip(counts.tolist(), means_a.tolist(), means_b.tolist())))
    out = []
    for g in range(int(groups.max()) + 1 if len(groups) else 0):
        if g not in found:
            out.append({"group": g, "size": 0, "delta": None, "note": "empty group"})
            continue
        size, ma, mb = found[g]
        zero = ma == 0.0
        out.append({"group": g, "size": size, "mean_a": ma, "mean_b": mb,
                    "delta": None if zero else (mb - ma) / ma,
                    "note": "zero baseline" if zero else ""})
    return out


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_report_summary(path, report):
    with open(path, "w") as fh:
        fh.write(f"auc {report.auc:.6f}\n")
        for k in report.ks:
            fh.write(f"hr@{k} {report.hr[k]:.6f}\n")
            fh.write(f"ndcg@{k} {report.ndcg[k]:.6f}\n")
        fh.write(f"users_evaluated {len(report.user_ids)}\n")
        fh.write(f"users_skipped {report.skipped_users}\n")


def write_per_entity(path_prefix, report):
    """Per-user and per-item delimited metric files."""
    upath = f"{path_prefix}_users.csv"
    with open(upath, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["user", "auc"]
        for k in report.ks:
            header += [f"hr@{k}", f"ndcg@{k}"]
        w.writerow(header)
        for n, u in enumerate(report.user_ids):
            row = [int(u), f"{report.user_auc[n]:.6f}"]
            for k in report.ks:
                row += [f"{report.user_hr[k][n]:.6f}", f"{report.user_ndcg[k][n]:.6f}"]
            w.writerow(row)
    ipath = f"{path_prefix}_items.csv"
    with open(ipath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item", "k", "hr", "ndcg"])
        for k in report.ks:
            for n, it in enumerate(report.item_ids[k]):
                w.writerow([int(it), k, f"{report.item_hr[k][n]:.6f}",
                            f"{report.item_ndcg[k][n]:.6f}"])
    return upath, ipath
