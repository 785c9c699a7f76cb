"""Full-catalog ranking metrics: AUC, HR@K, NDCG@K, item-side metrics and
frequency-group improvement reports."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import group_by, group_reduce
from .errors import AdaptRegError


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


def _score_user(emb, split, u, stage):
    """Score user ``u`` once over the whole catalog.

    Returns None when the user has no positives for the stage, else
    ``(positives, ranks, auc)``: the positives as listed in the split, their
    1-based ranks among the candidates (every item not excluded for the
    stage; score descending, ties by ascending item id), and the AUC against
    the non-positive candidates (None when there are none). A stage's
    positives are distinct and disjoint from its excluded items.
    """
    if stage == "test":
        excluded = split.user_pos_train_val[u]
        positives = split.test[u]
    elif stage == "validation":
        excluded = split.user_pos_train[u]
        positives = split.val[u]
    else:
        raise ValueError(f"unknown stage {stage!r}")
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
    """(HR@k, NDCG@k) averaged over the user's test items."""
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


def corpus_metrics(emb, split, ks=(50, 100), stage="test",
                   item_metric_mode="item-specific"):
    """Unweighted per-user means over users with at least one positive, plus
    item-side aggregates.

    item_metric_mode: "item-specific" averages the hit/gain of the item itself
    in each test user's ranking; "user-average" averages the whole-user HR/NDCG
    of the item's test users.
    """
    ks = tuple(ks)
    scored = [_score_user(emb, split, u, stage) for u in range(split.num_users)]
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
    vals = []
    for u in range(split.num_users):
        a = user_auc(emb, split, u, stage)
        if a is not None:
            vals.append(a)
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
