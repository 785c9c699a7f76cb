"""Full-catalog ranking metrics: AUC, HR@K, NDCG@K, item-side metrics and
frequency-group improvement reports.

``_score_user`` scores one user with a matrix-vector product and is the
reference for every metric here: ``user_auc`` and ``user_topk_ranks`` call it
directly. It places the user's positives by exact counts of the candidates
below each, from two comparison passes over its scores per positive.

``corpus_auc`` and ``corpus_metrics`` read ``_score_corpus`` instead: flat
arrays of every positive's rank and every user's AUC, from one float64 matrix
product per block of users and one row sort of its scores rounded to float32.
Its scores differ from the matrix-vector product's in the last bits, so it
keeps only the users whose order no such difference can flip (``_bands``),
and whose counts the rounding to float32 cannot change. ``_score_user``
scores every other user again, including every user with a non-finite
score, so the results are bit-identical to the per-user loop and a NaN is
reported the same way.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import group_by, group_reduce
from .errors import AdaptRegError, ConfigError

# Scores per block of users in ``_score_corpus``: a block's float64 score
# matrix is at most 4 MB, and its float32 sort keys take its first half.
BLOCK_ELEMENTS = 1 << 19


def _below(sorted_scores, scores):
    """Per score: how many of ``sorted_scores`` lie strictly below it, and how
    many lie at or below it."""
    return (np.searchsorted(sorted_scores, scores, "left"),
            np.searchsorted(sorted_scores, scores, "right"))


def _count_below(values, at):
    """Per threshold of ``at``: how many of the unsorted ``values`` lie
    strictly below it, and how many at or below it, from one comparison pass
    each. NaN counts in neither."""
    lo, hi = np.empty(len(at), np.intp), np.empty(len(at), np.intp)
    buf = np.empty(len(values), dtype=bool)
    for n, t in enumerate(at):
        lo[n] = np.count_nonzero(np.less(values, t, out=buf))
        hi[n] = np.count_nonzero(np.less_equal(values, t, out=buf))
    return lo, hi


def _auc(lo, hi, n_neg):
    """Mann-Whitney AUC from each positive's count of negatives strictly
    below it (``lo``) and at or below it (``hi``): one per negative below and
    one half per negative tied. The numerator is a sum of half-integers, so
    it is exact."""
    return (lo.sum() + 0.5 * (hi - lo).sum()) / (len(lo) * n_neg)


def auc_from_scores(pos_scores, neg_scores):
    """Mann-Whitney AUC with ties counting one half; None when either side
    is empty."""
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        return None
    return _auc(*_below(np.sort(neg_scores), pos_scores), len(neg_scores))


def _stage_lists(split, stage):
    """The partitions whose items ``stage`` excludes, and its positives."""
    if stage == "test":
        return (split.train, split.val), split.test
    if stage == "validation":
        return (split.train,), split.val
    raise ValueError(f"unknown stage {stage!r}")


def _check_nan(scores, excluded, u):
    """Raise for the lowest-id NaN score of user ``u`` outside ``excluded``."""
    is_nan = np.isnan(scores)
    is_nan[excluded] = False
    if is_nan.any():
        raise AdaptRegError(
            f"NaN score for user {u} at item {int(np.flatnonzero(is_nan)[0])}")


def _score_user(emb, split, u, stage):
    """Score user ``u`` once over the whole catalog.

    Returns None when the user has no positives for the stage, else
    ``(positives, ranks, auc)``: the positives as listed in the split, their
    1-based ranks among the candidates (every item not excluded for the
    stage; score descending, ties by ascending item id), and the AUC against
    the non-positive candidates (None when there are none). A stage's
    positives are distinct and disjoint from its excluded items.

    Each positive's rank and AUC term come from its counts of negatives
    below and at or below it: counts over every score less those over the
    excluded items and the positives.
    """
    excluded, positives = _stage_lists(split, stage)
    # only counted, masked or compared with, so their order does not matter
    excluded, positives = np.concatenate([p[u] for p in excluded]), positives[u]
    P, I = len(positives), split.num_items
    if P == 0:
        return None
    with np.errstate(invalid="ignore"):  # a NaN at an excluded item is no error
        scores = emb.item @ emb.user[u]
    pos = scores[positives]
    n_neg = I - len(excluded) - P
    # a maximum is NaN when any score is; only a candidate's NaN counts
    if np.isnan(scores.max()):
        _check_nan(scores, excluded, u)
    # counted over every score, then less the excluded ones and the
    # positives: a +inf mask on them would count them at or below a +inf
    # positive
    pos_lo, pos_hi = _below(np.sort(pos), pos)
    all_lo, all_hi = _count_below(scores, pos)
    exc_lo, exc_hi = _below(np.sort(scores[excluded]), pos)
    neg_lo, neg_hi = all_lo - exc_lo - pos_lo, all_hi - exc_hi - pos_hi
    auc = float(_auc(neg_lo, neg_hi, n_neg)) if n_neg else None
    ranks = 1 + n_neg + P - neg_hi - pos_hi
    # a positive that ties another candidate also trails its lower-id ties
    for n in np.flatnonzero(neg_hi - neg_lo + pos_hi - pos_lo > 1):
        item, s = positives[n], pos[n]
        ranks[n] += (np.count_nonzero(scores[:item] == s)
                     - np.count_nonzero((excluded < item) & (scores[excluded] == s)))
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


def _float32_keys(scores):
    """The C-ordered float64 ``scores`` rounded to float32, written over the
    first half of their own buffer and returned as an array of their shape.

    Row 0 is rounded into a one-row copy first. Then rows ``[n, 2n)`` for
    n = 1, 2, 4, ... land in the bytes of rows ``[n/2, n)``, which lie wholly
    before them and were read already, so no run overlaps what it reads and
    numpy makes no copy. Row 0 is written last, from its copy."""
    keys = scores.reshape(-1).view(np.float32)[:scores.size].reshape(scores.shape)
    head = scores[0].astype(np.float32)
    n = 1
    while n < len(scores):
        keys[n:2 * n] = scores[n:2 * n]
        n *= 2
    keys[0] = head
    return keys


def _score_corpus(emb, split, stage):
    """Every user's ``_score_user`` results, bit for bit, as ``ranks``
    aligned with the stage's ``positives.flat`` and one AUC per user in
    ``aucs``, NaN where ``_score_user`` gives None.

    A block of ``BLOCK_ELEMENTS // num_items`` users is one float64 matrix
    product, from which each positive's score ``g`` is read. The block is
    then rounded to float32 keys in place (``_float32_keys``), and each row
    of keys is sorted with the user's excluded items and positives at +inf.
    A user is certified when its band is finite, its positives lie more than
    the band apart in float64, and no negative's key lies in
    ``[f32(g - b), f32(g + b)]`` for a positive's band ``b``; then exact
    counts give its ranks and AUC. ``_score_user`` scores every other user,
    in ascending order.

    The keys give the float64 scores' counts because rounding to nearest
    is monotone: ``f32(s) < f32(t)`` implies ``s < t``, and ``f32(s) > f32(t)``
    implies ``s > t``, also where a finite score past the float32 range
    rounds to ±inf. So for a certified user every negative's score lies
    below ``g - b`` or above ``g + b``, and its count of keys below
    ``f32(g - b)`` is its count of scores below ``g - b``. A user with a key
    inside that interval falls back, as a near-tied user does."""
    excluded, positives = _stage_lists(split, stage)
    U, I = split.num_users, split.num_items
    ranks, aucs = np.empty(len(positives.flat), np.int64), np.full(U, np.nan)
    cuts = positives.offsets.tolist()

    def score_users(users):
        for u in users:
            scored = _score_user(emb, split, u, stage)
            if scored is not None:
                ranks[cuts[u]:cuts[u + 1]] = scored[1]
                aucs[u] = np.nan if scored[2] is None else scored[2]

    if np.result_type(emb.user, emb.item) != np.float64:
        score_users(range(U))
        return ranks, aucs
    bands = _bands(emb)
    step = max(1, BLOCK_ELEMENTS // max(I, 1))
    block = np.empty((min(step, U), I))
    for a in range(0, U, step):
        b = min(a + step, U)
        if cuts[a] == cuts[b]:
            continue
        n_pos = np.diff(positives.offsets[a:b + 1])
        n_exc = [np.diff(p.offsets[a:b + 1]) for p in excluded]
        n_neg = I - sum(n_exc) - n_pos
        rows = np.arange(b - a)
        prow = np.repeat(rows, n_pos)
        # each positive's and each excluded item's entry of the C-ordered
        # block and of its keys
        start = prow * I
        at = start + positives.flat[cuts[a]:cuts[b]]
        # a score past the float32 range rounds to an infinite key
        with np.errstate(invalid="ignore", over="ignore"):
            scores = np.matmul(emb.user[a:b], emb.item.T, out=block[:b - a])
            g = np.take(scores.reshape(-1), at)
            keys = _float32_keys(scores)
            flat = keys.reshape(-1)
            flat[at] = np.inf
            for p, n in zip(excluded, n_exc):
                flat[np.repeat(rows * I, n) + p.flat[p.offsets[a]:p.offsets[b]]] = np.inf
            keys.sort(axis=1)
            lo_t, hi_t = g - bands[a + prow], g + bands[a + prow]
            lo_k, hi_k = lo_t.astype(np.float32), hi_t.astype(np.float32)
        # a finite band bounds every partial sum of the user's dot products
        # (``_bands``), so its scores, lo_t and hi_t are finite too
        ok = np.isfinite(bands[a:b]) & (n_pos > 0)
        # each positive must clear the band of its user's next lower one. The
        # positives in score order, then stably by row: a 1- or 2-byte key
        # for up to 65,536 rows, which numpy sorts by radix. A user with tied
        # or NaN scores fails the check, so only certified users' order counts.
        order = np.argsort(g)
        order = order[np.argsort(prow[order].astype(np.min_scalar_type(b - a - 1)),
                                 kind="stable")]
        rs = prow[order]
        ok[rs[1:][(rs[1:] == rs[:-1]) & ~(g[order][1:] > hi_t[order][:-1])]] = False
        pos_hi = np.empty_like(prow)
        pos_hi[order] = np.arange(cuts[a] + 1, cuts[b] + 1) - positives.offsets[a + rs]
        # lo: each positive's count of row keys below lo_k, by a branchless
        # binary search of all rows at once. A row ends in a +inf mask or NaN,
        # so flat[lo] stays in it; for a certified user it is the next negative
        # or a mask, which exceeds hi_k iff no negative key lies in [lo_k, hi_k].
        lo, n = start.copy(), I
        while n > 1:
            lo += n // 2 * (np.take(flat, lo + n // 2) < lo_k)
            n -= n // 2
        lo += np.take(flat, lo) < lo_k
        ok[prow[~(np.take(flat, lo) > hi_k)]] = False
        lo -= start
        ranks[cuts[a]:cuts[b]] = 1 + n_neg[prow] + n_pos[prow] - lo - pos_hi
        # an exact integer over an exact integer: _score_user's one division
        with np.errstate(divide="ignore", invalid="ignore"):
            aucs[a:b] = np.bincount(prow, lo, b - a) / (n_pos * n_neg)
        score_users((a + np.flatnonzero(~ok & (n_pos > 0))).tolist())
    return ranks, aucs


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


def _discounts(ranks):
    """Per positive, the gain ``1 / log2(rank + 1)`` it earns within a cutoff."""
    return 1.0 / np.log2(ranks + 1.0)


def _hits_gains(ranks, k, discounts):
    """Per positive: whether its rank is within ``k``, and its discounted gain
    there (0 beyond)."""
    hits = ranks <= k
    return hits, np.where(hits, discounts, 0.0)


def _check_ks(ks):
    """``ks`` as a tuple of distinct positive integers; ``ConfigError``
    otherwise."""
    ks = tuple(ks)
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
            raise ConfigError(f"ks must be positive integers, got {k!r}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"ks must not repeat a k, got {ks}")
    return ks


def user_topk(emb, split, u, k, stage="test"):
    """(HR@k, NDCG@k) averaged over the user's positives at ``stage``; ``k``
    is a positive integer (``ConfigError`` otherwise)."""
    _check_ks((k,))
    ranks = user_topk_ranks(emb, split, u, stage)
    if ranks is None:
        return None
    hits, gains = _hits_gains(ranks, k, _discounts(ranks))
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
    ks = _check_ks(ks)
    ranks, aucs = _score_corpus(emb, split, stage)
    _, positives = _stage_lists(split, stage)
    # each scored user's positives are one run of the masked arrays; a stable
    # group-by item keeps each item's values in user order, as its mean sums them
    scored, counts = ~np.isnan(aucs), np.diff(positives.offsets)
    keep = np.repeat(scored, counts)
    user_ids, aucs, counts = np.flatnonzero(scored), aucs[scored], counts[scored]
    starts = np.cumsum(counts) - counts
    user_of = np.repeat(np.arange(len(counts)), counts)
    items, ranks = positives.flat[keep], ranks[keep]
    item_ids, order, item_starts, item_counts = group_by(items)
    item_ids = item_ids.astype(np.int64)
    discounts = _discounts(ranks)
    # a hit rate is a count of hits over a count of positives: a sum of 0s and
    # 1s is exact in any order, so this is np.mean's division, bit for bit
    user_hr, user_ndcg, item_hr, item_ndcg = {}, {}, {}, {}
    for k in ks:
        hits, gains = _hits_gains(ranks, k, discounts)
        user_hr[k] = np.bincount(user_of, hits, len(counts)) / counts
        user_ndcg[k] = group_reduce(gains, starts, counts)
        if item_metric_mode == "item-specific":
            item_hr[k] = np.bincount(items, hits, split.num_items)[item_ids] / item_counts
        else:
            hits, gains = np.repeat(user_hr[k], counts), np.repeat(user_ndcg[k], counts)
            item_hr[k] = group_reduce(hits[order], item_starts, item_counts)
        item_ndcg[k] = group_reduce(gains[order], item_starts, item_counts)
    mean = lambda v: float(v.mean()) if len(v) else float("nan")  # NaN over no users
    return MetricReport(
        ks=ks,
        auc=mean(aucs),
        hr={k: mean(user_hr[k]) for k in ks},
        ndcg={k: mean(user_ndcg[k]) for k in ks},
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
    aucs = _score_corpus(emb, split, stage)[1]
    aucs = aucs[~np.isnan(aucs)]
    return float(aucs.mean()) if len(aucs) else float("nan")


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
