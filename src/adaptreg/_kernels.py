"""Hot numeric kernels of the training step, in numpy.

``bpr_grad_batch`` scores each triplet once and returns the batch's summed BPR
loss with the gradient blocks it builds, so nothing scores a batch twice. Each
block is one flat ``np.bincount``, which adds in index order exactly as
``np.add.at`` into zeros does. ``adam_rows`` computes the new moments (by
``adam_moments``, the recursion Adam on lambda runs too) and parameter values
of a set of rows without writing them; the real step, ``adam_step``, writes
back what it returns in blocks of rows small enough to stay in cache, and the
optimizer's assumed step returns it as is, so the two steps share one
arithmetic. ``bpr_grad_batch`` and ``adam_step`` give the same bits as the
plain ``np.add.at`` and fancy-index forms. ``adaptive.train_step`` times the
step phases that run them (``gradient`` and ``optimizer``).
"""

import math

import numpy as np

# numpy is the only backend; perfbench/run.py reads this flag, unguarded, to
# name the backend it measured, so the flag stays until run.py stops reading it
NUMBA_ENABLED = False


def _sigmoid_minus_one(x):
    # sigma(x) - 1, stable on both tails
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = -e / (1.0 + e)
    out[~pos] = -1.0 / (1.0 + np.exp(x[~pos]))
    return out


def _scatter_rows(inv, vals, n):
    # (n, K) sums of vals[t] into row inv[t] in t order, as np.add.at into
    # zeros; bincount gives int64 for an empty inv, hence the float64 cast
    K = vals.shape[1]
    flat = (inv[:, None] * K + np.arange(K)).ravel()
    return np.bincount(flat, weights=vals.ravel(), minlength=n * K
                       ).astype(np.float64, copy=False).reshape(n, K)


def bpr_grad_batch(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, n_users, n_items):
    # (loss, gu, gi): the (n_users, K) and (n_items, K) gradients of the rows
    # that u_inv and p_inv/n_inv index
    n = len(users)
    diff = itf[pos] - itf[neg]
    uv = uf[users]
    x = np.einsum("tk,tk->t", uv, diff)
    d = _sigmoid_minus_one(x)[:, None]
    gu = _scatter_rows(u_inv, d * diff, n_users)
    # +d*theta_u on the positive items, then -d*theta_u on the negative ones
    dv = np.empty((2 * n, uf.shape[1]))
    np.multiply(d, uv, out=dv[:n])
    np.negative(dv[:n], out=dv[n:])
    gi = _scatter_rows(np.concatenate([p_inv, n_inv]), dv, n_items)
    # the loss sums softplus(-x) = -ln sigma(x), stable via logaddexp. A NaN
    # score gives a NaN loss without a warning: the finiteness checks on the
    # gradient and on the epoch loss report it as a typed error
    with np.errstate(invalid="ignore"):
        return float(np.sum(np.logaddexp(0.0, -x))), gu, gi


# rows per block of the Adam step: 16384 float64 (128 KB) per temporary, so
# a block's new rows are still in cache when they are written back
_BLOCK_ELEMS = 1 << 14


def adam_correction(t, b1, b2):
    """Bias correction of Adam's step t (from 1): sqrt(1-b2^t) / (1-b1^t)."""
    return math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)


def adam_moments(s, r, g, b1, b2):
    """Adam's moment recursion in place: s = b1*s + (1-b1)*g, then
    r = b2*r + ((1-b2)*g)*g."""
    s *= b1
    s += (1.0 - b1) * g
    r *= b2
    r += ((1.0 - b2) * g) * g


def adam_rows(param, s, r, rows, g, lr, c, b1, b2, eps):
    """New (s, r, param) of the given rows after one Adam step, as arrays
    aligned with ``rows``; writes nothing. One gather per array, the moments
    by ``adam_moments``, then param -= lr*c*s / (sqrt(r) + eps) in place."""
    sr = np.take(s, rows, axis=0)
    rr = np.take(r, rows, axis=0)
    adam_moments(sr, rr, g, b1, b2)
    den = np.sqrt(rr)
    den += eps
    pr = np.take(param, rows, axis=0)
    pr -= lr * c * sr / den
    return sr, rr, pr


def adam_step(param, s, r, rows, g, lr, c, b1, b2, eps):
    # rows are unique, so each row's update is independent of the others
    block = max(1, _BLOCK_ELEMS // param.shape[1])
    for a in range(0, len(rows), block):
        rb = rows[a:a + block]
        s[rb], r[rb], param[rb] = adam_rows(param, s, r, rb, g[a:a + block],
                                            lr, c, b1, b2, eps)


def scatter_add(out, idx, vals):
    np.add.at(out, idx, vals)
