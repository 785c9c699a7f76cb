"""Hot numeric kernels of the training step, in numpy.

``bpr_grad_batch`` scores each triplet once and returns the batch's summed BPR
loss along with the gradient it accumulates, so a training step never scores a
batch twice. It scatters each side's rows with one flat ``np.bincount``, which
adds in index order exactly as ``np.add.at`` does. ``adam_rows`` computes the
new moments and parameter values of a set of rows without writing them; the
real step, ``adam_step``, writes back what it returns in blocks of rows small
enough to stay in cache, and the optimizer's assumed step returns it as is, so
the two steps share one arithmetic. ``bpr_grad_batch`` and ``adam_step`` give
the same bits as the plain ``np.add.at`` and fancy-index forms.
``benchmarks/bench_kernels.py`` times each kernel.
"""

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


def _softplus_sum(x):
    # sum of softplus(-x) = -ln sigma(x), stable via logaddexp
    return float(np.sum(np.logaddexp(0.0, -x)))


def bpr_loss_batch(uf, itf, users, pos, neg):
    return _softplus_sum(np.einsum("tk,tk->t", uf[users], itf[pos] - itf[neg]))


def _scatter_rows(out, inv, vals):
    # out[inv[t]] += vals[t] for every t, in t order (as np.add.at)
    K = out.shape[1]
    flat = (inv[:, None] * K + np.arange(K)).ravel()
    out += np.bincount(flat, weights=vals.ravel(), minlength=out.size).reshape(out.shape)


def bpr_grad_batch(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, gu, gi):
    n = len(users)
    diff = itf[pos] - itf[neg]
    uv = uf[users]
    x = np.einsum("tk,tk->t", uv, diff)
    d = _sigmoid_minus_one(x)[:, None]
    _scatter_rows(gu, u_inv, d * diff)
    # +d*theta_u on the positive items, then -d*theta_u on the negative ones
    dv = np.empty((2 * n, uf.shape[1]))
    np.multiply(d, uv, out=dv[:n])
    np.negative(dv[:n], out=dv[n:])
    _scatter_rows(gi, np.concatenate([p_inv, n_inv]), dv)
    # a NaN score gives a NaN loss without a warning: the finiteness checks on
    # the gradient and on the epoch loss report it as a typed error
    with np.errstate(invalid="ignore"):
        return _softplus_sum(x)


def sgd_step(param, rows, g, lr):
    param[rows] -= lr * g


# rows per block of the Adam step: 16384 float64 (128 KB) per temporary, so
# a block's new rows are still in cache when they are written back
_BLOCK_ELEMS = 1 << 14


def adam_rows(param, s, r, rows, g, lr, c, b1, b2, eps):
    """New (s, r, param) of the given rows after one Adam step, as arrays
    aligned with ``rows``; writes nothing. One gather per array, in-place
    arithmetic in the order of s = b1*s + (1-b1)*g, r = b2*r + (1-b2)*g*g,
    param -= lr*c*s / (sqrt(r) + eps)."""
    sr = np.take(s, rows, axis=0)
    sr *= b1
    sr += (1.0 - b1) * g
    rr = np.take(r, rows, axis=0)
    rr *= b2
    rr += ((1.0 - b2) * g) * g
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
