"""Hot numeric kernels: pure-numpy implementations, and numba-jitted inner
loops beside them when numba is installed (the optional ``fast`` extra).

The numba path is used whenever numba imports. Set ``ADAPTREG_DISABLE_NUMBA=1``
in the environment (before import) to force the numpy implementations; the two
paths agree elementwise, with tiny float reassociation differences only in
batch reductions. ``benchmarks/bench_kernels.py`` compares their throughput.

``bpr_grad_batch`` scores each triplet once and returns the batch's summed BPR
loss along with the gradient it accumulates, so a training step never scores a
batch twice. The numpy version scatters each side's rows with one flat
``np.bincount``, which adds in index order exactly as ``np.add.at`` does, and
``adam_step`` reads and writes each touched row of the parameter and of both
moments once, in blocks of rows small enough to stay in cache; both give the
same bits as the plain ``np.add.at`` and fancy-index forms.
"""

import math
import os

import numpy as np

_DISABLE = os.environ.get("ADAPTREG_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

NUMBA_ENABLED = False
if not _DISABLE:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is optional
        NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# numpy fallback implementations
# ---------------------------------------------------------------------------

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


def _bpr_loss_np(uf, itf, users, pos, neg):
    return _softplus_sum(np.einsum("tk,tk->t", uf[users], itf[pos] - itf[neg]))


def _scatter_rows(out, inv, vals):
    # out[inv[t]] += vals[t] for every t, in t order (as np.add.at)
    K = out.shape[1]
    flat = (inv[:, None] * K + np.arange(K)).ravel()
    out += np.bincount(flat, weights=vals.ravel(), minlength=out.size).reshape(out.shape)


def _bpr_grad_np(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, gu, gi):
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


def _sgd_step_np(param, rows, g, lr):
    param[rows] -= lr * g


# rows per block of the Adam step: 32768 float64 (256 KB) per temporary,
# which stays in cache where a whole batch's rows would not
_BLOCK_ELEMS = 1 << 15


def _adam_rows(param, s, r, rows, g, lr, c, b1, b2, eps):
    # one gather and one write-back per array, in-place arithmetic in the
    # order of s = b1*s + (1-b1)*g, r = b2*r + (1-b2)*g*g,
    # param -= lr*c*s / (sqrt(r) + eps)
    sr = np.take(s, rows, axis=0)
    sr *= b1
    sr += (1.0 - b1) * g
    s[rows] = sr
    rr = np.take(r, rows, axis=0)
    rr *= b2
    rr += ((1.0 - b2) * g) * g
    r[rows] = rr
    den = np.sqrt(rr)
    den += eps
    pr = np.take(param, rows, axis=0)
    pr -= lr * c * sr / den
    param[rows] = pr


def _adam_step_np(param, s, r, rows, g, lr, c, b1, b2, eps):
    # rows are unique, so each row's update is independent of the others
    block = max(1, _BLOCK_ELEMS // param.shape[1])
    for a in range(0, len(rows), block):
        _adam_rows(param, s, r, rows[a:a + block], g[a:a + block], lr, c, b1, b2, eps)


def _scatter_add_np(out, idx, vals):
    np.add.at(out, idx, vals)


# ---------------------------------------------------------------------------
# numba implementations (same arithmetic, explicit loops)
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _bpr_loss_nb(uf, itf, users, pos, neg):
        total = 0.0
        K = uf.shape[1]
        for t in range(users.shape[0]):
            u = users[t]
            i = pos[t]
            j = neg[t]
            x = 0.0
            for k in range(K):
                x += uf[u, k] * (itf[i, k] - itf[j, k])
            if x >= 0.0:
                total += math.log1p(math.exp(-x))
            else:
                total += -x + math.log1p(math.exp(x))
        return total

    @njit(cache=True)
    def _bpr_grad_nb(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, gu, gi):
        total = 0.0
        K = uf.shape[1]
        for t in range(users.shape[0]):
            u = users[t]
            i = pos[t]
            j = neg[t]
            x = 0.0
            for k in range(K):
                x += uf[u, k] * (itf[i, k] - itf[j, k])
            if x >= 0.0:
                e = math.exp(-x)
                d = -e / (1.0 + e)
                total += math.log1p(e)
            else:
                e = math.exp(x)
                d = -1.0 / (1.0 + e)
                total += -x + math.log1p(e)
            ui = u_inv[t]
            pi = p_inv[t]
            ni = n_inv[t]
            for k in range(K):
                diff = itf[i, k] - itf[j, k]
                gu[ui, k] += d * diff
                gi[pi, k] += d * uf[u, k]
                gi[ni, k] -= d * uf[u, k]
        return total

    @njit(cache=True)
    def _sgd_step_nb(param, rows, g, lr):
        K = param.shape[1]
        for n in range(rows.shape[0]):
            row = rows[n]
            for k in range(K):
                param[row, k] -= lr * g[n, k]

    @njit(cache=True)
    def _adam_step_nb(param, s, r, rows, g, lr, c, b1, b2, eps):
        K = param.shape[1]
        for n in range(rows.shape[0]):
            row = rows[n]
            for k in range(K):
                gv = g[n, k]
                s[row, k] = b1 * s[row, k] + (1.0 - b1) * gv
                r[row, k] = b2 * r[row, k] + (1.0 - b2) * gv * gv
                param[row, k] -= lr * c * s[row, k] / (math.sqrt(r[row, k]) + eps)

    @njit(cache=True)
    def _scatter_add_nb(out, idx, vals):
        for n in range(idx.shape[0]):
            out[idx[n]] += vals[n]


_NUMPY_IMPL = {
    "bpr_loss": _bpr_loss_np,
    "bpr_grad": _bpr_grad_np,
    "sgd_step": _sgd_step_np,
    "adam_step": _adam_step_np,
    "scatter_add": _scatter_add_np,
}

if NUMBA_ENABLED:
    _NUMBA_IMPL = {
        "bpr_loss": _bpr_loss_nb,
        "bpr_grad": _bpr_grad_nb,
        "sgd_step": _sgd_step_nb,
        "adam_step": _adam_step_nb,
        "scatter_add": _scatter_add_nb,
    }
    _ACTIVE = _NUMBA_IMPL
else:
    _NUMBA_IMPL = None
    _ACTIVE = _NUMPY_IMPL

bpr_loss_batch = _ACTIVE["bpr_loss"]
bpr_grad_batch = _ACTIVE["bpr_grad"]
sgd_step = _ACTIVE["sgd_step"]
adam_step = _ACTIVE["adam_step"]
scatter_add = _ACTIVE["scatter_add"]


def implementations():
    """Available kernel tables keyed by backend name (for tests/benchmarks)."""
    table = {"numpy": _NUMPY_IMPL}
    if _NUMBA_IMPL is not None:
        table["numba"] = _NUMBA_IMPL
    return table
