"""Hot numeric kernels: pure-numpy implementations, and numba-jitted inner
loops beside them when numba is installed (the optional ``fast`` extra).

The numba path is used whenever numba imports. Set ``ADAPTREG_DISABLE_NUMBA=1``
in the environment (before import) to force the numpy implementations; the two
paths agree elementwise, with tiny float reassociation differences only in
batch reductions. ``benchmarks/bench_kernels.py`` compares their throughput.
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


def _bpr_loss_np(uf, itf, users, pos, neg):
    x = np.einsum("tk,tk->t", uf[users], itf[pos] - itf[neg])
    # softplus(-x) = -ln sigma(x), stable via logaddexp
    return float(np.sum(np.logaddexp(0.0, -x)))


def _bpr_grad_np(uf, itf, users, pos, neg, u_inv, p_inv, n_inv, gu, gi):
    diff = itf[pos] - itf[neg]
    x = np.einsum("tk,tk->t", uf[users], diff)
    d = _sigmoid_minus_one(x)
    du = d[:, None] * diff
    dv = d[:, None] * uf[users]
    np.add.at(gu, u_inv, du)
    np.add.at(gi, p_inv, dv)
    np.add.at(gi, n_inv, -dv)


def _sgd_step_np(param, rows, g, lr):
    param[rows] -= lr * g


def _adam_step_np(param, s, r, rows, g, lr, c, b1, b2, eps):
    s[rows] = b1 * s[rows] + (1.0 - b1) * g
    r[rows] = b2 * r[rows] + (1.0 - b2) * g * g
    param[rows] -= lr * c * s[rows] / (np.sqrt(r[rows]) + eps)


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
            else:
                d = -1.0 / (1.0 + math.exp(x))
            ui = u_inv[t]
            pi = p_inv[t]
            ni = n_inv[t]
            for k in range(K):
                diff = itf[i, k] - itf[j, k]
                gu[ui, k] += d * diff
                gi[pi, k] += d * uf[u, k]
                gi[ni, k] -= d * uf[u, k]

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
