"""SGD and Adam with lazy sparse-row updates, side-effect-free assumed steps,
and closed-form sensitivities of the assumed step w.r.t. regularization
coefficients.

Each optimizer computes its update of a set of rows in one place, and both its
real step (``step``) and its assumed step (``assumed``) run it: the real step
writes back what the assumed step returns, so the step the hypergradient
differentiates through is, bit for bit, the step training takes. For SGD that
is ``theta[rows] - lr * g``; for Adam it is ``_kernels.adam_rows``, which
``_kernels.adam_step`` runs in cache-sized blocks of rows. The full assumed
step (``assumed_step``) and ``clone`` are shared by both.

The coefficient (lambda) step calls ``assumed`` and ``lambda_jacobian`` with a
gradient restricted to the rows that both its train and its validation batch
read, not to every row the train batch touches: both are row-wise, so each of
those rows gets the same bits either way. Adam's ``lambda_jacobian`` works in
place on one gathered copy of the rows."""

import copy
import hashlib

import numpy as np

from . import _kernels
from .errors import NonFiniteGradientError


def check_finite(grad, step=None):
    for side, rows, vals in (("user", grad.user_rows, grad.user_vals),
                             ("item", grad.item_rows, grad.item_vals)):
        if not np.isfinite(vals).all():
            bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))[0]
            raise NonFiniteGradientError(side, int(rows[bad]), step)


class _Optimizer:
    """What SGD and Adam share: the full assumed step and the copy."""

    def assumed_step(self, emb, grad):
        """Full post-step embeddings: a copy of emb with the rows of
        ``assumed`` written in. O(|U|+|I|); the training loop only needs the
        rows."""
        out = emb.copy()
        out.user[grad.user_rows], out.item[grad.item_rows] = self.assumed(emb, grad)[:2]
        return out

    def clone(self):
        return copy.deepcopy(self)


class SgdOptimizer(_Optimizer):
    kind = "sgd"

    def __init__(self, lr=0.05):
        if not lr > 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def _rows(self, emb, grad):
        # theta[rows] - lr * g of each side: the one SGD update
        return (emb.user[grad.user_rows] - self.lr * grad.user_vals,
                emb.item[grad.item_rows] - self.lr * grad.item_vals)

    def step(self, emb, grad, step_index=None):
        """theta <- theta - lr * g on touched rows (mutates emb)."""
        check_finite(grad, step_index)
        emb.user[grad.user_rows], emb.item[grad.item_rows] = self._rows(emb, grad)

    def assumed(self, emb, grad):
        """``(user_rows, item_rows, moments)``: the post-step values of the rows
        ``grad`` touches, aligned with ``grad.user_rows``/``grad.item_rows``, and
        ``None``, as SGD keeps no moments. The rows step writes back, O(touched
        rows), and emb is not mutated."""
        check_finite(grad)
        return self._rows(emb, grad) + (None,)

    def lambda_jacobian(self, emb, grad, moments=None):
        """d theta_bar / d lambda per touched coordinate: -2 * lr * theta."""
        return (-2.0 * self.lr * emb.user[grad.user_rows],
                -2.0 * self.lr * emb.item[grad.item_rows])

    def state_digest(self):
        return hashlib.sha256(repr(self.lr).encode()).hexdigest()

    def state_arrays(self):
        return {"lr": np.float64(self.lr), "t": np.int64(0)}

    def load_state(self, arrays, emb=None):
        """Take a saved ``state_arrays`` through the constructor's checks."""
        self.__init__(float(arrays["lr"]))


class AdamOptimizer(_Optimizer):
    """Adam with lazy moments: s/r decay only on rows touched by the batch.

    ``r_decay`` defaults to beta2 (standard second-moment decay); it can be
    overridden, e.g. set to beta1 to reproduce a first-moment-decayed variant.
    """

    kind = "adam"

    def __init__(self, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, r_decay=None):
        r_decay = beta2 if r_decay is None else r_decay
        if not (lr > 0 and 0 < beta1 < 1 and 0 < beta2 < 1 and eps > 0
                and 0 <= r_decay < 1):
            raise ValueError("invalid Adam hyperparameters")
        self.lr, self.beta1, self.beta2, self.eps, self.r_decay = lr, beta1, beta2, eps, r_decay
        self.t = 0
        self.s_user = self.r_user = self.s_item = self.r_item = None

    def _sides(self, emb, grad):
        # (param, s, r, rows, g) of the user side, then of the item side; a
        # fresh optimizer's moments read as zero, and only step stores them
        zu, zi = (np.broadcast_to(0.0, theta.shape) for theta in (emb.user, emb.item))
        su, ru, si, ri = ((zu, zu, zi, zi) if self.s_user is None
                          else (self.s_user, self.r_user, self.s_item, self.r_item))
        return ((emb.user, su, ru, grad.user_rows, grad.user_vals),
                (emb.item, si, ri, grad.item_rows, grad.item_vals))

    def step(self, emb, grad, step_index=None):
        check_finite(grad, step_index)
        if self.s_user is None:
            self.s_user, self.r_user = np.zeros_like(emb.user), np.zeros_like(emb.user)
            self.s_item, self.r_item = np.zeros_like(emb.item), np.zeros_like(emb.item)
        self.t += 1
        c = _kernels.adam_correction(self.t, self.beta1, self.beta2)
        for side in self._sides(emb, grad):
            _kernels.adam_step(*side, self.lr, c, self.beta1, self.r_decay, self.eps)

    def assumed(self, emb, grad):
        """The t+1 step on the touched rows, not taken: ``(user_rows, item_rows,
        moments)``, with each side's post-step ``(s, r)`` pair as the moments.
        Runs step's ``adam_rows`` kernel; state and emb are untouched."""
        check_finite(grad)
        c = _kernels.adam_correction(self.t + 1, self.beta1, self.beta2)
        (su, ru, user), (si, ri, item) = (
            _kernels.adam_rows(*side, self.lr, c, self.beta1, self.r_decay, self.eps)
            for side in self._sides(emb, grad))
        return user, item, ((su, ru), (si, ri))

    def lambda_jacobian(self, emb, grad, moments=None):
        """Sensitivity of the assumed step to the lambda entry of each coordinate.

        With composed gradient g = g_nonreg + 2*lambda*theta, dg/dlambda = 2*theta.
        ``moments`` are those ``assumed`` returns; without them it is run here.
        """
        if moments is None:
            moments = self.assumed(emb, grad)[2]
        c = _kernels.adam_correction(self.t + 1, self.beta1, self.beta2)
        out = []
        for theta, rows, g, (s_bar, r_bar) in zip(
                (emb.user, emb.item), (grad.user_rows, grad.item_rows),
                (grad.user_vals, grad.item_vals), moments):
            # -lr*c * (ds*denom - half) / denom**2 with ds = (1-b1)*2*theta,
            # half = s_bar*dr / (2*sqrt(r_bar)) where r_bar > 0 (else 0) and
            # dr = (1-r_decay)*4*g*theta, computed in place in that order:
            # dividing by denom**2 before the -lr*c product changes low bits
            sq = np.sqrt(r_bar)
            denom = sq + self.eps
            half = (1.0 - self.r_decay) * 4.0 * g
            out_rows = np.take(theta, rows, axis=0)
            half *= out_rows
            half *= s_bar
            sq *= 2.0
            with np.errstate(invalid="ignore", divide="ignore"):
                half /= sq
                half[~(r_bar > 0.0)] = 0.0
            out_rows *= (1.0 - self.beta1) * 2.0
            out_rows *= denom
            out_rows -= half
            out_rows *= -self.lr * c
            denom *= denom
            out_rows /= denom
            out.append(out_rows)
        return tuple(out)

    def state_digest(self):
        self_arrays = self.state_arrays()
        h = hashlib.sha256()
        for key in sorted(self_arrays):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self_arrays[key]).tobytes())
        return h.hexdigest()

    def state_arrays(self):
        arrays = {
            "lr": np.float64(self.lr), "beta1": np.float64(self.beta1),
            "beta2": np.float64(self.beta2), "eps": np.float64(self.eps),
            "r_decay": np.float64(self.r_decay), "t": np.int64(self.t),
        }
        if self.s_user is not None:
            arrays.update(s_user=self.s_user, r_user=self.r_user,
                          s_item=self.s_item, r_item=self.r_item)
        return arrays

    def load_state(self, arrays, emb):
        """Take the state ``state_arrays`` saved for factors shaped like
        ``emb``'s, the hyperparameters through the constructor's checks;
        ValueError when it could not have come from a valid run."""
        self.__init__(*(float(arrays[k]) for k in ("lr", "beta1", "beta2", "eps", "r_decay")))
        t = np.asarray(arrays["t"])
        if t.shape or t.dtype.kind not in "iu" or t < 0:
            raise ValueError(f"optimizer step count {t} is not a nonnegative integer")
        self.t = int(t)
        if "s_user" in arrays:
            moments = [np.array(arrays[k]) for k in ("s_user", "r_user", "s_item", "r_item")]
            for m, theta, low in zip(moments, (emb.user, emb.user, emb.item, emb.item),
                                     (-np.inf, 0.0, -np.inf, 0.0)):
                if m.shape != theta.shape or not (np.isfinite(m) & (m >= low)).all():
                    raise ValueError("optimizer moments must be finite, shaped like "
                                     "the factors, and second moments nonnegative")
            self.s_user, self.r_user, self.s_item, self.r_item = moments


def make_optimizer(kind, **kwargs):
    """An optimizer of ``kind`` with the constructor's defaults; SGD reads
    only ``lr`` of the keywords."""
    if kind == "sgd":
        return SgdOptimizer(kwargs.get("lr", 0.05))
    if kind == "adam":
        return AdamOptimizer(**kwargs)
    raise ValueError(f"unknown optimizer kind {kind!r}")
