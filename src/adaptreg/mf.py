"""Matrix-factorization scoring, BPR loss/gradients, and the fine-grained L2 penalty."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ShapeMismatchError


@dataclass
class Embeddings:
    """User and item factor matrices (float64)."""

    user: np.ndarray  # (|U|, K)
    item: np.ndarray  # (|I|, K)

    @classmethod
    def init(cls, num_users, num_items, dim, scale, rng):
        return cls(
            user=rng.normal(0.0, scale, size=(num_users, dim)),
            item=rng.normal(0.0, scale, size=(num_items, dim)),
        )

    @property
    def num_users(self):
        return self.user.shape[0]

    @property
    def num_items(self):
        return self.item.shape[0]

    @property
    def dim(self):
        return self.user.shape[1]

    def copy(self):
        return Embeddings(self.user.copy(), self.item.copy())


@dataclass
class SparseGrad:
    """Gradient restricted to rows touched by a batch (untouched rows are zero)."""

    user_rows: np.ndarray  # unique, sorted
    user_vals: np.ndarray  # (n_u, K)
    item_rows: np.ndarray
    item_vals: np.ndarray
    loss: float = None  # summed bpr_loss of the batch, set by bpr_gradient


@dataclass
class TripletBatch:
    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self):
        return len(self.users)


def bpr_loss(emb, batch):
    """Summed -ln sigma(score_ui - score_uj) over the batch (softplus form)."""
    return bpr_gradient(emb, batch).loss


def bpr_gradient(emb, batch):
    """Sparse gradient of bpr_loss w.r.t. the embeddings; the batch's loss,
    from the same scoring pass, is in its ``loss`` field."""
    u_rows, u_inv = np.unique(batch.users, return_inverse=True)
    all_items = np.concatenate([batch.pos, batch.neg])
    i_rows, i_inv = np.unique(all_items, return_inverse=True)
    n = len(batch)
    loss, gu, gi = _kernels.bpr_grad_batch(
        emb.user, emb.item, batch.users, batch.pos, batch.neg,
        u_inv, i_inv[:n], i_inv[n:], len(u_rows), len(i_rows),
    )
    return SparseGrad(user_rows=u_rows, user_vals=gu, item_rows=i_rows, item_vals=gi,
                      loss=loss)


def _dense_coefficients(emb, lam):
    """``lam``'s user and item coefficients broadcast to the embeddings' shapes."""
    lu = lam.user_dense()
    li = lam.item_dense()
    if lu.shape != emb.user.shape or li.shape != emb.item.shape:
        raise ShapeMismatchError(
            f"coefficient shapes {lu.shape}/{li.shape} incompatible with "
            f"embeddings {emb.user.shape}/{emb.item.shape}")
    return lu, li


def penalty(emb, lam):
    """Fine-grained L2 penalty: sum of broadcast(lambda) * theta^2 over all entries."""
    lu, li = _dense_coefficients(emb, lam)
    return float(np.sum(lu * emb.user ** 2) + np.sum(li * emb.item ** 2))


def penalty_gradient(emb, lam):
    """Dense gradient of the penalty: elementwise 2 * broadcast(lambda) * theta."""
    lu, li = _dense_coefficients(emb, lam)
    return 2.0 * lu * emb.user, 2.0 * li * emb.item
