"""Adaptive regularization engine: granularity-aware coefficient tensors,
gradient composition, the validation-loss hypergradient through an assumed
optimizer step, the clip-then-clamp projection, the alternating training loop,
and trajectory recording."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import frequency_groups, sample_triplets
from .errors import AdaptRegError, ConfigError
from .mf import Embeddings, SparseGrad, TripletBatch, bpr_gradient
from .optim import make_optimizer

GRANULARITIES = ("global", "dim", "user", "item", "user-dim", "item-dim", "full")

# short names used in experiment tables / configs
GRANULARITY_ALIASES = {
    "d": "dim", "u": "user", "i": "item",
    "du": "user-dim", "di": "item-dim", "dui": "full",
}


def canonical_granularity(name):
    name = name.lower()
    name = GRANULARITY_ALIASES.get(name, name)
    if name not in GRANULARITIES:
        raise ConfigError(f"unknown granularity {name!r}")
    return name


# granularity -> (offset, rows, cols) of the user block and of the item block
# of the flat vector, given |U|, |I| and K. The order within the flat vector
# is fixed: checkpoints and hypergradient entry ids depend on it.
_LAYOUT = {
    "global":   lambda U, I, K: ((0, 1, 1), (0, 1, 1)),
    "dim":      lambda U, I, K: ((0, 1, K), (0, 1, K)),
    "user":     lambda U, I, K: ((0, U, 1), (U, 1, 1)),
    "item":     lambda U, I, K: ((I, 1, 1), (0, I, 1)),
    "user-dim": lambda U, I, K: ((0, U, K), (U * K, 1, K)),
    "item-dim": lambda U, I, K: ((0, 1, K), (K, I, K)),
    "full":     lambda U, I, K: ((0, U, K), (U * K, I, K)),
}


@dataclass
class RegCoefficients:
    """Nonnegative L2 coefficients at a chosen granularity.

    Stored as one flat vector. Each side (0: users, 1: items) reads a
    contiguous slice of it as a block of shape (1,1), (1,K), (n,1) or (n,K),
    which broadcasts to that side's (n,K) embedding matrix: a block with one
    row is shared by every entity of the side, a block with one column by
    every dimension. ``global`` and ``dim`` give both sides the same block.
    Every granularity is thus a tied special case of ``full`` (one entry per
    embedding coordinate), and the chain rule sums a coordinate's
    hypergradient into the entry its coefficient is read from.
    """

    granularity: str
    values: np.ndarray  # flat float64, always >= 0
    num_users: int
    num_items: int
    dim: int

    @classmethod
    def create(cls, granularity, num_users, num_items, dim, init=0.0):
        granularity = canonical_granularity(granularity)
        if init < 0:
            raise ConfigError("initial coefficient must be nonnegative")
        blocks = _LAYOUT[granularity](num_users, num_items, dim)
        n = max(offset + rows * cols for offset, rows, cols in blocks)
        return cls(granularity, np.full(n, float(init)), num_users, num_items, dim)

    @property
    def num_entries(self):
        return len(self.values)

    def _block(self, side):
        """``(offset, view)``: where a side's block starts and the block itself."""
        offset, rows, cols = _LAYOUT[self.granularity](
            self.num_users, self.num_items, self.dim)[side]
        return offset, self.values[offset:offset + rows * cols].reshape(rows, cols)

    def user_dense(self):
        """Read-only (|U|,K) view of the user coefficients."""
        return np.broadcast_to(self._block(0)[1], (self.num_users, self.dim))

    def item_dense(self):
        """Read-only (|I|,K) view of the item coefficients."""
        return np.broadcast_to(self._block(1)[1], (self.num_items, self.dim))

    def gather(self, side, rows):
        """Coefficients of the given entity rows of a side; a shared one-row
        block is returned as it is and broadcasts against (len(rows), K)."""
        block = self._block(side)[1]
        return block[rows] if len(block) > 1 else block

    def entries(self, side, rows):
        """(len(rows), K) entry ids of the coefficients of the given entity
        rows of a side: offset + row * cols + k, without the row (k) term
        on a block shared by all rows (dimensions)."""
        offset, block = self._block(side)
        n, cols = block.shape
        ids = (offset + (rows[:, None] * cols if n > 1 else 0)
               + (np.arange(cols) if cols > 1 else 0))
        return np.broadcast_to(ids, (len(rows), self.dim))

    def copy(self):
        return self.with_values(self.values.copy())

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=np.float64))


def compose_gradient(grad, emb, lam):
    """Non-regularized gradient plus 2*lambda*theta, restricted to touched rows."""
    gu = grad.user_vals + 2.0 * lam.gather(0, grad.user_rows) * emb.user[grad.user_rows]
    gi = grad.item_vals + 2.0 * lam.gather(1, grad.item_rows) * emb.item[grad.item_rows]
    return SparseGrad(user_rows=grad.user_rows, user_vals=gu,
                      item_rows=grad.item_rows, item_vals=gi)


def sparse_hypergradient(lam, emb, optimizer, train_batch, val_batch):
    """Gradient of validation BPR loss w.r.t. the coefficient entries, via the
    assumed next-step parameters, as ``(entries, values)``: the sorted unique
    entries the train batch can move and their hypergradients. Every other
    entry's hypergradient is zero.

    Separate non-regularized pass on the train batch, composition with the
    penalty gradient, a side-effect-free optimizer step on the touched rows,
    a validation backward pass at the assumed parameters, then chain-rule
    aggregation per entry. The validation pass runs on a compact overlay that
    holds only the rows the validation batch reads (current rows, replaced by
    their assumed values where the train batch touched them), so the cost is
    O(batch), independent of |U|+|I| and of the number of entries.
    """
    g_bar = bpr_gradient(emb, train_batch)
    composed = compose_gradient(g_bar, emb, lam)
    new_user, new_item, moments = optimizer.assumed(emb, composed)
    j_user, j_item = optimizer.lambda_jacobian(emb, composed, moments)

    n = len(val_batch.users)
    v_users, u_inv = np.unique(val_batch.users, return_inverse=True)
    v_items, i_inv = np.unique(np.concatenate([val_batch.pos, val_batch.neg]),
                               return_inverse=True)
    overlay, shared_rows = [], []
    for rows, new, theta, v_rows in ((composed.user_rows, new_user, emb.user, v_users),
                                     (composed.item_rows, new_item, emb.item, v_items)):
        shared, ia, ib = np.intersect1d(rows, v_rows, assume_unique=True,
                                        return_indices=True)
        part = theta[v_rows]
        part[ib] = new[ia]
        overlay.append(part)
        shared_rows.append((shared, ia, ib))
    # unique() is order-preserving, so the remapped batch reads the same
    # values in the same order and the kernel arithmetic is unchanged
    v = bpr_gradient(Embeddings(*overlay), TripletBatch(u_inv, i_inv[:n], i_inv[n:]))

    # user contributions before item ones, each row-major: the order in which
    # a dense scatter-add would accumulate them, so the sums are bit-equal
    idx, contrib = [], []
    for side, ((shared, ia, ib), J, v_vals) in enumerate(zip(
            shared_rows, (j_user, j_item), (v.user_vals, v.item_vals))):
        idx.append(lam.entries(side, shared).ravel())
        contrib.append((v_vals[ib] * J[ia]).ravel())
    entries, inverse = np.unique(np.concatenate(idx), return_inverse=True)
    values = np.bincount(inverse, weights=np.concatenate(contrib),
                         minlength=len(entries))
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise AdaptRegError(
            f"non-finite hypergradient at coefficient entry {int(entries[bad[0]])}")
    return entries, values


def hypergradient(lam, emb, optimizer, train_batch, val_batch):
    """Dense form of ``sparse_hypergradient``: one value per coefficient entry,
    zero where the train batch moves nothing. Allocating it is O(num_entries);
    the computation itself is O(batch)."""
    entries, values = sparse_hypergradient(lam, emb, optimizer, train_batch, val_batch)
    G = np.zeros(lam.num_entries)
    G[entries] = values
    return G


def project_and_step(lam, G, step_size, clip):
    """Clamp G to [-clip, clip], take a gradient step, project onto lambda >= 0."""
    g = np.clip(G, -clip, clip)
    values = lam.values - step_size * g
    np.maximum(values, 0.0, out=values)
    return lam.with_values(values)


def lambda_step(lam, emb, optimizer, train_batch, val_batch, step_size, clip,
                lam_opt=None):
    """One coefficient update of the training loop; returns the coefficients.

    Without ``lam_opt`` only the entries with a hypergradient are clipped,
    stepped and projected, in place in ``lam.values``: every other entry has
    G = 0, which the dense update leaves unchanged, so the result is the same
    at O(batch) cost. With ``lam_opt`` (Adam on lambda) every entry's moments
    decay on every step, so the update stays dense through ``hypergradient``
    and ``project_and_step``.
    """
    if lam_opt is not None:
        G = hypergradient(lam, emb, optimizer, train_batch, val_batch)
        G = lam_opt.direction(np.clip(G, -clip, clip))
        return project_and_step(lam, G, step_size, clip)
    entries, G = sparse_hypergradient(lam, emb, optimizer, train_batch, val_batch)
    values = lam.values[entries] - step_size * np.clip(G, -clip, clip)
    np.maximum(values, 0.0, out=values)
    lam.values[entries] = values
    return lam


class LambdaAdam:
    """Optional Adam state for the coefficient updates (config-gated)."""

    def __init__(self, n, beta1=0.9, beta2=0.999, eps=1e-8):
        self.s = np.zeros(n)
        self.r = np.zeros(n)
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def direction(self, g):
        self.t += 1
        self.s = self.beta1 * self.s + (1 - self.beta1) * g
        self.r = self.beta2 * self.r + (1 - self.beta2) * g * g
        c = math.sqrt(1 - self.beta2 ** self.t) / (1 - self.beta1 ** self.t)
        return c * self.s / (np.sqrt(self.r) + self.eps)


# ---------------------------------------------------------------------------
# Trajectory recording
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRow:
    step: int
    user_mean: float
    item_mean: float
    user_var: float
    item_var: float
    user_group_stats: list  # (group, size, mean, var) population variance
    item_group_stats: list


def record_trajectory(lam, split, step, user_groups, item_groups):
    """Per-entity mean coefficient over dims plus per-frequency-group mean/variance."""
    # a C-ordered copy, so each mean sums its row in the same order as over
    # a dense (n,K) array (copying a broadcast view may give another layout)
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
        step=step,
        user_mean=float(u_means.mean()),
        item_mean=float(i_means.mean()),
        user_var=float(u_means.var()),
        item_var=float(i_means.var()),
        user_group_stats=rows[0],
        item_group_stats=rows[1],
    )


# ---------------------------------------------------------------------------
# Alternating training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    emb: Embeddings
    lam: RegCoefficients
    optimizer: object
    history: list            # dicts: epoch, step, train_loss, val_auc (when evaluated)
    trajectory: list         # TrajectoryRow per epoch
    best_epoch: int
    aborted: bool = False
    abort_reason: str = ""


def train_model(split, cfg, eval_fn=None):
    """Alternating theta/lambda optimization per the run config.

    cfg is a resolved RunConfig. eval_fn(emb) -> validation AUC may be injected
    (defaults to full validation AUC); evaluation runs every
    ``training.eval_every`` epochs with early stopping on it.
    """
    from .evaluate import corpus_auc  # local import to avoid a cycle

    tr = cfg.training
    reg = cfg.regularization
    rng = np.random.default_rng(tr.seed)
    emb = Embeddings.init(split.num_users, split.num_items, cfg.model.dim,
                          cfg.model.init_scale, rng)
    adaptive = reg.mode in ("opt", "sgda")
    granularity = reg.granularity if adaptive else "global"
    init = reg.init if adaptive else reg.fixed_value
    lam = RegCoefficients.create(granularity, split.num_users, split.num_items,
                                 cfg.model.dim, init=init)
    optimizer = make_optimizer(cfg.optimizer.kind, lr=cfg.optimizer.lr,
                               beta1=cfg.optimizer.beta1, beta2=cfg.optimizer.beta2,
                               eps=cfg.optimizer.eps, r_decay=cfg.optimizer.r_decay)
    lam_opt = LambdaAdam(lam.num_entries) if (adaptive and reg.adam_on_lambda) else None

    user_groups = frequency_groups(split.user_frequency, cfg.groups.user_boundaries)
    item_groups = frequency_groups(split.item_frequency, cfg.groups.item_boundaries)

    if eval_fn is None:
        eval_fn = lambda e: corpus_auc(e, split, stage="validation")

    steps_per_epoch = max(1, math.ceil(split.num_train_events / tr.batch_size))
    history = []
    trajectory = []
    best_auc = -np.inf
    best_epoch = 0
    # emb, lam and the optimizer state are mutated in place by every step
    best = (emb.copy(), lam.copy(), optimizer.clone())
    bad_evals = 0
    global_step = 0
    aborted = False
    abort_reason = ""

    for epoch in range(1, tr.epochs + 1):
        loss_sum = 0.0
        try:
            for _ in range(steps_per_epoch):
                batch = sample_triplets(split, rng, tr.batch_size, "train")
                grad = bpr_gradient(emb, batch)
                loss_sum += grad.loss
                optimizer.step(emb, compose_gradient(grad, emb, lam),
                               step_index=global_step)
                if adaptive and global_step % reg.every == 0:
                    tb = sample_triplets(split, rng, tr.lambda_batch_size, "train")
                    vb = sample_triplets(split, rng, tr.lambda_batch_size, "validation")
                    lam = lambda_step(lam, emb, optimizer, tb, vb, reg.step_size,
                                      reg.clip, lam_opt)
                global_step += 1
        except AdaptRegError as exc:
            aborted = True
            abort_reason = str(exc)
            break
        # every batch holds batch_size triplets
        mean_loss = loss_sum / (steps_per_epoch * tr.batch_size)
        trajectory.append(record_trajectory(lam, split, epoch, user_groups, item_groups))
        row = {"epoch": epoch, "step": global_step, "train_loss": mean_loss}
        if epoch % tr.eval_every == 0 or epoch == tr.epochs:
            if not np.isfinite(mean_loss):
                aborted = True
                abort_reason = f"non-finite training loss at epoch {epoch}"
                history.append(row)
                break
            val_auc = eval_fn(emb)
            row["val_auc"] = val_auc
            if val_auc > best_auc:
                best_auc = val_auc
                best_epoch = epoch
                # after the final epoch no step mutates the state any more
                if epoch == tr.epochs:
                    best = (emb, lam, optimizer)
                else:
                    best = (emb.copy(), lam.copy(), optimizer.clone())
                bad_evals = 0
            else:
                bad_evals += 1
            history.append(row)
            if bad_evals >= tr.patience:
                break
        else:
            history.append(row)

    if aborted or best_epoch:
        emb, lam, optimizer = best
    return TrainResult(emb=emb, lam=lam, optimizer=optimizer, history=history,
                       trajectory=trajectory, best_epoch=best_epoch,
                       aborted=aborted, abort_reason=abort_reason)
