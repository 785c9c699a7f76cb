"""Adaptive regularization engine: granularity-aware coefficient tensors,
gradient composition, the validation-loss hypergradient through an assumed
optimizer step, the clip-then-clamp projection, the alternating training loop,
and trajectory recording."""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, evaluate
from ._kernels import adam_correction, adam_moments
from .data import frequency_groups, group_by, group_reduce, sample_triplets
from .errors import AdaptRegError, ConfigError
from .mf import Embeddings, SparseGrad, bpr_gradient
from .optim import check_finite, make_optimizer

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
        if not math.isfinite(init) or init < 0:
            raise ConfigError(f"initial coefficient must be finite and nonnegative, got {init!r}")
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
    entries of the rows that both batches read, and their hypergradients.
    Every other entry's hypergradient is zero: the assumed step moves only
    rows the train batch touches, and the validation loss reads only rows of
    its own batch.

    Separate non-regularized pass on the train batch and composition with the
    penalty gradient, checked finite on every touched row. The side-effect-free
    optimizer step and its Jacobian then run on the shared rows only; both are
    row-wise, so each row gets the bits it would get in a step on every touched
    row. The validation backward pass runs on a compact overlay that holds only
    the rows the validation batch reads (current rows, replaced by their
    assumed values where they are shared), followed by chain-rule aggregation
    per entry. The cost is O(batch), independent of |U|+|I| and of the number
    of entries.
    """
    composed = compose_gradient(bpr_gradient(emb, train_batch), emb, lam)
    check_finite(composed)

    n = len(val_batch.users)
    v_users, u_inv = np.unique(val_batch.users, return_inverse=True)
    v_items, i_inv = np.unique(np.concatenate([val_batch.pos, val_batch.neg]),
                               return_inverse=True)
    shared_u, ia_u, ib_u = np.intersect1d(composed.user_rows, v_users,
                                          assume_unique=True, return_indices=True)
    shared_i, ia_i, ib_i = np.intersect1d(composed.item_rows, v_items,
                                          assume_unique=True, return_indices=True)
    shared = SparseGrad(user_rows=shared_u, user_vals=composed.user_vals[ia_u],
                        item_rows=shared_i, item_vals=composed.item_vals[ia_i])
    new_user, new_item, moments = optimizer.assumed(emb, shared)
    j_user, j_item = optimizer.lambda_jacobian(emb, shared, moments)

    overlay = []
    for theta, v_rows, ib, new in ((emb.user, v_users, ib_u, new_user),
                                   (emb.item, v_items, ib_i, new_item)):
        part = theta[v_rows]
        part[ib] = new
        overlay.append(part)
    # unique() is order-preserving, so the remapped batch reads the same
    # values in the same order and the kernel arithmetic is unchanged; its
    # ids are already the dense row ids of the overlay, so they index it and
    # its gradient rows alike
    p, q = i_inv[:n], i_inv[n:]
    _, v_user, v_item = _kernels.bpr_grad_batch(*overlay, u_inv, p, q, u_inv, p, q,
                                                len(v_users), len(v_items))

    # user contributions before item ones, each row-major: the order in which
    # a dense scatter-add would accumulate them, so the sums are bit-equal
    idx = np.concatenate([lam.entries(0, shared_u).ravel(),
                          lam.entries(1, shared_i).ravel()])
    contrib = np.concatenate([(v_user[ib_u] * j_user).ravel(),
                              (v_item[ib_i] * j_item).ravel()])
    if (idx[1:] > idx[:-1]).all():
        # distinct and sorted (always so for full): each sum has one term,
        # and + 0.0 turns a -0.0 into the +0.0 that bincount would give
        entries, values = idx, contrib + 0.0
    else:
        entries, inverse = np.unique(idx, return_inverse=True)
        values = np.bincount(inverse, weights=contrib, minlength=len(entries))
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise AdaptRegError(
            f"non-finite hypergradient at coefficient entry {int(entries[bad[0]])}")
    return entries, values


def hypergradient(lam, emb, optimizer, train_batch, val_batch):
    """Dense form of ``sparse_hypergradient``: one value per coefficient entry,
    zero where the train batch moves nothing. Allocating it is O(num_entries);
    the computation itself is O(batch). An oracle for the gate and the tests:
    the training loop runs ``lambda_step``."""
    entries, values = sparse_hypergradient(lam, emb, optimizer, train_batch, val_batch)
    G = np.zeros(lam.num_entries)
    G[entries] = values
    return G


def project_and_step(lam, G, step_size, clip):
    """Clamp G to [-clip, clip], take a gradient step, project onto lambda >= 0.
    An oracle for the gate and the tests: the training loop runs ``lambda_step``."""
    g = np.clip(G, -clip, clip)
    values = lam.values - step_size * g
    np.maximum(values, 0.0, out=values)
    return lam.with_values(values)


def lambda_step(lam, emb, optimizer, train_batch, val_batch, step_size, clip,
                lam_opt=None, phases=None):
    """One clip, step and projection of the coefficients, in place; returns them.

    Without ``lam_opt`` only the entries with a hypergradient move: every
    other one has G = 0, which the dense update leaves unchanged. With
    ``lam_opt`` (Adam on lambda) every entry's moments decay on every step,
    so the clipped G is scattered into a dense vector for Adam's direction,
    which is clipped again. The entries with a hypergradient, counted before
    that scatter, are added to ``phases["lambda_entries"]`` when given.
    """
    entries, G = sparse_hypergradient(lam, emb, optimizer, train_batch, val_batch)
    if phases is not None:
        phases["lambda_entries"] += len(entries)
    G = np.clip(G, -clip, clip)
    if lam_opt is not None:
        dense = np.zeros(lam.num_entries)
        dense[entries] = G
        entries, G = slice(None), np.clip(lam_opt.direction(dense), -clip, clip)
    values = lam.values[entries] - step_size * G
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
        adam_moments(self.s, self.r, g, self.beta1, self.beta2)
        c = adam_correction(self.t, self.beta1, self.beta2)
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


def _var_about_first(values, axis=None):
    """``np.var`` of ``values`` less their first value (per row for ``axis=1``):
    the same variance, and exactly 0 for equal values, whose rounded mean
    near the float range would leave deviations whose squares overflow."""
    return np.var(values - (values[:, :1] if axis else values[:1]), axis=axis)


def record_trajectory(lam, step, user_groups, item_groups):
    """Per-entity mean coefficient over dims plus per-frequency-group mean/variance;
    the groups are ``data.group_by`` of each side's labels, made once per run."""
    views = (lam.user_dense(), lam.item_dense())
    # every sum here has at most n terms, so it can overflow only when n times
    # the largest coefficient does. Then the statistics are taken of the
    # coefficients times a power of two, which is exact, and scaled back, and
    # the variances about a first value; every other run keeps its bits
    n = max(views[0].shape + views[1].shape)
    scale, var = 1.0, np.var
    if not max(view.max(initial=0.0) for view in views) <= np.finfo(np.float64).max / n:
        scale, var = 2.0 ** -math.ceil(math.log2(n)), _var_about_first
    # a C-ordered copy, so each mean sums its row in the same order as over
    # a dense (n,K) array (copying a broadcast view may give another layout);
    # one side's copy at a time
    u_means, i_means = (np.ascontiguousarray(view if scale == 1.0 else view * scale).mean(axis=1)
                        for view in views)
    with np.errstate(over="ignore"):  # a variance past the float range is inf
        rows = []
        for (ids, order, starts, counts), means in ((user_groups, u_means),
                                                    (item_groups, i_means)):
            members = means[order]
            rows.append(list(zip(
                ids.tolist(), counts.tolist(),
                (group_reduce(members, starts, counts) / scale).tolist(),
                (group_reduce(members, starts, counts, var) / scale**2).tolist())))
        return TrajectoryRow(
            step=step,
            user_mean=float(u_means.mean() / scale),
            item_mean=float(i_means.mean() / scale),
            user_var=float(var(u_means) / scale**2),
            item_var=float(var(i_means) / scale**2),
            user_group_stats=rows[0],
            item_group_stats=rows[1],
        )


# ---------------------------------------------------------------------------
# Alternating training loop
# ---------------------------------------------------------------------------

# phase keys (seconds, then counts); kept out of history, trajectory and checkpoint
PHASE_SECONDS = ("sample", "gradient", "compose", "optimizer", "lambda", "eval")
PHASE_COUNTS = ("steps", "lambda_steps", "triplets", "lambda_triplets", "rows", "lambda_entries")


@dataclass
class TrainResult:
    emb: Embeddings
    lam: RegCoefficients
    optimizer: object
    history: list            # dicts: epoch, step, train_loss, val_auc (when evaluated)
    trajectory: list         # TrajectoryRow per epoch
    best_epoch: int
    user_groups: tuple       # data.group_by of each side's frequency groups,
    item_groups: tuple       # which the trajectory's group statistics read
    aborted: bool = False
    abort_reason: str = ""
    phases: dict = field(default_factory=dict)  # PHASE_SECONDS and PHASE_COUNTS


def _seeded_start(split, cfg):
    """``(rng, emb, lam, optimizer, lam_opt)`` before the first step; ``lam_opt``
    is the λ-Adam state when λ is learned with ``adam_on_lambda``, else None.
    The embeddings make the rng's first draws, so the start is a pure function
    of the split's sizes and the config, and building it again gives the same bits."""
    reg = cfg.regularization
    learned = reg.mode != "fix"
    rng = np.random.default_rng(cfg.training.seed)
    emb = Embeddings.init(split.num_users, split.num_items, cfg.model.dim,
                          cfg.model.init_scale, rng)
    granularity = reg.granularity if learned else "global"
    init = reg.init if learned else reg.fixed_value
    lam = RegCoefficients.create(granularity, split.num_users, split.num_items,
                                 cfg.model.dim, init=init)
    optimizer = make_optimizer(cfg.optimizer.kind, lr=cfg.optimizer.lr,
                               beta1=cfg.optimizer.beta1, beta2=cfg.optimizer.beta2,
                               eps=cfg.optimizer.eps, r_decay=cfg.optimizer.r_decay)
    lam_opt = LambdaAdam(lam.num_entries) if learned and reg.adam_on_lambda else None
    return rng, emb, lam, optimizer, lam_opt


def train_step(split, cfg, rng, emb, lam, optimizer, lam_opt, step, phases):
    """Step ``step`` (from 0): a θ step on a fresh train batch, then, every
    ``regularization.every`` steps unless the mode is ``fix``, ``lambda_step``
    with ``lam_opt`` on fresh train and validation batches. Mutates emb, the
    optimizer and lam_opt; returns the θ batch's summed loss and the
    coefficients after the step.

    Adds the step's ``time.perf_counter`` seconds and counts to ``phases``:
    ``sample`` holds every batch draw; ``lambda`` times the λ step as one call,
    whose signature the oracle tests pin; ``rows`` counts the θ rows written.
    """
    tr = cfg.training
    reg = cfg.regularization
    clock = time.perf_counter
    t0 = clock()
    batch = sample_triplets(split, rng, tr.batch_size, "train")
    t1 = clock()
    grad = bpr_gradient(emb, batch)
    t2 = clock()
    composed = compose_gradient(grad, emb, lam)
    t3 = clock()
    optimizer.step(emb, composed, step_index=step)
    t4 = t5 = t6 = clock()
    if reg.mode != "fix" and step % reg.every == 0:
        tb = sample_triplets(split, rng, tr.lambda_batch_size, "train")
        vb = sample_triplets(split, rng, tr.lambda_batch_size, "validation")
        t5 = clock()
        lam = lambda_step(lam, emb, optimizer, tb, vb, reg.step_size, reg.clip, lam_opt, phases)
        t6 = clock()
        phases["lambda_steps"] += 1
        phases["lambda_triplets"] += len(tb) + len(vb)
    for key, seconds in (("sample", t1 - t0 + t5 - t4), ("gradient", t2 - t1),
                         ("compose", t3 - t2), ("optimizer", t4 - t3), ("lambda", t6 - t5)):
        phases[key] += seconds
    phases["steps"] += 1
    phases["triplets"] += len(batch)
    phases["rows"] += len(composed.user_rows) + len(composed.item_rows)
    return grad.loss, lam


def train_model(split, cfg, eval_fn=None):
    """Alternating theta/lambda optimization per the run config.

    cfg is a resolved RunConfig. eval_fn(emb) -> validation AUC may be injected
    (defaults to full validation AUC); evaluation runs every
    ``training.eval_every`` epochs with early stopping on it. A run returns
    the state of its best evaluation; one that aborts before any evaluation
    improved returns its seeded start. The result's ``phases`` sums what each
    ``train_step`` adds, and the seconds spent in ``eval_fn``.
    """
    tr = cfg.training
    rng, emb, lam, optimizer, lam_opt = _seeded_start(split, cfg)

    user_groups = group_by(frequency_groups(split.user_frequency, cfg.groups.user_boundaries))
    item_groups = group_by(frequency_groups(split.item_frequency, cfg.groups.item_boundaries))

    if eval_fn is None:
        eval_fn = lambda e: evaluate.corpus_auc(e, split, stage="validation")

    steps_per_epoch = max(1, math.ceil(split.num_train_events / tr.batch_size))
    history, trajectory = [], []
    phases = {**dict.fromkeys(PHASE_SECONDS, 0.0), **dict.fromkeys(PHASE_COUNTS, 0)}
    best, best_auc, best_epoch, bad_evals = None, -np.inf, 0, 0
    global_step = 0
    aborted, abort_reason = False, ""

    for epoch in range(1, tr.epochs + 1):
        loss_sum = 0.0
        try:
            for _ in range(steps_per_epoch):
                loss, lam = train_step(split, cfg, rng, emb, lam, optimizer, lam_opt,
                                       global_step, phases)
                loss_sum += loss
                global_step += 1
        except AdaptRegError as exc:
            aborted, abort_reason = True, str(exc)
            break
        # every batch holds batch_size triplets
        mean_loss = loss_sum / (steps_per_epoch * tr.batch_size)
        trajectory.append(record_trajectory(lam, epoch, user_groups, item_groups))
        row = {"epoch": epoch, "step": global_step, "train_loss": mean_loss}
        history.append(row)
        if not np.isfinite(mean_loss):
            aborted, abort_reason = True, f"non-finite training loss at epoch {epoch}"
            break
        if epoch % tr.eval_every == 0 or epoch == tr.epochs:
            t0 = time.perf_counter()
            val_auc = eval_fn(emb)
            phases["eval"] += time.perf_counter() - t0
            row["val_auc"] = val_auc
            if val_auc > best_auc:
                best_auc = val_auc
                best_epoch = epoch
                # emb, lam and the optimizer state are mutated in place by
                # every step; after the final epoch no step runs any more
                best = ((emb, lam, optimizer) if epoch == tr.epochs
                        else (emb.copy(), lam.copy(), optimizer.clone()))
                bad_evals = 0
            else:
                bad_evals += 1
            if bad_evals >= tr.patience:
                break

    if best is not None:
        emb, lam, optimizer = best
    elif aborted:
        _, emb, lam, optimizer, _ = _seeded_start(split, cfg)
    return TrainResult(emb=emb, lam=lam, optimizer=optimizer, history=history,
                       trajectory=trajectory, best_epoch=best_epoch,
                       user_groups=user_groups, item_groups=item_groups,
                       aborted=aborted, abort_reason=abort_reason, phases=phases)
