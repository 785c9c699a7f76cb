"""Kernel timings, plus the cost of one coefficient (lambda) step.

Run with ``python3 benchmarks/bench_kernels.py``. The kernel table times each
kernel of ``adaptreg._kernels`` at the ``--size`` triplet batch and again at a
training batch of 8192 triplets. The ``bpr_grad`` row is one scoring pass that gives the gradient and
the batch loss together; ``bpr_loss`` scores for the loss alone. Pass
``--repeats`` for more stable timings.

The lambda-step case times ``adaptive.lambda_step`` (Adam, K=32, ``full``
granularity, 1024-triplet train and validation batches drawn uniformly at
random) on a small and a large catalog, and prints the large/small ratio: the
step should cost O(batch), not O(|U|+|I|). Building the large catalog takes
about 1 GB of memory.

The evaluation case times full-catalog evaluation in milliseconds per user:
``evaluate.user_auc`` (validation stage) and ``evaluate.corpus_metrics``
(test stage, HR/NDCG at 50 and 100) on 200 users with 40 random events each,
K=32, over a 3k and a 50k item catalog.

The split case times ``data.chronological_split`` (ratios 0.6/0.2/0.2) on a
numpy-generated log of 100k users with 1 to 20 events each, about 1M events
over 50k items in random order, with timestamps drawn from a small range so
that ties occur.
"""

import argparse
import time

import numpy as np

from adaptreg import _kernels
from adaptreg.adaptive import RegCoefficients, lambda_step
from adaptreg.data import InteractionLog, chronological_split
from adaptreg.evaluate import corpus_metrics, user_auc
from adaptreg.mf import Embeddings, TripletBatch, bpr_gradient
from adaptreg.optim import make_optimizer

LAMBDA_SIZES = ((5_000, 5_000), (500_000, 100_000))  # users x items
EVAL_ITEMS = (3_000, 50_000)
SPLIT_USERS, SPLIT_ITEMS = 100_000, 50_000
TRAIN_BATCH = 8192


def triplet_case(rng, size, U, I, K):
    uf = rng.normal(0, 0.3, (U, K))
    itf = rng.normal(0, 0.3, (I, K))
    users = rng.integers(0, U, size)
    pos = rng.integers(0, I, size)
    neg = rng.integers(0, I, size)
    urows, u_inv = np.unique(users, return_inverse=True)
    irows, inv = np.unique(np.concatenate([pos, neg]), return_inverse=True)
    return dict(uf=uf, itf=itf, users=users, pos=pos, neg=neg,
                urows=urows, irows=irows, u_inv=u_inv,
                p_inv=inv[:size], n_inv=inv[size:])


def time_call(fn, repeats):
    fn()  # warm-up
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def lambda_step_ms(users, items, dim=32, batch=1024, steps=20, repeats=5):
    """Best-of-``repeats`` mean milliseconds per lambda step over ``steps``
    pre-drawn batch pairs, after one warm-up pass."""
    rng = np.random.default_rng(0)

    def draw():
        return TripletBatch(rng.integers(0, users, batch), rng.integers(0, items, batch),
                            rng.integers(0, items, batch))

    emb = Embeddings.init(users, items, dim, 0.1, rng)
    opt = make_optimizer("adam")
    opt.step(emb, bpr_gradient(emb, draw()))  # allocates the moments
    lam = RegCoefficients.create("full", users, items, dim, init=0.01)
    pairs = [(draw(), draw()) for _ in range(steps)]

    def run():
        for tb, vb in pairs:
            lambda_step(lam, emb, opt, tb, vb, 1e-3, 1.0)

    return time_call(run, repeats) / steps * 1e3


def eval_ms(items, users=200, events=40, dim=32, repeats=3):
    """Best-of-``repeats`` milliseconds per user for ``user_auc`` over every
    user and for one ``corpus_metrics`` call."""
    rng = np.random.default_rng(0)
    log = InteractionLog(
        users=np.repeat(np.arange(users), events),
        items=np.concatenate([rng.choice(items, events, replace=False)
                              for _ in range(users)]),
        times=rng.integers(0, 10**6, users * events),
        num_users=users, num_items=items)
    split = chronological_split(log)
    emb = Embeddings.init(users, items, dim, 0.1, rng)
    auc_s = time_call(lambda: [user_auc(emb, split, u, "validation")
                               for u in range(users)], repeats)
    metrics_s = time_call(lambda: corpus_metrics(emb, split), repeats)
    return auc_s / users * 1e3, metrics_s / users * 1e3


def split_s(users=SPLIT_USERS, items=SPLIT_ITEMS, repeats=3):
    """Best-of-``repeats`` seconds for one ``chronological_split`` call, and
    the number of events in the log."""
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 21, users)
    n = int(counts.sum())
    log = InteractionLog(
        users=rng.permutation(np.repeat(np.arange(users), counts)),
        items=rng.integers(0, items, n),
        times=rng.integers(0, 10**5, n),
        num_users=users, num_items=items)
    return time_call(lambda: chronological_split(log), repeats), n


def kernel_table(size, args):
    rng = np.random.default_rng(0)
    c = triplet_case(rng, size, args.users, args.items, args.dim)
    K = args.dim
    lr, corr, b1, b2, eps = 0.01, 0.3162, 0.9, 0.999, 1e-8
    g_user = rng.normal(0, 1, (len(c["urows"]), K))
    s = np.zeros((args.users, K))
    r = np.zeros((args.users, K))
    scatter_idx = rng.integers(0, args.users * K, size)
    scatter_vals = rng.normal(0, 1, size)
    gu = np.zeros((len(c["urows"]), K))
    gi = np.zeros((len(c["irows"]), K))
    cases = {
        "bpr_loss": lambda: _kernels.bpr_loss_batch(
            c["uf"], c["itf"], c["users"], c["pos"], c["neg"]),
        "bpr_grad": lambda: _kernels.bpr_grad_batch(
            c["uf"], c["itf"], c["users"], c["pos"], c["neg"],
            c["u_inv"], c["p_inv"], c["n_inv"], gu, gi),
        "sgd_step": lambda: _kernels.sgd_step(
            c["uf"].copy(), c["urows"], g_user, lr),
        "adam_step": lambda: _kernels.adam_step(
            c["uf"].copy(), s.copy(), r.copy(), c["urows"], g_user,
            lr, corr, b1, b2, eps),
        "scatter_add": lambda: _kernels.scatter_add(
            np.zeros(args.users * K), scatter_idx, scatter_vals),
    }

    print()
    print(f"batch={size} users={args.users} items={args.items} dim={args.dim}")
    print(f"{'kernel':<12} {'ms':>11}")
    for name, fn in cases.items():
        print(f"{name:<12} {time_call(fn, args.repeats) * 1e3:>11.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=100_000)
    ap.add_argument("--users", type=int, default=5_000)
    ap.add_argument("--items", type=int, default=20_000)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    for size in (args.size, TRAIN_BATCH):
        kernel_table(size, args)

    print()
    print("lambda step: adam, dim=32, batch=1024, granularity=full")
    times = []
    for users, items in LAMBDA_SIZES:
        times.append(lambda_step_ms(users, items))
        print(f"{users:>7} users x {items:>7} items {times[-1]:>8.2f} ms/step")
    print(f"large/small ratio {times[-1] / times[0]:.2f}")

    print()
    print("evaluation: dim=32, 200 users, ms per user")
    for items in EVAL_ITEMS:
        auc_ms, metrics_ms = eval_ms(items)
        print(f"{items:>7} items  user_auc {auc_ms:>7.3f}  corpus_metrics {metrics_ms:>7.3f}")

    print()
    seconds, events = split_s()
    print(f"chronological split: {SPLIT_USERS} users, {events} events, "
          f"{seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
