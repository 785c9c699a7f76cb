"""Kernel timings, plus the cost of one coefficient (lambda) step.

Run with ``python3 benchmarks/bench_kernels.py``. The kernel table times each
kernel of ``adaptreg._kernels`` at the ``--size`` triplet batch and again at a
training batch of 8192 triplets. The ``bpr_grad`` row is the one scoring pass
of a batch: it returns the batch loss with freshly built gradient blocks, so
its repeats share no output buffer. There is no loss-only kernel to time
(``mf.bpr_loss`` reads the loss of that pass). Pass ``--repeats`` for more
stable timings.

The lambda-step case times ``adaptive.lambda_step`` (Adam, K=32, ``full``
granularity, 1024-triplet train and validation batches drawn uniformly at
random) on a small and a large catalog, and prints the large/small ratio: the
step should cost O(batch), not O(|U|+|I|). Building the large catalog takes
about 1 GB of memory.

The hypergradient case times one ``adaptive.sparse_hypergradient`` call (Adam,
K=32, 1024-triplet train and validation batches drawn by
``data.sample_triplets``) on ``tests/_synth.make_split(seed=3)`` at 4k x 3k and
20k x 5k, for ``full`` and ``user`` granularity, and records how many rows the
train batch touches and how many of them the validation batch also reads.

The wide Adam case times one ``_kernels.adam_step`` pair shaped like a training
step on the wide perfbench corpora: 8192 user draws on 100k rows plus 16384
item draws on 50k rows, K=32, updated in place.

The evaluation case times full-catalog evaluation in milliseconds per user:
``evaluate.user_auc`` over every user and ``evaluate.corpus_auc`` (both at the
validation stage), and ``evaluate.corpus_metrics`` (test stage, HR/NDCG at 50
and 100), on 200 users with 40 random events each, K=32, over a 3k and a 50k
item catalog. It also records how many users ``corpus_auc`` could not
certify from its block product and scored one at a time instead.

The split case times ``data.chronological_split`` (ratios 0.6/0.2/0.2) on a
numpy-generated log of 100k users with 1 to 20 events each, about 1M events
over 50k items in random order, with timestamps drawn from a small range so
that ties occur. It also records, with ``tracemalloc``, the bytes that the
built split keeps allocated and the peak while building it.

The ingest case writes a ``u<id>,i<id>,<time>`` file shaped like the
pipeline-small corpus (``tests/_synth.write_plain_log``: about 190k rows over
4k users and 3k items, 2% of them repeating an earlier pair) and times
``data.load_interactions`` on it through the plain (array) reader and, forced,
through the row reader, and ``data.filter_min_count`` (20/20) on the loaded
log. Each row also records its ``tracemalloc`` peak per input byte.

Every timing is CPU time of this process (``time.process_time``), not wall
time, so that a figure moves less with the load other processes put on the
host. The BLAS is pinned to one thread before numpy is imported, as in
``perfbench/run.py``, so that CPU time does not sum BLAS threads.

Every table printed is also written to ``--out`` (``BENCH_kernels.json`` at
the repository root by default), with the numpy version, the BLAS build and
the CPU model the timings were taken on. The tables print the best repeat;
the file records each timing as the min, median and max over its repeats
plus every repeat in run order, so that it carries its own noise band.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy is imported

import numpy as np

from adaptreg import _kernels, data, evaluate
from adaptreg.adaptive import RegCoefficients, lambda_step, sparse_hypergradient
from adaptreg.data import InteractionLog, chronological_split, sample_triplets
from adaptreg.mf import Embeddings, TripletBatch, bpr_gradient
from adaptreg.optim import make_optimizer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _synth import make_split, write_plain_log  # noqa: E402

LAMBDA_SIZES = ((5_000, 5_000), (500_000, 100_000))  # users x items
HYPERGRADIENT_SIZES = ((4_000, 3_000), (20_000, 5_000))  # users x items
WIDE_ADAM = dict(user_draws=8192, user_rows=100_000, item_draws=16_384,
                 item_rows=50_000, dim=32)
EVAL_ITEMS = (3_000, 50_000)
SPLIT_USERS, SPLIT_ITEMS = 100_000, 50_000
INGEST_ROWS = 190_000
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


def time_call(fn, repeats, scale=1e3):
    """Per-repeat CPU times of ``fn`` after one warm-up call, in seconds times
    ``scale`` (milliseconds by default): ``{min, median, max, repeats}``."""
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        times.append((time.process_time() - t0) * scale)
    return dict(min=min(times), median=float(np.median(times)), max=max(times),
                repeats=times)


def lambda_step_ms(users, items, dim=32, batch=1024, steps=20, repeats=5):
    """Mean milliseconds per lambda step over ``steps`` pre-drawn batch pairs,
    per repeat, after one warm-up pass."""
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

    return time_call(run, repeats, 1e3 / steps)


def hypergradient_ms(split, granularity, dim=32, batch=1024, calls=20, repeats=10):
    """Mean milliseconds per ``sparse_hypergradient`` call over ``calls``
    pre-drawn train/validation batch pairs, per repeat, and the mean number
    of user and item rows the train batch touches and the validation batch
    also reads."""
    rng = np.random.default_rng(3)
    emb = Embeddings.init(split.num_users, split.num_items, dim, 0.1, rng)
    opt = make_optimizer("adam")
    opt.step(emb, bpr_gradient(emb, sample_triplets(split, rng, batch)))
    lam = RegCoefficients.create(granularity, split.num_users, split.num_items,
                                 dim, init=0.01)
    pairs = [(sample_triplets(split, rng, batch, "train"),
              sample_triplets(split, rng, batch, "validation")) for _ in range(calls)]
    rows = np.zeros(4)
    for tb, vb in pairs:
        t_users, t_items = np.unique(tb.users), np.unique(np.concatenate([tb.pos, tb.neg]))
        rows += (len(t_users), np.isin(t_users, vb.users).sum(), len(t_items),
                 np.isin(t_items, np.concatenate([vb.pos, vb.neg])).sum())
    rows /= calls

    def run():
        for tb, vb in pairs:
            sparse_hypergradient(lam, emb, opt, tb, vb)

    ms = time_call(run, repeats, 1e3 / calls)
    return ms, dict(zip(("user_rows", "shared_user_rows", "item_rows",
                         "shared_item_rows"), rows.tolist()))


def wide_adam_ms(repeats):
    """Milliseconds per repeat for the user and the item side of one
    ``adam_step`` shaped like a wide-corpus training step."""
    rng = np.random.default_rng(0)
    K = WIDE_ADAM["dim"]
    ms = {}
    for side in ("user", "item"):
        n = WIDE_ADAM[f"{side}_rows"]
        rows = np.unique(rng.integers(0, n, WIDE_ADAM[f"{side}_draws"]))
        param = rng.normal(0, 0.1, (n, K))
        s, r = np.zeros((n, K)), np.zeros((n, K))
        g = rng.normal(0, 1, (len(rows), K))
        ms[side] = time_call(lambda: _kernels.adam_step(
            param, s, r, rows, g, 0.01, 0.3162, 0.9, 0.999, 1e-8), repeats)
    return ms


def fallback_users(emb, split, stage):
    """How many users one ``corpus_auc`` call scores through the per-user
    ``_score_user``."""
    real, calls = evaluate._score_user, []
    evaluate._score_user = lambda *args: calls.append(args[2]) or real(*args)
    try:
        evaluate.corpus_auc(emb, split, stage)
    finally:
        evaluate._score_user = real
    return len(calls)


def eval_ms(items, users=200, events=40, dim=32, repeats=3):
    """Milliseconds per user, per repeat, for ``user_auc`` over every user, for
    one ``corpus_auc`` and one ``corpus_metrics`` call, and the users that
    ``corpus_auc`` scores one at a time."""
    rng = np.random.default_rng(0)
    log = InteractionLog(
        users=np.repeat(np.arange(users), events),
        items=np.concatenate([rng.choice(items, events, replace=False)
                              for _ in range(users)]),
        times=rng.integers(0, 10**6, users * events),
        num_users=users, num_items=items)
    split = chronological_split(log)
    emb = Embeddings.init(users, items, dim, 0.1, rng)
    return dict(
        user_auc_ms=time_call(lambda: [evaluate.user_auc(emb, split, u, "validation")
                                       for u in range(users)], repeats, 1e3 / users),
        corpus_auc_ms=time_call(lambda: evaluate.corpus_auc(emb, split, "validation"),
                                repeats, 1e3 / users),
        corpus_metrics_ms=time_call(lambda: evaluate.corpus_metrics(emb, split),
                                    repeats, 1e3 / users),
        corpus_auc_fallback_users=fallback_users(emb, split, "validation"))


def split_case(users=SPLIT_USERS, items=SPLIT_ITEMS, repeats=3):
    """Milliseconds per repeat for one ``chronological_split`` call, the
    number of events in the log, and the traced bytes the built split keeps
    and peaks at."""
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 21, users)
    n = int(counts.sum())
    log = InteractionLog(
        users=rng.permutation(np.repeat(np.arange(users), counts)),
        items=rng.integers(0, items, n),
        times=rng.integers(0, 10**5, n),
        num_users=users, num_items=items)
    ms = time_call(lambda: chronological_split(log), repeats)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    split = chronological_split(log)  # alive while its memory is read
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return dict(users=users, items=items, events=n, ms=ms,
                kept_bytes=kept - before, peak_bytes=peak - before)


def traced_peak(fn):
    """The ``tracemalloc`` peak, in bytes, of one ``fn()`` call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ingest_case(rows=INGEST_ROWS, repeats=5, **catalog):
    """Milliseconds per repeat, and the traced peak per input byte, for
    ``load_interactions`` through the plain reader and through the row
    reader, and for ``filter_min_count`` (20/20), on a ``write_plain_log``
    file of about ``rows`` rows (``catalog`` sets its users and items)."""
    def rows_load():
        real, data._plain_columns = data._plain_columns, lambda *args: None
        try:
            return data.load_interactions(path)
        finally:
            data._plain_columns = real

    with tempfile.TemporaryDirectory() as tmp:
        path = write_plain_log(Path(tmp) / "raw.csv", rows, **catalog)
        size = path.stat().st_size
        log = data.load_interactions(path)
        cases = dict(load_plain=lambda: data.load_interactions(path), load_rows=rows_load,
                     filter_min_count=lambda: data.filter_min_count(log, 20, 20))
        out = dict(rows=len(log), bytes=size)
        for name, fn in cases.items():
            out[name] = dict(ms=time_call(fn, repeats), peak_per_byte=traced_peak(fn) / size)
    return out


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
    cases = {
        "bpr_grad": lambda: _kernels.bpr_grad_batch(
            c["uf"], c["itf"], c["users"], c["pos"], c["neg"],
            c["u_inv"], c["p_inv"], c["n_inv"], len(c["urows"]), len(c["irows"])),
        "adam_step": lambda: _kernels.adam_step(
            c["uf"].copy(), s.copy(), r.copy(), c["urows"], g_user,
            lr, corr, b1, b2, eps),
        "scatter_add": lambda: _kernels.scatter_add(
            np.zeros(args.users * K), scatter_idx, scatter_vals),
    }

    print()
    print(f"batch={size} users={args.users} items={args.items} dim={args.dim}")
    print(f"{'kernel':<12} {'ms':>11}")
    ms = {}
    for name, fn in cases.items():
        ms[name] = time_call(fn, args.repeats)
        print(f"{name:<12} {ms[name]['min']:>11.3f}")
    return dict(batch=size, users=args.users, items=args.items, dim=args.dim, ms=ms)


def environment():
    """The numeric stack and CPU the timings were taken on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(python=platform.python_version(), numpy=np.__version__,
                blas=blas.get("openblas configuration", blas.get("name", "")), cpu=cpu)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=100_000)
    ap.add_argument("--users", type=int, default=5_000)
    ap.add_argument("--items", type=int, default=20_000)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"))
    args = ap.parse_args()
    result = {"environment": environment()}

    result["kernels"] = [kernel_table(size, args) for size in (args.size, TRAIN_BATCH)]

    print()
    print(f"adam_step, wide step shape: {WIDE_ADAM['user_draws']} user draws on "
          f"{WIDE_ADAM['user_rows']} rows + {WIDE_ADAM['item_draws']} item draws on "
          f"{WIDE_ADAM['item_rows']} rows, dim={WIDE_ADAM['dim']}")
    wide = wide_adam_ms(args.repeats)
    print(f"user {wide['user']['min']:.3f} ms  item {wide['item']['min']:.3f} ms")
    result["adam_step_wide"] = dict(WIDE_ADAM, ms=wide)

    print()
    print("sparse_hypergradient: adam, dim=32, batch=1024, make_split(seed=3)")
    rows = []
    for users, items in HYPERGRADIENT_SIZES:
        split = make_split(num_users=users, num_items=items, seed=3)
        for granularity in ("full", "user"):
            ms, touched = hypergradient_ms(split, granularity)
            rows.append(dict(users=users, items=items, granularity=granularity,
                             ms_per_call=ms, **touched))
            print(f"{users:>7} users x {items:>7} items {granularity:<5} {ms['min']:>8.2f} ms/call"
                  f"  user rows {touched['shared_user_rows']:.0f}/{touched['user_rows']:.0f}"
                  f"  item rows {touched['shared_item_rows']:.0f}/{touched['item_rows']:.0f}"
                  " shared/touched")
    result["hypergradient"] = dict(optimizer="adam", dim=32, batch=1024, seed=3, sizes=rows)

    print()
    print("lambda step: adam, dim=32, batch=1024, granularity=full")
    rows = []
    for users, items in LAMBDA_SIZES:
        rows.append(dict(users=users, items=items, ms_per_step=lambda_step_ms(users, items)))
        ms = rows[-1]["ms_per_step"]["min"]
        print(f"{users:>7} users x {items:>7} items {ms:>8.2f} ms/step")
    ratio = rows[-1]["ms_per_step"]["median"] / rows[0]["ms_per_step"]["median"]
    print(f"large/small ratio of the medians {ratio:.2f}")
    result["lambda_step"] = dict(optimizer="adam", dim=32, batch=1024, granularity="full",
                                 sizes=rows, large_small_ratio=ratio)

    print()
    print("evaluation: dim=32, 200 users, ms per user")
    rows = []
    for items in EVAL_ITEMS:
        rows.append(dict(items=items, **eval_ms(items)))
        print(f"{items:>7} items  user_auc {rows[-1]['user_auc_ms']['min']:>7.3f}  "
              f"corpus_auc {rows[-1]['corpus_auc_ms']['min']:>7.3f}  "
              f"corpus_metrics {rows[-1]['corpus_metrics_ms']['min']:>7.3f}  "
              f"fallback users {rows[-1]['corpus_auc_fallback_users']}")
    result["evaluation"] = dict(dim=32, users=200, events_per_user=40, catalogs=rows)

    print()
    split = split_case()
    print(f"chronological split: {split['users']} users, {split['events']} events, "
          f"{split['ms']['min']:.1f} ms, keeps {split['kept_bytes'] / 2**20:.1f} MiB "
          f"(peak {split['peak_bytes'] / 2**20:.1f} MiB)")
    result["split"] = split

    print()
    ingest = ingest_case()
    print(f"ingest: {ingest['bytes'] / 2**20:.2f} MiB, {ingest['rows']} events after dedupe")
    for name in ("load_plain", "load_rows", "filter_min_count"):
        print(f"{name:<17} {ingest[name]['ms']['min']:>8.1f} ms  "
              f"peak {ingest[name]['peak_per_byte']:.2f} B/input byte")
    result["ingest"] = ingest

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
