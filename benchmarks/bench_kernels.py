"""Phase costs of training steps, and timings of the parts around them.

Run with ``python3 benchmarks/bench_kernels.py``. The train-step case makes
short ``adaptive.train_model`` runs, evaluation stubbed, and reads each
step's phase seconds and counts from ``TrainResult.phases``: per phase the
milliseconds per step (wall time, median of ``--repeats`` runs), the counts,
each run's CPU seconds, and the cost factor over ``fix``: the median over the
repeats of one repeat's ratio of CPU seconds per step. The configs of a table
take turns within each repeat, so that a change in host load falls on all of
them alike. It runs
``tests/_synth.make_split(seed=3)`` at 4k x 3k and 20k x 5k with ``fix``,
``opt/full``, ``opt/user`` and ``opt/full`` + ``adam_on_lambda`` (Adam, K=32,
batch and lambda batch 1024, 2 epochs), and perfbench's seed-7 wide corpus
under the ``fixed-wide`` and ``adaptive-wide`` overrides of
``perfbench/workloads.json``. Each ``opt`` row also records the coverage of
the same runs: ``lambda_entries / (lambda_steps * lam.num_entries)``.

The evaluation case times, in milliseconds per user, ``evaluate.user_auc``
over every user and ``evaluate.corpus_auc`` at the validation stage, and
``evaluate.corpus_metrics`` (HR/NDCG at 50 and 100), on 200 users with 40
random events each, K=32, over a 3k and a 50k item catalog. It also counts
the users that the validation ``corpus_auc`` call and the test
``corpus_metrics`` call could not certify from their block products.

The ingest case times ``data.load_interactions`` on perfbench's seed-7
``pipeline-small`` CSV (the plain reader) and on a copy with every field
quoted (the row reader, which no perfbench workload runs).

No timed run replaces a library function. Every timing but the phase seconds
is CPU time (``time.process_time``), which moves less with the load of other
processes, and so is the cost factor. The BLAS is pinned to one thread
before numpy is imported, as in ``perfbench/run.py``.

Every run ends in one line ``{"metrics": {name: {"value": ms, "unit": "ms",
"better": "lower"}}}``: each train-step row's ``step_ms``
(``train_step.4000x3000.opt/full.step_ms``, ``train_step.wide.fixed-wide.step_ms``),
each evaluation function's median milliseconds per user on each catalog
(``evaluation.3000.corpus_auc_ms``) and each reader's median milliseconds
(``ingest.load_rows_ms``).
``--case train_step`` or ``--case evaluation`` runs one case and writes no
file, so that ``benchmarks/ab.py`` can pair it against a parent commit::

    python3 benchmarks/ab.py HEAD~1 --pairs 10 -- \\
        python3 benchmarks/bench_kernels.py --case train_step --repeats 1

With no ``--case``, every case runs, and every table is also written to
``--out`` (``BENCH_kernels.json`` at the repository root by default) with the
Python and numpy versions, BLAS build and CPU model. The train-step tables
print medians, the others their best repeat; the file records each of their
timings as the min, median and max plus every repeat in run order.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy is imported

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# this checkout's library, so that each side of an ab.py pair runs its own
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
from adaptreg import data, evaluate  # noqa: E402
from adaptreg.adaptive import PHASE_COUNTS, PHASE_SECONDS, train_model  # noqa: E402
from adaptreg.config import load_config  # noqa: E402
from adaptreg.data import InteractionLog, chronological_split  # noqa: E402
from adaptreg.mf import Embeddings  # noqa: E402
import corpus  # noqa: E402  perfbench's corpus generators
import golden  # noqa: E402
from _synth import make_split  # noqa: E402

SYNTH_SIZES = ((4_000, 3_000), (20_000, 5_000))  # users x items
TRAIN_CONFIGS = {  # --set overrides of each train-step config on the synthetic splits
    "fix": ["regularization.mode=fix", "regularization.fixed_value=0.01"],
    "opt/full": [],
    "opt/user": ["regularization.granularity=user"],
    "opt/full+adam_on_lambda": ["regularization.adam_on_lambda=true"],
}
TRAIN_BASE = ["optimizer.kind=adam", "model.dim=32", "training.epochs=2",
              "training.batch_size=1024", "training.lambda_batch_size=1024"]
WORKLOAD_SEED, WIDE_WORKLOADS = 7, ("fixed-wide", "adaptive-wide")
STEP_PHASES = tuple(k for k in PHASE_SECONDS if k != "eval")  # eval is stubbed
EVAL_ITEMS = (3_000, 50_000)
EVAL_FUNCTIONS = ("user_auc", "corpus_auc", "corpus_metrics")
EVAL_FALLBACKS = EVAL_FUNCTIONS[1:]  # the calls that score users in blocks
INGEST_READERS = ("load_plain", "load_rows")


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


def train_step_rows(cases, repeats):
    """``repeats`` runs of each of ``cases`` (``{name: (split, overrides)}``),
    evaluation stubbed, the cases taking turns within each repeat so that a
    change in host load falls on all of them alike. Per case, a row of the
    median ms per step of each phase and of their sum (``step_ms``), the
    phase counts, each run's CPU seconds and, when the runs take λ steps,
    ``coverage``: the share of the coefficient entries that a λ step's
    hypergradient reaches, ``lambda_entries / (lambda_steps * num_entries)``."""
    configs = {name: load_config(None, overrides) for name, (_, overrides) in cases.items()}
    runs = {name: [] for name in cases}
    for _ in range(repeats):
        for name, (split, _) in cases.items():
            t0 = time.process_time()
            result = train_model(split, configs[name], eval_fn=lambda emb: 0.5)
            runs[name].append((result.phases, time.process_time() - t0, result.lam.num_entries))
    rows = {}
    for name, (_, overrides) in cases.items():
        phases = [p for p, _, _ in runs[name]]
        per_step = 1e3 / phases[0]["steps"]
        median = lambda fn: float(np.median([fn(p) for p in phases])) * per_step
        counts = {k: phases[0][k] for k in PHASE_COUNTS}  # seeded: every run's
        row = rows[name] = dict(
            overrides=overrides,
            ms_per_step={k: median(lambda p: p[k]) for k in PHASE_SECONDS},
            step_ms=median(lambda p: sum(p[k] for k in STEP_PHASES)),
            counts=counts, cpu_s=[cpu for _, cpu, _ in runs[name]])
        if counts["lambda_steps"]:
            row["coverage"] = counts["lambda_entries"] / (
                counts["lambda_steps"] * runs[name][0][2])
    return rows


def train_step_table(title, rows, base):
    """Print ``train_step_rows`` rows by name, each with its cost factor over
    row ``base``: the median over the repeats of the ratio of their CPU
    seconds per step in that repeat."""
    cpu_per_step = lambda row: np.array(row["cpu_s"]) / row["counts"]["steps"]
    print(f"{title}: ms per step (wall), cost factor in CPU time")
    print(f"{'config':<24}" + "".join(f"{k:>10}" for k in STEP_PHASES)
          + f"{'step':>10}  factor  coverage")
    for name, row in rows.items():
        row["cost_factor"] = float(np.median(cpu_per_step(row) / cpu_per_step(rows[base])))
        coverage = f"{row['coverage']:>10.4f}" if "coverage" in row else ""
        print(f"{name:<24}" + "".join(f"{row['ms_per_step'][k]:>10.2f}" for k in STEP_PHASES)
              + f"{row['step_ms']:>10.2f}  {row['cost_factor']:>5.2f}x{coverage}")


def train_step_tables(splits, repeats, **generator):
    """Print and return the train-step tables: ``TRAIN_CONFIGS`` on each of
    ``splits`` (``{(users, items): split}``), then the wide workloads, whose
    generator fields ``generator`` replaces."""
    sizes = []
    for (users, items), split in splits.items():
        print()
        rows = train_step_rows({name: (split, TRAIN_BASE + overrides)
                                for name, overrides in TRAIN_CONFIGS.items()}, repeats)
        train_step_table(f"train_step, make_split({users} x {items}, seed=3)", rows, "fix")
        sizes.append(dict(users=users, items=items, configs=rows))
    print()
    wide = train_step_rows(wide_cases(**generator), repeats)
    train_step_table(f"train_step, perfbench wide corpus (seed {WORKLOAD_SEED})", wide,
                     "fixed-wide")
    return dict(eval="stubbed", repeats=repeats, synth_seed=3, synth=sizes,
                wide_seed=WORKLOAD_SEED, wide=wide)


def step_metrics(train_step):
    """Each train-step row's ``step_ms``, by the names
    ``train_step.<users>x<items>.<config>.step_ms`` and
    ``train_step.wide.<workload>.step_ms``."""
    rows = {f"{size['users']}x{size['items']}.{name}": row
            for size in train_step["synth"] for name, row in size["configs"].items()}
    rows.update((f"wide.{name}", row) for name, row in train_step["wide"].items())
    return {f"train_step.{key}.step_ms": row["step_ms"] for key, row in rows.items()}


def workload(name, **generator):
    """The training overrides and generator fields (less ``kind``) of perfbench
    workload ``name``; ``generator`` replaces generator fields."""
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"][name]
    return spec["train"], {k: v for k, v in {**spec["generator"], **generator}.items()
                           if k != "kind"}


def wide_cases(**generator):
    """``{name: (split, overrides)}`` of the wide workloads: the seed-7
    ``wide_log`` corpus of each, one split per distinct generator, and its
    training overrides; ``generator`` replaces generator fields."""
    splits, cases = {}, {}
    for name in WIDE_WORKLOADS:
        train, gen = workload(name, **generator)
        key = json.dumps(gen, sort_keys=True)
        if key not in splits:
            users, items, times = corpus.wide_log(WORKLOAD_SEED, **gen)
            splits[key] = chronological_split(InteractionLog(
                users, items, times, gen["num_users"], gen["num_items"]))
        cases[name] = (splits[key], train + [f"training.seed={WORKLOAD_SEED}"])
    return cases


def fallback_users(call):
    """How many users ``call()`` scores through ``evaluate._score_user``. It
    swaps a counting wrapper in for that one call, which no timing includes."""
    real, calls = evaluate._score_user, []
    evaluate._score_user = lambda *args: calls.append(args[2]) or real(*args)
    try:
        call()
    finally:
        evaluate._score_user = real
    return len(calls)


def eval_ms(items, users=200, events=40, dim=32, repeats=3):
    """Milliseconds per user, per repeat, for ``user_auc`` over every user, for
    one validation ``corpus_auc`` and one test ``corpus_metrics`` call, and the
    users that each of those two calls scores one at a time."""
    rng = np.random.default_rng(0)
    log = InteractionLog(
        users=np.repeat(np.arange(users), events),
        items=np.concatenate([rng.choice(items, events, replace=False)
                              for _ in range(users)]),
        times=rng.integers(0, 10**6, users * events),
        num_users=users, num_items=items)
    split = chronological_split(log)
    emb = Embeddings.init(users, items, dim, 0.1, rng)
    calls = dict(corpus_auc=lambda: evaluate.corpus_auc(emb, split, "validation"),
                 corpus_metrics=lambda: evaluate.corpus_metrics(emb, split))
    return dict(
        user_auc_ms=time_call(lambda: [evaluate.user_auc(emb, split, u, "validation")
                                       for u in range(users)], repeats, 1e3 / users),
        **{f"{fn}_ms": time_call(call, repeats, 1e3 / users) for fn, call in calls.items()},
        **{f"{fn}_fallback_users": fallback_users(call) for fn, call in calls.items()})


def evaluation_table(catalogs=EVAL_ITEMS, users=200, events=40, dim=32, repeats=3):
    """Print and return the evaluation rows: ``eval_ms`` on each catalog size
    of ``catalogs``."""
    print(f"evaluation: dim={dim}, {users} users, ms per user")
    rows = []
    for items in catalogs:
        rows.append(dict(items=items, **eval_ms(items, users, events, dim, repeats)))
        print(f"{items:>7} items" + "".join(
            f"  {fn} {rows[-1][f'{fn}_ms']['min']:>7.3f}" for fn in EVAL_FUNCTIONS)
            + "  fallback users" + "".join(f" {fn} {rows[-1][f'{fn}_fallback_users']}"
                                          for fn in EVAL_FALLBACKS))
    return dict(dim=dim, users=users, events_per_user=events, catalogs=rows)


def eval_metrics(evaluation):
    """Each evaluation function's median milliseconds per user on each
    catalog, by the name ``evaluation.<items>.<fn>_ms``."""
    return {f"evaluation.{row['items']}.{fn}_ms": row[f"{fn}_ms"]["median"]
            for row in evaluation["catalogs"] for fn in EVAL_FUNCTIONS}


def ingest_table(repeats=3, **generator):
    """Print and return the sizes of perfbench's seed-7 ``pipeline-small`` CSV
    and of a copy with every field quoted, and the milliseconds per repeat of
    ``load_interactions`` on each (``load_plain``, and ``load_rows`` through
    the row reader); raises unless both load to the same log. ``generator``
    replaces generator fields."""
    with tempfile.TemporaryDirectory() as tmp:
        plain, quoted = Path(tmp) / "raw.csv", Path(tmp) / "quoted.csv"
        rows = corpus.write_small_csv(plain, WORKLOAD_SEED,
                                      **workload("pipeline-small", **generator)[1])
        quoted.write_text("".join(f'"{line}"\n'.replace(",", '","')
                                  for line in plain.read_text().splitlines()))
        logs = [data.load_interactions(path) for path in (plain, quoted)]
        if not all(np.array_equal(getattr(logs[0], k), getattr(logs[1], k))
                   for k in ("users", "items", "times", "user_tokens", "item_tokens")):
            raise RuntimeError("the quoted copy loads to another log than the plain file")
        out = dict(seed=WORKLOAD_SEED, rows=rows, bytes=plain.stat().st_size,
                   quoted_bytes=quoted.stat().st_size,
                   load_plain_ms=time_call(lambda: data.load_interactions(plain), repeats),
                   load_rows_ms=time_call(lambda: data.load_interactions(quoted), repeats))
    print(f"ingest: pipeline-small seed {WORKLOAD_SEED}, {rows} rows, "
          f"{out['bytes'] / 2**20:.2f} MiB plain, {out['quoted_bytes'] / 2**20:.2f} MiB "
          "quoted, ms" + "".join(f"  {name} {out[f'{name}_ms']['min']:.1f}"
                                 for name in INGEST_READERS))
    return out


def ingest_metrics(ingest):
    """Each reader's median milliseconds, by the name ``ingest.<reader>_ms``."""
    return {f"ingest.{name}_ms": ingest[f"{name}_ms"]["median"] for name in INGEST_READERS}


def metrics_line(metrics):
    """``{name: ms}`` as the ``{"metrics": ...}`` line that ``benchmarks/ab.py`` reads."""
    return json.dumps({"metrics": {name: dict(value=ms, unit="ms", better="lower")
                                   for name, ms in metrics.items()}})


CASES = {  # name: (print and return the case's table, the table's {metric: ms})
    "train_step": (lambda repeats: train_step_tables(
        {size: make_split(num_users=size[0], num_items=size[1], seed=3)
         for size in SYNTH_SIZES}, repeats), step_metrics),
    "evaluation": (lambda repeats: evaluation_table(repeats=repeats), eval_metrics),
    "ingest": (ingest_table, ingest_metrics),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per train-step config, and repeats of every other timing")
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    ap.add_argument("--case", choices=["train_step", "evaluation"], default=None,
                    help="run only this case and write no file")
    args = ap.parse_args()
    result = {"environment": dict(python=platform.python_version(), **golden.environment())}
    metrics = {}
    for name in [args.case] if args.case else CASES:
        table, to_metrics = CASES[name]
        print()
        result[name] = table(args.repeats)
        metrics.update(to_metrics(result[name]))
    if args.case is None:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    print(metrics_line(metrics))


if __name__ == "__main__":
    main()
