"""End-to-end and per-layer training benchmark for adaptreg.

Usage, from the repository root::

    python3 perfbench/run.py --workload adaptive-wide --seed 1 --seconds 20 --trace 0

One process runs one workload (see ``perfbench/workloads.json``). It
generates the workload's corpus from ``--seed``, then runs whole passes of
the workload (build the split, train, evaluate and, on ``pipeline-small``,
round-trip a checkpoint) until ``--seconds`` is used up, and at least two,
so that every pass can be checked to repeat the others bit for bit.

``--trace 0`` reports the end-to-end metrics, as medians over the passes;
set-up time is the median of at least three builds of the split. ``--trace 1`` runs one untraced
pass and one traced pass, and reports the per-layer metrics of the traced
pass; its result digest must equal the untraced one. The library is imported
from ``src/`` next to this directory and runs on its numpy kernels, with the
BLAS pinned to one thread. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Set before numpy is imported: one BLAS thread, and the numpy kernels even
# where numba is installed, so every machine measures the same code path.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["ADAPTREG_DISABLE_NUMBA"] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2
MIN_SETUPS = 3  # set-up samples per untraced run: extra builds plus one per pass
COMPUTED_BYTES = {"optim.assumed_step.out_bytes", "adaptive.index_map_bytes"}


def import_library():
    """Import adaptreg from this checkout's src/, or exit with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from adaptreg import _kernels, adaptive, checkpoint, config, data, evaluate, mf, optim
    except ImportError as exc:
        sys.exit(f"cannot import adaptreg from {src}: {exc}")
    if not Path(adaptive.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"adaptreg was imported from {adaptive.__file__}, not from {src}")
    return {"_kernels": _kernels, "adaptive": adaptive, "checkpoint": checkpoint,
            "config": config, "data": data, "evaluate": evaluate, "mf": mf,
            "optim": optim}


# ---------------------------------------------------------------------------
# One workload pass
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, spec, seed, lib, workdir):
        self.spec, self.seed, self.lib = spec, seed, lib
        self.workdir = workdir
        gen = dict(spec["generator"])
        kind = gen.pop("kind")
        if kind == "small_csv":
            self.csv = workdir / "raw.csv"
            self.rows = corpus.write_small_csv(self.csv, seed, **gen)
        elif kind == "wide_log":
            users, items, times = corpus.wide_log(seed, **gen)
            self.log = lib["data"].InteractionLog(users, items, times,
                                                  gen["num_users"], gen["num_items"])
            self.rows = len(users)
        else:
            raise ValueError(f"unknown generator {kind!r}")
        self.kind = kind
        self.cfg = lib["config"].load_config(
            None, list(spec["train"]) + [f"training.seed={seed}"])

    def build_split(self):
        data = self.lib["data"]
        if self.kind == "small_csv":
            ingest = self.spec["ingest"]
            log = data.load_interactions(str(self.csv))
            log = data.filter_min_count(log, ingest["min_user"], ingest["min_item"])
            return data.chronological_split(log)
        return data.chronological_split(self.log)

    def eval_users(self, split):
        """Seeded sample of the users with at least ``eval_min_positives``
        validation and test events (wide workloads); users with few positives
        make the sampled mean AUC noisy."""
        least = self.spec["eval_min_positives"]
        enough = [len(v) >= least and len(t) >= least for v, t in zip(split.val, split.test)]
        eligible = np.flatnonzero(enough)
        rng = np.random.default_rng([self.seed, 1])
        return np.sort(rng.choice(eligible, self.spec["eval_users"], replace=False))

    def mean_user_auc(self, emb, split, users, stage):
        user_auc = self.lib["evaluate"].user_auc
        vals = [user_auc(emb, split, int(u), stage) for u in users]
        return float(np.mean([v for v in vals if v is not None]))

    def run_pass(self, tracer=None):
        """One pass; returns timings, quality figures, failures and a digest."""
        evaluate = self.lib["evaluate"]
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        out = {"failures": [], "eval_s": 0.0, "eval_users": 0}
        t0 = time.perf_counter()
        with span("bench.setup"):
            split = self.build_split()
        t1 = time.perf_counter()
        out["setup_s"] = t1 - t0
        sample = None if self.kind == "small_csv" else self.eval_users(split)

        def eval_fn(emb):
            start = time.perf_counter()
            with span("bench.eval_fn"):
                if sample is None:
                    value = evaluate.corpus_auc(emb, split, stage="validation")
                    out["eval_users"] += split.num_users
                else:
                    value = self.mean_user_auc(emb, split, sample, "validation")
                    out["eval_users"] += len(sample)
            out["eval_s"] += time.perf_counter() - start
            return value

        t1 = time.perf_counter()
        with span("bench.train"):
            result = self.lib["adaptive"].train_model(split, self.cfg, eval_fn=eval_fn)
        t2 = time.perf_counter()
        out["train_s"] = t2 - t1 - out["eval_s"]
        steps = result.history[-1]["step"] if result.history else 0
        out["triplets"] = steps * self.cfg.training.batch_size
        if result.aborted:
            out["failures"].append(f"training aborted: {result.abort_reason}")
        vals = [row["val_auc"] for row in result.history if "val_auc" in row]
        out["val_auc"] = vals[-1] if vals else float("nan")

        with span("bench.final_eval"):
            if sample is None:
                report = evaluate.corpus_metrics(result.emb, split, ks=(50, 100))
                out["test_auc"] = report.auc
                out["test_hr_100"] = report.hr[100]
                out["test_ndcg_100"] = report.ndcg[100]
                out["eval_users"] += split.num_users
            else:
                out["test_auc"] = self.mean_user_auc(result.emb, split, sample, "test")
                out["eval_users"] += len(sample)
        t3 = time.perf_counter()
        out["eval_s"] += t3 - t2
        checked = vals + [out[k] for k in ("test_auc", "test_hr_100", "test_ndcg_100")
                          if k in out]
        if not vals or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in checked):
            out["failures"].append(f"metric non-finite or outside [0, 1]: {checked}")

        if sample is None:
            with span("bench.checkpoint"):
                problem = self.checkpoint_round_trip(result)
            if problem:
                out["failures"].append(problem)
        t4 = time.perf_counter()
        out["checkpoint_s"] = t4 - t3
        out["wall_s"] = t4 - t0
        out["digest"] = result_digest(result)
        return out

    def checkpoint_round_trip(self, result):
        ckpt = self.lib["checkpoint"]
        path = self.workdir / "checkpoint.npz"
        ckpt.save_checkpoint(str(path), result.emb, result.lam, result.optimizer)
        emb, lam, optimizer, _ = ckpt.load_checkpoint(str(path))
        path.unlink()
        same = (same_bits(emb.user, result.emb.user) and same_bits(emb.item, result.emb.item)
                and same_bits(lam.values, result.lam.values)
                and lam.granularity == result.lam.granularity
                and optimizer.state_digest() == result.optimizer.state_digest())
        return None if same else "checkpoint round trip is not bit-exact"


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def result_digest(result):
    h = hashlib.sha256()
    h.update(json.dumps(result.history, sort_keys=True, default=repr).encode())
    for arr in (result.lam.values, result.emb.user, result.emb.item):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def install_tracer(tracer, lib):
    data, mf, kern, optim = lib["data"], lib["mf"], lib["_kernels"], lib["optim"]
    adaptive, evaluate, ckpt = lib["adaptive"], lib["evaluate"], lib["checkpoint"]
    count = tracer.counts

    def on_hypergradient(args, G):
        count["hg.nonzero"] += np.count_nonzero(G)
        count["hg.entries"] += G.size

    def on_project(args, lam):
        G = args["G"]
        count["clip.over"] += np.count_nonzero(np.abs(G) > args["clip"])
        count["clip.nonzero"] += np.count_nonzero(G)
        count["zero.count"] += np.count_nonzero(lam.values == 0.0)
        count["zero.entries"] += lam.values.size

    def on_assumed(args, emb):
        count["optim.assumed_step.out_bytes"] = emb.user.nbytes + emb.item.nbytes

    def on_create(args, lam):
        # every array of the coefficient object except the values themselves
        count["adaptive.index_map_bytes"] = sum(
            v.nbytes for k, v in vars(lam).items()
            if isinstance(v, np.ndarray) and k != "values")

    def on_scatter(args, _):
        count["kernels.scatter_add.elements"] += len(list(args.values())[1])

    for owner, attr, name, hook in (
        (data, "load_interactions", "data.load_interactions", None),
        (data, "filter_min_count", "data.filter_min_count", None),
        (data, "chronological_split", "data.chronological_split", None),
        (data, "sample_triplets", "data.sample_triplets", None),
        (mf, "bpr_gradient", "mf.bpr_gradient", None),
        (mf, "bpr_loss", "mf.bpr_loss", None),
        (kern, "bpr_grad_batch", "kernels.bpr_grad_batch", None),
        (kern, "adam_step", "kernels.adam_step", None),
        (kern, "scatter_add", "kernels.scatter_add", on_scatter),
        (optim.AdamOptimizer, "step", "optim.step", None),
        (optim.AdamOptimizer, "assumed_step", "optim.assumed_step", on_assumed),
        (optim.AdamOptimizer, "lambda_jacobian", "optim.lambda_jacobian", None),
        (adaptive, "train_model", "adaptive.train_model", None),
        (adaptive, "hypergradient", "adaptive.hypergradient", on_hypergradient),
        (adaptive, "project_and_step", "adaptive.project_and_step", on_project),
        (adaptive, "compose_gradient", "adaptive.compose_gradient", None),
        (adaptive.RegCoefficients, "create", "adaptive.RegCoefficients.create", on_create),
        (adaptive, "record_trajectory", "adaptive.record_trajectory", None),
        (evaluate, "corpus_auc", "evaluate.corpus_auc", None),
        (evaluate, "user_auc", "evaluate.user_auc", None),
        (evaluate, "corpus_metrics", "evaluate.corpus_metrics", None),
        (ckpt, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (ckpt, "load_checkpoint", "checkpoint.load_checkpoint", None),
    ):
        tracer.wrap(owner, attr, name, hook)
    # private membership helper of the sampler: counted, not timed
    tracer.wrap(data, "_member", "data._member", record_span=False)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values; a metric whose wrapped name is absent is omitted."""
    T, C = tracer.totals(), tracer.counts

    def total_ms(span, wrapped=None):
        return [wrapped or span], lambda: T[span]["total"] * 1e3

    def self_ms(span, wrapped=None):
        return [wrapped or span], lambda: T[span]["self"] * 1e3

    def calls(span):
        return [span], lambda: T[span]["calls"]

    def count(key, wrapped):
        return [wrapped], lambda: C[key]

    def ratio(num, den, *wrapped):
        return list(wrapped), lambda: _ratio(C[num], C[den])

    # the lambda step is hypergradient plus projection, over training time
    # without the injected evaluation; the two lambda-batch samples are not in it
    train = T["adaptive.train_model"]["total"] - T["bench.eval_fn"]["total"]
    lam_step = T["adaptive.hypergradient"]["total"] + T["adaptive.project_and_step"]["total"]
    table = {
        "data.load_interactions.ms": total_ms("data.load_interactions"),
        "data.filter_min_count.ms": total_ms("data.filter_min_count"),
        "data.chronological_split.ms": total_ms("data.chronological_split"),
        "data.sample_triplets.self_ms": self_ms("data.sample_triplets"),
        "data.sample_triplets.calls": calls("data.sample_triplets"),
        "data.sample_triplets.probe_rounds": (
            ["data.sample_triplets", "data._member"],
            lambda: _ratio(C["data._member.calls"], T["data.sample_triplets"]["calls"])),
        "mf.bpr_gradient.step.self_ms": self_ms("mf.bpr_gradient.step", "mf.bpr_gradient"),
        "mf.bpr_gradient.lambda.self_ms": self_ms("mf.bpr_gradient.lambda", "mf.bpr_gradient"),
        "mf.bpr_loss.self_ms": self_ms("mf.bpr_loss"),
        "kernels.bpr_grad_batch.ms": total_ms("kernels.bpr_grad_batch"),
        "kernels.adam_step.ms": total_ms("kernels.adam_step"),
        "kernels.scatter_add.ms": total_ms("kernels.scatter_add"),
        "kernels.scatter_add.elements": count("kernels.scatter_add.elements",
                                              "kernels.scatter_add"),
        "optim.step.self_ms": self_ms("optim.step"),
        "optim.assumed_step.self_ms": self_ms("optim.assumed_step"),
        "optim.assumed_step.out_bytes": count("optim.assumed_step.out_bytes",
                                              "optim.assumed_step"),
        "optim.lambda_jacobian.self_ms": self_ms("optim.lambda_jacobian"),
        "adaptive.hypergradient.self_ms": self_ms("adaptive.hypergradient"),
        "adaptive.hypergradient.calls": calls("adaptive.hypergradient"),
        "adaptive.project_and_step.self_ms": self_ms("adaptive.project_and_step"),
        "adaptive.lambda_step_share": (
            ["adaptive.train_model", "adaptive.hypergradient", "adaptive.project_and_step"],
            lambda: _ratio(lam_step, train)),
        "adaptive.compose_gradient.self_ms": self_ms("adaptive.compose_gradient"),
        "adaptive.RegCoefficients.create.ms": total_ms("adaptive.RegCoefficients.create"),
        "adaptive.index_map_bytes": count("adaptive.index_map_bytes",
                                          "adaptive.RegCoefficients.create"),
        "adaptive.record_trajectory.self_ms": self_ms("adaptive.record_trajectory"),
        "adaptive.hypergrad_coverage": ratio("hg.nonzero", "hg.entries",
                                             "adaptive.hypergradient"),
        "adaptive.clipped_frac": ratio("clip.over", "clip.nonzero", "adaptive.project_and_step"),
        "adaptive.zero_frac": ratio("zero.count", "zero.entries", "adaptive.project_and_step"),
        "evaluate.corpus_auc.ms": total_ms("evaluate.corpus_auc"),
        "evaluate.user_auc.calls": calls("evaluate.user_auc"),
        "evaluate.user_auc.self_ms": self_ms("evaluate.user_auc"),
        "evaluate.corpus_metrics.ms": total_ms("evaluate.corpus_metrics"),
        "checkpoint.save_checkpoint.ms": total_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.ms": total_ms("checkpoint.load_checkpoint"),
    }
    absent = set(tracer.absent)
    return {name: float(fn()) for name, (deps, fn) in table.items() if not absent & set(deps)}


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def run_passes(workload, count_min, deadline):
    """Untraced passes while another one fits before ``deadline``, at least ``count_min``."""
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(guarded_pass(workload))
        now = time.perf_counter()
        if len(passes) >= count_min and now + (now - start) > deadline:
            return passes


def guarded_pass(workload, tracer=None):
    try:
        return workload.run_pass(tracer)
    except Exception as exc:  # a failing pass is counted, not fatal
        traceback.print_exc()
        return {"failures": [f"pass raised {type(exc).__name__}: {exc}"]}


def check_digests(passes):
    """Every pass after the first must reproduce the first one's digest."""
    ref = next((p["digest"] for p in passes if "digest" in p), None)
    for n, p in enumerate(passes):
        if "digest" in p and p["digest"] != ref:
            p["failures"].append(f"pass {n} result digest differs from pass 0")


def end_to_end(passes, setups):
    done = [p for p in passes if "wall_s" in p]
    med = lambda key: statistics.median(p[key] for p in done)
    failed = sum(1 for p in passes if p["failures"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "train_triplets_per_s": statistics.median(p["triplets"] / p["train_s"] for p in done),
        "eval_users_per_s": statistics.median(p["eval_users"] / p["eval_s"] for p in done),
        "val_auc": med("val_auc"),
        "test_auc": med("test_auc"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - failed / len(passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    specs = json.loads((BENCH_DIR / "workloads.json").read_text())
    if args.workload not in specs["workloads"]:
        sys.exit(f"unknown workload {args.workload!r}; known: {sorted(specs['workloads'])}")
    spec = specs["workloads"][args.workload]
    lib = import_library()
    backend = "numba" if lib["_kernels"].NUMBA_ENABLED else "numpy"

    workdir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outdir = BENCH_DIR / "_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        workload = Workload(spec, args.seed, lib, workdir)
        print(f"workload {args.workload} seed {args.seed} rows {workload.rows} "
              f"backend {backend} blas_threads {BLAS_THREADS} trace {args.trace}")
        tracer = None
        if args.trace:
            passes = [guarded_pass(workload)]
            tracer = Tracer()
            install_tracer(tracer, lib)
            origin = tracer.clock()
            with tracer.span("bench.pass"):
                passes.append(guarded_pass(workload, tracer))
        else:
            deadline = time.perf_counter() + args.seconds
            setups = []
            for _ in range(MIN_SETUPS - MIN_PASSES):
                t0 = time.perf_counter()
                workload.build_split()
                setups.append(time.perf_counter() - t0)
            passes = run_passes(workload, MIN_PASSES, deadline)
            setups += [p["setup_s"] for p in passes if "setup_s" in p]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_digests(passes)
    failed = sum(1 for p in passes if p["failures"])
    for n, p in enumerate(passes):
        for reason in p["failures"]:
            print(f"FAILED pass {n}: {reason}")
    done = [p for p in passes if "wall_s" in p]
    if len(done) < (2 if args.trace else 1):
        print("too few passes completed to report metrics", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = done[1]["wall_s"] / done[0]["wall_s"] - 1.0
        tracer.write(outdir / f"{args.workload}-seed{args.seed}-spans.jsonl", origin)
        missing = [m for m in wanted if m not in metrics]
        if missing:
            print(f"absent (wrapped name not found: {', '.join(tracer.absent)}): "
                  f"{', '.join(missing)}")
    else:
        metrics = end_to_end(passes, setups)
        if sorted(metrics) != sorted(wanted):
            sys.exit(f"computed metrics {sorted(metrics)} do not match BENCHMARK.json")
    first = done[0]
    print(f"passes {len(passes)} failed {failed} ops_failed_frac {failed / len(passes):g}")
    for name in wanted:
        if name in metrics:
            note = " (computed from array sizes)" if name in COMPUTED_BYTES else ""
            print(f"{name:<36} {metrics[name]:.6g} {units[name]}{note}")
    for key in ("test_hr_100", "test_ndcg_100"):
        if key in first:
            print(f"{key:<36} {first[key]:.6g} ratio (not gated)")
    wall = first["wall_s"]
    print("share_of_wall " + " ".join(
        f"{k}={first[k + '_s'] / wall:.3f}" for k in ("setup", "train", "eval", "checkpoint")))

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "backend": backend, "blas_threads": BLAS_THREADS, "rows": workload.rows,
               "generator": spec["generator"], "train": spec["train"], "passes": passes,
               "metrics": metrics, "absent": tracer.absent if tracer else []}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, default=float))
    if not args.trace:
        print_cost_factor(outdir, args, metrics)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted if name in metrics},
    }))
    return 0


def print_cost_factor(outdir, args, metrics):
    """Not gated: fixed-wide over adaptive-wide training throughput, same seed."""
    other = {"adaptive-wide": "fixed-wide", "fixed-wide": "adaptive-wide"}.get(args.workload)
    path = outdir / f"{other}-seed{args.seed}-trace0.json"
    if other is None or not path.exists():
        return
    tps = {args.workload: metrics["train_triplets_per_s"],
           other: json.loads(path.read_text())["metrics"]["train_triplets_per_s"]}
    print(f"derived lambda_cost_factor {tps['fixed-wide'] / tps['adaptive-wide']:.4g} "
          f"(fixed-wide over adaptive-wide train_triplets_per_s, seed {args.seed}, not gated)")


if __name__ == "__main__":
    sys.exit(main())
