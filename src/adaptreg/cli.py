"""Command-line entry points: ingest, train, grid-search, evaluate, export-trajectory."""

import argparse
import copy
import os
import sys

import numpy as np

from . import data as data_mod
from . import runs as runs_mod
from .adaptive import train_model
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, run_dir_name
from .errors import AdaptRegError, ConfigError, EmptyCorpusError, IncompatibleCheckpointError
from .evaluate import ITEM_METRIC_MODES, corpus_metrics, write_per_entity, write_report_summary


def _common_flags(p):
    p.add_argument("--config", default=None, help="YAML run config")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="config override (flags win)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def _load(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"training.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output={args.out}")
    return load_config(args.config, overrides)


def cmd_ingest(args):
    cfg = _load(args)
    d = cfg.data
    raw = args.input or d.raw_path
    if not raw:
        raise ConfigError("no input file: pass --input or set data.raw_path")
    out_dir = cfg.output
    os.makedirs(out_dir, exist_ok=True)
    log = data_mod.load_interactions(raw, delimiter=d.delimiter,
                                     has_header=d.has_header, user_col=d.user_col,
                                     item_col=d.item_col, time_col=d.time_col)
    log = data_mod.filter_min_count(log, d.min_user, d.min_item)
    split = data_mod.chronological_split(log, tuple(d.ratios))
    data_mod.save_id_map(os.path.join(out_dir, "idmap_users.csv"), log.user_tokens)
    data_mod.save_id_map(os.path.join(out_dir, "idmap_items.csv"), log.item_tokens)
    data_mod.save_manifest(os.path.join(out_dir, "manifest.csv"), split)
    density = len(log) / (log.num_users * log.num_items)
    print(f"users {log.num_users}")
    print(f"items {log.num_items}")
    print(f"interactions {len(log)}")
    print(f"density {100 * density:.3f}%")
    if split.degenerate_users:
        print(f"warning: {len(split.degenerate_users)} users with empty "
              f"validation or test partitions")
    return 0


def _manifest_split(cfg, manifest=None):
    path = manifest or os.path.join(cfg.data.manifest_dir, "manifest.csv")
    if not os.path.exists(path):
        raise ConfigError(f"manifest not found: {path}")
    return data_mod.load_manifest(path)


def _train_one(cfg, split, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    result = train_model(split, cfg)
    runs_mod.write_resolved_config(run_dir, cfg)
    runs_mod.write_history(run_dir, result.history)
    runs_mod.save_trajectory(run_dir, result.trajectory, split, cfg)
    save_checkpoint(os.path.join(run_dir, "checkpoint.npz"), result.emb,
                    result.lam, result.optimizer,
                    meta={"best_epoch": result.best_epoch,
                          "aborted": result.aborted,
                          "abort_reason": result.abort_reason})
    return result


def _best_auc(result):
    """Validation AUC of the epoch whose state the checkpoint holds."""
    return next((r["val_auc"] for r in result.history if r["epoch"] == result.best_epoch), np.nan)


def cmd_train(args):
    cfg = _load(args)
    split = _manifest_split(cfg, args.manifest)
    run_dir = os.path.join(cfg.output, run_dir_name(cfg))
    result = _train_one(cfg, split, run_dir)
    status = "aborted" if result.aborted else "ok"
    print(f"run_dir {run_dir}")
    print(f"status {status}")
    print(f"best_epoch {result.best_epoch}")
    print(f"val_auc {_best_auc(result):.6f}")
    if result.aborted:
        print(f"abort_reason {result.abort_reason}")
    return 0


def cmd_grid_search(args):
    cfg = _load(args)
    if not cfg.regularization.grid:
        raise ConfigError("grid search requires regularization.grid candidates")
    split = _manifest_split(cfg, args.manifest)
    base_dir = os.path.join(cfg.output, run_dir_name(cfg) + "-grid")
    os.makedirs(base_dir, exist_ok=True)
    rows = []
    best = None
    for cand in cfg.regularization.grid:
        sub = copy.deepcopy(cfg)
        sub.regularization.mode = "fix"
        sub.regularization.fixed_value = float(cand)
        run_dir = os.path.join(base_dir, f"lambda_{cand:g}")
        try:
            result = _train_one(sub, split, run_dir)
            if result.aborted:
                rows.append((cand, "failed", float("nan")))
                continue
            val_auc = _best_auc(result)
            rows.append((cand, "ok", val_auc))
            if np.isfinite(val_auc) and (best is None or val_auc > best[1]):
                best = (cand, val_auc, run_dir)
        except AdaptRegError:
            rows.append((cand, "failed", float("nan")))
    with open(os.path.join(base_dir, "grid.csv"), "w") as fh:
        fh.write("lambda,status,val_auc\n")
        for cand, status, auc in rows:
            fh.write(f"{cand:g},{status},{auc:.6f}\n")
    if best is None:
        raise AdaptRegError("every grid candidate failed")
    print(f"grid_dir {base_dir}")
    print(f"best_lambda {best[0]:g}")
    print(f"best_val_auc {best[1]:.6f}")
    print(f"best_run_dir {best[2]}")
    return 0


def cmd_evaluate(args):
    cfg = _load(args)
    split = _manifest_split(cfg, args.manifest)
    emb, lam, optimizer, header = load_checkpoint(args.checkpoint)
    if emb.num_users != split.num_users or emb.num_items != split.num_items:
        raise IncompatibleCheckpointError(
            f"checkpoint shapes ({emb.num_users} users, {emb.num_items} items) "
            f"do not match manifest ({split.num_users}, {split.num_items})")
    if len(split.test.flat) == 0:
        raise EmptyCorpusError("manifest has zero test items")
    ks = tuple(args.ks)
    report = corpus_metrics(emb, split, ks=ks,
                            item_metric_mode=args.item_metric_mode)
    out_dir = cfg.output if args.out is None else args.out
    os.makedirs(out_dir, exist_ok=True)
    write_report_summary(os.path.join(out_dir, "metrics.txt"), report)
    write_per_entity(os.path.join(out_dir, "metrics"), report)
    print(f"auc {report.auc:.6f}")
    for k in ks:
        print(f"hr@{k} {report.hr[k]:.6f}")
        print(f"ndcg@{k} {report.ndcg[k]:.6f}")
    return 0


def cmd_export_trajectory(args):
    run_dir = args.run
    if not os.path.exists(os.path.join(run_dir, "trajectory.npz")):
        raise ConfigError(f"no trajectory snapshots under {run_dir}")
    tpath, fpath = runs_mod.export_trajectory_csv(run_dir, args.out)
    print(f"trajectory_csv {tpath}")
    print(f"frequency_csv {fpath}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="adaptreg",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, filter and split a raw interaction log")
    _common_flags(p)
    p.add_argument("--input", default=None, help="raw delimited interaction file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train one configuration")
    _common_flags(p)
    p.add_argument("--manifest", default=None, help="split manifest path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="fixed-coefficient grid search")
    _common_flags(p)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("evaluate", help="full-catalog test metrics for a checkpoint")
    _common_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--ks", type=int, nargs="+", default=[50, 100])
    p.add_argument("--item-metric-mode", choices=ITEM_METRIC_MODES, default="item-specific")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-trajectory", help="coefficient trajectory CSVs for plotting")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_trajectory)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AdaptRegError as exc:
        print(f"ERROR:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
