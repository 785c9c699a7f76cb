"""Run-directory artifacts: history, trajectory snapshots, and their CSV exports."""

import csv
import os
from dataclasses import asdict

import numpy as np
import yaml

from .data import frequency_groups, group_by, group_reduce


def write_resolved_config(run_dir, cfg):
    with open(os.path.join(run_dir, "config.yaml"), "w") as fh:
        yaml.safe_dump(asdict(cfg), fh, sort_keys=True)


def write_history(run_dir, history):
    path = os.path.join(run_dir, "history.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "step", "train_loss", "val_auc"])
        for row in history:
            w.writerow([row["epoch"], row["step"], f"{row['train_loss']:.10f}",
                        f"{row['val_auc']:.10f}" if "val_auc" in row else ""])
    return path


def save_trajectory(run_dir, trajectory, split, cfg):
    """Raw snapshots plus static group frequency context, as npz."""
    user_groups = frequency_groups(split.user_frequency, cfg.groups.user_boundaries)
    item_groups = frequency_groups(split.item_frequency, cfg.groups.item_boundaries)
    rows = []
    for tr in trajectory:
        for kind, stats in ((0, tr.user_group_stats), (1, tr.item_group_stats)):
            for g, size, mean, var in stats:
                rows.append([tr.step, kind, g, size, mean, var])
    def group_mean_freq(freqs, groups):
        # one slot per group up to the largest, 0.0 for an empty one
        ids, order, starts, counts = group_by(groups)
        out = np.zeros(int(groups.max()) + 1 if len(groups) else 0)
        out[ids] = group_reduce(freqs[order], starts, counts)
        return out
    np.savez(
        os.path.join(run_dir, "trajectory.npz"),
        epochs=np.asarray([tr.step for tr in trajectory], dtype=np.int64),
        user_mean=np.asarray([tr.user_mean for tr in trajectory]),
        item_mean=np.asarray([tr.item_mean for tr in trajectory]),
        user_var=np.asarray([tr.user_var for tr in trajectory]),
        item_var=np.asarray([tr.item_var for tr in trajectory]),
        group_rows=np.asarray(rows, dtype=np.float64).reshape(-1, 6),
        user_group_freq=group_mean_freq(split.user_frequency.astype(float), user_groups),
        item_group_freq=group_mean_freq(split.item_frequency.astype(float), item_groups),
    )


def export_trajectory_csv(run_dir, out_dir=None):
    """Emit per-group time series and frequency-vs-coefficient tables.

    Returns (trajectory_csv, frequency_csv) paths. A zero-epoch run yields
    header-only files.
    """
    out_dir = out_dir or run_dir
    with np.load(os.path.join(run_dir, "trajectory.npz")) as data:
        epochs = data["epochs"]
        user_mean, item_mean = data["user_mean"], data["item_mean"]
        user_var, item_var = data["user_var"], data["item_var"]
        group_rows = data["group_rows"]
        ug_freq, ig_freq = data["user_group_freq"], data["item_group_freq"]
    tpath = os.path.join(out_dir, "trajectory.csv")
    with open(tpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "entity_kind", "entity_id_or_group", "lambda_mean", "lambda_var"])
        for n, ep in enumerate(epochs):
            w.writerow([int(ep), "user", "all", f"{user_mean[n]:.10g}", f"{user_var[n]:.10g}"])
            w.writerow([int(ep), "item", "all", f"{item_mean[n]:.10g}", f"{item_var[n]:.10g}"])
        for row in group_rows:
            ep, kind, g, size, mean, var = row
            w.writerow([int(ep), "user_group" if kind == 0 else "item_group",
                        int(g), f"{mean:.10g}", f"{var:.10g}"])
    fpath = os.path.join(out_dir, "frequency_lambda.csv")
    with open(fpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "entity_kind", "group", "mean_frequency", "lambda_mean"])
        for row in group_rows:
            ep, kind, g, size, mean, var = row
            freq = (ug_freq if kind == 0 else ig_freq)[int(g)]
            w.writerow([int(ep), "user" if kind == 0 else "item", int(g),
                        f"{freq:.6g}", f"{mean:.10g}"])
    return tpath, fpath
