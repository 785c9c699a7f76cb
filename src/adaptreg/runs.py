"""Run-directory artifacts: history, trajectory snapshots, and their CSV exports."""

import csv
import os
import zipfile
from dataclasses import asdict

import numpy as np
import yaml

from .data import group_reduce
from .errors import ConfigError

# the arrays of trajectory.npz, as save_trajectory writes them
_TRAJECTORY_ARRAYS = ("epochs", "user_mean", "item_mean", "user_var", "item_var",
                     "group_rows", "user_group_freq", "item_group_freq")


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


def save_trajectory(run_dir, result, split):
    """Raw snapshots plus static group frequency context, as npz. The
    snapshots and both sides' frequency groups are ``result``'s, as
    ``train_model`` built them; ``split`` gives only the frequencies whose
    mean per group the archive holds."""
    trajectory = result.trajectory
    rows = []
    for tr in trajectory:
        for kind, stats in ((0, tr.user_group_stats), (1, tr.item_group_stats)):
            for g, size, mean, var in stats:
                rows.append([tr.step, kind, g, size, mean, var])
    def group_mean_freq(freqs, groups):
        # one slot per group up to the largest, 0.0 for an empty one
        ids, order, starts, counts = groups
        out = np.zeros(int(ids[-1]) + 1 if len(ids) else 0)
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
        user_group_freq=group_mean_freq(split.user_frequency.astype(float), result.user_groups),
        item_group_freq=group_mean_freq(split.item_frequency.astype(float), result.item_groups),
    )


def _load_trajectory(path):
    """The arrays of a trajectory archive, by name. A file that is not one is
    a ConfigError naming the first array it lacks, or the array that does
    not fit: one that holds no real numbers, a per-epoch array not of the
    length of ``epochs``, steps that are not whole numbers, a ``group_rows``
    that is not N x 6, or a group id that its side's frequency array has no
    slot for. So a malformed archive fails before any CSV is written."""
    arrays = {}
    with open(path, "rb") as fh:  # closed even where np.load fails part way
        try:
            loaded = np.load(fh)
            if isinstance(loaded, np.lib.npyio.NpzFile):  # not a bare .npy array
                with loaded:
                    arrays = {name: loaded[name] for name in loaded.files}
        except (ValueError, EOFError, zipfile.BadZipFile):
            pass  # pickled, empty or broken: no arrays at all

    def refuse(why):
        raise ConfigError(f"{path} is not a trajectory archive: {why}")

    missing = [name for name in _TRAJECTORY_ARRAYS if name not in arrays]
    if missing:
        refuse(f"it has no array {missing[0]!r}")
    for name in _TRAJECTORY_ARRAYS:
        if arrays[name].dtype.kind not in "iuf":
            refuse(f"its array {name!r} holds {arrays[name].dtype}, not real numbers")
    epochs, rows = arrays["epochs"], arrays["group_rows"]
    for name in _TRAJECTORY_ARRAYS[:5]:  # epochs, then the per-epoch statistics
        if arrays[name].ndim != 1 or arrays[name].shape != epochs.shape:
            refuse(f"its array {name!r} has shape {arrays[name].shape}, not one entry "
                   f"per epoch")
    if not np.isfinite(epochs).all() or (epochs % 1).any():
        refuse("its array 'epochs' holds a step that is not a whole number")
    if rows.ndim != 2 or rows.shape[1] != 6:
        refuse(f"its array 'group_rows' has shape {rows.shape}, not N x 6")
    ids = rows[:, :3]  # step, side (0 user, 1 item), group id
    if not np.isfinite(ids).all() or (ids % 1).any() or not np.isin(ids[:, 1], (0, 1)).all():
        refuse("its array 'group_rows' holds a step or group id that is not a whole "
               "number, or a side other than 0 (user) or 1 (item)")
    for kind, name in enumerate(("user_group_freq", "item_group_freq")):
        groups = ids[ids[:, 1] == kind, 2]
        beyond = groups[(groups < 0) | (groups >= len(arrays[name]))]
        if arrays[name].ndim != 1 or len(beyond):
            refuse(f"its array 'group_rows' names a group id that its array {name!r} "
                   f"of shape {arrays[name].shape} has no slot for")
    return arrays


def export_trajectory_csv(run_dir, out_dir=None):
    """Emit per-group time series and frequency-vs-coefficient tables.

    Returns (trajectory_csv, frequency_csv) paths. A zero-epoch run yields
    header-only files.
    """
    out_dir = out_dir or run_dir
    data = _load_trajectory(os.path.join(run_dir, "trajectory.npz"))
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
