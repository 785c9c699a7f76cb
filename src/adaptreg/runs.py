"""Run-directory artifacts: the resolved config, history, the per-epoch λ
record ``metrics.jsonl``, and its CSV exports."""

import csv
import json
import math
import os
from dataclasses import asdict

import yaml

from .data import group_reduce
from .errors import ConfigError

SIDES = ("user", "item")
# how metrics.jsonl spells a non-finite statistic: strict JSON has no token for one
_NON_FINITE = {"inf": math.inf, "nan": math.nan}


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


def write_metrics(run_dir, result, split):
    """``metrics.jsonl``, the run's per-epoch λ record. Line 1 is ``{"groups":
    {side: [[id, size, mean train frequency], ...]}}`` over each side's
    frequency groups in ``result``, as ``train_model`` built them. Then each
    ``TrajectoryRow`` is one line ``{"epoch": step, "lambda": {side: {"mean",
    "var", "groups": [[id, mean, var], ...]}}}``. JSON floats round-trip
    exactly, so the exports read the statistics bit for bit. The file is
    strict JSON: a non-finite statistic, such as the variance of coefficients
    0 and 1e200, is the string ``"inf"`` or ``"nan"``."""
    groups = {}
    for side, (ids, order, starts, counts) in zip(SIDES, (result.user_groups,
                                                           result.item_groups)):
        freqs = getattr(split, f"{side}_frequency").astype(float)[order]
        groups[side] = list(zip(ids.tolist(), counts.tolist(),
                                group_reduce(freqs, starts, counts).tolist()))
    with open(os.path.join(run_dir, "metrics.jsonl"), "w") as fh:
        fh.write(json.dumps({"groups": groups}, allow_nan=False) + "\n")
        for tr in result.trajectory:
            lam = {side: {"mean": _written(getattr(tr, f"{side}_mean")),
                          "var": _written(getattr(tr, f"{side}_var")),
                          "groups": [[g, _written(mean), _written(var)] for g, _, mean, var
                                     in getattr(tr, f"{side}_group_stats")]}
                   for side in SIDES}
            fh.write(json.dumps({"epoch": tr.step, "lambda": lam}, allow_nan=False) + "\n")


def _written(stat):
    """``stat`` as ``metrics.jsonl`` holds it: a finite one as itself, a
    non-finite one as its ``_NON_FINITE`` string."""
    return stat if math.isfinite(stat) else str(stat)


def _read(stat):
    """A statistic as ``read_metrics`` reads it: a ``_NON_FINITE`` string as
    its float, anything else as it is, to be checked as a number."""
    return _NON_FINITE.get(stat, stat) if isinstance(stat, str) else stat


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _whole(v):
    return _number(v) and (isinstance(v, int) or v.is_integer())


def read_metrics(path):
    """The rows of a ``metrics.jsonl``: per epoch line and side ``(epoch,
    side, mean, var)``, and per group ``(epoch, side, id, mean, var, mean
    train frequency)``. A line that is not JSON or does not fit the layout
    ``write_metrics`` writes is a ConfigError naming the file and the line,
    so a malformed file fails before any CSV is written. A statistic may be
    ``"inf"`` or ``"nan"``, which read as floats; any other string is
    refused."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines() or [b"{}"]  # an empty file has no groups line

    def check(holds, why):
        if not holds:
            raise ConfigError(f"{path}:{n}: {why}")

    rows, group_rows, freqs = [], [], {}
    for n, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            check(False, "not a JSON line")
        key = "groups" if n == 1 else "lambda"
        sides = record.get(key) if isinstance(record, dict) else None
        check(isinstance(sides, dict) and sorted(sides) == sorted(SIDES),
              f"it has no {key!r} object of the sides 'user' and 'item' alone")
        check(n == 1 or _whole(record.get("epoch")), "its epoch is not a whole number")
        for side in SIDES:
            value = sides[side]
            if n > 1:  # the side's statistics, then its groups
                check(isinstance(value, dict), f"its {side} mean or var is not a number")
                mean, var = _read(value.get("mean")), _read(value.get("var"))
                check(_number(mean) and _number(var), f"its {side} mean or var is not a number")
                value = value.get("groups")
            check(isinstance(value, list) and all(isinstance(e, list) and len(e) == 3
                                                  for e in value),
                  f"a {side} group entry is not a list of 3")
            if n > 1:
                value = [[g, _read(a), _read(b)] for g, a, b in value]
            check(all(_whole(g) and (_whole(a) if n == 1 else _number(a)) and _number(b)
                      for g, a, b in value), f"a {side} group entry holds an id that is not "
                  f"a whole number, or a statistic that is not a number")
            if n == 1:
                freqs[side] = {int(g): freq for g, _, freq in value}
                continue
            check(all(g in freqs[side] for g, _, _ in value),
                  f"it names a {side} group id that line 1 does not list")
            epoch = int(record["epoch"])
            rows.append((epoch, side, mean, var))
            group_rows += [(epoch, side, int(g), mean, var, freqs[side][g])
                           for g, mean, var in value]
    return rows, group_rows


def export_trajectory_csv(run_dir, out_dir=None):
    """Emit per-group time series and frequency-vs-coefficient tables from
    the run's ``metrics.jsonl`` into ``out_dir`` (the run directory by
    default), which is made once the file has been read and checked.

    Returns (trajectory_csv, frequency_csv) paths. A zero-epoch run yields
    header-only files.
    """
    out_dir = out_dir or run_dir
    rows, group_rows = read_metrics(os.path.join(run_dir, "metrics.jsonl"))
    os.makedirs(out_dir, exist_ok=True)
    tpath = os.path.join(out_dir, "trajectory.csv")
    with open(tpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "entity_kind", "entity_id_or_group", "lambda_mean", "lambda_var"])
        w.writerows([ep, side, "all", f"{mean:.10g}", f"{var:.10g}"]
                    for ep, side, mean, var in rows)
        w.writerows([ep, f"{side}_group", g, f"{mean:.10g}", f"{var:.10g}"]
                    for ep, side, g, mean, var, _ in group_rows)
    fpath = os.path.join(out_dir, "frequency_lambda.csv")
    with open(fpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "entity_kind", "group", "mean_frequency", "lambda_mean"])
        w.writerows([ep, side, g, f"{freq:.6g}", f"{mean:.10g}"]
                    for ep, side, g, mean, _, freq in group_rows)
    return tpath, fpath
