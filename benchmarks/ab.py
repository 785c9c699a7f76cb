"""Alternating A/B runs of one benchmark command: a parent commit against the
working tree.

Usage, from the repository root::

    python3 benchmarks/ab.py HEAD~1 --pairs 10 --seed 501 -- \\
        python3 perfbench/run.py --workload pipeline-small --seed {seed} --seconds 20

The parent ref is exported with ``git archive`` into a temporary directory.
The change side is exported into another one: the files git would commit
from the working tree as it stands, that is, tracked files (less deleted
ones) and untracked files that are not ignored. So neither side runs with
build leftovers such as ``__pycache__``, and both directories are removed
afterwards. Each pair runs the command once in each tree, from that tree's
root, with ``{seed}`` replaced by the pair's seed (``--seed`` plus the pair's
index); the first pair runs the parent first, and each later pair swaps the
order. Each run must end its standard output with one JSON line that holds
``{"metrics": {name: {"value": v, ...}}}``, as ``perfbench/run.py`` does.

``--out`` (``BENCH_ab.json`` at the repository root by default) records the
parent commit, a digest of the change tree's paths and contents, every
pair and, per metric, each side's median and quartiles, the parent's
interquartile range, how many pairs the change read higher, lower and equal,
and, for the metrics ``BENCHMARK.json`` gives a direction (or, where it names
none, the run's metrics line does, as ``"better": "lower"``), how many pairs
the change won, out of every pair run (a pair with a failed side is not won), and
whether the change resolved a gain there: at least 10 pairs ran, it won at
least 9 in 10 of them, and its median lies further from the parent's than
the parent's interquartile range. The script only reports: it reads no bound and changes
none.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# what reading a last line that is not a metrics line raises
_NOT_METRICS = (IndexError, ValueError, TypeError, KeyError, AttributeError)


def last_json_metrics(stdout):
    """``{name: value}`` from the ``metrics`` of the last line of ``stdout``;
    None when that line is not such a JSON object."""
    try:
        metrics = json.loads(stdout.splitlines()[-1])["metrics"]
        return {name: float(m["value"]) for name, m in metrics.items()}
    except _NOT_METRICS:
        return None


def last_json_directions(stdout):
    """``{name: "higher" | "lower"}`` for the metrics of the last line of
    ``stdout`` that give their own ``better``; empty when that line is not a
    metrics line."""
    try:
        metrics = json.loads(stdout.splitlines()[-1])["metrics"]
        return {name: m["better"] for name, m in metrics.items()
                if m.get("better") in ("higher", "lower")}
    except _NOT_METRICS:
        return {}


def quartiles(values):
    """(first quartile, median, third quartile), interpolated linearly
    between order statistics; a single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better=None):
    """Per metric that both sides reported in every complete pair (one whose
    sides are both not None): each side's values, quartiles and median, the
    parent's interquartile range, and the complete pairs in which the change
    read higher, lower or equal. ``better`` maps a metric to "higher" or
    "lower"; for those metrics ``change_wins`` counts the pairs the change
    won, which no failed pair is, and ``resolved`` holds when there are at
    least 10 ``pairs``, it won at least 9 in 10 of them and the median gap
    exceeds the parent's interquartile range."""
    better = better or {}
    complete = [p for p in pairs if p["parent"] is not None and p["change"] is not None]
    names = [n for n in complete[0]["parent"] if all(
        n in p["parent"] and n in p["change"] for p in complete)] if complete else []
    out = {}
    for name in names:
        parent = [p["parent"][name] for p in complete]
        change = [p["change"][name] for p in complete]
        pq, cq = quartiles(parent), quartiles(change)
        row = dict(parent=parent, change=change,
                   parent_quartiles=list(pq), change_quartiles=list(cq),
                   parent_median=pq[1], change_median=cq[1],
                   parent_iqr=pq[2] - pq[0],
                   change_higher=sum(c > p for p, c in zip(parent, change)),
                   change_lower=sum(c < p for p, c in zip(parent, change)),
                   equal=sum(c == p for p, c in zip(parent, change)))
        row["median_gap_exceeds_parent_iqr"] = abs(cq[1] - pq[1]) > row["parent_iqr"]
        if name in better:
            row["better"] = better[name]
            row["change_wins"] = row["change_higher" if better[name] == "higher"
                                     else "change_lower"]
            row["resolved"] = (len(pairs) >= 10 and 10 * row["change_wins"] >= 9 * len(pairs)
                               and row["median_gap_exceeds_parent_iqr"])
        out[name] = row
    return out


def export(ref, dest, root=ROOT):
    """Write the files of commit ``ref`` into ``dest``; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=root,
                            check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def export_worktree(dest, root=ROOT):
    """Copy into ``dest`` the files git would commit from the working tree of
    ``root`` as they stand: tracked files that still exist and untracked ones
    that are not ignored. Return a sha256 hex digest of their paths and
    contents (a symlink's target), in path order."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, check=True,
                            capture_output=True).stdout
    digest = hashlib.sha256()
    for name in sorted({os.fsdecode(n) for n in listed.split(b"\0") if n}):
        src, dst = Path(root, name), Path(dest, name)
        if src.is_symlink():
            content = os.fsencode(os.readlink(src))
        elif src.is_file():
            content = src.read_bytes()
        else:
            continue  # deleted from the working tree, or a submodule
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)
        digest.update(b"%s\0%d\0%s" % (os.fsencode(name), len(content), content))
    return digest.hexdigest()


def run(tree, argv):
    """One run of ``argv`` from ``tree``: its metrics, seconds and exit code."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    metrics = last_json_metrics(proc.stdout) if proc.returncode == 0 else None
    if metrics is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return dict(metrics=metrics, better=last_json_directions(proc.stdout),
                seconds=time.perf_counter() - t0, returncode=proc.returncode)


def directions(reported=None):
    """``{metric: "higher" | "lower"}`` from ``BENCHMARK.json``'s metric lists
    and, for a metric they do not name, from ``reported``, the directions
    that the runs' own metrics lines give."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        spec = {}
    return {**(reported or {}), **{m["name"]: m["better"] for key in ("end_to_end", "per_layer")
                                   for m in spec.get(key, []) if "better" in m}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git ref of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", default=str(ROOT / "BENCH_ab.json"))
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if not command or args.pairs < 1:
        ap.error("give at least one pair, and the benchmark command after --")

    pairs, reported = [], {}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="ab-change-") as change_tree:
        commit = export(args.parent, parent_tree)
        change_digest = export_worktree(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for n in range(args.pairs):
            seed = args.seed + n
            argv = [a.replace("{seed}", str(seed)) for a in command]
            sides = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            pair = dict(seed=seed, first=sides[0])
            for side in sides:
                pair[f"{side}_run"] = run(trees[side], argv)
                pair[side] = pair[f"{side}_run"].pop("metrics")
                reported.update(pair[f"{side}_run"].pop("better"))
            pairs.append(pair)
            print(f"pair {n + 1}/{args.pairs} seed {seed} ({sides[0]} first): " + ", ".join(
                f"{side} {'failed' if pair[side] is None else 'ok'} "
                f"{pair[f'{side}_run']['seconds']:.1f} s" for side in ("parent", "change")),
                flush=True)

    complete = [p for p in pairs if p["parent"] is not None and p["change"] is not None]
    result = dict(parent_ref=args.parent, parent_commit=commit,
                  change_tree_digest=change_digest, command=command,
                  pairs=pairs, complete_pairs=len(complete),
                  metrics=summarize(pairs, directions(reported)))
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, row in result["metrics"].items():
        wins = (f" wins {row['change_wins']}/{len(pairs)}"
                f"{' resolved' if row['resolved'] else ''}" if "change_wins" in row else "")
        print(f"{name:<28} parent {row['parent_median']:.6g} (IQR {row['parent_iqr']:.3g})"
              f"  change {row['change_median']:.6g}{wins}")
    print(f"wrote {args.out}")
    return 0 if len(complete) == len(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
