"""The summary arithmetic of ``benchmarks/ab.py`` on fixed numbers, and its
exports of both sides from a temporary git repository; no benchmark runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10, 12, 11, 13, 9, 10, 14, 12, 11, 10]
CHANGE = [12, 13, 12, 15, 10, 9, 16, 13, 12, 11]


def pairs(parent, change, name="users_per_s"):
    return [dict(parent={name: p}, change={name: c}) for p, c in zip(parent, change)]


def test_medians_quartiles_and_counts(ab):
    row = ab.summarize(pairs(PARENT, CHANGE), {"users_per_s": "higher"})["users_per_s"]
    # sorted parent 9 10 10 10 11 11 12 12 13 14; change 9 10 11 12 12 12 13 13 15 16
    assert row["parent_quartiles"] == [10, 11, 12]
    assert row["change_quartiles"] == [11.25, 12, 13]
    assert (row["parent_median"], row["change_median"], row["parent_iqr"]) == (11, 12, 2)
    assert (row["change_higher"], row["change_lower"], row["equal"]) == (9, 1, 0)
    assert row["change_wins"] == 9
    assert row["median_gap_exceeds_parent_iqr"] is False
    assert row["resolved"] is False  # 9/10 wins, but within the parent's IQR
    assert row["parent"] == PARENT and row["change"] == CHANGE


def test_lower_is_better_and_gap_beyond_iqr(ab):
    parent, change = [3.0, 3.2, 3.1, 3.0], [2.0, 3.2, 2.1, 2.2]
    row = ab.summarize(pairs(parent, change, "wall_s"), {"wall_s": "lower"})["wall_s"]
    # parent quartiles 3.0, 3.05, 3.125: IQR 0.125; change median 2.15
    assert row["parent_iqr"] == pytest.approx(0.125)
    assert row["change_median"] == pytest.approx(2.15)
    assert (row["change_lower"], row["equal"], row["change_wins"]) == (3, 1, 3)
    assert row["median_gap_exceeds_parent_iqr"] is True
    assert row["resolved"] is False  # beyond the IQR, but 3/4 wins
    # every pair won, beyond the IQR, but fewer than 10 pairs
    row = ab.summarize(pairs(parent, [2.0] * 4, "wall_s"), {"wall_s": "lower"})["wall_s"]
    assert (row["change_wins"], row["median_gap_exceeds_parent_iqr"]) == (4, True)
    assert row["resolved"] is False


def test_a_failed_pair_is_not_won(ab):
    # 9 complete pairs, each won by 10 (parent IQR 2), and one whose change failed
    runs = pairs(PARENT[:9], [p + 10 for p in PARENT[:9]])
    runs.append(dict(parent={"users_per_s": 10.0}, change=None))
    row = ab.summarize(runs, {"users_per_s": "higher"})["users_per_s"]
    assert row["parent"] == PARENT[:9] and len(row["change"]) == 9
    assert (row["parent_median"], row["change_median"], row["parent_iqr"]) == (11, 21, 2)
    assert (row["change_wins"], row["resolved"]) == (9, True)  # 9/10
    # a second failed pair, on the parent's side: 9/11
    runs.append(dict(parent=None, change={"users_per_s": 30.0}))
    row = ab.summarize(runs, {"users_per_s": "higher"})["users_per_s"]
    assert (row["change_wins"], row["resolved"]) == (9, False)
    assert ab.summarize(runs[9:], {"users_per_s": "higher"}) == {}


def test_metric_without_direction_or_in_some_pairs(ab):
    runs = pairs([1, 2], [2, 2])
    runs[1]["change"]["extra"] = 5.0
    out = ab.summarize(runs)
    assert list(out) == ["users_per_s"]
    assert "change_wins" not in out["users_per_s"]
    assert ab.summarize([]) == {}


def test_one_pair(ab):
    row = ab.summarize(pairs([4.0], [5.0]))["users_per_s"]
    assert row["parent_quartiles"] == [4.0] * 3 and row["parent_iqr"] == 0


def test_last_json_line(ab):
    perfbench = json.dumps({"correct": True, "metrics": {
        "wall_s": {"value": 2.5, "unit": "s"}, "ops_ok_frac": {"value": 1, "unit": "ratio"}}})
    assert ab.last_json_metrics(f"log line\n{{broken\n{perfbench}\n") == {
        "wall_s": 2.5, "ops_ok_frac": 1.0}
    for stdout in ("", f"{perfbench}\nwrote out\n", "[1, 2]", '{"a_ms": 3}',
                   '{"metrics": {"a_ms": 3}}'):
        assert ab.last_json_metrics(stdout) is None


def test_per_layer_metrics_of_a_traced_run(ab):
    # perfbench/run.py --trace 1 ends in per-layer metrics only; a split claim
    # reads data.chronological_split.ms through it
    def traced(split_ms):
        return "share_of_wall setup=0.100\n" + json.dumps({
            "correct": True, "attempted": 2, "failed": 0, "metrics": {
                "data.chronological_split.ms": {"value": split_ms, "unit": "ms"},
                "adaptive.hypergrad_coverage": {"value": 0.0, "unit": "ratio"},
                "trace.overhead_frac": {"value": 0.04, "unit": "ratio"}}})

    assert ab.last_json_metrics(traced(86)) == {
        "data.chronological_split.ms": 86.0, "adaptive.hypergrad_coverage": 0.0,
        "trace.overhead_frac": 0.04}
    better = ab.directions()
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: better[m["name"]] for m in spec["per_layer"]} == {
        m["name"]: m["better"] for m in spec["per_layer"]}
    assert better["data.chronological_split.ms"] == "lower"
    runs = [dict(parent=ab.last_json_metrics(traced(p)), change=ab.last_json_metrics(traced(c)))
            for p, c in ((86, 80), (90, 84), (84, 88))]
    row = ab.summarize(runs, better)["data.chronological_split.ms"]
    assert (row["better"], row["change_wins"], row["change_higher"]) == ("lower", 2, 1)
    assert (row["parent_median"], row["change_median"]) == (86, 84)


def test_direction_from_the_metrics_line(ab):
    # a bench_kernels --case train_step line: BENCHMARK.json names none of
    # its metrics, so the line's own "better" counts; where the two clash,
    # BENCHMARK.json wins
    step = "train_step.wide.adaptive-wide.step_ms"
    line = json.dumps({"metrics": {
        step: {"value": 5.0, "unit": "ms", "better": "lower"},
        "wall_s": {"value": 2.0, "unit": "s", "better": "higher"},
        "plain_ms": {"value": 1.0, "unit": "ms"},
        "odd_ms": {"value": 1.0, "better": "sideways"}}})
    reported = ab.last_json_directions(f"config  step  factor\n{line}\n")
    assert reported == {step: "lower", "wall_s": "higher"}
    better = ab.directions(reported)
    assert (better[step], better["wall_s"]) == ("lower", "lower")
    assert "plain_ms" not in better and "odd_ms" not in better
    row = ab.summarize(pairs([5.0, 5.2, 4.9], [4.0, 5.3, 4.1], step), better)[step]
    assert (row["better"], row["change_wins"], row["change_higher"]) == ("lower", 2, 1)
    for stdout in ("", f"{line}\nwrote out\n", "[1, 2]", '{"metrics": [1]}',
                   '{"metrics": {"a_ms": 3}}'):
        assert ab.last_json_directions(stdout) == {}
    assert ab.last_json_metrics('{"metrics": [1]}') is None


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_exports_hold_what_git_would_commit(ab, tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.txt").write_text("deleted in the working tree\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "pkg" / "new.py").write_text("Y = 3\n")
    (repo / "gone.txt").unlink()
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")

    parent, change = tmp_path / "parent", tmp_path / "change"
    commit = ab.export("HEAD", parent, root=repo)
    digest = ab.export_worktree(change, root=repo)

    def files(tree):
        return {p.relative_to(tree).as_posix(): p.read_text()
                for p in tree.rglob("*") if p.is_file()}

    assert len(commit) == 40
    assert files(parent) == {".gitignore": "__pycache__/\n", "pkg/mod.py": "X = 1\n",
                             "gone.txt": "deleted in the working tree\n"}
    assert files(change) == {".gitignore": "__pycache__/\n", "pkg/mod.py": "X = 2\n",
                             "pkg/new.py": "Y = 3\n"}
    # the digest reads what the export holds: the same files give the same
    # digest, and the stale bytecode, which is not exported, changes nothing
    again = tmp_path / "again"
    (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"staler")
    assert ab.export_worktree(again, root=repo) == digest
    (repo / "pkg" / "new.py").write_text("Y = 4\n")
    assert ab.export_worktree(tmp_path / "edited", root=repo) != digest
