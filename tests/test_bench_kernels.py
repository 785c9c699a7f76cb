"""``benchmarks/bench_kernels.py`` still runs against the library.

The train-step case reads ``TrainResult.phases``, coverage from its
``lambda_entries``, and its wide rows read each workload's generator and training overrides from
``perfbench/workloads.json``; the evaluation case reads
``adaptreg.evaluate._score_user`` to count fallbacks in one untimed call. So
a rename there must fail here rather than in the script behind a claim.
Every run ends in one metrics line that ``benchmarks/ab.py`` reads, and the
ingest case reads pipeline-small's generator from ``perfbench/workloads.json``.
"""

import importlib.util
from pathlib import Path

import pytest

from adaptreg.adaptive import PHASE_COUNTS, PHASE_SECONDS

from _synth import SMALL_SPLIT, make_split

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load(SCRIPT, "bench_kernels")


def test_eval_case_on_a_tiny_catalog(bench):
    row = bench.eval_ms(60, users=8, events=10, dim=4, repeats=1)
    for key in ("user_auc_ms", "corpus_auc_ms", "corpus_metrics_ms"):
        assert len(row[key]["repeats"]) == 1 and row[key]["min"] > 0
    assert 0 <= row["corpus_auc_fallback_users"] <= 8


def test_ingest_case_on_a_small_file(bench):
    # pipeline-small's own generator, on 40 users and 30 items
    row = bench.ingest_table(repeats=1, num_users=40, num_items=30)
    assert 0 < row["rows"] <= 40 * 30 * 1.1 and row["quoted_bytes"] > row["bytes"] > 0
    for key in ("load_plain_ms", "load_rows_ms"):
        assert len(row[key]["repeats"]) == 1 and row[key]["min"] > 0
    assert bench.ingest_metrics(row) == {
        f"ingest.{key}": row[key]["median"] for key in ("load_plain_ms", "load_rows_ms")}


def test_train_step_case_on_a_tiny_split(bench, capsys):
    split = make_split(**SMALL_SPLIT)
    base = ["model.dim=4", "training.epochs=1", "training.batch_size=64",
            "training.lambda_batch_size=32"]
    rows = {name: bench.train_step_case(split, base + overrides, repeats=2)
            for name, overrides in bench.TRAIN_CONFIGS.items()}
    bench.train_step_table("tiny", rows, "fix")
    assert "opt/full+adam_on_lambda" in capsys.readouterr().out
    for name, row in rows.items():
        assert set(row["ms_per_step"]) == set(PHASE_SECONDS)
        assert set(row["counts"]) == set(PHASE_COUNTS) and len(row["cpu_s"]) == 2
        steps = row["counts"]["steps"]
        assert steps > 0 and row["counts"]["triplets"] == 64 * steps
        assert row["counts"]["lambda_triplets"] == (0 if name == "fix" else 64 * steps)
        assert row["step_ms"] > 0 and row["cost_factor"] > 0
        # the share of the coefficient entries a λ step's hypergradient reaches
        assert ("coverage" in row) == (name != "fix")
        assert name == "fix" or 0 < row["coverage"] <= 1
    assert rows["fix"]["cost_factor"] == 1.0 and rows["fix"]["ms_per_step"]["lambda"] == 0.0


@pytest.mark.parametrize("name", ["fixed-wide", "adaptive-wide"])
def test_wide_case_on_a_shrunk_corpus(bench, name):
    # the workload's own generator, on 300 users and 200 items, and its
    # training overrides: one epoch of 8192-triplet batches, λ batches of 1024
    row = bench.wide_case(name, repeats=1, num_users=300, num_items=200)
    steps = row["counts"]["steps"]
    assert steps > 0 and row["counts"]["triplets"] == 8192 * steps
    learned = name == "adaptive-wide"
    assert row["counts"]["lambda_triplets"] == (2 * 1024 * steps if learned else 0)
    assert ("coverage" in row) == learned


def test_train_step_metrics_line(bench, capsys):
    # the tables on a tiny split and a shrunk wide corpus, one run each
    tables = bench.train_step_tables({(40, 60): make_split(**SMALL_SPLIT)}, repeats=1,
                                     num_users=300, num_items=200)
    capsys.readouterr()
    stdout = "train_step table\n" + bench.metrics_line(bench.step_metrics(tables)) + "\n"
    ab = _load(SCRIPT.parent / "ab.py", "ab")
    names = {f"train_step.40x60.{name}.step_ms" for name in bench.TRAIN_CONFIGS} | {
        f"train_step.wide.{name}.step_ms" for name in bench.WIDE_WORKLOADS}
    values = ab.last_json_metrics(stdout)
    assert set(values) == names
    assert values["train_step.40x60.opt/full.step_ms"] == (
        tables["synth"][0]["configs"]["opt/full"]["step_ms"])
    assert all(v > 0 for v in values.values())
    assert ab.last_json_directions(stdout) == dict.fromkeys(names, "lower")


def test_evaluation_metrics_line(bench, capsys):
    # the evaluation table on two tiny catalogs, one repeat each
    table = bench.evaluation_table((60, 90), users=8, events=10, dim=4, repeats=1)
    assert "fallback users" in capsys.readouterr().out
    stdout = "evaluation table\n" + bench.metrics_line(bench.eval_metrics(table)) + "\n"
    ab = _load(SCRIPT.parent / "ab.py", "ab")
    names = {f"evaluation.{items}.{fn}_ms" for items in (60, 90) for fn in bench.EVAL_FUNCTIONS}
    values = ab.last_json_metrics(stdout)
    assert set(values) == names
    assert values["evaluation.90.corpus_auc_ms"] == (
        table["catalogs"][1]["corpus_auc_ms"]["median"])
    assert all(v > 0 for v in values.values())
    assert ab.last_json_directions(stdout) == dict.fromkeys(names, "lower")
