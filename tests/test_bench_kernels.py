"""``benchmarks/bench_kernels.py`` still runs against the library.

The evaluation cases read private names of ``adaptreg.evaluate``
(``_score_user`` to count fallbacks, ``_counts`` to force each placement), so
a rename there must fail here rather than in the script behind a claim.
"""

import importlib.util
from pathlib import Path

import pytest

from adaptreg import evaluate

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eval_case_on_a_tiny_catalog(bench):
    row = bench.eval_ms(60, users=8, events=10, dim=4, repeats=1)
    for key in ("user_auc_ms", "corpus_auc_ms", "corpus_metrics_ms"):
        assert len(row[key]["repeats"]) == 1 and row[key]["min"] > 0
    assert 0 <= row["corpus_auc_fallback_users"] <= 8


def test_positives_sweep_on_a_tiny_catalog(bench):
    real = evaluate._counts
    row = bench.positives_sweep(60, 2, users=4, excluded=3, dim=4, repeats=1)
    assert evaluate._counts is real
    assert row["positives"] == 2 and row["counts"] == bool(real(2, 60))
    for key in ("user_auc_count_ms", "user_auc_sort_ms", "corpus_auc_ms"):
        assert len(row[key]["repeats"]) == 1
