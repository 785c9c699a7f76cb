"""Seeded runs against the digests in ``golden_digests.json``.

The oracle tests compare a fast path with the slow one in the same process,
so a change that moves both sides the same way passes them; these digests
pin the bits themselves. See ``golden.py`` for what each digest covers and
how to regenerate the file when a change alters results on purpose.
"""

import json

import pytest

import golden

RECORDED = json.loads(golden.PATH.read_text())


@pytest.fixture(scope="module")
def same_stack():
    here = golden.environment()
    for key, value in RECORDED["environment"].items():
        if here.get(key) != value:
            pytest.fail(f"golden digests were written with {key} {value!r}, this stack has "
                        f"{here.get(key)!r}; the bits can differ across stacks, so check "
                        f"the results here and regenerate with tests/golden.py")


def test_every_configuration_is_recorded():
    assert sorted(RECORDED["train"]) == sorted(golden.train_configs())


@pytest.mark.parametrize("name", sorted(golden.train_configs()))
def test_train_model_digest(same_stack, small_split, name):
    assert golden.train_digest(small_split, name) == RECORDED["train"][name]


def test_cli_ingest_train_evaluate_digest(same_stack):
    assert golden.cli_digest() == RECORDED["cli"]
