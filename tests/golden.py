"""Seeded result digests: the script that writes ``tests/golden_digests.json``
and the functions ``tests/test_golden.py`` checks it with.

Each ``train`` entry is the sha256 of one seeded ``train_model`` run on the
``small_split`` corpus: its history, best epoch, coefficient values, both
embedding matrices, the optimizer's ``state_digest()`` and the full
``corpus_metrics`` report of the result. The runs cover every granularity
with Adam and SGD, each with and without Adam on the coefficients, plus the
``fix`` and ``sgda`` modes. The ``cli`` entry runs ``adaptreg ingest``,
``train`` and ``evaluate`` in a temporary directory and digests
``history.csv``, every array in ``checkpoint.npz`` and ``metrics.txt``.

The bits depend on the numeric stack: evaluation's products run in the
BLAS, whose kernel can follow the CPU. ``corpus_metrics`` scores users in
blocks with a matrix product, but a user whose order that product cannot
certify is scored again with the per-user matrix-vector product, so the
report carries the matrix-vector product's bits. The file also records the
numpy version, the BLAS build and the CPU model, and the test fails, naming
the difference, when it runs on another stack.

A change that alters results on purpose regenerates the file and names each
changed entry. Regenerate with::

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from adaptreg.adaptive import GRANULARITIES, train_model
from adaptreg.cli import main as cli_main
from adaptreg.config import RunConfig, resolve
from adaptreg.evaluate import corpus_metrics

from _synth import SMALL_SPLIT, make_log, make_split, write_raw_csv

PATH = Path(__file__).with_name("golden_digests.json")


def environment():
    """The parts of the numeric stack that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in
                         ("name", "version", "openblas configuration")).strip(),
        "cpu": cpu,
    }


def _feed(h, obj):
    """Hash ``obj`` by type, value and, for arrays, dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}|".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}|".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}|".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (float, np.floating)):
        h.update(f"float {float(obj).hex()}|".encode())
    elif isinstance(obj, (bool, int, str, np.integer)) or obj is None:
        h.update(f"{type(obj).__name__} {obj!r}|".encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def train_configs():
    """Name -> (mode, granularity, optimizer kind, adam_on_lambda)."""
    runs = {}
    for granularity in GRANULARITIES:
        for kind in ("adam", "sgd"):
            for adam_on_lambda in (False, True):
                name = f"opt-{granularity}-{kind}-{'lamadam' if adam_on_lambda else 'lamsgd'}"
                runs[name] = ("opt", granularity, kind, adam_on_lambda)
    runs["fix-adam"] = ("fix", "global", "adam", False)
    runs["sgda"] = ("sgda", "dim", "sgd", False)
    return runs


def train_config(mode, granularity, kind, adam_on_lambda):
    cfg = RunConfig()
    cfg.model.dim = 8
    cfg.training.epochs = 3
    cfg.training.batch_size = 128
    cfg.training.lambda_batch_size = 128
    cfg.training.eval_every = 1
    cfg.training.seed = 5
    cfg.optimizer.kind = kind
    cfg.regularization.mode = mode
    cfg.regularization.granularity = granularity
    cfg.regularization.fixed_value = 0.01
    cfg.regularization.step_size = 0.05
    cfg.regularization.adam_on_lambda = adam_on_lambda
    return resolve(cfg)


def train_digest(split, name):
    res = train_model(split, train_config(*train_configs()[name]))
    report = corpus_metrics(res.emb, split)
    return digest({
        "history": res.history,
        "best_epoch": res.best_epoch,
        "aborted": res.aborted,
        "granularity": res.lam.granularity,
        "lambda": res.lam.values,
        "user": res.emb.user,
        "item": res.emb.item,
        "optimizer": res.optimizer.state_digest(),
        "metrics": vars(report),
    })


CLI_FLAGS = ["--set", "model.dim=8", "--set", "training.epochs=3",
             "--set", "training.batch_size=128", "--set", "training.lambda_batch_size=128",
             "--set", "training.eval_every=1", "--seed", "5"]


def cli_digest():
    """``ingest`` -> ``train`` -> ``evaluate`` through the command line."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        root = Path(tmp)
        write_raw_csv(root / "raw.csv", make_log(num_users=40, num_items=60, seed=3,
                                                 min_events=8, max_events=30))
        steps = (
            ["ingest", "--input", str(root / "raw.csv"), "--out", str(root / "data"),
             "--set", "data.min_user=3", "--set", "data.min_item=3"],
            ["train", "--manifest", str(root / "data" / "manifest.csv"),
             "--out", str(root / "runs")] + CLI_FLAGS,
        )
        for argv in steps:
            if cli_main(argv) != 0:
                raise RuntimeError(f"adaptreg {argv[0]} failed")
        run_dir = Path(next(line.split(" ", 1)[1] for line in out.getvalue().splitlines()
                            if line.startswith("run_dir ")))
        if cli_main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--manifest", str(root / "data" / "manifest.csv"),
                     "--out", str(root / "eval")]) != 0:
            raise RuntimeError("adaptreg evaluate failed")
        with np.load(run_dir / "checkpoint.npz") as ckpt:
            arrays = {key: ckpt[key] for key in ckpt.files}
        return digest({
            "history.csv": (run_dir / "history.csv").read_bytes().decode(),
            "checkpoint.npz": arrays,
            "metrics.txt": (root / "eval" / "metrics.txt").read_bytes().decode(),
        })


def compute():
    split = make_split(**SMALL_SPLIT)
    return {
        "environment": environment(),
        "train": {name: train_digest(split, name) for name in train_configs()},
        "cli": cli_digest(),
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}", file=sys.stderr)
