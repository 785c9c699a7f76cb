import csv
import io
import json
import os
import runpy
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from adaptreg.checkpoint import load_checkpoint, save_checkpoint
from adaptreg.cli import main
from adaptreg.config import RunConfig, config_hash, load_config, resolve
from adaptreg.errors import AdaptRegError, ConfigError, IncompatibleCheckpointError
from adaptreg.mf import Embeddings, SparseGrad
from adaptreg.adaptive import RegCoefficients, TrainResult, record_trajectory
from adaptreg.data import frequency_groups, group_by, load_manifest
from adaptreg.optim import make_optimizer
from adaptreg.runs import write_metrics

from _synth import make_log, write_raw_csv
from conftest import oracle_group_mean_freq


FAST = [
    "--set", "model.dim=8",
    "--set", "training.epochs=2",
    "--set", "training.batch_size=128",
    "--set", "training.lambda_batch_size=128",
    "--set", "training.eval_every=1",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    raw = root / "raw.csv"
    write_raw_csv(raw, make_log(num_users=40, num_items=60, seed=3,
                                min_events=8, max_events=30))
    data = root / "data"
    rc = main(["ingest", "--input", str(raw), "--out", str(data),
               "--set", "data.min_user=3", "--set", "data.min_item=3"])
    assert rc == 0
    return root


class TestIngest:
    def test_artifacts_and_stats(self, corpus, capsys):
        data = corpus / "data"
        for name in ("manifest.csv", "idmap_users.csv", "idmap_items.csv"):
            assert (data / name).exists()

    def test_prints_summary(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, make_log(num_users=20, num_items=30, seed=1))
        rc = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "d"),
                   "--set", "data.min_user=2", "--set", "data.min_item=2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "users " in out and "density " in out and "%" in out

    def test_overfiltered_corpus_fails_cleanly(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, make_log(num_users=10, num_items=15, seed=2,
                                    min_events=2, max_events=4))
        rc = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "d"),
                   "--set", "data.min_user=500"])
        assert rc == 1
        assert "ERROR:EMPTY_CORPUS" in capsys.readouterr().err

    def test_multi_character_delimiter(self, tmp_path, capsys):
        # the same log written with "," and with "::" ingests to the same files
        log = make_log(num_users=20, num_items=30, seed=1)
        comma, wide = tmp_path / "raw.csv", tmp_path / "raw.dat"
        write_raw_csv(comma, log)
        wide.write_text(comma.read_text().replace(",", "::"))
        flags = ["--set", "data.min_user=2", "--set", "data.min_item=2"]
        assert main(["ingest", "--input", str(comma), "--out", str(tmp_path / "a")] + flags) == 0
        assert main(["ingest", "--input", str(wide), "--out", str(tmp_path / "b"),
                     "--set", "data.delimiter=::"] + flags) == 0
        for name in ("manifest.csv", "idmap_users.csv", "idmap_items.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_input(self, capsys):
        rc = main(["ingest"])
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err

    def test_unreadable_input_is_an_io_error(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "ERROR:IO" in capsys.readouterr().err

    @pytest.mark.parametrize("content,line_no", [
        (b"u1,i1,5\nu2,i\xff2,7\n", 2),
        (b"u1,i1,5\nu2,i2,6\nu3,i3,7\nu4,i\xff4,8\n", 4),
        (b"u" * 200_000 + b",i1,5\n", 1),
    ], ids=["undecodable", "undecodable-last-line", "over-field-limit"])
    def test_input_fault_is_a_parse_error_on_its_line(self, tmp_path, capsys, content, line_no):
        raw = tmp_path / "bad.csv"
        raw.write_bytes(content)
        rc = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ERROR:PARSE: {raw}:{line_no}:")


def test_module_entry_point_exits_with_mains_code(monkeypatch, capsys):
    # python -m adaptreg.cli: the exit status is main()'s return value
    monkeypatch.setattr(sys, "argv", ["adaptreg", "export-trajectory", "--run", "/nonexistent"])
    with warnings.catch_warnings():
        # the module is already imported by this file; runpy runs a fresh copy
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("adaptreg.cli", run_name="__main__")
    assert exc.value.code == 1
    assert "ERROR:CONFIG" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["ingest", "--input", "raw.csv"], ["evaluate", "--checkpoint", "checkpoint.npz"]],
    ids=["ingest", "evaluate"])
def test_seed_flag_only_where_a_run_trains(command, capsys):
    # neither subcommand reads training.seed, so --seed is not theirs
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestTrain:
    def test_run_artifacts(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        run_dir = [l.split(" ", 1)[1] for l in out.splitlines()
                   if l.startswith("run_dir ")][0]
        assert sorted(os.listdir(run_dir)) == [
            "checkpoint.npz", "config.yaml", "history.csv", "metrics.jsonl"]
        with open(os.path.join(run_dir, "history.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[-1]["val_auc"]) > 0

    def test_prints_the_best_epochs_auc(self, corpus, tmp_path, capsys, monkeypatch):
        # the checkpoint holds epoch 1, so the printed AUC is epoch 1's, not
        # the last evaluation's
        import adaptreg.evaluate
        scores = iter([0.9, 0.5, 0.4])
        monkeypatch.setattr(adaptreg.evaluate, "corpus_auc", lambda *a, **k: next(scores))
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST
                  + ["--set", "training.epochs=3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "best_epoch 1" in out and "val_auc 0.900000" in out

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_aborted_run_prints_its_cause(self, corpus, tmp_path, capsys):
        # with plain SGD a coefficient of 1e300 overflows the factors
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "optimizer.kind=sgd", "--set", "regularization.mode=fix",
                   "--set", "regularization.fixed_value=1e300"] + FAST)
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "status aborted" in out
        assert any(l.startswith("abort_reason non-finite") for l in out)

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--set", "training.seed=-1"]],
                             ids=["flag", "set"])
    def test_negative_seed_rejected(self, corpus, tmp_path, capsys, flags):
        # np.random.default_rng takes no negative seed
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST + flags)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR:CONFIG: training.seed must be")
        assert not list(tmp_path.iterdir())

    def test_run_dir_encodes_seed(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--seed", "9"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert "-seed9" in out

    @pytest.mark.parametrize("bad", [
        b"0,te\xffst,2,6", b"0," + b"9" * 200_000 + b",2,6",
        b"4611686018427387904,test,1,1", b"0,test,99999999999999999999,1",
        b"0,test,4,99999999999999999999", b"1,test,4611686018427387904,1"],
        ids=["undecodable", "over-field-limit", "user-at-2^62", "item-past-int64",
             "time-past-int64", "item-at-2^62"])
    def test_manifest_input_fault_is_a_parse_error(self, tmp_path, capsys, bad):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"user,partition,item,timestamp\n0,train,1,5\n" + bad + b"\n")
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "r")] + FAST)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR:PARSE: {manifest}:3:")

    def test_missing_manifest(self, capsys):
        rc = main(["train", "--manifest", "/nonexistent/manifest.csv"])
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err

    def test_fix_without_value_rejected(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.mode=fix"] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert "ERROR:CONFIG" in err and "fixed_value" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("overrides", [
        ["training.epochs=abc"], ["training.epochs=1.5"],
        ["regularization.grid=abc"], ["optimizer.lr=abc"],
        ["optimizer.r_decay=abc"],
        ["regularization.mode=fix", "regularization.fixed_value=abc"],
        ["training.eval_every=0"], ["regularization.every=0"], ["model.dim=0"],
    ], ids=",".join)
    def test_bad_value_rejected(self, corpus, tmp_path, capsys, overrides):
        manifest = str(corpus / "data" / "manifest.csv")
        sets = [arg for ov in overrides for arg in ("--set", ov)]
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST + sets)
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("case", [
        # YAML files (multi-line) and --set overrides
        "training:\n  epochs: abc\n",
        "optimizer:\n  lr: abc\n",
        "optimizer:\n  lr: 1e-3\n",  # YAML 1.1 reads this as a string
        "data:\n  has_header: 1\n",
        "regularization:\n  grid: [0.1, x]\n",
        "training:\n  seed: x\n",
        "optimizer.lr=nan", "regularization.step_size=inf", "regularization.init=nan",
        "regularization.grid=[0.1,1e400]", "optimizer.r_decay=7", "optimizer.beta1=2",
        "optimizer.beta2=1", "optimizer.eps=0", "training.epochs=-3",
        "training.patience=-1", "data.ratios=[0.7,0.7,-0.4]", "data.delimiter=",
        "regularization.adam_on_lambda=ture",
        "training: 5\n", "training.bogus=1", "regularization.mode=grid",
        "optimizer.kind=rmsprop", "regularization:\n  mode: fix\n  fixed_value: -0.1\n",
        "training.batch_size=0", "training.lambda_batch_size=-8", "regularization.init=-1",
        "groups.user_boundaries=[50,25]", "groups.item_boundaries=[15,15,60]",
        "groups:\n  user_boundaries: [25, 100, 50]\n",
        # keys that name no field, and files that are no config
        "training=5", "regularization=x", "training.epochs.real=1", "data.__class__=x",
        "training.__init__=x", "training:\n  __init__: x\n", "5\n", "training:\n  1: 3\n",
        "[]\n", "training.epochs: 3\n", "training:\n  epochs: [\n", "? [a, b]\n: 1\n",
        # numbers that numpy cannot hold as their field's type
        pytest.param(f"groups.user_boundaries=[1.5,1{'0' * 400}]", id="boundary 1e400 flag"),
        pytest.param(f"groups:\n  user_boundaries: [1.5, 1{'0' * 400}]\n",
                     id="boundary 1e400 yaml"),
        pytest.param(f"training.batch_size=1{'0' * 30}", id="batch_size 1e30 flag"),
        pytest.param(f"training:\n  epochs: 1{'0' * 5000}\n", id="epochs of 5001 digits yaml"),
        # batch sizes within int64 that no host can allocate
        *(case for key in ("batch_size", "lambda_batch_size") for n in (2**31, 2**63 - 1)
          for case in (f"training.{key}={n}", f"training:\n  {key}: {n}\n")),
    ], ids=lambda case: " ".join(case.split()))
    def test_bad_config_value_rejected(self, corpus, tmp_path, capsys, case):
        manifest = str(corpus / "data" / "manifest.csv")
        if "\n" in case:
            path = tmp_path.parent / f"{tmp_path.name}.yaml"
            path.write_text(case)
            extra = ["--config", str(path)]
        else:
            extra = ["--set", case]
        # flags win over the file: leave out the FAST flags of fields the file sets
        fast = [arg for flag in zip(FAST[::2], FAST[1::2])
                if f"\n  {flag[1].split('=')[0].split('.')[1]}:" not in case for arg in flag]
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + fast + extra)
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_memory_error_is_reported(self, corpus, tmp_path, capsys, monkeypatch):
        import adaptreg.adaptive

        def sample_triplets(*args):
            raise MemoryError("Unable to allocate 48.0 GiB")

        monkeypatch.setattr(adaptreg.adaptive, "sample_triplets", sample_triplets)
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == "ERROR:MEMORY: Unable to allocate 48.0 GiB\n"

    def test_undecodable_config_file_rejected(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        path = tmp_path.parent / f"{tmp_path.name}.yaml"
        path.write_bytes(b"training:\n  epochs: 3\n  # \xff\n")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path), "--config",
                   str(path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:CONFIG: config file {path}:") and "position 26" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text,flag,value", [
        ("optimizer:\n  lr: 1\n", "optimizer.lr=0.5", 0.5),
        ("regularization:\n  mode: fix\n  fixed_value: 1\n",
         "regularization.fixed_value=0.25", 0.25),
        ("data:\n  ratios: [0.6, 0.2, 0.2]\n", "data.ratios=0.5,0.25,0.25", (0.5, 0.25, 0.25)),
    ])
    def test_flag_is_read_as_the_declared_kind(self, tmp_path, text, flag, value):
        # the YAML value above has another type than the flag's text reads as
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        key, _ = flag.split("=")
        section, name = key.split(".")
        got = getattr(getattr(load_config(str(p), [flag]), section), name)
        assert got == value and type(got) is type(value)


class TestConfigHash:
    def test_run_directory_names_are_pinned(self, tmp_path):
        assert config_hash(resolve(RunConfig())) == "436627ca9b25"
        p = tmp_path / "cfg.yaml"
        p.write_text("optimizer: {lr: 1, r_decay: null}\ndata: {ratios: [0.6, 0.2, 0.2]}\n"
                     "output: elsewhere\n")
        cfg = load_config(str(p), ["training.epochs=3", "regularization.granularity=du"])
        assert config_hash(cfg) == "877101a4f4c5"

    def test_semantic_field_changes_hash(self):
        a = resolve(RunConfig())
        b = resolve(RunConfig())
        b.model.dim = 16
        assert config_hash(a) != config_hash(b)

    def test_seed_output_do_not_change_hash(self):
        a = resolve(RunConfig())
        b = resolve(RunConfig())
        b.training.seed = 99
        b.output = "elsewhere"
        assert config_hash(a) == config_hash(b)

    def test_stable_across_processes_inputs(self):
        assert config_hash(resolve(RunConfig())) == config_hash(resolve(RunConfig()))

    def test_yaml_and_overrides(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("training:\n  epochs: 7\nregularization:\n  mode: fix\n"
                     "  fixed_value: 0.01\n")
        cfg = load_config(str(p), ["training.epochs=3"])
        assert cfg.training.epochs == 3  # flag wins
        assert cfg.regularization.mode == "fix"

    def test_yaml_values_kept_as_read(self, tmp_path):
        # an integer for a float field is checked, not converted: the hash of
        # a config that loaded before the type check is unchanged
        p = tmp_path / "cfg.yaml"
        p.write_text("optimizer:\n  lr: 1\n  r_decay: null\ndata:\n  ratios: [0.6, 0.2, 0.2]\n"
                     "output: elsewhere\n")
        cfg = load_config(str(p))
        assert type(cfg.optimizer.lr) is int and cfg.data.ratios == [0.6, 0.2, 0.2]
        assert cfg.output == "elsewhere"
        direct = RunConfig()
        direct.optimizer.lr = 1
        direct.data.ratios = [0.6, 0.2, 0.2]
        assert config_hash(cfg) == config_hash(resolve(direct))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("training:\n  nonsense: 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize("text", ["regularization:\n  dense_penalty: true\n",
                                      "deterministic: true\n", "threads: 2\n"])
    def test_removed_keys_rejected(self, tmp_path, text):
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no_equals_sign"])
        with pytest.raises(ConfigError):
            load_config(None, ["bogus.path=1"])

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("true", True), ("Yes", True),
        ("0", False), ("FALSE", False), ("no", False),
    ])
    def test_bool_override_words(self, word, value):
        cfg = load_config(None, [f"regularization.adam_on_lambda={word}"])
        assert cfg.regularization.adam_on_lambda is value


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    manifest = str(corpus / "data" / "manifest.csv")
    rc = main(["train", "--manifest", manifest, "--out", str(out)] + FAST)
    assert rc == 0
    run_dirs = [d for d in out.iterdir() if (d / "checkpoint.npz").exists()]
    return manifest, str(run_dirs[0] / "checkpoint.npz")


class TestEvaluate:
    def test_metrics_deterministic(self, trained, tmp_path, capsys):
        manifest, ckpt = trained
        outs = []
        for n in range(2):
            rc = main(["evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                       "--out", str(tmp_path / f"e{n}"), "--ks", "10", "50"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert (tmp_path / "e0" / "metrics.txt").exists()
        assert (tmp_path / "e0" / "metrics_users.csv").exists()
        assert (tmp_path / "e0" / "metrics_items.csv").exists()

    def test_shape_mismatch_rejected(self, trained, tmp_path, capsys):
        manifest, _ = trained
        bad = tmp_path / "bad.npz"
        emb = Embeddings(user=np.zeros((2, 4)), item=np.zeros((3, 4)))
        lam = RegCoefficients.create("global", 2, 3, 4)
        save_checkpoint(bad, emb, lam, make_optimizer("sgd"))
        rc = main(["evaluate", "--checkpoint", str(bad), "--manifest", manifest,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "ERROR:INCOMPATIBLE_CHECKPOINT" in capsys.readouterr().err

    def test_nan_score_fails_with_typed_error(self, trained, tmp_path, capsys):
        manifest, ckpt = trained
        emb, lam, opt, _ = load_checkpoint(ckpt)
        emb.item[:, 0] = np.nan
        bad = tmp_path / "nan.npz"
        save_checkpoint(bad, emb, lam, opt)
        rc = main(["evaluate", "--checkpoint", str(bad), "--manifest", manifest,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "ERROR:GENERIC: NaN score for user" in capsys.readouterr().err

    def test_manifest_without_test_items_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("user,partition,item,timestamp\n0,train,0,1\n0,validation,1,2\n"
                            "1,train,1,1\n1,validation,2,2\n")
        ckpt = tmp_path / "ck.npz"
        save_checkpoint(ckpt, Embeddings.init(2, 3, 4, 0.1, np.random.default_rng(0)),
                        RegCoefficients.create("global", 2, 3, 4), make_optimizer("sgd"))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "ERROR:EMPTY_CORPUS: manifest has zero test items" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("ks", [["0", "5"], ["-3", "5"], ["5", "10", "5"]])
    def test_bad_ks_rejected_before_writing(self, trained, tmp_path, capsys, ks):
        manifest, ckpt = trained
        out = tmp_path / "e"
        rc = main(["evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                   "--out", str(out), "--ks", *ks])
        assert rc == 1
        assert "ERROR:CONFIG: ks must" in capsys.readouterr().err
        assert not (out / "metrics.txt").exists()
        assert not (out / "metrics_users.csv").exists()


class TestGridSearch:
    def test_picks_best_and_writes_table(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.grid=[0.01,0.0001]"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert "best_lambda " in out
        grid_dirs = [d for d in tmp_path.iterdir() if d.name.endswith("-grid")]
        with open(grid_dirs[0] / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["lambda"] for r in rows} == {"0.01", "0.0001"}
        assert all(r["status"] == "ok" for r in rows)
        assert (grid_dirs[0] / "lambda_0.01" / "checkpoint.npz").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failed_candidates_are_rows(self, corpus, tmp_path, capsys):
        # with plain SGD a coefficient of 1e300 overflows the factors, and
        # the run aborts
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "optimizer.kind=sgd",
                   "--set", "regularization.grid=[0.01,1e300]"] + FAST)
        assert rc == 0
        assert "best_lambda 0.01" in capsys.readouterr().out
        grid_dir = next(d for d in tmp_path.iterdir() if d.name.endswith("-grid"))
        with open(grid_dir / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["lambda"], r["status"]) for r in rows] == [
            ("0.01", "ok"), ("1e+300", "failed")]
        assert rows[1]["val_auc"] == "nan"

    def test_candidate_raising_is_a_failed_row(self, corpus, tmp_path, capsys, monkeypatch):
        # an error outside the training steps (here the first candidate's
        # first evaluation) fails that candidate, not the search
        import adaptreg.evaluate
        real, raised = adaptreg.evaluate.corpus_auc, []

        def corpus_auc(*args, **kwargs):
            if not raised:
                raised.append(True)
                raise AdaptRegError("evaluation failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptreg.evaluate, "corpus_auc", corpus_auc)
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.grid=[0.01,0.0001]"] + FAST)
        assert rc == 0
        assert "best_lambda 0.0001" in capsys.readouterr().out
        grid_dir = next(d for d in tmp_path.iterdir() if d.name.endswith("-grid"))
        with open(grid_dir / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["lambda"], r["status"]) for r in rows] == [("0.01", "failed"), ("0.0001", "ok")]
        assert rows[0]["val_auc"] == "nan"

    def test_bad_boundaries_rejected_up_front(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "groups.user_boundaries=[50,25]"] + FAST)
        assert rc == 1
        assert "ERROR:CONFIG: groups.user_boundaries must be strictly ascending" in (
            capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_every_candidate_failed(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "optimizer.kind=sgd",
                   "--set", "regularization.grid=[1e300]"] + FAST)
        assert rc == 1
        assert "ERROR:GENERIC: every grid candidate failed" in capsys.readouterr().err
        grid_dir = next(d for d in tmp_path.iterdir() if d.name.endswith("-grid"))
        with open(grid_dir / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["failed"]

    def test_negative_candidate_rejected_up_front(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.grid=[0.01,-1.0]"] + FAST)
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err
        assert not [d for d in tmp_path.iterdir() if d.name.endswith("-grid")]

    @pytest.mark.parametrize("grid,message", [
        ("[0.1,0.1000001]", "0.1 and 0.1000001 share the run directory lambda_0.1"),
        ("[1e-5,1.000001e-5]", "1e-05 and 1.000001e-05 share the run directory lambda_1e-05"),
        ("[0.01,0.0001,0.01]", "0.01 and 0.01 share the run directory lambda_0.01"),
        ("[0.0,-0.0,1e-3]", "0.0 and -0.0 share the run directory lambda_0"),
    ], ids=["close", "close-small", "repeated", "signed-zero"])
    def test_candidates_sharing_a_run_directory_rejected_up_front(self, corpus, tmp_path,
                                                                  capsys, grid, message):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", f"regularization.grid={grid}"] + FAST)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR:CONFIG: grid candidates {message}"]
        assert not list(tmp_path.iterdir())

    def test_empty_grid_rejected(self, corpus, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest,
                   "--set", "regularization.grid=[]"])
        assert rc == 1
        assert "ERROR:" in capsys.readouterr().err


def _saved(save, *args, **kwargs):
    """The bytes that ``save`` (np.save or np.savez) writes for these arrays."""
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


# a two-epoch metrics.jsonl with one user and one item frequency group
_GROUPS = '{"groups": {"user": [[0, 5, 3.0]], "item": [[0, 7, 4.0]]}}'
_EPOCHS = ['{"epoch": %d, "lambda": {"user": {"mean": 0.1, "var": 0.0, "groups": [[0, 0.1, 0.0]]}, '
           '"item": {"mean": 0.1, "var": 0.0, "groups": [[0, 0.1, 0.0]]}}}' % ep for ep in (1, 2)]


class TestExportTrajectory:
    def test_fixed_run_rows_constant(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.mode=fix",
                   "--set", "regularization.fixed_value=0.02"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        run_dir = [l.split(" ", 1)[1] for l in out.splitlines()
                   if l.startswith("run_dir ")][0]
        rc = main(["export-trajectory", "--run", run_dir])
        assert rc == 0
        capsys.readouterr()
        with open(os.path.join(run_dir, "trajectory.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for r in rows:
            assert float(r["lambda_mean"]) == pytest.approx(0.02)
            assert float(r["lambda_var"]) == pytest.approx(0.0, abs=1e-20)
        with open(os.path.join(run_dir, "frequency_lambda.csv")) as fh:
            frows = list(csv.DictReader(fh))
        assert frows
        assert all(float(r["mean_frequency"]) > 0 for r in frows)

    def test_train_hands_its_groups_to_the_trajectory(self, corpus, tmp_path, capsys):
        # boundaries m, m + 0.25 and m + 0.5 with a whole m: frequencies are
        # whole numbers, so none falls between the last two, and that group
        # is empty on each side
        manifest = str(corpus / "data" / "manifest.csv")
        split = load_manifest(manifest)
        bounds = {}
        for side in ("user", "item"):
            m = int(np.median(getattr(split, f"{side}_frequency")))
            bounds[side] = [m, m + 0.25, m + 0.5]
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST + [
            arg for side in ("user", "item") for arg in (
                "--set", f"groups.{side}_boundaries=[{','.join(map(str, bounds[side]))}]")])
        out = capsys.readouterr().out
        assert rc == 0
        run_dir = [l.split(" ", 1)[1] for l in out.splitlines()
                   if l.startswith("run_dir ")][0]
        _check_groups_line(os.path.join(run_dir, "metrics.jsonl"), {
            side: (getattr(split, f"{side}_frequency"),
                   frequency_groups(getattr(split, f"{side}_frequency"), bounds[side]))
            for side in ("user", "item")})

    def test_group_frequencies_equal_per_group_loop(self, small_split, tmp_path):
        # no frequency falls between the last two boundaries: that group is
        # empty, and line 1 does not list it
        cfg = RunConfig()
        for side in ("user", "item"):
            m = float(np.median(getattr(small_split, f"{side}_frequency")))
            setattr(cfg.groups, f"{side}_boundaries", [m, m + 0.5, m + 0.75])
        lam = RegCoefficients.create("full", small_split.num_users, small_split.num_items, 4,
                                     init=0.1)
        user_groups = frequency_groups(small_split.user_frequency, cfg.groups.user_boundaries)
        item_groups = frequency_groups(small_split.item_frequency, cfg.groups.item_boundaries)
        trajectory = [record_trajectory(lam, 1, group_by(user_groups), group_by(item_groups))]
        result = TrainResult(emb=None, lam=lam, optimizer=None, history=[],
                             trajectory=trajectory, best_epoch=1,
                             user_groups=group_by(user_groups),
                             item_groups=group_by(item_groups))
        write_metrics(str(tmp_path), result, small_split)
        _check_groups_line(tmp_path / "metrics.jsonl", {
            "user": (small_split.user_frequency, user_groups),
            "item": (small_split.item_frequency, item_groups)})

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_run_aborted_in_its_first_epoch_exports_headers(self, corpus, tmp_path, capsys):
        # with plain SGD a coefficient of 1e300 overflows the factors at step 1
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "optimizer.kind=sgd", "--set", "regularization.mode=fix",
                   "--set", "regularization.fixed_value=1e300"] + FAST)
        out = capsys.readouterr().out.splitlines()
        assert rc == 0 and "status aborted" in out
        run_dir = [l.split(" ", 1)[1] for l in out if l.startswith("run_dir ")][0]
        with open(os.path.join(run_dir, "metrics.jsonl")) as fh:
            assert [list(json.loads(line)) for line in fh] == [["groups"]]
        assert main(["export-trajectory", "--run", run_dir]) == 0
        capsys.readouterr()
        for name, header in (
                ("trajectory.csv", "step,entity_kind,entity_id_or_group,lambda_mean,lambda_var"),
                ("frequency_lambda.csv", "epoch,entity_kind,group,mean_frequency,lambda_mean")):
            with open(os.path.join(run_dir, name)) as fh:
                assert fh.read().splitlines() == [header]

    def test_out_to_a_new_directory(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        assert main(["train", "--manifest", manifest, "--out", str(tmp_path / "r")] + FAST) == 0
        run_dir = [l.split(" ", 1)[1] for l in capsys.readouterr().out.splitlines()
                   if l.startswith("run_dir ")][0]
        out = tmp_path / "plots" / "run"
        assert main(["export-trajectory", "--run", run_dir, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"trajectory_csv {out / 'trajectory.csv'}",
            f"frequency_csv {out / 'frequency_lambda.csv'}"]
        assert main(["export-trajectory", "--run", run_dir]) == 0
        capsys.readouterr()
        for name in ("trajectory.csv", "frequency_lambda.csv"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read()

    def test_missing_run_rejected(self, capsys):
        rc = main(["export-trajectory", "--run", "/nonexistent"])
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err

    def test_non_finite_statistics_are_strict_json(self, tmp_path, capsys):
        # user coefficients 0 and 1e200: a finite mean, an infinite variance
        lam = RegCoefficients.create("user", 4, 3, 2, init=0.1)
        lam.values[:4] = [0.0, 1e200, 0.0, 1e200]
        groups = group_by(np.zeros(4, dtype=np.int64)), group_by(np.zeros(3, dtype=np.int64))
        result = TrainResult(emb=None, lam=lam, optimizer=None, history=[],
                             trajectory=[record_trajectory(lam, 1, *groups)], best_epoch=1,
                             user_groups=groups[0], item_groups=groups[1])
        # write_metrics reads only the split's frequencies
        split = SimpleNamespace(user_frequency=np.full(4, 5), item_frequency=np.full(3, 7))
        write_metrics(str(tmp_path), result, split)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        with open(tmp_path / "metrics.jsonl") as fh:
            lines = [json.loads(line, parse_constant=refuse) for line in fh]
        assert lines[1]["lambda"]["user"] == {"mean": 5e199, "var": "inf",
                                              "groups": [[0, 5e199, "inf"]]}
        assert main(["export-trajectory", "--run", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            assert fh.read().splitlines()[1:4:2] == ["1,user,all,5e+199,inf",
                                                     "1,user_group,0,5e+199,inf"]

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_strings_export(self, tmp_path, capsys, token):
        (tmp_path / "metrics.jsonl").write_text(
            _GROUPS + "\n" + _EPOCHS[0].replace('"var": 0.0', f'"var": "{token}"', 1) + "\n")
        assert main(["export-trajectory", "--run", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            assert fh.read().splitlines()[1] == f"1,user,all,0.1,{token}"

    def test_infinite_statistic_exports(self, tmp_path, capsys):
        # a file written before metrics.jsonl was strict JSON holds the bare
        # token Infinity, which Python's json module reads
        (tmp_path / "metrics.jsonl").write_text(
            _GROUPS + "\n" + _EPOCHS[0].replace('"mean": 0.1', '"mean": Infinity', 1) + "\n")
        assert main(["export-trajectory", "--run", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            assert fh.read().splitlines()[1:3] == ["1,user,all,inf,0", "1,item,all,0.1,0"]

    @pytest.mark.parametrize("content,why", [
        (b"step,lambda\n1,0.5\n", "not a JSON line"),
        (b"", "no 'groups' object"),
        (_saved(np.save, np.arange(3)), "not a JSON line"),
        (_EPOCHS[0].encode() + b"\n", "no 'groups' object"),
        (_GROUPS[:20].encode(), "not a JSON line"),
    ], ids=["text", "empty", "npy", "epoch-only", "truncated"])
    def test_unreadable_metrics_rejected(self, tmp_path, capsys, content, why):
        # each refusal of a file that is no metrics record at all ends on line 1
        _assert_refused(tmp_path, capsys, content, 1, why)

    @pytest.mark.parametrize("line,forged,why", [
        (2, ('"mean": 0.1', '"mean": "a"'), "user mean or var is not a number"),
        (3, ('"var": 0.0, ', ''), "user mean or var is not a number"),
        (2, ('[[0, 0.1', '[[2, 0.1'), "names a user group id that line 1 does not list"),
        (3, ('"epoch": 2', '"epoch": 1.5'), "epoch is not a whole number"),
        (2, ('[[0, 0.1, 0.0]]', '[[0, 0.1]]'), "user group entry is not a list of 3"),
        (2, ('"item"', '"2"'), "sides 'user' and 'item' alone"),
        (1, ('[[0, 5, 3.0]]', '[[0, 5.5, 3.0]]'), "not a whole number"),
        (3, ('[[0, 0.1, 0.0]]', '[["0", 0.1, 0.0]]'), "id that is not a whole number"),
        (2, (_EPOCHS[0], '[1, 2]'), "no 'lambda' object"),
        (3, ('"var": 0.0', '"var": "Infinity"'), "user mean or var is not a number"),
        (2, ('[[0, 0.1, 0.0]]', '[[0, 0.1, "NaN"]]'), "a statistic that is not a number"),
    ], ids=["strings", "short", "group-beyond-frequencies", "fractional-epoch",
            "two-columns", "side-2", "fractional-size", "string-id", "not-an-object",
            "other-infinity-string", "other-nan-string"])
    def test_malformed_metrics_rejected(self, tmp_path, capsys, line, forged, why):
        # one forged line of a two-epoch record, one user and one item group
        lines = [_GROUPS] + _EPOCHS
        lines[line - 1] = lines[line - 1].replace(*forged, 1)
        assert lines[line - 1] != ([_GROUPS] + _EPOCHS)[line - 1]
        _assert_refused(tmp_path, capsys, "\n".join(lines).encode() + b"\n", line, why)


def _assert_refused(run_dir, capsys, content, line, why):
    """``content`` as ``metrics.jsonl`` is one ERROR:CONFIG line naming the
    file and ``line``, and no CSV nor the ``--out`` directory is written; the
    unforged record exports."""
    path, out = run_dir / "metrics.jsonl", run_dir / "out"
    path.write_bytes(content)
    rc = main(["export-trajectory", "--run", str(run_dir), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR:CONFIG: {path}:{line}: "), err
    assert why in err[0]
    assert not list(run_dir.glob("*.csv")) and not out.exists()
    path.write_text("\n".join([_GROUPS] + _EPOCHS) + "\n")
    assert main(["export-trajectory", "--run", str(run_dir), "--out", str(out)]) == 0
    with open(out / "frequency_lambda.csv") as fh:
        assert fh.read().splitlines()[1:] == [
            "1,user,0,3,0.1", "1,item,0,4,0.1", "2,user,0,3,0.1", "2,item,0,4,0.1"]


def _check_groups_line(path, sides):
    """Line 1 of ``metrics.jsonl`` lists each side's nonempty frequency
    groups, ``sides[side]`` being its frequencies and group labels, with
    their sizes and the per-group loop's mean frequencies, bit for bit. Each
    side has four groups, one of them empty and so not listed."""
    with open(path) as fh:
        groups = json.loads(fh.readline())["groups"]
    assert list(groups) == ["user", "item"]
    for side, (freqs, labels) in sides.items():
        want = oracle_group_mean_freq(freqs.astype(float), labels)
        ids, sizes, means = map(list, zip(*groups[side]))
        assert ids == [g for g in range(len(want)) if (labels == g).any()]
        assert sizes == [int((labels == g).sum()) for g in ids]
        assert np.asarray(means).tobytes() == want[ids].tobytes()
        assert len(want) == 4 and len(ids) == 3


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_bit_exact(self, tmp_path, kind):
        rng = np.random.default_rng(0)
        emb = Embeddings.init(6, 9, 4, 0.1, rng)
        lam = RegCoefficients.create("full", 6, 9, 4)
        lam.values[:] = rng.uniform(0, 0.2, lam.num_entries)
        opt = make_optimizer(kind)
        from adaptreg.mf import bpr_gradient, TripletBatch
        batch = TripletBatch(rng.integers(0, 6, 32), rng.integers(0, 9, 32),
                             rng.integers(0, 9, 32))
        opt.step(emb, bpr_gradient(emb, batch))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, emb, lam, opt, meta={"best_epoch": 3})
        emb2, lam2, opt2, header = load_checkpoint(path)
        assert (emb2.user == emb.user).all()
        assert (emb2.item == emb.item).all()
        assert (lam2.values == lam.values).all()
        assert opt2.state_digest() == opt.state_digest()
        assert header["meta"]["best_epoch"] == 3

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        path = tmp_path / "old.npz"
        header = np.frombuffer(json.dumps({"version": 99}).encode(), dtype=np.uint8)
        np.savez(path, header=header)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("forged", [
        {"lambda_values": np.array([0.3])},  # would broadcast into every entry
        {"lambda_values": np.full(7, 0.3)},
        {"user_factors": np.zeros((5, 4))},
        {"item_factors": np.zeros((9, 3))},
    ], ids=["one_lambda", "short_lambda", "user_rows", "item_dim"])
    def test_arrays_disagreeing_with_header_rejected(self, tmp_path, forged):
        rng = np.random.default_rng(0)
        emb = Embeddings.init(6, 9, 4, 0.1, rng)
        lam = RegCoefficients.create("full", 6, 9, 4, init=0.3)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, emb, lam, make_optimizer("sgd"))
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **{**arrays, **forged})
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", [
        "unknown_optimizer", "missing_opt_array", "dim_not_integer", "dim_float",
        "unknown_granularity", "negative_lambda", "nan_lambda", "inf_lambda",
        "moment_shape", "negative_lr", "negative_step", "nan_moment", "negative_r",
        "string_factors", "complex_factors",
    ])
    def test_malformed_contents_rejected(self, corpus, tmp_path, case, capsys):
        import json
        rng = np.random.default_rng(0)
        emb = Embeddings.init(6, 9, 4, 0.1, rng)
        lam = RegCoefficients.create("full", 6, 9, 4, init=0.3)
        opt = make_optimizer("adam")
        opt.step(emb, SparseGrad(np.array([1]), np.ones((1, 4)),
                                 np.array([2]), np.ones((1, 4))))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, emb, lam, opt)
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(bytes(arrays["header"]).decode())
        if case == "unknown_optimizer":
            header["optimizer"] = "rmsprop"
        elif case == "missing_opt_array":
            del arrays["opt_r_item"]
        elif case == "dim_not_integer":
            header["dim"] = "4"
        elif case == "dim_float":
            header["dim"] = 4.0
        elif case == "unknown_granularity":
            header["granularity"] = "user-item"
        elif case == "moment_shape":
            arrays["opt_s_user"] = np.zeros((2, 2))
        elif case == "negative_lr":
            arrays["opt_lr"] = np.float64(-1.0)
        elif case == "negative_step":
            arrays["opt_t"] = np.int64(-5)
        elif case == "nan_moment":
            arrays["opt_s_item"][2, 1] = np.nan
        elif case == "negative_r":
            arrays["opt_r_user"][1, 0] = -1e-3
        elif case == "string_factors":
            arrays["user_factors"] = arrays["user_factors"].astype(str)
        elif case == "complex_factors":
            arrays["item_factors"] = arrays["item_factors"].astype(np.complex128)
        else:
            bad = {"negative_lambda": -0.1, "nan_lambda": np.nan, "inf_lambda": np.inf}
            arrays["lambda_values"][5] = bad[case]
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["evaluate", "--checkpoint", str(path), "--manifest", manifest,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "ERROR:INCOMPATIBLE_CHECKPOINT" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "header_only", "missing_key", "not_npz", "bad_json", "bad_utf8",
        "no_header", "header_not_object", "npy_array", "object_header",
        "object_user_factors", "object_lambda_values", "object_opt_lr",
    ])
    def test_unreadable_files_rejected(self, corpus, tmp_path, content, capsys):
        import json
        path = tmp_path / "bad.npz"
        if content == "not_npz":
            path.write_text("not a checkpoint\n")
        elif content == "npy_array":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            rng = np.random.default_rng(0)
            save_checkpoint(path, Embeddings.init(2, 3, 4, 0.1, rng),
                            RegCoefficients.create("global", 2, 3, 4), make_optimizer("sgd"))
            with np.load(path) as data:
                arrays = dict(data)
            header = json.loads(bytes(arrays["header"]).decode())
            if content == "header_only":
                arrays = {"header": np.frombuffer(b'{"version": 1}', dtype=np.uint8)}
            elif content == "no_header":
                del arrays["header"]
            elif content == "header_not_object":
                arrays["header"] = np.frombuffer(b"[1]", dtype=np.uint8)
            elif content.startswith("object_"):
                # a pickled array, which np.load refuses to read
                arrays[content[len("object_"):]] = np.array([None], dtype=object)
            elif content == "missing_key":
                del header["granularity"]
                arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
            else:
                text = b"{not json" if content == "bad_json" else b"\xff\xfe"
                arrays["header"] = np.frombuffer(text, dtype=np.uint8)
            np.savez(path, **arrays)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["evaluate", "--checkpoint", str(path), "--manifest", manifest,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "ERROR:INCOMPATIBLE_CHECKPOINT" in capsys.readouterr().err
