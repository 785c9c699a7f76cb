import csv
import os

import numpy as np
import pytest

from adaptreg.checkpoint import load_checkpoint, save_checkpoint
from adaptreg.cli import main
from adaptreg.config import RunConfig, config_hash, load_config, resolve
from adaptreg.errors import ConfigError, IncompatibleCheckpointError
from adaptreg.mf import Embeddings, SparseGrad
from adaptreg.adaptive import RegCoefficients, record_trajectory
from adaptreg.data import frequency_groups, group_by
from adaptreg.optim import make_optimizer
from adaptreg.runs import save_trajectory

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


class TestTrain:
    def test_run_artifacts(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        run_dir = [l.split(" ", 1)[1] for l in out.splitlines()
                   if l.startswith("run_dir ")][0]
        for name in ("config.yaml", "history.csv", "trajectory.npz", "checkpoint.npz"):
            assert os.path.exists(os.path.join(run_dir, name)), name
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

    def test_run_dir_encodes_seed(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path),
                   "--seed", "9"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert "-seed9" in out

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
    ], ids=lambda case: " ".join(case.split()))
    def test_bad_config_value_rejected(self, corpus, tmp_path, capsys, case):
        manifest = str(corpus / "data" / "manifest.csv")
        if "\n" in case:
            path = tmp_path.parent / f"{tmp_path.name}.yaml"
            path.write_text(case)
            extra = ["--config", str(path)]
        else:
            extra = ["--set", case]
        rc = main(["train", "--manifest", manifest, "--out", str(tmp_path)] + FAST + extra)
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestConfigHash:
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
        rows = list(csv.DictReader(open(grid_dirs[0] / "grid.csv")))
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
        rows = list(csv.DictReader(open(grid_dir / "grid.csv")))
        assert [(r["lambda"], r["status"]) for r in rows] == [
            ("0.01", "ok"), ("1e+300", "failed")]
        assert rows[1]["val_auc"] == "nan"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_every_candidate_failed(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "optimizer.kind=sgd",
                   "--set", "regularization.grid=[1e300]"] + FAST)
        assert rc == 1
        assert "ERROR:GENERIC: every grid candidate failed" in capsys.readouterr().err
        grid_dir = next(d for d in tmp_path.iterdir() if d.name.endswith("-grid"))
        rows = list(csv.DictReader(open(grid_dir / "grid.csv")))
        assert [r["status"] for r in rows] == ["failed"]

    def test_negative_candidate_rejected_up_front(self, corpus, tmp_path, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest, "--out", str(tmp_path),
                   "--set", "regularization.grid=[0.01,-1.0]"] + FAST)
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err
        assert not [d for d in tmp_path.iterdir() if d.name.endswith("-grid")]

    def test_empty_grid_rejected(self, corpus, capsys):
        manifest = str(corpus / "data" / "manifest.csv")
        rc = main(["grid-search", "--manifest", manifest,
                   "--set", "regularization.grid=[]"])
        assert rc == 1
        assert "ERROR:" in capsys.readouterr().err


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

    def test_group_frequencies_equal_per_group_loop(self, small_split, tmp_path):
        # no frequency falls between the last two boundaries: that group is
        # empty, and its slot reads 0.0
        cfg = RunConfig()
        for side in ("user", "item"):
            m = float(np.median(getattr(small_split, f"{side}_frequency")))
            setattr(cfg.groups, f"{side}_boundaries", [m, m + 0.5, m + 0.75])
        lam = RegCoefficients.create("full", small_split.num_users, small_split.num_items, 4,
                                     init=0.1)
        user_groups = frequency_groups(small_split.user_frequency, cfg.groups.user_boundaries)
        item_groups = frequency_groups(small_split.item_frequency, cfg.groups.item_boundaries)
        trajectory = [record_trajectory(lam, 1, group_by(user_groups), group_by(item_groups))]
        save_trajectory(str(tmp_path), trajectory, small_split, cfg)
        with np.load(tmp_path / "trajectory.npz") as data:
            for key, groups, freqs in (
                    ("user_group_freq", user_groups, small_split.user_frequency),
                    ("item_group_freq", item_groups, small_split.item_frequency)):
                want = oracle_group_mean_freq(freqs.astype(float), groups)
                assert data[key].tobytes() == want.tobytes()
                assert len(want) == 4 and (want == 0.0).any()

    def test_missing_run_rejected(self, capsys):
        rc = main(["export-trajectory", "--run", "/nonexistent"])
        assert rc == 1
        assert "ERROR:CONFIG" in capsys.readouterr().err


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
    ])
    def test_unreadable_files_rejected(self, corpus, tmp_path, content, capsys):
        import json
        path = tmp_path / "bad.npz"
        if content == "not_npz":
            path.write_text("not a checkpoint\n")
        else:
            rng = np.random.default_rng(0)
            save_checkpoint(path, Embeddings.init(2, 3, 4, 0.1, rng),
                            RegCoefficients.create("global", 2, 3, 4), make_optimizer("sgd"))
            with np.load(path) as data:
                arrays = dict(data)
            header = json.loads(bytes(arrays["header"]).decode())
            if content == "header_only":
                arrays = {"header": np.frombuffer(b'{"version": 1}', dtype=np.uint8)}
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
