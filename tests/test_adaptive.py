import math
from types import SimpleNamespace

import numpy as np
import pytest

from adaptreg.adaptive import (
    GRANULARITIES, PHASE_COUNTS, PHASE_SECONDS, LambdaAdam, RegCoefficients,
    canonical_granularity, compose_gradient, hypergradient, project_and_step,
    record_trajectory, train_model,
)
from adaptreg.config import RunConfig
from adaptreg.data import frequency_groups, group_by
from adaptreg.errors import ConfigError
from adaptreg.mf import Embeddings, TripletBatch, bpr_gradient, bpr_loss, penalty
from adaptreg.optim import make_optimizer

from _synth import make_split
from conftest import (
    oracle_index_maps, oracle_record_trajectory, random_batch, random_instance, same_bytes,
)


class TestGranularity:
    def test_aliases(self):
        assert canonical_granularity("DUI") == "full"
        assert canonical_granularity("D") == "dim"
        assert canonical_granularity("du") == "user-dim"

    def test_unknown(self):
        with pytest.raises(ConfigError):
            canonical_granularity("chunky")

    def test_negative_init_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            RegCoefficients.create("full", 3, 5, 2, init=-0.1)

    @pytest.mark.parametrize("init", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
    def test_non_finite_init_rejected(self, init):
        # a NaN would pass a bare ``init < 0`` and make every coefficient NaN
        with pytest.raises(ConfigError, match="finite"):
            RegCoefficients.create("full", 3, 5, 2, init=init)

    def test_entry_counts(self):
        U, I, K = 3, 5, 2
        expect = {"global": 1, "dim": K, "user": U + 1, "item": I + 1,
                  "user-dim": U * K + K, "item-dim": K + I * K,
                  "full": (U + I) * K}
        for g, n in expect.items():
            assert RegCoefficients.create(g, U, I, K).num_entries == n


class TestLambdaAdam:
    def test_direction_bit_equal_to_out_of_place_formula(self):
        rng = np.random.default_rng(4)
        opt = LambdaAdam(50)
        s, r = np.zeros(50), np.zeros(50)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for t in range(1, 6):
            g = rng.normal(0, 1, 50) * (rng.random(50) < 0.5)
            s = b1 * s + (1 - b1) * g
            r = b2 * r + (1 - b2) * g * g
            c = math.sqrt(1 - b2 ** t) / (1 - b1 ** t)
            want = c * s / (np.sqrt(r) + eps)
            assert opt.direction(g).tobytes() == want.tobytes()
            assert opt.s.tobytes() == s.tobytes() and opt.r.tobytes() == r.tobytes()


class TestBroadcast:
    def test_global(self):
        lam = RegCoefficients.create("global", 2, 1, 2, init=0.3)
        assert (lam.user_dense() == [[0.3, 0.3], [0.3, 0.3]]).all()

    def test_user_wise(self):
        lam = RegCoefficients.create("user", 2, 1, 2)
        lam.values[:2] = [0.1, 0.2]
        assert (lam.user_dense() == [[0.1, 0.1], [0.2, 0.2]]).all()
        # item side is the trailing scalar
        lam.values[2] = 0.7
        assert (lam.item_dense() == 0.7).all()

    def test_full_identity(self):
        lam = RegCoefficients.create("full", 2, 3, 2)
        lam.values[:] = np.arange(lam.num_entries, dtype=float)
        assert (lam.user_dense().ravel() == np.arange(4)).all()
        assert (lam.item_dense().ravel() == np.arange(4, 10)).all()

    def test_dim_shared_across_sides(self):
        lam = RegCoefficients.create("dim", 2, 2, 3)
        lam.values[:] = [0.1, 0.2, 0.3]
        assert (lam.user_dense()[1] == [0.1, 0.2, 0.3]).all()
        assert (lam.item_dense()[0] == [0.1, 0.2, 0.3]).all()


class TestLayout:
    @pytest.mark.parametrize("shape", [(3, 5, 2), (1, 1, 1), (6, 1, 1), (1, 6, 1),
                                       (1, 1, 4), (4, 3, 1)])
    @pytest.mark.parametrize("gran", GRANULARITIES)
    def test_matches_oracle_index_maps(self, gran, shape):
        U, I, K = shape
        lam = RegCoefficients.create(gran, U, I, K)
        # every entry holds its own id, so a read shows which entry it reads
        lam.values[:] = np.arange(lam.num_entries)
        user_index, item_index = oracle_index_maps(gran, U, I, K)
        read = np.concatenate([user_index.ravel(), item_index.ravel()])
        assert (np.unique(read) == np.arange(lam.num_entries)).all()
        rng = np.random.default_rng(0)
        for side, n, index, dense in ((0, U, user_index, lam.user_dense()),
                                      (1, I, item_index, lam.item_dense())):
            assert dense.shape == index.shape and (dense == index).all()
            for rows in (np.arange(n), rng.integers(0, n, 7), np.empty(0, np.int64)):
                entries = lam.entries(side, rows)
                assert entries.dtype == np.int64
                assert entries.shape == (len(rows), K)
                assert (entries == index[rows]).all()
                gathered = np.broadcast_to(lam.gather(side, rows), (len(rows), K))
                assert (gathered == index[rows]).all()

    @pytest.mark.parametrize("gran", GRANULARITIES)
    def test_values_are_the_only_array(self, gran):
        lam = RegCoefficients.create(gran, 4, 3, 2)
        assert np.shares_memory(lam.user_dense(), lam.values)
        assert np.shares_memory(lam.item_dense(), lam.values)
        arrays = [k for k, v in vars(lam).items() if isinstance(v, np.ndarray)]
        assert arrays == ["values"]
        assert not np.shares_memory(lam.copy().values, lam.values)


class TestComposeGradient:
    def test_zero_lambda_identity(self):
        emb, rng = random_instance(0)
        grad = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        lam = RegCoefficients.create("full", 5, 8, 4, init=0.0)
        comp = compose_gradient(grad, emb, lam)
        assert (comp.user_vals == grad.user_vals).all()
        assert (comp.item_vals == grad.item_vals).all()

    def test_pure_penalty(self):
        emb = Embeddings(user=np.array([[2.0, -2.0]]), item=np.array([[1.0, 1.0]]))
        lam = RegCoefficients.create("global", 1, 1, 2, init=0.5)
        from adaptreg.mf import SparseGrad
        zero = SparseGrad(np.array([0]), np.zeros((1, 2)),
                          np.empty(0, dtype=np.int64), np.empty((0, 2)))
        comp = compose_gradient(zero, emb, lam)
        assert comp.user_vals[0] == pytest.approx([2.0, -2.0])

    def test_matches_loss_plus_penalty_fd(self):
        emb, rng = random_instance(1)
        batch = random_batch(rng, 5, 8, 3)
        lam = RegCoefficients.create("full", 5, 8, 4)
        lam.values[:] = rng.uniform(0, 0.3, lam.num_entries)
        comp = compose_gradient(bpr_gradient(emb, batch), emb, lam)

        def objective():
            # penalty restricted to touched rows, matching sparse semantics
            lu = lam.user_dense()
            li = lam.item_dense()
            p = sum(float((lu[r] * emb.user[r] ** 2).sum()) for r in comp.user_rows)
            p += sum(float((li[r] * emb.item[r] ** 2).sum()) for r in comp.item_rows)
            return bpr_loss(emb, batch) + p

        h = 1e-5
        for rows, vals, arr in ((comp.user_rows, comp.user_vals, emb.user),
                                (comp.item_rows, comp.item_vals, emb.item)):
            for n, row in enumerate(rows):
                for k in range(4):
                    old = arr[row, k]
                    arr[row, k] = old + h
                    lp = objective()
                    arr[row, k] = old - h
                    lm = objective()
                    arr[row, k] = old
                    assert vals[n, k] == pytest.approx((lp - lm) / (2 * h),
                                                       rel=1e-6, abs=1e-8)


class TestHypergradient:
    def test_zero_theta_zero_hypergradient(self):
        emb = Embeddings(user=np.zeros((3, 2)), item=np.zeros((4, 2)))
        lam = RegCoefficients.create("full", 3, 4, 2, init=0.1)
        opt = make_optimizer("sgd")
        tb = TripletBatch(np.array([0]), np.array([1]), np.array([2]))
        vb = TripletBatch(np.array([1]), np.array([0]), np.array([3]))
        G = hypergradient(lam, emb, opt, tb, vb)
        assert not G.any()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("gran", ["global", "dim", "user", "item",
                                      "user-dim", "item-dim", "full"])
    def test_finite_difference_oracle(self, kind, gran):
        emb, rng = random_instance(11)
        opt = make_optimizer(kind)
        if kind == "adam":
            for _ in range(3):
                opt.step(emb.copy(), bpr_gradient(emb, random_batch(rng, 5, 8, 10)))
        tb = random_batch(rng, 5, 8, 12)
        vb = random_batch(rng, 5, 8, 12)
        lam = RegCoefficients.create(gran, 5, 8, 4, init=0.05)
        G = hypergradient(lam, emb, opt, tb, vb)
        g_bar = bpr_gradient(emb, tb)

        def val_loss(values):
            comp = compose_gradient(g_bar, emb, lam.with_values(values))
            return bpr_loss(opt.assumed_step(emb, comp), vb)

        h = 1e-4
        for n in range(lam.num_entries):
            vp = lam.values.copy(); vp[n] += h
            vm = lam.values.copy(); vm[n] -= h
            fd = (val_loss(vp) - val_loss(vm)) / (2 * h)
            assert G[n] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_coarse_entry_sums_fine_entries(self):
        # chain-rule aggregation: a tied coarse entry accumulates exactly the
        # fine-grained entries it governs
        emb, rng = random_instance(12)
        opt = make_optimizer("adam")
        tb = random_batch(rng, 5, 8, 16)
        vb = random_batch(rng, 5, 8, 16)
        c = 0.07
        G_fine = hypergradient(RegCoefficients.create("full", 5, 8, 4, init=c),
                               emb, opt, tb, vb)
        G_global = hypergradient(RegCoefficients.create("global", 5, 8, 4, init=c),
                                 emb, opt, tb, vb)
        assert G_global[0] == pytest.approx(G_fine.sum(), rel=1e-10)
        G_user = hypergradient(RegCoefficients.create("user", 5, 8, 4, init=c),
                               emb, opt, tb, vb)
        fine_user = G_fine[:5 * 4].reshape(5, 4).sum(axis=1)
        assert G_user[:5] == pytest.approx(fine_user, rel=1e-10)
        assert G_user[5] == pytest.approx(G_fine[5 * 4:].sum(), rel=1e-10)

    def test_single_user_sweep_sign(self):
        # brute-force bilevel objective on a 1-D coefficient grid: the
        # hypergradient sign must match the local slope of the sweep
        emb = Embeddings(user=np.array([[0.8, -0.3]]),
                         item=np.array([[0.6, 0.2], [-0.4, 0.5], [0.1, -0.7]]))
        opt = make_optimizer("sgd")
        tb = TripletBatch(np.array([0]), np.array([0]), np.array([1]))
        vb = TripletBatch(np.array([0]), np.array([2]), np.array([0]))
        g_bar = bpr_gradient(emb, tb)
        lam0 = RegCoefficients.create("global", 1, 3, 2)

        def sweep_loss(lval):
            comp = compose_gradient(g_bar, emb, lam0.with_values([lval]))
            return bpr_loss(opt.assumed_step(emb, comp), vb)

        grid = np.linspace(0.0, 1.0, 21)
        losses = np.array([sweep_loss(v) for v in grid])
        for lval, slope in zip(grid[1:-1], (losses[2:] - losses[:-2]) / (grid[2] - grid[0])):
            G = hypergradient(lam0.with_values([lval]), emb, opt, tb, vb)
            if abs(slope) > 1e-10:
                assert np.sign(G[0]) == np.sign(slope)


class TestProjectAndStep:
    def test_zero_gradient_noop(self):
        lam = RegCoefficients.create("dim", 2, 2, 3, init=0.2)
        out = project_and_step(lam, np.zeros(3), 0.01, 1.0)
        assert (out.values == lam.values).all()

    def test_clamp_then_project(self):
        lam = RegCoefficients.create("global", 1, 1, 1, init=0.001)
        out = project_and_step(lam, np.array([1e9]), 0.01, 1.0)
        # clipped to 1, step to -0.009, projected to 0
        assert out.values[0] == 0.0

    def test_negative_gradient_grows(self):
        lam = RegCoefficients.create("global", 1, 1, 1, init=0.0)
        out = project_and_step(lam, np.array([-0.5]), 0.01, 1.0)
        assert out.values[0] == pytest.approx(0.005)

    def test_fuzz_nonnegative(self):
        rng = np.random.default_rng(0)
        lam = RegCoefficients.create("dim", 4, 4, 8, init=0.0)
        for _ in range(2000):
            G = rng.normal(0, 10, lam.num_entries)
            lam = project_and_step(lam, G, 10 ** rng.uniform(-4, 0), 1.0)
            assert (lam.values >= 0).all()


def record_labels(lam, step, user_groups, item_groups):
    """``record_trajectory`` on frequency labels, grouped as ``train_model`` does."""
    return record_trajectory(lam, step, group_by(np.asarray(user_groups)),
                             group_by(np.asarray(item_groups)))


class TestRecordTrajectory:
    def test_all_zero(self):
        lam = RegCoefficients.create("full", 2, 2, 2, init=0.0)
        row = record_labels(lam, 3, [0, 0], [0, 1])
        assert row.user_mean == 0.0 and row.item_mean == 0.0
        assert all(s[2] == 0.0 for s in row.user_group_stats)

    def test_entity_mean_over_dims(self):
        # entity means 0.3 and 0.6: their variance is 0.0225, where the
        # variance over the four entries would be 0.0275
        lam = RegCoefficients.create("user-dim", 2, 1, 2)
        lam.values[:4] = [0.2, 0.4, 0.6, 0.6]
        row = record_labels(lam, 0, [0, 0], [0])
        assert row.user_mean == pytest.approx(0.45)
        assert row.user_var == pytest.approx(0.0225)
        assert row.user_group_stats[0][3] == pytest.approx(0.0225)

    def test_group_population_variance(self):
        lam = RegCoefficients.create("user", 2, 1, 1)
        lam.values[:2] = [0.1, 0.3]
        row = record_labels(lam, 0, [0, 0], [0])
        g, size, mean, var = row.user_group_stats[0]
        assert size == 2
        assert mean == pytest.approx(0.2)
        assert var == pytest.approx(0.01)

    @pytest.mark.parametrize("gran", GRANULARITIES)
    def test_bit_equal_to_dense_index_maps(self, gran):
        U, I, K = 40, 60, 32
        lam = RegCoefficients.create(gran, U, I, K)
        lam.values[:] = np.random.default_rng(1).uniform(0, 0.3, lam.num_entries)
        groups = (np.arange(U) % 3, np.arange(I) % 4)
        row = record_labels(lam, 0, *groups)
        user_index, item_index = oracle_index_maps(gran, U, I, K)
        ref = record_labels(SimpleNamespace(
            user_dense=lambda: lam.values[user_index],
            item_dense=lambda: lam.values[item_index]), 0, *groups)
        assert row == ref

    @pytest.mark.parametrize("gran", GRANULARITIES)
    def test_equal_to_per_group_loop(self, gran):
        # labels with gaps (empty groups), one-member groups and groups past
        # the sizes where numpy's pairwise summation changes form
        U, I, K = 700, 300, 8
        rng = np.random.default_rng(2)
        lam = RegCoefficients.create(gran, U, I, K)
        lam.values[:] = rng.uniform(0, 0.3, lam.num_entries)
        user_groups = rng.choice([0, 2, 5], U, p=[0.8, 0.15, 0.05])
        user_groups[3] = 6
        item_groups = rng.integers(0, 4, I) * 2
        row = record_labels(lam, 4, user_groups, item_groups)
        assert row == oracle_record_trajectory(lam, 4, user_groups, item_groups)
        assert (6, 1) in [s[:2] for s in row.user_group_stats]

    @pytest.mark.parametrize("gran", ["global", "user", "full"])
    def test_finite_statistics_near_the_float_range(self, gran):
        # 32 dimensions, 12 users and 16 items of 1e307: every row, group and
        # side sum overflows unscaled. At these counts a mean of equal values
        # comes out exact, so the variances are exactly zero.
        U, I, K = 12, 16, 32
        lam = RegCoefficients.create(gran, U, I, K, init=1e307)
        row = record_labels(lam, 0, np.arange(U) // 8, np.arange(I) // 10)
        assert row.user_mean == row.item_mean == 1e307
        assert row.user_var == row.item_var == 0.0
        assert [s[:2] for s in row.user_group_stats] == [(0, 8), (1, 4)]
        assert [s[:2] for s in row.item_group_stats] == [(0, 10), (1, 6)]
        for _, _, mean, var in row.user_group_stats + row.item_group_stats:
            assert mean == 1e307 and var == 0.0

    def test_rounded_means_near_the_float_range_keep_zero_variances(self):
        # a mean of 112 values of 1e307 rounds, and deviations from it would
        # square past the float range; 8 users of small values share the run
        U, I, K = 120, 200, 8
        lam = RegCoefficients.create("user", U, I, K, init=1e307)
        small = 0.1 * np.arange(1, 9)
        lam.values[112:U] = small
        row = record_labels(lam, 0, np.arange(U) >= 112, np.arange(I) % 3)
        (g0, n0, mean0, var0), (g1, n1, mean1, var1) = row.user_group_stats
        assert (g0, n0, g1, n1) == (0, 112, 1, 8)
        assert mean0 == pytest.approx(1e307, rel=1e-15) and var0 == 0.0
        assert mean1 == small.mean() and var1 == pytest.approx(small.var(), rel=1e-12)
        # across both groups the variance is about 6e612, past the float range
        assert row.user_mean == pytest.approx(112 / 120 * 1e307, rel=1e-15)
        assert row.user_var == np.inf
        assert row.item_mean == pytest.approx(1e307, rel=1e-15) and row.item_var == 0.0
        assert all(var == 0.0 for *_, var in row.item_group_stats)


def quick_cfg(**kw):
    cfg = RunConfig()
    cfg.model.dim = kw.pop("dim", 8)
    cfg.model.init_scale = kw.pop("init_scale", 0.01)
    cfg.training.epochs = kw.pop("epochs", 3)
    cfg.training.batch_size = 128
    cfg.training.lambda_batch_size = 128
    cfg.training.eval_every = kw.pop("eval_every", 2)
    cfg.training.patience = kw.pop("patience", 50)
    cfg.training.seed = kw.pop("seed", 0)
    reg = kw.pop("mode", "opt")
    cfg.regularization.mode = reg
    cfg.regularization.granularity = kw.pop("granularity", "full")
    cfg.regularization.fixed_value = kw.pop("fixed_value", 0.01)
    cfg.regularization.step_size = kw.pop("step_size", 1e-3)
    cfg.optimizer.kind = kw.pop("optimizer", "adam")
    cfg.optimizer.lr = 0.01 if cfg.optimizer.kind == "adam" else 0.05
    assert not kw
    from adaptreg.config import resolve
    return resolve(cfg)


def assert_seeded_start(res, split, cfg):
    """The result holds the embeddings, coefficients and optimizer state that
    a fresh run of ``cfg`` starts from."""
    m, reg = cfg.model, cfg.regularization
    emb = Embeddings.init(split.num_users, split.num_items, m.dim, m.init_scale,
                          np.random.default_rng(cfg.training.seed))
    fixed = reg.mode == "fix"
    lam = RegCoefficients.create("global" if fixed else reg.granularity, split.num_users,
                                 split.num_items, m.dim,
                                 init=reg.fixed_value if fixed else reg.init)
    opt = make_optimizer(cfg.optimizer.kind, lr=cfg.optimizer.lr)
    assert res.emb.user.tobytes() == emb.user.tobytes()
    assert res.emb.item.tobytes() == emb.item.tobytes()
    assert res.lam.granularity == lam.granularity
    assert res.lam.values.tobytes() == lam.values.tobytes()
    assert res.optimizer.state_digest() == opt.state_digest()


class TestTrainLoop:
    def test_fixed_mode_runs_and_improves_loss(self, small_split):
        res = train_model(small_split, quick_cfg(mode="fix", epochs=4))
        assert not res.aborted
        assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]
        assert len(res.trajectory) == 4

    def test_seeded_reproducibility_bit_identical(self, small_split):
        a = train_model(small_split, quick_cfg(seed=5))
        b = train_model(small_split, quick_cfg(seed=5))
        assert (a.emb.user == b.emb.user).all()
        assert (a.emb.item == b.emb.item).all()
        assert (a.lam.values == b.lam.values).all()
        assert a.history == b.history

    def test_lambda_stays_nonnegative(self, small_split):
        res = train_model(small_split, quick_cfg(epochs=3, step_size=0.05))
        assert (res.lam.values >= 0).all()
        for row in res.trajectory:
            assert row.user_mean >= 0 and row.item_mean >= 0

    def test_sgda_is_dim_plus_sgd(self, small_split):
        from adaptreg.config import resolve
        cfg = quick_cfg()
        cfg.regularization.mode = "sgda"
        cfg = resolve(cfg)
        assert cfg.regularization.granularity == "dim"
        assert cfg.optimizer.kind == "sgd"
        res = train_model(small_split, cfg)
        assert res.lam.granularity == "dim"

    def test_fixed_trajectory_constant(self, small_split):
        res = train_model(small_split, quick_cfg(mode="fix", fixed_value=0.02, epochs=3))
        for row in res.trajectory:
            assert row.user_mean == pytest.approx(0.02)
            assert row.user_var == 0.0

    def test_lambda_update_does_not_touch_theta_or_state(self, small_split):
        # one hypergradient + projection round against frozen training state
        cfg = quick_cfg()
        rng = np.random.default_rng(0)
        emb = Embeddings.init(small_split.num_users, small_split.num_items, 8,
                              0.01, rng)
        opt = make_optimizer("adam")
        from adaptreg.data import sample_triplets
        batch = sample_triplets(small_split, rng, 128, "train")
        opt.step(emb, bpr_gradient(emb, batch))
        lam = RegCoefficients.create("full", small_split.num_users,
                                     small_split.num_items, 8, init=0.0)
        digest = opt.state_digest()
        theta_u = emb.user.copy()
        tb = sample_triplets(small_split, rng, 128, "train")
        vb = sample_triplets(small_split, rng, 128, "validation")
        G = hypergradient(lam, emb, opt, tb, vb)
        project_and_step(lam, G, 1e-3, 1.0)
        assert opt.state_digest() == digest
        assert (emb.user == theta_u).all()

    def test_best_epoch_checkpoint_is_consistent(self, small_split, tmp_path):
        from adaptreg.checkpoint import load_checkpoint, save_checkpoint
        scores = iter([0.9, 0.5, 0.4])
        res = train_model(small_split, quick_cfg(epochs=3, eval_every=1),
                          eval_fn=lambda e: next(scores))
        assert res.best_epoch == 1 and len(res.history) == 3
        assert res.optimizer.t == res.history[0]["step"]
        # the same run stopped after epoch 1 holds exactly the restored state
        one = train_model(small_split, quick_cfg(epochs=1), eval_fn=lambda e: 0.9)
        assert res.optimizer.state_digest() == one.optimizer.state_digest()
        assert res.emb.user.tobytes() == one.emb.user.tobytes()
        assert res.lam.values.tobytes() == one.lam.values.tobytes()
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, res.emb, res.lam, res.optimizer)
        emb, lam, opt, _ = load_checkpoint(path)
        assert emb.user.tobytes() == res.emb.user.tobytes()
        assert emb.item.tobytes() == res.emb.item.tobytes()
        assert lam.values.tobytes() == res.lam.values.tobytes()
        assert opt.state_digest() == res.optimizer.state_digest()

    def test_early_stop_after_patience_bad_evaluations(self, small_split):
        scores = iter([0.9, 0.8, 0.7, 0.6, 0.5])
        res = train_model(small_split, quick_cfg(epochs=5, eval_every=1, patience=2),
                          eval_fn=lambda e: next(scores))
        assert not res.aborted
        assert [r["epoch"] for r in res.history] == [1, 2, 3]
        assert res.best_epoch == 1

    def test_step_error_aborts_with_best_epoch_state(self, small_split):
        # the second evaluation writes NaN into user 0's factors, so a step of
        # epoch 3 raises NonFiniteGradientError
        calls = []

        def poisoning_eval(emb):
            calls.append(len(calls))
            if len(calls) == 2:
                emb.user[0] = np.nan
            return 0.9 if len(calls) == 1 else 0.5

        cfg = dict(mode="fix", eval_every=1)
        res = train_model(small_split, quick_cfg(epochs=4, **cfg), eval_fn=poisoning_eval)
        assert res.aborted and res.best_epoch == 1
        assert res.abort_reason.startswith("non-finite gradient entry for user row 0")
        assert [r["epoch"] for r in res.history] == [1, 2]
        one = train_model(small_split, quick_cfg(epochs=1, **cfg), eval_fn=lambda e: 0.9)
        assert res.emb.user.tobytes() == one.emb.user.tobytes()
        assert res.emb.item.tobytes() == one.emb.item.tobytes()
        assert res.optimizer.state_digest() == one.optimizer.state_digest()

    def test_non_finite_loss_aborts_at_the_evaluation(self, small_split):
        # one factor of ~1e200 per entity: a score overflows to -inf, so the
        # BPR loss is inf while the gradient (about 1e200) stays finite and
        # Adam's inf second moment leaves the factors where they were
        cfg = quick_cfg(mode="fix", fixed_value=0.0, dim=1, init_scale=1e200,
                        epochs=2, eval_every=1)
        with np.errstate(over="ignore", invalid="ignore"):
            res = train_model(small_split, cfg, eval_fn=lambda e: 0.5)
        init = Embeddings.init(small_split.num_users, small_split.num_items, 1, 1e200,
                               np.random.default_rng(0))
        assert res.aborted and res.abort_reason == "non-finite training loss at epoch 1"
        assert res.best_epoch == 0 and len(res.history) == 1
        assert res.history[0]["train_loss"] == np.inf and "val_auc" not in res.history[0]
        assert res.emb.user.tobytes() == init.user.tobytes()
        # the epoch's Adam steps moved the moments; the result is the seeded start
        assert_seeded_start(res, small_split, cfg)

    def test_non_finite_loss_aborts_before_the_next_evaluation(self, small_split):
        # the loss is inf from epoch 1; the run stops there, not at the first
        # evaluation at epoch 3
        cfg = quick_cfg(mode="fix", fixed_value=0.0, dim=1, init_scale=1e200,
                        epochs=3, eval_every=3)
        evals = []
        with np.errstate(over="ignore", invalid="ignore"):
            res = train_model(small_split, cfg, eval_fn=lambda e: evals.append(1) or 0.5)
        assert res.aborted and res.abort_reason == "non-finite training loss at epoch 1"
        assert [r["epoch"] for r in res.history] == [1] and len(res.trajectory) == 1
        assert evals == [] and res.best_epoch == 0
        assert_seeded_start(res, small_split, cfg)

    def test_step_error_before_any_improvement_returns_seeded_start(self, small_split):
        # epoch 1 moves theta, lambda and the Adam moments; its evaluation
        # improves nothing (NaN) and poisons every user factor, so the first
        # step of epoch 2 raises
        def poisoning_eval(emb):
            emb.user[:] = np.nan
            return np.nan

        cfg = quick_cfg(epochs=3, eval_every=1)
        res = train_model(small_split, cfg, eval_fn=poisoning_eval)
        assert res.aborted and res.abort_reason.startswith("non-finite gradient entry")
        assert res.best_epoch == 0 and [r["epoch"] for r in res.history] == [1]
        assert res.trajectory[0].user_mean > 0
        assert_seeded_start(res, small_split, cfg)

    def test_lambda_step_runs_every_nth_step(self, small_split, monkeypatch):
        from adaptreg import adaptive
        steps = []
        real = adaptive.lambda_step

        def counted(lam, emb, optimizer, *args):
            steps.append(optimizer.t - 1)  # the theta step just taken
            return real(lam, emb, optimizer, *args)

        monkeypatch.setattr(adaptive, "lambda_step", counted)
        cfg = quick_cfg(epochs=3)
        cfg.regularization.every = 3
        # 4 steps per epoch: the cadence counts steps across epochs
        cfg.training.batch_size = 100
        res = train_model(small_split, cfg, eval_fn=lambda e: 0.5)
        assert [r["step"] for r in res.history] == [4, 8, 12]
        assert steps == [0, 3, 6, 9]


class TestStepCost:
    """The paper's cost claim, that learning λ costs a constant factor over a
    fixed-λ run, as arithmetic on ``TrainResult.phases``, with no clock. An
    ``opt`` step scores its θ batch plus a train and a validation λ batch:
    ``1 + 2·lambda_batch_size/batch_size`` triplets per ``fix`` triplet, 3 at
    the default batch sizes. A λ step that reuses the θ step's BPR pass
    (ROADMAP item 11) changes the expected 3 to 2."""

    @pytest.fixture(scope="class", params=[(120, 200), (600, 400)], ids=["120x200", "600x400"])
    def split(self, request):
        users, items = request.param
        return make_split(num_users=users, num_items=items, seed=3)

    @pytest.mark.parametrize("mode,granularity,every,lambda_batch,ratio", [
        ("fix", "full", 1, 1024, 1.0), ("opt", "full", 1, 1024, 3.0),
        ("opt", "user", 1, 1024, 3.0), ("opt", "full", 3, 1024, None),
        ("opt", "user", 1, 256, 1.5),
    ])
    def test_scored_triplets_and_written_rows(self, split, monkeypatch, mode, granularity,
                                               every, lambda_batch, ratio):
        from adaptreg import adaptive
        draws, real = [], adaptive.sample_triplets

        def recorded(split, rng, size, partition):
            draws.append((partition, real(split, rng, size, partition)))
            return draws[-1][1]

        monkeypatch.setattr(adaptive, "sample_triplets", recorded)
        cfg = quick_cfg(mode=mode, granularity=granularity, epochs=2)
        cfg.training.batch_size = 1024
        cfg.training.lambda_batch_size = lambda_batch
        cfg.regularization.every = every
        res = train_model(split, cfg, eval_fn=lambda e: 0.5)
        ph = res.phases

        assert set(ph) == set(PHASE_SECONDS + PHASE_COUNTS)
        assert all(math.isfinite(v) and v >= 0 for v in ph.values())
        assert all(set(row) <= {"epoch", "step", "train_loss", "val_auc"} for row in res.history)
        steps = res.history[-1]["step"]
        assert ph["steps"] == steps and ph["triplets"] == steps * 1024
        lambda_steps = 0 if mode == "fix" else len(range(0, steps, every))
        assert ph["lambda_steps"] == lambda_steps
        assert ph["lambda_triplets"] == lambda_steps * 2 * lambda_batch
        if ratio is not None:
            assert (ph["triplets"] + ph["lambda_triplets"]) / ph["triplets"] == ratio
        if mode == "fix":
            assert ph["lambda"] == 0.0
        # a θ batch is a train draw that no validation draw follows
        theta = [b for n, (partition, b) in enumerate(draws) if partition == "train"
                 and (n + 1 == len(draws) or draws[n + 1][0] != "validation")]
        assert len(theta) == steps
        touched = sum(len(np.unique(b.users)) + len(np.unique(np.concatenate([b.pos, b.neg])))
                      for b in theta)
        assert 0 < ph["rows"] <= touched

    @pytest.mark.parametrize("mode,granularity,adam_on_lambda", [
        ("fix", "full", False), ("opt", "full", False), ("opt", "dim", False),
        ("opt", "user", False), ("opt", "full", True),
    ])
    def test_lambda_entries_count_the_hypergradient(self, split, monkeypatch, mode,
                                                    granularity, adam_on_lambda):
        # the entries each λ step's hypergradient reaches, recorded where
        # sparse_hypergradient returns them, before any λ-Adam scatter
        from adaptreg import adaptive
        lengths, real = [], adaptive.sparse_hypergradient

        def recorded(*args):
            entries, values = real(*args)
            lengths.append(len(entries))
            return entries, values

        monkeypatch.setattr(adaptive, "sparse_hypergradient", recorded)
        cfg = quick_cfg(mode=mode, granularity=granularity, epochs=2)
        cfg.regularization.adam_on_lambda = adam_on_lambda
        ph = train_model(split, cfg, eval_fn=lambda e: 0.5).phases
        assert len(lengths) == ph["lambda_steps"] == (0 if mode == "fix" else ph["steps"])
        assert ph["lambda_entries"] == sum(lengths)
        assert (ph["lambda_entries"] > 0) == (mode != "fix")

    @pytest.mark.parametrize("mode,granularity,adam_on_lambda", [
        ("fix", "full", False), ("opt", "full", False), ("opt", "dim", False),
        ("opt", "full", True),
    ])
    def test_clipped_and_zeroed_counts(self, split, monkeypatch, mode, granularity,
                                       adam_on_lambda):
        # each λ step's hypergradient and the coefficients before it, recorded
        # where sparse_hypergradient returns them, and λ-Adam's directions;
        # the counts are taken again from them. A clip of 1e-3 lies inside
        # the range of |G| on both splits
        from adaptreg import adaptive
        steps, directions = [], []
        real, real_direction = adaptive.sparse_hypergradient, adaptive.LambdaAdam.direction

        def recorded(lam, *args):
            entries, values = real(lam, *args)
            steps.append((lam.values.copy(), entries, values))
            return entries, values

        def direction(self, g):
            directions.append(real_direction(self, g))
            return directions[-1]

        monkeypatch.setattr(adaptive, "sparse_hypergradient", recorded)
        monkeypatch.setattr(adaptive.LambdaAdam, "direction", direction)
        cfg = quick_cfg(mode=mode, granularity=granularity, epochs=2)
        cfg.regularization.adam_on_lambda = adam_on_lambda
        cfg.regularization.clip = clip = 1e-3
        res = train_model(split, cfg, eval_fn=lambda e: 0.5)
        assert len(directions) == (len(steps) if adam_on_lambda else 0)
        clipped = zeroed = 0
        afters = [before for before, _, _ in steps[1:]] + [res.lam.values]
        for n, ((before, entries, G), after) in enumerate(zip(steps, afters)):
            clipped += np.count_nonzero(np.abs(G) > clip)
            if adam_on_lambda:
                entries, G = slice(None), directions[n]
            unprojected = before[entries] - cfg.regularization.step_size * np.clip(G, -clip, clip)
            zeroed += np.count_nonzero(unprojected < 0)
            assert same_bytes(np.maximum(unprojected, 0.0), after[entries])
        ph = res.phases
        assert (ph["lambda_clipped"], ph["lambda_zeroed"]) == (clipped, zeroed)
        assert (0 < clipped < ph["lambda_entries"]) == (mode != "fix")
        assert (zeroed > 0) == (mode != "fix")
