import numpy as np
import pytest

from adaptreg import _kernels


pytestmark = pytest.mark.skipif(
    "numba" not in _kernels.implementations(),
    reason="numba backend unavailable; nothing to compare against")


def triplet_fixture(seed, size=256, U=12, I=20, K=6):
    rng = np.random.default_rng(seed)
    uf = rng.normal(0, 0.5, (U, K))
    itf = rng.normal(0, 0.5, (I, K))
    users = rng.integers(0, U, size)
    pos = rng.integers(0, I, size)
    neg = rng.integers(0, I, size)
    return rng, uf, itf, users, pos, neg


def inverse_maps(users, pos, neg):
    urows, u_inv = np.unique(users, return_inverse=True)
    irows, inv = np.unique(np.concatenate([pos, neg]), return_inverse=True)
    return urows, irows, u_inv, inv[:len(pos)], inv[len(pos):]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bpr_loss_backends_agree(seed):
    _, uf, itf, users, pos, neg = triplet_fixture(seed)
    impls = _kernels.implementations()
    a = impls["numpy"]["bpr_loss"](uf, itf, users, pos, neg)
    b = impls["numba"]["bpr_loss"](uf, itf, users, pos, neg)
    # sum order differs between paths, so exact equality is not expected
    assert a == pytest.approx(b, rel=1e-12)


def test_bpr_loss_extreme_margins_agree():
    uf = np.array([[60.0], [-60.0]])
    itf = np.array([[1.0], [0.0]])
    users = np.array([0, 1])
    pos = np.array([0, 0])
    neg = np.array([1, 1])
    impls = _kernels.implementations()
    a = impls["numpy"]["bpr_loss"](uf, itf, users, pos, neg)
    b = impls["numba"]["bpr_loss"](uf, itf, users, pos, neg)
    assert np.isfinite(a)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bpr_grad_backends_agree(seed):
    _, uf, itf, users, pos, neg = triplet_fixture(seed)
    urows, irows, u_inv, p_inv, n_inv = inverse_maps(users, pos, neg)
    impls = _kernels.implementations()
    outs = []
    for name in ("numpy", "numba"):
        gu = np.zeros((len(urows), uf.shape[1]))
        gi = np.zeros((len(irows), uf.shape[1]))
        loss = impls[name]["bpr_grad"](uf, itf, users, pos, neg, u_inv, p_inv, n_inv, gu, gi)
        outs.append((gu, gi, loss))
    (gu_np, gi_np, loss_np), (gu_nb, gi_nb, loss_nb) = outs
    assert np.allclose(gu_np, gu_nb, rtol=1e-12, atol=1e-14)
    assert np.allclose(gi_np, gi_nb, rtol=1e-12, atol=1e-14)
    assert loss_np == pytest.approx(loss_nb, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_sgd_step_backends_bit_identical(seed):
    rng, uf, _, _, _, _ = triplet_fixture(seed)
    rows = np.unique(rng.integers(0, uf.shape[0], 8))
    g = rng.normal(0, 1, (len(rows), uf.shape[1]))
    impls = _kernels.implementations()
    a = uf.copy()
    b = uf.copy()
    impls["numpy"]["sgd_step"](a, rows, g, 0.05)
    impls["numba"]["sgd_step"](b, rows, g, 0.05)
    assert (a == b).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_adam_step_backends_bit_identical(seed):
    rng, uf, _, _, _, _ = triplet_fixture(seed)
    rows = np.unique(rng.integers(0, uf.shape[0], 8))
    g = rng.normal(0, 1, (len(rows), uf.shape[1]))
    impls = _kernels.implementations()
    states = []
    c = 0.3162277660168379
    for name in ("numpy", "numba"):
        p = uf.copy()
        s = np.zeros_like(uf)
        r = np.zeros_like(uf)
        for _ in range(3):
            impls[name]["adam_step"](p, s, r, rows, g, 0.01, c, 0.9, 0.999, 1e-8)
        states.append((p, s, r))
    for a, b in zip(*states):
        assert (a == b).all()


def test_scatter_add_backends_agree_with_duplicates():
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 10, 500)
    vals = rng.normal(0, 1, 500)
    impls = _kernels.implementations()
    a = np.zeros(10)
    b = np.zeros(10)
    impls["numpy"]["scatter_add"](a, idx, vals)
    impls["numba"]["scatter_add"](b, idx, vals)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
    assert a.sum() == pytest.approx(vals.sum(), rel=1e-12)


def test_env_flag_selects_numpy_backend():
    # a fresh interpreter with the flag set must expose only the numpy path
    import subprocess, sys
    code = ("import adaptreg._kernels as k; "
            "print(k.NUMBA_ENABLED, k.bpr_loss_batch is k._bpr_loss_np)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "ADAPTREG_DISABLE_NUMBA": "1"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False True"
