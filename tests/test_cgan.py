"""Tests for the generator/critic nets, loss terms, and the training loop."""

import numpy as np
import pytest

import lidarcal.autodiff as ad
from lidarcal.autodiff import Tensor
from lidarcal.losses import (GP_NORM_EPS, curriculum_alpha, d_loss, d_loss_from_fake,
                             g_loss, gradient_penalty, moment_losses)
from lidarcal.nets import DiscriminatorNet, GeneratorNet, generator_forward, set_weights
from lidarcal.oracle import OracleConfig, generate_dataset
from lidarcal.signal import CameraConstants
from lidarcal.train import (Adam, Checkpoint, TrainConfig, build_nets, make_checkpoint,
                            sample_generator, stability_rank, train)


def finite_diff(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def small_consts(L=16):
    return CameraConstants(L=L)


def small_dataset(L=16, groups=4, reps=8, seed=0):
    consts = small_consts(L)
    # distance on the argmax grid for this L
    dist = 0.5 * (10 * consts.c / consts.f - consts.d)
    cfg = OracleConfig(consts=consts, distance_mm=dist, base_seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 99))
    alpha = (rng.random(L) < 0.5).astype(np.float64)
    if alpha.sum() in (0, L):
        alpha[0] = 1.0 - alpha[0]
    params = rng.random((groups, 8))
    return generate_dataset(alpha, params, reps, cfg)


# ---------------------------------------------------------------- nets


def test_generator_forward_shape_and_range():
    G = GeneratorNet(16, z_dim=4, seed=3)
    out = G.forward(Tensor(np.random.rand(5, 8)), Tensor(np.random.randn(5, 4)))
    assert out.shape == (5, 16)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_discriminator_forward_shape():
    D = DiscriminatorNet(16, seed=3)
    out = D.forward(Tensor(np.random.rand(5, 16)))
    assert out.shape == (5, 9)


def test_net_init_deterministic():
    for cls in (lambda: GeneratorNet(16, z_dim=4, seed=7), lambda: DiscriminatorNet(16, seed=7)):
        a, b = cls(), cls()
        for (na, ta), (nb, tb) in zip(a.weights(), b.weights()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)


def test_different_seeds_differ():
    a = GeneratorNet(16, z_dim=4, seed=1)
    b = GeneratorNet(16, z_dim=4, seed=2)
    assert any(not np.array_equal(ta.data, tb.data)
               for (_, ta), (_, tb) in zip(a.weights(), b.weights()))


def test_zero_weights_give_half_output():
    G = GeneratorNet(16, z_dim=4, seed=0)
    set_weights(G, {n: np.zeros_like(t.data) for n, t in G.weights()})
    out = generator_forward(G, np.full(8, 0.5), np.zeros(4))
    np.testing.assert_allclose(out.data, 0.5, atol=0)


def test_set_weights_shape_mismatch():
    G = GeneratorNet(16, z_dim=4, seed=0)
    bad = {n: t.data.copy() for n, t in G.weights()}
    bad["fc_b"] = np.zeros(3)
    with pytest.raises(ValueError):
        set_weights(G, bad)


def test_set_weights_names_missing_block():
    G = GeneratorNet(16, z_dim=4, seed=0)
    arrays = {n: t.data.copy() for n, t in G.weights() if n != "fc_b"}
    with pytest.raises(ValueError, match="fc_b"):
        set_weights(G, arrays)


def test_generator_input_validation():
    G = GeneratorNet(16, z_dim=4, seed=0)
    with pytest.raises(ValueError):
        G.forward(Tensor(np.zeros((2, 7))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        G.forward(Tensor(np.zeros((2, 8))), Tensor(np.zeros((3, 4))))


def test_generator_grad_wrt_condition():
    """FD check of d mean(G(C,z)) / dC through the whole net."""
    G = GeneratorNet(8, z_dim=2, seed=5)
    z = np.random.Generator(np.random.PCG64(1)).normal(size=(3, 2))
    C0 = np.random.Generator(np.random.PCG64(2)).random((3, 8))

    def f(c):
        with ad.no_record():
            return G.forward(Tensor(c), Tensor(z)).data.mean()

    Ct = Tensor(C0.copy())
    out = ad.tmean(G.forward(Ct, Tensor(z)))
    (g,) = ad.grad(out, [Ct])
    fd = finite_diff(f, C0)
    np.testing.assert_allclose(g.data, fd, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------- curriculum


def test_curriculum_alpha_values():
    assert curriculum_alpha(0, 2000, 10000.0) == 0.0
    assert curriculum_alpha(1500, 2000, 10000.0) == 0.0
    assert curriculum_alpha(2000, 2000, 10000.0) == 0.0
    assert curriculum_alpha(2001, 2000, 10000.0) == 2001 / 10000.0
    assert curriculum_alpha(5000, 2000, 10000.0) == 0.5
    assert curriculum_alpha(20000, 2000, 10000.0) == 1.0
    with pytest.raises(ValueError):
        curriculum_alpha(1, 0, 0.0)


# ---------------------------------------------------------------- losses, hand values


class LinearCritic:
    """score(x) = a * sum(x); predicted params = fixed bias vector."""

    def __init__(self, L, a, bias_params):
        W = np.zeros((9, L))
        W[0] = a
        b = np.zeros(9)
        b[1:] = bias_params
        self.L = L
        self.W, self.b = Tensor(W), Tensor(b)

    def forward(self, x):
        return ad.fully_connected(x, self.W, self.b)


class ConstGenerator:
    """Ignores its inputs; always emits the same batch of codes."""

    def __init__(self, out, z_dim=4):
        self.out = np.asarray(out, dtype=np.float64)
        self.L = self.out.shape[1]
        self.z_dim = z_dim

    def forward(self, C, z):
        return Tensor(self.out.copy())


def test_gradient_penalty_linear_critic_hand_value():
    L, a = 16, 0.3
    D = LinearCritic(L, a, np.zeros(8))
    x = Tensor(np.random.Generator(np.random.PCG64(0)).random((6, L)))
    gp = gradient_penalty(D, x)
    expect = (np.sqrt(a * a * L + GP_NORM_EPS) - 1.0) ** 2
    assert abs(gp.item() - expect) < 1e-12


def test_d_loss_hand_value():
    L, a = 8, 0.25
    bp = np.linspace(0.1, 0.8, 8)
    D = LinearCritic(L, a, bp)
    rng = np.random.Generator(np.random.PCG64(42))
    real = rng.random((5, L))
    fake = rng.random((5, L))
    C = rng.random((5, 8))
    lam_gp, lam_p = 10.0, 1.5
    loss = d_loss_from_fake(D, Tensor(real), Tensor(C), Tensor(fake), lam_gp, lam_p)
    expect = (a * (fake.sum(axis=1).mean() - real.sum(axis=1).mean())
              + lam_gp * (np.sqrt(a * a * L + GP_NORM_EPS) - 1.0) ** 2
              + lam_p * np.sqrt(((bp[None, :] - C) ** 2).sum(axis=1) + GP_NORM_EPS).mean())
    assert abs(loss.item() - expect) < 1e-12


def test_g_loss_hand_value_alpha_active():
    L, a = 8, 0.25
    bp = np.linspace(0.2, 0.9, 8)
    D = LinearCritic(L, a, bp)
    rng = np.random.Generator(np.random.PCG64(7))
    out = rng.random((6, L))
    G = ConstGenerator(out)
    real = rng.random((6, L))
    C = rng.random((6, 8))
    cfg = TrainConfig(lambda_mean=10.0, lambda_variance=10.0, lambda_parameters=1.5,
                      curriculum_threshold=100, curriculum_constant=1000.0)
    it = 400  # alpha = 0.4
    loss = g_loss(D, G, real, C, rng.normal(size=(6, 4)), it, cfg)
    alpha = 0.4
    mean_term = np.abs(out.mean(axis=0) - real.mean(axis=0)).sum()
    var_term = np.abs(out.var(axis=0) - real.var(axis=0)).sum()
    expect = (10.0 * mean_term + 10.0 * var_term
              + alpha * (-a * out.sum(axis=1).mean()
                         + 1.5 * np.sqrt(((bp[None, :] - C) ** 2).sum(axis=1)
                                         + GP_NORM_EPS).mean()))
    assert abs(loss.item() - expect) < 1e-12


def test_g_loss_zero_alpha_skips_critic():
    class Exploder:
        def forward(self, x):
            raise AssertionError("critic must not be evaluated while alpha == 0")

    rng = np.random.Generator(np.random.PCG64(7))
    out = rng.random((4, 8))
    G = ConstGenerator(out)
    real = rng.random((4, 8))
    cfg = TrainConfig(curriculum_threshold=1000, curriculum_constant=5000.0)
    loss = g_loss(Exploder(), G, real, rng.random((4, 8)), rng.normal(size=(4, 4)), 500, cfg)
    expect = (cfg.lambda_mean * np.abs(out.mean(axis=0) - real.mean(axis=0)).sum()
              + cfg.lambda_variance * np.abs(out.var(axis=0) - real.var(axis=0)).sum())
    assert abs(loss.item() - expect) < 1e-12


def test_zero_alpha_gives_zero_adversarial_gradient():
    """While alpha == 0, the critic's weights get exactly zero gradient from g_loss."""
    G, D = build_nets(16, TrainConfig(z_dim=4))
    rng = np.random.Generator(np.random.PCG64(3))
    real = rng.random((5, 16))
    C = rng.random((5, 8))
    z = rng.normal(size=(5, 4))
    cfg = TrainConfig(z_dim=4, curriculum_threshold=100, curriculum_constant=1000.0)
    loss = g_loss(D, G, real, C, z, 50, cfg)
    for g in ad.grad(loss, D.tensors()):
        np.testing.assert_array_equal(g.data, 0.0)
    # and the generator gradient equals the moments-only gradient
    g_adv = ad.grad(loss, G.tensors())
    fake = G.forward(Tensor(C), Tensor(z))
    mt, vt = moment_losses(fake, real.mean(axis=0), real.var(axis=0))
    g_mom = ad.grad(cfg.lambda_mean * mt + cfg.lambda_variance * vt, G.tensors())
    for ga, gm in zip(g_adv, g_mom):
        np.testing.assert_array_equal(ga.data, gm.data)


def test_d_loss_gradient_direction():
    """One Adam step on the critic loss must lower the critic loss (same batch)."""
    G, D = build_nets(16, TrainConfig(z_dim=4))
    rng = np.random.Generator(np.random.PCG64(11))
    real = rng.random((8, 16))
    C = rng.random((8, 8))
    z = rng.normal(size=(8, 4))
    cfg = TrainConfig(z_dim=4)
    before = d_loss(D, G, real, C, z, cfg)
    grads = ad.grad(before, D.tensors())
    for t, g in zip(D.tensors(), grads):
        t.data -= 1e-4 * g.data
    after = d_loss(D, G, real, C, z, cfg)
    assert after.item() < before.item()


def test_d_loss_interpolates_variant_runs():
    G, D = build_nets(8, TrainConfig(z_dim=4))
    rng = np.random.Generator(np.random.PCG64(5))
    cfg = TrainConfig(z_dim=4, gp_on_interpolates=True)
    loss = d_loss(D, G, rng.random((4, 8)), rng.random((4, 8)),
                  rng.normal(size=(4, 4)), cfg,
                  rng=np.random.Generator(np.random.PCG64(1)))
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------- training loop


def test_stability_rank_orders_by_variance():
    ds = small_dataset()
    order = stability_rank(ds)
    scores = ds.batches.var(axis=1).mean(axis=1)
    assert list(order) == sorted(range(ds.n_groups), key=lambda g: (scores[g], g))


def test_train_deterministic_and_resume_bit_exact():
    ds = small_dataset()
    cfg6 = TrainConfig(z_dim=4, batch_size=8, critic_iters=1, iterations=6, seed=3)
    ck_a, rec_a = train(ds, cfg6)
    ck_b, rec_b = train(ds, cfg6)
    for n in ck_a.g_weights:
        np.testing.assert_array_equal(ck_a.g_weights[n], ck_b.g_weights[n])
    for n in ck_a.d_weights:
        np.testing.assert_array_equal(ck_a.d_weights[n], ck_b.d_weights[n])
    assert [r.g_loss for r in rec_a] == [r.g_loss for r in rec_b]

    cfg3 = TrainConfig(z_dim=4, batch_size=8, critic_iters=1, iterations=3, seed=3)
    ck_half, _ = train(ds, cfg3)
    ck_resumed, rec_resumed = train(ds, cfg6, resume=ck_half)
    assert len(rec_resumed) == 3
    for n in ck_a.g_weights:
        np.testing.assert_array_equal(ck_a.g_weights[n], ck_resumed.g_weights[n])
    for n in ck_a.d_weights:
        np.testing.assert_array_equal(ck_a.d_weights[n], ck_resumed.d_weights[n])
    assert ck_resumed.adam_g["t"] == ck_a.adam_g["t"]


def test_train_resume_rejects_wrong_dataset():
    ds = small_dataset(seed=0)
    other = small_dataset(seed=1)
    cfg = TrainConfig(z_dim=4, batch_size=8, critic_iters=1, iterations=2, seed=3)
    ck, _ = train(ds, cfg)
    with pytest.raises(ValueError):
        train(other, cfg, resume=ck)


def test_train_rejects_single_rep_groups():
    ds = small_dataset(reps=1)
    with pytest.raises(ValueError):
        train(ds, TrainConfig(z_dim=4, iterations=1))


def test_moment_terms_decrease_in_smoke_run():
    """With alpha pinned to 0, the moment losses fall over a short run."""
    ds = small_dataset(groups=2, reps=16, seed=4)
    cfg = TrainConfig(z_dim=4, batch_size=16, critic_iters=1, iterations=120,
                      curriculum_threshold=10_000, lr=2e-3, seed=1)
    _, records = train(ds, cfg)
    head = np.mean([r.mean_term + r.var_term for r in records[:20]])
    tail = np.mean([r.mean_term + r.var_term for r in records[-20:]])
    assert tail < head


def test_sample_generator_deterministic():
    G, _ = build_nets(16, TrainConfig(z_dim=4))
    p = np.full(8, 0.5)
    a = sample_generator(G, p, 4, seed=9)
    b = sample_generator(G, p, 4, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_generator(G, p, 4, seed=10)
    assert not np.array_equal(a, c)


def test_adam_state_roundtrip():
    t = [Tensor(np.random.rand(3, 2)), Tensor(np.random.rand(4))]
    opt = Adam(t, 1e-3, 0.5, 0.9)
    grads = [Tensor(np.random.randn(3, 2)), Tensor(np.random.randn(4))]
    opt.step(grads)
    st = opt.state()
    opt2 = Adam([Tensor(x.data.copy()) for x in t], 1e-3, 0.5, 0.9)
    opt2.load_state(st)
    opt.step(grads)
    opt2.step(grads)
    for a, b in zip(opt.tensors, opt2.tensors):
        np.testing.assert_array_equal(a.data, b.data)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_gp=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(curriculum_constant=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
