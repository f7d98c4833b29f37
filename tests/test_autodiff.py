import gc
import weakref

import numpy as np
import pytest

from lidarcal import autodiff as ad
from lidarcal.autodiff import (
    Tensor,
    concat,
    conv1d_circular,
    fully_connected,
    grad,
    grad_of_grad_norm,
    l1_norm,
    l2_norm,
    leaky_relu,
    log,
    minimum,
    sigmoid,
    softmax,
    squared_difference,
    tabs,
    variance,
)
from lidarcal.nets import GeneratorNet


def finite_diff(f, arrays, wrt, h=1e-4):
    """Central finite differences of scalar f(arrays) w.r.t. arrays[wrt]."""
    base = [a.copy() for a in arrays]
    out = np.zeros_like(base[wrt])
    it = np.nditer(base[wrt], flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[wrt][ix] += h
        minus[wrt][ix] -= h
        out[ix] = (f(plus) - f(minus)) / (2 * h)
    return out


def check_grads(build, arrays, rel=1e-4, h=1e-4, floor=1e-7):
    """build(list of Tensors) -> scalar Tensor; checks grads vs central differences."""
    tensors = [Tensor(a) for a in arrays]
    out = build(tensors)
    gs = grad(out, tensors)
    for i in range(len(arrays)):
        fd = finite_diff(lambda arrs: build([Tensor(a) for a in arrs]).item(), arrays, i, h=h)
        np.testing.assert_allclose(gs[i].data, fd, rtol=rel, atol=max(floor, rel * np.abs(fd).max() if fd.size else floor))


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_softmax_constant_is_uniform(self):
        out = softmax(Tensor(np.full(8, 3.0)))
        np.testing.assert_allclose(out.data, np.full(8, 1 / 8))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 16)) * 30)
        s = softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_l2_norm_gradient_hand(self):
        x = Tensor(np.array([3.0, 4.0]))
        (g,) = grad(l2_norm(x), [x])
        np.testing.assert_allclose(g.data, [0.6, 0.8])

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 3.0]))
        np.testing.assert_allclose(leaky_relu(x).data, [-0.2, 0.0, 3.0])

    def test_leaky_relu_kink_uses_negative_slope(self):
        x = Tensor(np.array([0.0]))
        (g,) = grad(leaky_relu(x).sum(), [x])
        assert g.data[0] == 0.2

    def test_variance_single_element(self):
        assert variance(Tensor(np.array([7.0]))).item() == 0.0

    def test_squared_difference(self):
        out = squared_difference(Tensor(np.array([1.0, 5.0])), Tensor(np.array([4.0, 3.0])))
        np.testing.assert_allclose(out.data, [9.0, 4.0])


class TestFirstOrderGradients:
    def test_fully_connected_identity(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        y = fully_connected(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_fully_connected_hand(self):
        y = fully_connected(Tensor([[1.0, 1.0]]), Tensor([[1.0, 2.0]]), Tensor([3.0]))
        assert y.data[0, 0] == 6.0

    def test_fully_connected_shape_mismatch(self):
        with pytest.raises(ValueError):
            fully_connected(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 1, 12)))
        k = np.zeros((1, 1, 7))
        k[0, 0, 3] = 1.0
        y = conv1d_circular(x, Tensor(k), Tensor(np.zeros(1)))
        np.testing.assert_allclose(y.data, x.data)

    def test_conv_one_hot_wraps_kernel(self):
        x = np.zeros((1, 1, 10))
        x[0, 0, 0] = 1.0
        k = np.arange(7.0).reshape(1, 1, 7)
        y = conv1d_circular(Tensor(x), Tensor(k)).data[0, 0]
        # y[i] = sum_k k[t] * x[(i+t-3) mod L] -> nonzero where (i+t-3)%10 == 0
        expected = np.zeros(10)
        for t in range(7):
            expected[(3 - t) % 10] += k[0, 0, t]
        np.testing.assert_allclose(y, expected)

    def test_conv_shape_errors(self):
        with pytest.raises(ValueError):
            conv1d_circular(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 1, 7))))
        with pytest.raises(ValueError):
            conv1d_circular(Tensor(np.zeros((1, 1, 8))), Tensor(np.zeros((1, 1, 6))))

    @pytest.mark.parametrize("seed", range(6))
    def test_conv_gradients_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        b, cin, cout, L = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3), rng.integers(8, 20)
        x = rng.normal(size=(b, cin, L))
        k = rng.normal(size=(cout, cin, 7))
        bias = rng.normal(size=(cout,))
        w = rng.normal(size=(b, cout, L))  # random projection to a scalar

        def build(ts):
            return (conv1d_circular(ts[0], ts[1], ts[2]) * Tensor(w)).sum()

        check_grads(build, [x, k, bias])

    @pytest.mark.parametrize("seed", range(4))
    def test_fc_gradients_finite_difference(self, seed):
        rng = np.random.default_rng(100 + seed)
        b, n, m = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 6)
        x, W, bias = rng.normal(size=(b, n)), rng.normal(size=(m, n)), rng.normal(size=(m,))
        w = rng.normal(size=(b, m))

        def build(ts):
            return (fully_connected(ts[0], ts[1], ts[2]) * Tensor(w)).sum()

        check_grads(build, [x, W, bias])

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_loss_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=(3, 8))
        y = rng.normal(size=(3, 8))

        def build(ts):
            s = softmax(ts[0], axis=-1)
            v = variance(ts[1], axis=0)
            return (s * ts[1]).sum() + v.sum() + l1_norm(ts[0] - ts[1]) * 0.5 \
                + l2_norm(ts[1], eps=1e-12) + log(tabs(ts[0]).sum() + 1.0)

        check_grads(build, [x, y], rel=2e-4)

    def test_minimum_and_sigmoid_grads(self):
        rng = np.random.default_rng(300)
        x = rng.normal(size=(6,))
        y = rng.normal(size=(6,))

        def build(ts):
            return (minimum(sigmoid(ts[0]), sigmoid(ts[1])) * Tensor(np.arange(6.0))).sum()

        check_grads(build, [x, y])

    def test_concat_grads(self):
        rng = np.random.default_rng(301)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        w = rng.normal(size=(2, 8))

        def build(ts):
            return (concat([ts[0], ts[1]], axis=1) * Tensor(w)).sum()

        check_grads(build, [a, b])

    def test_unreachable_input_gets_zero(self):
        x, y = Tensor(np.ones(3)), Tensor(np.ones(4))
        gs = grad(x.sum(), [x, y])
        np.testing.assert_array_equal(gs[1].data, np.zeros(4))

    def test_grad_requires_scalar(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            grad(x, [x])


class TestSecondOrder:
    def test_linear_discriminator_closed_form(self):
        # D(x) = w.x: ||grad_x D|| = ||w||; d||w||/dw = w/||w||
        rng = np.random.default_rng(400)
        w = Tensor(rng.normal(size=(4,)))
        x = Tensor(rng.normal(size=(4,)))
        out = (w * x).sum()
        (gw,) = grad_of_grad_norm(out, x, [w])
        np.testing.assert_allclose(gw.data, w.data / np.linalg.norm(w.data), rtol=1e-9)

    def test_constant_discriminator_zero_gradient(self):
        w = Tensor(np.array([2.0]))
        x = Tensor(np.array([1.0, 2.0]))
        out = (w * Tensor(np.array([5.0]))).sum()  # independent of x
        (gw,) = grad_of_grad_norm(out, x, [w])
        np.testing.assert_array_equal(gw.data, np.zeros(1))

    def test_gradient_penalty_second_order_finite_difference(self):
        # penalty(weights) = (||grad_x net(x)|| - 1)^2 on a small conv+fc net,
        # checked against central differences of the penalty scalar itself
        rng = np.random.default_rng(401)
        L = 12
        x0 = rng.normal(size=(1, 1, L))
        k1 = rng.normal(size=(2, 1, 7)) * 0.5
        k2 = rng.normal(size=(1, 2, 7)) * 0.5
        W = rng.normal(size=(1, L)) * 0.5

        def penalty(arrs):
            k1t, k2t, Wt = Tensor(arrs[0]), Tensor(arrs[1]), Tensor(arrs[2])
            x = Tensor(x0)
            h = leaky_relu(conv1d_circular(x, k1t))
            h = leaky_relu(conv1d_circular(h, k2t))
            out = fully_connected(h.reshape(1, L), Wt).sum()
            (gx,) = grad(out, [x], create_graph=True)
            return (l2_norm(gx, eps=1e-12) - 1.0) ** 2

        weights = [k1t := Tensor(k1), k2t := Tensor(k2), Wt := Tensor(W)]
        x = Tensor(x0)
        h = leaky_relu(conv1d_circular(x, k1t))
        h = leaky_relu(conv1d_circular(h, k2t))
        out = fully_connected(h.reshape(1, L), Wt).sum()
        (gx,) = grad(out, [x], create_graph=True)
        pen = (l2_norm(gx, eps=1e-12) - 1.0) ** 2
        gs = grad(pen, weights)

        for i, arr in enumerate([k1, k2, W]):
            fd = finite_diff(lambda arrs: penalty(arrs).item(), [k1, k2, W], i, h=1e-4)
            np.testing.assert_allclose(gs[i].data, fd, rtol=1e-3, atol=1e-7)

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_small_net_gp_check(self, seed):
        rng = np.random.default_rng(500 + seed)
        L = rng.integers(8, 17)
        b = rng.integers(1, 3)
        x0 = rng.normal(size=(b, 1, L))
        arrays = [rng.normal(size=(2, 1, 7)) * 0.4,
                  rng.normal(size=(2,)),
                  rng.normal(size=(1, 2 * L)) * 0.4]

        def penalty(arrs):
            x = Tensor(x0)
            h = leaky_relu(conv1d_circular(x, Tensor(arrs[0]), Tensor(arrs[1])))
            out = fully_connected(h.reshape(b, 2 * L), Tensor(arrs[2])).sum()
            (gx,) = grad(out, [x], create_graph=True)
            return (l2_norm(gx, eps=1e-12) - 1.0) ** 2

        ts = [Tensor(a) for a in arrays]
        x = Tensor(x0)
        h = leaky_relu(conv1d_circular(x, ts[0], ts[1]))
        out = fully_connected(h.reshape(b, 2 * L), ts[2]).sum()
        (gx,) = grad(out, [x], create_graph=True)
        pen = (l2_norm(gx, eps=1e-12) - 1.0) ** 2
        gs = grad(pen, ts)
        for i in range(3):
            fd = finite_diff(lambda arrs: penalty(arrs).item(), arrays, i, h=1e-4)
            np.testing.assert_allclose(gs[i].data, fd, rtol=1e-3, atol=1e-6)


class TestRecording:
    def test_no_record_disables_parents(self):
        with ad.no_record():
            y = Tensor(np.ones(3)) * 2.0
        assert y.parents == ()

    def test_plain_grad_output_not_differentiable(self):
        x = Tensor(np.array([2.0]))
        (g,) = grad((x * x).sum(), [x])
        assert g.parents == ()  # create_graph=False

    def test_create_graph_keeps_parents(self):
        x = Tensor(np.array([2.0]))
        (g,) = grad((x * x * x).sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        assert gg.data[0] == pytest.approx(12.0)  # d2/dx2 x^3 = 6x


def _raising_vjp(g):
    raise AssertionError("vjp called on a branch that reaches no requested input")


class TestPruning:
    def test_branch_reaching_no_input_is_never_differentiated(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        frozen = Tensor(np.full(3, 2.0), [(Tensor(np.zeros(3)), _raising_vjp)])
        out = (sigmoid(x) * frozen).sum() + frozen.sum()
        (gx,) = grad(out, [x])
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(gx.data, 2.0 * s * (1.0 - s), rtol=1e-12)

    def test_input_gradient_computes_no_kernel_gradient(self, monkeypatch):
        G = GeneratorNet(16, z_dim=4, seed=3)
        logits = Tensor(np.zeros(8))
        C = ad.broadcast_to(sigmoid(logits).reshape(1, 8), (3, 8))
        loss = G.forward(C, Tensor(np.ones((3, 4)))).sum()
        monkeypatch.setattr(ad, "conv1d_kernel_grad", lambda *a: _raising_vjp(None))
        (g,) = grad(loss, [logits])
        assert g.shape == (8,) and np.all(np.isfinite(g.data))


class TestGraphLifetime:
    def test_dropped_iteration_graph_is_freed_without_the_cyclic_collector(self, monkeypatch):
        G = GeneratorNet(16, z_dim=4, seed=4)
        logits = Tensor(np.linspace(-1.0, 1.0, 8))
        made = []
        init = Tensor.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        gc.disable()
        try:
            monkeypatch.setattr(Tensor, "__init__", tracking_init)
            C = ad.broadcast_to(sigmoid(logits).reshape(1, 8), (5, 8))
            fake = G.forward(C, Tensor(np.ones((5, 4))))
            loss = (softmax(fake, axis=1) * Tensor(np.arange(16.0))).sum()
            (g,) = grad(loss, [logits])
            monkeypatch.undo()
            del C, fake, loss
            alive = [r() for r in made if r() is not None and r() is not g]
        finally:
            gc.enable()
        assert len(made) > 100
        assert alive == []

    def test_self_referencing_vjps_stay_correct_to_second_order(self):
        x = Tensor(np.array([-1.5, 0.0, 0.7]))
        (gs,) = grad(sigmoid(x).sum(), [x], create_graph=True)
        (gg,) = grad(gs.sum(), [x])
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(gg.data, s * (1.0 - s) * (1.0 - 2.0 * s), rtol=1e-12)
        (ge,) = grad(ad.exp(x).sum(), [x], create_graph=True)
        (gge,) = grad(ge.sum(), [x])
        np.testing.assert_allclose(gge.data, np.exp(x.data), rtol=1e-12)
