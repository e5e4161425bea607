import numpy as np
import pytest

from seiznet import gradcheck, layers


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 10, 3))
        w = np.zeros((5, 3, 3))
        for c in range(3):
            w[2, c, c] = 1.0  # centered delta
        out, _ = layers.conv1d_forward(x, w, np.zeros(3))
        assert np.allclose(out, x, atol=1e-12)

    def test_zero_input_gives_bias(self):
        b = np.array([1.5, -2.0])
        out, _ = layers.conv1d_forward(np.zeros((1, 6, 1)), np.ones((3, 1, 2)), b)
        assert np.allclose(out, np.broadcast_to(b, (1, 6, 2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            layers.conv1d_forward(np.zeros((1, 4, 1)), np.zeros((4, 1, 2)), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layers.conv1d_forward(np.zeros((1, 4, 2)), np.zeros((3, 1, 2)), np.zeros(2))

    def test_identity_kernel_backward_passes_grad(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 8, 1))
        w = np.zeros((3, 1, 1))
        w[1, 0, 0] = 1.0
        _, cache = layers.conv1d_forward(x, w, np.zeros(1))
        go = rng.standard_normal((1, 8, 1))
        gx, _, _ = layers.conv1d_backward(cache, go)
        assert np.allclose(gx, go, atol=1e-12)

    def test_zero_grad_out(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 2))
        w = rng.standard_normal((3, 2, 4))
        _, cache = layers.conv1d_forward(x, w, np.zeros(4))
        gx, gw, gb = layers.conv1d_backward(cache, np.zeros((2, 6, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_gradient(self):
        assert gradcheck.check_layer("conv1d") < gradcheck.LAYER_BOUND


class TestBatchNorm:
    def test_train_standardizes(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 20, 3)) * 4.0 + 2.0
        out, _ = layers.batchnorm_forward(x, np.ones(3), np.zeros(3),
                                          np.zeros(3), np.ones(3), "train")
        flat = out.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 1e-9
        assert np.abs(flat.var(axis=0) - 1.0).max() < 1e-4  # eps shifts variance

    def test_gamma_beta_affine(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 10, 2))
        out, _ = layers.batchnorm_forward(x, np.full(2, 2.0), np.full(2, 3.0),
                                          np.zeros(2), np.ones(2), "train")
        flat = out.reshape(-1, 2)
        assert np.allclose(flat.mean(axis=0), 3.0, atol=1e-9)
        assert np.allclose(flat.std(axis=0), 2.0, atol=1e-3)

    def test_infer_identity_stats(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6, 2))
        out, cache = layers.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                              np.zeros(2), np.ones(2), "infer")
        assert cache is None
        assert np.allclose(out, x, atol=1e-5)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 5, 1)) + 10.0
        rm, rv = np.zeros(1), np.ones(1)
        layers.batchnorm_forward(x, np.ones(1), np.zeros(1), rm, rv, "train")
        assert rm[0] == pytest.approx(0.9 * 0.0 + 0.1 * x.mean(), rel=1e-12)
        assert rv[0] == pytest.approx(0.9 * 1.0 + 0.1 * x.var(), rel=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            layers.batchnorm_forward(np.zeros((1, 4, 2)), np.ones(2), np.zeros(2),
                                     np.zeros(2), np.ones(2), "train")

    def test_grad_beta_is_sum(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6, 2))
        _, cache = layers.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                            np.zeros(2), np.ones(2), "train")
        go = rng.standard_normal((4, 6, 2))
        _, _, gbeta = layers.batchnorm_backward(cache, go)
        assert np.allclose(gbeta, go.sum(axis=(0, 1)), atol=1e-12)

    def test_constant_grad_out_gives_zero_grad_x(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6, 2))
        _, cache = layers.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                            np.zeros(2), np.ones(2), "train")
        gx, _, _ = layers.batchnorm_backward(cache, np.full((4, 6, 2), 3.3))
        assert np.abs(gx).max() < 1e-8

    def test_gradient(self):
        assert gradcheck.check_layer("batchnorm") < gradcheck.LAYER_BOUND

    @staticmethod
    def _inputs(shape):
        rng = np.random.default_rng(len(shape))
        c = shape[-1]
        x = rng.standard_normal(shape) * 3.0 + 1.5
        gamma, beta = rng.uniform(0.5, 2.0, c), rng.standard_normal(c)
        rm, rv = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        return rng, x, gamma, beta, rm, rv

    @staticmethod
    def _assert_close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("shape", [(8, 20, 3), (16, 5)])
    def test_train_matches_textbook(self, shape):
        # Ioffe & Szegedy (2015), Algorithm 1 and its backward pass
        rng, x, gamma, beta, rm, rv = self._inputs(shape)
        momentum, eps = 0.9, 1e-5
        axes = tuple(range(x.ndim - 1))
        m = x.size // shape[-1]
        mu = x.mean(axis=axes)
        var = ((x - mu) ** 2).mean(axis=axes)
        xhat = (x - mu) / np.sqrt(var + eps)
        want_rm = momentum * rm + (1 - momentum) * mu
        want_rv = momentum * rv + (1 - momentum) * var

        out, cache = layers.batchnorm_forward(x, gamma, beta, rm, rv, "train",
                                              momentum, eps)
        self._assert_close(out, gamma * xhat + beta)
        self._assert_close(cache[0], xhat)
        self._assert_close(rm, want_rm)
        self._assert_close(rv, want_rv)

        dy = rng.standard_normal(shape)
        dxhat = dy * gamma
        dvar = (dxhat * (x - mu) * -0.5 * (var + eps) ** -1.5).sum(axis=axes)
        dmu = (-dxhat / np.sqrt(var + eps)).sum(axis=axes) \
            + dvar * (-2.0 * (x - mu)).mean(axis=axes)
        want_dx = dxhat / np.sqrt(var + eps) + dvar * 2.0 * (x - mu) / m + dmu / m
        dx, dgamma, dbeta = layers.batchnorm_backward(cache, dy)
        self._assert_close(dx, want_dx)
        self._assert_close(dgamma, (dy * xhat).sum(axis=axes))
        self._assert_close(dbeta, dy.sum(axis=axes))

    @pytest.mark.parametrize("shape", [(8, 20, 3), (16, 5)])
    def test_infer_matches_textbook(self, shape):
        _, x, gamma, beta, rm, rv = self._inputs(shape)
        out, cache = layers.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), "infer")
        assert cache is None
        self._assert_close(out, (x - rm) / np.sqrt(rv + 1e-5) * gamma + beta)


class TestMaxPool:
    def test_basic(self):
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        out, _ = layers.maxpool_forward(x)
        assert out[0, :, 0].tolist() == [3.0, 5.0]

    def test_odd_length_drops_tail(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 89, 4))
        out, _ = layers.maxpool_forward(x)
        assert out.shape == (2, 44, 4)

    def test_backward_routes_to_argmax(self):
        x = np.array([[[1.0], [3.0], [2.0], [5.0], [9.0]]])
        out, cache = layers.maxpool_forward(x)
        gx = layers.maxpool_backward(cache, np.array([[[10.0], [20.0]]]))
        assert gx[0, :, 0].tolist() == [0.0, 10.0, 0.0, 20.0, 0.0]

    def test_gradient(self):
        assert gradcheck.check_layer("maxpool") < gradcheck.LAYER_BOUND


class TestAttention:
    def _weights(self, rng, heads=2, d=8, dk=4):
        return (rng.standard_normal((heads, d, dk)) * 0.4,
                rng.standard_normal((heads, d, dk)) * 0.4,
                rng.standard_normal((heads, d, dk)) * 0.4,
                rng.standard_normal((d, d)) * 0.4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        wq, wk, wv, wo = self._weights(rng)
        x = rng.standard_normal((3, 7, 8))
        _, cache = layers.mha_forward(x, wq, wk, wv, wo)
        attns = cache[4]
        for a in attns:
            assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-9

    def test_zero_query_gives_uniform_attention(self):
        rng = np.random.default_rng(11)
        wq, wk, wv, wo = self._weights(rng)
        wq = np.zeros_like(wq)
        x = rng.standard_normal((2, 6, 8))
        out, cache = layers.mha_forward(x, wq, wk, wv, wo)
        for a in cache[4]:
            assert np.allclose(a, 1.0 / 6.0, atol=1e-12)
        # every output row is the V row-mean pushed through the projection
        concat = np.concatenate([(x @ w).mean(axis=1) for w in [wv[0], wv[1]]], axis=-1)
        expected = concat[:, None, :] @ wo
        assert np.allclose(out, np.broadcast_to(expected, out.shape), atol=1e-9)

    def test_single_position(self):
        rng = np.random.default_rng(12)
        wq, wk, wv, wo = self._weights(rng)
        x = rng.standard_normal((1, 1, 8))
        out, cache = layers.mha_forward(x, wq, wk, wv, wo)
        assert np.allclose(cache[4][0], 1.0)
        concat = np.concatenate([x @ wv[0], x @ wv[1]], axis=-1)
        assert np.allclose(out, concat @ wo, atol=1e-12)

    def test_width_mismatch(self):
        rng = np.random.default_rng(13)
        wq, wk, wv, wo = self._weights(rng)
        with pytest.raises(ValueError, match="width"):
            layers.mha_forward(rng.standard_normal((1, 4, 6)), wq, wk, wv, wo)

    def test_zero_grad_out(self):
        rng = np.random.default_rng(14)
        wq, wk, wv, wo = self._weights(rng)
        x = rng.standard_normal((2, 5, 8))
        _, cache = layers.mha_forward(x, wq, wk, wv, wo)
        grads = layers.mha_backward(cache, np.zeros((2, 5, 8)))
        for g in grads:
            assert not g.any()

    def test_uniform_attention_value_path_routing(self):
        # with zero query/key projections the attention stays uniform however
        # x moves, so grad_x must reduce to the value path: each dV row is the
        # mean of the upstream head gradient rows
        rng = np.random.default_rng(21)
        _, _, wv, wo = self._weights(rng)
        wq = np.zeros_like(wv)
        wk = np.zeros_like(wv)
        x = rng.standard_normal((2, 6, 8))
        go = rng.standard_normal((2, 6, 8))
        _, cache = layers.mha_forward(x, wq, wk, wv, wo)
        gx = layers.mha_backward(cache, go)[0]

        dconcat = go @ wo.T
        expected = np.zeros_like(x)
        for h in range(2):
            dhead = dconcat[:, :, 4 * h:4 * (h + 1)]
            dv = np.broadcast_to(dhead.mean(axis=1, keepdims=True), dhead.shape)
            expected += dv @ wv[h].T
        assert np.abs(gx - expected).max() < 1e-8

    def test_gradient(self):
        assert gradcheck.check_layer("mha") < gradcheck.LAYER_BOUND


class TestLayerNorm:
    def test_hand_values(self):
        out, _ = layers.layernorm_forward(np.array([[[1.0, 2.0, 3.0]]]),
                                          np.ones(3), np.zeros(3))
        assert np.allclose(out[0, 0], [-1.22474, 0.0, 1.22474], atol=1e-4)

    def test_constant_row_gives_beta(self):
        beta = np.array([0.5, -1.0])
        out, _ = layers.layernorm_forward(np.full((1, 3, 2), 7.0), np.ones(2), beta)
        assert np.allclose(out, np.broadcast_to(beta, (1, 3, 2)), atol=1e-9)

    def test_gradient(self):
        assert gradcheck.check_layer("layernorm") < gradcheck.LAYER_BOUND


class TestGlobalAveragePool:
    def test_mean(self):
        out, _ = layers.global_average_pool(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out[0].tolist() == [2.0, 3.0]

    def test_single_position_identity(self):
        x = np.random.default_rng(15).standard_normal((2, 1, 4))
        out, _ = layers.global_average_pool(x)
        assert np.array_equal(out, x[:, 0, :])

    def test_backward_spreads_evenly(self):
        g = np.array([[6.0, 12.0]])
        gx = layers.global_average_pool_backward(3, g)
        assert np.allclose(gx, np.broadcast_to([2.0, 4.0], (1, 3, 2)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            layers.global_average_pool(np.zeros((2, 0, 3)))

    def test_gradient(self):
        assert gradcheck.check_layer("global_avg_pool") < gradcheck.LAYER_BOUND


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(16).standard_normal((3, 4))
        out, _ = layers.dense_forward(x, np.eye(4), np.zeros(4))
        assert np.allclose(out, x, atol=1e-12)

    def test_hand_values(self):
        out, _ = layers.dense_forward(np.array([[1.0, 2.0]]),
                                      np.array([[1.0], [-1.0]]), np.array([0.5]))
        assert out[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_gradient(self):
        assert gradcheck.check_layer("dense") < gradcheck.LAYER_BOUND


class TestDropout:
    def test_infer_is_exact_identity(self):
        x = np.random.default_rng(17).standard_normal((4, 9))
        out, cache = layers.dropout_forward(x, 0.5, "infer")
        assert out is x
        assert cache is None

    def test_rate_zero_identity(self):
        x = np.random.default_rng(18).standard_normal((4, 9))
        out, _ = layers.dropout_forward(x, 0.0, "train", np.random.default_rng(0))
        assert out is x

    def test_train_statistics(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0.5, 1.5, size=100_000)
        out, cache = layers.dropout_forward(x, 0.5, "train", np.random.default_rng(20))
        mask, _ = cache
        assert abs(mask.mean() - 0.5) < 0.01
        assert abs(out.mean() - x.mean()) / x.mean() < 0.02

    def test_deterministic_in_seed(self):
        x = np.ones((2, 50))
        a, _ = layers.dropout_forward(x, 0.5, "train", np.random.default_rng(1))
        b, _ = layers.dropout_forward(x, 0.5, "train", np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            layers.dropout_forward(np.ones(3), 1.0, "train", np.random.default_rng(0))

    def test_gradient(self):
        assert gradcheck.check_layer("dropout") < gradcheck.LAYER_BOUND


def test_sigmoid_stable_and_bounded():
    z = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    p = layers.sigmoid(z)
    assert np.isfinite(p).all()
    assert (p > 0).all() and (p < 1).all() or (p[0] == 0.0 and p[-1] == 1.0)
    assert p[2] == pytest.approx(0.5, abs=1e-12)
