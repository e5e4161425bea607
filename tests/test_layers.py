import numpy as np
import pytest

from seiznet import gradcheck, layers, model

TOY = gradcheck.toy_layers()  # {name: (layer, input shape)} of the toy network
TOY_TRUNK = list(TOY.values())[:list(TOY).index("gap")]


def check_toy_layers(op):
    """gradcheck.check_layer of every toy layer that runs op."""
    names = [name for name, (layer, _) in TOY.items() if layer.op == op]
    assert names
    for name in names:
        assert gradcheck.check_layer(name) < gradcheck.LAYER_BOUND, name


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
        with pytest.raises(ValueError, match="bias"):
            layers.conv1d_forward(np.zeros((1, 4, 1)), np.zeros((3, 1, 2)), np.zeros(3))
        _, cache = layers.conv1d_forward(np.zeros((1, 4, 1)), np.zeros((3, 1, 2)),
                                         np.zeros(2))
        with pytest.raises(ValueError, match="grad shape"):
            layers.conv1d_backward(cache, np.zeros((1, 4, 3)))

    def test_identity_kernel_backward_passes_grad(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 8, 1))
        w = np.zeros((3, 1, 1))
        w[1, 0, 0] = 1.0
        _, cache = layers.conv1d_forward(x, w, np.zeros(1))
        go = rng.standard_normal((1, 8, 1))
        gx, _ = layers.conv1d_backward(cache, go)
        assert np.allclose(gx, go, atol=1e-12)

    def test_zero_grad_out(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 2))
        w = rng.standard_normal((3, 2, 4))
        _, cache = layers.conv1d_forward(x, w, np.zeros(4))
        gx, gw = layers.conv1d_backward(cache, np.zeros((2, 6, 4)))
        assert not gx.any() and not gw.any()

    def test_gradient(self):
        check_toy_layers("conv1d")


class TestBatchNorm:
    def test_train_standardizes(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 20, 3)) * 4.0 + 2.0
        out, _ = layers.batchnorm_forward(x, np.ones(3), np.zeros(3),
                                          np.zeros(3), np.ones(3))
        flat = out.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 1e-9
        assert np.abs(flat.var(axis=0) - 1.0).max() < 1e-4  # eps shifts variance

    def test_gamma_beta_affine(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 10, 2))
        out, _ = layers.batchnorm_forward(x, np.full(2, 2.0), np.full(2, 3.0),
                                          np.zeros(2), np.ones(2))
        flat = out.reshape(-1, 2)
        assert np.allclose(flat.mean(axis=0), 3.0, atol=1e-9)
        assert np.allclose(flat.std(axis=0), 2.0, atol=1e-3)

    def test_infer_identity_stats(self):
        # infer mode folds the batch norm into the layer before it; identity
        # statistics leave that layer's output unchanged up to eps
        x = np.random.default_rng(5).standard_normal((4, 6))
        fc = model.Layer("fc", "dense", w=(model.KERNEL, (6, 2)), b=(model.SHIFT, (2,)))
        out, raw = self._folded(fc, x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        assert np.allclose(out, raw, atol=1e-5)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 5, 1)) + 10.0
        rm, rv = np.zeros(1), np.ones(1)
        layers.batchnorm_forward(x, np.ones(1), np.zeros(1), rm, rv)
        assert rm[0] == pytest.approx(0.9 * 0.0 + 0.1 * x.mean(), rel=1e-12)
        assert rv[0] == pytest.approx(0.9 * 1.0 + 0.1 * x.var(), rel=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            layers.batchnorm_forward(np.zeros((1, 4, 2)), np.ones(2), np.zeros(2),
                                     np.zeros(2), np.ones(2))

    def test_grad_beta_is_sum(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6, 2))
        _, cache = layers.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                            np.zeros(2), np.ones(2))
        go = rng.standard_normal((4, 6, 2))
        _, _, gbeta = layers.batchnorm_backward(cache, go)
        assert np.allclose(gbeta, go.sum(axis=(0, 1)), atol=1e-12)

    def test_constant_grad_out_gives_zero_grad_x(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6, 2))
        _, cache = layers.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                            np.zeros(2), np.ones(2))
        gx, _, _ = layers.batchnorm_backward(cache, np.full((4, 6, 2), 3.3))
        assert np.abs(gx).max() < 1e-8

    def test_gradient(self):
        check_toy_layers("batchnorm")

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

    @staticmethod
    def _textbook(x, gamma, rm, rv, dy):
        """Ioffe & Szegedy (2015), Algorithm 1 and its backward pass, in
        float64: (xhat, batch mean, running mean, running var, dx)."""
        momentum, eps = 0.9, 1e-5
        axes = tuple(range(x.ndim - 1))
        m = x.size // x.shape[-1]
        mu = x.mean(axis=axes)
        var = ((x - mu) ** 2).mean(axis=axes)
        xhat = (x - mu) / np.sqrt(var + eps)
        dxhat = dy * gamma
        dvar = (dxhat * (x - mu) * -0.5 * (var + eps) ** -1.5).sum(axis=axes)
        dmu = (-dxhat / np.sqrt(var + eps)).sum(axis=axes) \
            + dvar * (-2.0 * (x - mu)).mean(axis=axes)
        dx = dxhat / np.sqrt(var + eps) + dvar * 2.0 * (x - mu) / m + dmu / m
        return (xhat, mu, momentum * rm + (1 - momentum) * mu,
                momentum * rv + (1 - momentum) * var, dx)

    @pytest.mark.parametrize("shape", [(8, 20, 3), (16, 5)])
    def test_train_matches_textbook(self, shape):
        rng, x, gamma, beta, rm, rv = self._inputs(shape)
        dy = rng.standard_normal(shape)
        axes = tuple(range(x.ndim - 1))
        xhat, mu, want_rm, want_rv, want_dx = self._textbook(x, gamma, rm, rv, dy)

        out, cache = layers.batchnorm_forward(x, gamma, beta, rm, rv)
        self._assert_close(out, gamma * xhat + beta)
        # the cache holds the centred input and the per-channel 1/sqrt(var+eps)
        self._assert_close(cache[0], x - mu)
        self._assert_close(cache[0] * cache[1], xhat)
        self._assert_close(rm, want_rm)
        self._assert_close(rv, want_rv)

        dx, dgamma, dbeta = layers.batchnorm_backward(cache, dy)
        self._assert_close(dx, want_dx)
        self._assert_close(dgamma, (dy * xhat).sum(axis=axes))
        self._assert_close(dbeta, dy.sum(axis=axes))

    @pytest.mark.parametrize("shape", [(32, 178, 32), (32, 44, 128), (32, 128)])
    def test_train_in_float32_matches_the_float64_textbook(self, shape):
        # the trunk's batch norms run in float32, their sums as float32 GEMVs
        rng, x, gamma, beta, rm, rv = self._inputs(shape)
        x, gamma, beta, rm, rv, dy = (a.astype(np.float32) for a in
                                      (x, gamma, beta, rm, rv, rng.standard_normal(shape)))
        axes = tuple(range(x.ndim - 1))
        x64, g64, rm64, rv64, dy64 = (a.astype(np.float64) for a in (x, gamma, rm, rv, dy))
        xhat, _, want_rm, want_rv, want_dx = self._textbook(x64, g64, rm64, rv64, dy64)

        out, cache = layers.batchnorm_forward(x, gamma, beta, rm, rv)
        dx, dgamma, dbeta = layers.batchnorm_backward(cache, dy)
        for got, want in [(out, g64 * xhat + beta), (rm, want_rm), (rv, want_rv),
                          (dx, want_dx), (dgamma, (dy64 * xhat).sum(axis=axes)),
                          (dbeta, dy64.sum(axis=axes))]:
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    @staticmethod
    def _folded(layer, x, gamma, beta, rm, rv):
        """Run `layer` followed by a batch norm in infer mode, folded as the
        model folds it: (folded output, layer output before the norm)."""
        rng = np.random.default_rng(0)
        params = {n: rng.standard_normal(s) for n, s in layer.shapes.items()}
        stats = (gamma, beta, rm, rv)
        before = [a.copy() for a in (*params.values(), *stats)]
        folded = dict(zip(layer.shapes, layers.batchnorm_fold(*params.values(), *stats)))
        for a, b in zip((*params.values(), *stats), before):
            assert np.array_equal(a, b)  # no input is changed
        out, _ = layer.forward(folded, x, None)
        raw, _ = layer.forward(params, x, None)
        return out, raw

    @pytest.mark.parametrize("shape", [(8, 20, 3), (16, 5)])
    def test_infer_matches_textbook(self, shape):
        # a conv (3D input) or dense (2D) layer with the norm folded in
        # against the layer followed by (x - mean) / sqrt(var + eps) * gamma + beta
        _, x, gamma, beta, rm, rv = self._inputs(shape)
        c = shape[-1]
        w, b = (model.KERNEL, (c, c)), (model.SHIFT, (c,))
        layer = (model.Layer("conv", "conv1d", w=(model.KERNEL, (3, c, c)), b=b)
                 if len(shape) == 3 else model.Layer("fc", "dense", w=w, b=b))
        out, raw = self._folded(layer, x, gamma, beta, rm, rv)
        self._assert_close(out, (raw - rm) / np.sqrt(rv + 1e-5) * gamma + beta)


class TestMaxPool:
    def test_basic(self):
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        out, _ = layers.maxpool_forward(x)
        assert out[0, :, 0].tolist() == [3.0, 5.0]

    def test_length_one_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            layers.maxpool_forward(np.zeros((2, 1, 3)))

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
        check_toy_layers("maxpool")


def _relu_pool_input(values, length):
    rng = np.random.default_rng(length)
    if values == "ties":
        x = rng.integers(-2, 3, (3, length, 4)).astype(np.float64)
    else:
        x = rng.standard_normal((3, length, 4))
    if values == "nan":
        x[rng.random(x.shape) < 0.15] = np.nan
        x[0, 0, 0], x[0, 1, 0] = np.nan, 1.0     # NaN in the even position
        x[1, 0, 0], x[1, 1, 0] = 1.0, np.nan     # NaN in the odd position
    return x


@pytest.mark.parametrize("length", [8, 9])
@pytest.mark.parametrize("values", ["continuous", "ties", "nan"])
def test_relu_then_pool_match_mask_and_index_semantics(values, length):
    # ReLU caches its output and maxpool its input; backward must equal the
    # cached-mask form (mask = x > 0) and the cached-index form (odd > even)
    # bit for bit
    x = _relu_pool_input(values, length)
    go = np.random.default_rng(1).standard_normal((3, length // 2, 4))

    y, relu_cache = layers.relu_forward(x)
    mask = x > 0
    assert np.array_equal(y, x * mask, equal_nan=True)
    pooled, pool_cache = layers.maxpool_forward(y)
    half = length // 2
    even, odd = y[:, 0:2 * half:2], y[:, 1:2 * half:2]
    assert np.array_equal(pooled, np.maximum(even, odd), equal_nan=True)

    g_pool = layers.maxpool_backward(pool_cache, go)
    want = np.zeros_like(y)
    want[:, 0:2 * half:2] = go * ~(odd > even)
    want[:, 1:2 * half:2] = go * (odd > even)
    assert np.array_equal(g_pool, want)
    assert np.array_equal(layers.relu_backward(relu_cache, g_pool), g_pool * mask)


@pytest.mark.parametrize("length", [8, 9])
@pytest.mark.parametrize("values", ["continuous", "ties", "nan"])
def test_pool_then_relu_equals_relu_then_pool(values, length):
    # model.Net pools ahead of each conv stage's ReLU; the values and input
    # gradients are those of ReLU ahead of the pool, bit for bit
    x = _relu_pool_input(values, length)
    if values == "ties":
        # exact zeros of either sign beside negatives, and negative pairs
        x[2, :8, 1] = [-0.0, -1.0, -1.0, -0.0, 0.0, -0.0, -3.0, -2.0]
    go = np.random.default_rng(2).standard_normal((3, length // 2, 4))

    relu_x, relu_cache = layers.relu_forward(x)
    want, pool_cache = layers.maxpool_forward(relu_x)
    pooled, pool_first = layers.maxpool_forward(x)
    got, relu_last = layers.relu_forward(pooled)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
    assert not np.signbit(got[got == 0]).any()
    if values == "nan":
        # the orders route a NaN pair's gradient differently, but a NaN
        # output stops training before any backward pass (optim._finite)
        return

    want_g = layers.relu_backward(relu_cache, layers.maxpool_backward(pool_cache, go))
    got_g = layers.maxpool_backward(pool_first, layers.relu_backward(relu_last, go))
    assert got_g.tobytes() == want_g.tobytes()


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
        attns = cache[4]  # [N, H, L, L]
        assert attns.shape == (3, 2, 7, 7)
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
        # every output row is x plus the V row-mean pushed through the projection
        concat = np.concatenate([(x @ w).mean(axis=1) for w in [wv[0], wv[1]]], axis=-1)
        expected = concat[:, None, :] @ wo
        assert np.allclose(out, x + expected, atol=1e-9)

    def test_single_position(self):
        rng = np.random.default_rng(12)
        wq, wk, wv, wo = self._weights(rng)
        x = rng.standard_normal((1, 1, 8))
        out, cache = layers.mha_forward(x, wq, wk, wv, wo)
        assert np.allclose(cache[4][0], 1.0)
        concat = np.concatenate([x @ wv[0], x @ wv[1]], axis=-1)
        assert np.allclose(out, x + concat @ wo, atol=1e-12)

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
        # x moves, so grad_x must reduce to the skip and the value path: each
        # dV row is the mean of the upstream head gradient rows
        rng = np.random.default_rng(21)
        _, _, wv, wo = self._weights(rng)
        wq = np.zeros_like(wv)
        wk = np.zeros_like(wv)
        x = rng.standard_normal((2, 6, 8))
        go = rng.standard_normal((2, 6, 8))
        _, cache = layers.mha_forward(x, wq, wk, wv, wo)
        gx = layers.mha_backward(cache, go)[0]

        dconcat = go @ wo.T
        expected = go.copy()
        for h in range(2):
            dhead = dconcat[:, :, 4 * h:4 * (h + 1)]
            dv = np.broadcast_to(dhead.mean(axis=1, keepdims=True), dhead.shape)
            expected += dv @ wv[h].T
        assert np.abs(gx - expected).max() < 1e-8

    def test_gradient(self):
        check_toy_layers("mha")

    @staticmethod
    def _per_head_reference(x, wq, wk, wv, wo, go):
        """Textbook per-head attention plus the skip add, and its backward,
        one head at a time."""
        heads, _, d_k = wq.shape
        concat, saved = [], []
        for h in range(heads):
            q, k, v = x @ wq[h], x @ wk[h], x @ wv[h]
            s = q @ k.swapaxes(1, 2) / np.sqrt(d_k)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            a = e / e.sum(axis=-1, keepdims=True)
            concat.append(a @ v)
            saved.append((q, k, v, a))
        concat = np.concatenate(concat, axis=-1)
        out = x + concat @ wo
        dwo = np.einsum("nli,nlj->ij", concat, go)
        dconcat = go @ wo.T
        dx = go.copy()
        dws = [np.empty_like(wq), np.empty_like(wk), np.empty_like(wv)]
        for h, (q, k, v, a) in enumerate(saved):
            dhead = dconcat[:, :, h * d_k:(h + 1) * d_k]
            da = dhead @ v.swapaxes(1, 2)
            ds = a * (da - (da * a).sum(axis=-1, keepdims=True)) / np.sqrt(d_k)
            grads = (ds @ k, ds.swapaxes(1, 2) @ q, a.swapaxes(1, 2) @ dhead)
            for dw, w, g in zip(dws, (wq, wk, wv), grads):
                dw[h] = np.einsum("nli,nlj->ij", x, g)
                dx += g @ w[h].T
        return out, (dx, *dws, dwo)

    @pytest.mark.parametrize("n,length,heads,d_k", [
        (3, 1, 2, 4),      # a single position
        (2, 5, 1, 8),      # a single head
        (4, 22, 4, 32),    # the default attention block
    ])
    def test_fused_matches_per_head_reference(self, n, length, heads, d_k):
        rng = np.random.default_rng(length * 10 + heads)
        wq, wk, wv, wo = self._weights(rng, heads, heads * d_k, d_k)
        x = rng.standard_normal((n, length, heads * d_k))
        go = rng.standard_normal(x.shape)
        want_out, want_grads = self._per_head_reference(x, wq, wk, wv, wo, go)
        out, cache = layers.mha_forward(x, wq, wk, wv, wo)
        assert cache[4].shape == (n, heads, length, length)
        got_grads = layers.mha_backward(cache, go)
        for got, want in zip((out, *got_grads), (want_out, *want_grads)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestSoftmaxRows:
    """The key-major softmax on one predict chunk of float32 scores,
    s[j, n, h, i] of shape [Lk, N, H, Lq] = [22, 64, 4, 22]: each query's
    row of weights A[n, h, i, :] is the column s[:, n, h, i]."""

    @staticmethod
    def _scores():
        rng = np.random.default_rng(40)
        return (rng.standard_normal((22, 64, 4, 22)) * 4.0).astype(np.float32)

    def test_a_row_alone_gives_its_bits_in_the_chunk(self):
        scores = self._scores()
        chunk = layers._softmax_keys(scores.copy())
        for n in range(scores.shape[1]):
            for i in range(scores.shape[3]):
                alone = layers._softmax_keys(scores[:, n:n + 1, :, i:i + 1].copy())
                assert alone.dtype == np.float32
                assert np.array_equal(alone, chunk[:, n:n + 1, :, i:i + 1]), (n, i)

    def test_max_matches_numpy_exactly(self):
        # the softmax subtracts s.max(axis=0) exactly, and sums the keys
        # left to right, as a fold over the key rows does
        scores = self._scores()
        e = np.exp(scores - scores.max(axis=0))
        total = e[0].copy()
        for j in range(1, e.shape[0]):
            total += e[j]
        assert np.array_equal(layers._softmax_keys(scores), e / total)

    def test_rows_sum_to_one(self):
        probs = layers._softmax_keys(self._scores())
        assert probs.dtype == np.float32
        assert np.abs(probs.sum(axis=0, dtype=np.float64) - 1.0).max() < 1e-6

    def test_a_nan_stays_in_its_row(self):
        scores = self._scores()
        scores[3, 5, 2, 7] = np.nan
        probs = layers._softmax_keys(scores)
        assert np.isnan(probs[:, 5, 2, 7]).all()
        probs[:, 5, 2, 7] = 0.0
        assert np.isfinite(probs).all()

    def test_float32_scores_are_scaled_in_float32(self):
        # NumPy 2 multiplies float32 by a float64 scalar in float64 (NEP 50),
        # which rounds differently from the float32 product. The reference
        # scores are k @ q^T, the GEMM mha_forward runs: on some BLAS kernels
        # q @ k^T differs from it in the last bits
        rng = np.random.default_rng(41)
        heads, d_k, length = 4, 32, 22
        w = [(rng.standard_normal(shape) * 0.2).astype(np.float32)
             for shape in [(heads, heads * d_k, d_k)] * 3 + [(heads * d_k,) * 2]]
        x = rng.standard_normal((64, length, heads * d_k)).astype(np.float32)
        _, cache = layers.mha_forward(x, *w)
        q, k, _ = layers._split_heads(cache[2], 64, length, heads)
        scores = np.ascontiguousarray((k @ q.swapaxes(-1, -2)).transpose(2, 0, 1, 3))
        want = layers._softmax_keys(scores * np.float32(1 / np.sqrt(d_k)))
        assert cache[4].dtype == np.float32
        assert np.array_equal(cache[4], want.transpose(1, 2, 3, 0))


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
        check_toy_layers("layernorm")

    # the LayerNorm input of the default network at a 64-row predict chunk in
    # float32, and of the toy network at 3 rows in float64
    SHAPES = [((64, 22, 128), np.float32), ((3, 3, 4), np.float64)]

    @staticmethod
    def _inputs(shape, dtype):
        rng = np.random.default_rng(shape[0])
        x, go = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        gamma, beta = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        return x, go, gamma, beta

    @pytest.mark.parametrize("shape,dtype", SHAPES)
    def test_tiled_scale_and_shift_are_the_broadcast_forms_bit_for_bit(self, shape, dtype):
        x, _, gamma, beta = self._inputs(shape, dtype)
        out, (xhat, _, _) = layers.layernorm_forward(x, gamma, beta)
        assert out.dtype == dtype
        assert np.array_equal(out, xhat * gamma + beta)

    @pytest.mark.parametrize("shape,dtype", SHAPES)
    def test_backward_tiled_scale_is_the_broadcast_form_bit_for_bit(self, shape, dtype):
        x, go, gamma, beta = self._inputs(shape, dtype)
        _, cache = layers.layernorm_forward(x, gamma, beta)
        xhat, inv, _ = cache
        dx, _ = layers.layernorm_backward(cache, go)
        c = shape[-1]
        dxhat = go * gamma
        want = (inv / c) * (c * dxhat - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        assert dx.dtype == dtype
        assert np.array_equal(dx, want)


class TestGlobalAveragePool:
    def test_mean(self):
        out, _ = layers.global_average_pool_forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out[0].tolist() == [2.0, 3.0]

    def test_single_position_identity(self):
        x = np.random.default_rng(15).standard_normal((2, 1, 4))
        out, _ = layers.global_average_pool_forward(x)
        assert np.array_equal(out, x[:, 0, :])

    def test_backward_spreads_evenly(self):
        g = np.array([[6.0, 12.0]])
        gx = layers.global_average_pool_backward((3, np.dtype(np.float64)), g)
        assert np.allclose(gx, np.broadcast_to([2.0, 4.0], (1, 3, 2)))
        # the gradient takes the forward input's dtype; in float64 it is the
        # broadcast quotient bit for bit
        rng = np.random.default_rng(14)
        g = rng.standard_normal((2, 5))
        for dtype in (np.float32, np.float64):
            _, cache = layers.global_average_pool_forward(
                rng.standard_normal((2, 7, 5)).astype(dtype))
            gx = layers.global_average_pool_backward(cache, g)
            assert gx.dtype == dtype
        assert gx.tobytes() == np.broadcast_to(g[:, None, :] / 7, (2, 7, 5)).tobytes()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            layers.global_average_pool_forward(np.zeros((2, 0, 3)))

    def test_gradient(self):
        check_toy_layers("global_average_pool")

    def test_float32_input_averages_in_float64(self):
        x = np.random.default_rng(16).standard_normal((3, 22, 8)).astype(np.float32)
        out, _ = layers.global_average_pool_forward(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, x.astype(np.float64).mean(axis=1), rtol=1e-12)


# Training and inference run these layers in float32. Each must keep
# float32, forward and backward, and stay within FLOAT32_RTOL of its float64
# result on the same (float32) values, relative to the largest output or
# gradient. Batch norm runs in train mode, with float64 running statistics
# as in training.
FLOAT32_RTOL = 1e-5
# Each is the last trunk layer of its op in the toy network, at the input
# shape it sees there (`gradcheck.toy_layers`): conv3, bn3, pool3 (odd
# length 7), relu3, attn and ln.
TRUNK_CASES = {layer.op: (layer, shape) for layer, shape in TOY_TRUNK}


def _float32_case(name, seed):
    """A TRUNK_CASES layer with a float32 input and float32 learnable
    tensors (float64 running statistics), and a float64 copy of both."""
    layer, x_shape = TRUNK_CASES[name]
    rng = np.random.default_rng(seed)
    x32 = rng.standard_normal(x_shape).astype(np.float32)
    p32 = {}
    for n, s in layer.shapes.items():
        a = 0.5 * rng.standard_normal(s)
        p32[n] = a.astype(np.float32) if n in layer.learnable else a
    p64 = {n: a.astype(np.float64) for n, a in p32.items()}
    return layer, x32, p32, x32.astype(np.float64), p64


def _close(a32, a64):
    assert a32.dtype == np.float32 and a64.dtype == np.float64
    assert np.abs(a32 - a64).max() <= FLOAT32_RTOL * np.abs(a64).max()


@pytest.mark.parametrize("name", sorted(TRUNK_CASES))
def test_trunk_layer_in_float32_matches_float64(name):
    layer, x32, p32, x64, p64 = _float32_case(name, 17)
    y32, _ = layer.forward(p32, x32, None)
    y64, _ = layer.forward(p64, x64, None)
    _close(y32, y64)


@pytest.mark.parametrize("name", sorted(TRUNK_CASES))
def test_trunk_layer_backward_in_float32_matches_float64(name):
    layer, x32, p32, x64, p64 = _float32_case(name, 18)
    y32, cache32 = layer.forward(p32, x32, None)
    _, cache64 = layer.forward(p64, x64, None)
    g = np.random.default_rng(19).standard_normal(y32.shape).astype(np.float32)
    gx32, grads32 = layer.backward(cache32, g)
    gx64, grads64 = layer.backward(cache64, g.astype(np.float64))
    _close(gx32, gx64)
    assert set(grads32) == set(grads64) == set(layer.learnable)
    for n in layer.learnable:
        _close(grads32[n], grads64[n])


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(16).standard_normal((3, 4))
        out, _ = layers.dense_forward(x, np.eye(4), np.zeros(4))
        assert np.allclose(out, x, atol=1e-12)

    def test_hand_values(self):
        out, _ = layers.dense_forward(np.array([[1.0, 2.0]]),
                                      np.array([[1.0], [-1.0]]), np.array([0.5]))
        assert out[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            layers.dense_forward(np.zeros((2, 3)), np.zeros((4, 1)), np.zeros(1))

    def test_gradient(self):
        check_toy_layers("dense")


class TestDropout:
    def test_infer_is_exact_identity(self):
        # infer mode runs the network without its dropout and batch-norm layers
        cfg = model.ModelConfig()
        full, net = cfg.net.layers, cfg.net.infer_layers
        assert any(isinstance(layer, model.Dropout) for layer in full)
        assert not [layer for layer in net if layer.op in ("batchnorm", "dropout")]
        assert [layer.name for layer in net] == [
            layer.name for layer in full if layer.op not in ("batchnorm", "dropout")]

    def test_train_statistics(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0.5, 1.5, size=100_000)
        out, mask = layers.dropout_forward(x, np.random.default_rng(20))
        assert abs(mask.mean() - (1.0 - layers.DROPOUT_RATE)) < 0.01
        assert abs(out.mean() - x.mean()) / x.mean() < 0.02

    def test_deterministic_in_seed(self):
        x = np.ones((2, 50))
        a, _ = layers.dropout_forward(x, np.random.default_rng(1))
        b, _ = layers.dropout_forward(x, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_gradient(self):
        check_toy_layers("dropout")


def test_sigmoid_stable_and_bounded():
    z = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    p, cache = layers.sigmoid_forward(z[:, None])
    assert cache is p
    assert np.isfinite(p).all()
    assert (p > 0).all() and (p < 1).all() or (p[0] == 0.0 and p[-1] == 1.0)
    assert p[2] == pytest.approx(0.5, abs=1e-12)
