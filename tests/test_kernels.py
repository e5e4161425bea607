import numpy as np
import pytest

from seiznet import kernels, model

# N, L, C_in, K, C_out. Patch matrices narrower and wider than the output
# (K * C_in below, at and above C_out), a single tap, a sequence shorter than
# the kernel, and the three stages of the default network at batch sizes 1,
# 32 and 256.
SHAPES = [
    (1, 8, 1, 3, 2),        # K * C_in > C_out
    (4, 21, 3, 5, 6),       # K * C_in > C_out, odd length
    (2, 178, 1, 7, 32),     # K * C_in < C_out
    (3, 44, 16, 3, 8),      # K * C_in > C_out
    (3, 10, 2, 3, 6),       # K * C_in == C_out
    (2, 5, 3, 1, 4),        # one tap: no padding
    (2, 3, 2, 7, 4),        # L < K: every window reaches into the padding
    (1, 178, 1, 7, 32),     # stage 1, one segment
    (32, 89, 32, 5, 64),    # stage 2, training batch
    (256, 178, 1, 7, 32),   # stage 1, inference chunk
    (256, 44, 64, 3, 128),  # stage 3, inference chunk
]

# The kernels sum in another order than the references, so float64 results
# agree to a relative tolerance, not bitwise.
RTOL = 1e-12


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def conv_forward_reference(x, w, b):
    n, length, _ = x.shape
    k_size = w.shape[0]
    pad = (k_size - 1) // 2
    out = np.empty((n, length, w.shape[2]))
    for i in range(length):
        acc = np.tile(b, (n, 1))
        for k in range(k_size):
            j = i + k - pad
            if 0 <= j < length:
                acc += x[:, j, :] @ w[k]
        out[:, i, :] = acc
    return out


def conv_backward_reference(x, w, grad_out):
    n, length, _ = x.shape
    k_size = w.shape[0]
    pad = (k_size - 1) // 2
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(w)
    for i in range(length):
        for k in range(k_size):
            j = i + k - pad
            if 0 <= j < length:
                grad_x[:, j, :] += grad_out[:, i, :] @ w[k].T
                grad_w[k] += x[:, j, :].T @ grad_out[:, i, :]
    return grad_x, grad_w


def maxpool_forward_reference(x):
    n, length, c = x.shape
    half = length // 2
    out = np.empty((n, half, c))
    idx = np.zeros((n, half, c), dtype=np.int64)
    for i in range(half):
        a, b = x[:, 2 * i, :], x[:, 2 * i + 1, :]
        wins = b > a
        idx[:, i, :] = wins
        out[:, i, :] = np.where(np.isnan(a) | np.isnan(b), np.nan, np.where(wins, b, a))
    return out, idx


def maxpool_backward_reference(grad_out, idx, length):
    n, half, c = grad_out.shape
    grad_x = np.zeros((n, length, c))
    for s in range(n):
        for i in range(half):
            for ch in range(c):
                grad_x[s, 2 * i + idx[s, i, ch], ch] = grad_out[s, i, ch]
    return grad_x


@pytest.mark.parametrize("n,length,c_in,k,c_out", SHAPES)
def test_conv_matches_reference(n, length, c_in, k, c_out):
    rng = np.random.default_rng(n * 100 + length + c_in)
    x = rng.standard_normal((n, length, c_in))
    w = rng.standard_normal((k, c_in, c_out))
    b = rng.standard_normal(c_out)
    go = rng.standard_normal((n, length, c_out))

    assert_close(kernels.conv1d_forward(x, w, b), conv_forward_reference(x, w, b))
    got, want = kernels.conv1d_backward(x, w, go), conv_backward_reference(x, w, go)
    assert len(got) == len(want) == 2
    for g, r in zip(got, want):
        assert_close(g, r)


@pytest.mark.parametrize("n,length,c", [(1, 2, 1), (3, 9, 4), (32, 89, 32), (256, 45, 8)])
@pytest.mark.parametrize("values", ["continuous", "ties", "nan"])
def test_maxpool_matches_reference(n, length, c, values):
    rng = np.random.default_rng(length * 10 + c)
    if values == "ties":
        x = rng.integers(0, 3, (n, length, c)).astype(np.float64)
    else:
        x = rng.standard_normal((n, length, c))
    if values == "nan":
        x[rng.random(x.shape) < 0.1] = np.nan
        x[0, 0, 0] = np.nan        # NaN in the even position of a pair
        x[0, 1, 0] = 1.0
        x[-1, 0, -1] = 1.0         # NaN in the odd position
        x[-1, 1, -1] = np.nan
    out, idx = kernels.maxpool_forward(x), kernels.maxpool_index(x)
    ref_out, ref_idx = maxpool_forward_reference(x)
    assert np.array_equal(out, ref_out, equal_nan=True)
    assert np.array_equal(idx, ref_idx)

    go = rng.standard_normal(out.shape)
    gx = kernels.maxpool_backward(go, idx, length)
    assert np.array_equal(gx, maxpool_backward_reference(go, ref_idx, length))
    if length % 2:
        assert not gx[:, -1, :].any()  # the odd tail position gets no gradient


@pytest.mark.parametrize("length", [2, 7, 10])
def test_maxpool_backward_writes_every_position(monkeypatch, length):
    # the gradient is allocated uninitialised: fill it with NaN to show
    # that no position keeps what the allocation held
    rng = np.random.default_rng(length)
    x = rng.standard_normal((3, length, 4)).astype(np.float32)
    idx = kernels.maxpool_index(x)
    go = rng.standard_normal((3, length // 2, 4)).astype(np.float32)
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda shape, dtype=None: np.full(shape, np.nan, dtype))
    gx = kernels.maxpool_backward(go, idx, length)
    monkeypatch.setattr(np, "empty", empty)
    assert gx.dtype == np.float32
    assert np.array_equal(gx, maxpool_backward_reference(go, idx, length))


def test_maxpool_tie_goes_to_lower_index():
    x = np.array([[[2.0], [2.0], [5.0], [1.0]]])
    out, idx = kernels.maxpool_forward(x), kernels.maxpool_index(x)
    assert out[0, :, 0].tolist() == [2.0, 5.0]
    assert idx[0, :, 0].tolist() == [0, 0]


def conv_stages(config, dtype):
    """(N, L, C_in, K, C_out, dtype) of each conv stage of config's network,
    at a 64-row predict chunk in float32, or at 3 rows in float64."""
    n = 64 if dtype == np.float32 else 3
    length, c_in = config.input_len, 1
    for c_out, k in zip(config.conv_filters, model.CONV_KERNELS):
        yield n, length, c_in, k, c_out, dtype
        length, c_in = length // 2, c_out


@pytest.mark.parametrize("n,length,c_in,k,c_out,dtype", [
    *conv_stages(model.ModelConfig(), np.float32), *conv_stages(model.toy_config(), np.float64)])
def test_conv_bias_is_the_broadcast_add_bit_for_bit(n, length, c_in, k, c_out, dtype):
    rng = np.random.default_rng(length * c_out)
    x = rng.standard_normal((n, length, c_in)).astype(dtype)
    w = rng.standard_normal((k, c_in, c_out)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    want = kernels._im2col(x, k) @ w.reshape(k * c_in, c_out)
    want += b
    got = kernels.conv1d_forward(x, w, b)
    assert got.dtype == dtype
    assert np.array_equal(got, want.reshape(n, length, c_out))


def test_conv_zero_padding_boundaries():
    # interior of a [1,0,-1] difference kernel on a ramp is constant; the
    # boundary positions see zero padding
    x = np.arange(1.0, 6.0)[None, :, None]
    w = np.array([1.0, 0.0, -1.0])[:, None, None]
    b = np.zeros(1)
    out = kernels.conv1d_forward(x, w, b)[0, :, 0]
    assert np.allclose(out[1:4], [-2.0, -2.0, -2.0])
    assert out[0] == pytest.approx(-2.0)   # 0*1 + 1*0 + 2*(-1)
    assert out[4] == pytest.approx(4.0)    # 4*1 + 5*0 + 0*(-1)
