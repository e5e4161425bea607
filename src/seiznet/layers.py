"""Network layers: each op is a pair `<op>_forward`, returning (output,
cache), and `<op>_backward`, consuming the cache and the upstream gradient;
`model.Layer` finds both by that name. Arrays carry a leading batch axis:
conv/pool/attention work on [N, L, C], dense layers on [N, D].
"""

import numpy as np

from . import kernels

BN_EPS = 1e-5  # batch norm's variance floor, in train mode and in `batchnorm_fold`
BN_MOMENTUM = 0.9  # weight of the old running statistics in each update
LN_EPS = 1e-5  # layer norm's variance floor
DROPOUT_RATE = 0.5  # share of units each train-mode dropout zeroes


def relu_forward(x):
    """Caches its output: out > 0 exactly where x > 0, since a NaN passes
    through np.maximum and fails both tests."""
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(out, grad_out):
    return grad_out * (out > 0)


def conv1d_forward(x, w, b):
    """Same-padded cross-correlation; output length equals input length."""
    if w.ndim != 3 or w.shape[0] % 2 == 0:
        raise ValueError(f"conv kernel must be [K, C_in, C_out] with K odd, got {w.shape}")
    if x.ndim != 3 or x.shape[2] != w.shape[1]:
        raise ValueError(f"conv input {x.shape} does not match kernel {w.shape}")
    if b.shape != (w.shape[2],):
        raise ValueError(f"conv bias shape {b.shape} does not match {w.shape[2]} filters")
    out = kernels.conv1d_forward(x, w, b)
    return out, (x, w)


def conv1d_backward(cache, grad_out):
    x, w = cache
    if grad_out.shape != (x.shape[0], x.shape[1], w.shape[2]):
        raise ValueError(f"conv grad shape {grad_out.shape} does not match forward")
    return kernels.conv1d_backward(x, w, grad_out)


def _per_row(v, rows):
    """v, one value per channel, tiled along `rows`, a one-row-per-sample
    view of [N, ..., C]: entry j of a row is channel j % C. numpy applies a
    vector along a long axis much faster than along a short channel axis."""
    return np.tile(v, rows.shape[1] // v.shape[0])


def batchnorm_forward(x, gamma, beta, running_mean, running_var):
    """Normalize per channel over all leading axes with the batch statistics,
    and update the running estimates in place (running <- BN_MOMENTUM *
    running + (1 - BN_MOMENTUM) * batch).

    The per-channel sum is one GEMV (a ones vector times the [m, C] view),
    the variance the sum of squares of the centred array, never
    E[x^2] - E[x]^2, and out = xc * (gamma * inv) + beta is applied to the
    one-row-per-sample view. Caches (xc, inv, gamma), xc the centred input.

    This is the training pass. Infer mode never calls it: the model folds
    the running estimates into the conv or dense layer before each
    batch norm (`batchnorm_fold`, called by `model.Net.fold`).
    """
    if x.shape[0] < 2:
        raise ValueError("batchnorm train mode needs a batch of at least 2")
    flat = x.reshape(-1, x.shape[-1])
    m = flat.shape[0]
    mean = np.ones(m, dtype=x.dtype) @ flat / m
    rows = x.reshape(x.shape[0], -1)
    xc = rows - _per_row(mean, rows)
    xc_flat = xc.reshape(flat.shape)
    var = np.einsum("ij,ij->j", xc_flat, xc_flat) / m
    running_mean[:] = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    running_var[:] = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    out = xc * _per_row(gamma * inv, rows)
    out += _per_row(beta, rows)
    return out.reshape(x.shape), (xc.reshape(x.shape), inv, gamma)


def batchnorm_backward(cache, grad_out):
    """Exact gradient of the train-mode forward, including the dependence of
    the batch statistics on x. With m rows per channel, xhat = xc * inv and
    S = sum(dy * xc):

        dx = (gamma * inv / m) * (m * dy - sum(dy) - xhat * sum(dy * xhat))
           = a * dy - b * xc - c,  a = gamma * inv,
             b = a * inv * dgamma / m,  c = a * dbeta / m

    with dgamma = inv * S and dbeta = sum(dy), a GEMV like the forward mean.
    """
    xc, inv, gamma = cache
    dy = grad_out.reshape(-1, inv.shape[0])
    m = dy.shape[0]
    dbeta = np.ones(m, dtype=dy.dtype) @ dy
    dgamma = inv * np.einsum("ij,ij->j", dy, xc.reshape(dy.shape))
    a = gamma * inv
    rows = grad_out.reshape(grad_out.shape[0], -1)
    dx = rows * _per_row(a, rows)
    dx -= xc.reshape(rows.shape) * _per_row(a * inv * dgamma / m, rows)
    dx -= _per_row(a * dbeta / m, rows)
    return dx.reshape(grad_out.shape), dgamma, dbeta


def batchnorm_fold(w, b, gamma, beta, mean, var):
    """The kernel and bias (w', b') of a conv1d or dense layer with the
    batch norm after it applied in infer mode, its running statistics in
    place of the batch's (Jacob et al. 2018, arXiv:1712.05877, section 3.2):
    w' = w*gamma/sqrt(var+eps), b' = (b-mean)*gamma/sqrt(var+eps) + beta.
    b, a CANCELLED shift (`model.Net`), is 0 unless the artifact predates
    that role."""
    scale = gamma / np.sqrt(var + BN_EPS)
    return w * scale, (b - mean) * scale + beta


def maxpool_forward(x):
    """Pool pairs of positions (size 2, floor semantics, ties to lower index).

    Caches the input itself, not a copy; backward recomputes which position
    of each pair won.
    """
    if x.shape[1] < 2:
        raise ValueError(f"maxpool needs sequence length >= 2, got {x.shape[1]}")
    return kernels.maxpool_forward(x), x


def maxpool_backward(x, grad_out):
    return kernels.maxpool_backward(grad_out, kernels.maxpool_index(x), x.shape[1])


def _reduce_last(ufunc, a):
    """`ufunc` (np.maximum or np.add) folded over the columns a[..., j],
    left to right, into one [..., 1] result.

    numpy's `max(axis=-1)` and `sum(axis=-1)` are slow over a short last
    axis, such as attention's 22 keys; one elementwise op per column is
    about 4x faster for the max and 1.6x for the sum. Each row's result
    depends only on that row, in a fixed order, so a row reduced alone
    gives the bits it gives inside any batch, which a GEMV with a ones
    vector need not do on every BLAS kernel.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out[..., None]


def _softmax_rows(scores):
    """Softmax over the last axis, in place. The row max and row sum are
    `_reduce_last` folds: the max is exact in any order, the sum adds the
    columns left to right."""
    scores -= _reduce_last(np.maximum, scores)
    np.exp(scores, out=scores)
    scores /= _reduce_last(np.add, scores)
    return scores


def _score_scale(d_k, dtype):
    """1/sqrt(dk) as a scalar of the scores' dtype. A float64 scalar would
    make NumPy 2 (NEP 50) multiply float32 scores in float64 and round back,
    at about 7x the cost of the float32 multiply NumPy 1.x did."""
    return dtype.type(1.0 / np.sqrt(d_k))


def _split_heads(qkv, n, length, heads):
    """[N*L, 3D] projections -> (q, k, v) views, each [N, H, L, dk]."""
    d_k = qkv.shape[1] // (3 * heads)
    return qkv.reshape(n, length, 3, heads, d_k).transpose(2, 0, 3, 1, 4)


def mha_forward(x, wq, wk, wv, wo):
    """Multi-head self-attention added back onto its input: the skip
    connection is part of the op, so it returns x + attention(x).

    x: [N, L, D]; wq/wk/wv: [H, D, dk] with H * dk = D; wo: [D, D].
    Per head: A = rowsoftmax(Q K^T / sqrt(dk)), head output A V; heads are
    concatenated and passed through the output projection. Q, K and V of
    every head come from one [N*L, D] @ [D, 3D] product; the cache keeps the
    attention weights [N, H, L, L] at index 4. The scores are scaled by
    1/sqrt(dk) in their own dtype, and the softmax reduces over the key
    axis column by column (`_reduce_last`), so beside its GEMMs the op
    costs a few elementwise passes.
    """
    heads, d_model, d_k = wq.shape
    if x.shape[-1] != d_model or heads * d_k != d_model:
        raise ValueError(
            f"attention input width {x.shape[-1]} does not match projections "
            f"({heads} heads x {d_k})"
        )
    n, length, _ = x.shape
    # column j*D + h*dk + i of w_qkv is column i of head h of (wq, wk, wv)[j]
    w_qkv = np.concatenate(
        [w.transpose(1, 0, 2).reshape(d_model, d_model) for w in (wq, wk, wv)], axis=1)
    qkv = x.reshape(n * length, d_model) @ w_qkv
    q, k, v = _split_heads(qkv, n, length, heads)
    attn = q @ k.swapaxes(-1, -2)
    attn *= _score_scale(d_k, attn.dtype)
    _softmax_rows(attn)
    concat = (attn @ v).transpose(0, 2, 1, 3).reshape(n * length, d_model)
    out = x + (concat @ wo).reshape(x.shape)
    return out, (x, w_qkv, qkv, concat, attn, wo)


def mha_backward(cache, grad_out):
    x, w_qkv, qkv, concat, attn, wo = cache
    n, length, d_model = x.shape
    heads = attn.shape[1]
    d_k = d_model // heads
    q, k, v = _split_heads(qkv, n, length, heads)
    g = grad_out.reshape(n * length, d_model)

    dwo = concat.T @ g
    dhead = (g @ wo.T).reshape(n, length, heads, d_k).transpose(0, 2, 1, 3)
    dqkv = np.empty((n, length, 3, heads, d_k), dtype=grad_out.dtype)
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    dv[...] = attn.swapaxes(-1, -2) @ dhead
    dscore = dhead @ v.swapaxes(-1, -2)
    # softmax backward per row, then undo the score scaling
    dscore -= _reduce_last(np.add, dscore * attn)
    dscore *= attn
    dscore *= _score_scale(d_k, dscore.dtype)
    dq[...] = dscore @ k
    dk[...] = dscore.swapaxes(-1, -2) @ q

    dqkv = dqkv.reshape(n * length, 3 * d_model)
    dw = x.reshape(n * length, d_model).T @ dqkv               # [D, 3D]
    dwq, dwk, dwv = np.ascontiguousarray(
        dw.reshape(d_model, 3, heads, d_k).transpose(1, 2, 0, 3))
    dx = (dqkv @ w_qkv.T).reshape(x.shape)
    # the skip add routes grad_out to the input unchanged, beside attention
    return grad_out + dx, dwq, dwk, dwv, dwo


def layernorm_forward(x, gamma, beta):
    """Normalize each position's channel vector to zero mean, unit variance."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, (xhat, inv, gamma)


def layernorm_backward(cache, grad_out):
    """Returns (dx, dgamma): no dbeta, as `bnd1` cancels beta (`model.Net`)."""
    xhat, inv, gamma = cache
    c = grad_out.shape[-1]
    axes = tuple(range(grad_out.ndim - 1))
    dgamma = (grad_out * xhat).sum(axis=axes)
    dxhat = grad_out * gamma
    dx = (inv / c) * (
        c * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dgamma


def global_average_pool_forward(x):
    """Mean over positions, accumulated and returned in float64 whatever
    x's dtype: the one source of the head's float64, so the dense head
    computes in float64 on its float32 tensors and a row scored alone
    rounds like its chunk. Caches the length and x's dtype."""
    if x.shape[1] < 1:
        raise ValueError("global average pool needs at least one position")
    return x.mean(axis=1, dtype=np.float64), (x.shape[1], x.dtype)


def global_average_pool_backward(cache, grad_out):
    """The float64 head gradient spread evenly over the positions, cast to
    the forward input's dtype, so the float32 trunk runs its backward pass
    in float32 too."""
    length, dtype = cache
    n, c = grad_out.shape
    # a C-order buffer: astype of the broadcast view would keep its
    # position-minor strides, and the layers below would sum in another order
    grad_x = np.empty((n, length, c), dtype=dtype)
    grad_x[...] = grad_out[:, None, :] / length
    return grad_x


def sigmoid_forward(x):
    """Output unit: [N, 1] logits to [N] probabilities, cached for backward."""
    z = x[:, 0]
    # piecewise form avoids overflow in exp for large |z|
    probs = np.empty_like(z)
    pos = z >= 0
    probs[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    probs[~pos] = ez / (1.0 + ez)
    return probs, probs


def sigmoid_backward(probs, grad_out):
    return (grad_out * probs * (1.0 - probs))[:, None]


def dense_forward(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[-1]} does not match {w.shape}")
    return x @ w + b, (x, w)


def dense_backward(cache, grad_out):
    x, w = cache
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(x, rng):
    """Inverted dropout at DROPOUT_RATE: survivors are scaled by
    1/(1-DROPOUT_RATE), so infer mode is an exact identity and never calls
    this (`model.Net.infer_layers`)."""
    mask = rng.random(x.shape) >= DROPOUT_RATE
    return x * mask / (1.0 - DROPOUT_RATE), mask


def dropout_backward(mask, grad_out):
    return grad_out * mask / (1.0 - DROPOUT_RATE)
