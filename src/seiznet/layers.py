"""Network layers: each op is a pair `<op>_forward`, returning (output,
cache), and `<op>_backward`, consuming the cache and the upstream gradient;
`model.Layer` finds both by that name. Arrays carry a leading batch axis:
conv/pool/attention work on [N, L, C], dense layers on [N, D].
"""

import numpy as np

from . import kernels

BN_EPS = 1e-5


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


def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      momentum=0.9, eps=BN_EPS):
    """Normalize per channel over all leading axes with the batch statistics,
    and update the running estimates in place (running <- momentum * running
    + (1 - momentum) * batch).

    This is the training pass. Infer mode never calls it: the model folds
    the running estimates into the conv or dense layer before each
    batch norm (`model.Net.fold`).
    """
    if x.shape[0] < 2:
        raise ValueError("batchnorm train mode needs a batch of at least 2")
    flat = x.reshape(-1, x.shape[-1])
    m = flat.shape[0]
    mean = flat.mean(axis=0)
    xhat = flat - mean
    var = np.einsum("ij,ij->j", xhat, xhat) / m
    running_mean[:] = momentum * running_mean + (1.0 - momentum) * mean
    running_var[:] = momentum * running_var + (1.0 - momentum) * var
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out.reshape(x.shape), (xhat.reshape(x.shape), inv, gamma)


def batchnorm_backward(cache, grad_out):
    """Exact gradient of the train-mode forward, including the dependence of
    the batch statistics on x. With m rows per channel:

        dx = (gamma * inv / m) * (m * dy - sum(dy) - xhat * sum(dy * xhat))
           = (gamma * inv / m) * (m * dy - dbeta - xhat * dgamma)
    """
    xhat, inv, gamma = cache
    c = grad_out.shape[-1]
    dy = grad_out.reshape(-1, c)
    xhat = xhat.reshape(-1, c)
    m = dy.shape[0]
    dbeta = dy.sum(axis=0)
    dgamma = np.einsum("ij,ij->j", dy, xhat)
    dx = dy * m
    dx -= dbeta
    dx -= xhat * dgamma
    dx *= gamma * inv / m
    return dx.reshape(grad_out.shape), dgamma, dbeta


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


def _softmax_rows(scores):
    """Softmax over the last axis, in place."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _split_heads(qkv, n, length, heads):
    """[N*L, 3D] projections -> (q, k, v) views, each [N, H, L, dk]."""
    d_k = qkv.shape[1] // (3 * heads)
    return qkv.reshape(n, length, 3, heads, d_k).transpose(2, 0, 3, 1, 4)


def mha_forward(x, wq, wk, wv, wo):
    """Multi-head self-attention.

    x: [N, L, D]; wq/wk/wv: [H, D, dk] with H * dk = D; wo: [D, D].
    Per head: A = rowsoftmax(Q K^T / sqrt(dk)), head output A V; heads are
    concatenated and passed through the output projection. Q, K and V of
    every head come from one [N*L, D] @ [D, 3D] product; the cache keeps the
    attention weights [N, H, L, L] at index 4.
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
    attn *= 1.0 / np.sqrt(d_k)
    _softmax_rows(attn)
    concat = (attn @ v).transpose(0, 2, 1, 3).reshape(n * length, d_model)
    out = (concat @ wo).reshape(x.shape)
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
    dscore -= (dscore * attn).sum(axis=-1, keepdims=True)
    dscore *= attn
    dscore *= 1.0 / np.sqrt(d_k)
    dq[...] = dscore @ k
    dk[...] = dscore.swapaxes(-1, -2) @ q

    dqkv = dqkv.reshape(n * length, 3 * d_model)
    dw = x.reshape(n * length, d_model).T @ dqkv               # [D, 3D]
    dwq, dwk, dwv = np.ascontiguousarray(
        dw.reshape(d_model, 3, heads, d_k).transpose(1, 2, 0, 3))
    dx = (dqkv @ w_qkv.T).reshape(x.shape)
    return dx, dwq, dwk, dwv, dwo


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Normalize each position's channel vector to zero mean, unit variance."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
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


def dropout_forward(x, rate, rng):
    """Inverted dropout: survivors are scaled by 1/(1-rate), so infer mode
    is an exact identity and never calls this (`model.Net.infer_layers`)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), (mask, rate)


def dropout_backward(cache, grad_out):
    if cache is None:
        return grad_out
    mask, rate = cache
    return grad_out * mask / (1.0 - rate)
