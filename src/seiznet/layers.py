"""Network layers: forward passes return (output, cache), backward passes
consume the cache and the upstream gradient. Arrays carry a leading batch
axis: conv/pool/attention work on [N, L, C], dense layers on [N, D].
"""

import numpy as np

from . import kernels


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(cache, grad_out):
    return grad_out * cache


def sigmoid(z):
    # piecewise form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
                      mode="train", momentum=0.9, eps=1e-5):
    """Normalize per channel over all leading axes.

    Train mode uses batch statistics and updates the running estimates in
    place (running <- momentum * running + (1 - momentum) * batch); infer
    mode reads the running estimates, applies them as one affine map and
    keeps no cache.
    """
    if mode != "train":
        scale = gamma / np.sqrt(running_var + eps)
        out = x * scale
        out += beta - running_mean * scale
        return out, None
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
    """Pool pairs of positions (size 2, floor semantics, ties to lower index)."""
    if x.shape[1] < 2:
        raise ValueError(f"maxpool needs sequence length >= 2, got {x.shape[1]}")
    out, idx = kernels.maxpool_forward(x)
    return out, (idx, x.shape[1])


def maxpool_backward(cache, grad_out):
    idx, length = cache
    return kernels.maxpool_backward(grad_out, idx, length)


def _softmax_rows(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mha_forward(x, wq, wk, wv, wo):
    """Multi-head self-attention.

    x: [N, L, D]; wq/wk/wv: [H, D, dk] with H * dk = D; wo: [D, D].
    Per head: A = rowsoftmax(Q K^T / sqrt(dk)), head output A V; heads are
    concatenated and passed through the output projection.
    """
    heads, d_model, d_k = wq.shape
    if x.shape[-1] != d_model or heads * d_k != d_model:
        raise ValueError(
            f"attention input width {x.shape[-1]} does not match projections "
            f"({heads} heads x {d_k})"
        )
    scale = 1.0 / np.sqrt(d_k)
    n, length, _ = x.shape
    concat = np.empty((n, length, d_model))
    qs, ks, vs, attns = [], [], [], []
    for h in range(heads):
        q = x @ wq[h]
        k = x @ wk[h]
        v = x @ wv[h]
        attn = _softmax_rows((q @ k.swapaxes(1, 2)) * scale)
        concat[:, :, h * d_k:(h + 1) * d_k] = attn @ v
        qs.append(q)
        ks.append(k)
        vs.append(v)
        attns.append(attn)
    out = concat @ wo
    return out, (x, qs, ks, vs, attns, concat, wq, wk, wv, wo)


def mha_backward(cache, grad_out):
    x, qs, ks, vs, attns, concat, wq, wk, wv, wo = cache
    heads, d_model, d_k = wq.shape
    scale = 1.0 / np.sqrt(d_k)
    n, length, _ = x.shape
    x_flat = x.reshape(n * length, d_model)

    dwo = concat.reshape(n * length, d_model).T @ grad_out.reshape(n * length, d_model)
    dconcat = grad_out @ wo.T
    dx = np.zeros_like(x)
    dwq = np.empty_like(wq)
    dwk = np.empty_like(wk)
    dwv = np.empty_like(wv)
    for h in range(heads):
        dhead = dconcat[:, :, h * d_k:(h + 1) * d_k]
        attn = attns[h]
        dattn = dhead @ vs[h].swapaxes(1, 2)
        dv = attn.swapaxes(1, 2) @ dhead
        # softmax backward per row, then undo the score scaling
        dscore = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscore *= scale
        dq = dscore @ ks[h]
        dk = dscore.swapaxes(1, 2) @ qs[h]
        dwq[h] = x_flat.T @ dq.reshape(n * length, d_k)
        dwk[h] = x_flat.T @ dk.reshape(n * length, d_k)
        dwv[h] = x_flat.T @ dv.reshape(n * length, d_k)
        dx += dq @ wq[h].T + dk @ wk[h].T + dv @ wv[h].T
    return dx, dwq, dwk, dwv, dwo


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Normalize each position's channel vector to zero mean, unit variance."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layernorm_backward(cache, grad_out):
    xhat, inv, gamma = cache
    c = grad_out.shape[-1]
    axes = tuple(range(grad_out.ndim - 1))
    dgamma = (grad_out * xhat).sum(axis=axes)
    dbeta = grad_out.sum(axis=axes)
    dxhat = grad_out * gamma
    dx = (inv / c) * (
        c * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def global_average_pool(x):
    if x.shape[1] < 1:
        raise ValueError("global average pool needs at least one position")
    return x.mean(axis=1), x.shape[1]


def global_average_pool_backward(length, grad_out):
    n, c = grad_out.shape
    return np.broadcast_to(grad_out[:, None, :] / length, (n, length, c)).copy()


def dense_forward(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[-1]} does not match {w.shape}")
    return x @ w + b, (x, w)


def dense_backward(cache, grad_out):
    x, w = cache
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(x, rate, mode, rng=None):
    """Inverted dropout: survivors are scaled by 1/(1-rate) during training,
    so infer mode is an exact identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode != "train" or rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), (mask, rate)


def dropout_backward(cache, grad_out):
    if cache is None:
        return grad_out
    mask, rate = cache
    return grad_out * mask / (1.0 - rate)
