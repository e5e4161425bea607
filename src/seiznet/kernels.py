"""Hot numeric kernels: batched 1D convolution and max-pooling, in numpy.

Conventions: x is [N, L, C_in] float64, w is [K, C_in, C_out] with K odd,
zero "same" padding of (K-1)//2 per side, so output length equals L.

A convolution runs as one GEMM over an im2col patch matrix when that matrix
is no wider than the output (K * C_in <= C_out, the single-channel first
stage); a per-tap loop would multiply with an inner dimension of C_in = 1
there. Wider inputs keep the per-tap loop, which never materialises the
K-times larger patch matrix. The choice follows from the shapes alone, and
every path is deterministic for a fixed input.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pad(x, k_size):
    n, length, c_in = x.shape
    pad = (k_size - 1) // 2
    xp = np.zeros((n, length + k_size - 1, c_in), dtype=x.dtype)
    xp[:, pad:pad + length, :] = x
    return xp


def _use_im2col(k_size, c_in, c_out):
    return k_size * c_in <= c_out


def _im2col(xp, k_size, length):
    """[N*L, C_in*K] patch matrix; column c*K + k holds xp[:, i+k, c]."""
    n, _, c_in = xp.shape
    windows = sliding_window_view(xp, k_size, axis=1)  # [N, L, C_in, K] view
    return np.ascontiguousarray(windows).reshape(n * length, c_in * k_size)


def _w_as_matrix(w):
    """[K, C_in, C_out] -> [C_in*K, C_out], rows ordered as _im2col columns."""
    k_size, c_in, c_out = w.shape
    return w.transpose(1, 0, 2).reshape(c_in * k_size, c_out)


def conv1d_forward(x, w, b):
    """out[n,i,o] = b[o] + sum_{k,c} x[n, i+k-pad, c] * w[k,c,o] (zero padded)."""
    n, length, c_in = x.shape
    k_size, _, c_out = w.shape
    xp = _pad(x, k_size)
    if _use_im2col(k_size, c_in, c_out):
        out = _im2col(xp, k_size, length) @ _w_as_matrix(w)
        out = out.reshape(n, length, c_out)
        out += b
        return out
    out = np.empty((n, length, c_out), dtype=x.dtype)
    out[...] = b
    for k in range(k_size):
        out += xp[:, k:k + length, :] @ w[k]
    return out


def conv1d_backward(x, w, grad_out):
    """Returns (grad_x, grad_w, grad_b) of conv1d_forward."""
    n, length, c_in = x.shape
    k_size, _, c_out = w.shape
    pad = (k_size - 1) // 2
    xp = _pad(x, k_size)
    go_flat = grad_out.reshape(n * length, c_out)

    grad_b = go_flat.sum(axis=0)
    if _use_im2col(k_size, c_in, c_out):
        gw = _im2col(xp, k_size, length).T @ go_flat          # [C_in*K, C_out]
        grad_w = np.ascontiguousarray(gw.reshape(c_in, k_size, c_out).transpose(1, 0, 2))
    else:
        grad_w = np.empty_like(w)
        for k in range(k_size):
            grad_w[k] = xp[:, k:k + length, :].reshape(n * length, c_in).T @ go_flat

    gxp = np.zeros_like(xp)
    for k in range(k_size):
        gxp[:, k:k + length, :] += (go_flat @ w[k].T).reshape(n, length, c_in)
    grad_x = gxp[:, pad:pad + length, :]
    return grad_x, grad_w, grad_b


def _pairs(x):
    """The even and odd positions of each pooled pair, as strided views."""
    half = x.shape[1] // 2
    return x[:, 0:2 * half:2, :], x[:, 1:2 * half:2, :]


def maxpool_forward(x):
    """Pool size 2, floor semantics: out[:, i] = max(x[:, 2i], x[:, 2i+1]).
    A NaN in either position gives a NaN output."""
    return np.maximum(*_pairs(x))


def maxpool_index(x):
    """The winners of maxpool_forward(x) as a bool array, True where the odd
    position x[:, 2i+1] is strictly larger; ties and NaNs resolve to the
    lower index."""
    even, odd = _pairs(x)
    return odd > even


def maxpool_backward(grad_out, idx, length):
    """Routes each pooled gradient to the position that won in the forward
    pass; the other position and an odd length's last position get zero."""
    n, half, c = grad_out.shape
    grad_x = np.zeros((n, length, c), dtype=grad_out.dtype)
    # multiply into strided views: faster than np.where or np.copyto(where=)
    np.multiply(grad_out, ~idx, out=grad_x[:, 0:2 * half:2, :])
    np.multiply(grad_out, idx, out=grad_x[:, 1:2 * half:2, :])
    return grad_x
