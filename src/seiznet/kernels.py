"""Hot numeric kernels: batched 1D convolution and max-pooling, in numpy.

Conventions: x is [N, L, C_in], w is [K, C_in, C_out] with K odd, zero
"same" padding of (K-1)//2 per side, so output length equals L. Every
buffer takes its dtype from the arrays passed in, so the kernels run in
float32 or float64 alike.

Every convolution, at every shape, runs its forward pass and grad_w as one
GEMM over an im2col patch matrix (Chellapilla et al. 2006). The patch matrix
is tap-major: column k*C_in + c holds tap k of channel c. That is the row
order of w viewed as [K*C_in, C_out], so neither w nor grad_w is transposed.
Each patch row is also one contiguous K*C_in run of the padded input, so the
matrix is built by a block copy; a channel-major matrix gathers with stride
C_in and takes 2-3.5x as long to build on wide inputs. grad_x
(`conv1d_grad_x`) is a per-tap loop of GEMMs into a padded buffer. Training
calls `conv1d_grad_w` once per shard of a batch (`layers.Shards`) and
`conv1d_grad_x` once on every row; `conv1d_backward` is the two of them
over every row of x. Every result is deterministic for a fixed input.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _im2col(x, k_size):
    """[N*L, K*C_in] patch matrix of the zero-padded x; column k*C_in + c
    holds x[:, i+k-pad, c]."""
    n, length, c_in = x.shape
    pad = (k_size - 1) // 2
    xp = np.zeros((n, length + k_size - 1, c_in), dtype=x.dtype)
    xp[:, pad:pad + length, :] = x
    windows = sliding_window_view(xp, k_size, axis=1).transpose(0, 1, 3, 2)  # [N, L, K, C_in]
    return np.ascontiguousarray(windows).reshape(n * length, k_size * c_in)


def per_row(v, rows):
    """v, one value per channel, tiled along `rows`, a one-row-per-sample
    view of [N, ..., C]: entry j of a row is channel j % C. numpy applies a
    vector along a long axis much faster than along a short channel axis,
    and each element gets the same single add or multiply as in the
    broadcast form, so the bits are the same. The row is filled by one
    broadcast copy into its [L, C] view, 2.5x as fast as np.tile."""
    out = np.empty(rows.shape[1], dtype=v.dtype)
    out.reshape(-1, v.shape[0])[...] = v
    return out


def conv1d_forward(x, w, b):
    """out[n,i,o] = b[o] + sum_{k,c} x[n, i+k-pad, c] * w[k,c,o] (zero padded).
    The bias is added as one tiled [L*C_out] row per sample (`per_row`)."""
    n, length, _ = x.shape
    k_size, c_in, c_out = w.shape
    out = (_im2col(x, k_size) @ w.reshape(k_size * c_in, c_out)).reshape(n, length * c_out)
    out += per_row(b, out)
    return out.reshape(n, length, c_out)


def conv1d_grad_w(x, grad_out, k_size):
    """grad_w of conv1d_forward, [K, C_in, C_out]: one GEMM of the patch
    matrix's transpose with grad_out."""
    n, length, c_in = x.shape
    c_out = grad_out.shape[2]
    go_flat = grad_out.reshape(n * length, c_out)
    return (_im2col(x, k_size).T @ go_flat).reshape(k_size, c_in, c_out)


def conv1d_grad_x(w, grad_out):
    """grad_x of conv1d_forward, [N, L, C_in]: one GEMM per tap, each added
    into a zero-padded buffer at the tap's offset."""
    n, length, c_out = grad_out.shape
    k_size, c_in, _ = w.shape
    pad = (k_size - 1) // 2
    go_flat = grad_out.reshape(n * length, c_out)
    gxp = np.zeros((n, length + k_size - 1, c_in), dtype=np.result_type(w, grad_out))
    for k in range(k_size):
        gxp[:, k:k + length, :] += (go_flat @ w[k].T).reshape(n, length, c_in)
    return gxp[:, pad:pad + length, :]


def conv1d_backward(x, w, grad_out):
    """Returns (grad_x, grad_w) of conv1d_forward. No grad_b: every conv
    bias sits ahead of a batch norm, which cancels it, so none learns."""
    return conv1d_grad_x(w, grad_out), conv1d_grad_w(x, grad_out, w.shape[0])


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
    grad_x = np.empty((n, length, c), dtype=grad_out.dtype)
    # multiply into strided views: faster than np.where or np.copyto(where=)
    np.multiply(grad_out, ~idx, out=grad_x[:, 0:2 * half:2, :])
    np.multiply(grad_out, idx, out=grad_x[:, 1:2 * half:2, :])
    grad_x[:, 2 * half:, :] = 0.0  # the only position neither half writes
    return grad_x
