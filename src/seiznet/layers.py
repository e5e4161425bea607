"""Network layers: each op is a pair `<op>_forward`, returning (output,
cache), and `<op>_backward`, consuming the cache and the upstream gradient;
`model.Layer` finds both by that name. Arrays carry a leading batch axis:
conv/pool/attention work on [N, L, C], dense layers on [N, D].

Every op is a function of the rows it is given, but for `batchnorm` and
`dropout_forward`, which take the batch's `Shards`: a batch norm's
statistics and gradients are sums over the whole batch, and dropout draws
the whole batch's mask. Given none, they treat the rows given as the whole
batch, held by one process.
"""

import numpy as np

from . import kernels
from .kernels import per_row

BN_EPS = 1e-5  # batch norm's variance floor, in train mode and in `batchnorm_fold`
BN_MOMENTUM = 0.9  # weight of the old running statistics in each update
LN_EPS = 1e-5  # layer norm's variance floor
DROPOUT_RATE = 0.5  # share of units each train-mode dropout zeroes


class Shards:
    """A train-mode batch of `n` rows, cut into two fixed shards: rows
    [0, mid) (shard A) and [mid, n) (shard B), mid = ceil(n / 2). Every
    layer but batch norm and dropout runs once per shard (`model.Layer`),
    and every sum over the rows is shard A's plus shard B's, so a batch
    gets the same bits in one process, holding both shards, as in two,
    holding one each (`optim.train`). There `link` is the pipe to the other
    process (`optim._Link`, `b` being True in shard B's process)."""

    def __init__(self, n, link=None):
        self.n, self.mid, self.link, self.parts = n, (n + 1) // 2, link, []
        self.rows = (slice(0, n) if link is None
                     else slice(self.mid, n) if link.b else slice(0, self.mid))

    def split(self, a):
        """`a`, the rows this process holds, as a list of one view per shard."""
        return [a[:self.mid], a[self.mid:]] if self.link is None else [a]

    def _ordered(self, mine, theirs):
        return (theirs, mine) if self.link.b else (mine, theirs)

    def total(self, fn, *arrays):
        """fn(shard A's rows of `arrays`) + fn(shard B's): a sum the pass
        needs at once, such as a batch norm's statistics."""
        sums = [fn(*rows) for rows in zip(*map(self.split, arrays))]
        if self.link is not None:
            sums = self._ordered(sums[0], self.link.swap(sums[0], np.empty_like(sums[0])))
        return sums[0] + sums[1]

    def part(self, sums):
        """A weight gradient's A + B, given its sum over each shard this
        process holds. Nothing reads it before the step ends, so a process
        holding one shard adds the other's in `gather`."""
        if self.link is None:
            return sums[0] + sums[1]
        self.parts.append(sums[0])
        return sums[0]

    def gather(self, probs):
        """The probabilities of all the batch's rows, given those of the rows
        this process holds; in the same message, each `part` gets the other
        shard's sum added in place."""
        if self.link is None:
            return probs
        mine = np.concatenate([np.ravel(a).view(np.uint8) for a in (*self.parts, probs)])
        their_rows = self.n - len(probs)
        theirs = self.link.swap(mine, np.empty(mine.nbytes + 8 * (their_rows - len(probs)),
                                               np.uint8))
        at = 0
        for part in self.parts:
            np.add(*self._ordered(part, np.frombuffer(theirs, part.dtype, part.size, at)
                                  .reshape(part.shape)), out=part)
            at += part.nbytes
        return np.concatenate(self._ordered(probs, np.frombuffer(theirs, np.float64,
                                                                  their_rows, at)))


def _column_sums(a):
    """Per-channel sums of [..., C] as one GEMV: a ones vector times the
    [m, C] view."""
    flat = a.reshape(-1, a.shape[-1])
    return np.ones(flat.shape[0], dtype=a.dtype) @ flat


def _column_dots(a, b):
    """Per-channel sums of a * b, both [..., C]."""
    c = a.shape[-1]
    return np.einsum("ij,ij->j", a.reshape(-1, c), b.reshape(-1, c))


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


def conv1d_backward(cache, grad_out, input_grad=True):
    """(grad_x, grad_w); with input_grad False, (None, grad_w), which skips
    grad_x's per-tap GEMMs for a layer whose input gradient nothing reads."""
    x, w = cache
    if grad_out.shape != (x.shape[0], x.shape[1], w.shape[2]):
        raise ValueError(f"conv grad shape {grad_out.shape} does not match forward")
    grad_w = kernels.conv1d_grad_w(x, grad_out, w.shape[0])
    return (kernels.conv1d_grad_x(w, grad_out) if input_grad else None), grad_w


def batchnorm_forward(x, gamma, beta, running_mean, running_var, shards=None):
    """Normalize per channel over all leading axes with the batch statistics,
    and update the running estimates in place (running <- BN_MOMENTUM *
    running + (1 - BN_MOMENTUM) * batch).

    The statistics are `Shards.total`s over the batch's m rows per channel,
    x holding the rows `shards.rows`: the mean from per-channel sums (one
    GEMV per shard, `_column_sums`), then the variance from the sum of
    squares of the centred array, never E[x^2] - E[x]^2. out = xc *
    (gamma * inv) + beta is applied to the one-row-per-sample view. Caches
    (xc, inv, gamma), xc the centred input.

    This is the training pass. Infer mode never calls it: the model folds
    the running estimates into the conv or dense layer before each
    batch norm (`batchnorm_fold`, called by `model.Net.fold`).
    """
    shards = shards or Shards(len(x))
    if shards.n < 2:
        raise ValueError("batchnorm train mode needs a batch of at least 2")
    m = shards.n * (x[0].size // x.shape[-1])
    mean = shards.total(_column_sums, x) / m
    rows = x.reshape(x.shape[0], -1)
    xc = rows - per_row(mean, rows)
    var = shards.total(lambda a: _column_dots(a, a), xc.reshape(x.shape)) / m
    running_mean[:] = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    running_var[:] = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    out = xc * per_row(gamma * inv, rows)
    out += per_row(beta, rows)
    return out.reshape(x.shape), (xc.reshape(x.shape), inv, gamma)


def batchnorm_backward(cache, grad_out, shards=None):
    """Exact gradient of the train-mode forward, including the dependence of
    the batch statistics on x. With m rows per channel, xhat = xc * inv and
    S = sum(dy * xc):

        dx = (gamma * inv / m) * (m * dy - sum(dy) - xhat * sum(dy * xhat))
           = a * dy - b * xc - c,  a = gamma * inv,
             b = a * inv * dgamma / m,  c = a * dbeta / m

    with dgamma = inv * S and dbeta = sum(dy), a GEMV like the forward mean.
    dbeta and S are one `Shards.total`, taken as one [2, C] array.
    """
    xc, inv, gamma = cache
    shards = shards or Shards(len(grad_out))
    m = shards.n * (grad_out[0].size // inv.shape[0])
    dbeta, s = shards.total(lambda dy, xcs: np.stack([_column_sums(dy), _column_dots(dy, xcs)]),
                            grad_out, xc)
    dgamma = inv * s
    a = gamma * inv
    rows = grad_out.reshape(grad_out.shape[0], -1)
    dx = rows * per_row(a, rows)
    dx -= xc.reshape(rows.shape) * per_row(a * inv * dgamma / m, rows)
    dx -= per_row(a * dbeta / m, rows)
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


def _softmax_keys(s):
    """Softmax of key-major scores s[j, ...] over the keys j (axis 0), in
    place. The max and the sum reduce over axis 0, which numpy runs as one
    elementwise op per key row, left to right: the max is exact in any
    order, and each query's sum depends only on its own column, so a query
    scored alone gives the bits it gives inside any batch, which a GEMV with
    a ones vector need not do on every BLAS kernel. The subtract, exp and
    divide run along rows of N*H*L contiguous values."""
    s -= np.maximum.reduce(s, axis=0)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=0)
    return s


def _score_scale(d_k, dtype):
    """1/sqrt(dk) as a scalar of the scores' dtype. A float64 scalar would
    make NumPy 2 (NEP 50) multiply float32 scores in float64 and round back,
    at about 7x the cost of the float32 multiply NumPy 1.x did."""
    return dtype.type(1.0 / np.sqrt(d_k))


def _split_heads(qkv, n, length, heads):
    """[N*L, 3D] projections -> (q, k, v) views, each [N, H, L, dk]."""
    d_k = qkv.shape[1] // (3 * heads)
    return qkv.reshape(n, length, 3, heads, d_k).transpose(2, 0, 3, 1, 4)


def _key_major(a, b):
    """s[j, n, h, i] = a[n, h, j] . b[n, h, i], an [Lk, N, H, Lq] buffer
    filled by one batched GEMM, a @ b^T, written through a transposed view."""
    s = np.empty((a.shape[2], *b.shape[:3]), dtype=np.result_type(a, b))
    np.matmul(a, b.swapaxes(-1, -2), out=s.transpose(1, 2, 0, 3))
    return s


def mha_forward(x, wq, wk, wv, wo):
    """Multi-head self-attention added back onto its input: the skip
    connection is part of the op, so it returns x + attention(x).

    x: [N, L, D]; wq/wk/wv: [H, D, dk] with H * dk = D; wo: [D, D].
    Per head: A = softmax over the keys of Q K^T / sqrt(dk), head output
    A V; heads are concatenated and passed through the output projection.
    Q, K and V of every head come from one [N*L, D] @ [D, 3D] product. The
    scores are scaled by 1/sqrt(dk) in their own dtype and held key-major,
    one [L, N, H, L] buffer with s[j, n, h, i] = q_i . k_j, so the softmax
    reduces over axis 0 and runs its elementwise passes along long
    contiguous rows (`_softmax_keys`). The head products are written
    straight into the [N, L, H, dk] concat buffer. The cache keeps the
    attention weights at index 4, as an [N, H, Lq, Lk] view.
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
    s = _key_major(k, q)
    s *= _score_scale(d_k, s.dtype)
    attn = _softmax_keys(s).transpose(1, 2, 3, 0)
    concat = np.empty((n, length, heads, d_k), dtype=qkv.dtype)
    np.matmul(attn, v, out=concat.transpose(0, 2, 1, 3))
    concat = concat.reshape(n * length, d_model)
    out = (concat @ wo).reshape(x.shape)
    out += x
    return out, (x, w_qkv, qkv, concat, attn, wo)


def mha_backward(cache, grad_out):
    """(dx, dwq, dwk, dwv, dwo); dwq, dwk and dwv are views of one [D, 3D]
    product."""
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
    np.matmul(attn.swapaxes(-1, -2), dhead, out=dv)
    # softmax backward per query, key-major like the forward scores, then
    # undo the score scaling
    s = attn.transpose(3, 0, 1, 2)  # the key-major forward buffer
    ds = _key_major(v, dhead)
    ds -= np.add.reduce(ds * s, axis=0)
    ds *= s
    ds *= _score_scale(d_k, ds.dtype)
    np.matmul(ds.transpose(1, 2, 3, 0), k, out=dq)
    np.matmul(ds.transpose(1, 2, 0, 3), q, out=dk)

    dqkv = dqkv.reshape(n * length, 3 * d_model)
    # the [D, 3D] product laid out as [3, H, D, dk]
    dwq, dwk, dwv = np.ascontiguousarray(
        (x.reshape(n * length, d_model).T @ dqkv)
        .reshape(d_model, 3, heads, d_k).transpose(1, 2, 0, 3))
    dx = (dqkv @ w_qkv.T).reshape(x.shape)
    # the skip add routes grad_out to the input unchanged, beside attention
    dx += grad_out
    return dx, dwq, dwk, dwv, dwo


def layernorm_forward(x, gamma, beta):
    """Normalize each position's channel vector to zero mean, unit variance,
    then scale by gamma and shift by beta, each applied as one tiled row
    per sample (`per_row`)."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    rows = xhat.reshape(xhat.shape[0], -1)
    out = rows * per_row(gamma, rows)
    out += per_row(beta, rows)
    return out.reshape(x.shape), (xhat, inv, gamma)


def layernorm_backward(cache, grad_out):
    """Returns (dx, dgamma): no dbeta, as `bnd1`
    cancels beta (`model.Net`). With dxhat = grad_out * gamma (one tiled
    row per sample, `per_row`):

        dx = (inv / c) * (c * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))

    evaluated in place in dxhat, in that order of operations."""
    xhat, inv, gamma = cache
    c = grad_out.shape[-1]
    axes = tuple(range(grad_out.ndim - 1))
    dgamma = (grad_out * xhat).sum(axis=axes)
    rows = grad_out.reshape(grad_out.shape[0], -1)
    dx = (rows * per_row(gamma, rows)).reshape(grad_out.shape)
    sum_dxhat = dx.sum(axis=-1, keepdims=True)
    sum_dxhat_xhat = (dx * xhat).sum(axis=-1, keepdims=True)
    dx *= c
    dx -= sum_dxhat
    dx -= xhat * sum_dxhat_xhat
    dx *= inv / c
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
    """x @ w + b."""
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[-1]} does not match {w.shape}")
    return x @ w + b, (x, w)


def dense_backward(cache, grad_out):
    """(grad_x, grad_w, grad_b)."""
    x, w = cache
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(x, rng, shards=None):
    """Inverted dropout at DROPOUT_RATE: survivors are scaled by
    1/(1-DROPOUT_RATE), so infer mode is an exact identity and never calls
    this (`model.Net.infer_layers`). The mask is drawn for the whole batch
    and cut to the rows x holds, `shards.rows`, so a process holding one
    shard draws what one holding both does."""
    shards = shards or Shards(len(x))
    mask = rng.random((shards.n, *x.shape[1:]))[shards.rows] >= DROPOUT_RATE
    return x * mask / (1.0 - DROPOUT_RATE), mask


def dropout_backward(mask, grad_out):
    return grad_out * mask / (1.0 - DROPOUT_RATE)
