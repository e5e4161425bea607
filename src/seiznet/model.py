"""Model assembly: configuration, the layer list, parameter initialization,
and the full forward/backward passes.

Architecture: three [Conv -> BatchNorm -> ReLU -> MaxPool] stages, multi-head
self-attention over the final feature map combined through an additive skip
connection, LayerNorm, global average pooling, then two [Dense -> BatchNorm
-> ReLU -> Dropout] blocks and a single sigmoid output unit. `Net` writes
that order down once; everything else loops over its list.

Each conv stage runs its max-pool ahead of its ReLU, so the ReLU touches
half the positions. The two orders are the same function bit for bit:
max(relu(a), relu(b)) == relu(max(a, b)), NaN included, and ReLU never
outputs -0.0. Their gradients agree too: the pool sends a tie to the even
position, so a pair of non-positive inputs gets a zero gradient either way.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import layers, parallel
from .dataset import N_FEATURES

CHUNK_ROWS = 64  # rows per infer-mode forward pass in predict_probs
# predict_probs scores an input of at least this many chunks in two processes
SPLIT_SCORE_CHUNKS = 16
CONV_KERNELS = (7, 5, 3)  # the paper's kernel size per conv stage, each odd


@dataclass(frozen=True)
class ModelConfig:
    input_len: int = N_FEATURES
    conv_filters: tuple = (32, 64, 128)
    attn_heads: int = 4
    dense_units: tuple = (128, 64)

    def __post_init__(self):
        sizes = (self.input_len, *self.conv_filters, self.attn_heads, *self.dense_units)
        if any(n < 1 for n in sizes):
            raise ValueError("input_len, conv_filters, attn_heads and dense_units "
                             "must be at least 1")
        if len(self.conv_filters) != len(CONV_KERNELS):
            raise ValueError(f"conv_filters must have {len(CONV_KERNELS)} entries, "
                             f"one per conv stage, got {len(self.conv_filters)}")
        # the heads split the skip connection's width evenly
        if self.conv_filters[-1] % self.attn_heads:
            raise ValueError(f"attn_heads must divide the final conv channel count "
                             f"({self.conv_filters[-1]})")
        if self.input_len // 2 ** len(self.conv_filters) < 1:
            raise ValueError("input too short for the pooling cascade")

    @cached_property
    def net(self):
        """This configuration's network, built on first use and kept."""
        return Net(self)


def toy_config():
    """Small configuration for fast gradient checks (`gradcheck`). Its pools
    see lengths 28, 14 and 7, so the odd-length floor path runs, and its
    attention runs 2 heads of width 2."""
    return ModelConfig(input_len=28, conv_filters=(2, 3, 4), attn_heads=2, dense_units=(4, 2))


# Tensor roles. A tensor's role alone decides whether gradients update it,
# whether the L2 penalty covers it and how `Net.init_params` starts it.
KERNEL, PROJ, SHIFT, SCALE, MEAN, VAR = "kernel", "proj", "shift", "scale", "mean", "var"
CANCELLED = "cancelled"  # a shift that a later normalisation cancels: never learns


class Layer:
    """One step of the network: `layers.<op>_forward` and `<op>_backward`
    applied with the layer's own tensors.

    Each keyword gives a tensor, named `<layer name>_<keyword>`, as (role,
    shape). `shapes` and `roles` map the names, in artifact order, to their
    shapes and roles; `learnable` lists those that receive gradients.
    forward(params, x, rng) returns (y, cache); backward(cache, g) returns
    (g w.r.t. x, {learnable tensor name: gradient}). `<op>_backward` returns
    the input gradient, then one gradient per tensor in declaration order,
    up to the last it computes. backward(cache, g, input_grad=False) passes
    input_grad=False on to an op that takes it, `conv1d`, the network's
    first; the input gradient is then None. The functions are looked up on
    `layers` at call time, so a function patched there is the one every
    layer runs.
    """

    def __init__(self, name, op, **tensors):
        self.name, self.op = name, op
        self.shapes = {f"{name}_{key}": shape for key, (_, shape) in tensors.items()}
        self.roles = {f"{name}_{key}": role for key, (role, _) in tensors.items()}
        self.learnable = [n for n, r in self.roles.items() if r not in (MEAN, VAR, CANCELLED)]

    def tensors(self, params):
        return [params[n] for n in self.shapes]

    def forward(self, params, x, rng):
        return getattr(layers, f"{self.op}_forward")(x, *self.tensors(params))

    def backward(self, cache, g, input_grad=True):
        skip = {} if input_grad else {"input_grad": False}
        out = getattr(layers, f"{self.op}_backward")(cache, g, **skip)
        if not self.shapes:  # tensor-free ops return the input gradient alone
            return out, {}
        grads = dict(zip(self.shapes, out[1:]))
        missing = [n for n in self.learnable if n not in grads]
        if missing:
            raise ValueError(f"{self.op}_backward returns no gradient for {missing}")
        return out[0], {n: grads[n] for n in self.learnable}


def batch_norm(name, c):
    """A batch norm over c channels. Train mode only: `Net.fold` folds it
    into the layer before it for infer mode."""
    return Layer(name, "batchnorm", gamma=(SCALE, (c,)), beta=(SHIFT, (c,)),
                 mean=(MEAN, (c,)), var=(VAR, (c,)))


def attention(name, heads, d):
    """Multi-head self-attention over width d plus its skip add; each of
    the `heads` heads is d // heads wide."""
    qkv = (PROJ, (heads, d, d // heads))
    return Layer(name, "mha", wq=qkv, wk=qkv, wv=qkv, wo=(PROJ, (d, d)))


class Dropout(Layer):
    """Train mode only: `Net.infer_layers` leaves out this identity. The one
    layer whose op takes the dropout generator, so the one subclass."""

    def __init__(self, name):
        super().__init__(name, "dropout")

    def forward(self, params, x, rng):
        return layers.dropout_forward(x, rng)


class Net:
    """The network a ModelConfig describes, built once per config object
    (`ModelConfig.net`). `layers` is the forward order train mode runs;
    `infer_layers` leaves out batch norm and dropout and runs on the tensors
    `fold` returns. `shapes` (artifact order) and `roles` are per tensor.
    Every tensor is stored in float32; the trunk computes in float32 and
    the head, from global average pooling on, in float64 (see
    `layers.global_average_pool_forward`). The shifts a batch norm's mean
    subtraction cancels (Ioffe & Szegedy 2015, arXiv:1502.03167, section
    3.2) are CANCELLED: each conv and hidden dense bias, and `ln_beta`
    through `gap` and `fc1`. They stay, so `model.bin` keeps its inventory."""

    def __init__(self, config: ModelConfig):
        net, c_in = [], 1
        for s, (f, k) in enumerate(zip(config.conv_filters, CONV_KERNELS), start=1):
            net += [Layer(f"conv{s}", "conv1d", w=(KERNEL, (k, c_in, f)),
                          b=(CANCELLED, (f,))),
                    batch_norm(f"bn{s}", f), Layer(f"pool{s}", "maxpool"),
                    Layer(f"relu{s}", "relu")]
            c_in = f
        net += [attention("attn", config.attn_heads, c_in),
                Layer("ln", "layernorm", gamma=(SCALE, (c_in,)), beta=(CANCELLED, (c_in,)))]
        net.append(Layer("gap", "global_average_pool"))
        width = c_in
        for i, units in enumerate(config.dense_units, start=1):
            net += [Layer(f"fc{i}", "dense", w=(KERNEL, (width, units)),
                          b=(CANCELLED, (units,))),
                    batch_norm(f"bnd{i}", units), Layer(f"relud{i}", "relu"),
                    Dropout(f"drop{i}")]
            width = units
        out = len(config.dense_units) + 1
        net += [Layer(f"fc{out}", "dense", w=(KERNEL, (width, 1)), b=(SHIFT, (1,))),
                Layer("probs", "sigmoid")]
        self.layers = net
        self.infer_layers = [m for m in net if m.op not in ("batchnorm", "dropout")]
        self.shapes = {n: s for layer in net for n, s in layer.shapes.items()}
        self.roles = {n: r for layer in net for n, r in layer.roles.items()}
        self.learnable = [n for layer in net for n in layer.learnable]
        self.l2 = [n for n, role in self.roles.items() if role == KERNEL]

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        """Kernels and attention projections uniform in +-sqrt(6 / fan_in),
        drawn in float64 and artifact order from one generator seeded with
        `seed`; scales and running variances 1; shifts, cancelled shifts
        and running means 0. Every tensor is returned in float32."""
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in self.shapes.items():
            role = self.roles[name]
            if role in (KERNEL, PROJ):
                # conv [K, C_in, C_out] and dense [in, out]; attention [H, D, d_k] or [D, D]
                fan_in = int(np.prod(shape[:-1])) if role == KERNEL else shape[-2]
                limit = np.sqrt(6.0 / fan_in)
                params[name] = rng.uniform(-limit, limit, size=shape)
            else:
                params[name] = np.full(shape, 1.0 if role in (SCALE, VAR) else 0.0)
        return {name: a.astype(np.float32) for name, a in params.items()}

    def fold(self, params):
        """The tensors `infer_layers` read, as a read-only mapping: each
        batch norm folded into the conv1d or dense layer before it (Jacob et
        al. 2018, arXiv:1712.05877, section 3.2), in its tensors' own dtype.
        params is not changed."""
        folded = dict(params)
        for prev, layer in zip(self.layers, self.layers[1:]):
            if layer.op == "batchnorm":
                w, b = prev.shapes
                folded[w], folded[b] = layers.batchnorm_fold(
                    *prev.tensors(params), *layer.tensors(params))
        return MappingProxyType(folded)


def model_forward(config, params, batch, mode="infer", dropout_rng=None):
    """Run the network on a batch of signals.

    batch: [N, input_len] or [N, input_len, 1]. Returns (probs, trace);
    trace is the list of (layer, cache) pairs in forward order, which
    model_backward walks, and None in infer mode. Train mode requires a
    dropout_rng; infer mode requires params to be what `config.net.fold`
    returned, so batch norm is never skipped. An output that is not finite
    is returned as it is; the callers decide what it means. The
    batch is cast to the dtype of the first layer's kernel, so the trunk
    runs in the dtype of the tensors passed: float32 for `init_params`,
    `fold` and `load_artifact` tensors (training and inference), float64
    for the upcast tensors `gradcheck` passes. From global average pooling
    on, the head runs in float64 either way.
    """
    x = np.asarray(batch, dtype=config.net.layers[0].tensors(params)[0].dtype)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.shape[1] != config.input_len or x.shape[2] != 1:
        raise ValueError(f"batch shape {x.shape} does not match input ({config.input_len}, 1)")
    train = mode == "train"
    if train and dropout_rng is None:
        raise ValueError("train mode needs a dropout rng")
    if not train and not isinstance(params, MappingProxyType):
        raise TypeError("infer mode needs the tensors config.net.fold returns")
    trace = [] if train else None
    for layer in config.net.layers if train else config.net.infer_layers:
        x, cache = layer.forward(params, x, dropout_rng)
        if train:
            trace.append((layer, cache))
    return x, trace


def model_backward(trace, grad_probs):
    """Gradients of every learnable tensor, given the train trace and
    dLoss/dprobs. The first layer is asked for its tensors' gradients only:
    nothing reads the gradient of the network's input."""
    grads, g = {}, grad_probs
    for i in range(len(trace) - 1, -1, -1):
        layer, cache = trace[i]
        g, layer_grads = layer.backward(cache, g, input_grad=i > 0)
        grads.update(layer_grads)
    return grads


def predict_probs(config, params, features):
    """Infer-mode probabilities, folded once, run CHUNK_ROWS rows at a time.
    No infer-mode layer mixes rows, so a row whose output is not finite
    leaves every other row's finite.

    An input of at least SPLIT_SCORE_CHUNKS chunks is scored by two
    processes (`_score_split`) where `parallel.can_fork` and the loaded
    OpenBLAS reports at least 2 threads, which it can set. The split falls
    on a chunk boundary, so every chunk holds the rows it holds in one
    process. The features are used in the dtype given: `model_forward`
    casts each chunk to float32, so a float32 matrix is never copied."""
    x = np.asarray(features)
    folded = config.net.fold(params)
    chunks = -(-x.shape[0] // CHUNK_ROWS)
    probs = None
    if chunks >= SPLIT_SCORE_CHUNKS and parallel.can_fork():
        blas = parallel.openblas_threads()
        if blas is not None and blas[0]() >= 2:
            probs = _score_split(config, folded, x, (chunks + 1) // 2 * CHUNK_ROWS, *blas)
    return _score(config, folded, x) if probs is None else probs


def _score(config, folded, x):
    """The probabilities of the rows of x, CHUNK_ROWS rows per forward pass."""
    parts = [model_forward(config, folded, x[start:start + CHUNK_ROWS], mode="infer")[0]
             for start in range(0, x.shape[0], CHUNK_ROWS)]
    return np.concatenate(parts) if parts else np.empty(0)


def _score_split(config, folded, x, mid, get_threads, set_threads):
    """The probabilities of the rows of x, scored by two processes at once,
    each with half of OpenBLAS's threads: a child forked by
    `parallel.forked` scores rows mid on and writes their float64 bytes
    into a pipe while this process scores the rows before mid, then reads
    them. None when no process can be forked.

    When the child sends too little, as it does when it raised or died,
    this process scores its rows itself, with the same thread count. The
    thread count is restored before this returns or raises. OpenBLAS's
    second thread buys this model little, because most of its time goes
    to numpy's single-threaded ops, so one thread in each of two processes
    scores faster than two threads in one."""
    threads = get_threads()
    probs = np.empty(x.shape[0])
    back = probs[mid:]
    set_threads(threads // 2)
    try:
        with parallel.forked(lambda out: out.write(_score(config, folded, x[mid:]))) as pipe:
            if pipe is None:
                return None
            probs[:mid] = _score(config, folded, x[:mid])
            received = pipe.readinto(back) == back.nbytes
        if not received:
            back[:] = _score(config, folded, x[mid:])
    finally:
        set_threads(threads)
    return probs
