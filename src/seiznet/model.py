"""Model assembly: configuration, the layer list, parameter initialization,
and the full forward/backward passes.

Architecture: three [Conv -> BatchNorm -> ReLU -> MaxPool] stages, multi-head
self-attention over the final feature map combined through an additive skip
connection, LayerNorm, global average pooling, then two [Dense -> BatchNorm
-> ReLU -> Dropout] blocks and a single sigmoid output unit. `network` writes
that order down once; everything else loops over its list.
"""

from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import NumericError


@dataclass(frozen=True)
class ModelConfig:
    input_len: int = 178
    conv_filters: tuple = (32, 64, 128)
    conv_kernels: tuple = (7, 5, 3)
    pool_size: int = 2
    attn_heads: int = 4
    attn_key_dim: int = 32
    dense_units: tuple = (128, 64)
    dropout_rate: float = 0.5
    l2_lambda: float = 0.001

    def __post_init__(self):
        if len(self.conv_filters) != len(self.conv_kernels):
            raise ValueError("conv_filters and conv_kernels must have equal length")
        if any(k % 2 == 0 or k < 1 for k in self.conv_kernels):
            raise ValueError("conv kernel sizes must be odd")
        if self.pool_size != 2:
            raise ValueError("only pool size 2 is supported")
        # head concatenation must match the skip connection width
        if self.attn_heads * self.attn_key_dim != self.conv_filters[-1]:
            raise ValueError(
                f"attn_heads * attn_key_dim must equal the final conv channel "
                f"count ({self.conv_filters[-1]})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.input_len // 2 ** len(self.conv_filters) < 1:
            raise ValueError("input too short for the pooling cascade")

    @property
    def attn_len(self):
        """Sequence length entering the attention block (178 -> 22)."""
        n = self.input_len
        for _ in self.conv_filters:
            n //= 2
        return n


def toy_config():
    """Small configuration for fast end-to-end gradient checks."""
    return ModelConfig(
        input_len=16,
        conv_filters=(2, 2, 2),
        conv_kernels=(7, 5, 3),
        attn_heads=1,
        attn_key_dim=2,
        dense_units=(4, 2),
    )


class Layer:
    """One step of the network: `layers.<op>_forward` and `<op>_backward`
    applied with the layer's own tensors.

    `shapes` maps the tensors, named `<layer name>_<suffix>`, to their shapes
    in artifact order. `learnable` names those that receive gradients
    (batch-norm running statistics do not) and `l2` the kernels (`_w`) under
    the weight penalty. forward(params, x, mode, rng) returns (y, cache);
    backward(cache, g) returns (g w.r.t. x, {tensor name: gradient}). The
    functions are looked up on `layers` at call time, so a function patched
    there is the one every layer runs.
    """

    def __init__(self, name, op=None, **shapes):
        self.name, self.op = name, op
        self.shapes = {f"{name}_{suffix}": s for suffix, s in shapes.items()}
        self.learnable = [n for n in self.shapes if not n.endswith(("_mean", "_var"))]
        self.l2 = [n for n in self.shapes if n.endswith("_w")]

    def tensors(self, params):
        return [params[n] for n in self.shapes]

    def forward(self, params, x, mode, rng):
        return getattr(layers, f"{self.op}_forward")(x, *self.tensors(params))

    def backward(self, cache, g):
        out = getattr(layers, f"{self.op}_backward")(cache, g)
        if not self.shapes:  # tensor-free ops return the input gradient alone
            return out, {}
        return out[0], dict(zip(self.learnable, out[1:]))


class BatchNorm(Layer):
    def __init__(self, name, c):
        super().__init__(name, "batchnorm", gamma=(c,), beta=(c,), mean=(c,), var=(c,))

    def forward(self, params, x, mode, rng):
        return layers.batchnorm_forward(x, *self.tensors(params), mode=mode)


class GlobalAvgPool(Layer):
    def __init__(self, name):
        super().__init__(name, "global_average_pool")

    def forward(self, params, x, mode, rng):
        return layers.global_average_pool(x)


class Dropout(Layer):
    def __init__(self, name, rate):
        super().__init__(name, "dropout")
        self.rate = rate

    def forward(self, params, x, mode, rng):
        return layers.dropout_forward(x, self.rate, mode, rng)


class Attention(Layer):
    """Multi-head self-attention added back onto its input (the skip)."""

    def __init__(self, name, heads, d, d_k):
        qkv = (heads, d, d_k)
        super().__init__(name, "mha", wq=qkv, wk=qkv, wv=qkv, wo=(d, d))

    def forward(self, params, x, mode, rng):
        attn, cache = super().forward(params, x, mode, rng)
        return x + attn, cache

    def backward(self, cache, g):
        # the skip add routes the same gradient to the input and attention
        g_attn, grads = super().backward(cache, g)
        return g + g_attn, grads


class Sigmoid(Layer):
    """Output unit: [N, 1] logits to [N] probabilities, cached for backward."""

    def forward(self, params, x, mode, rng):
        probs = layers.sigmoid(x[:, 0])
        return probs, probs

    def backward(self, probs, g):
        return (g * probs * (1.0 - probs))[:, None], {}


def network(config: ModelConfig) -> list[Layer]:
    """The layers in forward order; a layer's name is its trace key."""
    net, c_in = [], 1
    for s, (f, k) in enumerate(zip(config.conv_filters, config.conv_kernels), start=1):
        net += [Layer(f"conv{s}", "conv1d", w=(k, c_in, f), b=(f,)),
                BatchNorm(f"bn{s}", f), Layer(f"relu{s}", "relu"),
                Layer(f"pool{s}", "maxpool")]
        c_in = f
    net += [Attention("attn", config.attn_heads, c_in, config.attn_key_dim),
            Layer("ln", "layernorm", gamma=(c_in,), beta=(c_in,)), GlobalAvgPool("gap")]
    width = c_in
    for i, units in enumerate(config.dense_units, start=1):
        net += [Layer(f"fc{i}", "dense", w=(width, units), b=(units,)),
                BatchNorm(f"bnd{i}", units), Layer(f"relud{i}", "relu"),
                Dropout(f"drop{i}", config.dropout_rate)]
        width = units
    out = len(config.dense_units) + 1
    net += [Layer(f"fc{out}", "dense", w=(width, 1), b=(1,)), Sigmoid("probs")]
    return net


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every tensor's shape, fully determined by the configuration.

    Keys ending in _mean/_var are batch-norm running statistics: part of the
    model state and the serialized artifact, but not touched by gradients.
    """
    return {n: s for layer in network(config) for n, s in layer.shapes.items()}


def param_names(config: ModelConfig) -> list[str]:
    return list(param_shapes(config))


def learnable_names(config: ModelConfig) -> list[str]:
    return [n for layer in network(config) for n in layer.learnable]


def l2_names(config: ModelConfig) -> list[str]:
    """Conv and dense kernels: the only tensors the L2 penalty covers."""
    return [n for layer in network(config) for n in layer.l2]


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform weights, zero biases, identity norm parameters."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("_w", "_wq", "_wk", "_wv", "_wo")):
            fan_in = int(np.prod(shape[:-1])) if name.startswith("conv") else shape[-2]
            limit = np.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith(("_gamma", "_var")):
            params[name] = np.ones(shape)
        else:  # biases, betas, running means
            params[name] = np.zeros(shape)
    return params


def model_forward(config, params, batch, mode="infer", dropout_rng=None):
    """Run the network on a batch of signals.

    batch: [N, input_len] or [N, input_len, 1]. Returns (probs, trace);
    trace maps each layer name to its cache and is None in infer mode. Train
    mode with a nonzero dropout rate requires a dropout_rng.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.shape[1] != config.input_len or x.shape[2] != 1:
        raise ValueError(f"batch shape {x.shape} does not match input ({config.input_len}, 1)")
    train = mode == "train"
    if train and config.dropout_rate > 0.0 and dropout_rng is None:
        raise ValueError("train mode needs a dropout rng")
    trace = {} if train else None
    for layer in network(config):
        x, cache = layer.forward(params, x, mode, dropout_rng)
        if train:
            trace[layer.name] = cache
    if not np.isfinite(x).all():
        raise NumericError("non-finite model output")
    return x, trace


def model_backward(config, params, trace, grad_probs):
    """Gradients of every learnable tensor, given dLoss/dprobs."""
    grads = {}
    g = grad_probs
    for layer in reversed(network(config)):
        g, layer_grads = layer.backward(trace[layer.name], g)
        grads.update(layer_grads)
    return grads


def predict_probs(config, params, features, chunk_size=256):
    """Infer-mode probabilities for a feature matrix, evaluated in chunks."""
    x = np.asarray(features, dtype=np.float64)
    parts = []
    for start in range(0, x.shape[0], chunk_size):
        p, _ = model_forward(config, params, x[start:start + chunk_size], mode="infer")
        parts.append(p)
    return np.concatenate(parts) if parts else np.empty(0)
