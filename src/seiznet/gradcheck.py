"""Finite-difference verification of the analytic gradients.

Each check builds a small random instance, reduces the layer output to a
scalar through a fixed random projection, and compares the backward pass
against central differences with h = 1e-4 * max(1, |theta|). The relative
error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
"""

import numpy as np

from . import model, optim
from .model import CANCELLED, KERNEL, SCALE, SHIFT, Dropout, Layer, attention, batch_norm

H_SCALE = 1e-4
LAYER_BOUND = 1e-4
MODEL_BOUND = 1e-3
SEED = 0  # draws every instance; the model check draws its batch from SEED + 1


def relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def numeric_gradient(f, arr):
    """Central differences of the scalar f() with respect to arr, in place."""
    grad = np.zeros_like(arr)
    for ix in np.ndindex(arr.shape):
        orig = arr[ix]
        h = H_SCALE * max(1.0, abs(orig))
        arr[ix] = orig + h
        fp = f()
        arr[ix] = orig - h
        fm = f()
        arr[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * h)
    return grad


def _worst(f, pairs):
    return max(relative_error(g, numeric_gradient(f, arr)) for arr, g in pairs)


# row name -> (small instance of a model layer, input shape)
LAYER_CASES = {
    "conv1d": (Layer("conv", "conv1d", w=(KERNEL, (3, 2, 3)), b=(CANCELLED, (3,))), (2, 12, 2)),
    "batchnorm": (batch_norm("bn", 2), (4, 6, 2)),
    # odd length exercises the floor path
    "maxpool": (Layer("pool", "maxpool"), (2, 9, 3)),
    # attention plus its skip add
    "mha": (attention("attn", 2, 8), (2, 5, 8)),
    "layernorm": (Layer("ln", "layernorm", gamma=(SCALE, (5,)), beta=(CANCELLED, (5,))),
                  (3, 4, 5)),
    "global_avg_pool": (Layer("gap", "global_average_pool"), (2, 6, 3)),
    "dense": (Layer("fc", "dense", w=(KERNEL, (6, 3)), b=(SHIFT, (3,))), (4, 6)),
    "dropout": (Dropout("drop"), (3, 50)),
    "sigmoid": (Layer("probs", "sigmoid"), (5, 1)),
}


def check_layer(name):
    """Train-mode check of one LAYER_CASES row: the input and every
    learnable tensor against central differences. Train mode never reads
    batch-norm running statistics, so every tensor is drawn at random."""
    layer, x_shape = LAYER_CASES[name]
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(x_shape)
    params = {n: 0.5 * rng.standard_normal(s) for n, s in layer.shapes.items()}

    def run():
        # a fresh generator per call keeps the dropout mask fixed
        return layer.forward(params, x, np.random.default_rng(7))

    y, cache = run()
    r = rng.standard_normal(y.shape)

    def f():
        return float((run()[0] * r).sum())

    gx, grads = layer.backward(cache, r)
    return _worst(f, [(x, gx)] + [(params[n], grads[n]) for n in layer.learnable])


def check_model():
    """End-to-end check of the toy model through the full training loss,
    in float64 throughout."""
    cfg = model.toy_config()
    params = {n: a.astype(np.float64) for n, a in cfg.net.init_params(SEED).items()}
    rng = np.random.default_rng(SEED + 1)
    x = rng.standard_normal((3, cfg.input_len))
    y = np.array([0.0, 1.0, 1.0])

    def loss_fn():
        probs, _ = model.model_forward(cfg, params, x, "train",
                                       dropout_rng=np.random.default_rng(11))
        return optim.bce_loss(probs, y)[0] + optim.l2_penalty(cfg, params)

    _, _, grads = optim.loss_and_grads(cfg, params, x, y, np.random.default_rng(11))
    return _worst(loss_fn, [(params[n], grads[n]) for n in cfg.net.learnable])


def run_all():
    """All layer checks plus the end-to-end model check.

    Returns a list of (name, max relative error, bound) rows.
    """
    rows = [(name, check_layer(name), LAYER_BOUND) for name in LAYER_CASES]
    return rows + [("model_end_to_end", check_model(), MODEL_BOUND)]
