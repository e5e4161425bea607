"""Finite-difference verification of the analytic gradients.

Each check builds a small random instance, reduces the layer output to a
scalar through a fixed random projection, and compares the backward pass
against central differences with h = 1e-4 * max(1, |theta|). The relative
error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
"""

import numpy as np

from . import model, optim

H_SCALE = 1e-4
LAYER_BOUND = 1e-4
MODEL_BOUND = 1e-3


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
    "conv1d": (model.Layer("conv", "conv1d", w=(3, 2, 3), b=(3,)), (2, 12, 2)),
    "batchnorm": (model.BatchNorm("bn", 2), (4, 6, 2)),
    # odd length exercises the floor path
    "maxpool": (model.Layer("pool", "maxpool"), (2, 9, 3)),
    # attention plus its skip add
    "mha": (model.Attention("attn", 2, 8, 4), (2, 5, 8)),
    "layernorm": (model.Layer("ln", "layernorm", gamma=(5,), beta=(5,)), (3, 4, 5)),
    "global_avg_pool": (model.GlobalAvgPool("gap"), (2, 6, 3)),
    "dense": (model.Layer("fc", "dense", w=(6, 3), b=(3,)), (4, 6)),
    "dropout": (model.Dropout("drop", 0.4), (3, 50)),
    "sigmoid": (model.Sigmoid("probs"), (5, 1)),
}


def check_layer(name, seed=0):
    """Train-mode check of one LAYER_CASES row: the input and every
    learnable tensor against central differences. Train mode never reads
    batch-norm running statistics, so every tensor is drawn at random."""
    layer, x_shape = LAYER_CASES[name]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape)
    params = {n: 0.5 * rng.standard_normal(s) for n, s in layer.shapes.items()}

    def run():
        # a fresh generator per call keeps the dropout mask fixed
        return layer.forward(params, x, "train", np.random.default_rng(7))

    y, cache = run()
    r = rng.standard_normal(y.shape)

    def f():
        return float((run()[0] * r).sum())

    gx, grads = layer.backward(cache, r)
    return _worst(f, [(x, gx)] + [(params[n], grads[n]) for n in layer.learnable])


def check_model(seed=0):
    """End-to-end check of the toy model through the full training loss."""
    cfg = model.toy_config()
    params = model.init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((3, cfg.input_len))
    y = np.array([0.0, 1.0, 1.0])
    keys = model.l2_names(cfg)

    def loss_fn():
        probs, _ = model.model_forward(cfg, params, x, "train",
                                       dropout_rng=np.random.default_rng(11))
        loss, _ = optim.bce_loss(probs, y, params, cfg.l2_lambda, keys)
        return loss

    probs, trace = model.model_forward(cfg, params, x, "train",
                                       dropout_rng=np.random.default_rng(11))
    _, grad_probs = optim.bce_loss(probs, y, params, cfg.l2_lambda, keys)
    grads = model.model_backward(cfg, params, trace, grad_probs)
    for k in keys:
        grads[k] = grads[k] + 2.0 * cfg.l2_lambda * params[k]
    return _worst(loss_fn, [(params[n], grads[n]) for n in model.learnable_names(cfg)])


def run_all(seed=0):
    """All layer checks plus the end-to-end model check.

    Returns a list of (name, max relative error, bound) rows.
    """
    rows = [(name, check_layer(name, seed), LAYER_BOUND) for name in LAYER_CASES]
    return rows + [("model_end_to_end", check_model(seed), MODEL_BOUND)]
