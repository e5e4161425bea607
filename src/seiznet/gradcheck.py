"""Finite-difference verification of the analytic gradients.

Each layer of the toy network (`model.toy_config`) is checked at the input
shape it sees there, with a random input and tensors: its output is reduced
to a scalar through a fixed random projection, and the backward pass is
compared against central differences with h = 1e-4 * max(1, |theta|). The
relative error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
"""

import numpy as np

from . import model, optim

H_SCALE = 1e-4
LAYER_BOUND = 1e-4
MODEL_BOUND = 1e-3
SEED = 0  # draws every check's input and tensors; the toy batch comes from SEED + 1


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


def _toy():
    """The toy config, its `init_params(SEED)` upcast to float64, and a
    batch of 3 drawn from SEED + 1."""
    cfg = model.toy_config()
    params = {n: a.astype(np.float64) for n, a in cfg.net.init_params(SEED).items()}
    return cfg, params, np.random.default_rng(SEED + 1).standard_normal((3, cfg.input_len))


def toy_layers():
    """{name: (layer, input shape)} for every layer of the toy network, in
    forward order, the shapes from one float64 train-mode pass."""
    cfg, params, x = _toy()
    x, rng, shapes = x[:, :, None], np.random.default_rng(11), {}
    for layer in cfg.net.layers:
        shapes[layer.name] = (layer, x.shape)
        x, _ = layer.forward(params, x, rng)
    return shapes


def check_layer(name):
    """Train-mode check of the toy layer called name, at the input shape
    it sees: the input and every learnable tensor against central
    differences. Train mode never reads batch-norm running statistics, so
    every tensor is drawn at random."""
    layer, x_shape = toy_layers()[name]
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
    cfg, params, x = _toy()
    y = np.array([0.0, 1.0, 1.0])

    def loss_fn():
        probs, _ = model.model_forward(cfg, params, x, "train",
                                       dropout_rng=np.random.default_rng(11))
        return optim.bce_loss(probs, y)[0] + optim.l2_penalty(cfg, params)

    _, _, grads = optim.loss_and_grads(cfg, params, x, y, np.random.default_rng(11))
    return _worst(loss_fn, [(params[n], grads[n]) for n in cfg.net.learnable])


def run_all():
    """A check of each toy layer plus the end-to-end model check.

    Returns a list of (name, max relative error, bound) rows.
    """
    rows = [(name, check_layer(name), LAYER_BOUND) for name in toy_layers()]
    return rows + [("model_end_to_end", check_model(), MODEL_BOUND)]
