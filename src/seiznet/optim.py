"""Loss, Adam optimizer, and the training loop with early stopping and
plateau learning-rate reduction.

Training is single-threaded and deterministic: one seeded generator drives
the epoch shuffles and dropout masks in a fixed consumption order, so
identical (data, hyperparameters, seed) reproduce identical histories.

Every tensor is stored in float32, as `Net.init_params` gives it. Each
gradient comes back in the dtype its layer computes in (float32 in the
trunk, float64 in the head). Adam is built for `net.learnable`: it fixes
each tensor's slice of one flat float32 vector and allocates its two
moments as such vectors when it is constructed. Each step gathers the
gradients into one such vector, which casts the head's gradients to
float32; training casts no tensor.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import partition_indices
from .errors import DataError, NumericError
from .metrics import THRESHOLD, EvalReport, compute_metrics, confusion
from .model import model_backward, model_forward, predict_probs

PROB_EPS = 1e-7
IMPROVE_TOL = 1e-4
L2_LAMBDA = 0.001  # weight of the squared conv and dense kernels in the loss
VAL_FRACTION = 0.1  # the share of the training rows `train` validates on
# plateau schedule: the rate is cut to max(lr * LR_FACTOR, MIN_LR) after
# every PATIENCE_LR epochs without improvement
PATIENCE_LR = 5
LR_FACTOR = 0.5
MIN_LR = 1e-5


@dataclass
class TrainHyper:
    """Training settings. `config.RunConfig` extends this class, so each of
    these fields is also a config key."""

    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    seed: int = 42
    patience_es: int = 10


def l2_penalty(config, params):
    """The weight penalty: L2_LAMBDA times the squared `config.net.l2` kernels."""
    return L2_LAMBDA * sum(float((params[k] ** 2).sum()) for k in config.net.l2)


def _finite(probs):
    """probs, unless a model output is not finite (NumericError)."""
    if not np.isfinite(probs).all():
        raise NumericError("non-finite model output")
    return probs


def bce_loss(probs, labels):
    """Mean binary cross-entropy: returns (loss, gradient w.r.t. probs)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise DataError(f"probs {probs.shape} and labels {labels.shape} differ in length")
    n = probs.shape[0]
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    data = -float(np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))
    grad = (p - labels) / (p * (1.0 - p)) / n
    return data, grad


class Adam:
    """Adam (Kingma & Ba 2015, arXiv:1412.6980), bias-corrected, EPS outside the root.

    Built for `tensors`, {name: array}, which each step updates in place.
    Each tensor owns a fixed slice of one flat vector in the tensors' common
    dtype; `m` and `v` are two such vectors, allocated here. A step gathers
    the gradients in the tensors' order and updates each moment in one pass.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr, tensors):
        self.lr = lr
        self.t = 0
        self.tensors = tensors
        self.slices, start = {}, 0
        for name, a in tensors.items():
            self.slices[name] = slice(start, start + a.size)
            start += a.size
        dtype = np.result_type(*tensors.values())
        self.m, self.v = np.zeros(start, dtype), np.zeros(start, dtype)

    def step(self, grads):
        if grads.keys() != self.tensors.keys():
            raise ValueError("gradient names differ from the tensors'; step aborted")
        for name, a in self.tensors.items():
            if grads[name].shape != a.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
        g = np.concatenate([grads[name].ravel() for name in self.tensors], dtype=self.m.dtype)
        if not np.isfinite(g).all():
            bad = next(n for n, part in self.slices.items() if not np.isfinite(g[part]).all())
            raise NumericError(f"non-finite gradient for {bad}; step aborted")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        m, v = self.m, self.v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * g
        v *= self.BETA2
        v += (1.0 - self.BETA2) * (g * g)
        update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
        for name, a in self.tensors.items():
            a -= update[self.slices[name]].reshape(a.shape)


def loss_and_grads(config, params, x, y, rng):
    """Train-mode loss (cross-entropy plus `l2_penalty`) on one batch, its
    probabilities, and the gradient of every learnable tensor, with the
    penalty's 2 * L2_LAMBDA * W added onto the `config.net.l2` kernels. rng draws
    the dropout masks. Each gradient comes back in the dtype its layer
    computes in (float32 in the trunk, float64 in the head); the batch-norm
    running statistics in params are updated in place."""
    probs, trace = model_forward(config, params, x, "train", dropout_rng=rng)
    data, grad_probs = bce_loss(_finite(probs), y)
    grads = model_backward(trace, grad_probs)
    for k in config.net.l2:
        grads[k] += 2.0 * L2_LAMBDA * params[k]
    return data + l2_penalty(config, params), probs, grads


def _batch_slices(n, batch_size, perm):
    """Index batches for one epoch; a trailing singleton is folded into the
    previous batch so batch normalization always sees at least 2 samples."""
    batches = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(config, features, labels, hyper: TrainHyper):
    """Fit the model; returns (params at the best validation epoch, history).
    history holds one row per epoch run: (epoch, train_loss, train_acc,
    val_loss, val_acc, lr), the lr being the one the epoch trained at. The
    best epoch is the first with the lowest val_loss. The features are used
    in the dtype given; `model_forward` casts each batch to float32, so a
    float32 matrix is never cast or copied."""
    x = np.asarray(features)
    y = np.asarray(labels, dtype=np.float64)
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    # partition_indices refuses zero rows and one class, and 0.9 of 2 or
    # more rows rounds to at least 2, the rows batch norm needs
    tr_idx, val_idx = partition_indices(y, 1.0 - VAL_FRACTION, hyper.seed)
    if len(np.unique(y[val_idx])) < 2:
        raise DataError(f"validation split holds {len(val_idx)} of {len(y)} rows at "
                        f"val_fraction = {VAL_FRACTION} and needs both classes; "
                        f"need more data")
    # batches are gathered from `x` by index; only the validation rows are
    # copied whole
    x_val, y_val = x[val_idx], y[val_idx]

    params = config.net.init_params(hyper.seed)
    adam = Adam(hyper.lr, {n: params[n] for n in config.net.learnable})
    rng = np.random.default_rng(hyper.seed)

    history, best_params = [], None
    best_val_loss, since_improvement = float("inf"), 0
    n_tr = len(tr_idx)

    for epoch in range(1, hyper.max_epochs + 1):
        perm = rng.permutation(n_tr)
        loss_sum = 0.0
        correct = 0
        for idx in _batch_slices(n_tr, hyper.batch_size, perm):
            rows = tr_idx[idx]
            xb, yb = x[rows], y[rows]
            loss, probs, grads = loss_and_grads(config, params, xb, yb, rng)
            adam.step(grads)
            loss_sum += loss * len(idx)
            correct += int(((probs > THRESHOLD) == (yb == 1)).sum())

        val_probs = _finite(predict_probs(config, params, x_val))
        val_loss = bce_loss(val_probs, y_val)[0] + l2_penalty(config, params)
        val_acc = float(((val_probs > THRESHOLD) == (y_val == 1)).mean())
        history.append((epoch, loss_sum / n_tr, correct / n_tr, val_loss, val_acc, adam.lr))

        improved = val_loss < best_val_loss - IMPROVE_TOL
        if val_loss < best_val_loss:
            # track the exact minimum for restore-best even when the drop is
            # below the improvement tolerance
            best_val_loss = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
        if improved:
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement % PATIENCE_LR == 0:
                adam.lr = max(adam.lr * LR_FACTOR, MIN_LR)
            if since_improvement >= hyper.patience_es:
                break

    if best_params is not None:
        params = best_params
    return params, history


def evaluate(config, params, features, labels) -> EvalReport:
    """Infer-mode confusion matrix at `metrics.THRESHOLD`, plus all six metrics."""
    x = np.asarray(features)
    if x.shape[0] == 0:
        raise DataError("cannot evaluate an empty dataset")
    probs = _finite(predict_probs(config, params, x))
    return compute_metrics(confusion(probs, np.asarray(labels)))
