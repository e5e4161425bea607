"""Loss, Adam optimizer, and the training loop with early stopping and
plateau learning-rate reduction.

Training is deterministic: one seeded generator drives the epoch shuffles
and dropout masks in a fixed consumption order, so identical (data,
hyperparameters, seed) reproduce identical histories. Each batch is cut
into two shards (`layers.Shards`), so a run gives the same bits in one
process and in two, one per shard (`train`).

Every tensor is stored in float32, as `Net.init_params` gives it. Each
gradient comes back in the dtype its layer computes in (float32 in the
trunk, float64 in the head). Adam is built for `net.learnable`: it fixes
each tensor's slice of one flat float32 vector and allocates its two
moments as such vectors when it is constructed. Each step gathers the
gradients into one such vector, which casts the head's gradients to
float32; training casts no tensor.
"""

import contextlib
import os
import select
import time
from dataclasses import dataclass

import numpy as np

from . import layers, parallel
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
# how long a training process polls the pipe for the other process's
# message before it sleeps on it (`_Link.recv`)
SPIN_S = 0.002


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
    """Mean binary cross-entropy: returns (loss, gradient w.r.t. probs). The
    mean's sum is taken as over a training batch (`layers.Shards`): the sum
    over the first ceil(n / 2) rows plus the sum over the rest."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise DataError(f"probs {probs.shape} and labels {labels.shape} differ in length")
    n = probs.shape[0]
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    terms = labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
    data = -float(layers.Shards(n).total(np.sum, terms) / n)
    return data, _bce_grad(p, labels, n)


def _bce_grad(p, labels, n):
    """The gradient of the mean cross-entropy over n rows w.r.t. the
    clipped probabilities p of some of them, each row's alone."""
    return (p - labels) / (p * (1.0 - p)) / n


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


def batch_gradients(config, params, x, y, rng, shards=None):
    """The train-mode probabilities of all of one batch's rows, and the
    gradient of every learnable tensor of its loss (cross-entropy plus
    `l2_penalty`, whose 2 * L2_LAMBDA * W goes onto the `config.net.l2`
    kernels), but not the loss. y holds the batch's labels and x its rows
    `shards.rows` (all of them when shards, a `layers.Shards`, is None).
    rng draws the dropout masks. Each gradient comes back in the dtype its
    layer computes in (float32 in the trunk, float64 in the head); the
    batch-norm running statistics in params are updated in place."""
    shards = shards or layers.Shards(len(y))
    probs, trace = model_forward(config, params, x, "train", dropout_rng=rng, shards=shards)
    p = np.clip(_finite(probs), PROB_EPS, 1.0 - PROB_EPS)
    grads = model_backward(trace, _bce_grad(p, y[shards.rows], shards.n), shards)
    probs = shards.gather(probs)
    for k in config.net.l2:
        grads[k] += 2.0 * L2_LAMBDA * params[k]
    return probs, grads


def _batch_slices(n, batch_size, perm):
    """Index batches for one epoch; a trailing singleton is folded into the
    previous batch so batch normalization always sees at least 2 samples."""
    batches = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


class _PeerLost(Exception):
    """The other training process died, or sent too little."""


class _Link:
    """This process's ends of the pipes between the two training processes,
    the streams `parallel.forked` yields, used through their file
    descriptors: `b` is True in the child, which trains shard B of every
    batch, and False in the parent, which trains shard A."""

    def __init__(self, b, inp, out):
        self.b, self.rfd, self.wfd = b, inp.fileno(), out.fileno()
        os.set_blocking(self.rfd, False)

    def send(self, a):
        view = memoryview(a).cast("B")
        try:
            while view:
                view = view[os.write(self.wfd, view):]
        except BrokenPipeError:
            raise _PeerLost from None

    def recv(self, a):
        """a, filled with the other process's next message. The pipe is
        polled for up to SPIN_S before this process sleeps on it: a step
        waits on the other process three times per batch norm and once at
        its end (16 times in the default network), mostly for well under
        SPIN_S, and on a virtual machine waking a sleeping process's CPU
        costs tens of microseconds. Each poll yields the CPU, which the
        other process gets when the two share one."""
        view, deadline = memoryview(a).cast("B"), None
        while view:
            try:
                n = os.readv(self.rfd, [view])
            except BlockingIOError:
                deadline = deadline or time.perf_counter() + SPIN_S
                if time.perf_counter() < deadline:
                    os.sched_yield()
                else:
                    select.select([self.rfd], [], [])
                continue
            if n == 0:
                raise _PeerLost
            view = view[n:]
        return a

    def swap(self, mine, theirs):
        """Send `mine` and read the other process's message into `theirs`.
        The child sends first. The parent does too when its message fits
        an empty pipe (select.PIPE_BUF bytes; the child's is then no
        larger), and otherwise reads first, so neither process blocks on a
        full pipe while the other does."""
        if self.b or mine.nbytes <= select.PIPE_BUF:
            self.send(mine)
            return self.recv(theirs)
        self.recv(theirs)
        self.send(mine)
        return theirs


def _start(config, hyper):
    """(params, Adam, generator) at the start of training."""
    params = config.net.init_params(hyper.seed)
    adam = Adam(hyper.lr, {n: params[n] for n in config.net.learnable})
    return params, adam, np.random.default_rng(hyper.seed)


def _epoch(config, params, adam, rng, x, y, tr_idx, batch_size, link=None):
    """One epoch of steps over the rows tr_idx of (x, y), each batch cut
    into `layers.Shards` over `link`. Yields each batch's (probs, labels)
    ahead of its Adam step, so the loss is taken on the step's params."""
    for idx in _batch_slices(len(tr_idx), batch_size, rng.permutation(len(tr_idx))):
        rows = tr_idx[idx]
        shards = layers.Shards(len(rows), link)
        probs, grads = batch_gradients(config, params, x[rows[shards.rows]], y[rows], rng,
                                       shards)
        yield probs, y[rows]
        adam.step(grads)


def train(config, features, labels, hyper: TrainHyper):
    """Fit the model; returns (params at the best validation epoch, history).
    history holds one row per epoch run: (epoch, train_loss, train_acc,
    val_loss, val_acc, lr), the lr being the one the epoch trained at. The
    best epoch is the first with the lowest val_loss. The features are used
    in the dtype given; `model_forward` casts each batch to float32, so a
    float32 matrix is never cast or copied.

    Training runs under `parallel.halved`: this process trains shard A of
    every batch and a forked child shard B (`_train_child`), exchanging
    sums through pipes (`layers.Shards` over a `_Link`); only this process
    takes the loss and validates, while the child waits for the next
    epoch's lr. When no child is forked, or it dies or sends too little,
    this process trains both shards alone, from the start, to the same
    bits."""
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
    val = x[val_idx], y[val_idx]
    with parallel.halved() as two:
        with (parallel.forked(lambda inp, out: _train_child(
                config, x, y, tr_idx, hyper, _Link(True, inp, out)))
              if two else contextlib.nullcontext()) as ends:
            if ends is not None:
                with contextlib.suppress(_PeerLost):
                    return _fit(config, x, y, tr_idx, val, hyper, _Link(False, *ends))
        return _fit(config, x, y, tr_idx, val, hyper)


def _train_child(config, x, y, tr_idx, hyper, link):
    """The child's side of two-process `train`: shard B of every batch of each
    epoch, at the lr the parent sends before it; it takes no loss. It never
    returns: it ends when the parent's pipe does (`_PeerLost`) or when the
    parent kills it."""
    params, adam, rng = _start(config, hyper)
    lr = np.empty(1)
    while True:
        adam.lr = float(link.recv(lr)[0])
        for _ in _epoch(config, params, adam, rng, x, y, tr_idx, hyper.batch_size, link):
            pass


def _fit(config, x, y, tr_idx, val, hyper, link=None):
    """The training loop: `train`'s (params, history). With `link`, this is
    the parent of two-process `train`: it trains shard A of every batch and
    sends the child each epoch's lr before the epoch."""
    x_val, y_val = val
    params, adam, rng = _start(config, hyper)
    history, best_params = [], None
    best_val_loss, since_improvement = float("inf"), 0
    n_tr = len(tr_idx)

    for epoch in range(1, hyper.max_epochs + 1):
        if link is not None:
            link.send(np.array([adam.lr]))
        loss_sum, correct = 0.0, 0
        for probs, yb in _epoch(config, params, adam, rng, x, y, tr_idx, hyper.batch_size,
                                link):
            loss_sum += (bce_loss(probs, yb)[0] + l2_penalty(config, params)) * len(yb)
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
