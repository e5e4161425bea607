import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import seiznet
from seiznet import gradcheck, kernels, layers, optim, parallel
from seiznet.artifact import save_artifact
from seiznet.cli import main
from seiznet.dataset import partition_indices, synthesize
from seiznet.errors import DataError, NumericError
from seiznet.model import (CANCELLED, MEAN, VAR, ModelConfig, model_backward, model_forward,
                           predict_probs, toy_config)
from seiznet.optim import Adam, TrainHyper, bce_loss, evaluate, l2_penalty, train
from seiznet.preprocess import apply_scaler, fit_scaler, wavelet_denoise
from test_cli import OPENBLAS_KERNEL_SKIP
from test_model import assert_no_child_left, one_dtype, split_skip_reason


def prepared_synthetic(n_per_class, seed=7):
    ds = synthesize(n_per_class, seed=seed)
    x = wavelet_denoise(ds.features, "universal")
    x = apply_scaler(x, fit_scaler(x))
    return x, ds.labels.astype(float)


class TestBceLoss:
    def test_half_probability(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(0.69315, abs=1e-5)

    def test_perfect_prediction(self):
        loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert loss <= 1e-6

    def test_l2_with_perfect_predictions(self):
        cfg = ModelConfig()
        params = {n: np.zeros(s) for n, s in cfg.net.shapes.items()}
        params["fc1_w"][0, 0] = 2.0
        params["fc1_b"][0] = 5.0  # not a kernel: outside the penalty
        loss = bce_loss(np.array([1.0]), np.array([1.0]))[0] + l2_penalty(cfg, params)
        assert loss == pytest.approx(0.004, abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0.2, 0.8, 6)
        labels = (rng.random(6) > 0.5).astype(float)
        _, grad = bce_loss(probs, labels)
        for i in range(6):
            h = 1e-6
            up, dn = probs.copy(), probs.copy()
            up[i] += h
            dn[i] -= h
            num = (bce_loss(up, labels)[0] - bce_loss(dn, labels)[0]) / (2 * h)
            assert grad[i] == pytest.approx(num, rel=1e-5)

    def test_batch_gradients_add_the_penalty_onto_the_kernels(self):
        cfg = toy_config()
        params = cfg.net.init_params(0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, cfg.input_len))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        probs, grads = optim.batch_gradients(cfg, params, x, y, np.random.default_rng(3))
        # the data term alone, on the same batch and dropout masks
        probs0, trace = model_forward(cfg, params, x, "train",
                                      dropout_rng=np.random.default_rng(3))
        grads0 = model_backward(trace, bce_loss(probs0, y)[1])
        assert np.array_equal(probs, probs0)
        assert l2_penalty(cfg, params) > 0
        kernels = set(cfg.net.l2)
        assert kernels and set(grads) == set(grads0)
        for name, g in grads.items():
            if name in kernels:
                assert not np.array_equal(g, grads0[name]), name
                want = grads0[name] + 2.0 * optim.L2_LAMBDA * params[name]
            else:
                want = grads0[name]
            assert np.array_equal(g, want), name

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            bce_loss(np.ones(3) * 0.5, np.ones(2))


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.zeros(1)}
        Adam(0.001, params).step({"w": np.ones(1)})
        assert params["w"][0] == pytest.approx(-0.001, abs=1e-9)

    def test_zero_gradient_fixed_point(self):
        params = {"w": np.full(3, 0.7)}
        Adam(0.1, params).step({"w": np.zeros(3)})
        assert np.array_equal(params["w"], np.full(3, 0.7))

    def test_sign_symmetry(self):
        params = {"a": np.zeros(4), "b": np.zeros(4)}
        g = np.array([0.3, -1.2, 2.0, -0.1])
        Adam(0.01, params).step({"a": g, "b": -g})
        assert np.allclose(params["a"], -params["b"], atol=1e-15)

    def test_non_finite_gradient_aborts_before_mutation(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        opt = Adam(1e-3, params)
        bad = {"a": np.ones(2), "b": np.array([1.0, np.nan])}
        with pytest.raises(NumericError, match="b"):
            opt.step(bad)
        assert np.array_equal(params["a"], np.ones(2))
        assert opt.t == 0
        assert not opt.m.any() and not opt.v.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam(1e-3, {"w": np.ones(2)}).step({"w": np.ones(3)})

    def test_second_step_allocates_no_moments(self, monkeypatch):
        params = {"w": np.zeros(3, dtype=np.float32), "b": np.zeros(2)}
        grads = {"w": np.ones(3, dtype=np.float32), "b": np.ones(2)}
        calls = []
        real = np.zeros
        monkeypatch.setattr(np, "zeros", lambda *a, **k: calls.append(a) or real(*a, **k))
        opt = Adam(1e-3, params)
        # the moments are allocated once, when Adam is built for its tensors
        assert len(calls) == 2
        m, v = opt.m, opt.v
        assert m.shape == v.shape == (5,)
        opt.step(grads)
        opt.step(grads)
        assert len(calls) == 2
        assert opt.m is m and opt.v is v

    def test_steps_match_the_expression_form_bit_for_bit(self):
        """Adam's step must give the bits of the textbook expressions,
        evaluated in this order."""
        rng = np.random.default_rng(3)
        shapes = {"conv": (5, 1, 4), "fc": (4, 3), "gamma": (3,)}
        # tensors as small as a step, so the last bit of each update shows
        start = {n: (1e-3 * rng.standard_normal(s)).astype(np.float32)
                 for n, s in shapes.items()}
        params = {n: a.copy() for n, a in start.items()}
        opt = Adam(1e-3, params)
        ref = {n: a.copy() for n, a in start.items()}
        m = np.zeros(sum(a.size for a in ref.values()), np.float32)
        v = np.zeros_like(m)
        for t, lr in enumerate([1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4], start=1):
            # float64 gradients for the head, as the head computes them
            grads = {n: rng.standard_normal(s).astype(np.float32 if n == "conv" else np.float64)
                     for n, s in shapes.items()}
            opt.lr = lr
            opt.step(grads)
            g = np.concatenate([grads[n].ravel() for n in ref], dtype=np.float32)
            m *= Adam.BETA1
            m += (1.0 - Adam.BETA1) * g
            v *= Adam.BETA2
            v += (1.0 - Adam.BETA2) * (g * g)
            bc1, bc2 = 1.0 - Adam.BETA1 ** t, 1.0 - Adam.BETA2 ** t
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + Adam.EPS)
            for n, a in ref.items():
                a -= update[opt.slices[n]].reshape(a.shape)
            assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
            for n in ref:
                assert params[n].tobytes() == ref[n].tobytes(), (t, n)

    def test_moments_take_the_tensors_common_dtype(self):
        params = {"w32": np.zeros(3, dtype=np.float32), "head": np.zeros(3, dtype=np.float32)}
        opt = Adam(1e-3, params)
        assert opt.m.dtype == opt.v.dtype == np.float32
        # the head's gradient is float64 (it computes in float64) and its
        # tensor float32: it is gathered in float32
        opt.step({"w32": np.ones(3, dtype=np.float32), "head": np.ones(3)})
        assert opt.m.dtype == opt.v.dtype == np.float32
        assert {n: a.dtype for n, a in params.items()} == dict.fromkeys(params, np.float32)
        # the same step from the same gradient values, whatever their dtype
        assert np.array_equal(params["head"], params["w32"])
        np.testing.assert_allclose(params["head"], -opt.lr, rtol=1e-6)

        # a float64 tensor beside float32 ones makes the moments float64;
        # each tensor keeps its own dtype
        params = {"w": np.zeros(3), "w32": np.zeros(3, dtype=np.float32)}
        opt = Adam(1e-3, params)
        opt.step({"w": np.ones(3, dtype=np.float32), "w32": np.ones(3, dtype=np.float32)})
        assert opt.m.dtype == opt.v.dtype == np.float64
        assert params["w"].dtype == np.float64 and params["w32"].dtype == np.float32

    def test_flat_update_matches_a_per_tensor_reference(self):
        # three float32 steps on float32 tensors, float64 head gradients
        # among them, against Kingma & Ba's update run tensor by tensor
        rng = np.random.default_rng(4)
        shapes = {"conv_w": (3, 2, 4), "bn_gamma": (4,), "fc_w": (4, 2), "fc_b": (1,)}
        params = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        ref = {n: a.astype(np.float64) for n, a in params.items()}
        ref_m = {n: np.zeros(s) for n, s in shapes.items()}
        ref_v = {n: np.zeros(s) for n, s in shapes.items()}
        opt = Adam(1e-2, params)
        for t in range(1, 4):
            grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
            grads["conv_w"] = grads["conv_w"].astype(np.float32)
            opt.step(grads)
            for n, g in grads.items():
                ref_m[n] = 0.9 * ref_m[n] + 0.1 * g
                ref_v[n] = 0.999 * ref_v[n] + 0.001 * g * g
                ref[n] -= 1e-2 * (ref_m[n] / (1 - 0.9 ** t)) / (
                    np.sqrt(ref_v[n] / (1 - 0.999 ** t)) + 1e-8)
        assert opt.t == 3
        for n, a in params.items():
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, ref[n], rtol=1e-6, err_msg=n)

    @pytest.mark.parametrize("change", ["renamed", "resized", "dropped", "reordered"])
    def test_a_step_with_another_layout_is_refused_before_any_change(self, change):
        # Adam is built for its tensors, so only the gradients can differ;
        # a reordered dict names the same tensors and gives the same step
        def tensors():
            return {"a": np.ones(3, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}

        def gradients():
            return {"a": np.linspace(-1, 1, 3, dtype=np.float32),
                    "b": np.array([0.5, -2.0], dtype=np.float32)}

        params, grads = tensors(), gradients()
        opt = Adam(1e-3, params)
        opt.step(grads)
        if change == "renamed":
            grads["c"] = grads.pop("b")
        elif change == "resized":
            grads["b"] = np.ones(4, dtype=np.float32)
        elif change == "dropped":
            del grads["b"]
        else:
            grads = {"b": grads["b"], "a": grads["a"]}
            ref = tensors()
            ref_opt = Adam(1e-3, ref)
            ref_opt.step(gradients())
            ref_opt.step(gradients())
            opt.step(grads)
            assert opt.t == 2
            for n in ref:
                assert params[n].tobytes() == ref[n].tobytes(), n
            assert np.array_equal(opt.m, ref_opt.m) and np.array_equal(opt.v, ref_opt.v)
            return
        before = ({n: a.copy() for n, a in params.items()}, opt.m.copy(), opt.v.copy())
        match = "shape mismatch for b" if change == "resized" else "names differ"
        with pytest.raises(ValueError, match=match):
            opt.step(grads)
        assert opt.t == 1
        assert {n: a.tolist() for n, a in params.items()} == \
            {n: a.tolist() for n, a in before[0].items()}
        assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])


def _spy_dtypes(monkeypatch, net):
    """Records (layer name, pass, input dtype, output dtype) of every layer
    call, and the dtype of each tensor gradient a backward pass returns."""
    seen, grad_dtypes = [], {}
    for layer in net.layers:
        def forward(p, x, rng, shards=None, _name=layer.name, _real=layer.forward):
            y, cache = _real(p, x, rng, shards)
            seen.append((_name, "forward", one_dtype(x), one_dtype(y)))
            return y, cache

        def backward(cache, g, input_grad=True, shards=None, _name=layer.name,
                     _real=layer.backward):
            gx, grads = _real(cache, g, input_grad, shards)
            seen.append((_name, "backward", one_dtype(g), one_dtype(gx)))
            grad_dtypes.update((n, a.dtype) for n, a in grads.items())
            return gx, grads
        monkeypatch.setattr(layer, "forward", forward)
        monkeypatch.setattr(layer, "backward", backward)
    return seen, grad_dtypes


class TestMixedPrecisionStep:
    def test_trunk_trains_in_float32_with_one_dtype_per_tensor(self, monkeypatch):
        x, y = prepared_synthetic(16, seed=3)
        cfg = ModelConfig()
        params = cfg.net.init_params(0)
        # on float64 copies, so the reference step leaves every running
        # statistic in params as it was
        params64 = {n: a.astype(np.float64) for n, a in params.items()}
        probs64, grads64 = optim.batch_gradients(cfg, params64, x, y, np.random.default_rng(1))
        loss64 = bce_loss(probs64, y)[0] + l2_penalty(cfg, params64)
        stats = {n: params[n] for n, role in cfg.net.roles.items() if role in (MEAN, VAR)}
        stats_before = {n: a.copy() for n, a in stats.items()}

        seen, grad_dtypes = _spy_dtypes(monkeypatch, cfg.net)
        probs, grads = optim.batch_gradients(cfg, params, x, y, np.random.default_rng(1))
        loss = bce_loss(probs, y)[0] + l2_penalty(cfg, params)
        adam = Adam(1e-3, {n: params[n] for n in cfg.net.learnable})
        adam.step(grads)

        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        names = [layer.name for layer in cfg.net.layers]
        trunk_layers = set(names[:names.index("gap")])
        assert len(seen) == 2 * len(names)
        for name, pass_, d_in, d_out in seen:
            if (name, pass_) == (names[0], "backward"):
                # the network's input gradient is not computed; conv1's
                # tensor gradients are checked with the others below
                assert d_in == f32 and d_out is None
            elif name in trunk_layers:
                assert d_in == d_out == f32, (name, pass_)
            elif name == "gap":
                assert (d_in, d_out) == ((f32, f64) if pass_ == "forward" else (f64, f32))
            else:
                assert d_in == d_out == f64, (name, pass_)
        # each gradient comes back in the dtype its layer computes in
        trunk = {n for layer in cfg.net.layers[:names.index("gap")] for n in layer.learnable}
        assert grad_dtypes == {n: f32 if n in trunk else f64 for n in cfg.net.learnable}
        assert {n: g.dtype for n, g in grads.items()} == grad_dtypes

        # every tensor is stored in float32: params and Adam moments keep it,
        # and the running statistics are updated in place
        assert {n: a.dtype for n, a in params.items()} == dict.fromkeys(cfg.net.shapes, f32)
        assert adam.m.dtype == adam.v.dtype == f32
        assert adam.m.size == adam.v.size == sum(g.size for g in grads.values())
        assert {n.split("_")[0] for n in stats} == {"bn1", "bn2", "bn3", "bnd1", "bnd2"}
        for n, a in stats.items():
            assert params[n] is a, n
            assert not np.array_equal(a, stats_before[n]), n

        # agreement with the float64 step on the same batch and dropout masks
        assert abs(loss - loss64) <= 1e-5
        assert set(grads) == set(grads64)
        for n, g64 in grads64.items():
            if np.abs(g64).max() > 1e-8:
                assert np.linalg.norm(grads[n] - g64) <= 1e-4 * np.linalg.norm(g64), n
            else:
                # shifts ahead of a batch norm: the exact gradient is 0
                assert np.abs(grads[n] - g64).max() <= 1e-6, n

    def test_gradcheck_runs_float64_end_to_end(self, monkeypatch):
        floats = set()

        def record(*arrays):
            for a in arrays:
                if isinstance(a, tuple):
                    record(*a)
                elif isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    floats.add(a.dtype)

        for fn in [n for n in vars(layers) if n.endswith(("_forward", "_backward"))]:
            def spy(*args, _real=getattr(layers, fn), **kwargs):
                out = _real(*args, **kwargs)
                record(*args, out)
                return out
            monkeypatch.setattr(layers, fn, spy)
        assert gradcheck.check_model() < gradcheck.MODEL_BOUND
        assert floats == {np.dtype(np.float64)}


def test_batch_slices_fold_trailing_singleton():
    batches = optim._batch_slices(33, 32, np.arange(33))
    assert [len(b) for b in batches] == [33]
    batches = optim._batch_slices(11, 5, np.arange(11))
    assert [len(b) for b in batches] == [5, 6]
    assert sorted(np.concatenate(batches).tolist()) == list(range(11))
    assert [len(b) for b in optim._batch_slices(8, 4, np.arange(8))] == [4, 4]


def first_best_epoch(history):
    """The first epoch with the lowest val_loss: the epoch `train` restores."""
    val_losses = [row[3] for row in history]
    return val_losses.index(min(val_losses)) + 1


class TestTrainLoop:
    def test_deterministic_history_and_params(self):
        x, y = prepared_synthetic(20)
        hyper = TrainHyper(max_epochs=3, batch_size=8, seed=11)
        cfg = ModelConfig()
        p1, h1 = train(cfg, x, y, hyper)
        p2, h2 = train(cfg, x, y, hyper)
        assert h1 == h2
        assert [row[0] for row in h1] == [1, 2, 3]
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_loss_decreases_over_first_epochs(self):
        x, y = prepared_synthetic(30)
        _, history = train(ModelConfig(), x, y, TrainHyper(max_epochs=5, seed=1))
        assert history[4][1] < history[0][1]

    def test_early_stopping_restores_first_epoch(self, monkeypatch):
        x, y = prepared_synthetic(15)
        # pin the validation predictions and freeze the weights (lr = 0) so
        # the validation loss is bit-identical every epoch after the first
        monkeypatch.setattr(
            optim, "predict_probs",
            lambda config, params, feats: np.full(len(feats), 0.7))
        # early stopping's patience 3 stops the run before the first plateau cut
        hyper = TrainHyper(lr=0.0, batch_size=8, patience_es=3, max_epochs=50, seed=3)
        _, history = train(ModelConfig(), x, y, hyper)
        assert len(history) == 4 < hyper.max_epochs  # best epoch 1 + patience 3
        val_losses = [row[3] for row in history]
        assert val_losses == [val_losses[0]] * 4
        assert first_best_epoch(history) == 1

    def test_plateau_halves_learning_rate(self, monkeypatch):
        x, y = prepared_synthetic(15)
        monkeypatch.setattr(
            optim, "predict_probs",
            lambda config, params, feats: np.full(len(feats), 0.7))
        monkeypatch.setattr(optim, "PATIENCE_LR", 2)
        monkeypatch.setattr(optim, "MIN_LR", 1e-12)
        hyper = TrainHyper(lr=1e-8, batch_size=8, patience_es=5, max_epochs=50, seed=3)
        _, history = train(ModelConfig(), x, y, hyper)
        lrs = [row[5] for row in history]
        assert lrs == [1e-8, 1e-8, 1e-8, 5e-9, 5e-9, 2.5e-9]
        assert lrs == sorted(lrs, reverse=True)  # never increases
        assert min(lrs) >= optim.MIN_LR

    def test_improvement_restarts_the_plateau_count(self, monkeypatch):
        # validation loss: best at epoch 1, flat at epochs 2-3, better at
        # epoch 4, flat after. The first cut comes PATIENCE_LR = 3 flat
        # epochs after epoch 4, not 3 flat epochs in all, then one every 3.
        x, y = prepared_synthetic(15)
        epoch_probs = iter([0.99] * 3 + [0.5] * 8)
        monkeypatch.setattr(optim, "predict_probs",
                            lambda config, params, feats: np.full(len(feats), next(epoch_probs)))
        monkeypatch.setattr(optim, "PATIENCE_LR", 3)
        monkeypatch.setattr(optim, "MIN_LR", 1e-12)
        hyper = TrainHyper(lr=1e-8, batch_size=8, patience_es=20, max_epochs=11, seed=3)
        _, history = train(ModelConfig(), x, y, hyper)
        # epoch 4 is the last to improve by more than IMPROVE_TOL, so 7
        # epochs without improvement end the run
        val_losses = [row[3] for row in history]
        assert val_losses[3] < min(val_losses[:3]) - optim.IMPROVE_TOL
        assert min(val_losses[4:]) > val_losses[3] - optim.IMPROVE_TOL
        lrs = [row[5] for row in history]
        assert lrs == [1e-8] * 7 + [5e-9] * 3 + [2.5e-9]

    def test_restore_best_contract(self):
        x, y = prepared_synthetic(20)
        hyper = TrainHyper(max_epochs=6, batch_size=8, seed=5)
        cfg = ModelConfig()
        params, history = train(cfg, x, y, hyper)
        best_val_loss = min(row[3] for row in history)
        # returned parameters reproduce the recorded best validation loss
        _, val_idx = partition_indices(y, 1.0 - optim.VAL_FRACTION, hyper.seed)
        val_probs = predict_probs(cfg, params, x[val_idx])
        val_loss = bce_loss(val_probs, y[val_idx])[0] + l2_penalty(cfg, params)
        assert val_loss == pytest.approx(best_val_loss, abs=1e-12)

    def test_cancelled_shifts_stay_zero_and_hold_no_adam_state(self, monkeypatch):
        # under float32 training, rounding noise in their exactly-zero
        # gradients used to random-walk these shifts away from 0
        adams = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                adams.append(self)
        monkeypatch.setattr(optim, "Adam", Recorded)
        x, y = prepared_synthetic(60, seed=5)
        cfg = ModelConfig()
        params, _ = train(cfg, x, y, TrainHyper(max_epochs=3, seed=5))
        cancelled = [n for n, role in cfg.net.roles.items() if role == CANCELLED]
        assert len(cancelled) == 6
        (adam,) = adams
        for n in cancelled:
            assert params[n].dtype == np.float32 and not params[n].any(), n
            assert n not in cfg.net.learnable and n not in adam.tensors, n
        # Adam is built for the learnable tensors, in their order, and for
        # nothing else; its flat moments cover exactly them
        assert list(adam.tensors) == cfg.net.learnable
        assert list(adam.slices) == cfg.net.learnable
        learnable_size = sum(params[n].size for n in cfg.net.learnable)
        assert adam.m.size == adam.v.size == learnable_size

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train(ModelConfig(), np.empty((0, 178)), np.empty(0), TrainHyper())
        x = np.random.default_rng(0).standard_normal((3, 178))
        with pytest.raises(DataError, match="validation split holds 0 of 3 rows"):
            train(ModelConfig(), x, np.array([0, 1, 0]), TrainHyper())

    def test_validation_split_decides_the_minimum_size(self):
        # VAL_FRACTION = 0.1 leaves 1 validation row of 10, and 2 of 20,
        # one of each class
        x, y = prepared_synthetic(5)
        with pytest.raises(DataError, match=r"validation split holds 1 of 10 rows at "
                                            r"val_fraction = 0\.1 and needs both classes"):
            train(ModelConfig(), x, y, TrainHyper(max_epochs=1))
        x, y = prepared_synthetic(10)
        _, history = train(ModelConfig(), x, y, TrainHyper(max_epochs=1))
        assert len(history) == 1

    def test_labels_other_than_0_and_1_are_refused(self):
        x, _ = prepared_synthetic(10)
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            train(ModelConfig(), x, np.arange(20) % 3, TrainHyper(max_epochs=1))

    def test_a_float32_matrix_trains_to_the_bits_of_its_float64_source(self):
        # the trunk casts each float64 batch to float32, so casting the
        # whole matrix first changes no bit
        x, y = prepared_synthetic(10)
        hyper = TrainHyper(max_epochs=2, seed=3)
        params64, history64 = train(ModelConfig(), x, y, hyper)
        params32, history32 = train(ModelConfig(), x.astype(np.float32), y, hyper)
        assert history32 == history64
        for name, a in params64.items():
            assert params32[name].tobytes() == a.tobytes(), name

    def test_single_class_data(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            train(ModelConfig(), rng.standard_normal((20, 178)),
                  np.zeros(20), TrainHyper())


def test_batch_norm_counts_the_whole_batch_not_its_shard():
    # one row is too few for a batch; the same row as shard A of a 2-row
    # batch, beside a shard B that holds it too, is normalized as the
    # 2-row batch of that row twice is
    class Mirror:
        """A link to a shard B whose every sum equals this shard's."""
        b = False

        def swap(self, mine, theirs):
            theirs[...] = mine
            return theirs

    def tensors():
        return [np.ones(3, np.float32), np.zeros(3, np.float32),
                np.zeros(3, np.float32), np.ones(3, np.float32)]

    x = np.random.default_rng(0).standard_normal((1, 6, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="at least 2"):
        layers.batchnorm_forward(x, *tensors())
    got, _ = layers.batchnorm_forward(x, *tensors(), shards=layers.Shards(2, Mirror()))
    want, _ = layers.batchnorm_forward(np.concatenate([x, x]), *tensors())
    assert got.tobytes() == want[:1].tobytes()


def test_one_process_runs_every_row_wise_op_once_per_shard(monkeypatch):
    # a failing fork leaves the training to this process, which runs each
    # of these ops on the rows of one shard at a time, as each of two
    # processes does: at most ceil(n / 2) rows of an n-row batch
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    rows, batch = {}, []

    def spy(module, fn, arg):
        def counted(*args, _real=getattr(module, fn), **kwargs):
            if batch:  # a training step's, not validation's
                rows.setdefault(fn, set()).add((len(args[arg]), batch[-1]))
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, fn, counted)

    for fn in ("conv1d_forward", "mha_forward", "dense_forward"):
        spy(layers, fn, 0)
    spy(kernels, "conv1d_grad_x", 1)
    step = optim.batch_gradients

    def in_a_step(config, params, x, y, *args):
        batch.append(len(y))
        try:
            return step(config, params, x, y, *args)
        finally:
            batch.pop()

    monkeypatch.setattr(optim, "batch_gradients", in_a_step)
    # 65 training rows: a batch of 32 rows and one of 33
    x, y = prepared_synthetic(36, seed=5)
    train(ModelConfig(), x, y, TrainHyper(max_epochs=1, batch_size=32, seed=3))
    assert rows == dict.fromkeys(["conv1d_forward", "mha_forward", "dense_forward",
                                  "conv1d_grad_x"], {(16, 32), (17, 33), (16, 33)})


SPLIT_SKIP = split_skip_reason()


def params_and_model_bin(path, cfg, fitted, x):
    """(params, history) with the bytes of the model.bin they make with a
    scaler fitted on x."""
    params, history = fitted
    save_artifact(path, cfg, params, fit_scaler(x), "universal")
    return params, history, path.read_bytes()


def assert_same_bits(got, want):
    assert got[1] == want[1]
    assert got[0].keys() == want[0].keys()
    for name, a in want[0].items():
        assert got[0][name].tobytes() == a.tobytes(), name


@pytest.mark.skipif(SPLIT_SKIP is not None, reason=str(SPLIT_SKIP))
class TestSplitTraining:
    """train in two processes, each with one shard of every batch, against
    train in one, at the same per-process thread count: OpenBLAS's thread
    count moves a GEMM's bits on some kernels, SkylakeX's included."""

    @pytest.fixture(autouse=True)
    def count_forks(self, monkeypatch):
        fork, self.forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: self.forks.append(None) or fork())
        get = parallel.openblas_threads()[0]
        self.threads = get()
        yield
        assert get() == self.threads
        assert_no_child_left()

    def one_process(self, monkeypatch, way, *args):
        """train(*args) in one process, made so by `way`."""
        if way == "fork-fails":
            def no_fork():
                self.forks.append(None)
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
            return train(*args)
        if way == "another-thread":
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            try:
                return train(*args)
            finally:
                release.set()
                thread.join(timeout=10)
                assert not thread.is_alive()
        with parallel.halved():
            return train(*args)

    @pytest.mark.parametrize("way", ["fork-fails", "another-thread", "one-blas-thread"])
    @pytest.mark.parametrize("n_per_class, batch, sizes", [(10, 2, [2] * 9), (36, 32, [32, 33])],
                             ids=["batches-of-1+1", "batches-of-32-and-33"])
    def test_one_process_gives_the_bits_of_two(self, monkeypatch, tmp_path, way,
                                              n_per_class, batch, sizes):
        # 18 training rows make 9 batches of 2 rows; 65 make a batch of 32
        # rows and one of 33, a trailing singleton folded in
        x, y = prepared_synthetic(n_per_class, seed=5)
        cfg, hyper = ModelConfig(), TrainHyper(max_epochs=2, batch_size=batch, seed=3)
        n_tr = len(partition_indices(y, 1.0 - optim.VAL_FRACTION, hyper.seed)[0])
        assert [len(b) for b in optim._batch_slices(n_tr, batch, np.arange(n_tr))] == sizes
        two = params_and_model_bin(tmp_path / "two.bin", cfg, train(cfg, x, y, hyper), x)
        assert len(self.forks) == 1
        one = params_and_model_bin(tmp_path / "one.bin", cfg,
                                   self.one_process(monkeypatch, way, cfg, x, y, hyper), x)
        assert len(self.forks) == (2 if way == "fork-fails" else 1)
        assert_same_bits(one, two)
        assert one[2] == two[2]

    def test_a_child_that_dies_mid_epoch_leaves_the_training_to_this_process(
            self, monkeypatch):
        x, y = prepared_synthetic(36, seed=6)
        cfg, hyper = ModelConfig(), TrainHyper(max_epochs=2, batch_size=16, seed=4)
        want = train(cfg, x, y, hyper)
        parent, step, steps = os.getpid(), optim.batch_gradients, []

        def child_dies(*args):
            if os.getpid() != parent:
                steps.append(None)  # the child's own count
                if len(steps) == 2:  # of 4 steps an epoch
                    os._exit(1)
            return step(*args)

        monkeypatch.setattr(optim, "batch_gradients", child_dies)
        got = train(cfg, x, y, hyper)
        assert len(self.forks) == 2 and steps == []
        assert_same_bits(got, want)

    def test_a_non_finite_output_in_shard_b_alone_is_a_numeric_error(
            self, tmp_path, monkeypatch, capsys):
        # row 20 of every 32-row batch scores NaN: shard B's, so the child
        # raises and ends, and this process trains again alone and raises
        forward = optim.model_forward

        def nan_row_20(config, params, x, mode, dropout_rng=None, shards=None):
            probs, trace = forward(config, params, x, mode, dropout_rng, shards)
            if shards.n == 32 and shards.rows.start <= 20 < shards.rows.stop:
                assert shards.rows.start in (0, 16)
                probs[20 - shards.rows.start] = np.nan
            return probs, trace

        monkeypatch.setattr(optim, "model_forward", nan_row_20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic = true\nsynthetic_per_class = 30\nmax_epochs = 1\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "error: train: non-finite model output\n")
        assert len(self.forks) == 1
        assert not out.exists()

    def test_the_thread_count_is_restored_after_a_raise(self, monkeypatch):
        # the fixture checks it after every return
        parent, epoch = os.getpid(), optim._epoch

        class Failed(Exception):
            pass

        def parent_fails(*args):
            if os.getpid() == parent:
                assert parallel.openblas_threads()[0]() == self.threads // 2
                raise Failed
            return epoch(*args)

        monkeypatch.setattr(optim, "_epoch", parent_fails)
        x, y = prepared_synthetic(10)
        with pytest.raises(Failed):
            train(ModelConfig(), x, y, TrainHyper(max_epochs=1, batch_size=8))
        assert len(self.forks) == 1

    def test_the_child_sends_what_the_forked_child_sent(self, tmp_path, monkeypatch):
        # the child's loop, run in this process on the messages the parent
        # sent a forked child, at the child's thread count, sends the bytes
        # that child sent
        from_parent, to_parent = bytearray(), bytearray()
        send, recv = optim._Link.send, optim._Link.recv

        def record_send(link, a):
            if not link.b:
                from_parent.extend(memoryview(a).cast("B"))
            send(link, a)

        def record_recv(link, a):
            recv(link, a)
            if not link.b:
                to_parent.extend(memoryview(a).cast("B"))
            return a

        monkeypatch.setattr(optim._Link, "send", record_send)
        monkeypatch.setattr(optim._Link, "recv", record_recv)
        x, y = prepared_synthetic(36, seed=7)
        cfg, hyper = ModelConfig(), TrainHyper(max_epochs=2, batch_size=16, seed=5)
        train(cfg, x, y, hyper)
        assert len(self.forks) == 1
        (tmp_path / "from_parent").write_bytes(from_parent)
        tr_idx, _ = partition_indices(y, 1.0 - optim.VAL_FRACTION, hyper.seed)
        # only the parent records the loss, so the child takes none
        losses = []
        for fn in ("bce_loss", "l2_penalty"):
            monkeypatch.setattr(optim, fn, lambda *args, _fn=fn: losses.append(_fn))
        with parallel.halved(), open(tmp_path / "from_parent", "rb") as inp, \
                open(tmp_path / "to_parent", "wb") as out:
            # the parent's stream ends after the last epoch's lr
            with pytest.raises(optim._PeerLost):
                optim._train_child(cfg, x, y, tr_idx, hyper, optim._Link(True, inp, out))
        assert (tmp_path / "to_parent").read_bytes() == to_parent
        assert losses == []

    def test_the_end_of_step_message_holds_the_learnable_gradients_only(self, monkeypatch):
        # the cancelled shifts' sums, which no step reads, do not travel;
        # nor do batch norm's, which the two processes add mid-pass
        sizes, send = [], optim._Link.send

        def record_send(link, a):
            if not link.b:
                sizes.append(memoryview(a).nbytes)
            send(link, a)

        monkeypatch.setattr(optim._Link, "send", record_send)
        x, y = prepared_synthetic(36, seed=7)
        cfg = ModelConfig()
        train(cfg, x, y, TrainHyper(max_epochs=1, batch_size=32, seed=5))
        assert len(self.forks) == 1
        grads = optim.batch_gradients(cfg, cfg.net.init_params(0), x[:2], y[:2],
                                      np.random.default_rng(0))[1]
        norms = {n for layer in cfg.net.layers if layer.op == "batchnorm" for n in layer.shapes}
        grad_bytes = sum(g.nbytes for n, g in grads.items() if n not in norms)
        # a batch of 32 rows and one of 33: shard A's gradients and its 16
        # and 17 probabilities
        assert sorted(sizes)[-2:] == [grad_bytes + 8 * 16, grad_bytes + 8 * 17]
        assert grad_bytes + 8 * 16 == 600_072

    @pytest.mark.skipif(OPENBLAS_KERNEL_SKIP is not None, reason=str(OPENBLAS_KERNEL_SKIP))
    def test_one_process_gives_the_bits_of_two_on_the_haswell_kernel(self):
        # OpenBLAS picks its kernel when numpy loads, so the 32- and 33-row
        # cases run again in a fresh interpreter under the AVX2-only
        # Haswell kernel, on which a float32 GEMM row's bits depend on the
        # GEMM's row count
        src = os.path.dirname(os.path.dirname(seiznet.__file__))
        case = f"{__file__}::TestSplitTraining::test_one_process_gives_the_bits_of_two"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              case, "-k", "batches-of-32-and-33"],
                             capture_output=True, text=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Haswell"))
        assert run.returncode == 0, run.stdout + run.stderr
        assert "3 passed" in run.stdout

    def test_a_child_whose_parent_is_gone_exits(self, monkeypatch):
        # the forked child's entry, run in this process: a fork that returns
        # 0 and an exit that raises. The parent's pipe ends are closed in
        # the child, so its first read finds the stream ended
        class Exited(Exception):
            pass

        def exit_(code):
            raise Exited(code)

        monkeypatch.setattr(os, "fork", lambda: 0)
        monkeypatch.setattr(os, "_exit", exit_)
        x, y = prepared_synthetic(10)
        with pytest.raises(Exited) as exited:
            train(ModelConfig(), x, y, TrainHyper(max_epochs=1, batch_size=8))
        assert exited.value.args == (0,)


# Run in a fresh interpreter: late in a long test session, a one-off resize
# of CPython's table of interned strings (a 1.9 MB block at 2**17 slots) can
# fall inside the traced window and be counted as training's memory.
TRAINING_PEAK = """
import tracemalloc
from dataclasses import replace

import numpy as np

from seiznet.model import toy_config
from seiznet.optim import TrainHyper, train

# 64 columns, so the features outweigh the per-row index arrays (16 B a
# row) and the interpreter's own small-object churn
cfg = replace(toy_config(), input_len=64)
rng = np.random.default_rng(0)
x = rng.standard_normal((4000, cfg.input_len))
y = (np.arange(4000) % 2).astype(np.float64)
hyper = TrainHyper(max_epochs=1, seed=0)
train(cfg, x[:200], y[:200], hyper)  # lazy imports happen untraced
tracemalloc.start()
entry = tracemalloc.get_traced_memory()[0]
train(cfg, x, y, hyper)
print(tracemalloc.get_traced_memory()[1] - entry, x.nbytes)
"""


def test_training_does_not_copy_the_training_rows():
    src = os.path.dirname(os.path.dirname(seiznet.__file__))
    run = subprocess.run([sys.executable, "-c", TRAINING_PEAK], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    grown, nbytes = map(int, run.stdout.split())
    # one copy of the 90% training slice alone would be 0.9 * x.nbytes
    assert grown < 0.5 * nbytes


class TestEvaluate:
    def test_report_consistent_with_metrics_module(self):
        from seiznet.metrics import compute_metrics, confusion
        x, y = prepared_synthetic(15)
        cfg = ModelConfig()
        params, _ = train(cfg, x, y, TrainHyper(max_epochs=3, batch_size=8, seed=2))
        report = evaluate(cfg, params, x, y)
        manual = compute_metrics(confusion(predict_probs(cfg, params, x), y))
        assert report == manual

    def test_empty_dataset(self):
        params = ModelConfig().net.init_params(0)
        with pytest.raises(DataError):
            evaluate(ModelConfig(), params, np.empty((0, 178)), np.empty(0))
