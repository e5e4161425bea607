import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from seiznet import gradcheck, layers, optim
from seiznet.dataset import partition_indices, synthesize
from seiznet.errors import DataError, NumericError
from seiznet.model import (CANCELLED, MEAN, VAR, ModelConfig, model_backward, model_forward,
                           predict_probs, toy_config)
from seiznet.optim import Adam, TrainHyper, bce_loss, evaluate, l2_penalty, train
from seiznet.preprocess import apply_scaler, fit_scaler, wavelet_denoise


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

    def test_loss_and_grads_adds_the_penalty_onto_the_kernels(self):
        cfg = toy_config()
        params = cfg.net.init_params(0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, cfg.input_len))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        loss, probs, grads = optim.loss_and_grads(cfg, params, x, y, np.random.default_rng(3))
        # the data term alone, on the same batch and dropout masks
        probs0, trace = model_forward(cfg, params, x, "train",
                                      dropout_rng=np.random.default_rng(3))
        grads0 = model_backward(trace, bce_loss(probs0, y)[1])
        assert np.array_equal(probs, probs0)
        assert loss == bce_loss(probs, y)[0] + l2_penalty(cfg, params)
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
        Adam(lr=0.001).step(params, {"w": np.ones(1)})
        assert params["w"][0] == pytest.approx(-0.001, abs=1e-9)

    def test_zero_gradient_fixed_point(self):
        params = {"w": np.full(3, 0.7)}
        Adam(lr=0.1).step(params, {"w": np.zeros(3)})
        assert np.array_equal(params["w"], np.full(3, 0.7))

    def test_sign_symmetry(self):
        params = {"a": np.zeros(4), "b": np.zeros(4)}
        g = np.array([0.3, -1.2, 2.0, -0.1])
        Adam(lr=0.01).step(params, {"a": g, "b": -g})
        assert np.allclose(params["a"], -params["b"], atol=1e-15)

    def test_non_finite_gradient_aborts_before_mutation(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        opt = Adam(lr=1e-3)
        bad = {"a": np.ones(2), "b": np.array([1.0, np.nan])}
        with pytest.raises(NumericError, match="b"):
            opt.step(params, bad)
        assert np.array_equal(params["a"], np.ones(2))
        assert opt.t == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam(lr=1e-3).step({"w": np.ones(2)}, {"w": np.ones(3)})

    def test_second_step_allocates_no_moments(self, monkeypatch):
        params = {"w": np.zeros(3, dtype=np.float32), "b": np.zeros(2)}
        grads = {"w": np.ones(3, dtype=np.float32), "b": np.ones(2)}
        opt = Adam(lr=1e-3)
        opt.step(params, grads)
        moments = {n: (opt.m[n], opt.v[n]) for n in params}
        calls = []
        real = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(a) or real(*a, **k))
        opt.step(params, grads)
        assert calls == []
        for n, (m, v) in moments.items():
            assert opt.m[n] is m and opt.v[n] is v

    def test_moments_take_the_master_dtype(self):
        params = {"w": np.zeros(3), "w32": np.zeros(3, dtype=np.float32),
                  "head": np.zeros(3, dtype=np.float32)}
        opt = Adam(lr=1e-3)
        # the head's gradient is float64 (it computes in float64) and its
        # tensor float32
        opt.step(params, {"w": np.ones(3, dtype=np.float32),
                          "w32": np.ones(3, dtype=np.float32),
                          "head": np.ones(3)})
        assert opt.m["w"].dtype == opt.v["w"].dtype == params["w"].dtype == np.float64
        for name in ("w32", "head"):
            assert opt.m[name].dtype == opt.v[name].dtype == params[name].dtype == np.float32
        # the same step from the same gradient values, whatever their dtype
        assert np.array_equal(params["head"], params["w32"])
        np.testing.assert_allclose(params["head"], -opt.lr, rtol=1e-6)


def _spy_dtypes(monkeypatch, net):
    """Records (layer name, pass, input dtype, output dtype) of every layer
    call, and the dtype of each tensor gradient a backward pass returns."""
    seen, grad_dtypes = [], {}
    for layer in net.layers:
        def forward(p, x, rng, _name=layer.name, _real=layer.forward):
            y, cache = _real(p, x, rng)
            seen.append((_name, "forward", x.dtype, y.dtype))
            return y, cache

        def backward(cache, g, _name=layer.name, _real=layer.backward):
            gx, grads = _real(cache, g)
            seen.append((_name, "backward", g.dtype, gx.dtype))
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
        loss64, _, grads64 = optim.loss_and_grads(cfg, params64, x, y, np.random.default_rng(1))
        stats = {n: params[n] for n, role in cfg.net.roles.items() if role in (MEAN, VAR)}
        stats_before = {n: a.copy() for n, a in stats.items()}

        seen, grad_dtypes = _spy_dtypes(monkeypatch, cfg.net)
        loss, _, grads = optim.loss_and_grads(cfg, params, x, y, np.random.default_rng(1))
        adam = Adam(lr=1e-3)
        adam.step(params, grads)

        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        names = [layer.name for layer in cfg.net.layers]
        trunk_layers = set(names[:names.index("gap")])
        assert len(seen) == 2 * len(names)
        for name, pass_, d_in, d_out in seen:
            if name in trunk_layers:
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
        for moments in (adam.m, adam.v):
            assert {n: a.dtype for n, a in moments.items()} == dict.fromkeys(grads, f32)
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


class TestTrainLoop:
    def test_deterministic_history_and_params(self):
        x, y = prepared_synthetic(20)
        hyper = TrainHyper(max_epochs=3, batch_size=8, seed=11)
        cfg = ModelConfig()
        p1, s1 = train(cfg, x, y, hyper)
        p2, s2 = train(cfg, x, y, hyper)
        assert s1.history == s2.history
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_loss_decreases_over_first_epochs(self):
        x, y = prepared_synthetic(30)
        _, state = train(ModelConfig(), x, y, TrainHyper(max_epochs=5, seed=1))
        assert state.history[4][0] < state.history[0][0]

    def test_early_stopping_restores_first_epoch(self, monkeypatch):
        x, y = prepared_synthetic(15)
        # pin the validation predictions and freeze the weights (lr = 0) so
        # the validation loss is bit-identical every epoch after the first
        monkeypatch.setattr(
            optim, "predict_probs",
            lambda config, params, feats: np.full(len(feats), 0.7))
        hyper = TrainHyper(lr=0.0, min_lr=0.0, batch_size=8,
                           patience_es=3, patience_lr=10, max_epochs=50, seed=3)
        _, state = train(ModelConfig(), x, y, hyper)
        assert state.stopped_early
        assert state.epoch == 4  # best epoch 1 + patience 3
        assert state.best_epoch == 1
        assert state.epochs_since_improvement == 3
        assert len(state.history) == 4

    def test_plateau_halves_learning_rate(self, monkeypatch):
        x, y = prepared_synthetic(15)
        monkeypatch.setattr(
            optim, "predict_probs",
            lambda config, params, feats: np.full(len(feats), 0.7))
        hyper = TrainHyper(lr=1e-8, min_lr=1e-12, lr_factor=0.5, batch_size=8,
                           patience_es=5, patience_lr=2, max_epochs=50, seed=3)
        _, state = train(ModelConfig(), x, y, hyper)
        lrs = [row[4] for row in state.history]
        assert lrs == [1e-8, 1e-8, 1e-8, 5e-9, 5e-9, 2.5e-9]
        assert lrs == sorted(lrs, reverse=True)  # never increases
        assert min(lrs) >= hyper.min_lr

    def test_improvement_restarts_the_plateau_count(self, monkeypatch):
        # validation loss: best at epoch 1, flat at epochs 2-3, better at
        # epoch 4, flat after. The first cut comes patience_lr = 3 flat
        # epochs after epoch 4, not 3 flat epochs in all, then one every 3.
        x, y = prepared_synthetic(15)
        epoch_probs = iter([0.99] * 3 + [0.5] * 8)
        monkeypatch.setattr(optim, "predict_probs",
                            lambda config, params, feats: np.full(len(feats), next(epoch_probs)))
        hyper = TrainHyper(lr=1e-8, min_lr=1e-12, lr_factor=0.5, batch_size=8,
                           patience_es=20, patience_lr=3, max_epochs=11, seed=3)
        _, state = train(ModelConfig(), x, y, hyper)
        assert state.epochs_since_improvement == 7
        lrs = [row[4] for row in state.history]
        assert lrs == [1e-8] * 7 + [5e-9] * 3 + [2.5e-9]

    def test_restore_best_contract(self):
        x, y = prepared_synthetic(20)
        hyper = TrainHyper(max_epochs=6, batch_size=8, seed=5)
        cfg = ModelConfig()
        params, state = train(cfg, x, y, hyper)
        assert state.best_val_loss == min(row[2] for row in state.history)
        # returned parameters reproduce the recorded best validation loss
        _, val_idx = partition_indices(y, 1.0 - hyper.val_fraction, hyper.seed, True)
        val_probs = predict_probs(cfg, params, x[val_idx])
        val_loss = bce_loss(val_probs, y[val_idx])[0] + l2_penalty(cfg, params)
        assert val_loss == pytest.approx(state.best_val_loss, abs=1e-12)

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
            assert n not in cfg.net.learnable and n not in adam.m and n not in adam.v, n
        assert set(adam.m) == set(adam.v) == set(cfg.net.learnable)

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train(ModelConfig(), np.empty((0, 178)), np.empty(0), TrainHyper())
        x = np.random.default_rng(0).standard_normal((3, 178))
        with pytest.raises(DataError, match="validation split holds 0 of 3 rows"):
            train(ModelConfig(), x, np.array([0, 1, 0]), TrainHyper())

    def test_validation_split_decides_the_minimum_size(self):
        # 10 rows leave 1 validation row at the default fraction, 3 at 0.3
        x, y = prepared_synthetic(5)
        with pytest.raises(DataError, match=r"validation split holds 1 of 10 rows at "
                                            r"val_fraction = 0\.1 and needs both classes"):
            train(ModelConfig(), x, y, TrainHyper(max_epochs=1))
        _, state = train(ModelConfig(), x, y, TrainHyper(max_epochs=1, val_fraction=0.3))
        assert state.epoch == 1

    def test_single_class_data(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            train(ModelConfig(), rng.standard_normal((20, 178)),
                  np.zeros(20), TrainHyper())


def test_training_does_not_copy_the_training_rows():
    # 64 columns, so the features outweigh the per-row index arrays (16 B a
    # row) and the interpreter's own small-object churn
    cfg = replace(toy_config(), input_len=64)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4000, cfg.input_len))
    y = (np.arange(4000) % 2).astype(np.float64)
    hyper = TrainHyper(max_epochs=1, seed=0)
    train(cfg, x[:200], y[:200], hyper)  # lazy imports happen untraced
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        train(cfg, x, y, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one copy of the 90% training slice alone would be 0.9 * x.nbytes
    assert peak - entry < 0.5 * x.nbytes


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
