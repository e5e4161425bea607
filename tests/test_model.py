import ctypes
import glob
import os
import threading
import types

import numpy as np
import pytest

from seiznet import gradcheck, layers, model, optim, parallel
from seiznet.model import (ModelConfig, model_backward, model_forward, predict_probs,
                           toy_config)


def default_setup(n=4, seed=0):
    cfg = ModelConfig()
    params = cfg.net.init_params(seed)
    x = np.random.default_rng(seed + 1).standard_normal((n, cfg.input_len))
    return cfg, params, x


class TestConfig:
    def test_defaults_match_architecture(self):
        cfg = ModelConfig()
        assert cfg.conv_filters == (32, 64, 128)
        assert model.CONV_KERNELS == (7, 5, 3)
        assert cfg.input_len == 178
        assert (cfg.attn_heads, cfg.conv_filters[-1] // cfg.attn_heads) == (4, 32)

    def test_head_width_invariant_enforced(self):
        with pytest.raises(ValueError, match="attn_heads"):
            ModelConfig(attn_heads=3)

    def test_mismatched_conv_lists(self):
        with pytest.raises(ValueError, match="conv_filters must have 3 entries"):
            ModelConfig(conv_filters=(32, 64))

    @pytest.mark.parametrize("change, match", [
        ({"conv_filters": (32, 64, 128, 256)}, "3 entries"),  # not silently cut to 3 stages
        ({"attn_heads": 0}, "at least 1"),  # not a ZeroDivisionError in the width check
        ({"input_len": 7}, "too short")])
    def test_out_of_range_field_rejected(self, change, match):
        with pytest.raises(ValueError, match=match):
            ModelConfig(**change)


class TestShapes:
    def test_pooling_cascade_shapes(self):
        cfg, params, x = default_setup(n=3)
        _, trace = model_forward(cfg, params, x, "train",
                                 dropout_rng=np.random.default_rng(0))
        trace = {layer.name: cache for layer, cache in trace}
        # one cache per shard, of ceil(3 / 2) rows and of 1; pool caches hold
        # the pool's input: [N, L_in, C]
        for shard, n in enumerate((2, 1)):
            assert trace["pool1"][shard].shape == (n, 178, 32)
            assert trace["pool2"][shard].shape == (n, 89, 64)
            assert trace["pool3"][shard].shape == (n, 44, 128)
            assert trace["attn"][shard][0].shape == (n, 22, 128)  # attention input
            assert trace["probs"][shard].shape == (n,)

    def test_param_shapes_fixed_by_config(self):
        cfg = ModelConfig()
        shapes = cfg.net.shapes
        assert shapes["conv1_w"] == (7, 1, 32)
        assert shapes["conv3_w"] == (3, 64, 128)
        assert shapes["attn_wq"] == (4, 128, 32)
        assert shapes["attn_wo"] == (128, 128)
        assert shapes["fc1_w"] == (128, 128)
        assert shapes["fc3_w"] == (64, 1)
        params = cfg.net.init_params(0)
        for name, shape in shapes.items():
            assert params[name].shape == shape

    def test_l2_names_cover_kernels_only(self):
        cfg = ModelConfig()
        names = cfg.net.l2
        assert set(names) == {"conv1_w", "conv2_w", "conv3_w",
                              "fc1_w", "fc2_w", "fc3_w"}

    def test_shifts_a_normalisation_cancels_do_not_learn(self):
        net = ModelConfig().net
        cancelled = [n for n, role in net.roles.items() if role == model.CANCELLED]
        assert cancelled == ["conv1_b", "conv2_b", "conv3_b", "ln_beta", "fc1_b", "fc2_b"]
        assert [n for n, role in net.roles.items() if role == model.SHIFT] == [
            "bn1_beta", "bn2_beta", "bn3_beta", "bnd1_beta", "bnd2_beta", "fc3_b"]
        assert not set(cancelled) & set(net.learnable + net.l2)
        params = net.init_params(0)
        assert all(not params[n].any() for n in cancelled)


class TestForward:
    def test_probs_in_unit_interval(self):
        cfg, params, x = default_setup(n=5)
        probs, trace = model_forward(cfg, cfg.net.fold(params), x, "infer")
        assert trace is None
        assert np.isfinite(probs).all()
        assert ((probs > 0) & (probs < 1)).all()

    def test_infer_deterministic_bitwise(self):
        cfg, params, x = default_setup(n=3)
        p1, _ = model_forward(cfg, cfg.net.fold(params), x, "infer")
        p2, _ = model_forward(cfg, cfg.net.fold(params), x, "infer")
        assert np.array_equal(p1, p2)

    def test_train_needs_rng(self):
        cfg, params, x = default_setup(n=2)
        with pytest.raises(ValueError, match="rng"):
            model_forward(cfg, params, x, "train")

    def test_bad_input_length(self):
        cfg, params, _ = default_setup()
        with pytest.raises(ValueError):
            model_forward(cfg, cfg.net.fold(params), np.zeros((2, 100)), "infer")

    def test_chunked_predict_matches_single_batch(self):
        # 150 rows run as chunks of 64, 64 and 22
        cfg, params, x = default_setup(n=150)
        chunked = predict_probs(cfg, params, x)
        parts = [predict_probs(cfg, params, x[a:a + 64]) for a in (0, 64, 128)]
        assert model.CHUNK_ROWS == 64
        assert np.array_equal(chunked, np.concatenate(parts))


class TestNet:
    def test_training_builds_one_net(self, monkeypatch):
        built = []
        real_init = model.Net.__init__

        def spy(self, config):
            built.append(config)
            real_init(self, config)
        monkeypatch.setattr(model.Net, "__init__", spy)
        cfg = toy_config()
        x = np.random.default_rng(0).standard_normal((24, cfg.input_len))
        optim.train(cfg, x, np.array([0, 1] * 12),
                    optim.TrainHyper(batch_size=8, max_epochs=2, seed=3))
        assert len(built) == 1 and built[0] is cfg

    def test_predict_folds_once_and_runs_each_chunk(self, monkeypatch):
        cfg, params, x = default_setup(n=150)
        folds, modes = [], []
        real_fold, real_forward = model.Net.fold, model.model_forward

        def fold(self, p):
            folds.append(p)
            return real_fold(self, p)

        def forward(config, p, batch, mode="infer", dropout_rng=None):
            modes.append(mode)
            return real_forward(config, p, batch, mode, dropout_rng)
        monkeypatch.setattr(model.Net, "fold", fold)
        monkeypatch.setattr(model, "model_forward", forward)
        predict_probs(cfg, params, x)
        assert len(folds) == 1 and folds[0] is params
        assert modes == ["infer"] * 3

    def test_infer_refuses_unfolded_params(self):
        # raw tensors would run without batch norm and still give probabilities
        cfg, params, x = default_setup(n=2)
        for unfolded in (params, dict(cfg.net.fold(params))):
            with pytest.raises(TypeError, match="fold"):
                model_forward(cfg, unfolded, x, "infer")


def textbook_infer(cfg, params, batch):
    """Infer-mode probabilities written out layer by layer: each batch norm
    applied after its conv or dense layer as (x - mean) / sqrt(var + eps) *
    gamma + beta, attention one head at a time."""
    def bn(x, name):
        return ((x - params[f"{name}_mean"]) / np.sqrt(params[f"{name}_var"] + 1e-5)
                * params[f"{name}_gamma"] + params[f"{name}_beta"])

    x = batch[:, :, None]
    for s in range(1, len(cfg.conv_filters) + 1):
        w = params[f"conv{s}_w"]
        pad = (w.shape[0] - 1) // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        x = params[f"conv{s}_b"] + sum(xp[:, k:k + x.shape[1]] @ w[k]
                                       for k in range(w.shape[0]))
        x = np.maximum(bn(x, f"bn{s}"), 0.0)
        half = x.shape[1] // 2
        x = x[:, :2 * half].reshape(x.shape[0], half, 2, x.shape[2]).max(axis=2)
    heads = []
    for h in range(cfg.attn_heads):
        q, k, v = (x @ params[f"attn_{p}"][h] for p in ("wq", "wk", "wv"))
        scores = q @ k.swapaxes(1, 2) / np.sqrt(q.shape[-1])
        a = np.exp(scores - scores.max(axis=-1, keepdims=True))
        heads.append(a / a.sum(axis=-1, keepdims=True) @ v)
    x = x + np.concatenate(heads, axis=-1) @ params["attn_wo"]
    x = ((x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
         * params["ln_gamma"] + params["ln_beta"]).mean(axis=1)
    for i in range(1, len(cfg.dense_units) + 1):
        x = np.maximum(bn(x @ params[f"fc{i}_w"] + params[f"fc{i}_b"], f"bnd{i}"), 0.0)
    out = len(cfg.dense_units) + 1
    z = (x @ params[f"fc{out}_w"] + params[f"fc{out}_b"])[:, 0]
    return 1.0 / (1.0 + np.exp(-z))


class TestFoldedInference:
    def test_trained_model_matches_textbook_on_holdout(self):
        from seiznet import dataset, preprocess
        ds = dataset.synthesize(40, seed=8)
        train, test = dataset.split(ds, seed=2)
        scaler = preprocess.fit_scaler(train.features)
        cfg = ModelConfig()
        params, _ = optim.train(cfg, preprocess.apply_scaler(train.features, scaler),
                                train.labels, optim.TrainHyper(max_epochs=3, seed=4))
        # training moved the running statistics, so the fold is not trivial
        for bn in ("bn3", "bnd2"):
            assert np.abs(params[f"{bn}_mean"]).max() > 0.1
            assert np.abs(params[f"{bn}_var"] - 1.0).max() > 0.1
        # the 16 holdout rows repeated to 150, so scoring runs 3 chunks
        x = np.resize(preprocess.apply_scaler(test.features, scaler), (150, cfg.input_len))
        got = predict_probs(cfg, params, x)
        want = textbook_infer(cfg, params, x)
        # the trunk runs in float32 (TestFloat32Trunk); the fold algebra
        # itself is pinned at 1e-12 by test_layers.py::TestBatchNorm
        assert np.abs(got - want).max() <= 1e-6
        assert np.array_equal(got > 0.5, want > 0.5)

    def test_infer_runs_no_batchnorm_and_leaves_params(self, monkeypatch):
        cfg, params, x = default_setup(n=3)
        before = {n: a.copy() for n, a in params.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("batchnorm_forward called in infer mode")
        monkeypatch.setattr(layers, "batchnorm_forward", refuse)
        model_forward(cfg, cfg.net.fold(params), x, "infer")
        for name, a in params.items():
            assert a.tobytes() == before[name].tobytes(), name


class TestFloat32Trunk:
    def _dtypes(self, monkeypatch, layer_list):
        """(layer name, input dtype, output dtype) of each layer, as run."""
        seen = []
        for layer in layer_list:
            def spy(p, x, rng, shards=None, _name=layer.name, _real=layer.forward):
                y, cache = _real(p, x, rng, shards)
                seen.append((_name, one_dtype(x), one_dtype(y)))
                return y, cache
            monkeypatch.setattr(layer, "forward", spy)
        return seen

    def test_infer_runs_float32_through_ln_and_float64_from_gap(self, monkeypatch):
        cfg, params, x = default_setup(n=3)
        seen = self._dtypes(monkeypatch, cfg.net.infer_layers)
        probs, _ = model_forward(cfg, cfg.net.fold(params), x, "infer")
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        names = [name for name, *_ in seen]
        gap = names.index("gap")
        assert names[gap - 1] == "ln"
        assert all(d_in == d_out == f32 for _, d_in, d_out in seen[:gap])
        assert seen[gap][1:] == (f32, f64)
        assert all(d_in == d_out == f64 for _, d_in, d_out in seen[gap + 1:])
        assert probs.dtype == f64

    def test_train_stays_float64(self, monkeypatch):
        # on every tensor upcast to float64, as gradcheck runs it; training
        # runs the float32 tensors of init_params (tests/test_optim.py)
        cfg, params, x = default_setup(n=3)
        seen = self._dtypes(monkeypatch, cfg.net.layers)
        params64 = {n: a.astype(np.float64) for n, a in params.items()}
        model_forward(cfg, params64, x.astype(np.float32), "train",
                      dropout_rng=np.random.default_rng(0))
        assert len(seen) == len(cfg.net.layers)
        assert {d for _, d_in, d_out in seen for d in (d_in, d_out)} == {np.dtype(np.float64)}

    def test_params_fold_and_load_keep_the_trunk_float32_and_the_artifact_float64(
            self, tmp_path):
        from seiznet.artifact import load_artifact, save_artifact
        from seiznet.preprocess import ScalerParams
        # every tensor is stored in float32, the head's too: the head computes
        # in float64 because global average pooling hands it float64
        cfg, params, _ = default_setup()
        assert set(params) == set(cfg.net.shapes)
        assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
        folded = cfg.net.fold(params)
        assert set(folded) == set(params)
        assert {a.dtype for a in folded.values()} == {np.dtype(np.float32)}
        path = tmp_path / "model.bin"
        save_artifact(path, cfg, params,
                      ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len)), "off")
        # model.bin stores float64: every tensor block is its 8-byte count
        # plus 8 bytes per value
        blob = path.read_bytes()
        binary = blob[blob.index(b"==binary==\n") + len(b"==binary==\n"):]
        sizes = [cfg.input_len] * 2 + [a.size for a in params.values()]
        assert len(binary) == sum(8 + 8 * n for n in sizes)
        loaded = load_artifact(path)[1]
        assert set(loaded) == set(params)
        for name, a in loaded.items():
            assert a.dtype == np.float32 and np.array_equal(a, params[name]), name

    def test_each_row_alone_matches_the_chunked_result(self):
        # a float32 dense layer rounds one row differently from a 64-row
        # chunk; the float64 head keeps a streamed row on the batch result
        cfg, params, x = default_setup(n=70)
        chunked = predict_probs(cfg, params, x)
        alone = np.concatenate([predict_probs(cfg, params, x[i:i + 1])
                                for i in range(len(x))])
        assert np.abs(alone - chunked).max() <= 1e-12


class TestBackward:
    def test_grad_shapes_mirror_params(self):
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(3))
        grads = model_backward(trace, np.ones_like(probs))
        assert set(grads) == set(cfg.net.learnable)
        for name, g in grads.items():
            assert g.shape == params[name].shape

    def test_zero_upstream_grad_gives_strict_zeros(self):
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(4))
        grads = model_backward(trace, np.zeros_like(probs))
        for g in grads.values():
            assert not g.any()

    @pytest.mark.parametrize("config, dtype", [(ModelConfig(), np.float32),
                                               (toy_config(), np.float64)])
    def test_backward_without_the_input_gradient_keeps_every_bit(self, config, dtype):
        # model_backward asks the first layer for no input gradient; every
        # tensor gradient must be the one a walk with the defaults gives
        params = {n: a.astype(dtype) for n, a in config.net.init_params(0).items()}
        x = np.random.default_rng(1).standard_normal((8, config.input_len))
        probs, trace = model_forward(config, params, x, "train",
                                     dropout_rng=np.random.default_rng(2))
        g_probs = np.random.default_rng(3).standard_normal(probs.shape)
        shards = layers.Shards(8)
        want, g = {}, shards.split(g_probs)
        for layer, cache in reversed(trace):
            g, layer_grads = layer.backward(cache, g, shards=shards)
            want.update(layer_grads)
        assert [rows.shape for rows in g] == [(4, config.input_len, 1)] * 2
        got = model_backward(trace, g_probs)
        assert list(got) == list(want)
        for name, w in want.items():
            assert got[name].dtype == w.dtype, name
            assert got[name].tobytes() == w.tobytes(), name

    def test_layers_reach_functions_patched_on_the_module(self, monkeypatch):
        # tracing and fault injection patch layers.<fn>; each layer must run
        # the patched function, not one captured before the patch. Infer
        # mode calls each forward once a layer; train mode calls each op
        # once a shard of the 2-row batch, but batch norm's and dropout's
        # forward pass, which see the whole batch
        per_layer = {
            "conv1d_forward": 3, "conv1d_backward": 3,
            "batchnorm_forward": 5, "batchnorm_backward": 5,
            "relu_forward": 5, "relu_backward": 5,
            "maxpool_forward": 3, "maxpool_backward": 3,
            "mha_forward": 1, "mha_backward": 1,
            "layernorm_forward": 1, "layernorm_backward": 1,
            "global_average_pool_forward": 1, "global_average_pool_backward": 1,
            "dense_forward": 3, "dense_backward": 3,
            "dropout_forward": 2, "dropout_backward": 2,
            "sigmoid_forward": 1, "sigmoid_backward": 1,
        }
        whole = ("batchnorm_forward", "batchnorm_backward", "dropout_forward")
        expected = {fn: n if fn in whole else 2 * n for fn, n in per_layer.items()}
        calls = dict.fromkeys(expected, 0)
        for fn in expected:
            def counted(*args, _fn=fn, _real=getattr(layers, fn), **kwargs):
                calls[_fn] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(layers, fn, counted)
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(5))
        model_backward(trace, np.ones_like(probs))
        assert calls == expected
        # infer mode runs each forward of the folded network and nothing else
        calls.update(dict.fromkeys(calls, 0))
        model_forward(cfg, cfg.net.fold(params), x, "infer")
        infer = {fn: n if fn.endswith("_forward") else 0 for fn, n in per_layer.items()}
        infer.update(batchnorm_forward=0, dropout_forward=0)
        assert calls == infer

    def test_backward_needs_only_the_trace(self):
        # the trace carries its layers: no config, params or network is passed;
        # the inputs are those of gradcheck.check_model, without the L2 term
        cfg = toy_config()
        params = {n: a.astype(np.float64) for n, a in cfg.net.init_params(0).items()}
        x = np.random.default_rng(1).standard_normal((3, cfg.input_len))
        y = np.array([0.0, 1.0, 1.0])

        def run():
            return model_forward(cfg, params, x, "train",
                                 dropout_rng=np.random.default_rng(11))

        probs, trace = run()
        grads = model_backward(trace, optim.bce_loss(probs, y)[1])
        assert set(grads) == set(cfg.net.learnable)
        for name in cfg.net.learnable:
            numeric = gradcheck.numeric_gradient(lambda: optim.bce_loss(run()[0], y)[0],
                                                 params[name])
            # no atol: the shifts a batch norm cancels, whose gradient is 0
            # and whose central differences are rounding noise, do not learn
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-3,
                                       err_msg=name)

    def test_toy_end_to_end_gradient(self):
        assert gradcheck.check_model() < gradcheck.MODEL_BOUND


def _gradient_names(layer, params, x):
    """Run `layer` forward and backward; returns (the names of the
    gradients it maps, in order, and its output)."""
    y, cache = layer.forward(params, x, np.random.default_rng(2))
    _, grads = layer.backward(cache, np.ones_like(y))
    for n, g in grads.items():
        assert g.shape == layer.shapes[n], n
    return list(grads), y


@pytest.mark.parametrize("cfg", [ModelConfig(), toy_config()], ids=["default", "toy"])
def test_each_network_layer_maps_one_gradient_per_learnable_tensor(cfg):
    params = {n: a.astype(np.float64) for n, a in cfg.net.init_params(0).items()}
    x = np.random.default_rng(1).standard_normal((3, cfg.input_len, 1))
    for layer in cfg.net.layers:
        names, x = _gradient_names(layer, params, x)
        assert names == layer.learnable, layer.name


def test_the_toy_network_runs_every_op_of_layers():
    # gradcheck checks each toy layer, so every op gets a row; the toy also
    # keeps an odd pool input (the floor path) and more than one head
    ops = {n.removesuffix("_forward") for n in vars(layers) if n.endswith("_forward")}
    toy = gradcheck.toy_layers()
    assert {layer.op for layer, _ in toy.values()} == ops
    assert [layer.name for layer in toy_config().net.layers] == list(toy)
    assert any(layer.op == "maxpool" and shape[1] % 2 for layer, shape in toy.values())
    assert toy_config().attn_heads >= 2


def test_a_learnable_tensor_without_a_gradient_raises():
    # conv1d_backward returns no bias gradient, so a learnable conv bias
    # would never learn
    conv = model.Layer("conv", "conv1d", w=(model.KERNEL, (3, 2, 3)), b=(model.SHIFT, (3,)))
    rng = np.random.default_rng(0)
    params = {"conv_w": rng.standard_normal((3, 2, 3)), "conv_b": np.zeros(3)}
    with pytest.raises(ValueError, match="no gradient for \\['conv_b'\\]"):
        _gradient_names(conv, params, rng.standard_normal((2, 12, 2)))


def test_hundred_training_steps_stay_finite():
    # overflow / NaN sentinel on the full-size model
    from seiznet.dataset import synthesize
    from seiznet.preprocess import apply_scaler, fit_scaler, wavelet_denoise

    ds = synthesize(16, seed=5)
    x = wavelet_denoise(ds.features, "universal")
    x = apply_scaler(x, fit_scaler(x))
    y = ds.labels.astype(float)

    cfg = ModelConfig()
    params = cfg.net.init_params(0)
    adam = optim.Adam(1e-3, {n: params[n] for n in cfg.net.learnable})
    rng = np.random.default_rng(6)
    for step in range(100):
        _, grads = optim.batch_gradients(cfg, params, x, y, rng)
        for g in grads.values():
            assert np.isfinite(g).all()
        adam.step(grads)
    for v in params.values():
        assert np.isfinite(v).all()


def split_skip_reason():
    """Why predict_probs cannot score, nor train train, in two processes
    here, or None."""
    if not parallel.can_fork():
        return "no os.fork, or another thread runs"
    with parallel.halved() as two:
        if not two:
            return ("numpy's OpenBLAS, or its thread-count getter or setter, was not found, "
                    "or it runs 1 thread")
    return None


SPLIT_SKIP = split_skip_reason()


def at_half_the_threads(fn, *args):
    """fn(*args) at the thread count of `parallel.halved`, the count each
    process of a split scoring pass runs."""
    with parallel.halved():
        return fn(*args)


def one_dtype(a):
    """a's dtype, or None for None; of a train-mode list of per-shard
    arrays, the one such value of them all."""
    if isinstance(a, list):
        (dtype,) = {one_dtype(rows) for rows in a}
        return dtype
    return None if a is None else a.dtype


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(SPLIT_SKIP is not None, reason=str(SPLIT_SKIP))
class TestSplitScoring:
    """predict_probs of at least SPLIT_SCORE_CHUNKS chunks scored by two
    processes, against the same rows scored by one. OpenBLAS's thread
    count moves bits under some kernels (Haswell, Zen), so the one-process
    result is scored at the split's per-process thread count, the count
    predict_probs scores at when it forks no child."""

    @pytest.fixture(autouse=True)
    def count_forks(self, monkeypatch):
        fork, self.forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: self.forks.append(None) or fork())
        get = parallel.openblas_threads()[0]
        self.threads = get()
        yield
        assert get() == self.threads
        assert_no_child_left()

    @pytest.mark.parametrize("rows, forks", [(1024, 1), (1088, 1), (1000, 1), (960, 0)],
                             ids=["threshold", "odd-chunks", "partial-chunk", "under"])
    def test_the_split_gives_the_bits_of_one_process(self, rows, forks):
        assert model.SPLIT_SCORE_CHUNKS * model.CHUNK_ROWS == 1024
        cfg, params, x = default_setup(n=rows, seed=3)
        probs = predict_probs(cfg, params, x)
        assert len(self.forks) == forks
        if forks:
            want = at_half_the_threads(model._score, cfg, cfg.net.fold(params), x)
        else:
            want = model._score(cfg, cfg.net.fold(params), x)
        assert probs.dtype == np.float64 and probs.shape == (rows,)
        assert probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows, forks", [(960, 0), (1000, 1), (1100, 1)],
                             ids=["under", "partial-chunk", "split"])
    def test_a_float32_matrix_scores_the_bits_of_its_float64_source(self, monkeypatch,
                                                                   rows, forks):
        # model_forward casts each chunk to float32, so a float32 matrix is
        # scored as given: this process's chunks are views of it
        cfg, params, x = default_setup(n=rows, seed=9)
        x32 = x.astype(np.float32)
        want = predict_probs(cfg, params, x)
        views, forward = [], model.model_forward

        def spy(config, folded, batch, mode="infer"):
            views.append(np.shares_memory(batch, x32))
            return forward(config, folded, batch, mode)

        monkeypatch.setattr(model, "model_forward", spy)
        assert predict_probs(cfg, params, x32).tobytes() == want.tobytes()
        assert views and all(views)
        labels = np.arange(rows) % 2
        assert optim.evaluate(cfg, params, x32, labels) == optim.evaluate(cfg, params, x, labels)
        assert len(self.forks) == 4 * forks

    @pytest.mark.parametrize("sent", ["nothing", "short"])
    def test_a_child_that_sends_too_little_leaves_its_rows_to_this_process(
            self, monkeypatch, sent):
        parent, score = os.getpid(), model._score

        def child_fails(config, folded, x):
            if os.getpid() == parent:
                return score(config, folded, x)
            if sent == "nothing":
                os._exit(1)
            return score(config, folded, x)[:-1]  # the last row is not sent

        monkeypatch.setattr(model, "_score", child_fails)
        cfg, params, x = default_setup(n=1030, seed=4)
        probs = predict_probs(cfg, params, x)
        assert len(self.forks) == 1
        want = at_half_the_threads(score, cfg, cfg.net.fold(params), x)
        assert probs.tobytes() == want.tobytes()

    def test_no_process_to_spare_scores_in_one(self, monkeypatch):
        def no_fork():
            self.forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg, params, x = default_setup(n=1024, seed=5)
        probs = predict_probs(cfg, params, x)
        assert len(self.forks) == 1
        want = at_half_the_threads(model._score, cfg, cfg.net.fold(params), x)
        assert probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blas", [None, "one thread"], ids=["no-openblas", "one-thread"])
    def test_without_a_second_blas_thread_to_hand_out_scores_in_one(self, monkeypatch, blas):
        get, set_ = parallel.openblas_threads()
        found = None if blas is None else (lambda: 1, set_)
        monkeypatch.setattr(parallel, "openblas_threads", lambda: found)
        cfg, params, x = default_setup(n=1024, seed=6)
        probs = predict_probs(cfg, params, x)
        assert self.forks == []
        assert probs.tobytes() == model._score(cfg, cfg.net.fold(params), x).tobytes()

    def test_a_process_running_another_thread_scores_in_one(self):
        cfg, params, x = default_setup(n=1024, seed=7)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            probs = predict_probs(cfg, params, x)
        finally:
            release.set()
            thread.join()
        assert self.forks == []
        want = at_half_the_threads(model._score, cfg, cfg.net.fold(params), x)
        assert probs.tobytes() == want.tobytes()

    def test_the_thread_count_is_restored_after_a_raise(self, monkeypatch):
        # the fixture checks it after every return
        parent, score = os.getpid(), model._score

        class Failed(Exception):
            pass

        def parent_fails(config, folded, x):
            if os.getpid() == parent:
                assert parallel.openblas_threads()[0]() == self.threads // 2
                raise Failed
            return score(config, folded, x)

        monkeypatch.setattr(model, "_score", parent_fails)
        cfg, params, x = default_setup(n=1024, seed=8)
        with pytest.raises(Failed):
            predict_probs(cfg, params, x)
        assert len(self.forks) == 1


def test_an_openblas_that_will_not_load_or_lacks_a_function_is_not_used(monkeypatch):
    # the first library fails to load; the second has a getter, no setter
    libs = iter([OSError("cannot open"),
                 types.SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: 2)])

    def cdll(path):
        lib = next(libs)
        if isinstance(lib, OSError):
            raise lib
        return lib

    monkeypatch.setattr(glob, "glob", lambda pattern: ["a_openblas.so", "b_openblas.so"])
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert parallel.openblas_threads.__wrapped__() is None
