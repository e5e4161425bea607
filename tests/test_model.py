import numpy as np
import pytest

from seiznet import gradcheck, layers, optim
from seiznet.model import (ModelConfig, init_params, l2_names, learnable_names,
                           model_backward, model_forward, param_shapes,
                           predict_probs, toy_config)


def default_setup(n=4, seed=0):
    cfg = ModelConfig()
    params = init_params(cfg, seed)
    x = np.random.default_rng(seed + 1).standard_normal((n, cfg.input_len))
    return cfg, params, x


class TestConfig:
    def test_defaults_match_architecture(self):
        cfg = ModelConfig()
        assert cfg.conv_filters == (32, 64, 128)
        assert cfg.conv_kernels == (7, 5, 3)
        assert cfg.attn_heads * cfg.attn_key_dim == 128
        assert cfg.attn_len == 22

    def test_head_width_invariant_enforced(self):
        with pytest.raises(ValueError, match="attn_heads"):
            ModelConfig(attn_heads=3)

    def test_mismatched_conv_lists(self):
        with pytest.raises(ValueError):
            ModelConfig(conv_filters=(32, 64), conv_kernels=(7, 5, 3))


class TestShapes:
    def test_pooling_cascade_shapes(self):
        cfg, params, x = default_setup(n=3)
        _, trace = model_forward(cfg, params, x, "train",
                                 dropout_rng=np.random.default_rng(0))
        # pool caches record the argmax grid: [N, L_out, C]
        assert trace["pool1"][0].shape == (3, 89, 32)
        assert trace["pool2"][0].shape == (3, 44, 64)
        assert trace["pool3"][0].shape == (3, 22, 128)
        assert trace["attn"][0].shape == (3, 22, 128)  # attention input
        assert trace["probs"].shape == (3,)

    def test_param_shapes_fixed_by_config(self):
        cfg = ModelConfig()
        shapes = param_shapes(cfg)
        assert shapes["conv1_w"] == (7, 1, 32)
        assert shapes["conv3_w"] == (3, 64, 128)
        assert shapes["attn_wq"] == (4, 128, 32)
        assert shapes["attn_wo"] == (128, 128)
        assert shapes["fc1_w"] == (128, 128)
        assert shapes["fc3_w"] == (64, 1)
        params = init_params(cfg, 0)
        for name, shape in shapes.items():
            assert params[name].shape == shape

    def test_l2_names_cover_kernels_only(self):
        cfg = ModelConfig()
        names = l2_names(cfg)
        assert set(names) == {"conv1_w", "conv2_w", "conv3_w",
                              "fc1_w", "fc2_w", "fc3_w"}


class TestForward:
    def test_probs_in_unit_interval(self):
        cfg, params, x = default_setup(n=5)
        probs, trace = model_forward(cfg, params, x, "infer")
        assert trace is None
        assert np.isfinite(probs).all()
        assert ((probs > 0) & (probs < 1)).all()

    def test_infer_deterministic_bitwise(self):
        cfg, params, x = default_setup(n=3)
        p1, _ = model_forward(cfg, params, x, "infer")
        p2, _ = model_forward(cfg, params, x, "infer")
        assert np.array_equal(p1, p2)

    def test_infer_ignores_dropout_rate(self):
        x = np.random.default_rng(2).standard_normal((3, 178))
        for rate in (0.0, 0.5):
            cfg = ModelConfig(dropout_rate=rate)
            params = init_params(cfg, 0)
            p, _ = model_forward(cfg, params, x, "infer")
            if rate == 0.0:
                base = p
        assert np.array_equal(base, p)

    def test_train_needs_rng(self):
        cfg, params, x = default_setup(n=2)
        with pytest.raises(ValueError, match="rng"):
            model_forward(cfg, params, x, "train")

    def test_bad_input_length(self):
        cfg, params, _ = default_setup()
        with pytest.raises(ValueError):
            model_forward(cfg, params, np.zeros((2, 100)), "infer")

    def test_chunked_predict_matches_single_batch(self):
        cfg, params, x = default_setup(n=9)
        whole = predict_probs(cfg, params, x, chunk_size=9)
        chunked = predict_probs(cfg, params, x, chunk_size=4)
        assert np.allclose(whole, chunked, atol=1e-12)


class TestBackward:
    def test_grad_shapes_mirror_params(self):
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(3))
        grads = model_backward(cfg, params, trace, np.ones_like(probs))
        assert set(grads) == set(learnable_names(cfg))
        for name, g in grads.items():
            assert g.shape == params[name].shape

    def test_zero_upstream_grad_gives_strict_zeros(self):
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(4))
        grads = model_backward(cfg, params, trace, np.zeros_like(probs))
        for g in grads.values():
            assert not g.any()

    def test_layers_reach_functions_patched_on_the_module(self, monkeypatch):
        # tracing and fault injection patch layers.<fn>; each layer must run
        # the patched function, not one captured before the patch
        expected = {
            "conv1d_forward": 3, "conv1d_backward": 3,
            "batchnorm_forward": 5, "batchnorm_backward": 5,
            "relu_forward": 5, "relu_backward": 5,
            "maxpool_forward": 3, "maxpool_backward": 3,
            "mha_forward": 1, "mha_backward": 1,
            "layernorm_forward": 1, "layernorm_backward": 1,
            "global_average_pool": 1, "global_average_pool_backward": 1,
            "dense_forward": 3, "dense_backward": 3,
            "dropout_forward": 2, "dropout_backward": 2, "sigmoid": 1,
        }
        calls = dict.fromkeys(expected, 0)
        for fn in expected:
            def counted(*args, _fn=fn, _real=getattr(layers, fn), **kwargs):
                calls[_fn] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(layers, fn, counted)
        cfg, params, x = default_setup(n=2)
        probs, trace = model_forward(cfg, params, x, "train",
                                     dropout_rng=np.random.default_rng(5))
        model_backward(cfg, params, trace, np.ones_like(probs))
        assert calls == expected

    def test_toy_end_to_end_gradient(self):
        assert gradcheck.check_model() < gradcheck.MODEL_BOUND


def test_hundred_training_steps_stay_finite():
    # overflow / NaN sentinel on the full-size model
    from seiznet.dataset import synthesize
    from seiznet.preprocess import apply_scaler, fit_scaler, wavelet_denoise

    ds = synthesize(16, seed=5)
    x = wavelet_denoise(ds.features, "universal")
    x = apply_scaler(x, fit_scaler(x))
    y = ds.labels.astype(float)

    cfg = ModelConfig()
    params = init_params(cfg, 0)
    adam = optim.Adam(lr=1e-3)
    rng = np.random.default_rng(6)
    keys = l2_names(cfg)
    for step in range(100):
        probs, trace = model_forward(cfg, params, x, "train", dropout_rng=rng)
        _, grad_probs = optim.bce_loss(probs, y, params, cfg.l2_lambda, keys)
        grads = model_backward(cfg, params, trace, grad_probs)
        for k in keys:
            grads[k] += 2.0 * cfg.l2_lambda * params[k]
        for g in grads.values():
            assert np.isfinite(g).all()
        adam.step(params, grads)
    for v in params.values():
        assert np.isfinite(v).all()
