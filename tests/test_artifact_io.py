import numpy as np
import pytest

from seiznet.artifact import VERSION_TAG, load_artifact, save_artifact
from seiznet.errors import DataError
from seiznet.model import ModelConfig, init_params, param_names, param_shapes, toy_config
from seiznet.preprocess import ScalerParams


def make_artifact(tmp_path, seed=0, policy="universal", metadata=None):
    cfg = toy_config()
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 50)
    scaler = ScalerParams(rng.standard_normal(cfg.input_len),
                          rng.uniform(0.5, 2.0, cfg.input_len))
    path = tmp_path / "model.bin"
    save_artifact(path, cfg, params, scaler, policy,
                  metadata or {"seed": "0", "epochs_run": "3"})
    return path, cfg, params, scaler


def test_round_trip_is_bitwise(tmp_path):
    path, cfg, params, scaler = make_artifact(tmp_path)
    cfg2, params2, scaler2, policy, meta = load_artifact(path)
    assert cfg2 == cfg
    assert policy == "universal"
    assert meta["epochs_run"] == "3"
    assert np.array_equal(scaler2.mean, scaler.mean)
    assert np.array_equal(scaler2.std, scaler.std)
    assert set(params2) == set(param_names(cfg))
    for name in params:
        assert np.array_equal(params2[name], params[name]), name


def test_save_load_save_identical_bytes(tmp_path):
    path, cfg, params, scaler = make_artifact(tmp_path)
    cfg2, params2, scaler2, policy, meta = load_artifact(path)
    path2 = tmp_path / "again.bin"
    save_artifact(path2, cfg2, params2, scaler2, policy, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_fixed_policy_round_trip(tmp_path):
    path, *_ = make_artifact(tmp_path, policy="fixed:2.5")
    _, _, _, policy, _ = load_artifact(path)
    assert policy == "fixed:2.5"


def test_corrupted_version_tag(tmp_path):
    path, *_ = make_artifact(tmp_path)
    blob = path.read_bytes().replace(VERSION_TAG.encode(), b"seiznet-model v9")
    path.write_bytes(blob)
    with pytest.raises(DataError, match="version"):
        load_artifact(path)


def test_truncated_file(tmp_path):
    path, *_ = make_artifact(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 64])
    with pytest.raises(DataError, match="truncat"):
        load_artifact(path)


def test_trailing_garbage(tmp_path):
    path, *_ = make_artifact(tmp_path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(DataError, match="trailing"):
        load_artifact(path)


def test_not_an_artifact(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"hello world")
    with pytest.raises(DataError):
        load_artifact(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_artifact(tmp_path / "absent.bin")


def test_failed_save_leaves_no_file(tmp_path):
    cfg = toy_config()
    params = init_params(cfg, 0)
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    target = tmp_path / "missing-dir" / "model.bin"
    with pytest.raises(OSError):
        save_artifact(target, cfg, params, scaler, "off")
    assert not target.exists()


def test_no_tmp_residue_after_save(tmp_path):
    path, *_ = make_artifact(tmp_path)
    assert list(tmp_path.glob("*.tmp")) == []


# every tensor of the default model, in the order model.bin stores them
DEFAULT_INVENTORY = [
    ("scaler_mean", (178,)), ("scaler_std", (178,)),
    ("conv1_w", (7, 1, 32)), ("conv1_b", (32,)),
    ("bn1_gamma", (32,)), ("bn1_beta", (32,)), ("bn1_mean", (32,)), ("bn1_var", (32,)),
    ("conv2_w", (5, 32, 64)), ("conv2_b", (64,)),
    ("bn2_gamma", (64,)), ("bn2_beta", (64,)), ("bn2_mean", (64,)), ("bn2_var", (64,)),
    ("conv3_w", (3, 64, 128)), ("conv3_b", (128,)),
    ("bn3_gamma", (128,)), ("bn3_beta", (128,)), ("bn3_mean", (128,)), ("bn3_var", (128,)),
    ("attn_wq", (4, 128, 32)), ("attn_wk", (4, 128, 32)), ("attn_wv", (4, 128, 32)),
    ("attn_wo", (128, 128)),
    ("ln_gamma", (128,)), ("ln_beta", (128,)),
    ("fc1_w", (128, 128)), ("fc1_b", (128,)),
    ("bnd1_gamma", (128,)), ("bnd1_beta", (128,)), ("bnd1_mean", (128,)), ("bnd1_var", (128,)),
    ("fc2_w", (128, 64)), ("fc2_b", (64,)),
    ("bnd2_gamma", (64,)), ("bnd2_beta", (64,)), ("bnd2_mean", (64,)), ("bnd2_var", (64,)),
    ("fc3_w", (64, 1)), ("fc3_b", (1,)),
]


def test_default_model_inventory_is_pinned(tmp_path):
    cfg = ModelConfig()
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    path = tmp_path / "model.bin"
    save_artifact(path, cfg, init_params(cfg, 0), scaler, "universal")
    header = path.read_bytes().split(b"==binary==\n", 1)[0].decode("utf-8")
    stored = []
    for line in header.splitlines():
        if line.startswith("tensor = "):
            name, dims = line[len("tensor = "):].split(" ")
            stored.append((name, tuple(int(d) for d in dims.split(","))))
    assert len(DEFAULT_INVENTORY) == 40
    assert stored == DEFAULT_INVENTORY
    assert list(param_shapes(cfg).items()) == DEFAULT_INVENTORY[2:]
