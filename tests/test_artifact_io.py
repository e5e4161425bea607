import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seiznet import model
from seiznet.artifact import VERSION_TAG, load_artifact, save_artifact
from seiznet.errors import DataError
from seiznet.model import KERNEL, PROJ, VAR, ModelConfig, predict_probs, toy_config
from seiznet.preprocess import ScalerParams


def make_artifact(tmp_path, seed=0, policy="universal", metadata=None):
    cfg = toy_config()
    params = cfg.net.init_params(seed)
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
    assert set(params2) == set(cfg.net.shapes)
    for name in params:
        assert np.array_equal(params2[name], params[name]), name


def test_save_load_save_identical_bytes(tmp_path):
    path, cfg, params, scaler = make_artifact(tmp_path)
    cfg2, params2, scaler2, policy, meta = load_artifact(path)
    path2 = tmp_path / "again.bin"
    save_artifact(path2, cfg2, params2, scaler2, policy, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_non_default_config_round_trips(tmp_path):
    # every field differs from its default
    cfg = toy_config()
    default = ModelConfig()
    assert [f.name for f in fields(cfg)
            if getattr(cfg, f.name) == getattr(default, f.name)] == []
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    path = tmp_path / "model.bin"
    save_artifact(path, cfg, cfg.net.init_params(0), scaler, "off")
    assert load_artifact(path)[0] == cfg


@pytest.mark.parametrize("line", [b"pool_size = 2", b"attn_key_dim = 32",
                                  b"dropout_rate = 0.25", b"l2_lambda = 0.0",
                                  b"conv_kernels = 7,5,3"],
                         ids=["pool_size", "attn_key_dim", "dropout_rate", "l2_lambda",
                              "conv_kernels"])
def test_header_with_a_retired_key_loads(tmp_path, line):
    # artifacts written while these were config fields carry their lines;
    # none of them changes what the loaded model computes
    path, cfg, params, scaler = make_artifact(tmp_path)
    blob = path.read_bytes()
    at = blob.index(b"attn_heads = ")
    retired = tmp_path / "retired.bin"
    retired.write_bytes(blob[:at] + line + b"\n" + blob[at:])
    cfg2, params2, scaler2, _, _ = load_artifact(retired)
    assert cfg2 == cfg
    assert np.array_equal(scaler2.mean, scaler.mean)
    for name in params:
        assert np.array_equal(params2[name], params[name]), name
    x = np.random.default_rng(3).standard_normal((5, cfg.input_len))
    _, params_without, *_ = load_artifact(path)
    assert np.array_equal(predict_probs(cfg2, params2, x),
                          predict_probs(cfg, params_without, x))


def test_file_of_other_conv_kernels_is_refused(tmp_path, monkeypatch):
    # a file written while the kernels were a config field, with 5/3/1 in
    # its header and its conv tensors, must never load as the 7/5/3 network
    with monkeypatch.context() as patched:
        patched.setattr(model, "CONV_KERNELS", (5, 3, 1))
        path, cfg, *_ = make_artifact(tmp_path)
        assert cfg.net.shapes["conv1_w"] == (5, 1, 2)
    blob = path.read_bytes()
    at = blob.index(b"attn_heads = ")
    path.write_bytes(blob[:at] + b"conv_kernels = 5,3,1\n" + blob[at:])
    assert b"tensor = conv3_w 1,2,2\n" in path.read_bytes()
    with pytest.raises(DataError, match="tensor inventory does not match its config"):
        load_artifact(path)


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


@pytest.mark.parametrize("damage", ["blank line", "dim", "count"])
def test_header_and_count_edits(tmp_path, damage):
    path, cfg, params, _ = make_artifact(tmp_path)
    blob = path.read_bytes()
    head, _, body = blob.partition(b"==binary==\n")
    if damage == "blank line":
        head = head.replace(b"\ntensor = ", b"\n\ntensor = ", 1)
    elif damage == "dim":
        head = head.replace(b"tensor = scaler_mean 16", b"tensor = scaler_mean x", 1)
    else:
        body = (17).to_bytes(8, "little") + body[8:]
    path.write_bytes(head + b"==binary==\n" + body)
    if damage == "blank line":
        assert load_artifact(path)[0] == cfg
    else:
        match = {"dim": "bad tensor line", "count": "stored 17 values"}[damage]
        with pytest.raises(DataError, match=match):
            load_artifact(path)


@pytest.mark.parametrize("name, value, match", [
    ("scaler_std", -1.0, "scaler_std holds a standard deviation that is not > 0"),
    ("scaler_std", 0.0, "scaler_std holds a standard deviation that is not > 0"),
    ("scaler_std", np.inf, "scaler_std holds a value that is not finite in float64"),
    ("scaler_std", np.nan, "scaler_std holds a value that is not finite in float64"),
    ("scaler_mean", -np.inf, "scaler_mean holds a value that is not finite in float64"),
    ("conv1_w", np.nan, "conv1_w holds a value that is not finite in float32"),
    ("fc3_b", 1e300, "fc3_b holds a value that is not finite in float32"),
], ids=["std-negative", "std-zero", "std-inf", "std-nan", "mean-inf", "weight-nan",
        "float32-overflow"])
def test_damaged_stored_value_names_the_tensor(tmp_path, name, value, match):
    path, cfg, params, _ = make_artifact(tmp_path)
    blob = bytearray(path.read_bytes())
    offset = blob.index(b"==binary==\n") + len(b"==binary==\n")
    for tensor in ["scaler_mean", "scaler_std", *cfg.net.shapes]:
        if tensor == name:
            break
        (count,) = struct.unpack_from("<Q", blob, offset)
        offset += 8 + 8 * count
    struct.pack_into("<d", blob, offset + 8, value)  # its first value
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=match):
        load_artifact(path)


@pytest.mark.parametrize("line, match", [
    (b"wavelet = fixed:-1", "wavelet: fixed wavelet threshold must be >= 0"),
    (b"wavelet = fixed:x", "wavelet: bad fixed wavelet threshold"),
    (b"wavelet = bogus", "wavelet: unknown wavelet policy 'bogus'"),
    (None, "model artifact lacks a wavelet policy"),
], ids=["wavelet-negative", "wavelet-not-a-number", "wavelet-unknown", "wavelet-missing"])
def test_out_of_range_header_value_is_a_data_error(tmp_path, line, match):
    # the file's `wavelet = ` line replaced by `line`, or removed for None
    path, *_ = make_artifact(tmp_path)
    head, divider, body = path.read_bytes().partition(b"==binary==\n")
    lines = head.split(b"\n")
    at = next(i for i, ln in enumerate(lines) if ln.startswith(b"wavelet = "))
    lines[at:at + 1] = [] if line is None else [line]
    path.write_bytes(b"\n".join(lines) + divider + body)
    with pytest.raises(DataError, match=match):
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
    params = cfg.net.init_params(0)
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    target = tmp_path / "missing-dir" / "model.bin"
    with pytest.raises(OSError):
        save_artifact(target, cfg, params, scaler, "off")
    assert not target.exists()


def test_loaded_model_scores_like_the_trained_params(tmp_path):
    from seiznet import dataset, optim
    from seiznet.model import predict_probs
    ds = dataset.synthesize(20, seed=3)
    cfg = ModelConfig()
    params, _ = optim.train(cfg, ds.features, ds.labels,
                            optim.TrainHyper(max_epochs=2, seed=5))
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    path = tmp_path / "model.bin"
    save_artifact(path, cfg, params, scaler, "off")
    loaded = load_artifact(path)[1]
    assert {n: a.dtype for n, a in loaded.items()} == {n: a.dtype for n, a in params.items()}
    want = predict_probs(cfg, params, ds.features)
    assert predict_probs(cfg, loaded, ds.features).tobytes() == want.tobytes()


def test_cancelled_shifts_stored_nonzero_still_score(tmp_path):
    # an artifact trained while these shifts still learned holds them
    # nonzero; loading keeps them and fold applies them by its formula
    from seiznet.layers import BN_EPS
    from seiznet.model import CANCELLED, predict_probs
    path, cfg, params, scaler = make_artifact(tmp_path)
    net = cfg.net
    rng = np.random.default_rng(8)
    drifted = dict(params)
    for n, role in net.roles.items():
        if role not in (KERNEL, PROJ):  # shifts, scales and running statistics
            low = 0.5 if role == VAR else -0.1
            drifted[n] = rng.uniform(low, 1.0, net.shapes[n]).astype(np.float32)
    cancelled = [n for n, role in net.roles.items() if role == CANCELLED]
    save_artifact(path, cfg, drifted, scaler, "off")
    loaded = load_artifact(path)[1]
    for n in cancelled:
        assert loaded[n].any() and np.array_equal(loaded[n], drifted[n]), n
    folded = net.fold(loaded)
    for conv_or_fc, bn in zip(net.layers, net.layers[1:]):
        if bn.op == "batchnorm":
            w, b = conv_or_fc.shapes
            gamma, beta, mean, var = (loaded[n] for n in bn.shapes)
            scale = gamma / np.sqrt(var + BN_EPS)
            assert folded[b].tobytes() == ((loaded[b] - mean) * scale + beta).tobytes(), b
    x = rng.standard_normal((5, cfg.input_len))
    zeroed = {n: np.zeros_like(a) if n in cancelled else a for n, a in loaded.items()}
    assert predict_probs(cfg, loaded, x).tobytes() == predict_probs(cfg, drifted, x).tobytes()
    assert not np.array_equal(predict_probs(cfg, loaded, x), predict_probs(cfg, zeroed, x))


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


# the architecture lines of the default model's header, in order
DEFAULT_CONFIG_LINES = [
    "input_len = 178",
    "conv_filters = 32,64,128",
    "attn_heads = 4",
    "dense_units = 128,64",
]


def test_default_model_inventory_is_pinned(tmp_path):
    cfg = ModelConfig()
    scaler = ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
    path = tmp_path / "model.bin"
    save_artifact(path, cfg, cfg.net.init_params(0), scaler, "universal")
    header = path.read_bytes().split(b"==binary==\n", 1)[0].decode("utf-8")
    assert header.splitlines()[1:1 + len(DEFAULT_CONFIG_LINES)] == DEFAULT_CONFIG_LINES
    stored = []
    for line in header.splitlines():
        if line.startswith("tensor = "):
            name, dims = line[len("tensor = "):].split(" ")
            stored.append((name, tuple(int(d) for d in dims.split(","))))
    assert len(DEFAULT_INVENTORY) == 40
    assert stored == DEFAULT_INVENTORY
    assert list(cfg.net.shapes.items()) == DEFAULT_INVENTORY[2:]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path, *_ = make_artifact(tmp_path_factory.mktemp("fuzz"))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_artifact_fails_with_a_documented_error(fuzz_dir, data):
    blob = bytearray(fuzz_dir.read_bytes())
    header_end = blob.find(b"==binary==\n") + len(b"==binary==\n")
    # half the flips aim at the text header, the part that is parsed
    positions = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1))
    for pos, mask in data.draw(st.lists(st.tuples(positions, st.integers(1, 255)),
                                        max_size=4)):
        blob[pos] ^= mask
    blob = blob[:data.draw(st.integers(0, len(blob)))]
    damaged = fuzz_dir.with_name("damaged.bin")
    damaged.write_bytes(bytes(blob))
    try:
        load_artifact(damaged)
    except DataError:
        pass
