"""Model artifact: one file holding the architecture, scaler statistics,
wavelet policy, training metadata, and every parameter tensor.

Layout: a text header (version line, key = value lines, one "tensor" line
per block in fixed order), then a "==binary==" divider, then for each tensor
a little-endian uint64 element count followed by the raw little-endian
float64 data. The round trip is bitwise exact.
"""

import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig
from .preprocess import ScalerParams, parse_policy

VERSION_TAG = "seiznet-model v1"
_DIVIDER = b"==binary==\n"


def _config_lines(config: ModelConfig):
    """One `name = value` line per ModelConfig field, in declaration order:
    a tuple as comma-joined ints, anything else as its repr."""
    lines = []
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        text = ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)
        lines.append(f"{f.name} = {text}")
    return lines


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temp file beside `path` and rename it onto `path` when the block
    ends, so a reader never sees a partial file; on any failure the temp file
    is removed and the error re-raised."""
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def save_artifact(path, config, params, scaler, wavelet_policy, metadata=None):
    """Write the artifact atomically (temp file + rename)."""
    parse_policy(wavelet_policy)
    tensors = [("scaler_mean", scaler.mean), ("scaler_std", scaler.std)]
    tensors += [(name, params[name]) for name in config.net.shapes]

    lines = [VERSION_TAG]
    lines += _config_lines(config)
    lines.append(f"wavelet = {wavelet_policy}")
    for key, value in (metadata or {}).items():
        lines.append(f"meta.{key} = {value}")
    for name, arr in tensors:
        dims = ",".join(str(d) for d in np.asarray(arr).shape)
        lines.append(f"tensor = {name} {dims}")

    with atomic_open(path) as fh:
        fh.write("\n".join(lines).encode("utf-8") + b"\n")
        fh.write(_DIVIDER)
        for _, arr in tensors:
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<Q", data.size))
            fh.write(data.tobytes())


def _parse_header(text):
    lines = text.splitlines()
    if not lines or lines[0] != VERSION_TAG:
        head = lines[0] if lines else ""
        raise DataError(f"unsupported model artifact version {head!r}")
    keys, metadata, tensor_specs = {}, {}, []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "tensor":
            name, _, dims = value.partition(" ")
            try:
                shape = tuple(int(d) for d in dims.split(",") if d != "")
            except ValueError:
                raise DataError(f"bad tensor line in artifact: {line!r}")
            tensor_specs.append((name, shape))
        elif key.startswith("meta."):
            metadata[key[len("meta."):]] = value
        else:
            keys[key] = value
    return keys, metadata, tensor_specs


def _config_from_keys(keys):
    """Inverse of `_config_lines`: each field parsed with its default's type,
    a tuple item by item as ints. A key that is no field is ignored: older
    files carry the retired `pool_size`, `attn_key_dim`, `dropout_rate`,
    `l2_lambda` and `conv_kernels`. None of them changes what the model
    computes: a file written with kernels other than `CONV_KERNELS` fails
    the tensor inventory check in `load_artifact`."""
    values = {}
    try:
        for f in fields(ModelConfig):
            kind, text = type(f.default), keys[f.name]
            values[f.name] = (tuple(int(v) for v in text.split(","))
                              if kind is tuple else kind(text))
        return ModelConfig(**values)
    except (KeyError, ValueError) as exc:
        raise DataError(f"model artifact header is incomplete or invalid: {exc}")


def load_artifact(path):
    """Returns (config, params, scaler, wavelet_policy, metadata); params
    are cast to float32, as `Net.init_params` gives them, the scaler not."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model artifact {path}: {exc}")
    split_at = blob.find(_DIVIDER)
    if split_at < 0:
        raise DataError(f"{path}: not a model artifact (missing binary divider)")
    try:
        header = blob[:split_at].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: model artifact header is not UTF-8 "
                        f"(byte {exc.start}: {exc.reason})")
    keys, metadata, tensor_specs = _parse_header(header)
    config = _config_from_keys(keys)
    if "wavelet" not in keys:
        raise DataError("model artifact lacks a wavelet policy")
    policy = keys["wavelet"]
    try:
        parse_policy(policy)
    except ConfigError as exc:
        raise DataError(f"model artifact key wavelet: {exc}")

    expected = [("scaler_mean", (config.input_len,)),
                ("scaler_std", (config.input_len,))]
    expected += list(config.net.shapes.items())
    if [(n, s) for n, s in tensor_specs] != expected:
        raise DataError("model artifact tensor inventory does not match its config")

    offset = split_at + len(_DIVIDER)
    arrays = {}
    for name, shape in tensor_specs:
        if offset + 8 > len(blob):
            raise DataError(f"model artifact truncated before tensor {name}")
        (count,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        want = int(np.prod(shape)) if shape else 1
        if count != want:
            raise DataError(
                f"tensor {name}: stored {count} values, shape {shape} needs {want}")
        end = offset + 8 * count
        if end > len(blob):
            raise DataError(f"model artifact truncated inside tensor {name}")
        arrays[name] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise DataError("model artifact has trailing bytes")

    scaler = ScalerParams(arrays.pop("scaler_mean"), arrays.pop("scaler_std"))
    with np.errstate(over="ignore"):  # an overflow is reported below by name
        params = {name: a.astype(np.float32) for name, a in arrays.items()}
    # checked after the cast, so a value beyond float32's range is caught too
    for name, a in [("scaler_mean", scaler.mean), ("scaler_std", scaler.std),
                    *params.items()]:
        if not np.isfinite(a).all():
            raise DataError(f"tensor {name} holds a value that is not finite in {a.dtype}")
    if not (scaler.std > 0).all():
        raise DataError("tensor scaler_std holds a standard deviation that is not > 0")
    return config, params, scaler, policy, metadata
