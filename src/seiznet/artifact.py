"""Model artifact: one file holding the architecture, scaler statistics,
wavelet policy, training metadata, and every parameter tensor.

Layout: a version line, a text header (key = value lines, one "tensor" line
per stored tensor), a "==binary==" divider, then for each tensor a
little-endian uint64 element count followed by its raw little-endian
float64 values. `_inventory(config)` is the one list of what is stored, in
which order and shape: `save_artifact` renders the tensor lines from it and
refuses an array of another shape, and `load_artifact` compares the file's
tensor lines with that rendering and reads each tensor at the offset the
inventory gives. The round trip is bitwise exact.

`save_artifact` writes version 2, whose version line is
`seiznet-model v2 sha256=<hex>`: the SHA-256 of every byte after that line,
which `load_artifact` checks before it parses anything. Version 1 files,
version line `seiznet-model v1`, hold the same bytes after it and are still
read, without a check. One changed byte in a v2 version line leaves it
matching neither tag, so no single damaged byte makes a v2 file load
unchecked. Two bytes could (`v2 sha256=` -> `v1` and a line `sha256=`), so a
v1 header that holds a `sha256` key is refused: it takes three.
"""

import hashlib
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig
from .preprocess import ScalerParams, parse_policy

V1_TAG = b"seiznet-model v1"
V2_PREFIX = b"seiznet-model v2 sha256="
_DIVIDER = b"==binary==\n"


def _inventory(config):
    """(name, shape) of each stored tensor, in file order: the scaler's
    two vectors, then `config.net.shapes`."""
    return [("scaler_mean", (config.input_len,)), ("scaler_std", (config.input_len,)),
            *config.net.shapes.items()]


def _text(value):
    """A header value: a tuple (config field or tensor shape) as comma-joined
    ints, anything else as its repr."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)


def _tensor_specs(inventory):
    """The value of each header `tensor = ` line: the name and its dims."""
    return [f"{name} {_text(shape)}" for name, shape in inventory]


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
    """Write a v2 artifact atomically (temp file + rename). An array whose
    shape is not the one `config` stores raises ValueError before any file
    is created."""
    parse_policy(wavelet_policy)
    inventory = _inventory(config)
    arrays = [scaler.mean, scaler.std, *(params[name] for name in config.net.shapes)]
    for (name, shape), arr in zip(inventory, arrays):
        if np.shape(arr) != shape:
            raise ValueError(f"tensor {name}: shape {np.shape(arr)}, its config needs {shape}")

    lines = [f"{f.name} = {_text(getattr(config, f.name))}" for f in fields(ModelConfig)]
    lines.append(f"wavelet = {wavelet_policy}")
    lines += [f"meta.{key} = {value}" for key, value in (metadata or {}).items()]
    lines += [f"tensor = {spec}" for spec in _tensor_specs(inventory)]
    parts = ["\n".join(lines).encode("utf-8") + b"\n" + _DIVIDER]
    for arr in arrays:
        data = np.ascontiguousarray(arr, dtype="<f8")
        parts += [data.size.to_bytes(8, "little"), data.tobytes()]
    body = b"".join(parts)
    with atomic_open(path) as fh:
        fh.write(V2_PREFIX + hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def _parse_header(lines):
    keys, metadata, tensor_specs = {}, {}, []
    for line in lines:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "tensor":
            tensor_specs.append(value)
        elif key.startswith("meta."):
            metadata[key[len("meta."):]] = value
        else:
            keys[key] = value
    return keys, metadata, tensor_specs


def _config_from_keys(keys):
    """Inverse of the config lines `save_artifact` writes: each field parsed
    with its default's type, a tuple item by item as ints. A key that is no field is ignored: older
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
    version, _, rest = blob.partition(b"\n")
    if version.startswith(V2_PREFIX):
        if version[len(V2_PREFIX):] != hashlib.sha256(rest).hexdigest().encode():
            raise DataError(f"{path}: model artifact does not match its sha256 digest")
    elif version != V1_TAG:
        shown = version[:64].decode(errors="replace")
        raise DataError(f"unsupported model artifact version {shown!r}")
    split_at = blob.find(_DIVIDER)
    if split_at < 0:
        raise DataError(f"{path}: not a model artifact (missing binary divider)")
    try:
        header = blob[:split_at].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: model artifact header is not UTF-8 "
                        f"(byte {exc.start}: {exc.reason})")
    keys, metadata, tensor_specs = _parse_header(header.splitlines()[1:])
    if "sha256" in keys:  # no v1 file has one; a damaged v2 version line does
        raise DataError(f"{path}: v1 model artifact holds a sha256 key, "
                        "the mark of a damaged v2 version line")
    config = _config_from_keys(keys)
    if "wavelet" not in keys:
        raise DataError("model artifact lacks a wavelet policy")
    policy = keys["wavelet"]
    try:
        parse_policy(policy)
    except ConfigError as exc:
        raise DataError(f"model artifact key wavelet: {exc}")

    inventory = _inventory(config)
    if tensor_specs != _tensor_specs(inventory):
        raise DataError("model artifact tensor inventory does not match its config")
    offset = split_at + len(_DIVIDER)
    # a count word and the values per tensor; math.prod, since np.prod wraps
    need, held = sum(8 + 8 * math.prod(shape) for _, shape in inventory), len(blob) - offset
    if held != need:
        problem = "truncated" if held < need else "has trailing bytes"
        raise DataError(f"model artifact {problem}: its tensors take {need} bytes, "
                        f"it holds {held}")
    arrays = {}
    for name, shape in inventory:
        count, want = int.from_bytes(blob[offset:offset + 8], "little"), math.prod(shape)
        if count != want:
            raise DataError(
                f"tensor {name}: stored {count} values, shape {shape} needs {want}")
        arrays[name] = np.frombuffer(blob, "<f8", want, offset + 8).reshape(shape).copy()
        offset += 8 + 8 * want

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
