"""Run configuration: a flat key = value file with # comments. A comment
starts at a `#` that begins the line or follows whitespace, so a value such
as `/tmp/run#1/x.csv` keeps its `#`.

Unknown keys and out-of-range values are rejected with diagnostics that name
the offending field.
"""

import math
import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .optim import MIN_LR, TrainHyper
from .preprocess import parse_policy


@dataclass
class RunConfig(TrainHyper):
    """Every config key: the training settings of `TrainHyper` plus the
    run's data, split seed, wavelet and output settings. A key's type is its
    default's type."""

    data: str = ""
    synthetic: bool = False
    synthetic_per_class: int = 250
    split_seed: int = 42
    wavelet: str = "universal"
    out_dir: str = "out"


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(key, text, kind):
    try:
        if kind is bool:
            if text.lower() not in _BOOL:
                raise ValueError
            return _BOOL[text.lower()]
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ConfigError(f"{key}: {text!r} is not a finite number")
            return value
        return text
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind.__name__}")


_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config_file(path) -> RunConfig:
    rc = RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    if lines:  # one leading byte-order mark, as some Windows editors write
        lines[0] = lines[0].removeprefix("\ufeff")
    for line_no, line in enumerate(lines, start=1):
        line = re.sub(r"(^|\s)#.*", "", line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        setattr(rc, key, _convert(key, value, _FIELD_TYPES[key]))
    validate(rc)
    return rc


def validate(rc: RunConfig):
    if rc.batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {rc.batch_size}")
    if rc.max_epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {rc.max_epochs}")
    if rc.lr < MIN_LR:
        # the plateau step max(lr * LR_FACTOR, MIN_LR) would raise the rate
        raise ConfigError(f"lr must be at least the plateau floor {MIN_LR:g}, got {rc.lr}")
    if rc.patience_es < 1:
        raise ConfigError(f"patience_es must be >= 1, got {rc.patience_es}")
    if rc.synthetic_per_class < 1:
        raise ConfigError(
            f"synthetic_per_class must be >= 1, got {rc.synthetic_per_class}")
    if rc.seed < 0 or rc.split_seed < 0:
        raise ConfigError(f"seed and split_seed must be >= 0, got {rc.seed}, {rc.split_seed}")
    parse_policy(rc.wavelet)
