"""Run configuration: a flat key = value file with # comments. A comment
starts at a `#` that begins the line or follows whitespace, so a value such
as `/tmp/run#1/x.csv` keeps its `#`.

Unknown keys and out-of-range values are rejected with diagnostics that name
the offending field.
"""

import re
from dataclasses import dataclass

from .errors import ConfigError
from .optim import TrainHyper
from .preprocess import parse_policy


@dataclass
class RunConfig:
    data: str | None = None
    synthetic: bool = False
    synthetic_per_class: int = 250
    train_fraction: float = 0.8
    split_seed: int = 42
    stratified: bool = True
    wavelet: str = "universal"
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience_es: int = 10
    patience_lr: int = 5
    lr_factor: float = 0.5
    min_lr: float = 1e-5
    seed: int = 42
    val_fraction: float = 0.1
    out_dir: str = "out"

    def hyper(self) -> TrainHyper:
        return TrainHyper(
            lr=self.lr, batch_size=self.batch_size, max_epochs=self.max_epochs,
            seed=self.seed, patience_es=self.patience_es,
            patience_lr=self.patience_lr, lr_factor=self.lr_factor,
            min_lr=self.min_lr, val_fraction=self.val_fraction)


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
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind.__name__}")


_FIELD_TYPES = {
    "data": str, "synthetic": bool, "synthetic_per_class": int,
    "train_fraction": float, "split_seed": int, "stratified": bool,
    "wavelet": str, "lr": float, "batch_size": int, "max_epochs": int,
    "patience_es": int, "patience_lr": int, "lr_factor": float,
    "min_lr": float, "seed": int, "val_fraction": float, "out_dir": str,
}


def parse_config_file(path) -> RunConfig:
    rc = RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
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
    if not 0.0 < rc.train_fraction < 1.0:
        raise ConfigError(
            f"train_fraction must be strictly between 0 and 1, got {rc.train_fraction}")
    if not 0.0 < rc.val_fraction < 0.5:
        raise ConfigError(f"val_fraction must be in (0, 0.5), got {rc.val_fraction}")
    if rc.batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {rc.batch_size}")
    if rc.max_epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {rc.max_epochs}")
    if rc.lr <= 0:
        raise ConfigError(f"lr must be positive, got {rc.lr}")
    if rc.min_lr <= 0:
        raise ConfigError(f"min_lr must be positive, got {rc.min_lr}")
    if not 0.0 < rc.lr_factor < 1.0:
        raise ConfigError(f"lr_factor must be in (0, 1), got {rc.lr_factor}")
    if rc.patience_es < 1 or rc.patience_lr < 1:
        raise ConfigError("patience_es and patience_lr must be >= 1")
    if rc.synthetic_per_class < 1:
        raise ConfigError(
            f"synthetic_per_class must be >= 1, got {rc.synthetic_per_class}")
    if rc.seed < 0 or rc.split_seed < 0:
        raise ConfigError("seeds must be non-negative")
    parse_policy(rc.wavelet)
