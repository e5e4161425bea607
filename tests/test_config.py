import re
from dataclasses import fields
from pathlib import Path

import pytest

from seiznet import optim
from seiznet.config import RunConfig, parse_config_file
from seiznet.errors import ConfigError


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_hash_inside_value_is_kept(tmp_path):
    rc = parse_config_file(write(tmp_path, "data = /tmp/run#1/x.csv\n"))
    assert rc.data == "/tmp/run#1/x.csv"


def test_inline_comment_after_whitespace_is_cut(tmp_path):
    rc = parse_config_file(write(tmp_path, "# a run\nlr = 0.01   # note\n\tseed = 3\t# tab\n"))
    assert rc.lr == 0.01
    assert rc.seed == 3


def test_value_glued_to_hash_is_not_a_comment(tmp_path):
    with pytest.raises(ConfigError, match="lr"):
        parse_config_file(write(tmp_path, "lr = 0.01#note\n"))


def test_readme_defaults_are_the_run_config_defaults(tmp_path):
    # the README's ini block is the one hand-written copy of the defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    keys = [line.partition("=")[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
    assert parse_config_file(write(tmp_path, block)) == RunConfig()


def test_byte_order_mark_is_skipped(tmp_path):
    text = "synthetic = true\nlr = 0.01\n"
    path = tmp_path / "bom.cfg"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert parse_config_file(path) == parse_config_file(write(tmp_path, text))


def test_lr_below_min_lr_is_refused(tmp_path):
    # the plateau step max(lr * LR_FACTOR, MIN_LR) would raise the rate to MIN_LR
    with pytest.raises(ConfigError, match=r"^lr .*1e-05, got 1e-06$"):
        parse_config_file(write(tmp_path, "lr = 1e-6\n"))
    assert parse_config_file(write(tmp_path, f"lr = {optim.MIN_LR}\n")).lr == optim.MIN_LR
