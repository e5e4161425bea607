import pytest

from seiznet.config import parse_config_file
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
