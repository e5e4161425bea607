"""Contract fuzz for the command line: `cli.main` driven in-process with argv
built from the documented options, config files built from RunConfig's keys
with junk mixed in, and small damaged CSVs.

Whatever the input, main exits 0, 1, 2 or 3; a failure prints one
`error: ...` line (for predict, `row N: ...` lines first), a data or numeric
failure names its stage, nothing escapes as a traceback, and no `.tmp` file
is left behind. predict never exits 3, and when it prints no `error: ...`
line, each data row gets one output line or one `row N: ...` line.
"""

import glob
import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from test_dataset import GOOD_FEATURES, csv_line

from seiznet import dataset, preprocess
from seiznet.artifact import save_artifact
from seiznet.cli import main
from seiznet.config import RunConfig
from seiznet.model import toy_config

# every file an argument may name; "sub" is a directory, "missing.*" absent
PATHS = ["labelled.csv", "features.csv", "model.bin", "run.cfg", "sub", "missing.csv", ""]
OUTS = ["out", "sub/new", ".", "sub", "labelled.csv", ""]
SEEDS = ["0", "3", "-1", "x", ""]


def usually(value, others):
    """`value` three times in four, else one of `others`."""
    return st.one_of(st.just(value), st.just(value), st.just(value), st.sampled_from(others))


# documented options per command, each a strategy for its value, or None
# for a flag. train always gets --config, whose file keeps the run small
# (see config_text) unless the option names no readable file.
OPTIONS = {
    "train": {"--config": usually("run.cfg", ["", "missing.cfg", "sub"]),
              "--data": st.sampled_from(PATHS), "--synthetic": None,
              "--out": st.sampled_from(OUTS), "--seed": st.sampled_from(SEEDS)},
    "evaluate": {"--model": usually("model.bin", PATHS), "--data": usually("labelled.csv", PATHS),
                 "--out": st.sampled_from(OUTS)},
    "predict": {"--model": usually("model.bin", PATHS), "--data": usually("features.csv", PATHS)},
    "gradcheck": {},
    "synth": {"--out": st.sampled_from(OUTS + ["new.csv"]),
              "--n-per-class": st.sampled_from(["1", "2", "0", "-1", "x"]),
              "--seed": st.sampled_from(SEEDS)},
}
USUALLY_GIVEN = {"--model", "--data"}

# config values by key type, (valid, invalid); ints stay small so no run
# can grow large
VALUES = {
    int: (["0", "1", "2", "3", "10"], ["-1", "2.5", "x", ""]),
    float: (["0.001", "0.1", "0.3", "0.5", "0.8", "1e-5"],
            ["0", "1", "-1", "1e9", "nan", "inf", "x", ""]),
    bool: (["true", "false", "yes", "no", "1", "0"], ["maybe", ""]),
    str: (["labelled.csv", "out", "sub/new", "universal", "off", "fixed:0.5"],
          ["features.csv", "model.bin", "sub", "missing.csv", "", "fixed:-1", "bogus"]),
}
KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
STAGES = "load|split|denoise|scale|train|evaluate|write|load-model|predict"


@st.composite
def config_line(draw):
    kind = draw(st.sampled_from(["key"] * 8 + ["junk key", "text"]))
    if kind == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\n"), max_size=20))
    key = draw(st.sampled_from(sorted(KEY_TYPES))) if kind == "key" else "no_such_key"
    valid, invalid = VALUES[KEY_TYPES.get(key, str)]
    value = draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid))
    return f"{key} = {value}" + draw(st.sampled_from(["", " # note", "#1"]))


@st.composite
def config_text(draw):
    """Config bytes: a budget that keeps training to one epoch on a few rows,
    which the drawn lines may override only with small values, then the
    drawn lines; sometimes with a byte-order mark or a non-UTF-8 byte."""
    lines = ["max_epochs = 1", "synthetic_per_class = 10", "synthetic = true"] + draw(
        st.lists(config_line(), max_size=5))
    text = ("\n".join(lines) + "\n").encode()
    extra = draw(st.sampled_from([b""] * 8 + [b"\xef\xbb\xbf", b"\xff"]))
    return extra + text if extra != b"\xff" else text + extra


HUGE_ROW = ",".join(["1e20"] * dataset.N_FEATURES)


@st.composite
def csv_text(draw, labelled):
    """Mostly good rows, mixed with huge ones (178 x 1e20) and with
    `test_dataset.csv_line`'s junk."""
    label = st.sampled_from(",1 ,2 ,3".split()) if labelled else st.just("")
    good = st.builds(lambda row, tail: (row + tail).encode(),
                     usually(GOOD_FEATURES[0], GOOD_FEATURES[1:]), label)
    huge = st.builds(lambda tail: (HUGE_ROW + tail).encode(), label)
    lines = draw(st.lists(st.one_of(good, good, good, huge, csv_line(labelled)),
                          max_size=12))
    return b"\n".join(lines) + b"\n"


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["train"] * 3 + ["evaluate", "predict"] * 2
                                   + ["synth", "gradcheck"]))
    args = [command]
    for option, value in OPTIONS[command].items():
        if option == "--config":  # its budget bounds every training run
            given = True
        else:  # --model and --data missing one time in eight, others half the time
            given = draw(st.sampled_from([True] * 7 + [False] if option in USUALLY_GIVEN
                                         else [True, False]))
        if given:
            args += [option] if value is None else [option, draw(value)]
    tail = draw(st.sampled_from([[]] * 6 + [["--bogus"], ["extra"], ["--out"]]))
    return args + tail


@pytest.fixture(scope="module")
def toy_model_bytes(tmp_path_factory):
    """An untrained model.bin of toy size that reads 178-value rows."""
    cfg = replace(toy_config(), input_len=dataset.N_FEATURES)
    path = tmp_path_factory.mktemp("toy") / "model.bin"
    scaler = preprocess.fit_scaler(dataset.synthesize(2, seed=11).features)
    save_artifact(path, cfg, cfg.net.init_params(0), scaler, "universal")
    return path.read_bytes()


def _run_in(root, files, args):
    """main(args) with `root` as the working directory, holding `files`."""
    os.mkdir(os.path.join(root, "sub"))
    for name, content in files.items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(content)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(args=argv(), cfg=config_text(), labelled=csv_text(labelled=True),
       features=csv_text(labelled=False))
# an overflowing row between good ones, and a malformed row after it
@example(args=["predict", "--model", "model.bin", "--data", "features.csv"], cfg=b"",
         labelled=b"", features="\n".join([GOOD_FEATURES[0], HUGE_ROW, GOOD_FEATURES[1],
                                           "1,2", GOOD_FEATURES[2]]).encode() + b"\n")
def test_cli_keeps_its_contract(toy_model_bytes, args, cfg, labelled, features):
    files = {"model.bin": toy_model_bytes, "run.cfg": cfg,
             "labelled.csv": labelled, "features.csv": features}
    with tempfile.TemporaryDirectory() as root:
        code, out, err = _run_in(root, files, args)
        left = glob.glob(os.path.join(root, "**", "*.tmp"), recursive=True)
        lines = err.splitlines()
        scored = args[0] == "predict" and not any(l.startswith("error: ") for l in lines)
        if scored:  # --data named a file that loaded: read its rows again
            _, good, bad = dataset.load_features_csv(
                os.path.join(root, args[args.index("--data") + 1]))
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err
    assert left == [], left
    if args[0] == "predict":  # a row the model cannot score is a row problem
        assert code != 3, err
    if scored:
        # each data row gets one stdout line or one `row N:` line, in line order
        numbers = [int(re.fullmatch(r"row (\d+): .+", l).group(1)) for l in lines]
        assert numbers == sorted(set(numbers)), err
        assert {n for n, _ in bad} <= set(numbers) <= {n for n, _ in bad} | set(good), err
        assert len(out.splitlines()) + len(numbers) == len(good) + len(bad), (out, err)
    if code == 0:
        assert lines == [], err
        return
    if args[0] == "predict":
        rows = [l for l in lines if re.fullmatch(r"row \d+: .+", l)]
        lines = lines[len(rows):]
        assert rows or lines, err
    assert len(lines) <= 1 and (lines or args[0] == "predict"), err
    for line in lines:
        assert re.fullmatch(r"error: \S.*", line), line
        if code in (2, 3):
            assert re.match(rf"error: ({STAGES}): ", line), line
