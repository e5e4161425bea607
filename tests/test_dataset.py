import io
import os
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seiznet import dataset, preprocess
from seiznet.artifact import save_artifact
from seiznet.cli import main
from seiznet.errors import ConfigError, DataError
from seiznet.model import ModelConfig


def make_row(label, value=1.0):
    return ",".join(str(value + i % 7) for i in range(178)) + f",{label}"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_plain_rows(self, tmp_path):
        path = write_csv(tmp_path, "\n".join(make_row(l) for l in (1, 2, 3, 4, 5)) + "\n")
        ds = dataset.load_csv(path)
        assert ds.features.shape == (5, 178)
        assert ds.labels.tolist() == [1, 0, 0, 0, 0]
        assert ds.source == "real"

    def test_header_and_id_column(self, tmp_path):
        header = "," + ",".join(f"X{i}" for i in range(1, 179)) + ",y"
        rows = [f"X21.V1.{i}," + make_row(1) for i in range(3)]
        ds = dataset.load_csv(write_csv(tmp_path, header + "\n" + "\n".join(rows) + "\n"))
        assert ds.features.shape == (3, 178)
        assert ds.labels.tolist() == [1, 1, 1]

    def test_crlf_and_blank_lines(self, tmp_path):
        text = make_row(2) + "\r\n\r\n" + make_row(1) + "\r\n"
        ds = dataset.load_csv(write_csv(tmp_path, text))
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("header", ["", ",".join(f"X{i}" for i in range(1, 179)) + ",y\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with one U+FEFF
        text = header + make_row(3) + "\n" + make_row(1) + "\n"
        plain = dataset.load_csv(write_csv(tmp_path, text))
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        bom = dataset.load_csv(path)
        assert np.array_equal(bom.features, plain.features)
        assert bom.labels.tolist() == plain.labels.tolist() == [0, 1]

    def test_row_order_preserved(self, tmp_path):
        rows = [",".join(str(float(r)) for _ in range(178)) + ",5" for r in range(4)]
        ds = dataset.load_csv(write_csv(tmp_path, "\n".join(rows)))
        assert ds.features[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_wrong_field_count_names_row(self, tmp_path):
        bad = ",".join("1" for _ in range(177)) + ",3"
        path = write_csv(tmp_path, make_row(1) + "\n" + bad + "\n")
        with pytest.raises(DataError, match="row 2"):
            dataset.load_csv(path)

    def test_non_numeric_feature_names_row(self, tmp_path):
        bad = "oops," + ",".join("1" for _ in range(177)) + ",3"
        path = write_csv(tmp_path, make_row(1) + "\n" + bad)
        with pytest.raises(DataError, match="row 2"):
            dataset.load_csv(path)

    def test_label_out_of_range(self, tmp_path):
        path = write_csv(tmp_path, make_row(6))
        with pytest.raises(DataError, match="1..5"):
            dataset.load_csv(path)

    def test_first_bad_column_is_named(self, tmp_path):
        fields = make_row(1).split(",")
        fields[2], fields[4] = "nan", "x"
        path = write_csv(tmp_path, make_row(1) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(DataError, match=r"^row 2: non-finite feature value \(column 3\)$"):
            dataset.load_csv(path)

    @pytest.mark.parametrize("label", ["inf", "nan", "1.5"])
    def test_non_integer_label(self, tmp_path, label):
        path = write_csv(tmp_path, make_row(label))
        with pytest.raises(DataError, match="row 1: label .* is not an integer"):
            dataset.load_csv(path)

    def test_corrupt_label_in_first_row_is_not_a_header(self, tmp_path):
        path = write_csv(tmp_path, make_row("one") + "\n" + make_row(1) + "\n")
        with pytest.raises(DataError, match=r"^row 1: label 'one' is not an integer$"):
            dataset.load_csv(path)

    def test_fields_keep_whitespace_and_messages_strip_it(self, tmp_path):
        fields = make_row(2).split(",")
        spaced = ",".join(f" {f}\t" for f in fields)
        fields[5] = "  x "
        path = write_csv(tmp_path, spaced + "\n" + ",".join(fields) + "\n")
        with pytest.raises(DataError, match=r"^row 2: non-numeric feature 'x' \(column 6\)$"):
            dataset.load_csv(path)
        ds = dataset.load_csv(write_csv(tmp_path, spaced + "\n", "spaced.csv"))
        assert ds.features[0].tolist() == [float(f) for f in make_row(2).split(",")[:178]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            dataset.load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            dataset.load_csv(write_csv(tmp_path, "\n"))


def test_features_csv_reports_bad_rows_without_row_prefix(tmp_path):
    good = ",".join(str(float(i)) for i in range(178))
    non_finite = good.replace("1.0", "inf", 1)
    text = "\n".join(["id," + ",".join(f"X{i}" for i in range(178)),
                      "a," + good, "1.0,2.0,3.0", "", "b," + non_finite, good]) + "\n"
    features, row_nos, problems = dataset.load_features_csv(write_csv(tmp_path, text))
    assert features.shape == (2, 178) and row_nos == [2, 6]
    assert problems == [(3, "expected 178 features, got 3 fields"),
                        (5, "non-finite feature value (column 2)")]


def test_features_csv_reports_a_bad_first_row(tmp_path):
    good = ",".join(str(float(i)) for i in range(178))
    bad_last = good.rsplit(",", 1)[0] + ",abc"
    features, row_nos, problems = dataset.load_features_csv(
        write_csv(tmp_path, bad_last + "\n" + good + "\n"))
    assert features.shape == (1, 178) and row_nos == [2]
    assert problems == [(1, "non-numeric feature 'abc' (column 178)")]


# str.splitlines() breaks a line at each of these; a file's lines end only at
# "\n" (text mode reads "\r\n" and a lone "\r" as "\n")
SPLITLINES_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
FLOAT_STRIPS = {"\v", "\f", "\x85", "\u2028", "\u2029"}  # float("2.0" + c) == 2.0
FOUR_ROWS = [",".join(str(float(i + r)) for i in range(178)) for r in range(4)]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=ascii)
def test_a_line_break_of_splitlines_inside_a_field_is_one_bad_row(tmp_path, char):
    rows = list(FOUR_ROWS)
    rows[1] = rows[1].replace(",2.0,", f",2{char}.0,", 1)  # column 2 of line 2
    path = tmp_path / "features.csv"
    path.write_bytes("\n".join(rows).encode() + b"\n")
    features, row_nos, problems = dataset.load_features_csv(path)
    assert row_nos == [1, 3, 4]
    assert problems == [(2, f"non-numeric feature {'2' + char + '.0'!r} (column 2)")]
    assert np.array_equal(features, np.array([[float(v) for v in rows[r].split(",")]
                                              for r in (0, 2, 3)]))


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=ascii)
def test_a_field_ending_in_a_line_break_of_splitlines_parses_as_float_reads_it(tmp_path,
                                                                              char):
    rows = list(FOUR_ROWS)
    rows[1] = rows[1].replace(",2.0,", f",2.0{char},", 1)
    path = tmp_path / "features.csv"
    path.write_bytes("\n".join(rows).encode() + b"\n")
    features, row_nos, problems = dataset.load_features_csv(path)
    if char in FLOAT_STRIPS:
        assert row_nos == [1, 2, 3, 4] and problems == []
        assert np.array_equal(features, np.array([[float(v) for v in row.split(",")]
                                                  for row in FOUR_ROWS]))
    else:
        assert row_nos == [1, 3, 4]
        # float() refuses the separator, so the message keeps it
        assert problems == [(2, f"non-numeric feature {'2.0' + char!r} (column 2)")]


def test_binarize_label():
    assert dataset.binarize_label(1) == 1
    assert dataset.binarize_label(2) == 0
    assert dataset.binarize_label(5) == 0
    for bad in (0, 6, -1):
        with pytest.raises(DataError):
            dataset.binarize_label(bad)


class TestSplit:
    def test_80_20_sizes_at_full_scale(self):
        ds = dataset.synthesize(5750, seed=3)  # 11500 rows
        train, test = dataset.split(ds, 42)
        assert len(train) == 9200
        assert len(test) == 2300

    def test_deterministic(self):
        ds = dataset.synthesize(5, seed=1)  # 10 rows
        a1, b1 = dataset.split(ds, seed=9)
        a2, b2 = dataset.split(ds, seed=9)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(a1.labels, a2.labels)

    def test_stratified_positive_count(self):
        # 100 rows with 20 positives at fraction 0.8 -> exactly 16 positives
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((100, 178))
        labels = np.array([1] * 20 + [0] * 80)
        ds = dataset.Dataset(feats, labels, "synthetic")
        train, test = dataset.split(ds, 5)
        assert len(train) == 80
        assert int(train.labels.sum()) == 16
        assert int(test.labels.sum()) == 4

    def test_stratified_within_one_sample(self):
        for n_pos, n_neg, frac in [(7, 13, 0.6), (3, 50, 0.85), (11, 11, 0.5), (5, 4, 0.9)]:
            labels = np.array([1] * n_pos + [0] * n_neg)
            first, second = dataset.partition_indices(labels, frac, 2)
            assert len(first) == int(np.floor(frac * len(labels) + 0.5))
            assert abs(int(labels[first].sum()) - frac * n_pos) <= 1.0
            assert sorted(np.concatenate([first, second]).tolist()) == list(range(len(labels)))

    def test_union_is_input_multiset(self):
        ds = dataset.synthesize(30, seed=4)
        train, test = dataset.split(ds, 11)
        merged = np.vstack([train.features, test.features])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.features.T)
        assert np.array_equal(merged[key], ds.features[orig_key])
        assert len(train) + len(test) == len(ds)

    def test_single_class_stratified_errors(self):
        rng = np.random.default_rng(0)
        ds = dataset.Dataset(rng.standard_normal((10, 178)), np.zeros(10, dtype=int), "synthetic")
        with pytest.raises(DataError, match="both classes"):
            dataset.split(ds, 1)

    def test_zero_rows_errors(self):
        # no rows hold neither class, so the both-classes check refuses them
        with pytest.raises(DataError, match="both classes"):
            dataset.split(dataset.Dataset(np.empty((0, 178)), np.empty(0), "synthetic"), 1)

    def test_empty_test_split_names_fraction_and_rows(self):
        # 0.8 of 2 rows rounds to 2: the only size that leaves no test row
        with pytest.raises(DataError, match="train_fraction = 0.8 on 2 rows "
                                            "leaves an empty test split"):
            dataset.split(dataset.synthesize(1, seed=0), 1)
        train, test = dataset.split(dataset.synthesize(2, seed=0), 1)
        assert (len(train), len(test)) == (3, 1)


class TestSynthesize:
    def test_counts_and_labels(self):
        ds = dataset.synthesize(100, seed=7)
        assert len(ds) == 200
        assert int(ds.labels.sum()) == 100
        assert ds.source == "synthetic"

    def test_deterministic(self):
        a = dataset.synthesize(50, seed=3)
        b = dataset.synthesize(50, seed=3)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, dataset.synthesize(50, seed=4).features)

    def test_amplitude_contrast(self):
        ds = dataset.synthesize(500, seed=9)  # 1000 rows
        mean_abs = np.abs(ds.features).mean(axis=1)
        neg = mean_abs[ds.labels == 0].mean()
        pos = mean_abs[ds.labels == 1].mean()
        assert pos > 5.0 * neg

    def test_energy_threshold_oracle(self):
        # a plain per-row energy threshold must separate the classes >= 99%
        ds = dataset.synthesize(500, seed=2)
        energy = (ds.features ** 2).sum(axis=1)
        thresholds = np.sort(energy)
        best = max(
            ((energy > t).astype(int) == ds.labels).mean() for t in thresholds[::25]
        )
        assert best >= 0.99

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            dataset.synthesize(0, seed=1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            dataset.synthesize(1, seed=-1)


def loop_synthesize(n_per_class, seed):
    """The synthetic generator with its noise drawn as one whole matrix and
    its spike trains written one sample at a time: the reference
    `dataset.synthesize` must match bit for bit."""
    n = dataset.N_FEATURES
    rng = np.random.default_rng(seed)
    rows = 2 * n_per_class
    raw = rng.standard_normal((rows, n + 4))
    feat = np.zeros((rows, n))
    for k in range(5):
        feat += raw[:, k:k + n]
    feat *= 1.0 / np.sqrt(5.0)
    for i in range(n_per_class, rows):
        period = int(rng.integers(3, 7))
        amp = float(rng.uniform(10.0, 20.0))
        start = int(rng.integers(0, period))
        sign = 1.0
        for t in range(start, n, period):
            feat[i, t] += sign * amp
            if t > 0:
                feat[i, t - 1] += sign * amp / 2.0
            if t < n - 1:
                feat[i, t + 1] += sign * amp / 2.0
            sign = -sign
    return feat


@pytest.mark.parametrize("n_per_class, seed", [(1, 0), (1, 13), (2, 5), (40, 1),
                                               (40, 7), (300, 42)])
def test_synthesize_matches_the_sample_loop(n_per_class, seed):
    got = dataset.synthesize(n_per_class, seed).features
    assert got.tobytes() == loop_synthesize(n_per_class, seed).tobytes()


@pytest.mark.parametrize("block_rows, n_per_class", [
    (dataset.SYNTH_BLOCK_ROWS, 300), (dataset.SYNTH_BLOCK_ROWS, 512),
    (dataset.SYNTH_BLOCK_ROWS, 700), (8, 40), (7, 40), (200, 40)])
def test_synthesize_draws_its_noise_in_blocks_like_one_draw(monkeypatch, block_rows,
                                                            n_per_class):
    # 2 * n_per_class rows: below, at and off a multiple of the block
    monkeypatch.setattr(dataset, "SYNTH_BLOCK_ROWS", block_rows)
    got = dataset.synthesize(n_per_class, 11).features
    assert got.tobytes() == loop_synthesize(n_per_class, 11).tobytes()


def row_loop_synthesize(n_per_class, seed):
    """`dataset.synthesize` with its spike trains added one row at a time,
    three draws then three fancy-index adds per row: the form the blocked
    adds replaced, which they must match bit for bit."""
    n = dataset.N_FEATURES
    rng = np.random.default_rng(seed)
    rows = 2 * n_per_class
    feat = np.zeros((rows, n))
    for i in range(0, rows, dataset.SYNTH_BLOCK_ROWS):
        block = feat[i:i + dataset.SYNTH_BLOCK_ROWS]
        raw = rng.standard_normal((block.shape[0], n + 4))
        for k in range(5):
            block += raw[:, k:k + n]
    feat *= 1.0 / np.sqrt(5.0)
    for row in feat[n_per_class:]:
        period = int(rng.integers(3, 7))
        amp = float(rng.uniform(10.0, 20.0))
        start = int(rng.integers(0, period))
        t = np.arange(start, n, period)
        spike = np.where(np.arange(t.size) % 2 == 0, amp, -amp)
        row[t] += spike
        left = t > 0
        row[t[left] - 1] += spike[left] / 2.0
        right = t < n - 1
        row[t[right] + 1] += spike[right] / 2.0
    return feat


@pytest.mark.parametrize("seed", [0, 3, 29])
@pytest.mark.parametrize("n_per_class", [1, 2, 3, 1023, 1024, 1025])
def test_synthesize_adds_its_spikes_like_the_row_loop(n_per_class, seed):
    # positive rows below, at and one past a SYNTH_BLOCK_ROWS block
    got = dataset.synthesize(n_per_class, seed).features
    assert got.tobytes() == row_loop_synthesize(n_per_class, seed).tobytes()


class TestDataset:
    @pytest.mark.parametrize("features, labels, match", [
        (np.zeros((2, 177)), [0, 1], "rows x 178"),
        (np.zeros((2, 178)), [0], "label count"),
        (np.full((1, 178), np.nan), [0], "non-finite"),
        (np.zeros((1, 178)), [2], "0 or 1")])
    def test_bad_arrays_rejected(self, features, labels, match):
        with pytest.raises(DataError, match=match):
            dataset.Dataset(features, labels, "synthetic")


# Feature fields of valid rows; csv_file mixes them with the junk lines a
# damaged or foreign file may hold.
GOOD_FEATURES = [",".join(repr(float(v)) for v in row)
                 for row in dataset.synthesize(2, seed=11).features]
JUNK_KINDS = ["label", "bytes", "count", "value", "empty", "text"]


@st.composite
def csv_line(draw, labelled):
    """One line as bytes: a good row or one kind of junk."""
    features = draw(st.sampled_from(GOOD_FEATURES))
    label = "," + draw(st.sampled_from("12345")) if labelled else ""
    kind = draw(st.sampled_from(["good", "good"] + JUNK_KINDS))
    fields = features.split(",")
    if kind == "good":
        line = features + label
    elif kind == "label":
        line = features + "," + draw(st.sampled_from(
            ["0", "6", "-1", "1.5", "x", "", " ", "nan", "inf", "1e400", "1e19"]))
    elif kind == "bytes":
        raw = (features + label).encode()
        cut = draw(st.integers(0, len(raw)))
        return raw[:cut] + draw(st.binary(min_size=1, max_size=4)) + raw[cut:]
    elif kind == "count":
        line = ",".join((fields * 2)[:draw(st.integers(0, 2 * len(fields)))])
    elif kind in ("value", "empty"):
        bad = ["nan", "-inf", "1e400", "-1e400"] if kind == "value" else ["", " ", "\t"]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(bad))
        line = ",".join(fields) + label
    else:
        line = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    return line.encode()


def csv_file(labelled):
    return st.lists(csv_line(labelled), max_size=8).map(lambda lines: b"\n".join(lines) + b"\n")


@settings(max_examples=300, deadline=None)
@given(content=csv_file(labelled=True))
def test_junk_csv_loads_or_raises_data_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(content)
    try:
        ds = dataset.load_csv(path)
    except DataError:
        return
    assert len(ds) >= 1


@st.composite
def line_with_a_break(draw):
    """A feature csv_line, half the time with one of SPLITLINES_BREAKS in it."""
    line = draw(csv_line(labelled=False))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + draw(st.sampled_from(SPLITLINES_BREAKS)).encode() + line[cut:]
    return line


def parse_alone(line: bytes, first: bool) -> np.ndarray:
    """One good feature line parsed by itself, without the loader."""
    text = line.decode()
    fields = (text.removeprefix("\ufeff") if first else text).split(",")
    if len(fields) == dataset.N_FEATURES + 1:
        fields = fields[1:]  # a row-identifier column
    return np.array([float(f) for f in fields])


@settings(max_examples=200, deadline=None)
@example(lines=[FOUR_ROWS[0].encode(), FOUR_ROWS[1].replace(",2.0,", ",2\f.0,").encode(),
                FOUR_ROWS[2].encode(), FOUR_ROWS[3].encode()])
@given(lines=st.lists(line_with_a_break(), max_size=8))
def test_row_numbers_are_the_lines_of_the_raw_bytes(tmp_path_factory, lines):
    content = b"\n".join(lines)
    path = tmp_path_factory.mktemp("fuzz") / "features.csv"
    path.write_bytes(content)
    try:
        features, row_nos, problems = dataset.load_features_csv(path)
    except DataError:  # not UTF-8: no row is numbered
        return
    # the oracle: the raw bytes split on b"\n", after text mode's newline folding
    raw = content.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for n in row_nos + [n for n, _ in problems]:
        assert 1 <= n <= len(raw) and raw[n - 1].strip(), n
    assert len(features) == len(row_nos)
    for n, row in zip(row_nos, features):
        assert np.array_equal(row, parse_alone(raw[n - 1], first=n == 1)), n


def test_float_blanks_are_what_float_ignores():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    ignored = [c for c in spaces if dataset._is_number(f"{c}2.0{c}")]
    assert sorted(dataset.FLOAT_BLANKS) == ignored
    assert set(spaces) - set(ignored) == {"\x1c", "\x1d", "\x1e", "\x1f"}


def row_path(path, labelled):
    """The oracle for `_parse_rows`: the whole file read as one text, with
    Python's text mode decoding it and folding its line ends, and every
    line through the row parser. Returns (features, labels, line numbers,
    problems), or the DataError message of a file that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
    rows = dataset._Rows(np.empty((0, dataset.N_FEATURES)))
    dataset._parse_lines(text.removeprefix("\ufeff").split("\n"), 1, labelled, rows)
    return rows.features[:rows.n], rows.labels, rows.row_nos, rows.problems


# values the two parsers must agree on: loadtxt reads the separators
# \x1c-\x1f, which float() refuses; float() reads "1_0" and ignores "\x85"
# and "\v" around a number; a byte-order mark is data after the file's
# start; the rest are the allow-list's own bytes in orders either may refuse
ODD_FIELDS = ["inf", "-inf", "nan", "1e400", "1_0", "", " 2.0", "2.0\x85", "2\x85.0",
              "2.0\v", "2\v.0", "\ufeff2.0", "1e", "-", ".", "+-1", "1..2", "e5", ".5",
              "5.", "+.5e-3", "1E+05", "0." + "1" * 40, "9" * 400]
SEPARATED = ["2.0\x1c", "2.0\x1d", "2.0\x1e", "2.0\x1f", "\x1c2.0"]
HEADER = ",".join(f"X{i}" for i in range(1, 179))


def with_field(line, column, value):
    """FOUR_ROWS twice over as one file, with one field replaced."""
    rows = [row.split(",") for row in FOUR_ROWS * 2]
    rows[line][column] = value
    return "".join(",".join(row) + "\n" for row in rows).encode()


@st.composite
def mixed_line(draw, labelled):
    """One line as text, before its line end: mostly a good row, else a row
    with one odd field, a header, an identifier column, a wrong field count
    or a blank line."""
    fields = draw(st.sampled_from(GOOD_FEATURES)).split(",")
    if labelled:
        fields.append(draw(st.sampled_from("1234512345") | st.sampled_from(["6", "1.5", "x"])))
    kind = draw(st.sampled_from(["good"] * 6 + ["odd", "odd", "header", "id", "count",
                                                "blank"]))
    if kind == "odd":
        odd = (st.sampled_from(ODD_FIELDS) | st.sampled_from(SEPARATED)
               | st.text("0123456789.eE+-", max_size=6))
        fields[draw(st.integers(0, len(fields) - 1))] = draw(odd)
    elif kind == "header":
        return HEADER + (",y" if labelled else "")
    elif kind == "id":
        fields.insert(0, draw(st.sampled_from(["X21.V1.791", "7", "-", "1e"])))
    elif kind == "count":
        fields = fields[:draw(st.integers(1, len(fields) - 1))]
    elif kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    return ",".join(fields)


@st.composite
def mixed_csv(draw, labelled):
    """A file of mixed_line lines as bytes: each ends at "\n", "\r\n" or "\r"
    (the last maybe at none), after an optional byte-order mark, and maybe
    with one byte that is not UTF-8 inside a later line."""
    lines = draw(st.lists(mixed_line(labelled), min_size=1, max_size=10))
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    content = ("\ufeff" if draw(st.booleans()) else "") + "".join(
        line + end for line, end in zip(lines, ends))
    raw = content.encode()
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(len(raw) // 2, len(raw)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]))
        raw = raw[:cut] + bad + raw[cut:]
    return raw


def features_match_the_row_path(path, block_lines, split_bytes):
    """load_features_csv of `path`, read `block_lines` lines at a time and
    split across two processes from `split_bytes` bytes on, against
    `row_path`."""
    expected = row_path(path, labelled=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "PARSE_BLOCK_LINES", block_lines)
        mp.setattr(dataset, "SPLIT_PARSE_BYTES", split_bytes)
        try:
            features, row_nos, problems = dataset.load_features_csv(path)
        except DataError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    assert features.dtype == np.float64 and features.shape == (len(row_nos), 178)
    assert features.tobytes() == expected[0].tobytes()
    assert (row_nos, problems) == (expected[2], expected[3])


def labelled_rows_match_the_row_path(path, block_lines, split_bytes):
    """load_csv of `path`, as `features_match_the_row_path` reads it,
    against `row_path`."""
    expected = row_path(path, labelled=True)
    if not isinstance(expected, str):
        features, labels, row_nos, problems = expected
        if problems:
            expected = "row {}: {}".format(*problems[0])
        elif not labels:
            expected = f"{path}: no data rows"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "PARSE_BLOCK_LINES", block_lines)
        mp.setattr(dataset, "SPLIT_PARSE_BYTES", split_bytes)
        try:
            ds = dataset.load_csv(path)
        except DataError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tolist() == labels


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=300, deadline=None)
@example(content=("\n".join(FOUR_ROWS) + "\n").encode(), block_lines=1)
@example(content=with_field(5, 2, "2.0\x1c"), block_lines=2)
@example(content=with_field(4, 0, "\ufeff0.0"), block_lines=4)
@example(content=with_field(6, 177, "1e400"), block_lines=3)
@example(content=("\n".join(FOUR_ROWS * 2) + "\n").encode() + b"\xff\n", block_lines=3)
@given(content=mixed_csv(labelled=False), block_lines=st.integers(1, 4))
def test_block_parse_of_features_matches_the_row_path(tmp_path_factory, content,
                                                      block_lines):
    path = tmp_path_factory.mktemp("diff") / "features.csv"
    path.write_bytes(content)
    features_match_the_row_path(path, block_lines, dataset.SPLIT_PARSE_BYTES)


@settings(max_examples=200, deadline=None)
@example(content=("\n".join(f"{r},3" for r in FOUR_ROWS) + "\n").encode(), block_lines=1)
@given(content=mixed_csv(labelled=True), block_lines=st.integers(1, 4))
def test_block_parse_of_labelled_rows_matches_the_row_path(tmp_path_factory, content,
                                                           block_lines):
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(content)
    labelled_rows_match_the_row_path(path, block_lines, dataset.SPLIT_PARSE_BYTES)


# The same files with the split on at any size: a file whose last line
# does not span its middle is parsed by two processes.
@settings(max_examples=200, deadline=None)
@example(content=with_field(6, 177, "1e400"), block_lines=3)
@example(content=("\n".join(FOUR_ROWS * 2) + "\n").encode() + b"\xff\n", block_lines=3)
@given(content=mixed_csv(labelled=False), block_lines=st.integers(1, 4))
def test_split_parse_of_features_matches_the_row_path(tmp_path_factory, content,
                                                      block_lines):
    path = tmp_path_factory.mktemp("diff") / "features.csv"
    path.write_bytes(content)
    features_match_the_row_path(path, block_lines, 1)
    assert_no_child_left()


@settings(max_examples=150, deadline=None)
@example(content=("\n".join(f"{r},3" for r in FOUR_ROWS) + "\n").encode(), block_lines=1)
@given(content=mixed_csv(labelled=True), block_lines=st.integers(1, 4))
def test_split_parse_of_labelled_rows_matches_the_row_path(tmp_path_factory, content,
                                                           block_lines):
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(content)
    labelled_rows_match_the_row_path(path, block_lines, 1)
    assert_no_child_left()


def test_a_pipe_reads_like_a_file(tmp_path, monkeypatch):
    # a pipe cannot seek, so the parse counts its bytes itself
    content = ("\n".join(FOUR_ROWS * 2) + "\n").encode() + b"1.0,\xff\n"
    (tmp_path / "file.csv").write_bytes(content)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
    writer.start()
    monkeypatch.setattr(dataset, "PARSE_BLOCK_LINES", 3)
    try:
        with pytest.raises(DataError) as from_pipe:
            dataset.load_features_csv(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    with pytest.raises(DataError) as from_file:
        dataset.load_features_csv(tmp_path / "file.csv")
    assert str(from_pipe.value).replace("pipe.csv", "file.csv") == str(from_file.value)
    assert str(from_file.value).endswith(f"(byte {len(content) - 2}: invalid start byte)")


def test_blocks_after_the_first_data_row_skip_the_row_parser(tmp_path, monkeypatch):
    # a clean file never reaches the row parser; a header sends its own
    # block, and only that one, through it
    parsed = []
    parse_row = dataset._parse_row
    monkeypatch.setattr(dataset, "_parse_row",
                        lambda fields, *args: parsed.append(fields) or parse_row(fields, *args))
    monkeypatch.setattr(dataset, "PARSE_BLOCK_LINES", 3)
    for header, calls in (("", 0), (HEADER + "\n", 2)):
        path = tmp_path / "features.csv"
        path.write_bytes((header + "\n".join(FOUR_ROWS * 2) + "\n").encode())
        expected = row_path(path, labelled=False)
        parsed.clear()
        features, row_nos, problems = dataset.load_features_csv(path)
        assert len(parsed) == calls
        assert features.tobytes() == expected[0].tobytes()
        first = 2 if header else 1
        assert row_nos == list(range(first, first + 8)) and problems == []


def test_blocks_end_at_a_line_count_or_before_a_byte_count(monkeypatch):
    monkeypatch.setattr(dataset, "PARSE_BLOCK_LINES", 3)
    monkeypatch.setattr(dataset, "PARSE_BLOCK_BYTES", 10)
    # 3-byte lines, a line longer than the byte bound and long lines' counts
    lines = [b"ab\n"] * 4 + [b"abcdefghijk\n", b"a\n", 20, 30]
    assert list(dataset._blocks(iter(lines))) == [
        lines[:3], lines[3:4], lines[4:5], lines[5:6], [20], [30]]
    assert list(dataset._blocks(iter([]))) == []


def test_blocks_cut_by_bytes_parse_as_the_row_path(tmp_path, monkeypatch):
    path = tmp_path / "features.csv"
    path.write_bytes((HEADER + "\n" + "\n".join(FOUR_ROWS * 3) + "\n\n1.0,2\n").encode())
    expected = row_path(path, labelled=False)
    monkeypatch.setattr(dataset, "PARSE_BLOCK_BYTES", 3 * len(FOUR_ROWS[0]))
    features, row_nos, problems = dataset.load_features_csv(path)
    assert features.tobytes() == expected[0].tobytes()
    assert (row_nos, problems) == (expected[2], expected[3])


def parse(path, labelled=False):
    """_parse_rows of `path` as comparable values, or its DataError message."""
    try:
        features, labels, row_nos, problems = dataset._parse_rows(path, labelled)
    except DataError as exc:
        return str(exc)
    return features.shape, features.tobytes(), labels, row_nos, problems


class TestSplitParse:
    """A file parsed by two processes against the same file parsed by one.
    SPLIT_PARSE_BYTES is 1, so any file whose last line does not span its
    middle is split at the first line start past it."""

    @pytest.fixture(autouse=True)
    def split_on(self, monkeypatch):
        monkeypatch.setattr(dataset, "SPLIT_PARSE_BYTES", 1)
        fork, self.forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: self.forks.append(None) or fork())
        yield
        assert_no_child_left()

    def both_ways(self, monkeypatch, path, labelled=False):
        """(the split parse, the one-process parse) of `path`; fails unless
        the first forked a child."""
        split = parse(path, labelled)
        assert len(self.forks) == 1
        with monkeypatch.context() as mp:
            mp.setattr(dataset, "SPLIT_PARSE_BYTES", 1 << 62)
            whole = parse(path, labelled)
        assert len(self.forks) == 1
        return split, whole

    def test_a_first_half_of_headers_leaves_the_second_half_to_this_process(
            self, tmp_path, monkeypatch):
        # the split falls after line 3: the child reads line 4 as a bad row,
        # one process as a header, so its results are dropped unread
        path = tmp_path / "features.csv"
        path.write_bytes(((HEADER + "\n") * 4 + FOUR_ROWS[0] + "\n").encode())
        received = []
        monkeypatch.setattr(dataset, "_receive_rows", lambda *a: received.append(a))
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole and received == []
        assert whole[2:] == ([], [5], [])

    def test_a_byte_order_mark_is_skipped_before_the_split(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_bytes(("\ufeff" + "\n".join(FOUR_ROWS * 2) + "\n").encode())
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole and whole[3] == list(range(1, 9))

    @pytest.mark.parametrize("ends", [["\r\n"] * 8, ["\r"] * 4 + ["\n"] + ["\r"] * 3],
                             ids=["crlf", "cr"])
    def test_carriage_returns_end_lines_in_both_halves(self, tmp_path, monkeypatch, ends):
        # the split needs a "\n" past the middle; lone "\r" ends are not
        # counted ahead, so each matrix grows
        path = tmp_path / "features.csv"
        path.write_bytes("".join(r + e for r, e in zip(FOUR_ROWS * 2, ends)).encode())
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole and whole[3] == list(range(1, 9))

    @pytest.mark.parametrize("labelled", [False, True])
    def test_bad_rows_in_both_halves_keep_their_line_numbers(self, tmp_path, monkeypatch,
                                                             labelled):
        rows = [r + (",2" if labelled else "") for r in FOUR_ROWS * 2]
        rows[1], rows[6] = "1.0,x", HEADER
        path = tmp_path / "features.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode())
        split, whole = self.both_ways(monkeypatch, path, labelled)
        assert split == whole
        assert whole[3] == [1, 3, 4, 5, 6, 8]
        assert [n for n, _ in whole[4]] == [2, 7]

    @pytest.mark.parametrize("line", [1, 6])
    def test_a_byte_that_is_not_utf8_is_named_at_its_offset(self, tmp_path, monkeypatch,
                                                           line):
        rows = [r.encode() for r in FOUR_ROWS * 2]
        rows[line] = rows[line].replace(b",5.0,", b",5\xff.0,", 1)
        content = b"\n".join(rows) + b"\n"
        path = tmp_path / "features.csv"
        path.write_bytes(content)
        offset = content.index(b"\xff")
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole == f"{path}: not UTF-8 text (byte {offset}: invalid start byte)"

    @pytest.mark.parametrize("sent", ["nothing", "short"])
    def test_a_child_that_sends_too_little_leaves_the_rest_to_this_process(
            self, tmp_path, monkeypatch, sent):
        send_rows = dataset._send_rows

        def send_too_little(*args):
            *args, out = args
            if sent == "nothing":
                os._exit(1)
            buf = io.BytesIO()
            send_rows(*args, buf)
            out.write(buf.getvalue()[:-8])  # the last row's last value is cut

        monkeypatch.setattr(dataset, "_send_rows", send_too_little)
        path = tmp_path / "features.csv"
        path.write_bytes(("\n".join(FOUR_ROWS * 2) + "\n").encode())
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole and whole[3] == list(range(1, 9))

    def test_no_process_to_spare_parses_in_one(self, tmp_path, monkeypatch):
        def no_fork():
            self.forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "features.csv"
        path.write_bytes(("\n".join(FOUR_ROWS * 2) + "\n").encode())
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole and whole[3] == list(range(1, 9))

    def test_a_last_line_across_the_middle_is_not_split(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(("\n" + FOUR_ROWS[0]).encode())
        assert parse(path)[3] == [2] and self.forks == []

    def test_a_process_running_another_thread_is_not_forked(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(("\n".join(FOUR_ROWS * 2) + "\n").encode())
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert parse(path)[3] == list(range(1, 9)) and self.forks == []
        finally:
            release.set()
            thread.join()

    def test_the_child_sends_its_half_and_exits(self, tmp_path, monkeypatch):
        # the child's body, run in this process: a fork that returns 0 and
        # an exit that raises
        class Exited(Exception):
            pass

        def exit_(code):
            raise Exited(code)

        half = ("\n".join(FOUR_ROWS) + "\n").encode()
        path = tmp_path / "features.csv"
        path.write_bytes(half * 2)
        with open(path, "rb") as fh:
            out = io.BytesIO()
            dataset._send_rows(fh.fileno(), len(half), 4, path, False, out)
        rows = dataset._Rows(np.empty((0, dataset.N_FEATURES)))
        assert dataset._receive_rows(io.BytesIO(out.getvalue()), rows, 10)
        assert rows.features[:rows.n].tobytes() == parse(path)[1][4 * 178 * 8:]
        assert rows.row_nos == [11, 12, 13, 14] and rows.problems == []
        # the pipe's reader is closed by the child, so its write fails; it
        # exits all the same, and never returns into the caller
        monkeypatch.setattr(os, "fork", lambda: 0)
        monkeypatch.setattr(os, "_exit", exit_)
        with pytest.raises(Exited) as exited:
            parse(path)
        assert exited.value.args == (0,)

    @pytest.mark.parametrize("long_rows", [[1, 6], [3]], ids=["each-half", "at-the-middle"])
    def test_a_line_too_long_to_hold_is_one_bad_row_in_either_half(self, tmp_path, monkeypatch,
                                                                   long_rows):
        # at the middle, the line the split point is found past is longer
        # than the pieces it is read in
        monkeypatch.setattr(dataset, "MAX_LINE_BYTES", 100)
        rows = [r[:90] for r in FOUR_ROWS * 2]  # bad rows, of one message each
        for line in long_rows:
            rows[line] = FOUR_ROWS[0] * (1 + 10 * (len(long_rows) == 1))
        path = tmp_path / "features.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode())
        split, whole = self.both_ways(monkeypatch, path)
        assert split == whole
        assert [p for p in whole[4] if p[1].startswith("line")] == [
            (line + 1, "line longer than 100 bytes") for line in long_rows]
        assert len(whole[4]) == 8


SPLIT_PEAK = """
import sys, tracemalloc
from seiznet import dataset
dataset.SPLIT_PARSE_BYTES = int(sys.argv[2])
dataset.load_features_csv(sys.argv[1])  # lazy imports happen untraced
tracemalloc.start()
features, _, _ = dataset.load_features_csv(sys.argv[1])
print(tracemalloc.get_traced_memory()[1], features.nbytes)
"""


@pytest.mark.parametrize("split_bytes", [1 << 20, 1 << 62], ids=["split", "whole"])
def test_the_parse_peak_is_the_matrix_it_returns(tmp_path, split_bytes):
    # 6,000 rows of 536 bytes: 3.2 MB of text for an 8.5 MB matrix. A block's
    # own arrays and lines add about 1 MB; a second copy of the matrix, as
    # joining per-block arrays makes, reads 2x.
    path = tmp_path / "features.csv"
    row = ",".join(["1.5"] * 177 + ["-2.5"]) + "\n"
    path.write_bytes(row.encode() * 6000)
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    run = subprocess.run([sys.executable, "-c", SPLIT_PEAK, str(path), str(split_bytes)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    peak, nbytes = map(int, run.stdout.split())
    assert nbytes == 6000 * 178 * 8
    assert peak < 1.2 * nbytes


BLANK_PEAK = """
import sys, tracemalloc
from seiznet import dataset
path, child_peak = sys.argv[1], sys.argv[3]
dataset.SPLIT_PARSE_BYTES = int(sys.argv[2])
send_rows = dataset._send_rows

def traced_send_rows(*args):
    # the forked child's own peak, which this process does not see
    tracemalloc.reset_peak()
    send_rows(*args)
    with open(child_peak, "w") as fh:
        fh.write(str(tracemalloc.get_traced_memory()[1]))

dataset._send_rows = traced_send_rows
tracemalloc.start()
features, row_nos, problems = dataset.load_features_csv(path)
print(tracemalloc.get_traced_memory()[1], len(features), len(row_nos), len(problems))
"""


@pytest.mark.parametrize("split_bytes", [1 << 20, 1 << 62], ids=["split", "whole"])
def test_a_file_of_blank_lines_is_not_parsed_into_a_matrix_per_line(tmp_path, split_bytes):
    # 2,000,000 line feeds: a matrix of one row per line would take 2.85 GB
    # (np.empty is traced without touching its pages). The 2 MB can hold at
    # most 2,000,003 // MIN_ROW_BYTES = 5,633 rows, 8.0 MB. The bad first
    # row makes a split parse wait for the child's half, not kill it.
    lines = 2_000_000
    path = tmp_path / "blank.csv"
    path.write_bytes(b"1,2\n" + b"\n" * (lines - 1))
    cap = dataset._capacity(lines, lines + 3)
    assert cap == (lines + 3) // dataset.MIN_ROW_BYTES + 1 == 5634
    child_peak = tmp_path / "child_peak"
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    run = subprocess.run([sys.executable, "-c", BLANK_PEAK, str(path), str(split_bytes),
                          str(child_peak)],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    peak, rows, row_nos, problems = map(int, run.stdout.split())
    assert rows == row_nos == 0 and problems == 1
    bound = 2 * cap * dataset.N_FEATURES * 8
    assert peak < bound
    if split_bytes == 1 << 20:
        assert int(child_peak.read_text()) < bound / 2
    else:
        assert not child_peak.exists()


def test_rows_past_the_capacity_grow_the_matrix(tmp_path, monkeypatch):
    # compact rows of MIN_ROW_BYTES between blank lines: the row parser asks
    # room for no more rows than a block's characters can hold, so the
    # matrix stays at the `_capacity` the file's lines and bytes give it.
    # "\r" line ends are not counted as lines, so rows ended by them grow it
    sizes, room = [], dataset._Rows.room

    def spy(self, rows):
        out = room(self, rows)
        sizes.append(len(self.features))
        return out

    monkeypatch.setattr(dataset._Rows, "room", spy)
    row = ",".join(["0"] * dataset.N_FEATURES)
    assert len(row) == dataset.MIN_ROW_BYTES
    path = tmp_path / "features.csv"
    path.write_bytes(((row + "\n\n") * 600).encode())
    assert dataset._capacity(1200, path.stat().st_size) == 604
    shape, values, _, row_nos, problems = parse(path)
    assert shape == (600, dataset.N_FEATURES) and not any(values)
    assert row_nos == list(range(1, 1200, 2)) and problems == []
    assert max(sizes) == 604

    sizes.clear()
    path.write_bytes(((row + "\r") * 600).encode())
    shape, values, _, row_nos, problems = parse(path)
    assert shape == (600, dataset.N_FEATURES) and not any(values)
    assert row_nos == list(range(1, 601)) and problems == []
    assert dataset._capacity(0, path.stat().st_size) == 1
    assert sizes == [600]


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    cfg = ModelConfig()
    path = tmp_path_factory.mktemp("model") / "model.bin"
    scaler = preprocess.fit_scaler(dataset.synthesize(2, seed=11).features)
    save_artifact(path, cfg, cfg.net.init_params(0), scaler, "universal")
    return path


@settings(max_examples=100, deadline=None)
@given(content=csv_file(labelled=False))
def test_junk_csv_predicts_good_rows_and_reports_the_rest(tmp_path_factory, untrained_model,
                                                         content):
    path = tmp_path_factory.mktemp("fuzz") / "features.csv"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["predict", "--model", str(untrained_model), "--data", str(path)])
    assert code in (0, 2)
    problems = err.getvalue().splitlines()
    assert bool(problems) == (code == 2)
    for line in problems:
        assert re.fullmatch(r"(row \d+|error: load): .+", line), line
    for line in out.getvalue().splitlines():
        assert re.fullmatch(r"[01]\.\d{6},[01]", line), line


@pytest.mark.parametrize("content, lines", [
    (b"abcd\nabcde\nab", [b"abcd\n", 6, b"ab"]),
    # a "\r\n" cut between two pieces is one line end
    (b"ab\rcd\r\n", [b"ab\r", b"cd\r\n"]),
    (b"ab\rcdefgh\rij\n", [b"ab\r", 7, b"ij\n"]),
    (b"abcdefgh\rij\nk", [9, b"ij\n", b"k"]),
    (b"abcdefgh", [8]),
    (b"abcdefghijkl", [12]),
], ids=["whole-lines", "crlf-across-pieces", "long-between-cr", "long-first", "long-last",
        "long-at-a-piece-end"])
def test_a_line_longer_than_the_bound_comes_as_its_byte_count(monkeypatch, content, lines):
    monkeypatch.setattr(dataset, "MAX_LINE_BYTES", 5)
    assert list(dataset._lines(io.BytesIO(content))) == lines


def test_lines_end_at_their_stop(monkeypatch):
    monkeypatch.setattr(dataset, "MAX_LINE_BYTES", 5)
    fh = io.BytesIO(b"ab\nabcdefgh\nrest\n")
    assert list(dataset._lines(fh, stop=12)) == [b"ab\n", 9]
    assert fh.read() == b"rest\n"


def test_rows_ended_at_carriage_returns_are_not_one_long_line(tmp_path, monkeypatch):
    # 600 rows of 355 bytes, one in 50 ended at "\r\n", the rest at "\r": the
    # pieces a line of 50 rows is read in are cut at each "\r", so at a
    # bound of a row and its line end no row is a long line
    rows = [",".join(str((i + r) % 10) for i in range(dataset.N_FEATURES)) for r in range(600)]
    path = tmp_path / "features.csv"
    path.write_bytes("".join(r + ("\r\n" if i % 50 == 49 else "\r") for i, r in enumerate(rows))
                     .encode())
    whole = parse(path)
    assert whole[3] == list(range(1, 601)) and whole[4] == []
    for bound in range(dataset.MIN_ROW_BYTES + 2, dataset.MIN_ROW_BYTES + 12):
        monkeypatch.setattr(dataset, "MAX_LINE_BYTES", bound)
        assert parse(path) == whole


def test_a_byte_that_is_not_utf8_after_a_long_line_is_named_at_its_offset(tmp_path,
                                                                          monkeypatch):
    monkeypatch.setattr(dataset, "MAX_LINE_BYTES", 100)
    content = (FOUR_ROWS[0] + "\n1.0,5\xff.0\n").encode("latin-1")
    path = tmp_path / "features.csv"
    path.write_bytes(content)
    offset = content.index(b"\xff")
    assert parse(path) == f"{path}: not UTF-8 text (byte {offset}: invalid start byte)"


MANY_LONG_LINES_PEAK = """
import sys, tracemalloc
from seiznet import dataset
dataset.SPLIT_PARSE_BYTES = int(sys.argv[2])
tracemalloc.start()
_, row_nos, problems = dataset.load_features_csv(sys.argv[1])
print(tracemalloc.get_traced_memory()[1], len(row_nos), len(problems))
"""


@pytest.mark.parametrize("split_bytes", [1 << 20, 1 << 62], ids=["split", "whole"])
def test_a_file_of_many_long_lines_is_parsed_a_few_lines_at_a_time(tmp_path, split_bytes):
    # 8 lines of 250,000 fields, 1,000,000 bytes each: under MAX_LINE_BYTES,
    # so each is held, and each is a bad row. Held as one block of 8 lines
    # (4 in a split's first half) they peaked at 41-46 MB traced; the row
    # parser alone peaks at about 18 MB on one such line (its field strings)
    path = tmp_path / "features.csv"
    path.write_bytes((",".join(["1.5"] * 250_000) + "\n").encode() * 8)
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    run = subprocess.run([sys.executable, "-c", MANY_LONG_LINES_PEAK, str(path),
                          str(split_bytes)], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    peak, rows, problems = map(int, run.stdout.split())
    assert (rows, problems) == (0, 8)
    assert peak < 26 << 20


LONG_LINE_PEAK = """
import sys, tracemalloc
from seiznet import dataset
tracemalloc.start()
_, row_nos, problems = dataset.load_features_csv(sys.argv[1])
print(tracemalloc.get_traced_memory()[1], row_nos, problems)
"""


def test_a_file_of_one_long_line_is_read_past_in_bounded_pieces(tmp_path, untrained_model,
                                                                 capsys):
    # 48 MiB of "1.5," with no line break. Held whole, the line took 828 MB
    # traced and 16 s to be reported as a row of 12,582,913 fields
    path = tmp_path / "features.csv"
    path.write_bytes(b"1.5," * (12 << 20))
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    run = subprocess.run([sys.executable, "-c", LONG_LINE_PEAK, str(path)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    peak, found = run.stdout.split(maxsplit=1)
    message = f"line longer than {dataset.MAX_LINE_BYTES} bytes"
    assert found == f"[] {[(1, message)]}\n"
    assert int(peak) < 6 << 20
    assert main(["predict", "--model", str(untrained_model), "--data", str(path)]) == 2
    assert capsys.readouterr() == ("", f"row 1: {message}\n")
