import io
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        train, test = dataset.split(ds, 0.8, 42, True)
        assert len(train) == 9200
        assert len(test) == 2300

    def test_deterministic(self):
        ds = dataset.synthesize(5, seed=1)  # 10 rows
        a1, b1 = dataset.split(ds, 0.8, seed=9, stratified=False)
        a2, b2 = dataset.split(ds, 0.8, seed=9, stratified=False)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(a1.labels, a2.labels)

    def test_stratified_positive_count(self):
        # 100 rows with 20 positives at fraction 0.8 -> exactly 16 positives
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((100, 178))
        labels = np.array([1] * 20 + [0] * 80)
        ds = dataset.Dataset(feats, labels, "synthetic")
        train, test = dataset.split(ds, 0.8, 5, True)
        assert len(train) == 80
        assert int(train.labels.sum()) == 16
        assert int(test.labels.sum()) == 4

    def test_stratified_within_one_sample(self):
        rng = np.random.default_rng(1)
        for n_pos, n_neg, frac in [(7, 13, 0.6), (3, 50, 0.85), (11, 11, 0.5)]:
            labels = np.array([1] * n_pos + [0] * n_neg)
            ds = dataset.Dataset(rng.standard_normal((len(labels), 178)), labels, "synthetic")
            train, _ = dataset.split(ds, frac, 2, True)
            assert len(train) == int(np.floor(frac * len(labels) + 0.5))
            assert abs(int(train.labels.sum()) - frac * n_pos) <= 1.0

    def test_union_is_input_multiset(self):
        ds = dataset.synthesize(30, seed=4)
        train, test = dataset.split(ds, 0.7, 11, True)
        merged = np.vstack([train.features, test.features])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.features.T)
        assert np.array_equal(merged[key], ds.features[orig_key])
        assert len(train) + len(test) == len(ds)

    def test_single_class_stratified_errors(self):
        rng = np.random.default_rng(0)
        ds = dataset.Dataset(rng.standard_normal((10, 178)), np.zeros(10, dtype=int), "synthetic")
        with pytest.raises(DataError, match="both classes"):
            dataset.split(ds, 0.8, 1, True)

    def test_bad_fraction(self):
        ds = dataset.synthesize(5, seed=0)
        for frac in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ConfigError, match="train_fraction"):
                dataset.split(ds, frac, 1, True)

    @pytest.mark.parametrize("rows, frac, stratified, side", [
        (120, 0.999, True, "test"), (120, 0.001, True, "train"),
        (10, 0.96, False, "test"), (0, 0.8, False, "train")])
    def test_empty_side_names_fraction_and_rows(self, rows, frac, stratified, side):
        ds = dataset.synthesize(rows // 2, seed=0) if rows else dataset.Dataset(
            np.empty((0, 178)), np.empty(0), "synthetic")
        with pytest.raises(DataError, match=(f"train_fraction = {frac} on {rows} rows "
                                             f"leaves an empty {side} split")):
            dataset.split(ds, frac, 1, stratified)


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
    """The synthetic generator with its spike trains written one sample at a
    time: the reference `dataset.synthesize` must match bit for bit."""
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
