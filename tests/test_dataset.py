import numpy as np
import pytest

from seiznet import dataset
from seiznet.errors import ConfigError, DataError


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
        train, test = dataset.split(ds, dataset.SplitSpec(0.8, 42, True))
        assert len(train) == 9200
        assert len(test) == 2300

    def test_deterministic(self):
        ds = dataset.synthesize(5, seed=1)  # 10 rows
        spec = dataset.SplitSpec(0.8, seed=9, stratified=False)
        a1, b1 = dataset.split(ds, spec)
        a2, b2 = dataset.split(ds, spec)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(a1.labels, a2.labels)

    def test_stratified_positive_count(self):
        # 100 rows with 20 positives at fraction 0.8 -> exactly 16 positives
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((100, 178))
        labels = np.array([1] * 20 + [0] * 80)
        ds = dataset.Dataset(feats, labels, "synthetic")
        train, test = dataset.split(ds, dataset.SplitSpec(0.8, 5, True))
        assert len(train) == 80
        assert int(train.labels.sum()) == 16
        assert int(test.labels.sum()) == 4

    def test_stratified_within_one_sample(self):
        rng = np.random.default_rng(1)
        for n_pos, n_neg, frac in [(7, 13, 0.6), (3, 50, 0.85), (11, 11, 0.5)]:
            labels = np.array([1] * n_pos + [0] * n_neg)
            ds = dataset.Dataset(rng.standard_normal((len(labels), 178)), labels, "synthetic")
            train, _ = dataset.split(ds, dataset.SplitSpec(frac, 2, True))
            assert len(train) == int(np.floor(frac * len(labels) + 0.5))
            assert abs(int(train.labels.sum()) - frac * n_pos) <= 1.0

    def test_union_is_input_multiset(self):
        ds = dataset.synthesize(30, seed=4)
        train, test = dataset.split(ds, dataset.SplitSpec(0.7, 11, True))
        merged = np.vstack([train.features, test.features])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.features.T)
        assert np.array_equal(merged[key], ds.features[orig_key])
        assert len(train) + len(test) == len(ds)

    def test_single_class_stratified_errors(self):
        rng = np.random.default_rng(0)
        ds = dataset.Dataset(rng.standard_normal((10, 178)), np.zeros(10, dtype=int), "synthetic")
        with pytest.raises(DataError, match="both classes"):
            dataset.split(ds, dataset.SplitSpec(0.8, 1, True))

    def test_bad_fraction(self):
        ds = dataset.synthesize(5, seed=0)
        for frac in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ConfigError, match="train_fraction"):
                dataset.split(ds, dataset.SplitSpec(frac, 1, True))


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
