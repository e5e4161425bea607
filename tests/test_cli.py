import re

import numpy as np
import pytest

from seiznet import dataset, gradcheck, layers, preprocess
from seiznet.artifact import load_artifact
from seiznet.cli import main

TINY_CONFIG = """\
# fast functional-test configuration
synthetic = true
synthetic_per_class = 30
max_epochs = 3
batch_size = 16
seed = 9
split_seed = 9
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--n-per-class", "20",
                     "--seed", "3"]) == 0
        ds = dataset.load_csv(out)
        assert len(ds) == 40
        assert int(ds.labels.sum()) == 20

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--out", str(a), "--n-per-class", "10", "--seed", "5"])
        main(["synth", "--out", str(b), "--n-per-class", "10", "--seed", "5"])
        assert read(a) == read(b)


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
        for name in ("model.bin", "curves.csv", "confusion.csv", "metrics.txt"):
            assert (out / name).exists(), name
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
        assert len(lines) == 4  # header + 3 epochs
        assert re.fullmatch(r"1,\d+\.\d{6},\d+\.\d{6},\d+\.\d{6},\d+\.\d{6},0\.001000",
                            lines[1])
        assert "accuracy = " in (out / "metrics.txt").read_text()
        assert (out / "confusion.csv").read_text().startswith("tn,fp,fn,tp\n")

    def test_byte_identical_reruns(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", tiny_config, "--out", str(out1)])
        main(["train", "--config", tiny_config, "--out", str(out2)])
        for name in ("model.bin", "curves.csv", "confusion.csv", "metrics.txt"):
            assert read(out1 / name) == read(out2 / name), name

    def test_seed_flag_changes_model(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["train", "--config", tiny_config, "--out", str(out1), "--seed", "1"])
        main(["train", "--config", tiny_config, "--out", str(out2), "--seed", "2"])
        assert read(out1 / "model.bin") != read(out2 / "model.bin")

    def test_scaler_fit_on_denoised_training_split(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        main(["train", "--config", tiny_config, "--out", str(out)])
        _, _, scaler, policy, _ = load_artifact(out / "model.bin")
        ds = dataset.synthesize(30, seed=9)
        train_ds, _ = dataset.split(ds, dataset.SplitSpec(0.8, 9, True))
        denoised = preprocess.wavelet_denoise(train_ds.features, policy)
        expected = preprocess.fit_scaler(denoised)
        assert np.array_equal(scaler.mean, expected.mean)
        assert np.array_equal(scaler.std, expected.std)
        raw_fit = preprocess.fit_scaler(train_ds.features)
        assert not np.array_equal(scaler.mean, raw_fit.mean)

    def test_bad_train_fraction_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + "train_fraction = 1.5\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "train_fraction" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "banana" in capsys.readouterr().err

    def test_no_data_and_no_synthetic(self, capsys):
        assert main(["train"]) == 1
        assert "synthetic" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "absent.csv")]) == 2
        assert "load" in capsys.readouterr().err

    def test_non_utf8_data_file(self, tmp_path, capsys):
        csv = tmp_path / "utf16.csv"
        csv.write_bytes(b"\xff\xfe" + "1,2,3\n".encode("utf-16-le"))
        assert main(["train", "--data", str(csv)]) == 2
        assert f"{csv}: not UTF-8" in capsys.readouterr().err


class TestEvaluate:
    def _train_on_csv(self, tmp_path, tiny_config):
        csv = tmp_path / "data.csv"
        main(["synth", "--out", str(csv), "--n-per-class", "30", "--seed", "9"])
        cfg = tmp_path / "file.cfg"
        cfg.write_text(TINY_CONFIG.replace("synthetic = true",
                                           f"data = {csv}"))
        out = tmp_path / "train-out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return csv, out

    def _write_split_csv(self, tmp_path, csv, which="test"):
        ds = dataset.load_csv(csv)
        train_ds, test_ds = dataset.split(ds, dataset.SplitSpec(0.8, 9, True))
        part = test_ds if which == "test" else train_ds
        lines = []
        for i in range(len(part)):
            raw = 1 if part.labels[i] == 1 else 2
            lines.append(",".join(repr(float(v)) for v in part.features[i]) + f",{raw}")
        path = tmp_path / f"{which}.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_matches_training_time_report(self, tmp_path, tiny_config, capsys):
        csv, out = self._train_on_csv(tmp_path, tiny_config)
        test_csv = self._write_split_csv(tmp_path, csv)
        eval_out = tmp_path / "eval-out"
        assert main(["evaluate", "--model", str(out / "model.bin"),
                     "--data", str(test_csv), "--out", str(eval_out)]) == 0
        assert read(eval_out / "metrics.txt") == read(out / "metrics.txt")
        assert read(eval_out / "confusion.csv") == read(out / "confusion.csv")

    def test_corrupt_version_writes_nothing(self, tmp_path, tiny_config, capsys):
        csv, out = self._train_on_csv(tmp_path, tiny_config)
        model = out / "model.bin"
        model.write_bytes(read(model).replace(b"seiznet-model v1",
                                              b"seiznet-model v2"))
        eval_out = tmp_path / "eval-out"
        assert main(["evaluate", "--model", str(model), "--data", str(csv),
                     "--out", str(eval_out)]) == 2
        assert "version" in capsys.readouterr().err
        assert not eval_out.exists()


class TestPredict:
    @pytest.fixture
    def trained(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        main(["train", "--config", tiny_config, "--out", str(out)])
        return out / "model.bin"

    def _feature_csv(self, tmp_path, rows, name="features.csv"):
        path = tmp_path / name
        path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                  for row in rows) + "\n")
        return path

    def test_output_format_and_determinism(self, tmp_path, trained, capsys):
        rows = dataset.synthesize(3, seed=1).features
        csv = self._feature_csv(tmp_path, rows)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 0
        out1 = capsys.readouterr().out
        lines = out1.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            assert re.fullmatch(r"[01]\.\d{6},[01]", line)
        main(["predict", "--model", str(trained), "--data", str(csv)])
        assert capsys.readouterr().out == out1

    def test_malformed_row_reported_and_skipped(self, tmp_path, trained, capsys):
        rows = dataset.synthesize(2, seed=2).features
        csv = self._feature_csv(tmp_path, rows)
        content = csv.read_text().splitlines()
        content.insert(1, "1.0,2.0,3.0")  # line 2: wrong width
        csv.write_text("\n".join(content) + "\n")
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert "row 2" in captured.err
        assert captured.err.count("row 2") == 1  # the prefix is printed once
        assert len(captured.out.strip().splitlines()) == 4  # good rows still out

    def test_non_utf8_data_file(self, tmp_path, trained, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"\xff\xfe" + b"0.5," * 177 + b"0.5\n")
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert f"{csv}: not UTF-8" in captured.err
        assert captured.out == ""

    def test_non_utf8_model_header(self, tmp_path, trained, capsys):
        trained.write_bytes(read(trained).replace(b"wavelet = ", b"wavelet\xff = ", 1))
        csv = self._feature_csv(tmp_path, dataset.synthesize(1, seed=1).features)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        assert f"{trained}: model artifact header is not UTF-8" in capsys.readouterr().err

    def test_all_zero_row_is_handled(self, tmp_path, trained, capsys):
        csv = self._feature_csv(tmp_path, [np.zeros(178)])
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 0
        line = capsys.readouterr().out.strip()
        prob = float(line.split(",")[0])
        assert 0.0 <= prob <= 1.0


class TestGradcheckCommand:
    def test_passes_with_full_table(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if " ok" in l or " FAIL" in l]
        assert len(rows) >= 8
        for name in ("conv1d", "batchnorm", "maxpool", "mha", "layernorm",
                     "global_avg_pool", "dense", "model_end_to_end"):
            assert name in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("row", ["conv1d", "batchnorm", "mha", "layernorm", "dense"])
    def test_detects_corrupted_backward(self, capsys, monkeypatch, row):
        real = getattr(layers, f"{row}_backward")

        def broken(cache, grad_out):
            gx, *rest = real(cache, grad_out)
            return (gx * 1.05, *rest)

        monkeypatch.setattr(layers, f"{row}_backward", broken)
        assert gradcheck.check_layer(row) > gradcheck.LAYER_BOUND
        assert main(["gradcheck"]) == 3
        assert row in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
