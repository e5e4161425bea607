import os
import platform
import re
import subprocess
import sys
import tracemalloc

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest

import seiznet
from seiznet import artifact, dataset, gradcheck, layers, model, optim, parallel, preprocess
from seiznet.artifact import load_artifact, save_artifact
from seiznet.cli import main
from seiznet.model import ModelConfig, toy_config

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


def run_cli(argv, **env):
    """`seiznet argv` in a fresh interpreter with `env` added to this
    process's environment."""
    src = os.path.dirname(os.path.dirname(seiznet.__file__))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from seiznet.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, **env),
        timeout=120)


def openblas_kernel_skip_reason():
    """Why OpenBLAS's Haswell kernel cannot be selected here, or None."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return f"not x86-64 but {platform.machine()}"
    try:
        with open("/proc/cpuinfo") as fh:
            flags = fh.read().split()
    except OSError:
        return "no /proc/cpuinfo to show avx2"
    if "avx2" not in flags:
        return "the CPU lacks avx2, which the Haswell kernel needs"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "this numpy does not report its BLAS library"
    return None if "openblas" in blas.lower() else f"numpy uses {blas}, not OpenBLAS"


OPENBLAS_KERNEL_SKIP = openblas_kernel_skip_reason()


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

    def test_negative_seed_names_it_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        train_ds, _ = dataset.split(ds, 9)
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

    @pytest.mark.parametrize("key, value", [
        ("lr", "nan"), ("lr", "inf"), ("wavelet", "fixed:nan"),
        # finite but out of range (lr below the plateau floor optim.MIN_LR), or not a bool
        ("batch_size", "1"), ("max_epochs", "0"), ("lr", "0"), ("lr", "1e-6"),
        ("patience_es", "0"), ("synthetic_per_class", "0"), ("seed", "-1"),
        ("split_seed", "-1"), ("synthetic", "maybe"),
        # keys of the fixed split and plateau schedule, refused as unknown
        ("min_lr", "nan"), ("val_fraction", "0.5"), ("min_lr", "-1e-5"),
        ("min_lr", "0.5"), ("lr_factor", "1.0"), ("patience_lr", "0"),
        ("stratified", "maybe")])
    def test_non_finite_value_names_field(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + f"{key} = {value}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # the run's fixed split and plateau schedule, each at its value,
        # are unknown keys too: a config that names one must drop it
        cfg = tmp_path / "bad.cfg"
        for line in ("banana = 3", "train_fraction = 0.8", "stratified = true",
                     "val_fraction = 0.1", "patience_lr = 5", "lr_factor = 0.5",
                     "min_lr = 1e-5"):
            key = line.partition(" =")[0]
            cfg.write_text(f"seed = 1\n{line}\n")
            assert main(["train", "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}:2: unknown key {key!r}\n"

    @pytest.mark.parametrize("text", ["seed 3\n", None])
    def test_unreadable_config_names_path(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text is None:
            cfg.mkdir()  # a directory, not a file
        else:
            cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_overflowing_lr_is_a_numeric_error(self, tmp_path):
        # a fresh interpreter, so numpy warnings reach stderr as they would
        # from the installed `seiznet` command
        cfg = tmp_path / "big.cfg"
        cfg.write_text(TINY_CONFIG + "lr = 1e300\n")
        out = tmp_path / "run"
        run = run_cli(["train", "--config", str(cfg), "--out", str(out)])
        assert run.returncode == 3
        assert run.stderr == "error: train: non-finite model output\n"
        assert not out.exists()

    def test_training_inputs_are_held_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "mem.cfg"
        cfg.write_text(TINY_CONFIG.replace("synthetic_per_class = 30",
                                           "synthetic_per_class = 600"))
        seen = {}

        class Stop(Exception):
            pass

        def spy(config, features, labels, hyper):
            seen["live"] = tracemalloc.get_traced_memory()[0]
            seen["features"] = features
            raise Stop
        monkeypatch.setattr(optim, "train", spy)
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
        with pytest.raises(Stop):
            main(argv)  # lazy imports happen untraced
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                main(argv)
        finally:
            tracemalloc.stop()
        x = seen["features"]
        assert x.dtype == np.float32  # cast once, its float64 source dropped
        test_bytes = (2 * 600 - x.shape[0]) * x.shape[1] * 8  # float64, as loaded
        # the scaled training matrix and the raw test split, nothing more:
        # the loaded set, the raw training rows, the unscaled denoised
        # matrix and the float64 scaled one are gone before training starts
        assert seen["live"] <= 1.3 * (x.nbytes + test_bytes)

    def test_epochs_and_best_epoch_agree_with_the_curves(self, tmp_path, capsys):
        # at lr 0.01 the val loss rises after epoch 1, so patience 3 stops
        # the run early, at a best epoch before its last
        cfg = tmp_path / "early.cfg"
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 12")
                       + "lr = 0.01\npatience_es = 3\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
        val_losses = [float(row[3]) for row in rows]
        meta = load_artifact(out / "model.bin")[4]
        epochs, best = int(meta["epochs_run"]), int(meta["best_epoch"])
        assert epochs == len(rows) < 12
        assert best < epochs and val_losses[best - 1] == min(val_losses)
        assert min(val_losses[:best - 1], default=np.inf) > min(val_losses)
        assert capsys.readouterr().out.startswith(
            f"trained {epochs} epochs (best epoch {best}) on 48 samples [synthetic]\n")

    def test_empty_test_split_fails_before_training(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "split.cfg"
        cfg.write_text(TINY_CONFIG.replace("synthetic_per_class = 30",
                                           "synthetic_per_class = 1"))

        def refuse(*args, **kwargs):
            raise AssertionError("trained although the test split is empty")
        monkeypatch.setattr(optim, "train", refuse)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert ("error: split: train_fraction = 0.8 on 2 rows leaves an empty "
                "test split") in capsys.readouterr().err

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

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe" + "seed = 1\n".encode("utf-16-le"))
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"error: {cfg}: not UTF-8 text (byte 0: " in capsys.readouterr().err


@pytest.mark.skipif(OPENBLAS_KERNEL_SKIP is not None, reason=str(OPENBLAS_KERNEL_SKIP))
def test_val_loss_does_not_depend_on_the_openblas_kernel(tmp_path):
    # OpenBLAS picks its kernel when numpy loads, so each run is a fresh
    # interpreter: first the CPU's own choice (an empty OPENBLAS_CORETYPE),
    # then the AVX2-only Haswell kernel. While the batch-norm-cancelled
    # shifts still learned, their float32 random walk made the epoch-1 val
    # loss differ by 1.8e-3 between the two on an AVX-512 Xeon (SkylakeX
    # kernel); it now agrees to the 6 printed decimals (it differed by
    # 2e-6 before batch norm's sums became GEMVs).
    cfg = tmp_path / "std.cfg"
    cfg.write_text("synthetic = true\nsynthetic_per_class = 60\nmax_epochs = 3\nseed = 5\n")
    val_loss = []
    for kernel in ("", "Haswell"):
        out = tmp_path / (kernel or "default")
        run = run_cli(["train", "--config", str(cfg), "--out", str(out)],
                      OPENBLAS_CORETYPE=kernel)
        assert run.returncode == 0, run.stderr
        rows = (out / "curves.csv").read_text().splitlines()[1:]
        val_loss.append([float(row.split(",")[3]) for row in rows])
    assert len(val_loss[0]) == len(val_loss[1]) == 3
    assert np.abs(np.subtract(*val_loss)).max() <= 2e-5, val_loss


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
        train_ds, test_ds = dataset.split(ds, 9)
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
        model.write_bytes(read(model).replace(b"seiznet-model v2 sha256=",
                                              b"seiznet-model v3 sha256="))
        eval_out = tmp_path / "eval-out"
        assert main(["evaluate", "--model", str(model), "--data", str(csv),
                     "--out", str(eval_out)]) == 2
        assert "version" in capsys.readouterr().err
        assert not eval_out.exists()

    def test_non_finite_output_fails_the_whole_run(self, tmp_path, tiny_config, capsys):
        # unlike predict, a report over all rows has no per-row way out
        csv, out = self._train_on_csv(tmp_path, tiny_config)
        huge = tmp_path / "huge.csv"
        huge.write_text(read(csv).decode() + ",".join(["1e20"] * 178) + ",1\n")
        eval_out = tmp_path / "eval-out"
        assert main(["evaluate", "--model", str(out / "model.bin"), "--data", str(huge),
                     "--out", str(eval_out)]) == 3
        assert capsys.readouterr().err == "error: evaluate: non-finite model output\n"
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

    def test_non_finite_row_is_reported_and_the_rest_print(self, tmp_path, trained, capsys):
        rows = dataset.synthesize(2, seed=2).features
        csv = self._feature_csv(tmp_path, rows)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 0
        alone = capsys.readouterr().out
        content = csv.read_text().splitlines()
        content.insert(2, ",".join(["1e20"] * 178))  # line 3: overflows the float32 trunk
        content.insert(4, "1.0,2.0,3.0")  # line 5: wrong width
        csv.write_text("\n".join(content) + "\n")
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("row 3: non-finite model output\n"
                                "row 5: expected 178 features, got 3 fields\n")
        assert captured.out == alone

    @pytest.mark.skipif(not hasattr(os, "fork") or parallel.openblas_threads() is None
                        or parallel.openblas_threads()[0]() < 2,
                        reason="no os.fork, or no OpenBLAS thread to hand to a second process")
    def test_a_non_finite_row_in_each_half_of_a_split_keeps_its_line(self, tmp_path, trained,
                                                                      capsys, monkeypatch):
        # 1,030 rows are 17 chunks: rows 577 on are scored by a second process
        rows = dataset.synthesize(515, seed=4).features
        rows[[2, 900]] = 1e20
        csv = self._feature_csv(tmp_path, rows)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        argv = ["predict", "--model", str(trained), "--data", str(csv)]
        assert main(argv) == 2
        split = capsys.readouterr()
        assert split.err == ("row 3: non-finite model output\n"
                             "row 901: non-finite model output\n")
        assert len(split.out.splitlines()) == 1028
        # one process, at the thread count each process of the split ran;
        # the CSV parse forks once either way
        monkeypatch.setattr(model, "SPLIT_SCORE_CHUNKS", 1 << 30)
        get, set_ = parallel.openblas_threads()
        threads = get()
        set_(threads // 2)
        try:
            assert main(argv) == 2
        finally:
            set_(threads)
        assert capsys.readouterr() == split
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_byte_order_mark_predicts_like_the_plain_file(self, tmp_path, trained, capsys):
        plain = self._feature_csv(tmp_path, dataset.synthesize(2, seed=3).features)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for csv in (plain, bom):
            rc = main(["predict", "--model", str(trained), "--data", str(csv)])
            runs.append((rc, *capsys.readouterr()))
        assert runs[1] == runs[0]
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 4

    @pytest.mark.parametrize("text", ["", "\n\n", ",".join(f"X{i}" for i in range(1, 179))
                                      + "\n"], ids=["empty", "blank", "header-only"])
    def test_a_file_without_data_rows_prints_nothing(self, tmp_path, trained, capsys, text):
        # no rows pass through denoise, scaling and scoring as an empty matrix
        csv = tmp_path / "none.csv"
        csv.write_text(text)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_non_utf8_data_file(self, tmp_path, trained, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"\xff\xfe" + b"0.5," * 177 + b"0.5\n")
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert f"{csv}: not UTF-8" in captured.err
        assert captured.out == ""

    def test_non_utf8_model_header(self, tmp_path, trained, capsys):
        # in the v1 form, which has no digest to fail first
        blob = read(trained).replace(b"wavelet = ", b"wavelet\xff = ", 1)
        trained.write_bytes(artifact.V1_TAG + blob[blob.index(b"\n"):])
        csv = self._feature_csv(tmp_path, dataset.synthesize(1, seed=1).features)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        assert f"{trained}: model artifact header is not UTF-8" in capsys.readouterr().err

    def test_damaged_model_prints_one_error_and_no_predictions(self, tmp_path, trained,
                                                               capsys):
        blob = bytearray(read(trained))
        blob[-5] ^= 0x10  # a bit of the last tensor's last value
        trained.write_bytes(bytes(blob))
        csv = self._feature_csv(tmp_path, dataset.synthesize(2, seed=1).features)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: load-model: {trained}: model artifact does not "
                                "match its sha256 digest\n")

    def test_v2_version_line_turned_into_v1_by_two_bytes_is_refused(self, tmp_path, trained,
                                                                    capsys):
        blob = bytearray(read(trained))
        assert blob.startswith(artifact.V2_PREFIX)
        blob[15:17] = b"1\n"  # `v2 sha256=<hex>` -> `v1`, then a line `sha256=<hex>`
        trained.write_bytes(bytes(blob))
        csv = self._feature_csv(tmp_path, dataset.synthesize(2, seed=1).features)
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: load-model: {trained}: v1 model artifact holds a "
                                "sha256 key, the mark of a damaged v2 version line\n")

    def test_scaler_width_mismatch_is_reported_by_the_scale_stage(self, tmp_path, capsys):
        cfg = toy_config()  # its scaler has input_len columns, not 178
        assert cfg.input_len != 178
        scaler = preprocess.ScalerParams(np.zeros(cfg.input_len), np.ones(cfg.input_len))
        model = tmp_path / "toy.bin"
        save_artifact(model, cfg, cfg.net.init_params(0), scaler, "universal")
        csv = self._feature_csv(tmp_path, dataset.synthesize(1, seed=1).features)
        assert main(["predict", "--model", str(model), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert (f"error: scale: feature count 178 does not match scaler ({cfg.input_len})"
                in captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("line", [b"attn_heads = 0", b"dense_units = 0,64",
                                      b"conv_filters = 0,64,128", b"input_len = 0"],
                             ids=["attn_heads", "dense_units", "conv_filters", "input_len"])
    def test_zero_size_in_the_header_is_refused(self, tmp_path, capsys, line):
        cfg = ModelConfig()
        scaler = preprocess.ScalerParams(np.zeros(178), np.ones(178))
        model = tmp_path / "zero.bin"
        save_artifact(model, cfg, cfg.net.init_params(0), scaler, "off")
        # written by hand: no network can be built from a zero size
        head, divider, body = model.read_bytes().partition(b"==binary==\n")
        key = line.split(b" = ")[0]
        lines = [line if ln.startswith(key + b" = ") else ln for ln in head.split(b"\n")]
        lines[0] = artifact.V1_TAG  # the v1 form, which has no digest to fail first
        assert line in lines
        model.write_bytes(b"\n".join(lines) + divider + body)
        csv = self._feature_csv(tmp_path, dataset.synthesize(1, seed=1).features)
        assert main(["predict", "--model", str(model), "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: load-model: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_all_zero_row_is_handled(self, tmp_path, trained, capsys):
        csv = self._feature_csv(tmp_path, [np.zeros(178)])
        assert main(["predict", "--model", str(trained), "--data", str(csv)]) == 0
        line = capsys.readouterr().out.strip()
        prob = float(line.split(",")[0])
        assert 0.0 <= prob <= 1.0


@pytest.fixture(scope="module")
def model_and_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    csv, out = root / "data.csv", root / "run"
    assert main(["synth", "--out", str(csv), "--n-per-class", "30", "--seed", "9"]) == 0
    assert main(["train", "--data", str(csv), "--out", str(out), "--seed", "9"]) == 0
    return out / "model.bin", csv


class TestUnwritableOutput:
    """An output that cannot be written exits 1 naming the path and leaves no
    temp file behind."""

    @pytest.mark.parametrize("command, target", [
        ("synth", None),             # --out lies under a regular file
        ("synth", "."),              # --out is a directory
        ("train", None),
        ("train", "model.bin"),      # an output file's path is a directory
        ("train", "metrics.txt"),
        ("evaluate", None),
        ("evaluate", "confusion.csv"),
    ])
    def test_exits_one_naming_the_path(self, tmp_path, tiny_config, model_and_csv,
                                       capsys, command, target):
        if target is None:
            (tmp_path / "file").write_text("")
            out = bad = tmp_path / "file" / "out"
        else:
            out = tmp_path / "out"
            bad = out / target
            bad.mkdir(parents=True)
        model, csv = model_and_csv
        argv = {"synth": ["synth", "--n-per-class", "2"],
                "train": ["train", "--config", tiny_config],
                "evaluate": ["evaluate", "--model", str(model), "--data", str(csv)]}[command]
        assert main(argv + ["--out", str(out)]) == 1
        assert f"error: write: cannot write {bad}: " in capsys.readouterr().err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("out", ["file/out", "file/a/b", "file"])
    def test_train_checks_out_before_loading(self, tmp_path, tiny_config, monkeypatch,
                                             capsys, out):
        (tmp_path / "file").write_text("")
        out = tmp_path / out

        def refuse(*args, **kwargs):
            raise AssertionError("ran although --out cannot be written")
        monkeypatch.setattr(optim, "train", refuse)
        monkeypatch.setattr(dataset, "synthesize", refuse)
        before = sorted(tmp_path.rglob("*"))
        assert main(["train", "--config", tiny_config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"error: write: cannot write {out}: {tmp_path / 'file'} "
                "is not a writable directory") in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["file/out", "file"])
    def test_evaluate_checks_out_before_loading(self, tmp_path, model_and_csv, monkeypatch,
                                                capsys, out):
        (tmp_path / "file").write_text("")
        out = tmp_path / out

        def refuse(*args, **kwargs):
            raise AssertionError("ran although --out cannot be written")
        monkeypatch.setattr(artifact, "load_artifact", refuse)
        monkeypatch.setattr(optim, "evaluate", refuse)
        before = sorted(tmp_path.rglob("*"))
        model, csv = model_and_csv
        assert main(["evaluate", "--model", str(model), "--data", str(csv),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"error: write: cannot write {out}: {tmp_path / 'file'} "
                "is not a writable directory") in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["train", "train-flag", "evaluate", "train-data",
                                         "train-config", "synth"])
    def test_empty_out_fails_before_loading(self, tmp_path, model_and_csv, monkeypatch,
                                            capsys, command):
        # an empty path is no directory, though os.path.abspath("") is the
        # working directory; an empty flag does not fall back to the config
        def refuse(*args, **kwargs):
            raise AssertionError("ran although a path is empty")
        for module, name in [(artifact, "load_artifact"), (dataset, "load_csv"),
                             (dataset, "synthesize"), (optim, "train")]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.chdir(tmp_path)
        model, csv = model_and_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + f"data = {csv}\n"
                       + ("out_dir =\n" if command == "train" else ""))
        argv = {"train": ["train", "--config", str(cfg)],
                "train-flag": ["train", "--config", str(cfg), "--out", ""],
                "evaluate": ["evaluate", "--model", str(model), "--data", str(csv),
                             "--out", ""],
                "train-data": ["train", "--config", str(cfg), "--data", "",
                               "--out", str(tmp_path / "run")],
                # an empty --config would run the defaults: 500 rows, 100 epochs
                "train-config": ["train", "--config", "", "--synthetic",
                                 "--out", str(tmp_path / "run")],
                "synth": ["synth", "--n-per-class", "2", "--out", ""]}[command]
        expected = {"train-data": "--data: the data path is empty",
                    "train-config": "--config: the config path is empty",
                    "synth": "--out: the output path is empty"}.get(
                        command, "write: the output directory path is empty")
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert sorted(tmp_path.rglob("*")) == before


class TestGradcheckCommand:
    def test_passes_with_full_table(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        rows = [l.split()[0] for l in out.splitlines() if l.endswith((" ok", " FAIL"))]
        # one row per toy layer, in forward order, then the model
        names = [layer.name for layer in toy_config().net.layers]
        assert len(names) == 25 and names[0] == "conv1" and names[-1] == "probs"
        assert rows == names + ["model_end_to_end"]
        assert "FAIL" not in out

    @pytest.mark.parametrize("row", ["conv1d", "batchnorm", "mha", "layernorm", "dense"])
    def test_detects_corrupted_backward(self, capsys, monkeypatch, row):
        real = getattr(layers, f"{row}_backward")

        def broken(cache, grad_out, **kwargs):
            # model_backward asks the first conv for no input gradient (None)
            gx, *rest = real(cache, grad_out, **kwargs)
            return (None if gx is None else gx * 1.05, *rest)

        monkeypatch.setattr(layers, f"{row}_backward", broken)
        names = [layer.name for layer in toy_config().net.layers if layer.op == row]
        assert names
        for name in names:
            assert gradcheck.check_layer(name) > gradcheck.LAYER_BOUND, name
        assert main(["gradcheck"]) == 3
        captured = capsys.readouterr()
        failed = [l.split()[0] for l in captured.out.splitlines() if l.endswith(" FAIL")]
        assert failed == names + ["model_end_to_end"]
        assert captured.err == f"gradient check failed for: {', '.join(failed)}\n"


# `seiznet argv` with its address space capped at what it has mapped after
# importing the CLI plus 256 MB, so no allocation sized by the run's input
# can take the shared machine's memory
UNDER_MEMORY_LIMIT = """
import resource, sys
from seiznet.cli import main
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
limit = mapped + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/status"),
                    reason="no RLIMIT_AS, or no /proc/self/status to read the mapped size from")
@pytest.mark.parametrize("command", ["synth", "train"])
def test_a_run_out_of_memory_prints_one_error_and_exits_two(tmp_path, command):
    # 2 x 10,000,000 synthetic rows of 178 float64 values need 26.5 GiB
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("synthetic = true\nsynthetic_per_class = 10000000\n")
    argv = {"synth": ["synth", "--n-per-class", "10000000", "--out",
                      str(tmp_path / "out" / "synth.csv")],
            "train": ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]}[command]
    (tmp_path / "out").mkdir()
    src = os.path.dirname(os.path.dirname(seiznet.__file__))
    run = subprocess.run([sys.executable, "-c", UNDER_MEMORY_LIMIT, *argv],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    stage = "load: " if command == "train" else ""
    assert run.returncode == 2, run.stderr
    assert re.fullmatch(f"error: {stage}out of memory \\(.+\\)\n", run.stderr), run.stderr
    assert run.stdout == "" and list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 26.5 GiB", "out of memory (Unable to allocate 26.5 GiB)"),
    ("", "out of memory")])
def test_out_of_memory_inside_and_outside_a_stage_is_a_data_error(
        tmp_path, tiny_config, monkeypatch, capsys, message, line):
    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(dataset, "synthesize", no_memory)
    out = tmp_path / "run"
    assert main(["synth", "--out", str(tmp_path / "synth.csv")]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: load: {line}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
