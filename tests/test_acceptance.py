"""Acceptance suite: one test per release criterion, each printing a
criterion-level pass line (run with -s or -rA to see them).

Criterion 2 needs the real UCI-format CSV; point SEIZNET_UCI_CSV at it (or
drop it at data/uci_seizure.csv). Without the file that test is skipped.
"""

import os
import sys
import time

import numpy as np
import pytest

from seiznet import dataset, gradcheck, optim, preprocess
from seiznet.cli import main
from seiznet.metrics import ConfusionMatrix, compute_metrics
from seiznet.model import ModelConfig, predict_probs

UCI_CANDIDATES = (
    os.environ.get("SEIZNET_UCI_CSV", ""),
    "data/uci_seizure.csv",
    "data/Epileptic_Seizure_Recognition.csv",
)


def _uci_path():
    for path in UCI_CANDIDATES:
        if path and os.path.exists(path):
            return path
    return None


def _passed(criterion, detail):
    # bypass pytest capture so one line per criterion always reaches the console
    print(f"criterion {criterion}: PASS  ({detail})", file=sys.__stdout__)


def _read_metrics(path):
    values = {}
    for line in open(path, encoding="utf-8"):
        if " = " in line:
            key, _, val = line.strip().partition(" = ")
            values[key] = float(val)
    return values


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rows = gradcheck.run_all()
    elapsed = time.time() - t0
    for name, err, bound in rows:
        assert err < bound, f"{name}: {err:.3e} >= {bound:.0e}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    worst = max(err for _, err, _ in rows)
    _passed(1, f"{len(rows)} checks, worst {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.skipif(_uci_path() is None,
                    reason="UCI seizure CSV not present (set SEIZNET_UCI_CSV)")
def test_criterion_2_benchmark_reproduction(tmp_path):
    t0 = time.time()
    out = tmp_path / "uci-run"
    assert main(["train", "--data", _uci_path(), "--out", str(out)]) == 0
    elapsed = time.time() - t0
    metrics = _read_metrics(out / "metrics.txt")
    assert metrics["accuracy"] >= 0.98, metrics
    assert metrics["f1"] >= 0.97, metrics
    assert elapsed < 1800.0, f"training took {elapsed:.0f}s"
    _passed(2, f"accuracy {metrics['accuracy']:.4f}, f1 {metrics['f1']:.4f}, "
               f"{elapsed:.0f}s")


def test_criterion_3_metrics_oracle():
    report = compute_metrics(ConfusionMatrix(tp=462, tn=1834, fp=1, fn=3))
    assert report.confusion.total == 2300
    assert report.accuracy == pytest.approx(0.99826, abs=1e-5)
    assert report.mcc == pytest.approx(0.99461, abs=1e-5)
    assert report.csi == pytest.approx(0.99142, abs=1e-5)
    assert report.f1 == pytest.approx(0.99569, abs=1e-5)
    _passed(3, f"accuracy {report.accuracy:.5f}, mcc {report.mcc:.5f}, "
               f"csi {report.csi:.5f}, f1 {report.f1:.5f}")


def test_criterion_4_wavelet_properties():
    rng = np.random.default_rng(0)
    signals = rng.standard_normal((1000, 178)) * rng.uniform(0.5, 50.0, (1000, 1))
    coeffs = preprocess.dwt_haar(signals)
    recon = preprocess.idwt_haar(coeffs)
    worst_recon = np.abs(recon - signals).max()
    assert worst_recon < 1e-9
    energy_in = (signals ** 2).sum(axis=1)
    energy_out = (coeffs.approx ** 2).sum(axis=1) + (coeffs.detail ** 2).sum(axis=1)
    worst_energy = (np.abs(energy_in - energy_out) / energy_in).max()
    assert worst_energy < 1e-9
    _passed(4, f"1000 signals, recon {worst_recon:.1e}, parseval {worst_energy:.1e}")


def test_criterion_5_scaler_properties():
    rng = np.random.default_rng(1)
    matrices = [
        rng.standard_normal((37, 178)) * 25.0 + 100.0,
        rng.uniform(-5.0, 5.0, (200, 178)),
        preprocess.wavelet_denoise(dataset.synthesize(64, seed=2).features, "universal"),
    ]
    worst_mean = worst_std = 0.0
    for x in matrices:
        z = preprocess.apply_scaler(x, preprocess.fit_scaler(x))
        worst_mean = max(worst_mean, np.abs(z.mean(axis=0)).max())
        worst_std = max(worst_std, np.abs(z.std(axis=0) - 1.0).max())
    assert worst_mean < 1e-9
    assert worst_std < 1e-9
    _passed(5, f"{len(matrices)} matrices, |mean| {worst_mean:.1e}, "
               f"|std-1| {worst_std:.1e}")


def test_criterion_6_capacity_memorizes_64_samples():
    ds = dataset.synthesize(32, seed=3)  # 64 balanced rows
    x = preprocess.wavelet_denoise(ds.features, "universal")
    x = preprocess.apply_scaler(x, preprocess.fit_scaler(x))
    cfg = ModelConfig()
    hyper = optim.TrainHyper(max_epochs=200, patience_es=200, batch_size=32, seed=3)
    params, history = optim.train(cfg, x, ds.labels.astype(float), hyper)
    report = optim.evaluate(cfg, params, x, ds.labels)
    assert len(history) <= 200
    assert report.accuracy == 1.0, f"train accuracy {report.accuracy}"
    _passed(6, f"100% train accuracy after {len(history)} epochs")


def test_criterion_7_synthetic_end_to_end(tmp_path):
    t0 = time.time()
    out = tmp_path / "synth-run"
    assert main(["train", "--synthetic", "--out", str(out)]) == 0
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"synthetic training took {elapsed:.0f}s"
    metrics = _read_metrics(out / "metrics.txt")
    assert metrics["accuracy"] >= 0.99, metrics

    # trained artifact must flag known positive segments as seizures
    from seiznet.artifact import load_artifact
    cfg, params, scaler, policy, _ = load_artifact(out / "model.bin")
    ds = dataset.synthesize(250, seed=42)
    _, test_ds = dataset.split(ds, 42)
    pos = test_ds.features[test_ds.labels == 1]
    z = preprocess.apply_scaler(preprocess.wavelet_denoise(pos, policy), scaler)
    labels = (predict_probs(cfg, params, z) > 0.5).astype(int)
    assert labels.mean() >= 0.99
    _passed(7, f"accuracy {metrics['accuracy']:.4f} in {elapsed:.0f}s, "
               f"{labels.mean():.1%} of positive segments flagged")


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synthetic = true\nsynthetic_per_class = 25\n"
                   "max_epochs = 3\nbatch_size = 16\nseed = 4\nsplit_seed = 4\n")
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--out", str(csv_a), "--seed", "6"]) == 0
    assert main(["synth", "--out", str(csv_b), "--seed", "6"]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    out_a, out_b = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    compared = []
    for name in ("model.bin", "curves.csv", "confusion.csv", "metrics.txt"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    _passed(8, f"synth CSV and {', '.join(compared)} byte-identical")


def test_criterion_9_metric_algebra_1000_matrices():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, size=4))
        if tp + tn + fp + fn == 0:
            continue
        c = ConfusionMatrix(tp, tn, fp, fn)
        r = compute_metrics(c)

        assert r.csi <= min(r.precision, r.recall) + 1e-12
        alt_f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
        assert abs(r.f1 - alt_f1) < 1e-12
        swapped = compute_metrics(ConfusionMatrix(tn, tp, fn, fp))
        assert abs(r.accuracy - swapped.accuracy) < 1e-12
        assert abs(r.mcc - swapped.mcc) < 1e-12
        det = tp * tn - fp * fn
        if det != 0 and min(tp + fp, tp + fn, tn + fp, tn + fn) > 0:
            assert np.sign(r.mcc) == np.sign(det)
        scaled = compute_metrics(ConfusionMatrix(tp * 3.5, tn * 3.5,
                                                 fp * 3.5, fn * 3.5))
        for a, b in [(r.accuracy, scaled.accuracy), (r.precision, scaled.precision),
                     (r.recall, scaled.recall), (r.f1, scaled.f1),
                     (r.csi, scaled.csi), (r.mcc, scaled.mcc)]:
            assert abs(a - b) < 1e-12
        checked += 1
    _passed(9, f"{checked} random confusion matrices, five invariants each")
