"""Tests of the benchmark itself: tracing, correctness checks, seeds, and the
agreement between BENCHMARK.json and what run.py reports.

Run: python -m pytest perfbench
"""

import io
import json
import os
import sys
import contextlib

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import envstamp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from seiznet import model, optim  # noqa: E402


def _toy_training():
    cfg = model.toy_config()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((24, cfg.input_len))
    y = np.array([0, 1] * 12)
    hyper = optim.TrainHyper(batch_size=8, max_epochs=2, seed=3)
    params, _ = optim.train(cfg, x, y, hyper)
    return params


def test_spans_nest_and_self_time_is_bounded():
    original = optim.model_forward
    untraced = _toy_training()
    tracer = spans.Tracer(request_spans=("model.model_forward.train",))
    with tracer:
        assert optim.model_forward is not original
        traced = _toy_training()
    assert optim.model_forward is original and optim.Adam.step.__name__ == "step"
    for k in untraced:
        assert untraced[k].tobytes() == traced[k].tobytes(), k

    name, start, end, parent, request = tracer.arrays()
    assert len(name) > 0 and (end >= start).all()
    inner = parent >= 0
    assert (start[inner] >= start[parent[inner]]).all()
    assert (end[inner] <= end[parent[inner]]).all()
    # children of one parent do not overlap: each starts after the last ended
    last_end = {}
    for i in np.argsort(start, kind="stable"):
        p = parent[i]
        assert start[i] >= last_end.get(p, start[i])
        last_end[p] = end[i]
    dur, self_ns = tracer.self_times_ns()
    assert (self_ns >= 0).all() and (self_ns <= dur).all()

    calls = {n: c for n, (c, _) in tracer.per_name().items()}
    assert calls["optim.train"] == 1
    assert calls["optim.Adam.step"] == calls["model.model_forward.train"] > 0
    assert calls["kernels.conv1d_forward"] == 3 * (calls["model.model_forward.train"]
                                                   + calls["model.model_forward.infer"])
    # one request per training step, shared by that step's spans
    assert tracer.request_id == calls["model.model_forward.train"]
    steps = name == tracer.names.index("optim.Adam.step")
    assert len(set(request[steps].tolist())) == calls["optim.Adam.step"]


def test_check_train_rejects_corrupted_outputs():
    curves = "epoch,train_loss,train_acc,val_loss,val_acc,lr\n1,0.6,0.9,0.4,1.0,0.001\n"
    metrics = "accuracy = 0.990000\nprecision = 1.000000\n"
    assert workloads.check_train(0, curves, metrics, 1) == []
    assert workloads.check_train(3, curves, metrics, 1)
    assert workloads.check_train(0, curves.replace("0.4,", "nan,"), metrics, 1)
    assert workloads.check_train(0, curves, metrics.replace("0.99", "0.90"), 1)
    assert workloads.check_train(0, curves, metrics, 2)


def _predict_text(probs):
    return "".join(f"{p:.6f},{1 if p > 0.5 else 0}\n" for p in probs)


def test_check_predict_rejects_corrupted_outputs():
    labels = np.array([0, 1] * 50)
    probs = np.where(labels == 1, 0.9, 0.1)
    text = _predict_text(probs)
    assert workloads.check_predict(0, text, labels) == []

    lines = text.splitlines(keepends=True)
    flipped = lines[:]
    flipped[3] = flipped[3].replace(",1", ",0")
    assert workloads.check_predict(0, "".join(flipped), labels)
    perturbed = lines[:]
    perturbed[4] = "1.300000,1\n"
    assert workloads.check_predict(0, "".join(perturbed), labels)
    assert workloads.check_predict(0, "".join(lines[:-1]), labels)
    assert workloads.check_predict(2, text, labels)
    wrong = _predict_text(np.where(labels == 1, 0.1, 0.9))
    assert workloads.check_predict(0, wrong, labels)


def test_check_stream_rejects_a_perturbed_probability():
    reference = np.linspace(0.01, 0.99, 7)
    probs = np.tile(reference, 3)
    assert workloads.check_stream(probs, reference) == []
    probs[9] += 1e-6
    probs[15] = np.nan
    assert workloads.check_stream(probs, reference) == [9, 15]


def test_inputs_depend_on_the_seed(tmp_path):
    setup = workloads.set_up_model(str(tmp_path))
    for wl in workloads.WORKLOADS.values():
        seen = []
        for seed in (1, 2, 1):
            work = tmp_path / f"{wl.name}-{seed}-{len(seen)}"
            work.mkdir()
            inp = wl.inputs(seed, str(work), setup)
            if "config" in inp:
                seen.append(open(inp["config"], "rb").read())
            elif "csv" in inp:
                seen.append(open(inp["csv"], "rb").read())
            else:
                seen.append(inp["pool"].tobytes())
        assert seen[0] != seen[1] and seen[0] == seen[2], wl.name


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_reported_metrics():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_metric_names_do_not_depend_on_the_seed(trace):
    bench = _benchmark_json()
    expected = {m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    for seed in ("1", "2"):
        result = _run("--workload", "stream_1row", "--seed", seed,
                      "--seconds", "0.2", "--trace", trace)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == expected


def test_stamps_that_differ_beyond_the_code_are_refused():
    a = {"numpy": "2.4.6", "blas_threads": 2, "git_commit": "a", "source_sha256": "x"}
    b = dict(a, git_commit="b", source_sha256="y")
    assert envstamp.mismatches(a, b) == []
    assert envstamp.mismatches(a, dict(b, blas_threads=1)) == ["blas_threads"]
