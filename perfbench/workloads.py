"""The three benchmark workloads and their correctness checks.

Every workload drives seiznet only through `seiznet.cli.main` and the library
functions it calls, looked up as module attributes at call time so a traced
run sees the same calls. One operation ("op") is:

- train_uci: one `seiznet train` command on the UCI-sized synthetic set
  (2 x 5750 rows, 80/20 split, 10% validation carve-out), batch 32, a fixed
  epoch count, early stopping unable to fire;
- predict_csv: one `seiznet predict` command on an 11,500-row unlabelled CSV;
- stream_1row: one 178-sample segment sent through wavelet_denoise ->
  apply_scaler -> predict_probs by a single closed-loop caller.

Inputs come from the workload seed only. The model the predict and stream
workloads score with is trained by the program itself during set-up, from a
fixed seed (SETUP_CONFIG); for train_uci that set-up training is the warm-up.
"""

import contextlib
import io
import math
import os
import shutil

import numpy as np

from seiznet import artifact, cli, dataset, model, preprocess

# Set-up model: small enough to train in about a second, and accurate enough
# that its labels agree with the generator's on every seed tried.
SETUP_CONFIG = ("synthetic = true\nsynthetic_per_class = 64\nmax_epochs = 5\n"
                "seed = 7\nsplit_seed = 7\n")

UCI_PER_CLASS = 5750
UCI_EPOCHS = 1
# 11,500 rows -> 9,200 in the 80% train split -> 8,280 after the 10% carve-out
UCI_TRAIN_ROWS = 8280
MIN_ACCURACY = 0.95
STREAM_POOL = 512
STREAM_TOL = 1e-9
PROB_EPS = 1e-7  # the program's own clip in bce_loss


def run_cli(argv):
    """cli.main with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def log_loss(probs, labels):
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def set_up_model(work):
    """Train the set-up model through the CLI and load its artifact:
    (model path, (config, params, scaler, policy, metadata))."""
    cfg = os.path.join(work, "setup.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(SETUP_CONFIG)
    out = os.path.join(work, "setup-model")
    rc, _, err = run_cli(["train", "--config", cfg, "--out", out])
    if rc != 0:
        raise RuntimeError(f"set-up training failed with exit {rc}: {err.strip()}")
    path = os.path.join(out, "model.bin")
    return path, artifact.load_artifact(path)


# -- correctness checks: each returns a list of problems, empty when correct --

def check_train(rc, curves_text, metrics_text, epochs):
    if rc != 0:
        return [f"train exited {rc}"]
    problems = []
    rows = curves_text.strip().splitlines()[1:]
    if len(rows) != epochs:
        problems.append(f"curves.csv has {len(rows)} epochs, expected {epochs}")
    for row in rows:
        values = [float(v) for v in row.split(",")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite curves row {row!r}")
    fields = dict(line.split(" = ", 1) for line in metrics_text.splitlines()
                  if " = " in line)
    accuracy = float(fields.get("accuracy", "nan"))
    if not accuracy >= MIN_ACCURACY:
        problems.append(f"holdout accuracy {accuracy} below {MIN_ACCURACY}")
    return problems


def parse_predictions(text):
    """Probabilities from `probability,label` lines; raises ValueError on a
    line that is malformed or whose label disagrees with its probability."""
    probs = []
    for line in text.splitlines():
        p_text, label = line.split(",")
        p = float(p_text)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of [0, 1] in {line!r}")
        if label != ("1" if p > 0.5 else "0"):
            raise ValueError(f"label does not match probability in {line!r}")
        probs.append(p)
    return np.array(probs)


def check_predict(rc, text, labels):
    if rc != 0:
        return [f"predict exited {rc}"]
    try:
        probs = parse_predictions(text)
    except ValueError as exc:
        return [str(exc)]
    if len(probs) != len(labels):
        return [f"{len(probs)} prediction lines for {len(labels)} rows"]
    agree = float(((probs > 0.5) == (np.asarray(labels) == 1)).mean())
    if agree < MIN_ACCURACY:
        return [f"labels agree with the generated ones on {agree:.4f} of rows"]
    return []


def check_stream(probs, reference):
    """Index of every one-row probability that differs from the batch
    predict_probs result for the same row by more than STREAM_TOL."""
    probs = np.asarray(probs, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)[np.arange(len(probs)) % len(reference)]
    bad = ~(np.abs(probs - ref) <= STREAM_TOL)
    return np.flatnonzero(bad).tolist()


# -- workloads ----------------------------------------------------------------
#
# A workload makes its inputs from the seed, runs one op, turns an op's raw
# result into its output (what is checked, and what a traced and an untraced
# op must agree on byte for byte), and checks a list of outputs, in which None
# stands for an op that raised.

class TrainUCI:
    name = "train_uci"
    # a training step or a validation/evaluation pass starts a new request
    request_spans = ("model.model_forward.train", "model.predict_probs")
    aliases = {"rows_per_s": "train_rows_per_s", "loss": "final_val_loss"}

    def inputs(self, seed, work, setup_model):
        cfg = os.path.join(work, "uci.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"synthetic = true\nsynthetic_per_class = {UCI_PER_CLASS}\n"
                     f"batch_size = 32\nmax_epochs = {UCI_EPOCHS}\n"
                     f"patience_es = {UCI_EPOCHS + 1}\n"
                     f"seed = {seed}\nsplit_seed = {seed}\n")
        return {"config": cfg, "work": work}

    def op(self, inp, i):
        out = os.path.join(inp["work"], f"train-{i}")
        rc, _, _ = run_cli(["train", "--config", inp["config"], "--out", out])
        return rc, out

    def output(self, result):
        """(exit code, {file name: bytes}); the output directory is removed,
        so a later op cannot leave its files to be read as this one's."""
        rc, out = result
        files = {}
        for name in ("model.bin", "curves.csv", "confusion.csv", "metrics.txt"):
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        shutil.rmtree(out, ignore_errors=True)
        return rc, files

    def check(self, inp, outputs):
        return [["op raised"] if o is None else check_train(
                    o[0], o[1].get("curves.csv", b"").decode(),
                    o[1].get("metrics.txt", b"").decode(), UCI_EPOCHS)
                for o in outputs]

    def rows(self, output):
        return UCI_TRAIN_ROWS * UCI_EPOCHS

    def loss(self, inp, outputs):
        last = outputs[0][1]["curves.csv"].decode().strip().splitlines()[-1]
        return float(last.split(",")[3])


class PredictCSV:
    name = "predict_csv"
    request_spans = ()
    aliases = {"rows_per_s": "predict_rows_per_s", "loss": "predict_log_loss"}

    def inputs(self, seed, work, setup_model):
        ds = dataset.synthesize(UCI_PER_CLASS, seed)
        path = os.path.join(work, "segments.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(",".join(map(repr, row))
                               for row in ds.features.tolist()) + "\n")
        return {"csv": path, "labels": ds.labels, "model": setup_model[0]}

    def op(self, inp, i):
        rc, out, _ = run_cli(["predict", "--model", inp["model"], "--data", inp["csv"]])
        return rc, out

    def output(self, result):
        return result

    def check(self, inp, outputs):
        return [["op raised"] if o is None else check_predict(o[0], o[1], inp["labels"])
                for o in outputs]

    def rows(self, output):
        return output[1].count("\n")

    def loss(self, inp, outputs):
        return log_loss(parse_predictions(outputs[0][1]), inp["labels"])


class StreamOneRow:
    name = "stream_1row"
    request_spans = ()
    aliases = {"rows_per_s": "stream_rows_per_s", "loss": "stream_log_loss"}

    def inputs(self, seed, work, setup_model):
        ds = dataset.synthesize(STREAM_POOL // 2, seed)
        order = np.random.default_rng(seed).permutation(len(ds))
        cfg, params, scaler, policy, _ = setup_model[1]
        return {"pool": ds.features[order], "labels": ds.labels[order],
                "model": (cfg, params, scaler, policy)}

    def op(self, inp, i):
        cfg, params, scaler, policy = inp["model"]
        i %= STREAM_POOL
        segment = inp["pool"][i:i + 1]
        x = preprocess.apply_scaler(preprocess.wavelet_denoise(segment, policy), scaler)
        return float(model.predict_probs(cfg, params, x)[0])

    def output(self, result):
        return result

    def reference(self, inp):
        """Batch predict_probs over the whole pool, the stream's oracle."""
        cfg, params, scaler, policy = inp["model"]
        x = preprocess.apply_scaler(
            preprocess.wavelet_denoise(inp["pool"], policy), scaler)
        return model.predict_probs(cfg, params, x)

    def check(self, inp, outputs):
        probs = [math.nan if o is None else o for o in outputs]
        bad = set(check_stream(probs, self.reference(inp)))
        return [[f"segment {i} differs from the batch result"] if i in bad else []
                for i in range(len(outputs))]

    def rows(self, output):
        return 1

    def loss(self, inp, outputs):
        labels = inp["labels"][np.arange(len(outputs)) % STREAM_POOL]
        return log_loss(outputs, labels)


WORKLOADS = {w.name: w for w in (TrainUCI(), PredictCSV(), StreamOneRow())}
