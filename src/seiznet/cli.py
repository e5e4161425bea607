"""Command-line interface.

Subcommands: train, evaluate, predict, gradcheck, synth.
Exit codes: 0 success, 1 usage/config error or an unwritable output, 2 data
error, 3 numeric failure.
All output files are written to a temp path and renamed, so failures never
leave partial artifacts behind.
"""

import argparse
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import artifact, dataset, gradcheck, optim, preprocess
from .config import RunConfig, parse_config_file, validate
from .errors import ConfigError, DataError, NumericError
from .metrics import THRESHOLD
from .model import ModelConfig, predict_probs

EXIT_OK = 0
EXIT_CODES = {ConfigError: 1, DataError: 2, NumericError: 3}


@contextmanager
def _stage(name):
    """Prefix any pipeline error with the stage it came from."""
    try:
        yield
    except tuple(EXIT_CODES) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


@contextmanager
def _writing(path):
    """Report a failure to write `path` as a usage error (exit 1)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_out_dir(path):
    """Fail before any work unless `path`, or its nearest existing ancestor,
    is a writable directory. Creates nothing."""
    if not path:
        raise ConfigError("write: the output directory path is empty")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"write: cannot write {path}: {probe} is not a writable directory")


def _write_text(path, text):
    with _writing(path), artifact.atomic_open(path, "w", encoding="utf-8",
                                              newline="\n") as fh:
        fh.write(text)


def format_report(report) -> str:
    c = report.confusion
    return "\n".join([
        f"accuracy = {report.accuracy:.6f}",
        f"precision = {report.precision:.6f}",
        f"recall = {report.recall:.6f}",
        f"f1 = {report.f1:.6f}",
        f"csi = {report.csi:.6f}",
        f"mcc = {report.mcc:.6f}",
        f"tn = {c.tn}",
        f"fp = {c.fp}",
        f"fn = {c.fn}",
        f"tp = {c.tp}",
        "",
        "confusion matrix (rows: true class, columns: predicted class)",
        f"{'':8}{'pred 0':>10}{'pred 1':>10}",
        f"{'true 0':8}{c.tn:>10}{c.fp:>10}",
        f"{'true 1':8}{c.fn:>10}{c.tp:>10}",
    ]) + "\n"


def confusion_csv(c) -> str:
    return f"tn,fp,fn,tp\n{c.tn},{c.fp},{c.fn},{c.tp}\n"


def curves_csv(history) -> str:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc,lr"]
    for epoch, (tl, ta, vl, va, lr) in enumerate(history, start=1):
        lines.append(f"{epoch},{tl:.6f},{ta:.6f},{vl:.6f},{va:.6f},{lr:.6f}")
    return "\n".join(lines) + "\n"


def _prepare(features, policy, scaler):
    """The model's input: `features` wavelet-denoised under `policy`, then
    standardised by the training-split `scaler`."""
    with _stage("denoise"):
        x = preprocess.wavelet_denoise(features, policy)
    with _stage("scale"):
        return preprocess.apply_scaler(x, scaler)


def _evaluate_and_report(ds, policy, scaler, cfg, params, out_dir):
    """Score the labelled dataset `ds` and write metrics.txt and
    confusion.csv to `out_dir`; returns the EvalReport."""
    x = _prepare(ds.features, policy, scaler)
    with _stage("evaluate"):
        report = optim.evaluate(cfg, params, x, ds.labels)
    with _stage("write"):
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "metrics.txt"), format_report(report))
        _write_text(os.path.join(out_dir, "confusion.csv"), confusion_csv(report.confusion))
    return report


def _load_run_config(args) -> RunConfig:
    # an empty path flag is refused, not read as "use the defaults or the config's"
    for flag in ("config", "data"):
        if getattr(args, flag) == "":
            raise ConfigError(f"--{flag}: the {flag} path is empty")
    rc = parse_config_file(args.config) if args.config else RunConfig()
    if args.data:
        rc.data = args.data
    if args.synthetic:
        rc.synthetic = True
    if args.out is not None:
        rc.out_dir = args.out  # an empty one fails _check_out_dir
    if args.seed is not None:
        rc.seed = args.seed
        rc.split_seed = args.seed
    validate(rc)
    return rc


def _training_inputs(rc):
    """What training and the later stages read: (scaled training matrix,
    its labels, raw test split, scaler, data source). Each stage drops the
    rows the next one no longer reads, so the loaded dataset, the raw
    training features and the unscaled denoised matrix are gone before the
    model is fitted. The scaled matrix is cast once to float32, the dtype
    the trunk computes in, and its float64 copy dropped: the same bits as
    casting each batch, at half the memory."""
    with _stage("load"):
        if rc.data:
            ds = dataset.load_csv(rc.data)
        elif rc.synthetic:
            ds = dataset.synthesize(rc.synthetic_per_class, rc.seed)
        else:
            raise ConfigError("no data path given and synthetic fallback is disabled")
    with _stage("split"):
        train_ds, test_ds = dataset.split(ds, rc.split_seed)
    source = ds.source
    del ds
    with _stage("denoise"):
        x_train = preprocess.wavelet_denoise(train_ds.features, rc.wavelet)
    y_train = train_ds.labels
    del train_ds
    with _stage("scale"):
        scaler = preprocess.fit_scaler(x_train)
        x_train = preprocess.apply_scaler(x_train, scaler)
        x_train = x_train.astype(np.float32)  # once the denoised matrix is gone
    return x_train, y_train, test_ds, scaler, source


def cmd_train(args) -> int:
    rc = _load_run_config(args)
    _check_out_dir(rc.out_dir)
    x_train, y_train, test_ds, scaler, source = _training_inputs(rc)

    model_cfg = ModelConfig()
    with _stage("train"):
        params, tstate = optim.train(model_cfg, x_train, y_train, rc)
    report = _evaluate_and_report(test_ds, rc.wavelet, scaler, model_cfg, params,
                                  rc.out_dir)

    with _stage("write"):
        meta = {
            "seed": str(rc.seed),
            "split_seed": str(rc.split_seed),
            "data_source": source,
            "epochs_run": str(tstate.epoch),
            "best_epoch": str(tstate.best_epoch),
            "test_accuracy": f"{report.accuracy:.6f}",
            "test_f1": f"{report.f1:.6f}",
        }
        model_path = os.path.join(rc.out_dir, "model.bin")
        with _writing(model_path):
            artifact.save_artifact(model_path, model_cfg, params, scaler, rc.wavelet, meta)
        _write_text(os.path.join(rc.out_dir, "curves.csv"), curves_csv(tstate.history))

    print(f"trained {tstate.epoch} epochs (best epoch {tstate.best_epoch}) "
          f"on {len(y_train)} samples [{source}]")
    print(f"test accuracy = {report.accuracy:.6f}, f1 = {report.f1:.6f}")
    for name in ("model.bin", "curves.csv", "confusion.csv", "metrics.txt"):
        print(f"wrote {os.path.join(rc.out_dir, name)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    with _stage("load-model"):
        cfg, params, scaler, policy, _ = artifact.load_artifact(args.model)
    with _stage("load"):
        ds = dataset.load_csv(args.data)
    report = _evaluate_and_report(ds, policy, scaler, cfg, params, args.out)
    print(format_report(report), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    with _stage("load-model"):
        cfg, params, scaler, policy, _ = artifact.load_artifact(args.model)
    with _stage("load"):
        features, row_nos, problems = dataset.load_features_csv(args.data)
    probs = np.empty(0)
    try:
        x = _prepare(features, policy, scaler)
        del features  # only the prepared matrix is scored
        with _stage("predict"):
            probs = predict_probs(cfg, params, x)
    finally:  # the row problems are reported even when scoring fails
        scored = np.isfinite(probs)
        problems += [(row_nos[i], "non-finite model output") for i in np.flatnonzero(~scored)]
        for line_no, message in sorted(problems):
            print(f"row {line_no}: {message}", file=sys.stderr)
    sys.stdout.write("".join(f"{p:.6f},{1 if p > THRESHOLD else 0}\n" for p in probs[scored]))
    return EXIT_CODES[DataError] if problems else EXIT_OK


def cmd_gradcheck(args) -> int:
    rows = gradcheck.run_all()
    width = max(len(name) for name, _, _ in rows)
    failed = []
    print(f"{'layer':<{width}}  {'max rel error':>14}  {'bound':>8}  status")
    for name, err, bound in rows:
        ok = err < bound
        if not ok:
            failed.append(name)
        print(f"{name:<{width}}  {err:>14.3e}  {bound:>8.0e}  {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CODES[NumericError]
    return EXIT_OK


def cmd_synth(args) -> int:
    if not args.out:
        raise ConfigError("--out: the output path is empty")
    ds = dataset.synthesize(args.n_per_class, args.seed)
    lines = []
    for i in range(len(ds)):
        # raw labels: 1 = seizure; non-seizure rows cycle through 2..5
        raw = 1 if ds.labels[i] == 1 else 2 + i % 4
        lines.append(",".join(repr(float(v)) for v in ds.features[i]) + f",{raw}")
    with _stage("write"):
        _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(ds)} rows)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="seiznet",
                     description="EEG seizure detection: train, evaluate, and "
                                 "inspect a 1D-CNN + attention classifier.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("train", help="train a model and write artifacts")
    p.add_argument("--config", help="key = value run configuration file")
    p.add_argument("--data", help="seizure CSV (178 features + label per row)")
    p.add_argument("--synthetic", action="store_true",
                   help="use the synthetic surrogate dataset")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="master seed (split and training)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a CSV")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--data", required=True, help="seizure CSV with labels")
    p.add_argument("--out", default=".", help="directory for the report files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="print probability,label per input row")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--data", required=True, help="CSV of 178-value rows")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every layer gradient")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="write a synthetic seizure CSV")
    p.add_argument("--out", default="synthetic.csv", help="output CSV path")
    p.add_argument("--n-per-class", type=int, default=250)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the finiteness checks in optim and cmd_predict report a numeric
        # failure as one error or row line, so numpy's own warnings are muted
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
