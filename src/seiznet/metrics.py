"""Binary-classification metrics: confusion matrix, accuracy, precision,
recall, F1, critical success index, and Matthews correlation.

Any metric whose denominator is zero is defined as 0 so evaluation on
degenerate slices never aborts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

THRESHOLD = 0.5  # every label is p > THRESHOLD, so a tie goes negative


@dataclass
class ConfusionMatrix:
    tp: float
    tn: float
    fp: float
    fn: float

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    csi: float
    mcc: float


def confusion(probs, labels) -> ConfusionMatrix:
    """Tally counts with the strict rule: predict positive iff p > THRESHOLD."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise DataError(f"probs {probs.shape} and labels {labels.shape} differ in length")
    pred = probs > THRESHOLD
    pos = labels == 1
    return ConfusionMatrix(
        tp=int((pred & pos).sum()),
        tn=int((~pred & ~pos).sum()),
        fp=int((pred & ~pos).sum()),
        fn=int((~pred & pos).sum()),
    )


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def compute_metrics(c: ConfusionMatrix) -> EvalReport:
    if c.total <= 0:
        raise DataError("empty confusion matrix")
    tp, tn, fp, fn = float(c.tp), float(c.tn), float(c.fp), float(c.fn)
    accuracy = (tp + tn) / (tp + tn + fp + fn)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    csi = _ratio(tp, tp + fn + fp)
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / mcc_den if mcc_den > 0 else 0.0
    return EvalReport(c, accuracy, precision, recall, f1, csi, mcc)
