import numpy as np
import pytest
from hypothesis import given, strategies as st

from seiznet.errors import DataError
from seiznet.metrics import ConfusionMatrix, compute_metrics, confusion

REFERENCE_COUNTS = ConfusionMatrix(tp=462, tn=1834, fp=1, fn=3)

counts = st.integers(min_value=0, max_value=10 ** 6)


def nonempty_matrices():
    return st.tuples(counts, counts, counts, counts).filter(
        lambda t: sum(t) > 0).map(lambda t: ConfusionMatrix(*t))


class TestConfusion:
    def test_reference_counts_total(self):
        assert REFERENCE_COUNTS.total == 2300

    def test_tally(self):
        probs = np.array([0.9, 0.2, 0.7, 0.4])
        labels = np.array([1, 1, 0, 0])
        c = confusion(probs, labels)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)

    def test_all_correct(self):
        c = confusion(np.array([0.99, 0.01]), np.array([1, 0]))
        assert c.fp == 0 and c.fn == 0

    def test_tie_goes_negative(self):
        c = confusion(np.array([0.5]), np.array([1]))
        assert c.fn == 1 and c.tp == 0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion(np.ones(3), np.ones(2))


class TestComputeMetrics:
    def test_reference_accuracy(self):
        r = compute_metrics(REFERENCE_COUNTS)
        assert r.accuracy == pytest.approx(0.99826, abs=1e-5)

    def test_reference_derived_metrics(self):
        r = compute_metrics(REFERENCE_COUNTS)
        # exact fractions double-checked by hand from the counts
        assert r.precision == pytest.approx(462 / 463, abs=1e-12)
        assert r.recall == pytest.approx(462 / 465, abs=1e-12)
        assert r.f1 == pytest.approx(924 / 928, abs=1e-12)
        assert r.csi == pytest.approx(462 / 466, abs=1e-12)
        assert r.mcc == pytest.approx(0.99461, abs=1e-5)
        assert r.csi == pytest.approx(0.99142, abs=1e-5)
        assert r.f1 == pytest.approx(0.99569, abs=1e-5)

    def test_perfect_classifier(self):
        r = compute_metrics(ConfusionMatrix(50, 50, 0, 0))
        for value in (r.accuracy, r.precision, r.recall, r.f1, r.csi, r.mcc):
            assert value == 1.0

    def test_perfect_anticlassifier(self):
        r = compute_metrics(ConfusionMatrix(0, 0, 50, 50))
        assert r.mcc == -1.0
        assert r.accuracy == 0.0

    def test_zero_denominators_give_zero(self):
        r = compute_metrics(ConfusionMatrix(0, 10, 0, 0))  # no positives anywhere
        assert r.precision == 0.0
        assert r.recall == 0.0
        assert r.f1 == 0.0
        assert r.csi == 0.0
        assert r.mcc == 0.0

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))


class TestInvariants:
    @given(nonempty_matrices())
    def test_csi_bounded_by_precision_and_recall(self, c):
        r = compute_metrics(c)
        assert r.csi <= min(r.precision, r.recall) + 1e-12

    @given(nonempty_matrices())
    def test_f1_forms_agree(self, c):
        r = compute_metrics(c)
        alt = (2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn)
               if (2 * c.tp + c.fp + c.fn) > 0 else 0.0)
        assert r.f1 == pytest.approx(alt, abs=1e-12)

    @given(nonempty_matrices())
    def test_class_swap_symmetry(self, c):
        r = compute_metrics(c)
        swapped = compute_metrics(ConfusionMatrix(c.tn, c.tp, c.fn, c.fp))
        assert r.accuracy == pytest.approx(swapped.accuracy, abs=1e-12)
        assert r.mcc == pytest.approx(swapped.mcc, abs=1e-12)

    @given(nonempty_matrices())
    def test_mcc_sign_rule(self, c):
        r = compute_metrics(c)
        det = c.tp * c.tn - c.fp * c.fn
        den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
        if den > 0 and det != 0:
            assert np.sign(r.mcc) == np.sign(det)

    @given(nonempty_matrices(), st.floats(min_value=0.01, max_value=1000.0,
                                          allow_nan=False))
    def test_count_scale_invariance(self, c, k):
        r = compute_metrics(c)
        scaled = compute_metrics(
            ConfusionMatrix(c.tp * k, c.tn * k, c.fp * k, c.fn * k))
        for a, b in [(r.accuracy, scaled.accuracy), (r.precision, scaled.precision),
                     (r.recall, scaled.recall), (r.f1, scaled.f1),
                     (r.csi, scaled.csi), (r.mcc, scaled.mcc)]:
            assert a == pytest.approx(b, abs=1e-12)

    @given(nonempty_matrices())
    def test_ranges(self, c):
        r = compute_metrics(c)
        for value in (r.accuracy, r.precision, r.recall, r.f1, r.csi):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= r.mcc <= 1.0
