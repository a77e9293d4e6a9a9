"""Metric checks against an independent pair-counting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recidrisk.metrics import (
    ConfusionMatrix,
    MetricSpec,
    class_scores,
    confusion,
    police_protection,
    police_resource,
)

NO, LOW, HIGH = 0, 1, 2


# ---------------------------------------------------------------------------
# Brute-force oracle: every quantity recounted directly from the label lists.

def brute_precision(preds, truths, label):
    predicted = [i for i, p in enumerate(preds) if p == label]
    hits = [i for i in predicted if truths[i] == label]
    return len(hits) / len(predicted) if predicted else 0.0


def brute_recall(preds, truths, label):
    actual = [i for i, t in enumerate(truths) if t == label]
    hits = [i for i in actual if preds[i] == label]
    return len(hits) / len(actual) if actual else 0.0


def brute_f1(preds, truths, label):
    p = brute_precision(preds, truths, label)
    r = brute_recall(preds, truths, label)
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def brute_weighted_f1(preds, truths):
    m = len(preds)
    total = 0.0
    for label in (NO, LOW, HIGH):
        support = sum(1 for t in truths if t == label)
        total += support / m * brute_f1(preds, truths, label)
    return total


def brute_protection(preds, truths):
    return (
        brute_precision(preds, truths, NO)
        + brute_f1(preds, truths, LOW)
        + brute_recall(preds, truths, HIGH)
    )


def brute_resource(preds, truths, tau):
    m = len(preds)
    low_over = sum(1 for p, t in zip(preds, truths) if p == LOW and t == NO)
    high_mid = sum(1 for p, t in zip(preds, truths) if p == HIGH and t == LOW)
    high_over = sum(1 for p, t in zip(preds, truths) if p == HIGH and t == NO)
    return (low_over + tau * high_mid + (1.0 + tau) * high_over) / (2.0 * m * (1.0 + tau))


# ---------------------------------------------------------------------------
# Confusion matrix construction.

def test_confusion_perfect_diagonal():
    cm = confusion([NO, LOW, HIGH], [NO, LOW, HIGH])
    assert cm.total == 3
    assert np.array_equal(cm.counts, np.eye(3, dtype=int))


def test_confusion_constant_predictor():
    cm = confusion([HIGH, HIGH], [NO, NO])
    expected = np.zeros((3, 3), dtype=int)
    expected[HIGH, NO] = 2
    assert np.array_equal(cm.counts, expected)


def test_confusion_mixed_counts():
    cm = confusion([NO, LOW, LOW, HIGH], [NO, NO, LOW, HIGH])
    assert cm.counts[NO, NO] == 1
    assert cm.counts[LOW, NO] == 1
    assert cm.counts[LOW, LOW] == 1
    assert cm.counts[HIGH, HIGH] == 1
    assert cm.total == 4


def test_confusion_rejects_bad_input():
    with pytest.raises(ValueError):
        confusion([NO], [NO, LOW])
    with pytest.raises(ValueError):
        confusion([], [])


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("side", ["predictions", "truths"])
def test_confusion_rejects_out_of_range_labels(side, bad):
    # -1 must not wrap to the High row, and 3 must not escape as an IndexError
    labels = {"predictions": [NO, NO], "truths": [NO, NO]}
    labels[side] = [bad, NO]
    with pytest.raises(ValueError, match=f"^{side}: label {bad} is outside 0..2$"):
        confusion(labels["predictions"], labels["truths"])


# ---------------------------------------------------------------------------
# Per-class scores.

def test_scores_perfect():
    scores = class_scores(confusion([NO, LOW, HIGH], [NO, LOW, HIGH]))
    assert scores.precision.tolist() == [1, 1, 1]
    assert scores.recall.tolist() == [1, 1, 1]
    assert scores.f1.tolist() == [1, 1, 1]
    assert scores.weighted_f1 == 1.0


def test_scores_absent_class_is_zero():
    # no High predicted and no High true: 0/0 convention
    scores = class_scores(confusion([NO, LOW], [NO, LOW]))
    assert scores.precision[HIGH] == 0.0
    assert scores.recall[HIGH] == 0.0
    assert scores.f1[HIGH] == 0.0


def test_scores_mixed_example():
    scores = class_scores(confusion([NO, LOW, LOW, HIGH], [NO, NO, LOW, HIGH]))
    assert scores.precision[LOW] == 0.5
    assert scores.recall[LOW] == 1.0
    assert scores.f1[LOW] == pytest.approx(2.0 / 3.0, abs=0)


# ---------------------------------------------------------------------------
# Police protection.

def test_protection_perfect_is_three():
    assert police_protection(confusion([NO, LOW, HIGH], [NO, LOW, HIGH])) == 3.0


def test_protection_mixed_example():
    value = police_protection(confusion([NO, LOW, LOW, HIGH], [NO, NO, LOW, HIGH]))
    assert value == 1.0 + 2.0 / 3.0 + 1.0


def test_protection_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.integers(1, 40)
        preds, truths = rng.integers(0, 3, m), rng.integers(0, 3, m)
        assert 0.0 <= police_protection(confusion(preds, truths)) <= 3.0


# ---------------------------------------------------------------------------
# Police resource overload.

def test_resource_perfect_is_zero():
    cm = confusion([NO, LOW, HIGH], [NO, LOW, HIGH])
    for tau in (0.0, 0.5, 1.0, 5.0):
        assert police_resource(cm, tau) == 0.0


def test_resource_worst_case_is_half():
    cm = confusion([HIGH] * 7, [NO] * 7)
    for tau in (0.0, 0.5, 1.0, 5.0):
        assert police_resource(cm, tau) == 0.5


def test_resource_mixed_example():
    cm = confusion([NO, LOW, LOW, HIGH], [NO, NO, LOW, HIGH])
    assert police_resource(cm, 1.0) == 1.0 / 16.0


def test_resource_rejects_negative_tau():
    cm = confusion([NO], [NO])
    with pytest.raises(ValueError):
        police_resource(cm, -0.1)


def test_resource_at_zero_tau_reduces():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(1, 30)
        cm = confusion(rng.integers(0, 3, m), rng.integers(0, 3, m))
        reduced = (cm.counts[LOW, NO] + cm.counts[HIGH, NO]) / (2 * cm.total)
        assert police_resource(cm, 0.0) == pytest.approx(reduced, abs=0)


def test_resource_zero_iff_no_overprediction_cells():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = rng.integers(1, 25)
        cm = confusion(rng.integers(0, 3, m), rng.integers(0, 3, m))
        over = cm.counts[LOW, NO] + cm.counts[HIGH, LOW] + cm.counts[HIGH, NO]
        assert (police_resource(cm, 1.0) == 0.0) == (over == 0)


def test_metrics_scale_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = rng.integers(1, 20)
        cm = confusion(rng.integers(0, 3, m), rng.integers(0, 3, m))
        for k in (2, 5):
            scaled = cm.scaled(k)
            assert police_protection(scaled) == pytest.approx(police_protection(cm), rel=1e-12)
            for tau in (0.0, 1.0, 3.0):
                assert police_resource(scaled, tau) == pytest.approx(
                    police_resource(cm, tau), rel=1e-12
                )


# ---------------------------------------------------------------------------
# Oracle equivalence on random prediction lists.

def test_oracle_equivalence_random_lists():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        preds = rng.integers(0, 3, m).tolist()
        truths = rng.integers(0, 3, m).tolist()
        cm = confusion(preds, truths)
        scores = class_scores(cm)
        for label in (NO, LOW, HIGH):
            assert scores.precision[label] == brute_precision(preds, truths, label)
            assert scores.recall[label] == brute_recall(preds, truths, label)
            assert scores.f1[label] == brute_f1(preds, truths, label)
        assert scores.weighted_f1 == pytest.approx(brute_weighted_f1(preds, truths), abs=1e-15)
        assert police_protection(cm) == brute_protection(preds, truths)
        for tau in (0.0, 0.5, 1.0, 5.0):
            assert police_resource(cm, tau) == brute_resource(preds, truths, tau)


def test_metric_spec_dispatch():
    cm = confusion([NO, LOW, LOW, HIGH], [NO, NO, LOW, HIGH])
    assert MetricSpec("police_protection").evaluate(cm) == police_protection(cm)
    assert MetricSpec("police_resource", 1.0).evaluate(cm) == police_resource(cm, 1.0)
    assert MetricSpec("high_f1").evaluate(cm) == class_scores(cm).f1[HIGH]
    with pytest.raises(ValueError):
        MetricSpec("police_resource")
    with pytest.raises(ValueError):
        MetricSpec("unknown_metric")


@st.composite
def matrix_stacks(draw):
    """(k, 3, 3) count stacks, k in [1, 6], with zero rows and columns; no empty matrix."""
    k = draw(st.integers(1, 6))
    counts = np.array(draw(st.lists(st.integers(0, 6), min_size=9 * k, max_size=9 * k)))
    counts = counts.reshape(k, 3, 3)
    for i in range(k):
        for row in draw(st.sets(st.integers(0, 2), max_size=2)):
            counts[i, row, :] = 0
        for col in draw(st.sets(st.integers(0, 2), max_size=2)):
            counts[i, :, col] = 0
        if counts[i].sum() == 0:
            counts[i, draw(st.integers(0, 2)), draw(st.integers(0, 2))] = 1
    return counts


@settings(max_examples=300, deadline=None)
@given(stack=matrix_stacks(), tau=st.sampled_from([0.0, 0.5, 1.0, 5.0]) | st.floats(0.0, 10.0))
def test_stack_evaluation_is_per_matrix_evaluation(stack, tau):
    for name in MetricSpec._KNOWN:
        spec = MetricSpec(name, tau if name == "police_resource" else None)
        values = spec.evaluate(ConfusionMatrix(stack))
        assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
        for cm_counts, value in zip(stack, values):
            single = spec.evaluate(ConfusionMatrix(cm_counts))
            assert type(single) is float
            assert value == single, (name, cm_counts)
    # leading batch axes of any rank: a (1, k) stack gives the same values
    nested = MetricSpec("weighted_f1").evaluate(ConfusionMatrix(stack[None]))
    assert np.array_equal(nested[0], MetricSpec("weighted_f1").evaluate(ConfusionMatrix(stack)))
