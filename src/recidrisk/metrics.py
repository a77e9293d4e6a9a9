"""Confusion-matrix construction and all model quality measures.

Every measure is a pure function of a 3x3 confusion matrix indexed
(predicted label, true label):

  precision_c = cm[c, c] / sum_b cm[c, b]
  recall_c    = cm[c, c] / sum_a cm[a, c]
  f1_c        = harmonic mean of the two (0/0 counts as 0 throughout)

  police_protection = precision_No + f1_Low + recall_High        in [0, 3]

  police_resource(tau) =
      (cm[Low, No] + tau * cm[High, Low] + (1 + tau) * cm[High, No])
      / (2 * M * (1 + tau))                                       in [0, 1/2]

where tau >= 0 is the extra surveillance cost of a High-level measure over a
Low-level one. Protection rewards identifying the threatened victims;
resource overload penalizes predictions above the true risk.

A ConfusionMatrix may also hold a stack of matrices, counts of shape
(..., 3, 3); every measure then returns one value per matrix, bit for bit
what it returns for that matrix alone. A single matrix is the stack with no
batch axes, and its measures are plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_LABELS, RiskLabel


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 count table of (predicted, true) label pairs, or a (..., 3, 3) stack."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape[-2:] != (N_LABELS, N_LABELS) or (counts < 0).any():
            raise ValueError("counts must be 3x3 tables of non-negative integers")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self):
        """Number of cases: an int, or an array over the stack."""
        total = self.counts.sum(axis=(-2, -1))
        return total if total.ndim else int(total)

    def scaled(self, k: int) -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts * k)


@dataclass(frozen=True)
class ClassScores:
    precision: np.ndarray  # (..., 3) per class
    recall: np.ndarray
    f1: np.ndarray
    weighted_f1: float | np.ndarray  # true-class support weights
    macro_f1: float | np.ndarray  # uniform weights, reported for reference


def confusion(preds, truths) -> ConfusionMatrix:
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape or preds.ndim != 1:
        raise ValueError("predictions and truths must be 1-D and equally long")
    if preds.size == 0:
        raise ValueError("cannot build a confusion matrix from empty inputs")
    counts = np.zeros((N_LABELS, N_LABELS), dtype=np.int64)
    np.add.at(counts, (preds, truths), 1)
    return ConfusionMatrix(counts)


def _value(x):
    """A float for a single matrix's measure, the array for a stack's."""
    return x if x.ndim else float(x)


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def class_scores(cm: ConfusionMatrix) -> ClassScores:
    counts = cm.counts
    diag = np.diagonal(counts, axis1=-2, axis2=-1).astype(np.float64)
    predicted = counts.sum(axis=-1).astype(np.float64)
    support = counts.sum(axis=-2).astype(np.float64)
    precision = _safe_ratio(diag, predicted)
    recall = _safe_ratio(diag, support)
    f1 = _safe_ratio(2.0 * precision * recall, precision + recall)
    weights = support / support.sum(axis=-1, keepdims=True)
    # a row-by-column matmul runs np.dot's kernel on every matrix of a stack
    weighted_f1 = (weights[..., None, :] @ f1[..., :, None])[..., 0, 0]
    macro_f1 = f1.sum(axis=-1) / N_LABELS  # bit for bit f1.mean(axis=-1), and cheaper
    return ClassScores(precision, recall, f1, _value(weighted_f1), _value(macro_f1))


def police_protection(cm: ConfusionMatrix) -> float | np.ndarray:
    scores = class_scores(cm)
    return _value(
        scores.precision[..., RiskLabel.NO] + scores.f1[..., RiskLabel.LOW]
        + scores.recall[..., RiskLabel.HIGH]
    )


def police_resource(cm: ConfusionMatrix, tau: float) -> float | np.ndarray:
    if tau < 0:
        raise ValueError("tau must be >= 0")
    c = cm.counts
    over = (
        c[..., RiskLabel.LOW, RiskLabel.NO]
        + tau * c[..., RiskLabel.HIGH, RiskLabel.LOW]
        + (1.0 + tau) * c[..., RiskLabel.HIGH, RiskLabel.NO]
    )
    return _value(over / (2.0 * cm.total * (1.0 + tau)))


@dataclass(frozen=True)
class MetricSpec:
    """Named scalar objective over a confusion matrix.

    `police_resource` carries its tau penalty; the others ignore it.
    """

    name: str  # high_f1 | weighted_f1 | macro_f1 | police_protection | police_resource
    tau: float | None = None

    _KNOWN = ("high_f1", "weighted_f1", "macro_f1", "police_protection", "police_resource")

    def __post_init__(self):
        if self.name not in self._KNOWN:
            raise ValueError(f"unknown metric {self.name!r}; expected one of {self._KNOWN}")
        if self.name == "police_resource" and (self.tau is None or self.tau < 0):
            raise ValueError("police_resource needs tau >= 0")

    @property
    def higher_is_better(self) -> bool:
        return self.name != "police_resource"

    def evaluate(self, cm: ConfusionMatrix) -> float | np.ndarray:
        """The metric's value: a float, or one value per matrix of a stack."""
        if self.name == "police_protection":
            return police_protection(cm)
        if self.name == "police_resource":
            return police_resource(cm, self.tau)
        scores = class_scores(cm)
        if self.name == "high_f1":
            return _value(scores.f1[..., RiskLabel.HIGH])
        if self.name == "weighted_f1":
            return scores.weighted_f1
        return scores.macro_f1

    def label(self) -> str:
        if self.name == "police_resource":
            return f"police_resource(tau={self.tau:g})"
        return self.name
