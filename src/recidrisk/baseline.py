"""Preexisting rule-based risk assessment: five-class weighted score plus the
monotone rule systems that project it onto the three-level risk target.

The five-class score is a weighted sum of a case's responses cut at four
ascending thresholds (a score strictly above t of them lands in class t).
The production scoring weights are external inputs and never hard-coded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .dataset import MISSING, CaseRecord, RiskLabel, json_text, read_json, require_type


class ViogenClass(IntEnum):
    NOT_APPRECIATED = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    EXTREME = 4


N_VIOGEN_CLASSES = 5


@dataclass(frozen=True)
class RuleSystem:
    """Severity-monotone map from the five assessment classes onto RiskLabel."""

    name: str
    mapping: tuple[RiskLabel, RiskLabel, RiskLabel, RiskLabel, RiskLabel]

    def __post_init__(self):
        if len(self.mapping) != N_VIOGEN_CLASSES:
            raise ValueError("rule system needs exactly 5 entries")
        mapping = tuple(RiskLabel(v) for v in self.mapping)
        if any(mapping[i] > mapping[i + 1] for i in range(N_VIOGEN_CLASSES - 1)):
            raise ValueError(f"rule system {self.name!r} is not monotone in severity")
        object.__setattr__(self, "mapping", mapping)

    def apply(self, viogen_class: int) -> RiskLabel:
        return self.mapping[ViogenClass(viogen_class)]

    def apply_many(self, viogen_classes: np.ndarray) -> np.ndarray:
        table = np.array([int(v) for v in self.mapping], dtype=np.int64)
        return table[np.asarray(viogen_classes, dtype=np.int64)]


_NO, _LOW, _HIGH = RiskLabel.NO, RiskLabel.LOW, RiskLabel.HIGH

LAX = RuleSystem("lax", (_NO, _NO, _LOW, _LOW, _HIGH))
MEDIUM_LAX = RuleSystem("medium_lax", (_NO, _LOW, _LOW, _LOW, _HIGH))
MEDIUM_CAUTIOUS = RuleSystem("medium_cautious", (_NO, _NO, _LOW, _HIGH, _HIGH))
CAUTIOUS = RuleSystem("cautious", (_NO, _LOW, _LOW, _HIGH, _HIGH))

NAMED_RULE_SYSTEMS = {rs.name: rs for rs in (LAX, MEDIUM_LAX, MEDIUM_CAUTIOUS, CAUTIOUS)}


def score_responses(responses: dict, weights: dict) -> float:
    """Weighted sum of the case's responses.

    `weights` maps (question_id, option_code) to a real weight and must cover
    every answered pair; unanswered questions contribute nothing.
    """
    total = 0.0
    for qid, response in responses.items():
        if response is MISSING:
            continue
        try:
            total += weights[(qid, response)]
        except KeyError:
            raise KeyError(f"no scoring weight for question {qid!r} option {response!r}") from None
    return total


def classify_scores(scores, thresholds) -> np.ndarray:
    """Five-class value of each score: the number of thresholds strictly below it."""
    thresholds = tuple(thresholds)
    if len(thresholds) != N_VIOGEN_CLASSES - 1 or any(
        a >= b for a, b in zip(thresholds, thresholds[1:])
    ):
        raise ValueError("need 4 strictly ascending thresholds")
    return np.searchsorted(np.asarray(thresholds, dtype=np.float64), scores, side="left")


def classify_score(score: float, thresholds) -> ViogenClass:
    """Five-class value of one score, by the `classify_scores` rule."""
    return ViogenClass(int(classify_scores(score, thresholds)))


def viogen_classify(
    case: CaseRecord,
    weights: dict | None = None,
    thresholds=None,
) -> ViogenClass:
    """Five-class assessment for one case.

    A precomputed score on the record wins; otherwise the weighted sum is
    evaluated against the thresholds.
    """
    if case.viogen_score is not None:
        return ViogenClass(case.viogen_score)
    if weights is None or thresholds is None:
        raise ValueError(
            f"case {case.case_id!r} has no precomputed assessment and no weights/thresholds given"
        )
    return classify_score(score_responses(case.responses, weights), thresholds)


def rule_system_to_json(rule_system: RuleSystem) -> dict:
    return {"name": rule_system.name, "mapping": [int(v) for v in rule_system.mapping]}


def rule_system_from_json(payload: dict) -> RuleSystem:
    """The one check of a rule system's fields, in rule-system and model files."""
    require_type("field 'name'", payload["name"], str)
    require_type("field 'mapping'", payload["mapping"], list[int])
    return RuleSystem(payload["name"], tuple(RiskLabel(v) for v in payload["mapping"]))


def write_rule_system(path: str | Path, rule_system: RuleSystem) -> None:
    Path(path).write_text(json_text(rule_system_to_json(rule_system)))


def read_rule_system(path: str | Path) -> RuleSystem:
    return read_json(path, rule_system_from_json)


def get_rule_system(name_or_path: str) -> RuleSystem:
    """Resolve one of the four built-in names, or load from a file."""
    if name_or_path in NAMED_RULE_SYSTEMS:
        return NAMED_RULE_SYSTEMS[name_or_path]
    if Path(name_or_path).exists():
        return read_rule_system(name_or_path)
    raise ValueError(
        f"unknown rule system {name_or_path!r}; "
        f"expected one of {sorted(NAMED_RULE_SYSTEMS)} or a file path"
    )
