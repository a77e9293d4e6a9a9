"""Rule systems and the five-class weighted score."""

import numpy as np
import pytest

from recidrisk.baseline import (
    CAUTIOUS,
    LAX,
    MEDIUM_CAUTIOUS,
    MEDIUM_LAX,
    NAMED_RULE_SYSTEMS,
    RuleSystem,
    ViogenClass,
    classify_scores,
    get_rule_system,
    read_rule_system,
    score_responses,
    write_rule_system,
)
from recidrisk.dataset import MISSING, CaseRecord, RiskLabel

NO, LOW, HIGH = RiskLabel.NO, RiskLabel.LOW, RiskLabel.HIGH

# The four named systems, locked cell by cell (columns ordered by severity).
LOCKED = {
    "lax": (NO, NO, LOW, LOW, HIGH),
    "medium_lax": (NO, LOW, LOW, LOW, HIGH),
    "medium_cautious": (NO, NO, LOW, HIGH, HIGH),
    "cautious": (NO, LOW, LOW, HIGH, HIGH),
}


def test_named_systems_locked():
    assert set(NAMED_RULE_SYSTEMS) == set(LOCKED)
    for name, expected in LOCKED.items():
        assert NAMED_RULE_SYSTEMS[name].mapping == expected


def test_rule_systems_monotone():
    for rs in NAMED_RULE_SYSTEMS.values():
        for lower in range(4):
            assert rs.apply(lower) <= rs.apply(lower + 1)


def test_rule_system_pointwise_dominance():
    for c in range(5):
        assert CAUTIOUS.apply(c) >= LAX.apply(c)
        assert MEDIUM_CAUTIOUS.apply(c) >= LAX.apply(c)
        assert CAUTIOUS.apply(c) >= MEDIUM_LAX.apply(c)


def test_apply_rule_system_examples():
    assert LAX.apply(ViogenClass.LOW) is NO
    assert CAUTIOUS.apply(ViogenClass.HIGH) is HIGH
    for rs in NAMED_RULE_SYSTEMS.values():
        assert rs.apply(ViogenClass.EXTREME) is HIGH


def test_apply_many_matches_scalar():
    classes = np.array([0, 1, 2, 3, 4, 4, 0])
    for rs in NAMED_RULE_SYSTEMS.values():
        vectorized = rs.apply_many(classes)
        assert vectorized.tolist() == [int(rs.apply(c)) for c in classes]


def test_non_monotone_rule_rejected():
    with pytest.raises(ValueError):
        RuleSystem("broken", (LOW, NO, LOW, HIGH, HIGH))


# Per-case oracles of the vectorized scoring, kept here as the only callers.

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


def test_classify_score_counts_strictly_below():
    thresholds = (1.0, 2.0, 3.0, 4.0)
    assert classify_score(0.5, thresholds) is ViogenClass.NOT_APPRECIATED
    assert classify_score(2.5, thresholds) is ViogenClass.MEDIUM
    assert classify_score(9.0, thresholds) is ViogenClass.EXTREME
    # a score exactly on a threshold stays in the lower class
    assert classify_score(2.0, thresholds) is ViogenClass.LOW


def test_classify_score_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        classify_score(1.0, (1.0, 1.0, 2.0, 3.0))


def test_score_responses_skips_missing_and_flags_gaps():
    weights = {("q1", "yes"): 2.0, ("q1", "no"): 0.0}
    assert score_responses({"q1": "yes"}, weights) == 2.0
    assert score_responses({"q1": MISSING}, weights) == 0.0
    with pytest.raises(KeyError):
        score_responses({"q1": "maybe"}, weights)


def test_viogen_classify_passthrough():
    case = CaseRecord("c1", {}, 0, viogen_score=4)
    assert viogen_classify(case) is ViogenClass.EXTREME


def test_viogen_classify_zero_weights():
    weights = {("q1", "yes"): 0.0, ("q1", "no"): 0.0}
    case = CaseRecord("c1", {"q1": "yes"}, 0)
    assert viogen_classify(case, weights, (0.5, 1.5, 2.5, 3.5)) is ViogenClass.NOT_APPRECIATED


def test_viogen_classify_requires_some_source():
    with pytest.raises(ValueError):
        viogen_classify(CaseRecord("c1", {"q1": "yes"}, 0))


def test_rule_system_file_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    write_rule_system(path, MEDIUM_CAUTIOUS)
    loaded = read_rule_system(path)
    assert loaded == MEDIUM_CAUTIOUS
    assert get_rule_system(str(path)) == MEDIUM_CAUTIOUS
    assert get_rule_system("cautious") is CAUTIOUS
    with pytest.raises(ValueError):
        get_rule_system("nonexistent")
