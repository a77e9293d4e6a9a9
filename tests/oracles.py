"""Record-path references the package's columnar code is checked against.

Each builds its result one `CaseRecord` or one draw at a time, the plain way:
the viogen classes of records at given thresholds, the thresholds of records'
scores, the case file of records, and one hybrid estimate at one mu.
"""

import numpy as np

from recidrisk.baseline import classify_scores, score_responses
from recidrisk.dataset import CASE_FIELDS, MISSING, CaseRecord, require_file_options, write_table
from recidrisk.hybrid import _Cells, _summarize
from recidrisk.seeding import derive_rng
from recidrisk.synthgen import thresholds_from_quantiles


def _scores(records, weights: dict) -> np.ndarray:
    return np.fromiter((score_responses(rec.responses, weights) for rec in records), np.float64,
                       len(records))


def attach_viogen_scores(records, weights: dict, thresholds) -> list[CaseRecord]:
    """Return records with the five-class weighted-score assessment filled in.

    The score is the weighted sum of each case's answered responses; its class
    is the number of thresholds strictly below the score. Every answered
    (question, option) pair must have a weight.
    """
    classes = classify_scores(_scores(records, weights), thresholds)
    return [CaseRecord(rec.case_id, rec.responses, rec.recidivism_count, viogen_class)
            for rec, viogen_class in zip(records, classes.tolist())]


def score_thresholds(records, weights: dict) -> tuple:
    """Thresholds cutting the records' weighted scores at the default class proportions."""
    return thresholds_from_quantiles(_scores(records, weights))


def write_cases(path, records, schema, manifest=None) -> None:
    """Write records as a case file, one row per record."""
    require_file_options(schema)
    question_ids = [q.question_id for q in schema.questions]

    def row(rec):
        score = "" if rec.viogen_score is None else str(rec.viogen_score)
        cells = [rec.case_id, str(rec.recidivism_count), score]
        for qid in question_ids:
            response = rec.responses.get(qid, MISSING)
            cells.append("" if response is MISSING else str(response))
        return cells

    write_table(path, CASE_FIELDS + tuple(question_ids), map(row, records), manifest)


def evaluate_hybrid(f0_preds, f1_preds, truths, mu, metric, n_runs, master_seed):
    """Monte Carlo estimate of one metric at one mu: the draw `resource_profile` makes."""
    stack = _Cells(f0_preds, f1_preds, truths).draw(mu, n_runs, derive_rng(master_seed, "run"))
    return _summarize(metric.evaluate(stack))
