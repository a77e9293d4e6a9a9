"""Questionnaire schema, case records, one-hot encoding, risk labels and splits.

A case is a set of categorical questionnaire responses plus the number of
follow-up aggression reports observed for it. Cases are encoded against an
immutable schema into fixed-width one-hot rows (one block per question, with
a dedicated trailing indicator column for unanswered questions), and the
follow-up count is collapsed into the three-level risk target.
"""

from __future__ import annotations

import csv
import itertools
import json
import types
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import derive_rng

MISSING = None  # in-memory marker for an unanswered question; empty field on disk


class RiskLabel(IntEnum):
    """Three-level recidivism risk target, totally ordered by severity."""

    NO = 0
    LOW = 1
    HIGH = 2


N_LABELS = 3


class EncodingError(ValueError):
    """A record does not conform to the schema it is being encoded against."""


@dataclass(frozen=True)
class Question:
    question_id: str
    options: tuple[str, ...]
    allows_missing: bool = True

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError(f"question {self.question_id!r} needs >= 2 response options")
        if len(set(self.options)) != len(self.options):
            raise ValueError(f"question {self.question_id!r} has duplicate response options")

    @property
    def width(self) -> int:
        """Number of encoded columns: one per option, plus the missing indicator."""
        return len(self.options) + (1 if self.allows_missing else 0)


@dataclass(frozen=True)
class QuestionnaireSchema:
    """Ordered question list; immutable once a dataset has been encoded against it."""

    questions: tuple[Question, ...]

    def __post_init__(self):
        ids = [q.question_id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise ValueError("schema has duplicate question ids")

    @cached_property
    def by_id(self) -> dict[str, Question]:
        return {q.question_id: q for q in self.questions}

    @cached_property
    def offsets(self) -> dict[str, int]:
        """Start column of each question's one-hot block."""
        out, pos = {}, 0
        for q in self.questions:
            out[q.question_id] = pos
            pos += q.width
        return out

    @property
    def width(self) -> int:
        return sum(q.width for q in self.questions)

    def to_json(self) -> dict:
        return {
            "questions": [
                {"id": q.question_id, "options": list(q.options), "allows_missing": q.allows_missing}
                for q in self.questions
            ]
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QuestionnaireSchema":
        questions = []
        for number, item in enumerate(payload["questions"], 1):
            qid = item["id"]
            if not isinstance(qid, str):
                raise ValueError(f"question {number}: field 'id' must be a string")
            options, allows_missing = item["options"], item.get("allows_missing", True)
            if not (isinstance(options, list) and all(isinstance(o, str) for o in options)):
                raise ValueError(f"question {qid!r}: field 'options' must be a list of strings")
            if not isinstance(allows_missing, bool):
                raise ValueError(f"question {qid!r}: field 'allows_missing' must be true or false")
            questions.append(Question(qid, tuple(options), allows_missing))
        return cls(tuple(questions))


@dataclass(frozen=True)
class CaseRecord:
    """One reported case: raw responses plus its observed follow-up count."""

    case_id: str
    responses: dict
    recidivism_count: int
    viogen_score: int | None = None

    def __post_init__(self):
        if self.recidivism_count < 0:
            raise ValueError(f"case {self.case_id!r}: recidivism_count must be >= 0")
        if self.viogen_score is not None and not 0 <= self.viogen_score <= 4:
            raise ValueError(f"case {self.case_id!r}: viogen_score must be in 0..4")


@dataclass
class FeatureMatrix:
    """Encoded cases: dense one-hot rows with aligned labels and side data."""

    values: np.ndarray  # (n, width) float64 with entries in {0, 1}
    labels: np.ndarray  # (n,) int in {0, 1, 2}
    viogen_scores: np.ndarray | None = None  # (n,) int in 0..4, when available

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2 or self.labels.shape != (self.values.shape[0],):
            raise ValueError("values must be 2-D with one label per row")
        if self.viogen_scores is not None:
            self.viogen_scores = np.asarray(self.viogen_scores, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def take(self, indices: np.ndarray) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return FeatureMatrix(
            self.values[indices],
            self.labels[indices],
            None if self.viogen_scores is None else self.viogen_scores[indices],
        )


def as_xy(train) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) of a FeatureMatrix, or of an (X, y) pair as float and int arrays."""
    if isinstance(train, FeatureMatrix):
        return train.values, train.labels
    X, y = train
    return np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)


QUERY_CHUNK = 512  # query rows per predict block; bounds a distance block to a few dozen MB


def as_rows(X, width: int) -> tuple[np.ndarray, bool]:
    """The predict input rule: X as 2-D float rows of `width` columns, a single
    1-D row as one row, and whether X was that single row (its prediction is
    then a scalar label)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    rows = X[None, :] if single else X
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected width {width}, got shape {X.shape}")
    return rows, single


def top_label(counts: np.ndarray) -> np.ndarray:
    """Label with the most votes per row of per-label counts; exact ties go to the higher label."""
    counts = np.atleast_2d(counts)
    return (N_LABELS - 1) - np.argmax(counts[:, ::-1], axis=1)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.67
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly inside (0, 1)")


def label_from_recidivism(count: int, high_threshold: int = 3) -> RiskLabel:
    """Collapse a follow-up aggression count into the three-level risk label.

    0 maps to No, counts below `high_threshold` map to Low, and anything at or
    above it maps to High. The map is monotone in the count.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if high_threshold < 2:
        raise ValueError("high_threshold must be >= 2 so the Low band is non-empty")
    if count == 0:
        return RiskLabel.NO
    if count < high_threshold:
        return RiskLabel.LOW
    return RiskLabel.HIGH


def encode_cases(
    records: list[CaseRecord],
    schema: QuestionnaireSchema,
    high_threshold: int = 3,
) -> FeatureMatrix:
    """One-hot encode records against the schema, one row per record in input order.

    Within each question's block exactly one entry is set: the matching option
    column, or the block's trailing missing-indicator column for unanswered
    questions where the schema allows them.
    """
    n, width = len(records), schema.width
    values = np.zeros((n, width), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    scores = np.full(n, -1, dtype=np.int64)
    option_index = {
        q.question_id: {code: j for j, code in enumerate(q.options)} for q in schema.questions
    }
    for i, rec in enumerate(records):
        unknown = set(rec.responses) - schema.by_id.keys()
        if unknown:
            raise EncodingError(
                f"case {rec.case_id!r}: unknown question id(s) {sorted(unknown)!r}"
            )
        for q in schema.questions:
            start = schema.offsets[q.question_id]
            response = rec.responses.get(q.question_id, MISSING)
            if response is MISSING:
                if not q.allows_missing:
                    raise EncodingError(
                        f"case {rec.case_id!r}: question {q.question_id!r} does not allow missing"
                    )
                values[i, start + len(q.options)] = 1.0
            else:
                j = option_index[q.question_id].get(response)
                if j is None:
                    raise EncodingError(
                        f"case {rec.case_id!r}: question {q.question_id!r} has no option {response!r}"
                    )
                values[i, start + j] = 1.0
        labels[i] = label_from_recidivism(rec.recidivism_count, high_threshold)
        if rec.viogen_score is not None:
            scores[i] = rec.viogen_score
    has_scores = bool(np.all(scores >= 0)) and n > 0
    return FeatureMatrix(values, labels, viogen_scores=scores if has_scores else None)


def decode_row(row: np.ndarray, schema: QuestionnaireSchema) -> dict:
    """Invert one encoded row back to a responses dict (argmax per block)."""
    responses = {}
    for q in schema.questions:
        start = schema.offsets[q.question_id]
        block = row[start : start + q.width]
        j = int(np.argmax(block))
        responses[q.question_id] = MISSING if j == len(q.options) else q.options[j]
    return responses


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded shuffle split; train size is round-half-up of fraction * n."""
    n = matrix.n_rows
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(np.floor(spec.train_fraction * n + 0.5))
    if not 0 < n_train < n:
        raise ValueError(f"split of {n} rows at fraction {spec.train_fraction} leaves a part empty")
    perm = derive_rng(spec.seed, "split").permutation(n)
    return matrix.take(perm[:n_train]), matrix.take(perm[n_train:])


def kfold(matrix: FeatureMatrix, k: int, seed: int) -> list[tuple[FeatureMatrix, FeatureMatrix]]:
    """Seeded k-fold partition: validation parts are disjoint, cover all rows,
    and differ in size by at most one row."""
    n = matrix.n_rows
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    perm = derive_rng(seed, "kfold").permutation(n)
    base, extra = divmod(n, k)
    folds, pos = [], 0
    for fold_idx in range(k):
        size = base + (1 if fold_idx < extra else 0)
        val_idx = perm[pos : pos + size]
        train_idx = np.concatenate([perm[:pos], perm[pos + size :]])
        folds.append((matrix.take(train_idx), matrix.take(val_idx)))
        pos += size
    return folds


# ---------------------------------------------------------------------------
# File formats: one table layout for every delimited file, one JSON reader.
#
# A table file opens with `#` comment lines (the first names the manifest that
# produced it), then a header row, then rows in the csv module's default
# dialect. Floats are written with repr so they read back bit-exact.

def fmt_float(value) -> str:
    """Table cell for a float: its exact repr, or empty for None."""
    return "" if value is None else repr(float(value))


def comment_lines(manifest: str | None = None, comments=()) -> str:
    """The `#` lines that open a table or report file."""
    head = f"# manifest: {manifest}\n" if manifest else ""
    return head + "".join(f"# {comment}\n" for comment in comments)


def write_table(path: str | Path, columns, rows, manifest: str | None = None, comments=()) -> None:
    """Write comment lines, the header and the rows; cells are written as given."""
    with open(path, "w", newline="") as fh:
        fh.write(comment_lines(manifest, comments))
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path: str | Path, columns, parse_row, extra_columns: bool = False) -> list:
    """Parse every row of a table file, streaming; returns the parsed rows.

    `#` lines are comments only before the header. The header must equal
    `columns`, or start with them when `extra_columns` is set, and name each
    column once. Every row must have the header's width and is turned into
    an item by `parse_row(header, cells)`. Any failure, including a
    ValueError from `parse_row`, raises ValueError("<path>:<line>: <what>").
    """
    with open(path, newline="") as fh:
        n_comments = 0
        for first in fh:
            if not first.startswith("#"):
                break
            n_comments += 1
        else:
            raise ValueError(f"{path}:{n_comments + 1}: no header row")
        reader = csv.reader(itertools.chain((first,), fh))
        try:
            header = next(reader)
            if (header[: len(columns)] if extra_columns else header) != list(columns):
                wanted = ",".join(columns) + (",..." if extra_columns else "")
                raise ValueError(f"expected header {wanted}")
            if len(set(header)) != len(header):
                duplicates = sorted({name for name in header if header.count(name) > 1})
                raise ValueError(f"duplicate column(s) {', '.join(duplicates)}")
            width, items = len(header), []
            for cells in reader:
                if len(cells) != width:
                    raise ValueError(f"expected {width} cells, found {len(cells)}")
                items.append(parse_row(header, cells))
        except (ValueError, csv.Error) as exc:
            # line_num counts the physical lines the reader has consumed
            raise ValueError(f"{path}:{n_comments + max(reader.line_num, 1)}: {exc}") from None
    if not items:
        raise ValueError(f"{path}:{n_comments + reader.line_num + 1}: no rows after the header")
    return items



def read_json(path: str | Path, build):
    """Parse the JSON object in a file and return `build(payload)`.

    Every failure names the file: a syntax error raises
    ValueError("<path>:<line>: <msg>"), a field `build` looks up and does not
    find raises ValueError("<path>: missing field '<name>'"), and a field of
    the wrong type or a value `build` rejects raises ValueError("<path>: ...").
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(payload).__name__}")
    try:
        return build(payload)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field '{exc.args[0]}'") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: field of the wrong type ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def require_type(what: str, value, annotation) -> None:
    """Raise ValueError("<what> must be <annotation>") unless a JSON value has
    the annotated type. An int counts as a float, a bool as neither, and None
    only where the annotation names it; nothing is converted."""

    def conforms(value, annotation) -> bool:
        if isinstance(annotation, types.UnionType):
            return any(conforms(value, arm) for arm in annotation.__args__)
        if isinstance(annotation, types.GenericAlias):  # list[int], list[float]
            return isinstance(value, list) and all(conforms(v, annotation.__args__[0]) for v in value)
        if isinstance(value, bool):
            return annotation is bool
        return isinstance(value, (int, float) if annotation is float else annotation)

    if not conforms(value, annotation):
        plain = isinstance(annotation, type) and not isinstance(annotation, types.GenericAlias)
        name = annotation.__name__ if plain else str(annotation)  # a list[int] is a type before 3.11
        raise ValueError(f"{what} must be {name}")


CASE_FIELDS = ("case_id", "recidivism_count", "viogen_score")


def write_cases(
    path: str | Path,
    records: list[CaseRecord],
    schema: QuestionnaireSchema,
    manifest: str | None = None,
) -> None:
    question_ids = [q.question_id for q in schema.questions]

    def row(rec):
        score = "" if rec.viogen_score is None else str(rec.viogen_score)
        cells = [rec.case_id, str(rec.recidivism_count), score]
        for qid in question_ids:
            response = rec.responses.get(qid, MISSING)
            cells.append("" if response is MISSING else str(response))
        return cells

    write_table(path, CASE_FIELDS + tuple(question_ids), map(row, records), manifest)


def read_cases(path: str | Path) -> list[CaseRecord]:
    seen = set()

    def parse(header, cells):
        case_id, count_text, score_text = cells[:3]
        if case_id in seen:
            raise ValueError(f"duplicate case id {case_id!r}")
        seen.add(case_id)
        responses = {
            qid: (MISSING if cell == "" else cell) for qid, cell in zip(header[3:], cells[3:])
        }
        return CaseRecord(
            case_id=case_id,
            responses=responses,
            recidivism_count=int(count_text),
            viogen_score=None if score_text == "" else int(score_text),
        )

    return read_table(path, CASE_FIELDS, parse, extra_columns=True)


def write_schema(path: str | Path, schema: QuestionnaireSchema) -> None:
    with open(path, "w") as fh:
        json.dump(schema.to_json(), fh, indent=2)
        fh.write("\n")


def read_schema(path: str | Path) -> QuestionnaireSchema:
    return read_json(path, QuestionnaireSchema.from_json)
