"""Questionnaire schema, case records, one-hot encoding, risk labels and splits.

A case is a set of categorical questionnaire responses plus the number of
follow-up aggression reports observed for it. Cases are encoded against an
immutable schema into fixed-width one-hot rows (one block per question, with
a dedicated trailing indicator column for unanswered questions), and the
follow-up count is collapsed into the three-level risk target.

One encoding core serves both ways in: `encode_cases` for records in memory,
and `read_case_matrix`, the one case-file loader, which streams the file in
blocks of rows and encodes them column by column without building a record
per row. Both map each answer to its column through the same option lookup
and missing rule, label by `risk_labels`, and keep viogen scores by the same
rule. `read_cases` still returns the file's records, for callers that need
the raw responses or counts.
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


def risk_labels(counts, high_threshold: int = 3) -> np.ndarray:
    """Collapse follow-up aggression counts into three-level risk labels.

    0 maps to No, counts below `high_threshold` map to Low, and anything at or
    above it maps to High. The map is monotone in the count.
    """
    counts = np.asarray(counts)
    if (counts < 0).any():
        raise ValueError("count must be >= 0")
    if high_threshold < 2:
        raise ValueError("high_threshold must be >= 2 so the Low band is non-empty")
    return (counts > 0).astype(np.int64) + (counts >= high_threshold)


def label_from_recidivism(count: int, high_threshold: int = 3) -> RiskLabel:
    """The risk label of one follow-up count, by the `risk_labels` rule."""
    return RiskLabel(int(risk_labels(count, high_threshold)))


# ---------------------------------------------------------------------------
# The encoding core. Records (`encode_cases`) and case files
# (`read_case_matrix`) both come here with one column of answers per
# question; each cell maps to its active column through one dict.

def _answer_columns(question: Question, offset: int, missing) -> dict:
    """Each answer's active column: an option's own column, and for `missing`,
    the cell of an unanswered question, the indicator column where the
    question allows it."""
    columns = {option: offset + j for j, option in enumerate(question.options)}
    if question.allows_missing:
        columns[missing] = offset + len(question.options)
    else:
        columns.pop(missing, None)  # on file an empty option reads as no answer
    return columns


def _encode_answers(schema: QuestionnaireSchema, n: int, answers: list, missing) -> np.ndarray:
    """(n, Q) active columns of n cases from `answers[q]`, question q's cells
    in case order. -1 marks a cell that is not one of the question's options,
    or is missing where the question does not allow it."""
    dtype = np.int16 if schema.width <= np.iinfo(np.int16).max else np.int64
    codes = np.empty((n, len(schema.questions)), dtype=dtype)
    for j, (q, cells) in enumerate(zip(schema.questions, answers)):
        lookup = _answer_columns(q, schema.offsets[q.question_id], missing)
        codes[:, j] = np.fromiter(map(lookup.get, cells, itertools.repeat(-1)), dtype, count=n)
    return codes


def _first_bad_answer(schema: QuestionnaireSchema, codes: np.ndarray, answers: list, missing):
    """None, or (row, message) for the first cell `_encode_answers` rejected,
    in case order, then question order."""
    bad = codes < 0
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=1)))
    j = int(np.argmax(bad[row]))
    q, cell = schema.questions[j], answers[j][row]
    if cell == missing:
        return row, f"question {q.question_id!r} does not allow missing"
    return row, f"question {q.question_id!r} has no option {cell!r}"


def _first_failure(*failures):
    """The (row, what) failure at the earliest row, or None; a tie goes to the
    one listed first."""
    found = [failure for failure in failures if failure is not None]
    return min(found, key=lambda failure: failure[0]) if found else None


def _feature_matrix(schema: QuestionnaireSchema, codes, labels, scores) -> FeatureMatrix:
    """The one-hot rows of the active columns. Viogen scores (-1 where a case
    has none) are kept only when every case has one."""
    values = np.zeros((codes.shape[0], schema.width), dtype=np.float64)
    np.put_along_axis(values, codes, 1.0, axis=1)
    has_scores = scores.size > 0 and bool((scores >= 0).all())
    return FeatureMatrix(values, labels, viogen_scores=scores if has_scores else None)


def encode_cases(
    records: list[CaseRecord],
    schema: QuestionnaireSchema,
    high_threshold: int = 3,
) -> FeatureMatrix:
    """One-hot encode records against the schema, one row per record in input order.

    Within each question's block exactly one entry is set: the matching option
    column, or the block's trailing missing-indicator column for unanswered
    questions where the schema allows them. The first record that does not
    conform raises EncodingError.
    """
    known = schema.by_id.keys()
    unknown = next(((i, f"unknown question id(s) {sorted(rec.responses.keys() - known)!r}")
                    for i, rec in enumerate(records) if not rec.responses.keys() <= known), None)
    answers = [[rec.responses.get(q.question_id, MISSING) for rec in records]
               for q in schema.questions]
    codes = _encode_answers(schema, len(records), answers, MISSING)
    failure = _first_failure(unknown, _first_bad_answer(schema, codes, answers, MISSING))
    if failure is not None:
        row, what = failure
        raise EncodingError(f"case {records[row].case_id!r}: {what}")
    labels = risk_labels([rec.recidivism_count for rec in records], high_threshold)
    scores = np.array([-1 if rec.viogen_score is None else rec.viogen_score for rec in records],
                      dtype=np.int64)
    return _feature_matrix(schema, codes, labels, scores)


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


# Table rows parsed per block; bounds the cell strings alive at once. On the
# 58-question demo file (2 cores, Python 3.11) 128 rows load fastest and keep
# peak RSS lowest: from 512 rows up a block's cells outgrow the cache, and the
# freed memory of larger blocks stays resident, pinned by later allocations.
BLOCK_ROWS = 128


def stream_table(path: str | Path, columns, start, extra_columns: bool = False) -> None:
    """Stream the rows of a table file to a parser, in blocks of BLOCK_ROWS.

    `#` lines are comments only before the header. The header must equal
    `columns`, or start with them when `extra_columns` is set, and name each
    column once; `start(header)` may reject it with a ValueError, and returns
    the parser. Every row must have the header's width. `parse(rows)` gets the
    rows of each block in file order and returns None, or (i, what) for the
    first bad row of the block. Any failure raises ValueError("<path>:<line>:
    <what>"), naming the header's line for a header defect and the line that
    ends the first bad row otherwise.
    """
    with open(path, newline="") as fh:
        n_comments = 0
        for first in fh:
            if not first.startswith("#"):
                break
            n_comments += 1
        else:
            raise ValueError(f"{path}:{n_comments + 1}: no header row")

        def error(line: int, what) -> ValueError:
            # line_num counts the physical lines the reader has consumed
            return ValueError(f"{path}:{n_comments + max(line, 1)}: {what}")

        reader = csv.reader(itertools.chain((first,), fh))
        try:
            header = next(reader)
            if (header[: len(columns)] if extra_columns else header) != list(columns):
                wanted = ",".join(columns) + (",..." if extra_columns else "")
                raise ValueError(f"expected header {wanted}")
            if len(set(header)) != len(header):
                duplicates = sorted({name for name in header if header.count(name) > 1})
                raise ValueError(f"duplicate column(s) {', '.join(duplicates)}")
            parse = start(header)
        except (ValueError, csv.Error) as exc:
            raise error(reader.line_num, exc) from None
        width, n_rows, broken = len(header), 0, None
        while broken is None:
            rows, lines = [], []
            try:
                for cells in reader:
                    rows.append(cells)
                    lines.append(reader.line_num)
                    if len(rows) == BLOCK_ROWS:
                        break
            except csv.Error as exc:  # raised once the rows before it are checked
                broken = error(reader.line_num, exc)
            if not rows:
                break
            cut = next((i for i, cells in enumerate(rows) if len(cells) != width), len(rows))
            failure = parse(rows[:cut]) if cut else None
            if failure is None and cut < len(rows):
                failure = cut, f"expected {width} cells, found {len(rows[cut])}"
            if failure is not None:
                raise error(lines[failure[0]], failure[1])
            n_rows += len(rows)
        if broken is not None:
            raise broken
    if not n_rows:
        raise error(reader.line_num + 1, "no rows after the header")


def read_table(path: str | Path, columns, parse_row, extra_columns: bool = False) -> list:
    """Parse every row of a table file, streaming; returns the parsed rows.

    The file follows `stream_table`'s rules, and each row is turned into an
    item by `parse_row(header, cells)`. Any failure, including a ValueError
    from `parse_row`, raises ValueError("<path>:<line>: <what>").
    """
    items = []

    def start(header):
        def parse(rows):
            for i, cells in enumerate(rows):
                try:
                    items.append(parse_row(header, cells))
                except ValueError as exc:
                    return i, exc
            return None
        return parse

    stream_table(path, columns, start, extra_columns)
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


def _case_record(header, cells, seen: set) -> CaseRecord:
    """One case-file row as a record; its id joins `seen`, which must not hold it."""
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


def read_cases(path: str | Path) -> list[CaseRecord]:
    seen = set()
    return read_table(path, CASE_FIELDS, lambda header, cells: _case_record(header, cells, seen),
                      extra_columns=True)


def read_case_matrix(
    path: str | Path,
    schema: QuestionnaireSchema,
    high_threshold: int = 3,
) -> FeatureMatrix:
    """Read a case file column by column straight into its encoded matrix.

    The result equals `encode_cases(read_cases(path), schema, high_threshold)`,
    and every check of that path is kept, but no record is built: each block
    of rows is transposed into columns, checked column by column, and kept
    only as its (n, Q) active columns, counts and scores. A header that names
    an unknown question, or lacks one that does not allow missing answers,
    fails at the header's line; otherwise the first bad row fails at its line,
    with `read_cases`' message for a bad id, count or score.
    """
    seen, blocks = set(), []

    def start(header):
        unknown = [name for name in header[3:] if name not in schema.by_id]
        if unknown:
            raise ValueError(f"unknown question column(s) {unknown!r}")
        where = {name: j for j, name in enumerate(header)}
        absent = [q.question_id for q in schema.questions
                  if q.question_id not in where and not q.allows_missing]
        if absent:
            raise ValueError(f"no column for question(s) {absent!r}, which need an answer")
        positions = [where.get(q.question_id) for q in schema.questions]

        def parse(rows):
            columns = list(zip(*rows))
            ids, count_texts, score_texts = columns[:3]
            answers = [("",) * len(rows) if j is None else columns[j] for j in positions]
            codes = _encode_answers(schema, len(rows), answers, "")
            bad_answer = _first_bad_answer(schema, codes, answers, "")
            if bad_answer is not None:
                row, what = bad_answer
                bad_answer = row, f"case {ids[row]!r}: {what}"
            bad_record = None
            try:
                fresh = set(ids)
                counts = np.array(list(map(int, count_texts)))
                blank = np.array([text == "" for text in score_texts])
                scores = np.array([int(text) if text else -1 for text in score_texts])
                clean = (len(fresh) == len(ids) and seen.isdisjoint(fresh) and (counts >= 0).all()
                         and (blank | ((scores >= 0) & (scores <= 4))).all())
            except ValueError:
                clean = False
            if not clean:  # the record path finds the first bad row and says what is wrong
                for i, cells in enumerate(rows):
                    try:
                        _case_record(header, cells, seen)
                    except ValueError as exc:
                        bad_record = i, exc
                        break
            failure = _first_failure(bad_record, bad_answer)
            if failure is None:
                seen.update(fresh)
                blocks.append((codes, counts, scores))
            return failure

        return parse

    stream_table(path, CASE_FIELDS, start, extra_columns=True)
    codes, counts, scores = (np.concatenate(parts) for parts in zip(*blocks))
    return _feature_matrix(schema, codes, risk_labels(counts, high_threshold), scores)


def write_schema(path: str | Path, schema: QuestionnaireSchema) -> None:
    with open(path, "w") as fh:
        json.dump(schema.to_json(), fh, indent=2)
        fh.write("\n")


def read_schema(path: str | Path) -> QuestionnaireSchema:
    return read_json(path, QuestionnaireSchema.from_json)
