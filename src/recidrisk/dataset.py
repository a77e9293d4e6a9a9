"""Questionnaire schema, case records, one-hot encoding, risk labels and splits.

A case is a set of categorical questionnaire responses plus the number of
follow-up aggression reports observed for it. Cases are encoded against an
immutable schema into fixed-width one-hot rows (one block per question, with
a dedicated trailing indicator column for unanswered questions), and the
follow-up count is collapsed into the three-level risk target.

One encoding core serves both ways in: `encode_cases` for records in memory,
and `read_case_matrix`, the one case-file loader, which streams the file in
blocks of rows and encodes them column by column without building a record
per row. Both turn answers into option codes by one convention, and one
builder shifts the codes into columns and labels the rows by `risk_labels`,
keeping the follow-up counts with them, so another High threshold relabels
without encoding again. The matrix keeps those columns as codes and builds
float rows only for a caller that reads them. `answer_cells` turns codes back
into answers, for `decode_row` and the generator. `read_cases` still returns
the file's records.

Every delimited file is read by `table_blocks`, the one table reader: a
generator of the header and then blocks of rows with their lines, which
`read_table` and `read_case_matrix` check as they come.

Every JSON file is read by `read_json` and written from `json_text`, its one
writer, which refuses NaN and Infinity as `read_json` does, so no file the
package writes fails to load as JSON.
"""

from __future__ import annotations

import csv
import itertools
import json
import types
from contextlib import closing
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
        require_known_fields(payload, ("questions", "manifest"), "a schema")
        questions = []
        for number, item in enumerate(payload["questions"], 1):
            qid = item["id"]
            if not isinstance(qid, str):
                raise ValueError(f"question {number}: field 'id' must be a string")
            require_known_fields(item, ("id", "options", "allows_missing"), f"question {qid!r}")
            options, allows_missing = item["options"], item.get("allows_missing", True)
            if not (isinstance(options, list) and all(isinstance(o, str) for o in options)):
                raise ValueError(f"question {qid!r}: field 'options' must be a list of strings")
            if not isinstance(allows_missing, bool):
                raise ValueError(f"question {qid!r}: field 'allows_missing' must be true or false")
            questions.append(Question(qid, tuple(options), allows_missing))
        if not questions:  # a case file of no questions encodes to no columns
            raise ValueError("field 'questions' must not be empty")
        schema = cls(tuple(questions))
        require_file_options(schema)
        return schema


def require_file_options(schema: QuestionnaireSchema) -> None:
    """Refuse a schema with an empty option wherever it meets a file: in a
    case file an empty cell means no answer, so that option could not be told
    from a missing one. In memory, where MISSING is None, it is a plain option."""
    for q in schema.questions:
        if "" in q.options:
            raise ValueError(f"question {q.question_id!r}: an option must not be empty; "
                             "in a case file an empty cell means no answer")


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


QUERY_CHUNK = 512  # rows per float block; bounds a distance block to a few dozen MB


class _FloatRows:
    """`FeatureMatrix.values`: the dense rows a matrix was given, or all of its
    rows built from its codes. Built, not kept: each read makes a new array."""

    def __get__(self, matrix, owner=None):
        if matrix is None:  # no class-level default, so `values` stays a required field
            raise AttributeError("values")
        return matrix.rows(slice(None))

    def __set__(self, matrix, values):
        matrix._values = values


@dataclass
class FeatureMatrix:
    """Encoded cases: one float row per case, with aligned labels and side data.

    A matrix holds its rows in one of two forms. Dense: `values`, any (n,
    width) floats, as library callers and tests build it. Code-backed:
    `codes`, each row's active columns, one per question in increasing
    order, as `encode_cases` and `read_case_matrix` build it. Its row is 1.0
    at those columns and 0.0 elsewhere, so 58 answered questions take 58
    small ints instead of 250 floats. `take`, `split` and `kfold` copy codes,
    not floats, and `relabel` labels the same rows at another High threshold.

    `rows` is the one reader of float rows, and `row_blocks` reads them a
    block at a time: a slice of the dense values, or the one-hot of a slice
    of the codes. `values` is all rows at once, built on each read of a
    code-backed matrix; a caller that reads blocks, as nearest centroid fit
    and predict do, never holds an (n, width) float matrix. So
    `dataclasses.replace`, which reads `values`, builds every row of a
    code-backed matrix; the copy stays code-backed, and `values` passed with
    `codes` are refused unless they are the codes' own rows. Dense rows set
    `width` themselves, so `replace` may give other dense rows.

    Malformed side data is refused with ValueError: labels outside 0..2, or
    viogen scores or counts that do not hold one value per row.
    """

    values: np.ndarray = _FloatRows()  # (n, width) float64: as given, or built from `codes`
    labels: np.ndarray  # (n,) int in {0, 1, 2}
    viogen_scores: np.ndarray | None = None  # (n,) int in 0..4, when available
    counts: np.ndarray | None = None  # (n,) follow-up counts as parsed, for encoded cases
    codes: np.ndarray | None = None  # (n, Q) ints, each row's active columns in increasing order
    width: int | None = None  # columns of the codes' rows; dense rows set it from `values`

    ndim = 2  # perfbench's tracer counts the rows of 2-D predict inputs by `ndim`

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.codes is None:
            self.values = np.asarray(self._values, dtype=np.float64)
            if self._values.ndim != 2 or self.labels.shape != (self._values.shape[0],):
                raise ValueError("values must be 2-D with one label per row")
            self.width = self._values.shape[1]
        else:
            self.codes = _check_codes(np.asarray(self.codes), self.width)
            if self.labels.shape != (self.codes.shape[0],):
                raise ValueError("codes must be 2-D with one label per row")
            if self._values is not None and not _one_hot_of(self._values, self.codes, self.width):
                raise ValueError("values given with codes must be the codes' own rows")
            self.values = None  # the codes are the rows; `rows` builds their floats
        if not ((self.labels >= 0) & (self.labels < N_LABELS)).all():
            raise ValueError(f"labels must lie in 0..{N_LABELS - 1}")
        for name in ("viogen_scores", "counts"):
            side = getattr(self, name)
            if side is not None:
                side = np.asarray(side, dtype=np.int64 if name == "viogen_scores" else None)
                if side.shape != self.labels.shape:
                    raise ValueError(f"{name} must hold one value per row: "
                                     f"shape {side.shape} for {self.n_rows} rows")
                setattr(self, name, side)

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.width

    def rows(self, part: slice) -> np.ndarray:
        """The float rows `part`: a view of the dense values, or the one-hot of
        the codes' rows."""
        if self.codes is None:
            return self._values[part]
        codes = self.codes[part]
        rows = np.zeros((codes.shape[0], self.width), dtype=np.float64)
        # each row's codes shifted to its start in the flat rows: one scatter for the block
        rows.reshape(-1)[(codes + np.arange(0, rows.size, self.width)[:, None]).ravel()] = 1.0
        return rows

    def take(self, indices: np.ndarray) -> "FeatureMatrix":
        indices = np.asarray(indices)

        def pick(array):
            return None if array is None else array[indices]

        return FeatureMatrix(pick(self._values), self.labels[indices], pick(self.viogen_scores),
                             pick(self.counts), pick(self.codes), self.width)

    def relabel(self, high_threshold: int) -> "FeatureMatrix":
        """The same rows labelled from their follow-up counts by `risk_labels`
        at another High threshold; rows and side data are shared, not copied."""
        if self.counts is None:
            raise ValueError("relabelling needs the follow-up counts of encoded cases")
        return FeatureMatrix(self._values, risk_labels(self.counts, high_threshold),
                             self.viogen_scores, self.counts, self.codes, self.width)


def _check_codes(codes: np.ndarray, width) -> np.ndarray:
    """Code-backed rows as given, or ValueError unless they are (n, Q) ints
    that name distinct columns of `width` in increasing order in every row."""
    if codes.ndim != 2 or codes.dtype.kind not in "iu":
        raise ValueError("codes must be a 2-D integer array")
    if not isinstance(width, (int, np.integer)) or isinstance(width, bool):
        raise ValueError("a matrix of codes needs its width, an int")
    if codes.size and not (codes.min() >= 0 and codes.max() < width
                           and (codes[:, 1:] > codes[:, :-1]).all()):
        raise ValueError(f"each row's codes must be increasing columns in 0..{width - 1}")
    return codes


def _one_hot_of(values, codes: np.ndarray, width: int) -> bool:
    """Whether `values` are the float rows of `codes`: 1.0 at each row's
    columns, which are distinct, and 0.0 at every other cell."""
    values = np.asarray(values)
    if values.shape != (codes.shape[0], width):
        return False
    at_codes = np.take_along_axis(values, codes.astype(np.intp), axis=1)
    return bool((at_codes == 1.0).all() and np.count_nonzero(values) == codes.size)


def row_blocks(X, size: int = QUERY_CHUNK):
    """Yield (part, float rows) over X, a FeatureMatrix or a 2-D array, in row
    order, `part` being the slice of at most `size` rows the block holds."""
    rows = X.rows if isinstance(X, FeatureMatrix) else X.__getitem__
    for start in range(0, X.shape[0], size):
        part = slice(start, start + size)
        yield part, rows(part)


def as_xy(train) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) of a FeatureMatrix, or of an (X, y) pair as float and int arrays."""
    if isinstance(train, FeatureMatrix):
        return train.values, train.labels
    X, y = train
    return np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)


def as_rows(X, width: int, dense: bool = True) -> tuple:
    """The predict input rule: X as 2-D float rows of `width` columns, a single
    1-D row as one row, and whether X was that single row (its prediction is
    then a scalar label). A FeatureMatrix is rows of its own width: its
    `values`, or, unless `dense`, the matrix itself, for `row_blocks`."""
    if isinstance(X, FeatureMatrix):
        if X.width != width:
            raise ValueError(f"expected width {width}, got shape {X.shape}")
        return X.values if dense else X, False
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


# ---------------------------------------------------------------------------
# The encoding core and the one option-code convention: a case's code for a
# question is the index of its answer among the options, and `len(options)`
# marks an unanswered question. Records (`encode_cases`) and case files
# (`read_case_matrix`) both come here with one column of cells per question.

def code_dtype(schema: QuestionnaireSchema) -> type:
    """The dtype of a schema's option codes, which also holds their columns:
    int16 while the schema's width fits, else int64."""
    return np.int16 if schema.width <= np.iinfo(np.int16).max else np.int64


def _encode_answers(schema: QuestionnaireSchema, n: int, answers: list, missing) -> np.ndarray:
    """(n, Q) option codes of n cases from `answers[q]`, question q's cells
    in case order. -1 marks a cell that is not one of the question's options,
    or is `missing` where the question does not allow it."""
    dtype = code_dtype(schema)
    codes = np.empty((n, len(schema.questions)), dtype=dtype)
    for j, (q, cells) in enumerate(zip(schema.questions, answers)):
        lookup = {option: code for code, option in enumerate(q.options)}
        if q.allows_missing:
            lookup[missing] = len(q.options)
        codes[:, j] = np.fromiter(map(lookup.get, cells, itertools.repeat(-1)), dtype, count=n)
    return codes


def answer_cells(schema: QuestionnaireSchema, codes: np.ndarray, missing) -> list[list]:
    """Each question's cells in case order from (n, Q) option codes, the
    inverse of `_encode_answers`: the option each code indexes, and `missing`
    for the code past the options."""
    return [np.array([*q.options, missing], dtype=object)[codes[:, j]].tolist()
            for j, q in enumerate(schema.questions)]


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


def _feature_matrix(schema: QuestionnaireSchema, codes, counts, scores, high_threshold) -> FeatureMatrix:
    """The code-backed matrix of the option codes, which become their active
    columns in place, labelled from the counts it keeps. Viogen scores (-1 where a
    case has none) are kept only when every case has one."""
    codes += np.array([schema.offsets[q.question_id] for q in schema.questions], dtype=codes.dtype)
    has_scores = scores.size > 0 and bool((scores >= 0).all())
    return FeatureMatrix(None, risk_labels(counts, high_threshold),
                         viogen_scores=scores if has_scores else None, counts=counts,
                         codes=codes, width=schema.width)


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
    counts = np.array([rec.recidivism_count for rec in records])
    scores = np.array([-1 if rec.viogen_score is None else rec.viogen_score for rec in records],
                      dtype=np.int64)
    return _feature_matrix(schema, codes, counts, scores, high_threshold)


def decode_row(row: np.ndarray, schema: QuestionnaireSchema) -> dict:
    """Invert one encoded row back to a responses dict: each block's argmax is
    the question's option code, which `answer_cells` turns back into its answer."""
    codes = np.array([[np.argmax(row[start : start + q.width])
                       for q, start in zip(schema.questions, schema.offsets.values())]])
    cells = answer_cells(schema, codes, MISSING)
    return {q.question_id: column[0] for q, column in zip(schema.questions, cells)}


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


def kfold_indices(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold partition of n rows as (train, validation) row-index pairs:
    validation parts are disjoint, cover all rows, and differ in size by at
    most one row. Each train part lists the other rows in permutation order."""
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    perm = derive_rng(seed, "kfold").permutation(n)
    base, extra = divmod(n, k)
    folds, pos = [], 0
    for fold_idx in range(k):
        size = base + (1 if fold_idx < extra else 0)
        folds.append((np.concatenate([perm[:pos], perm[pos + size :]]), perm[pos : pos + size]))
        pos += size
    return folds


def kfold(matrix: FeatureMatrix, k: int, seed: int) -> list[tuple[FeatureMatrix, FeatureMatrix]]:
    """The parts of `kfold_indices` as matrices, every fold's copies at once;
    a caller that runs one fold at a time takes each fold's parts from the
    indices instead."""
    return [(matrix.take(t), matrix.take(v)) for t, v in kfold_indices(matrix.n_rows, k, seed)]


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


def table_blocks(path: str | Path, columns, extra_columns: bool = False):
    """Yield a table file's header as (header, line), then its rows in blocks
    of at most BLOCK_ROWS as (rows, lines), `lines[i]` the line on which
    `rows[i]` ends.

    `#` lines are comments only before the header. The header must equal
    `columns`, or start with them when `extra_columns` is set, and name each
    column once. Every row must have the header's width. A defect of the table
    raises ValueError("<path>:<line>: <what>") only after every row before it
    has been yielded, so a caller that checks each block as it comes names the
    first bad row. A caller that may stop early closes the generator
    (`contextlib.closing`), and with it the file.
    """
    with open(path, newline="") as fh:
        n_comments = 0
        for first in fh:
            if not first.startswith("#"):
                break
            n_comments += 1
        else:
            raise ValueError(f"{path}:{n_comments + 1}: no header row")
        # the reader's line_num counts lines from the header on, after the comments
        reader = csv.reader(itertools.chain((first,), fh))
        try:
            header = next(reader)
            if (header[: len(columns)] if extra_columns else header) != list(columns):
                wanted = ",".join(columns) + (",..." if extra_columns else "")
                raise ValueError(f"expected header {wanted}")
            if len(set(header)) != len(header):
                duplicates = sorted({name for name in header if header.count(name) > 1})
                raise ValueError(f"duplicate column(s) {', '.join(duplicates)}")
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{n_comments + reader.line_num}: {exc}") from None
        yield header, n_comments + reader.line_num
        width, n_rows = len(header), 0
        while True:
            rows, lines, broken = [], [], None
            try:
                for cells in itertools.islice(reader, BLOCK_ROWS):
                    rows.append(cells)
                    lines.append(n_comments + reader.line_num)
            except csv.Error as exc:  # raised once the rows before it are yielded
                broken = ValueError(f"{path}:{n_comments + reader.line_num}: {exc}")
            cut = next((i for i, cells in enumerate(rows) if len(cells) != width), len(rows))
            if cut:
                yield rows[:cut], lines[:cut]
            if cut < len(rows):
                raise ValueError(f"{path}:{lines[cut]}: expected {width} cells, found {len(rows[cut])}")
            if broken is not None:
                raise broken
            if not rows:
                break
            n_rows += len(rows)
        if not n_rows:
            raise ValueError(f"{path}:{n_comments + reader.line_num + 1}: no rows after the header")


def read_table(path: str | Path, columns, parse_row, extra_columns: bool = False) -> list:
    """Parse every row of a table file, streaming; returns the parsed rows.

    The file follows `table_blocks`' rules, and each row is turned into an
    item by `parse_row(header, cells)`. Any failure, including a ValueError
    from `parse_row`, raises ValueError("<path>:<line>: <what>").
    """
    items = []
    with closing(table_blocks(path, columns, extra_columns)) as table:
        header, _ = next(table)
        for rows, lines in table:
            for cells, line in zip(rows, lines):
                try:
                    items.append(parse_row(header, cells))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line}: {exc}") from None
    return items


def json_text(payload, indent: int | None = 2, sort_keys: bool = False) -> str:
    """The one JSON writer's text: `payload` and a newline. NaN and Infinity,
    which `read_json` refuses, raise ValueError here instead."""
    return json.dumps(payload, indent=indent, sort_keys=sort_keys, allow_nan=False) + "\n"


def read_json(path: str | Path, build):
    """Parse the JSON object in a file and return `build(payload)`.

    Every failure names the file: a syntax error raises
    ValueError("<path>:<line>: <msg>"), the non-standard constants NaN,
    Infinity and -Infinity, which Python's json would read as floats, raise
    ValueError("<path>: <constant> is not a JSON number"), any other value
    `json` refuses (an integer literal longer than Python's int digit limit)
    raises ValueError("<path>: <reason>"), a field `build`
    looks up and does not find raises ValueError("<path>: missing field
    '<name>'"), and a field of the wrong type or a value `build` rejects
    raises ValueError("<path>: ...").
    """
    def refuse(constant):
        raise ValueError(f"{constant} is not a JSON number")

    with open(path) as fh:
        try:
            payload = json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # a refused constant, or an integer past int's digit limit
            raise ValueError(f"{path}: {exc}") from None
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


def require_known_fields(payload: dict, known, owner: str) -> None:
    """Raise ValueError("unknown field(s) <names>; <owner> takes <known>")
    unless every key of a JSON object is one of `known`."""
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(unknown)}; {owner} takes {', '.join(known)}")


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


def finite_float(value, message: str):
    """A number, or nested lists of numbers, that `require_type` accepted as
    floats, converted: a float, or a float64 array for lists. Raises
    ValueError(message) unless every value is finite; an int beyond the float
    range is not, and fails here, not with an OverflowError."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(message) from None
    if not np.isfinite(array).all():
        raise ValueError(message)
    return array if array.ndim else float(array)


CASE_FIELDS = ("case_id", "recidivism_count", "viogen_score")


def write_cases(
    path: str | Path,
    records: list[CaseRecord],
    schema: QuestionnaireSchema,
    manifest: str | None = None,
) -> None:
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


def _case_cells(case_id: str, count: str, score: str, seen: set) -> tuple:
    """The one rule for a case-file row's id, count and score cells: an id not
    in `seen`, which it then joins; a count of one or more ASCII digits; a
    score that is blank or ASCII digits of value at most 4. Returns the count
    and the score, None where blank."""
    if case_id in seen:
        raise ValueError(f"duplicate case id {case_id!r}")
    if not (count.isascii() and count.isdigit()):
        raise ValueError(f"case {case_id!r}: recidivism_count must be digits 0-9, got {count!r}")
    if score and not (score.isascii() and score.isdigit() and int(score) <= 4):
        raise ValueError(f"case {case_id!r}: viogen_score must be blank or 0..4, got {score!r}")
    seen.add(case_id)
    return int(count), int(score) if score else None


def read_cases(path: str | Path) -> list[CaseRecord]:
    seen = set()

    def parse_row(header, cells):
        count, score = _case_cells(*cells[:3], seen)
        responses = {qid: (MISSING if cell == "" else cell) for qid, cell in zip(header[3:], cells[3:])}
        return CaseRecord(cells[0], responses, count, score)

    return read_table(path, CASE_FIELDS, parse_row, extra_columns=True)


def read_case_matrix(
    path: str | Path,
    schema: QuestionnaireSchema,
    high_threshold: int = 3,
) -> FeatureMatrix:
    """Read a case file column by column straight into its encoded matrix.

    The result equals `encode_cases(read_cases(path), schema, high_threshold)`,
    and every check of that path is kept, but no record is built: each block
    of rows is transposed into columns, checked column by column, and kept
    only as its (n, Q) option codes, counts and scores. A header that names
    an unknown question, or lacks one that does not allow missing answers,
    fails at the header's line; otherwise the first bad row fails at its line.
    A row's id, count and score follow `read_cases`' one rule, `_case_cells`.
    """
    require_file_options(schema)
    seen, blocks = set(), []
    with closing(table_blocks(path, CASE_FIELDS, extra_columns=True)) as table:
        header, line = next(table)
        unknown = [name for name in header[3:] if name not in schema.by_id]
        if unknown:
            raise ValueError(f"{path}:{line}: unknown question column(s) {unknown!r}")
        where = {name: j for j, name in enumerate(header)}
        absent = [q.question_id for q in schema.questions
                  if q.question_id not in where and not q.allows_missing]
        if absent:
            raise ValueError(f"{path}:{line}: no column for question(s) {absent!r}, "
                             "which need an answer")
        positions = [where.get(q.question_id) for q in schema.questions]
        for rows, lines in table:
            columns = list(zip(*rows))
            answers = [("",) * len(rows) if j is None else columns[j] for j in positions]
            codes = _encode_answers(schema, len(rows), answers, "")
            bad_answer = _first_bad_answer(schema, codes, answers, "")
            if bad_answer is not None:
                row, what = bad_answer
                bad_answer = row, f"case {columns[0][row]!r}: {what}"
            parsed, bad_record = [], None
            for i, cells in enumerate(rows):
                try:
                    parsed.append(_case_cells(*cells[:3], seen))
                except ValueError as exc:
                    bad_record = i, exc
                    break
            failure = _first_failure(bad_record, bad_answer)
            if failure is not None:
                row, what = failure
                raise ValueError(f"{path}:{lines[row]}: {what}")
            counts, scores = zip(*parsed)
            blocks.append((codes, np.array(counts),
                           np.array([-1 if score is None else score for score in scores])))
    codes, counts, scores = (np.concatenate(parts) for parts in zip(*blocks))
    return _feature_matrix(schema, codes, counts, scores, high_threshold)


def write_schema(path: str | Path, schema: QuestionnaireSchema) -> None:
    Path(path).write_text(json_text(schema.to_json()))


def read_schema(path: str | Path) -> QuestionnaireSchema:
    return read_json(path, QuestionnaireSchema.from_json)
