"""Schema, encoding, labeling and split behavior."""

import dataclasses
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recidrisk import dataset
from recidrisk.dataset import (
    BLOCK_ROWS,
    MISSING,
    CaseRecord,
    EncodingError,
    Question,
    QuestionnaireSchema,
    RiskLabel,
    SplitSpec,
    answer_cells,
    decode_row,
    encode_cases,
    kfold,
    kfold_indices,
    read_case_matrix,
    read_cases,
    read_schema,
    risk_labels,
    split,
    top_label,
    write_cases,
    write_schema,
)
from recidrisk.hybrid import SWEEP_COLUMNS, read_sweep
from recidrisk.synthgen import default_schema, demo_config, generate, write_case_codes


def one_question_schema(allows_missing=False):
    return QuestionnaireSchema((Question("q1", ("A", "B"), allows_missing=allows_missing),))


def test_encode_one_hot_identity():
    schema = one_question_schema()
    matrix = encode_cases([CaseRecord("c1", {"q1": "A"}, 0)], schema)
    assert matrix.values.tolist() == [[1.0, 0.0]]


def test_encode_missing_indicator_column():
    schema = one_question_schema(allows_missing=True)
    matrix = encode_cases([CaseRecord("c1", {"q1": MISSING}, 0)], schema)
    assert matrix.values.tolist() == [[0.0, 0.0, 1.0]]


def test_encode_default_schema_width_250():
    schema = default_schema()
    assert len(schema.questions) == 58
    assert schema.width == 250
    responses = {q.question_id: q.options[0] for q in schema.questions}
    matrix = encode_cases([CaseRecord("c1", responses, 0)], schema)
    assert matrix.width == 250
    assert matrix.values.sum() == 58  # one active column per question


def test_encode_block_sums_to_one():
    config = demo_config(n_cases=300, seed=5)
    matrix = encode_cases(generate(config), config.schema)
    for q in config.schema.questions:
        start = config.schema.offsets[q.question_id]
        block = matrix.values[:, start : start + q.width]
        assert (block.sum(axis=1) == 1.0).all()


def test_encode_rejects_unknown_question_and_option():
    schema = one_question_schema()
    with pytest.raises(EncodingError, match="q9"):
        encode_cases([CaseRecord("c1", {"q1": "A", "q9": "A"}, 0)], schema)
    with pytest.raises(EncodingError, match="option"):
        encode_cases([CaseRecord("c1", {"q1": "Z"}, 0)], schema)


def test_encode_rejects_missing_where_not_allowed():
    schema = one_question_schema(allows_missing=False)
    with pytest.raises(EncodingError, match="missing"):
        encode_cases([CaseRecord("c1", {"q1": MISSING}, 0)], schema)


def test_decode_round_trip_including_missing():
    config = demo_config(n_cases=200, seed=9)
    records = generate(config)
    matrix = encode_cases(records, config.schema)
    for i, rec in enumerate(records[:50]):
        assert decode_row(matrix.values[i], config.schema) == rec.responses


@st.composite
def schemas_with_cases(draw):
    """A random schema and cases answering it; a missing answer is either an
    absent key or an explicit MISSING, where the question allows it."""
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
    schema = QuestionnaireSchema(tuple(
        Question(qid, tuple(draw(st.lists(st.text(max_size=3), min_size=2, max_size=5, unique=True))),
                 allows_missing=draw(st.booleans()))
        for qid in ids
    ))
    records = []
    for c in range(draw(st.integers(1, 5))):
        responses = {}
        for q in schema.questions:
            answer = draw(st.sampled_from(q.options + ((MISSING,) if q.allows_missing else ())))
            if answer is not MISSING or draw(st.booleans()):
                responses[q.question_id] = answer
        records.append(CaseRecord(f"c{c}", responses, 0))
    return schema, records


@settings(max_examples=100, deadline=None)
@given(schemas_with_cases())
def test_encode_decode_round_trip_property(problem):
    schema, records = problem
    matrix = encode_cases(records, schema)
    for row, rec in zip(matrix.values, records):
        expected = {q.question_id: rec.responses.get(q.question_id, MISSING)
                    for q in schema.questions}
        assert decode_row(row, schema) == expected


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([MISSING, ""]))
def test_answer_cells_inverts_encode_answers(data, missing):
    # "" is a plain option only where None, not "", marks an unanswered question
    option = st.text(min_size=0 if missing is MISSING else 1, max_size=3)
    schema = QuestionnaireSchema(tuple(
        Question(f"q{j}", tuple(data.draw(st.lists(option, min_size=2, max_size=5, unique=True))),
                 allows_missing=data.draw(st.booleans()))
        for j in range(data.draw(st.integers(1, 5)))))
    n = data.draw(st.integers(0, 6))
    answers = [data.draw(st.lists(st.sampled_from(q.options + ((missing,) if q.allows_missing else ())),
                                  min_size=n, max_size=n))
               for q in schema.questions]
    codes = dataset._encode_answers(schema, n, answers, missing)
    assert codes.dtype == dataset.code_dtype(schema) and (codes >= 0).all()
    assert answer_cells(schema, codes, missing) == answers


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=12))
def test_top_label_is_highest_tied_maximum(rows):
    # small counts make ties common; the oracle scans the labels directly
    expected = [max(label for label in range(3) if row[label] == max(row)) for row in rows]
    assert top_label(np.array(rows)).tolist() == expected
    assert top_label(np.array(rows[0])).tolist() == expected[:1]


def label_from_recidivism(count: int, high_threshold: int = 3) -> RiskLabel:
    """The risk label of one follow-up count, by the `risk_labels` rule."""
    return RiskLabel(int(risk_labels(count, high_threshold)))


def test_label_examples():
    assert label_from_recidivism(0) is RiskLabel.NO
    assert label_from_recidivism(2) is RiskLabel.LOW
    assert label_from_recidivism(3) is RiskLabel.HIGH


def test_label_monotone_and_threshold():
    for threshold in (2, 3, 4, 5):
        labels = [label_from_recidivism(c, threshold) for c in range(12)]
        assert labels == sorted(labels)
        assert labels[0] is RiskLabel.NO
        assert labels[threshold - 1] is RiskLabel.LOW
        assert labels[threshold] is RiskLabel.HIGH
    with pytest.raises(ValueError):
        label_from_recidivism(0, high_threshold=1)


def _random_matrix(n, width=4, seed=0):
    rng = np.random.default_rng(seed)
    values = np.zeros((n, width))
    values[np.arange(n), rng.integers(0, width, n)] = 1.0
    return encode_matrix(values, rng.integers(0, 3, n))


def encode_matrix(values, labels):
    from recidrisk.dataset import FeatureMatrix

    return FeatureMatrix(values, labels)


def test_split_sizes_67_33():
    train, test = split(_random_matrix(100), SplitSpec(0.67, seed=3))
    assert train.n_rows == 67
    assert test.n_rows == 33


def test_split_minimal_partition():
    train, test = split(_random_matrix(2), SplitSpec(0.5, seed=1))
    assert train.n_rows == 1 and test.n_rows == 1


def test_split_deterministic_and_partition():
    matrix = _random_matrix(53, seed=2)
    a_train, a_test = split(matrix, SplitSpec(0.67, seed=42))
    b_train, b_test = split(matrix, SplitSpec(0.67, seed=42))
    assert np.array_equal(a_train.values, b_train.values)
    assert np.array_equal(a_test.values, b_test.values)
    # row multiset is preserved
    joined = np.vstack([a_train.values, a_test.values])
    assert sorted(map(tuple, joined)) == sorted(map(tuple, matrix.values))


def test_split_round_half_up():
    train, test = split(_random_matrix(3), SplitSpec(0.5, seed=0))
    assert train.n_rows == 2 and test.n_rows == 1  # round(1.5) = 2


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split(_random_matrix(1), SplitSpec(0.5, seed=0))


def test_kfold_leave_one_out_shape():
    folds = kfold(_random_matrix(10), k=10, seed=0)
    assert len(folds) == 10
    assert all(val.n_rows == 1 for _, val in folds)


def test_kfold_103_by_10_sizes():
    folds = kfold(_random_matrix(103), k=10, seed=1)
    sizes = sorted(val.n_rows for _, val in folds)
    assert sizes == [10] * 7 + [11] * 3  # 103 = 10*10 + 3


def test_kfold_partition_property():
    for n, k in ((10, 2), (17, 5), (40, 7)):
        matrix = _random_matrix(n, seed=n)
        matrix = encode_matrix(np.eye(n), np.zeros(n, dtype=int))  # distinguishable rows
        folds = kfold(matrix, k, seed=3)
        seen = []
        for train, val in folds:
            assert train.n_rows + val.n_rows == n
            seen.extend(np.argmax(val.values, axis=1).tolist())
        assert sorted(seen) == list(range(n))


def test_parts_taken_from_kfold_indices_are_kfolds_parts():
    for n, k, seed in ((10, 10, 0), (103, 10, 1), (17, 5, 3)):
        rng = np.random.default_rng(n)
        matrix = dataclasses.replace(_random_matrix(n, seed=seed),
                                     viogen_scores=rng.integers(0, 5, n), counts=rng.integers(0, 9, n))
        indices = kfold_indices(n, k, seed)
        assert len(indices) == k
        for (train_idx, val_idx), parts in zip(indices, kfold(matrix, k, seed)):
            for part, idx in zip(parts, (train_idx, val_idx)):
                taken = matrix.take(idx)
                for field in ("values", "labels", "viogen_scores", "counts"):
                    assert np.array_equal(getattr(taken, field), getattr(part, field))


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        kfold(_random_matrix(5), k=6, seed=0)
    with pytest.raises(ValueError):
        kfold(_random_matrix(5), k=1, seed=0)


def rewrite_line(path, line, make_cells):
    """Replace (or append) one physical line of a table file with new cells."""
    rows = [text.split(",") for text in path.read_text().splitlines()]
    cells = make_cells(rows)
    rows[line - 1 : line] = [cells]
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


# Ids the csv layer must quote or keep apart from comment lines.
AWKWARD_IDS = ("#7", "a,b", 'say "hi"', "", " padded ", "two\nlines")

# name: (physical line rewritten, its new cells from the file's rows); the
# reader must name that line. Line 1 is the manifest comment, 2 the header.
BROKEN_CASE_FILES = {
    "row_cut_to_10_cells": (4, lambda rows: rows[3][:10]),
    "extra_cell": (5, lambda rows: rows[4] + ["x"]),
    "trailing_blank_line": (67, lambda rows: []),  # after the 64 rows
    "comment_after_header": (3, lambda rows: ["# note"]),
    "duplicate_question_column": (2, lambda rows: rows[1][:-1] + [rows[1][3]]),
    "duplicate_case_id": (5, lambda rows: rows[2][:1] + rows[4][1:]),
    "non_integer_count": (6, lambda rows: rows[5][:1] + ["1.5"] + rows[5][2:]),
    "non_integer_score": (7, lambda rows: rows[6][:2] + ["high"] + rows[6][3:]),
    # cells Python's int() accepts, which a case file does not
    "count_with_underscore": (8, lambda rows: rows[7][:1] + ["1_0"] + rows[7][2:]),
    "score_with_space": (9, lambda rows: rows[8][:2] + [" 2"] + rows[8][3:]),
    "count_with_plus": (10, lambda rows: rows[9][:1] + ["+3"] + rows[9][2:]),
    "count_in_arabic_indic_digits": (11, lambda rows: rows[10][:1] + ["\u0663"] + rows[10][2:]),
    # longer than the csv module's field size limit (131,072 characters): a csv.Error
    "cell_beyond_csv_field_limit": (7, lambda rows: rows[6][:3] + ["x" * 200_000] + rows[6][4:]),
}


@pytest.mark.parametrize("case", ["demo", "awkward_ids", *BROKEN_CASE_FILES])
def test_case_file_round_trip(tmp_path, case):
    config = demo_config(n_cases=64, seed=12)
    records = generate(config)
    if case == "awkward_ids":
        records = [dataclasses.replace(r, case_id=i) for r, i in zip(records, AWKWARD_IDS)]
    path = tmp_path / "cases.csv"
    write_cases(path, records, config.schema, manifest="manifest.json")
    if case in BROKEN_CASE_FILES:
        line, make_cells = BROKEN_CASE_FILES[case]
        rewrite_line(path, line, make_cells)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
            read_cases(path)
    else:
        assert read_cases(path) == records


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(st.sampled_from('#,"\r\n ') | st.characters(), max_size=8),
                min_size=1, max_size=6, unique=True))
@example(case_ids=["\ud800"])
def test_case_ids_round_trip(case_ids):
    schema = one_question_schema(allows_missing=True)
    records = [CaseRecord(cid, {"q1": "A"}, 0) for cid in case_ids]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.csv"
        if any(0xD800 <= ord(c) <= 0xDFFF for cid in case_ids for c in cid):
            # a lone surrogate is no text a UTF-8 file can hold: writing refuses it
            with pytest.raises(UnicodeEncodeError):
                write_cases(path, records, schema, manifest="manifest.json")
            return
        write_cases(path, records, schema, manifest="manifest.json")
        assert read_cases(path) == records


def assert_same_matrix(got, expected):
    assert got.values.dtype == expected.values.dtype and got.labels.dtype == expected.labels.dtype
    assert np.array_equal(got.values, expected.values)
    assert np.array_equal(got.labels, expected.labels)
    if expected.viogen_scores is None:
        assert got.viogen_scores is None
    else:
        assert got.viogen_scores.dtype == expected.viogen_scores.dtype
        assert np.array_equal(got.viogen_scores, expected.viogen_scores)


# cells the csv layer must quote: commas, quotes and line breaks
AWKWARD_TEXT = st.text(st.sampled_from('ab,"\n\r '), min_size=1, max_size=4)


@st.composite
def case_files(draw):
    """A schema, cases answering it, the questions the file's header lists (a
    permutation, omitting only questions that allow missing answers), a
    block size and a row count next to it, and a High threshold."""
    ids = draw(st.lists(st.sampled_from([f"q{i}" for i in range(6)]), min_size=1, max_size=5,
                        unique=True))
    schema = QuestionnaireSchema(tuple(
        Question(qid, tuple(draw(st.lists(AWKWARD_TEXT, min_size=2, max_size=4, unique=True))),
                 allows_missing=draw(st.booleans()))
        for qid in ids
    ))
    listed = draw(st.permutations(schema.questions))
    listed = [q for q in listed if not q.allows_missing or draw(st.booleans())]
    block_rows = draw(st.integers(2, 5))
    n = block_rows + draw(st.sampled_from((-1, 0, 1)))
    records = []
    for c in range(n):
        responses = {
            q.question_id: draw(st.sampled_from(q.options + ((MISSING,) if q.allows_missing else ())))
            for q in schema.questions
        }
        score = draw(st.none() | st.integers(0, 4))
        records.append(CaseRecord(f"c{c}", responses, draw(st.integers(0, 6)), score))
    if draw(st.booleans()):  # every case scored, so the matrix keeps its viogen scores
        records = [dataclasses.replace(r, viogen_score=r.viogen_score or 0) for r in records]
    return schema, QuestionnaireSchema(tuple(listed)), records, block_rows, draw(st.integers(2, 5))


@settings(max_examples=150, deadline=None)
@given(case_files())
def test_read_case_matrix_equals_the_record_path(problem):
    schema, file_schema, records, block_rows, high_threshold = problem
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.csv"
        write_cases(path, records, file_schema, manifest="manifest.json")
        expected = encode_cases(read_cases(path), schema, high_threshold)
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
            got = read_case_matrix(path, schema, high_threshold)
    assert_same_matrix(got, expected)


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_read_case_matrix_at_the_block_size(tmp_path, n):
    config = demo_config(n_cases=n, seed=13)
    path = tmp_path / "cases.csv"
    write_cases(path, generate(config), config.schema)
    assert_same_matrix(read_case_matrix(path, config.schema),
                       encode_cases(read_cases(path), config.schema))


@pytest.mark.parametrize("case", BROKEN_CASE_FILES)
def test_read_case_matrix_fails_where_read_cases_fails(tmp_path, case):
    config = demo_config(n_cases=64, seed=12)
    path = tmp_path / "cases.csv"
    write_cases(path, generate(config), config.schema, manifest="manifest.json")
    line, make_cells = BROKEN_CASE_FILES[case]
    rewrite_line(path, line, make_cells)
    with pytest.raises(ValueError) as expected:
        read_cases(path)
    for block_rows in (3, BLOCK_ROWS):
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows), pytest.raises(ValueError) as got:
            read_case_matrix(path, config.schema)
        assert str(got.value) == str(expected.value)


def test_a_bad_row_before_a_csv_error_in_its_block_is_named(tmp_path):
    config = demo_config(n_cases=64, seed=12)
    path = tmp_path / "cases.csv"
    write_cases(path, generate(config), config.schema, manifest="manifest.json")
    # a bad count on line 5, then a csv.Error on line 7 of the same block
    rewrite_line(path, *BROKEN_CASE_FILES["cell_beyond_csv_field_limit"])
    rewrite_line(path, 5, lambda rows: rows[4][:1] + ["1.5"] + rows[4][2:])
    for read in (read_cases, lambda path: read_case_matrix(path, config.schema)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: .* recidivism_count must be"):
            read(path)


def descriptors_on(path: Path) -> int:
    """How many of this process's open file descriptors point at `path`."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to list open descriptors")
    count = 0
    for fd in fds.iterdir():
        try:
            count += Path(os.readlink(fd)) == path
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return count


@pytest.mark.parametrize("reader", ["read_cases", "read_case_matrix_row", "read_case_matrix_header",
                                    "read_sweep"])
def test_a_failed_read_leaves_no_descriptor_open(tmp_path, reader):
    # each read fails in the reader's own check of a row or header the table layer yielded
    path = tmp_path / "table.csv"
    if reader == "read_sweep":  # the second row's mu does not exceed the first's
        path.write_text(",".join(SWEEP_COLUMNS) + "\n" + "0.5,0.1,0.0,0.1,0.1,police_resource,0.5,3\n" * 2)
        read = read_sweep
    else:
        config = demo_config(n_cases=64, seed=12)
        write_cases(path, generate(config), config.schema, manifest="manifest.json")
        rewrite_line(path, *BROKEN_CASE_FILES["duplicate_case_id"])
        schema = config.schema
        if reader == "read_case_matrix_header":  # the header names a question the schema lacks
            schema = QuestionnaireSchema(schema.questions[1:])
        read = read_cases if reader == "read_cases" else lambda path: read_case_matrix(path, schema)
    with pytest.raises(ValueError) as failure:
        read(path)
    assert failure.value.__traceback__ is not None  # still held, with the frames it passed through
    assert descriptors_on(path.resolve()) == 0


def test_an_empty_option_is_refused_where_a_schema_meets_a_file(tmp_path):
    # on file an empty cell means no answer: the option "" would read back as missing
    schema = QuestionnaireSchema((Question("q1", ("", "yes")),))
    records = [CaseRecord("c1", {"q1": ""}, 0)]
    assert encode_cases(records, schema).values.tolist() == [[1.0, 0.0, 0.0]]  # in memory, an option
    refusal = "^question 'q1': an option must not be empty; in a case file an empty cell means no answer$"
    path = tmp_path / "cases.csv"
    with pytest.raises(ValueError, match=refusal):
        write_cases(path, records, schema)
    assert not path.exists()
    with pytest.raises(ValueError, match=refusal):
        write_case_codes(path, schema, np.zeros((1, 1), dtype=np.int16), np.zeros(1, dtype=np.int64))
    assert not path.exists()
    path.write_text("case_id,recidivism_count,viogen_score,q1\nc1,0,,\n")
    with pytest.raises(ValueError, match=refusal):
        read_case_matrix(path, schema)
    schema_path = tmp_path / "schema.json"
    write_schema(schema_path, schema)
    with pytest.raises(ValueError, match=f"^{re.escape(str(schema_path))}: {refusal[1:]}"):
        read_schema(schema_path)


def test_schema_file_round_trip(tmp_path):
    schema = default_schema()
    path = tmp_path / "schema.json"
    write_schema(path, schema)
    assert read_schema(path) == schema


def test_schema_invariants():
    with pytest.raises(ValueError):
        Question("q1", ("A",))
    with pytest.raises(ValueError):
        QuestionnaireSchema((Question("q1", ("A", "B")), Question("q1", ("C", "D"))))
