"""Synthetic corpus generator: determinism, planted structure, score attachment."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from recidrisk.baseline import ViogenClass, classify_scores, score_responses
from recidrisk.dataset import (
    MISSING,
    CaseRecord,
    Question,
    QuestionnaireSchema,
    encode_cases,
    label_from_recidivism,
    write_cases,
)
from recidrisk.nearest_centroid import nc_fit
from recidrisk.synthgen import (
    CHUNK_SIZE,
    GeneratorConfig,
    ResponseProfile,
    _chunk_codes,
    assess_cases,
    attach_viogen_scores,
    code_scores,
    config_from_json,
    config_to_json,
    demo_config,
    demo_profiles,
    generate,
    generate_codes,
    read_config,
    score_thresholds,
    severity_weights,
    thresholds_from_quantiles,
    write_case_codes,
    write_config,
)


def tiny_schema():
    return QuestionnaireSchema(
        (Question("q1", ("a", "b"), True), Question("q2", ("x", "y", "z"), True))
    )


def uniform_profile(schema, name="p", weight=1.0, rate=0.0):
    dists = {
        q.question_id: (1.0 / len(q.options),) * len(q.options) for q in schema.questions
    }
    return ResponseProfile(name, weight, dists, rate)


def test_generate_deterministic():
    config = demo_config(n_cases=500, seed=77)
    assert generate(config) == generate(config)


def test_generate_differs_across_seeds():
    a = generate(demo_config(n_cases=400, seed=1))
    b = generate(demo_config(n_cases=400, seed=2))
    assert a != b


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3 * CHUNK_SIZE), n_other=st.integers(1, 3 * CHUNK_SIZE),
       missing_rate=st.sampled_from([0.0, 0.3]), dispersion=st.sampled_from([None, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_generate_is_chunk_prefix_stable(n, n_other, missing_rate, dispersion, seed):
    # chunks derive their own seeds: corpora of any two sizes share their common
    # full chunks, and the chunks can be drawn in any order
    schema = tiny_schema()
    profiles = (uniform_profile(schema, "a", 0.5, rate=0.4), uniform_profile(schema, "b", 0.5, rate=2.0))

    def config(n_cases):
        return GeneratorConfig(n_cases, schema, profiles, missing_rate, seed, dispersion)

    corpus = generate(config(n))
    shared = min(n, n_other) // CHUNK_SIZE * CHUNK_SIZE
    assert generate(config(n_other))[:shared] == corpus[:shared]
    starts = range(0, n, CHUNK_SIZE)
    chunks = {start: _chunk_codes(config(n), start, min(start + CHUNK_SIZE, n))
              for start in reversed(starts)}
    codes, counts = generate_codes(config(n))
    assert np.array_equal(np.concatenate([chunks[start][0] for start in starts]), codes)
    assert np.array_equal(np.concatenate([chunks[start][1] for start in starts]), counts)


def test_missing_rate_zero_has_no_missing():
    schema = tiny_schema()
    config = GeneratorConfig(300, schema, (uniform_profile(schema),), missing_rate=0.0, seed=4)
    for rec in generate(config):
        assert MISSING not in rec.responses.values()


def test_missing_rate_positive_injects_missing():
    schema = tiny_schema()
    config = GeneratorConfig(400, schema, (uniform_profile(schema),), missing_rate=0.4, seed=5)
    missing = sum(
        1 for rec in generate(config) for v in rec.responses.values() if v is MISSING
    )
    assert 0.3 < missing / (400 * 2) < 0.5


def test_zero_rate_profile_gives_all_no():
    schema = tiny_schema()
    config = GeneratorConfig(200, schema, (uniform_profile(schema, rate=0.0),), seed=6)
    for rec in generate(config):
        assert rec.recidivism_count == 0


def test_label_frequencies_match_poisson_tails():
    # three planted rates; empirical label shares vs exact Poisson band
    rates = (0.0, 1.5, 6.0)
    config = demo_config(n_cases=10000, seed=8)
    config = GeneratorConfig(
        n_cases=10000,
        schema=config.schema,
        profiles=demo_profiles(config.schema, separation=0.35, rates=rates,
                               weights=(1 / 3, 1 / 3, 1 / 3)),
        missing_rate=0.0,
        seed=8,
    )
    records = generate(config)
    labels = np.array([int(label_from_recidivism(r.recidivism_count)) for r in records])
    expected = np.zeros(3)
    for rate in rates:
        expected[0] += stats.poisson.cdf(0, rate) / 3
        expected[1] += (stats.poisson.cdf(2, rate) - stats.poisson.cdf(0, rate)) / 3
        expected[2] += stats.poisson.sf(2, rate) / 3
    observed = np.bincount(labels, minlength=3) / labels.size
    for cls in range(3):
        se = np.sqrt(expected[cls] * (1 - expected[cls]) / labels.size)
        assert abs(observed[cls] - expected[cls]) < 5 * se


def test_negative_binomial_counts_are_overdispersed():
    schema = tiny_schema()
    base = dict(n_cases=20000, schema=schema, profiles=(uniform_profile(schema, rate=3.0),),
                seed=9)
    poisson_counts = [r.recidivism_count for r in generate(GeneratorConfig(**base))]
    nb_counts = [r.recidivism_count for r in generate(GeneratorConfig(**base, dispersion=0.8))]
    assert abs(np.mean(nb_counts) - np.mean(poisson_counts)) < 0.2
    assert np.var(nb_counts) > 2.0 * np.var(poisson_counts)


def test_separability_dial_monotone_nc_accuracy():
    accuracies = []
    for separation in (0.1, 0.4, 0.8):
        config = demo_config(n_cases=1500, seed=10, separation=separation)
        matrix = encode_cases(generate(config), config.schema)
        train, holdout = matrix.take(np.arange(1000)), matrix.take(np.arange(1000, 1500))
        model = nc_fit(train)
        accuracies.append(float((model.predict(holdout.values) == holdout.labels).mean()))
    assert accuracies[0] <= accuracies[1] <= accuracies[2]


def test_invalid_configs_rejected_before_sampling():
    schema = tiny_schema()
    good = uniform_profile(schema)
    with pytest.raises(ValueError):
        GeneratorConfig(0, schema, (good,), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(10, schema, (good,), missing_rate=1.0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(10, schema, (uniform_profile(schema, weight=0.5),), seed=0)
    bad_dist = ResponseProfile("bad", 1.0, {"q1": (0.5, 0.5), "q2": (0.9, 0.1)}, 1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(10, schema, (bad_dist,), seed=0)
    for dispersion in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^dispersion must be positive and finite when set$"):
            GeneratorConfig(10, schema, (good,), seed=0, dispersion=dispersion)


def test_attach_viogen_zero_weights_class_zero():
    schema = tiny_schema()
    records = generate(GeneratorConfig(50, schema, (uniform_profile(schema),), seed=11))
    weights = {(q.question_id, o): 0.0 for q in schema.questions for o in q.options}
    scored = attach_viogen_scores(records, weights, (0.5, 1.5, 2.5, 3.5))
    assert all(r.viogen_score == 0 for r in scored)


def test_attach_viogen_binary_threshold_example():
    schema = QuestionnaireSchema((Question("q1", ("no", "yes"), True),))
    records = generate(GeneratorConfig(80, schema, (uniform_profile(schema),), seed=12))
    weights = {("q1", "yes"): 1.0, ("q1", "no"): 0.0}
    scored = attach_viogen_scores(records, weights, (0.5, 1.5, 2.5, 3.5))
    for rec in scored:
        if rec.responses["q1"] == "yes":
            assert rec.viogen_score == int(ViogenClass.LOW)
        else:
            assert rec.viogen_score == int(ViogenClass.NOT_APPRECIATED)


def test_demo_viogen_class_proportions():
    config = demo_config(n_cases=20000, seed=13)
    records = generate(config)
    weights = severity_weights(config.schema)
    thresholds = score_thresholds(records, weights)
    scored = attach_viogen_scores(records, weights, thresholds)
    shares = np.bincount([r.viogen_score for r in scored], minlength=5) / len(scored)
    targets = np.array([0.49, 0.41, 0.10, 0.007, 0.0001])
    targets = targets / targets.sum()
    # approximate by construction; the tiny upper classes may round away
    assert abs(shares[0] - targets[0]) < 0.02
    assert abs(shares[1] - targets[1]) < 0.02
    assert abs(shares[2] - targets[2]) < 0.02


def test_config_json_round_trip(tmp_path):
    config = demo_config(n_cases=100, seed=14)
    assert config_from_json(config_to_json(config)) == config
    path = tmp_path / "gen.json"
    write_config(path, config)
    assert read_config(path) == config


# options the csv layer must quote or keep as written: commas, quotes, spaces
OPTION_TEXT = st.text(st.sampled_from('ab," '), min_size=1, max_size=3)


@st.composite
def generator_configs(draw):
    """A small generator config around the chunk boundary, and a scoring weight
    for every (question, option) pair."""
    questions = tuple(
        Question(f"q{j}", tuple(draw(st.lists(OPTION_TEXT, min_size=2, max_size=4, unique=True))),
                 allows_missing=draw(st.booleans()))
        for j in range(draw(st.integers(1, 4)))
    )
    schema = QuestionnaireSchema(questions)

    def dist(n_options):
        mass = np.array(draw(st.lists(st.integers(0, 9), min_size=n_options, max_size=n_options)
                             .filter(any)), dtype=np.float64)
        return tuple((mass / mass.sum()).tolist())

    n_profiles = draw(st.integers(1, 2))
    profiles = tuple(
        ResponseProfile(f"p{k}", 1.0 / n_profiles,
                        {q.question_id: dist(len(q.options)) for q in questions},
                        draw(st.sampled_from([0.0, 0.7, 4.0])))
        for k in range(n_profiles)
    )
    config = GeneratorConfig(
        n_cases=draw(st.sampled_from([1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1])),
        schema=schema, profiles=profiles,
        missing_rate=draw(st.sampled_from([0.0, 0.25])), seed=draw(st.integers(0, 2**32 - 1)),
        dispersion=draw(st.sampled_from([None, 1.5])),
    )
    weights = {(q.question_id, option): draw(st.floats(-4, 4, allow_nan=False))
               for q in questions for option in q.options}
    return config, weights


@settings(max_examples=40, deadline=None)
@given(generator_configs())
def test_columnar_core_equals_the_record_path(problem):
    config, weights = problem
    schema = config.schema
    codes, counts = generate_codes(config)
    records = generate(config)
    # the records the codes stand for, built here case by case
    assert records == [
        CaseRecord(f"case-{i:06d}",
                   {q.question_id: MISSING if code == len(q.options) else q.options[code]
                    for q, code in zip(schema.questions, row.tolist())},
                   count)
        for i, (row, count) in enumerate(zip(codes, counts.tolist()))
    ]

    scores = code_scores(schema, codes, weights)
    oracle = np.array([score_responses(rec.responses, weights) for rec in records])
    assert scores.tobytes() == oracle.tobytes()  # bit-equal, signed zeros included

    with tempfile.TemporaryDirectory() as tmp:
        for viogen in (False, True):
            columnar, by_record = Path(tmp) / "columnar.csv", Path(tmp) / "records.csv"
            if viogen:
                thresholds = thresholds_from_quantiles(scores)
                assessed, expected_thresholds = assess_cases(records, weights)
                assert thresholds == expected_thresholds
                write_case_codes(columnar, schema, codes, counts,
                                 classify_scores(scores, thresholds), manifest="manifest.json")
                write_cases(by_record, assessed, schema, manifest="manifest.json")
            else:
                write_case_codes(columnar, schema, codes, counts, manifest="manifest.json")
                write_cases(by_record, records, schema, manifest="manifest.json")
            assert columnar.read_bytes() == by_record.read_bytes()


def test_code_scores_need_a_weight_for_every_option():
    schema = tiny_schema()
    codes, _ = generate_codes(GeneratorConfig(20, schema, (uniform_profile(schema),), seed=15))
    weights = {(q.question_id, o): 1.0 for q in schema.questions for o in q.options}
    del weights[("q2", "z")]
    with pytest.raises(KeyError, match="no scoring weight for question 'q2' option 'z'"):
        code_scores(schema, codes, weights)
