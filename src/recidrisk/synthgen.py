"""Synthetic questionnaire corpora with planted class structure.

Every case is drawn by (1) sampling a latent respondent profile from the
mixture, (2) sampling each question's response from that profile's
per-question distribution, with unanswered responses injected at a global
rate, and (3) sampling the follow-up count from the profile's rate (Poisson,
or negative binomial when over-dispersion is configured).

Generation is chunked with per-chunk derived seeds, so the corpus is a pure
function of the config no matter how the index range is partitioned across
workers.

The draws land in columns: one option code per (case, question) and one
count per case (`generate_codes`). The CLI scores those codes
(`code_scores`) and writes the case file from them (`write_case_codes`)
without a record per case; `generate` and the record functions
(`assess_cases`, `attach_viogen_scores`, `score_thresholds`) give the same
cases as `CaseRecord`s, for library use and as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import classify_scores, score_responses
from .dataset import (
    CASE_FIELDS,
    MISSING,
    CaseRecord,
    Question,
    QuestionnaireSchema,
    answer_cells,
    code_dtype,
    json_text,
    read_json,
    require_file_options,
    require_known_fields,
    require_type,
    write_table,
)
from .seeding import derive_rng

CHUNK_SIZE = 1024  # atomic generation unit; fixed so output is worker-independent


@dataclass(frozen=True)
class ResponseProfile:
    """One mixture component: response tendencies plus a recidivism rate."""

    name: str
    weight: float
    response_dists: dict  # question_id -> tuple of option probabilities
    recidivism_rate: float

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"profile {self.name!r}: weight must be positive")
        if not np.isfinite(self.recidivism_rate) or self.recidivism_rate < 0:
            raise ValueError(f"profile {self.name!r}: recidivism_rate must be finite and >= 0")


@dataclass(frozen=True)
class GeneratorConfig:
    n_cases: int
    schema: QuestionnaireSchema
    profiles: tuple[ResponseProfile, ...]
    missing_rate: float = 0.0
    seed: int = 0
    dispersion: float | None = None  # negative-binomial shape; None keeps Poisson counts

    def __post_init__(self):
        if self.n_cases <= 0:
            raise ValueError("n_cases must be positive")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        if not self.profiles:
            raise ValueError("need at least one profile")
        total = sum(p.weight for p in self.profiles)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"profile weights must sum to 1, got {total}")
        if self.dispersion is not None and not 0 < self.dispersion < np.inf:
            raise ValueError("dispersion must be positive and finite when set")
        for profile in self.profiles:
            strays = sorted(profile.response_dists.keys() - self.schema.by_id.keys())
            if strays:
                raise ValueError(f"profile {profile.name!r}: response_dists names no question "
                                 f"of the schema: {', '.join(map(str, strays))}")
            for q in self.schema.questions:
                dist = profile.response_dists.get(q.question_id)
                if dist is None:
                    raise ValueError(
                        f"profile {profile.name!r} has no distribution for {q.question_id!r}"
                    )
                dist = np.asarray(dist, dtype=np.float64)
                if dist.shape != (len(q.options),) or (dist < 0).any():
                    raise ValueError(
                        f"profile {profile.name!r}, question {q.question_id!r}: "
                        f"distribution must be {len(q.options)} non-negative probabilities"
                    )
                if abs(dist.sum() - 1.0) > 1e-9:
                    raise ValueError(
                        f"profile {profile.name!r}, question {q.question_id!r}: "
                        "probabilities must sum to 1"
                    )


def generate(config: GeneratorConfig) -> list[CaseRecord]:
    """Draw the full corpus for the config, deterministically in its seed: the
    records of `generate_codes`' codes and counts."""
    codes, counts = generate_codes(config)
    question_ids = [q.question_id for q in config.schema.questions]
    return [CaseRecord(case_id, dict(zip(question_ids, row)), count)
            for case_id, count, *row in zip(_case_ids(len(counts)), counts.tolist(),
                                            *answer_cells(config.schema, codes, MISSING))]


def generate_codes(config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """The corpus of the config, as columns: the (n, Q) option codes of
    `dataset`'s convention, in its `code_dtype`, and the n follow-up counts.

    A case's code for a question is the index of its answer among the
    question's options, and `len(options)` marks an unanswered question.
    Case i is `case-<i>`, zero-padded to six digits.
    """
    chunks = [_chunk_codes(config, start, min(start + CHUNK_SIZE, config.n_cases))
              for start in range(0, config.n_cases, CHUNK_SIZE)]
    codes, counts = zip(*chunks)
    return np.concatenate(codes), np.concatenate(counts)


def _chunk_codes(config: GeneratorConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    rng = derive_rng(config.seed, "cases", start // CHUNK_SIZE)
    m = stop - start
    weights = np.array([p.weight for p in config.profiles])
    profile_idx = rng.choice(len(config.profiles), size=m, p=weights / weights.sum())

    # Per question: option draw for every row, then the missing overlay, which
    # points a row past the options.
    codes = np.empty((m, len(config.schema.questions)), dtype=code_dtype(config.schema))
    for j, q in enumerate(config.schema.questions):
        cdfs = np.cumsum(
            [np.asarray(p.response_dists[q.question_id], dtype=np.float64) for p in config.profiles],
            axis=1,
        )
        u = rng.random(m)
        codes[:, j] = np.minimum((u[:, None] > cdfs[profile_idx]).sum(axis=1), len(q.options) - 1)
        if q.allows_missing and config.missing_rate > 0:
            codes[rng.random(m) < config.missing_rate, j] = len(q.options)

    rates = np.array([p.recidivism_rate for p in config.profiles])[profile_idx]
    if config.dispersion is None:
        counts = rng.poisson(rates)
    else:
        # mean rate with variance rate + rate^2 / dispersion
        p_success = config.dispersion / (config.dispersion + rates)
        counts = rng.negative_binomial(config.dispersion, p_success)
    return codes, counts


def _case_ids(n: int) -> list[str]:
    return [f"case-{i:06d}" for i in range(n)]


def code_scores(schema: QuestionnaireSchema, codes: np.ndarray, weights: dict) -> np.ndarray:
    """The weighted score of every case, from its option codes.

    `weights` maps (question_id, option) to a weight and must cover every
    option of the schema. Each question adds its weight vector indexed by
    the codes, in schema order, and an unanswered question adds 0.0, so each
    score is bit-equal to `score_responses` of the case's record.
    """
    scores = np.zeros(codes.shape[0])
    for j, q in enumerate(schema.questions):
        try:
            table = [weights[(q.question_id, option)] for option in q.options]
        except KeyError as exc:
            raise KeyError(f"no scoring weight for question {q.question_id!r} "
                           f"option {exc.args[0][1]!r}") from None
        scores += np.array([*table, 0.0], dtype=np.float64)[codes[:, j]]
    return scores


def write_case_codes(path: str | Path, schema: QuestionnaireSchema, codes: np.ndarray,
                     counts: np.ndarray, classes: np.ndarray | None = None,
                     manifest: str | None = None) -> None:
    """Write the cases of `generate_codes` as a case file, with `classes` as
    their viogen scores: the bytes `write_cases` writes for the same records,
    built column by column through the one table writer."""
    require_file_options(schema)
    n = len(counts)
    columns = [_case_ids(n), counts.tolist(), [""] * n if classes is None else classes.tolist(),
               *answer_cells(schema, codes, "")]
    write_table(path, CASE_FIELDS + tuple(q.question_id for q in schema.questions), zip(*columns),
                manifest)


def attach_viogen_scores(records, weights: dict, thresholds) -> list[CaseRecord]:
    """Return records with the five-class weighted-score assessment filled in.

    The score is the weighted sum of each case's answered responses; its class
    is the number of thresholds strictly below the score. Every answered
    (question, option) pair must have a weight.
    """
    return _with_classes(records, classify_scores(_scores(records, weights), thresholds))


def assess_cases(records, weights: dict) -> tuple[list[CaseRecord], tuple]:
    """Score every case once, cut the thresholds at the default class
    proportions, and return the records with their classes attached, and the
    thresholds: `attach_viogen_scores(records, weights, score_thresholds(records,
    weights))` without the second scoring pass."""
    scores = _scores(records, weights)
    thresholds = thresholds_from_quantiles(scores)
    return _with_classes(records, classify_scores(scores, thresholds)), thresholds


def _scores(records, weights: dict) -> np.ndarray:
    return np.fromiter((score_responses(rec.responses, weights) for rec in records), np.float64,
                       len(records))


def _with_classes(records, classes: np.ndarray) -> list[CaseRecord]:
    return [CaseRecord(rec.case_id, rec.responses, rec.recidivism_count, viogen_class)
            for rec, viogen_class in zip(records, classes.tolist())]


def severity_weights(schema: QuestionnaireSchema) -> dict:
    """Monotone default weights: option position normalized to [0, 1] per question."""
    weights = {}
    for q in schema.questions:
        span = len(q.options) - 1
        for j, option in enumerate(q.options):
            weights[(q.question_id, option)] = j / span
    return weights


def thresholds_from_quantiles(scores, proportions=(0.49, 0.41, 0.10, 0.007, 0.0001)) -> tuple:
    """Cut thresholds so the five class proportions approximate the targets.

    Thresholds are empirical quantiles at the cumulative target proportions,
    nudged upward minimally if the score distribution is too concentrated to
    keep them strictly ascending (which may leave upper classes empty).
    """
    proportions = np.asarray(proportions, dtype=np.float64)
    if proportions.shape != (5,) or (proportions <= 0).any():
        raise ValueError("need 5 positive class proportions")
    cumulative = np.cumsum(proportions / proportions.sum())[:4]
    thresholds = list(np.quantile(np.asarray(scores, dtype=np.float64), cumulative))
    for i in range(1, 4):
        if thresholds[i] <= thresholds[i - 1]:
            thresholds[i] = float(np.nextafter(thresholds[i - 1], np.inf))
    return tuple(thresholds)


def score_thresholds(records, weights: dict) -> tuple:
    """Thresholds cutting the records' weighted scores at the default class proportions."""
    return thresholds_from_quantiles(_scores(records, weights))


# ---------------------------------------------------------------------------
# Shipped defaults: a 58-question schema spanning exactly 250 encoded columns
# (30 binary + 8 four-level + 20 five-level questions, all allowing missing:
# 30*3 + 8*5 + 20*6 = 250) and a three-profile demo mixture.

_BINARY = ("no", "yes")
_FOUR_LEVEL = ("0", "1", "2", "3")
_FIVE_LEVEL = ("0", "1", "2", "3", "4")


def default_schema() -> QuestionnaireSchema:
    questions = []
    for i in range(30):
        questions.append(Question(f"q{i + 1:02d}", _BINARY, allows_missing=True))
    for i in range(8):
        questions.append(Question(f"q{i + 31:02d}", _FOUR_LEVEL, allows_missing=True))
    for i in range(20):
        questions.append(Question(f"q{i + 39:02d}", _FIVE_LEVEL, allows_missing=True))
    return QuestionnaireSchema(tuple(questions))


def _profile_dist(n_options: int, modal: int, separation: float) -> tuple:
    uniform = 1.0 / n_options
    modal_mass = uniform + separation * (1.0 - uniform)
    rest = (1.0 - modal_mass) / (n_options - 1)
    dist = [rest] * n_options
    dist[modal] = modal_mass
    return tuple(dist)


def demo_profiles(
    schema: QuestionnaireSchema,
    separation: float = 0.35,
    rates: tuple = (0.05, 1.4, 5.0),
    weights: tuple = (0.5, 0.3, 0.2),
) -> tuple[ResponseProfile, ...]:
    """Three planted profiles ordered by escalating recidivism rate.

    Profile 0 leans to the mildest response, profile 2 to the most severe,
    profile 1 sits in between; every third question is uninformative (shared
    uniform distribution) so feature selection has something to prune.
    """
    if not 0.0 <= separation <= 1.0:
        raise ValueError("separation must lie in [0, 1]")
    names = ("rare", "episodic", "persistent")
    profiles = []
    for k, name in enumerate(names):
        dists = {}
        for q_idx, q in enumerate(schema.questions):
            n_opts = len(q.options)
            if q_idx % 3 == 2:
                dists[q.question_id] = (1.0 / n_opts,) * n_opts
                continue
            if k == 0:
                modal = 0
            elif k == 2:
                modal = n_opts - 1
            else:
                modal = (n_opts - 1) // 2 if n_opts > 2 else q_idx % 2
            dists[q.question_id] = _profile_dist(n_opts, modal, separation)
        profiles.append(ResponseProfile(name, weights[k], dists, rates[k]))
    return tuple(profiles)


DEMO_SEED = 20240


def demo_config(n_cases: int = 20000, seed: int = DEMO_SEED, separation: float = 0.35) -> GeneratorConfig:
    schema = default_schema()
    return GeneratorConfig(
        n_cases=n_cases,
        schema=schema,
        profiles=demo_profiles(schema, separation=separation),
        missing_rate=0.03,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Config file round-trip.

def config_to_json(config: GeneratorConfig) -> dict:
    return {
        "n_cases": config.n_cases,
        "schema": config.schema.to_json(),
        "profiles": [
            {
                "name": p.name,
                "weight": p.weight,
                "recidivism_rate": p.recidivism_rate,
                "response_dists": {qid: list(dist) for qid, dist in p.response_dists.items()},
            }
            for p in config.profiles
        ],
        "missing_rate": config.missing_rate,
        "seed": config.seed,
        "dispersion": config.dispersion,
    }


def config_from_json(payload: dict) -> GeneratorConfig:
    require_known_fields(payload, ("n_cases", "schema", "profiles", "missing_rate", "seed",
                                   "dispersion", "manifest"), "a generator config")
    schema = QuestionnaireSchema.from_json(payload["schema"])
    profiles = tuple(_profile_from_json(number, item)
                     for number, item in enumerate(payload["profiles"], 1))
    scalars = {"n_cases": payload["n_cases"], "missing_rate": payload.get("missing_rate", 0.0),
               "seed": payload.get("seed", 0), "dispersion": payload.get("dispersion")}
    for name, annotation in (("n_cases", int), ("missing_rate", float), ("seed", int),
                             ("dispersion", float | None)):
        require_type(f"field '{name}'", scalars[name], annotation)
    return GeneratorConfig(schema=schema, profiles=profiles, **scalars)


def _profile_from_json(number: int, item: dict) -> ResponseProfile:
    require_type(f"profile {number}: field 'name'", item["name"], str)
    what = f"profile {item['name']!r}"
    require_known_fields(item, ("name", "weight", "recidivism_rate", "response_dists"), what)
    for name, annotation in (("weight", float), ("recidivism_rate", float), ("response_dists", dict)):
        require_type(f"{what}: field '{name}'", item[name], annotation)
    for qid, dist in item["response_dists"].items():
        require_type(f"{what}, question {qid!r}: field 'response_dists'", dist, list[float])
    return ResponseProfile(
        name=item["name"],
        weight=item["weight"],
        response_dists={qid: tuple(dist) for qid, dist in item["response_dists"].items()},
        recidivism_rate=item["recidivism_rate"],
    )


def write_config(path: str | Path, config: GeneratorConfig) -> None:
    Path(path).write_text(json_text(config_to_json(config)))


def read_config(path: str | Path) -> GeneratorConfig:
    return read_json(path, config_from_json)
