import pytest

from recidrisk.dataset import SplitSpec, encode_cases, split
from recidrisk.synthgen import assess_cases, demo_config, generate, severity_weights


@pytest.fixture(scope="session")
def small_corpus():
    """1,500-case demo-style corpus with attached baseline scores."""
    config = demo_config(n_cases=1500, seed=424)
    records = generate(config)
    weights = severity_weights(config.schema)
    records, _ = assess_cases(records, weights)
    return config, records


@pytest.fixture(scope="session")
def small_matrix(small_corpus):
    config, records = small_corpus
    return encode_cases(records, config.schema)


@pytest.fixture(scope="session")
def small_split(small_matrix):
    return split(small_matrix, SplitSpec(0.67, seed=31))
