"""Acceptance suite: one test per criterion, one printed verdict line each.

Reference numbers reported for the original private corpus are documented in
the README but are not asserted here; everything below is property-based or
a qualitative reproduction on the shipped synthetic demo corpus.
"""

import itertools
import math
import time

import numpy as np
import pytest

from recidrisk.baseline import NAMED_RULE_SYSTEMS
from recidrisk.dataset import FeatureMatrix, SplitSpec, encode_cases, split
from recidrisk.experiments import (
    default_search_space,
    fit_model,
    grid_search,
    nc_fine_tune,
    write_result_table,
)
from recidrisk.hybrid import decide_mu, hybrid_sample, mu_sweep, resource_profile
from recidrisk.metrics import MetricSpec, class_scores, confusion, police_protection, police_resource
from recidrisk.nearest_centroid import nc_fit
from recidrisk.seeding import derive_rng, derive_seed
from recidrisk.synthgen import assess_cases, demo_config, generate, severity_weights

from oracles import evaluate_hybrid
from test_metrics import (
    brute_f1,
    brute_precision,
    brute_protection,
    brute_recall,
    brute_resource,
    brute_weighted_f1,
)
from test_nearest_centroid import brute_nc_predict


def _report(num: int, text: str) -> None:
    print(f"\n[PASS] criterion {num:02d}: {text}")


# ---------------------------------------------------------------------------
# Shared demo corpus (the shipped generator defaults: 3 profiles, n = 20,000).

@pytest.fixture(scope="module")
def demo_split():
    config = demo_config()
    records = generate(config)
    weights = severity_weights(config.schema)
    records, _ = assess_cases(records, weights)
    matrix = encode_cases(records, config.schema)
    return split(matrix, SplitSpec(0.67, seed=0))


@pytest.fixture(scope="module")
def demo_sources(demo_split):
    """f0 = cautious rule system, f1 = best-CV nearest centroid, on the test part."""
    train, test = demo_split
    tuning = nc_fine_tune(train, k=10, master_seed=202)
    best = tuning.best_config()
    model = fit_model(best, train, derive_seed(202, "acceptance-ml"))
    f0 = NAMED_RULE_SYSTEMS["cautious"].apply_many(test.viogen_scores)
    f1 = model.predict(test.values)
    return f0, f1, test.labels, best


def test_criterion_01_metric_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(9001)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        preds = rng.integers(0, 3, m).tolist()
        truths = rng.integers(0, 3, m).tolist()
        cm = confusion(preds, truths)
        scores = class_scores(cm)
        for label in (0, 1, 2):
            assert scores.precision[label] == brute_precision(preds, truths, label)
            assert scores.recall[label] == brute_recall(preds, truths, label)
            assert scores.f1[label] == brute_f1(preds, truths, label)
        assert abs(scores.weighted_f1 - brute_weighted_f1(preds, truths)) < 1e-15
        assert police_protection(cm) == brute_protection(preds, truths)
        for tau in (0.0, 0.5, 1.0, 5.0):
            assert police_resource(cm, tau) == brute_resource(preds, truths, tau)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"1000 random lists match the pair-counting oracle exactly ({elapsed:.2f}s)")


def test_criterion_02_analytic_metric_anchors():
    perfect = confusion([0, 1, 2, 1, 0, 2], [0, 1, 2, 1, 0, 2])
    assert police_protection(perfect) == 3.0
    overcautious = confusion([2] * 9, [0] * 9)
    for tau in (0.0, 0.5, 1.0, 5.0):
        assert police_resource(perfect, tau) == 0.0
        assert police_resource(overcautious, tau) == 0.5
    _report(2, "perfect -> protection 3.0, resource 0; all-High vs all-No -> 0.5 exactly")


def test_criterion_03_hybrid_endpoints_bit_exact():
    rng = np.random.default_rng(777)
    f0 = rng.integers(0, 3, 10000)
    f1 = rng.integers(0, 3, 10000)
    for seed in (0, 1, 12345, 2**40):
        assert np.array_equal(hybrid_sample(f0, f1, 0.0, derive_rng(seed)), f0)
        assert np.array_equal(hybrid_sample(f0, f1, 1.0, derive_rng(seed)), f1)
    _report(3, "mu=0 reproduces f0 and mu=1 reproduces f1 on 10,000 pairs, several seeds")


def test_criterion_04_hybrid_mean_interpolation():
    start = time.monotonic()
    n = 100000
    for f0, f1 in itertools.product((0, 1, 2), repeat=2):
        for mu in (0.25, 0.5, 0.75):
            rng = derive_rng(4004, f0, f1)
            draws = hybrid_sample(np.full(n, f0), np.full(n, f1), mu, rng)
            expected = f0 + mu * (f1 - f0)
            se = abs(f1 - f0) * math.sqrt(mu * (1 - mu)) / math.sqrt(n)
            assert abs(draws.mean() - expected) <= max(4 * se, 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(4, f"empirical means within 4 SE of f0 + mu*(f1-f0) on all 27 combos ({elapsed:.2f}s)")


def test_criterion_05_hybrid_exhaustive_oracle():
    f0 = [0, 0, 2]
    f1 = [2, 2, 0]
    truths = [0, 2, 1]
    mu = 0.5

    def pmf(steps, n):
        return math.comb(n, steps) * mu**steps * (1 - mu) ** (n - steps)

    exact = 0.0
    for combo in itertools.product(range(3), repeat=3):  # steps per case, |rho| = 2
        labels = [f0[i] + int(np.sign(f1[i] - f0[i])) * combo[i] for i in range(3)]
        prob = math.prod(pmf(s, 2) for s in combo)
        exact += prob * police_protection(confusion(labels, truths))
    est = evaluate_hybrid(f0, f1, truths, mu, MetricSpec("police_protection"),
                          n_runs=10000, master_seed=505)
    se = est.std / math.sqrt(est.n_runs)
    assert abs(est.mean - exact) < 4 * se
    _report(5, f"Monte Carlo mean {est.mean:.4f} within 4 SE of enumerated {exact:.4f}")


def test_criterion_06_nc_equivalence():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(4, 101))
        d = int(rng.integers(1, 21))
        X = rng.random((n, d))
        y = rng.integers(0, 3, n)
        model = nc_fit((X, y))
        queries = rng.random((10, d))
        preds = model.predict(queries)
        for q, pred in zip(queries, preds):
            assert pred == brute_nc_predict(X, y, q, classes=model.classes.tolist())
        if (np.bincount(y, minlength=3)[np.unique(y)] >= 2).all():
            zero = nc_fit((X, y), shrink_threshold=0.0)
            assert np.abs(zero.shrunken_centroids - zero.centroids).max() < 1e-12
    _report(6, "100 random datasets match the class-mean linear-scan oracle on every query")


def test_criterion_07_shrinkage_monotonicity():
    rng = np.random.default_rng(707)
    X = rng.random((90, 15))
    y = rng.integers(0, 3, 90)
    selected = {
        delta: set(np.nonzero(nc_fit((X, y), shrink_threshold=delta).selected_features())[0])
        for delta in (0.0, 0.1, 1.0)
    }
    assert selected[1.0] <= selected[0.1] <= selected[0.0]
    assert len(selected[1.0]) < len(selected[0.0])  # the dial actually prunes
    _report(7, f"nonzero-offset features nest: {len(selected[1.0])} in {len(selected[0.1])} "
               f"in {len(selected[0.0])}")


def test_criterion_08_rule_system_lock():
    expected = {
        "lax": (0, 0, 1, 1, 2),
        "medium_lax": (0, 1, 1, 1, 2),
        "medium_cautious": (0, 0, 1, 2, 2),
        "cautious": (0, 1, 1, 2, 2),
    }
    assert set(NAMED_RULE_SYSTEMS) == set(expected)
    for name, cells in expected.items():
        mapping = tuple(int(v) for v in NAMED_RULE_SYSTEMS[name].mapping)
        assert mapping == cells
        assert all(mapping[i] <= mapping[i + 1] for i in range(4))
    _report(8, "all 20 rule-system cells and monotonicity verified")


def test_criterion_09_mu_sweep_qualitative(demo_sources):
    start = time.monotonic()
    f0, f1, truths, best = demo_sources
    sweep = mu_sweep(f0, f1, truths, [MetricSpec("police_protection")],
                     grid_size=200, n_runs=10, master_seed=909)[0]
    assert len(sweep) == 200
    assert sweep.means[-1] > sweep.means[0]
    slope = np.polyfit(sweep.grid, sweep.means, 1)[0]
    assert slope > 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"protection rises {sweep.means[0]:.3f} -> {sweep.means[-1]:.3f}, "
               f"slope {slope:.3f} > 0, ML source {best.canonical()} ({elapsed:.1f}s)")


def test_criterion_10_resource_bounds_ci_and_decision(demo_sources):
    f0, f1, truths, _ = demo_sources
    taus = (0.1, 0.5, 1.0, 5.0)

    profile = resource_profile(f0, f1, truths, 0.9, taus, n_runs=50, master_seed=1010)
    for summary in profile:
        assert (summary.values >= 0.0).all() and (summary.values <= 0.5).all()

    spec = MetricSpec("police_resource", 1.0)
    small = evaluate_hybrid(f0, f1, truths, 0.5, spec, n_runs=200, master_seed=1011)
    large = evaluate_hybrid(f0, f1, truths, 0.5, spec, n_runs=800, master_seed=1011)
    ratio = large.ci_half_width / small.ci_half_width
    assert abs(ratio - 0.5) <= 0.15 * 0.5

    curve = mu_sweep(f0, f1, truths, [spec], grid_size=50, n_runs=10, master_seed=1012)[0]
    budgets = np.linspace(0.0, 0.5, 60)
    choices = [decide_mu(curve, r0) for r0 in budgets]
    assert choices == sorted(choices)
    _report(10, f"resource in [0, 0.5] for all taus, CI ratio {ratio:.3f} ~ 1/2, "
                "mu0 monotone in the budget")


def test_criterion_11_grid_search_determinism(demo_split, tmp_path):
    train, test = demo_split
    space = default_search_space()
    start = time.monotonic()
    table_serial = grid_search(space, train, test, "high_f1", master_seed=1111, jobs=1)
    elapsed = time.monotonic() - start
    counts = {}
    for row in table_serial.rows:
        counts[row.family] = counts.get(row.family, 0) + 1
    assert counts == {"tree": 20, "forest": 50, "knn": 7, "nc": 18}
    assert elapsed < 600.0

    table_parallel = grid_search(space, train, test, "high_f1", master_seed=1111, jobs=8)
    serial_path, parallel_path = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_result_table(serial_path, table_serial)
    write_result_table(parallel_path, table_parallel)
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    _report(11, f"95 rows (20+50+7+18), jobs=1 and jobs=8 byte-identical ({elapsed:.1f}s)")


def test_criterion_12_cv_protocol_table(demo_split):
    train, _ = demo_split
    subset = train.take(np.arange(2000))  # tuning-protocol shape check
    table = nc_fine_tune(subset, k=10, master_seed=1212)
    assert len(table.rows) == 27
    assert [row.rank for row in table.rows] == list(range(1, 28))
    means = [row.mean for row in table.rows]
    assert means == sorted(means, reverse=True)
    for row in table.rows:
        assert set(row.params) == {"metric", "shrink_threshold"}
        assert row.std >= 0.0

    constant = FeatureMatrix(subset.values[:500], np.full(500, 1, dtype=int))
    degenerate = nc_fine_tune(constant, k=10, master_seed=1213)
    assert all(row.std == 0.0 for row in degenerate.rows)
    _report(12, "fine-grid CV emits a mean/std/rank table; std = 0 on constant labels")
