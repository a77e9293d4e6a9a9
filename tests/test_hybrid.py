"""Hybrid model: endpoint exactness, binomial steps, sweeps and the budget rule."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recidrisk.hybrid import (
    SweepResult,
    _Cells,
    _isotonic_non_decreasing,
    decide_mu,
    evaluate_hybrid,
    hybrid_sample,
    mu_sweep,
    read_sweep,
    resource_profile,
    write_sweep,
)
from recidrisk.metrics import MetricSpec, confusion, police_protection
from recidrisk.seeding import derive_rng

from test_dataset import rewrite_line


def binom_pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def case_outcome_dist(f0, f1, mu):
    """Exact pmf of the hybrid label for one case."""
    rho = f1 - f0
    out = {}
    for steps in range(abs(rho) + 1):
        label = f0 + int(np.sign(rho)) * steps
        out[label] = out.get(label, 0.0) + binom_pmf(steps, abs(rho), mu)
    return out


def exact_expected_metric(f0s, f1s, truths, mu, metric_fn):
    """Enumerate every joint outcome, weight by its probability."""
    dists = [case_outcome_dist(f0, f1, mu) for f0, f1 in zip(f0s, f1s)]
    expected = 0.0
    for combo in itertools.product(*(d.items() for d in dists)):
        labels = [lbl for lbl, _ in combo]
        prob = math.prod(p for _, p in combo)
        expected += prob * metric_fn(confusion(labels, truths))
    return expected


def test_mu_zero_returns_first_source():
    rng = np.random.default_rng(0)
    f0 = rng.integers(0, 3, 10000)
    f1 = rng.integers(0, 3, 10000)
    for seed in (1, 2, 3):
        out = hybrid_sample(f0, f1, 0.0, derive_rng(seed))
        assert np.array_equal(out, f0)


def test_mu_one_returns_second_source():
    rng = np.random.default_rng(1)
    f0 = rng.integers(0, 3, 10000)
    f1 = rng.integers(0, 3, 10000)
    for seed in (4, 5, 6):
        out = hybrid_sample(f0, f1, 1.0, derive_rng(seed))
        assert np.array_equal(out, f1)


def test_sample_confined_to_segment():
    rng = np.random.default_rng(2)
    f0 = rng.integers(0, 3, 500)
    f1 = rng.integers(0, 3, 500)
    for mu in (0.1, 0.5, 0.9):
        out = hybrid_sample(f0, f1, mu, derive_rng(7))
        assert (out >= np.minimum(f0, f1)).all()
        assert (out <= np.maximum(f0, f1)).all()


def test_equal_sources_never_move():
    f = np.array([0, 1, 2, 2, 1])
    for mu in (0.0, 0.3, 1.0):
        assert np.array_equal(hybrid_sample(f, f, mu, derive_rng(8)), f)


def test_mu_out_of_range_rejected():
    with pytest.raises(ValueError):
        hybrid_sample([0], [2], 1.5, derive_rng(0))
    with pytest.raises(ValueError):
        hybrid_sample([0], [2], -0.1, derive_rng(0))


def test_two_step_distribution_matches_binomial():
    rng = derive_rng(9)
    draws = np.array([hybrid_sample([0], [2], 0.5, rng)[0] for _ in range(100000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    for label, expected in ((0, 0.25), (1, 0.5), (2, 0.25)):
        se = np.sqrt(expected * (1 - expected) / draws.size)
        assert abs(freq[label] - expected) < 4 * se
    assert abs(draws.mean() - 1.0) < 4 * np.sqrt(0.5 / draws.size)


def test_mean_interpolates_between_sources():
    n = 100000
    for f0, f1 in itertools.product((0, 1, 2), repeat=2):
        for mu in (0.25, 0.5, 0.75):
            rng = derive_rng(10, f0, f1)
            out = hybrid_sample(np.full(n, f0), np.full(n, f1), mu, rng)
            expected = f0 + mu * (f1 - f0)
            spread = abs(f1 - f0) * np.sqrt(mu * (1 - mu))
            tolerance = 4 * max(spread, 1e-12) / np.sqrt(n)
            assert abs(out.mean() - expected) <= max(tolerance, 1e-12)


def test_evaluate_hybrid_zero_std_at_endpoints():
    f0 = np.array([0, 1, 2, 0, 1])
    f1 = np.array([2, 2, 2, 0, 0])
    truths = np.array([0, 1, 2, 1, 0])
    spec = MetricSpec("police_protection")
    est0 = evaluate_hybrid(f0, f1, truths, 0.0, spec, n_runs=8, master_seed=3)
    assert est0.std == 0.0
    assert est0.mean == police_protection(confusion(f0, truths))
    est1 = evaluate_hybrid(f0, f1, truths, 1.0, spec, n_runs=8, master_seed=3)
    assert est1.std == 0.0
    assert est1.mean == police_protection(confusion(f1, truths))


def test_evaluate_hybrid_zero_std_when_sources_agree():
    f = np.array([0, 2, 1, 1])
    truths = np.array([0, 1, 1, 2])
    for mu in (0.2, 0.6):
        est = evaluate_hybrid(f, f, truths, mu, MetricSpec("police_protection"), 6, 4)
        assert est.std == 0.0


def test_monte_carlo_matches_exhaustive_enumeration():
    f0 = [0, 1, 2]
    f1 = [2, 0, 1]
    truths = [1, 0, 2]
    mu = 0.5
    exact = exact_expected_metric(f0, f1, truths, mu, police_protection)
    est = evaluate_hybrid(f0, f1, truths, mu, MetricSpec("police_protection"),
                          n_runs=10000, master_seed=5)
    se = est.std / np.sqrt(est.n_runs)
    assert abs(est.mean - exact) < 4 * se


LABELS = st.integers(0, 2)


@st.composite
def hybrid_inputs(draw):
    """(f0, f1, truths) of 3 to 8 cases, holding gaps of 0, 1 and 2 steps."""
    same = draw(LABELS)
    cases = [(same, same, draw(LABELS)),
             draw(st.sampled_from([(0, 1), (1, 0), (1, 2), (2, 1)])) + (draw(LABELS),),
             draw(st.sampled_from([(0, 2), (2, 0)])) + (draw(LABELS),),
             *draw(st.lists(st.tuples(LABELS, LABELS, LABELS), max_size=5))]
    cases = draw(st.permutations(cases))
    return tuple(np.array(column) for column in zip(*cases))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(inputs=hybrid_inputs(), mu=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_cell_draws_are_hybrid_executions_with_the_exact_mean(inputs, mu, seed):
    f0, f1, truths = inputs
    n_runs = 4000
    counts = _Cells(f0, f1, truths).draw(mu, n_runs, derive_rng(seed)).counts
    assert counts.shape == (n_runs, 3, 3)
    # every run keeps each truth column's support exactly
    assert (counts.sum(axis=1) == np.bincount(truths, minlength=3)).all()
    # and its counts can be dealt out to the cases with each case's label
    # between f0 and f1: for every label range, the cases whose whole segment
    # lies inside it fit in its counts (Hall's condition on intervals)
    lo, hi = np.minimum(f0, f1), np.maximum(f0, f1)
    for first in range(3):
        for last in range(first, 3):
            inside = np.bincount(truths[(lo >= first) & (hi <= last)], minlength=3)
            assert (counts[:, first:last + 1].sum(axis=1) >= inside).all()
    # the mean stack lies within 5 standard errors of the exact expectation
    expected = np.zeros((3, 3))
    variance = np.zeros((3, 3))
    for a, b, t in zip(f0, f1, truths):
        for label, p in case_outcome_dist(a, b, mu).items():
            expected[label, t] += p
            variance[label, t] += p * (1.0 - p)
    error = np.abs(counts.mean(axis=0) - expected)
    assert (error <= 5.0 * np.sqrt(variance / n_runs) + 1e-9).all(), (error, variance)


@settings(max_examples=40, deadline=None)
@given(inputs=hybrid_inputs(), seed=st.integers(0, 2**32 - 1))
def test_cell_draws_at_the_endpoints_are_the_sources(inputs, seed):
    f0, f1, truths = inputs
    cells = _Cells(f0, f1, truths)
    for mu, source in ((0.0, f0), (1.0, f1)):
        counts = cells.draw(mu, 50, derive_rng(seed)).counts
        assert (counts == confusion(source, truths).counts).all()


def test_evaluate_hybrid_rejects_misaligned():
    with pytest.raises(ValueError):
        evaluate_hybrid([0, 1], [2], [0, 1], 0.5, MetricSpec("police_protection"), 2, 0)


@pytest.mark.parametrize("f0, f1, truths, mu, n_runs", [
    ([], [], [], 0.5, 2),
    ([0, 3], [0, 1], [0, 1], 0.5, 2),
    ([0, 1], [0, -1], [0, 1], 0.5, 2),
    ([0, 1], [0, 1], [0, 5], 0.5, 2),
    ([0, 1], [2, 1], [0, 1], 1.5, 2),
    ([0, 1], [2, 1], [0, 1], 0.5, 0),
], ids=["empty", "f0_label_3", "f1_label_negative", "truth_label_5", "mu_above_one", "no_runs"])
def test_evaluate_hybrid_rejects_bad_input(f0, f1, truths, mu, n_runs):
    with pytest.raises(ValueError):
        evaluate_hybrid(f0, f1, truths, mu, MetricSpec("police_protection"), n_runs, 0)


def test_ci_half_width_shrinks_with_runs():
    rng = np.random.default_rng(11)
    f0 = rng.integers(0, 3, 400)
    f1 = rng.integers(0, 3, 400)
    truths = rng.integers(0, 3, 400)
    spec = MetricSpec("police_resource", 0.5)
    small = evaluate_hybrid(f0, f1, truths, 0.5, spec, n_runs=50, master_seed=6)
    large = evaluate_hybrid(f0, f1, truths, 0.5, spec, n_runs=200, master_seed=6)
    ratio = large.ci_half_width / small.ci_half_width
    assert abs(ratio - 0.5) < 0.15 * 0.5 + 0.075  # 1/sqrt(4) up to sampling noise


def test_sweep_grid_and_endpoints():
    rng = np.random.default_rng(12)
    f0 = rng.integers(0, 3, 200)
    f1 = rng.integers(0, 3, 200)
    truths = rng.integers(0, 3, 200)
    sweep = mu_sweep(f0, f1, truths, MetricSpec("police_protection"),
                     grid_size=21, n_runs=5, master_seed=7)
    assert len(sweep) == 21
    assert sweep.grid[0] == 0.0 and sweep.grid[-1] == 1.0
    assert sweep.stds[0] == 0.0 and sweep.stds[-1] == 0.0
    assert sweep.means[0] == police_protection(confusion(f0, truths))
    assert sweep.means[-1] == police_protection(confusion(f1, truths))


def test_sweep_grid_size_two_is_endpoints_only():
    f0, f1 = np.array([0, 0]), np.array([2, 2])
    truths = np.array([0, 2])
    sweep = mu_sweep(f0, f1, truths, MetricSpec("police_protection"),
                     grid_size=2, n_runs=3, master_seed=8)
    assert sweep.grid.tolist() == [0.0, 1.0]
    assert (sweep.stds == 0.0).all()


def test_sweep_reproducible():
    rng = np.random.default_rng(13)
    f0 = rng.integers(0, 3, 100)
    f1 = rng.integers(0, 3, 100)
    truths = rng.integers(0, 3, 100)
    spec = MetricSpec("police_resource", 1.0)
    a = mu_sweep(f0, f1, truths, spec, grid_size=9, n_runs=4, master_seed=9)
    b = mu_sweep(f0, f1, truths, spec, grid_size=9, n_runs=4, master_seed=9)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.stds, b.stds)


def test_resource_profile_shapes_and_bounds():
    rng = np.random.default_rng(14)
    f0 = rng.integers(0, 3, 300)
    f1 = rng.integers(0, 3, 300)
    truths = rng.integers(0, 3, 300)
    profile = resource_profile(f0, f1, truths, 0.9, (0.0, 0.5, 1.0, 5.0),
                               n_runs=40, master_seed=10)
    assert [p.tau for p in profile] == [0.0, 0.5, 1.0, 5.0]
    for summary in profile:
        assert summary.values.shape == (40,)
        assert (summary.values >= 0.0).all() and (summary.values <= 0.5).all()
        lo, q1, median, q3, hi = summary.quantiles
        assert lo <= q1 <= median <= q3 <= hi


def test_resource_profile_deterministic_at_mu_zero():
    f0 = np.array([1, 1, 0, 2])
    f1 = np.array([2, 0, 1, 0])
    truths = np.array([0, 1, 0, 2])
    profile = resource_profile(f0, f1, truths, 0.0, (0.0,), n_runs=12, master_seed=11)
    assert np.unique(profile[0].values).size == 1


def make_curve(grid, means, tau=1.0):
    grid = np.asarray(grid, dtype=float)
    means = np.asarray(means, dtype=float)
    zeros = np.zeros_like(means)
    return SweepResult(grid, means, zeros, zeros, 10, MetricSpec("police_resource", tau))


def test_decide_mu_slack_budget_gives_one():
    curve = make_curve([0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    assert decide_mu(curve, 0.5) == 1.0


def test_decide_mu_tight_budget_gives_zero():
    curve = make_curve([0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    assert decide_mu(curve, 0.05) == 0.0


def test_decide_mu_picks_largest_feasible():
    curve = make_curve([0.0, 0.25, 0.5, 0.75, 1.0], [0.10, 0.12, 0.14, 0.16, 0.18])
    assert decide_mu(curve, 0.15) == 0.5
    assert decide_mu(curve, 0.16) == 0.75


def test_decide_mu_monotone_in_budget():
    rng = np.random.default_rng(15)
    means = np.clip(np.cumsum(rng.normal(0.01, 0.02, 50)) + 0.1, 0.0, 0.5)
    curve = make_curve(np.linspace(0, 1, 50), means)
    budgets = np.linspace(0.0, 0.5, 40)
    choices = [decide_mu(curve, r0) for r0 in budgets]
    assert choices == sorted(choices)


def test_decide_mu_monotone_regression_option():
    # a noisy dip lets the raw scan overshoot; the isotonic fit pools it away:
    # fitted means are [0.10, 0.16, 0.16, 0.22, 0.30]
    curve = make_curve([0.0, 0.25, 0.5, 0.75, 1.0], [0.10, 0.20, 0.12, 0.22, 0.30])
    assert decide_mu(curve, 0.13) == 0.5
    assert decide_mu(curve, 0.13, monotone=True) == 0.0
    assert decide_mu(curve, 0.16, monotone=True) == 0.5


def test_isotonic_projection():
    values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    fitted = _isotonic_non_decreasing(values)
    assert (np.diff(fitted) >= 0).all()
    assert fitted.sum() == pytest.approx(values.sum())
    assert np.array_equal(_isotonic_non_decreasing(np.array([1.0, 2.0, 3.0])),
                          np.array([1.0, 2.0, 3.0]))


def test_decide_mu_rejects_empty_curve():
    curve = make_curve([0.0, 1.0], [0.1, 0.2])
    object.__setattr__(curve, "grid", np.array([]))
    with pytest.raises(ValueError):
        decide_mu(curve, 0.1)


# name: (physical line rewritten, its new cells from the file's rows); the
# reader must name that line. Line 1 is the manifest comment, 2 the header.
BROKEN_SWEEP_FILES = {
    "row_cut": (4, lambda rows: rows[3][:-1]),
    "metric_differs": (5, lambda rows: rows[4][:5] + ["police_protection", "", "3"]),
    "tau_differs": (6, lambda rows: rows[5][:6] + ["0.5", "3"]),
    "n_runs_differs": (7, lambda rows: rows[6][:7] + ["4"]),
    "non_float_mean": (8, lambda rows: rows[7][:1] + ["high"] + rows[7][2:]),
    "trailing_blank_line": (10, lambda rows: []),
}


@pytest.mark.parametrize("case", ["resource", *BROKEN_SWEEP_FILES])
def test_sweep_file_round_trip(tmp_path, case):
    rng = np.random.default_rng(16)
    f0 = rng.integers(0, 3, 50)
    f1 = rng.integers(0, 3, 50)
    truths = rng.integers(0, 3, 50)
    sweep = mu_sweep(f0, f1, truths, MetricSpec("police_resource", 0.85),
                     grid_size=7, n_runs=3, master_seed=12)
    path = tmp_path / "sweep.csv"
    write_sweep(path, sweep, manifest="manifest.json")
    if case in BROKEN_SWEEP_FILES:
        line, make_cells = BROKEN_SWEEP_FILES[case]
        rewrite_line(path, line, make_cells)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
            read_sweep(path)
        return
    loaded = read_sweep(path)
    assert np.array_equal(loaded.grid, sweep.grid)
    assert np.array_equal(loaded.means, sweep.means)
    assert np.array_equal(loaded.stds, sweep.stds)
    assert loaded.metric == sweep.metric
    assert loaded.n_runs == sweep.n_runs
