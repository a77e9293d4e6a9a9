"""Stochastic hybrid of two prediction sources and its Monte Carlo evaluation.

With integer-coded labels, a hybrid prediction starts from the first source's
label f0 and walks toward the second source's label f1 by a binomial number
of unit steps: out = f0 + sign(f1 - f0) * Binomial(|f1 - f0|, mu). At mu = 0
the hybrid reproduces f0 exactly, at mu = 1 it reproduces f1 exactly, and in
between each case's expected label is f0 + mu * (f1 - f0), so mu weighs how
far predictions have migrated from the first model to the second.

Metrics of the hybrid are random variables; they are estimated over repeated
executions, reported as mean, standard deviation and a 0.95
normal-approximation confidence half-width 1.96 * std / sqrt(runs): along a
uniform mu grid on [0, 1] by `mu_sweep`, whose curves `write_sweep` and
`read_sweep` keep on file, and at one mu by `resource_profile`.

Labels take the values 0..2, so every metric depends only on how many cases
fall in each of the 27 (f0, f1, truth) cells. Executions are drawn per cell,
not per case: a cell with f1 = f0 keeps its count, a one-step cell moves a
Binomial(count, mu) share to f1, and a two-step cell splits as a
Multinomial(count, [(1-mu)^2, 2mu(1-mu), mu^2]) over f0, the middle label and
f1. Summed over a cell's cases this is exactly the per-case law above. All
runs at one mu come from one generator, drawn as arrays of shape
(runs, cells), and are scored as one stack of confusion matrices. Every
metric of a sweep scores the same stacks, as every penalty of a resource
profile scores the same stack: one set of executions serves every curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import N_LABELS, fmt_float, read_table, write_table
from .metrics import ConfusionMatrix, MetricSpec, check_labels, police_resource
from .seeding import derive_rng

Z_95 = 1.96


def hybrid_sample(f0, f1, mu: float, rng: np.random.Generator) -> np.ndarray:
    """One hybrid execution over aligned prediction vectors."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    f0 = np.asarray(f0, dtype=np.int64)
    f1 = np.asarray(f1, dtype=np.int64)
    if f0.shape != f1.shape:
        raise ValueError("prediction vectors must be aligned")
    check_labels("f0", f0)
    check_labels("f1", f1)
    rho = f1 - f0
    steps = rng.binomial(np.abs(rho), mu)
    return f0 + np.sign(rho) * steps


@dataclass(frozen=True)
class HybridEstimate:
    mean: float
    std: float
    ci_half_width: float
    n_runs: int
    values: np.ndarray  # per-run metric values


class _Cells:
    """The occupied (f0, f1, truth) cells of aligned label vectors, grouped by gap.

    A confusion matrix is held flat: slot pred*3 + truth. `fixed` counts the
    cells whose f1 equals f0, and `scatter` maps each column `draw` samples to
    its slot.
    """

    def __init__(self, f0, f1, truths):
        f0, f1, truths = (np.asarray(v, dtype=np.int64) for v in (f0, f1, truths))
        if not (f0.shape == f1.shape == truths.shape) or f0.ndim != 1:
            raise ValueError("prediction and truth vectors must be 1-D and aligned")
        if f0.size == 0:
            raise ValueError("cannot evaluate the hybrid on empty inputs")
        for name, v in (("f0", f0), ("f1", f1), ("truths", truths)):
            check_labels(name, v)
        tensor = np.bincount((f0 * N_LABELS + f1) * N_LABELS + truths, minlength=N_LABELS**3)
        occupied = np.flatnonzero(tensor)
        a, b, t = np.unravel_index(occupied, (N_LABELS,) * 3)
        count, gap = tensor[occupied], np.abs(b - a)
        zero, one, two = (gap == g for g in range(3))
        eye = np.eye(N_LABELS**2, dtype=np.int64)  # row i: one case in flat slot i
        self.fixed = count[zero] @ eye[a[zero] * N_LABELS + t[zero]]
        self.one, self.two = count[one], count[two]
        # the label of each sampled column: one-step cells stay, then move;
        # two-step cells at f0, at the middle label, at f1
        labels = np.concatenate([a[one], b[one],
                                 np.stack([a[two], (a[two] + b[two]) // 2, b[two]], axis=1).ravel()])
        truth = np.concatenate([t[one], t[one], np.repeat(t[two], 3)])
        self.scatter = eye[labels * N_LABELS + truth]

    def draw(self, mu: float, n_runs: int, rng: np.random.Generator) -> ConfusionMatrix:
        """A (n_runs, 3, 3) stack: the confusion matrix of each of n_runs executions."""
        if not 0.0 <= mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        moved = rng.binomial(self.one, mu, size=(n_runs, self.one.size))
        split = rng.multinomial(self.two, [(1.0 - mu) ** 2, 2.0 * mu * (1.0 - mu), mu**2],
                                size=(n_runs, self.two.size))
        columns = np.concatenate([self.one - moved, moved, split.reshape(n_runs, -1)], axis=1)
        counts = self.fixed + columns @ self.scatter
        return ConfusionMatrix(counts.reshape(n_runs, N_LABELS, N_LABELS))


def _summarize(values: np.ndarray) -> HybridEstimate:
    n = values.size
    if np.all(values == values[0]):  # degenerate runs: report the exact value
        return HybridEstimate(float(values[0]), 0.0, 0.0, n, values)
    std = float(values.std(ddof=1)) if n >= 2 else 0.0
    return HybridEstimate(float(values.mean()), std, Z_95 * std / np.sqrt(n), n, values)


@dataclass
class SweepResult:
    grid: np.ndarray  # strictly increasing mu values spanning [0, 1]
    means: np.ndarray
    stds: np.ndarray
    ci_half_widths: np.ndarray
    n_runs: int
    metric: MetricSpec

    def __len__(self) -> int:
        return self.grid.size


def mu_sweep(
    f0_preds,
    f1_preds,
    truths,
    metrics: list[MetricSpec],
    grid_size: int = 200,
    n_runs: int = 10,
    master_seed: int = 0,
) -> list[SweepResult]:
    """One curve per metric along a uniform mu grid on [0, 1]: one generator
    per point, and every metric scores the stack of executions it draws."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    cells = _Cells(f0_preds, f1_preds, truths)
    grid = np.linspace(0.0, 1.0, grid_size)
    stats = np.empty((len(metrics), 3, grid_size))  # mean, std, CI half-width
    for i, mu in enumerate(grid):
        stack = cells.draw(mu, n_runs, derive_rng(master_seed, "mu", i))
        for m, metric in enumerate(metrics):
            est = _summarize(metric.evaluate(stack))
            stats[m, :, i] = est.mean, est.std, est.ci_half_width
    return [SweepResult(grid, *curve, n_runs, metric) for curve, metric in zip(stats, metrics)]


@dataclass(frozen=True)
class ResourceSummary:
    """Distribution of the resource metric at one penalty, over executions."""

    tau: float
    values: np.ndarray
    mean: float
    std: float
    ci_half_width: float
    quantiles: tuple[float, float, float, float, float]  # min, q1, median, q3, max


def resource_profile(
    f0_preds, f1_preds, truths, mu: float, tau_list, n_runs: int = 50, master_seed: int = 0
) -> list[ResourceSummary]:
    """Resource-overload distributions for several penalties at a fixed mu.

    Executions are shared across penalties: each run draws one confusion
    matrix and every tau scores the same stack.
    """
    tau_list = list(tau_list)
    if any(tau < 0 for tau in tau_list):
        raise ValueError("penalties must be >= 0")
    stack = _Cells(f0_preds, f1_preds, truths).draw(mu, n_runs, derive_rng(master_seed, "run"))
    out = []
    for tau in tau_list:
        values = police_resource(stack, tau)
        est = _summarize(values)
        quantiles = tuple(np.quantile(values, (0.0, 0.25, 0.5, 0.75, 1.0)))
        out.append(
            ResourceSummary(tau, values, est.mean, est.std, est.ci_half_width, quantiles)
        )
    return out


def _isotonic_non_decreasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    level = values.astype(np.float64).copy()
    weight = np.ones_like(level)
    size = 0
    for v in range(level.shape[0]):
        level[size], weight[size] = level[v], 1.0
        size += 1
        while size > 1 and level[size - 2] > level[size - 1]:
            total = weight[size - 2] + weight[size - 1]
            level[size - 2] = (weight[size - 2] * level[size - 2] + weight[size - 1] * level[size - 1]) / total
            weight[size - 2] = total
            size -= 1
    return np.repeat(level[:size], weight[:size].astype(np.int64))


def decide_mu(resource_curve: SweepResult, r0: float, monotone: bool = False) -> float:
    """Largest grid mu whose mean resource overload stays within the budget r0.

    Scans the raw Monte Carlo means from mu = 1 downward; `monotone` first
    projects the means onto a non-decreasing curve. Returns 0 when no grid
    point satisfies the constraint.
    """
    if len(resource_curve) == 0:
        raise ValueError("resource curve is empty")
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    means = resource_curve.means
    if monotone:
        means = _isotonic_non_decreasing(means)
    for i in range(len(resource_curve) - 1, -1, -1):
        if means[i] <= r0:
            return float(resource_curve.grid[i])
    return 0.0


# ---------------------------------------------------------------------------
# Delimited emission: one row per grid point, directly plottable.

SWEEP_COLUMNS = ("mu", "mean", "std", "ci_lo", "ci_hi", "metric", "tau", "n_runs")


def write_sweep(path: str | Path, sweep: SweepResult, manifest: str | None = None) -> None:
    tau = fmt_float(sweep.metric.tau)
    rows = (
        [*map(fmt_float, (mu, mean, std, mean - half, mean + half)), sweep.metric.name, tau,
         sweep.n_runs]
        for mu, mean, std, half in zip(sweep.grid, sweep.means, sweep.stds, sweep.ci_half_widths)
    )
    write_table(path, SWEEP_COLUMNS, rows, manifest)


def read_sweep(path: str | Path) -> SweepResult:
    """Read a sweep file. Its mu, mean, std, ci_lo and ci_hi cells are finite
    floats; the mu column spans [0, 1], from exactly 0.0 on the first row to
    exactly 1.0 on the last, each row's mu exceeding the previous row's; and
    every row repeats the first row's metric, tau and run count: a tau that is
    blank or a finite float, a run count of ASCII digits with value at least 1."""
    curve = {}  # metric and run count, set by the first row and repeated by every other; last mu

    def parse(header, cells):
        name, tau, n_runs = identity = cells[5:]
        if not curve:
            if tau and not math.isfinite(float(tau)):
                raise ValueError(f"tau {tau!r} must be finite")
            if not (n_runs.isascii() and n_runs.isdigit() and int(n_runs) >= 1):
                raise ValueError(f"n_runs must be digits 0-9 of value >= 1, got {n_runs!r}")
            curve["metric"] = MetricSpec(name, float(tau) if tau else None)
            curve["n_runs"] = int(n_runs)
            curve["identity"] = identity
        elif identity != curve["identity"]:
            raise ValueError(f"metric,tau,n_runs {','.join(identity)} differ from the first "
                             f"row's {','.join(curve['identity'])}")
        values = [float(cell) for cell in cells[:5]]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"mu,mean,std,ci_lo,ci_hi {','.join(cells[:5])} must be finite")
        mu, mean, std, ci_lo, _ = values
        if not 0 <= mu <= 1:
            raise ValueError(f"mu {mu!r} lies outside [0, 1]")
        if "mu" not in curve and mu != 0.0:
            raise ValueError(f"the first row's mu {mu!r} is not 0.0; a curve spans [0, 1]")
        if mu <= curve.get("mu", -1.0):
            raise ValueError(f"mu {mu!r} does not exceed the previous row's {curve['mu']!r}")
        curve["mu"] = mu
        return mu, mean, std, mean - ci_lo

    def check_last(row):
        if row[0] != 1.0:
            raise ValueError(f"the last row's mu {row[0]!r} is not 1.0; a curve spans [0, 1]")

    rows = read_table(path, SWEEP_COLUMNS, parse, check_last=check_last)
    grid, means, stds, halves = np.array(rows).T
    return SweepResult(grid, means, stds, halves, curve["n_runs"], curve["metric"])
