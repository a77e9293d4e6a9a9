"""In-memory span tracing of recidrisk's layer boundaries, installed from outside.

The tracer replaces module attributes with timing wrappers at the names the
callers look up (for example `recidrisk.cli.read_cases`, which is what
`cmd_train` calls, not `recidrisk.dataset.read_cases`). Each call records a
span: name, start, end, parent span and run id, plus counts taken at the same
boundary from the call's arguments and result. Spans stay in memory until the
run writes them out. A target that no longer exists is reported as missing.

The workloads run single-threaded (`--jobs 1`), so one span stack suffices.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MIB = 1024 * 1024


def _rows(array) -> int:
    return int(array.shape[0]) if getattr(array, "ndim", 1) > 1 else 1


# (span name, targets "module:attr" or "module:Class.attr", counts(args, result) -> dict)
BOUNDARIES = (
    ("cli.main", ("recidrisk.cli:main",), None),
    *(
        (f"cli.{cmd}", (f"recidrisk.cli:cmd_{cmd}",), None)
        for cmd in ("generate", "train", "evaluate", "gridsearch", "crossval", "sweep", "decide")
    ),
    ("synthgen.generate", ("recidrisk.cli:generate",), lambda a, r: {"rows": len(r)}),
    ("synthgen.attach_viogen_scores", ("recidrisk.cli:attach_viogen_scores",), None),
    ("dataset.write_cases", ("recidrisk.cli:write_cases",), None),
    ("dataset.read_cases", ("recidrisk.cli:read_cases",),
     lambda a, r: {"rows": len(r), "file_bytes": os.path.getsize(a[0])}),
    ("dataset.encode_cases", ("recidrisk.cli:encode_cases",),
     lambda a, r: {"matrix_bytes": r.values.nbytes}),
    ("dataset.split", ("recidrisk.cli:split",), None),
    ("dataset.kfold", ("recidrisk.experiments:kfold",), None),
    ("nearest_centroid.fit", ("recidrisk.experiments:nc_fit",), None),
    ("nearest_centroid.predict", ("recidrisk.nearest_centroid:NearestCentroidModel.predict",),
     lambda a, r: {"rows": _rows(a[1])}),
    ("knn.neighbor_labels", ("recidrisk.experiments:neighbor_labels", "recidrisk.knn:neighbor_labels"),
     lambda a, r: {"pairs": int(a[2].shape[0]) * int(a[0].shape[0])}),
    ("knn.vote", ("recidrisk.experiments:vote", "recidrisk.knn:vote"), None),
    ("trees.grow", ("recidrisk.experiments:tree_fit", "recidrisk.experiments:_forest_tree",
                    "recidrisk.trees:_forest_tree"),
     lambda a, r: {"trees": 1, "nodes": r.n_nodes}),
    ("trees.predict_at_depths", ("recidrisk.trees:TreeModel.predict_at_depths",),
     lambda a, r: {"rows": _rows(a[1])}),
    ("metrics.confusion", ("recidrisk.hybrid:confusion", "recidrisk.experiments:confusion",
                           "recidrisk.cli:confusion"), None),
    ("hybrid.mu_sweep", ("recidrisk.cli:mu_sweep",), None),
    ("hybrid.hybrid_sample", ("recidrisk.hybrid:hybrid_sample",), None),
    ("hybrid.resource_profile", ("recidrisk.cli:resource_profile",), None),
    ("hybrid.decide_mu", ("recidrisk.cli:decide_mu",), None),
    ("hybrid.write_sweep", ("recidrisk.cli:write_sweep",), None),
    ("hybrid.read_sweep", ("recidrisk.cli:read_sweep",), None),
    ("seeding.derive_rng", ("recidrisk.hybrid:derive_rng", "recidrisk.dataset:derive_rng",
                            "recidrisk.trees:derive_rng", "recidrisk.synthgen:derive_rng"), None),
    ("baseline.apply_many", ("recidrisk.baseline:RuleSystem.apply_many",), None),
    ("experiments.grid_search", ("recidrisk.cli:grid_search",),
     lambda a, r: {"configs": len(r.rows), "error_rows": sum(row.error is not None for row in r.rows)}),
    ("experiments.cv_table", ("recidrisk.cli:cv_table",),
     lambda a, r: {"fold_fits": len(r.rows) * r.k}),
    ("experiments.write_tables", ("recidrisk.cli:write_result_table", "recidrisk.cli:write_cv_table"),
     None),
    ("model_io.save_model", ("recidrisk.cli:save_model",),
     lambda a, r: {"file_bytes": os.path.getsize(a[0])}),
    ("model_io.load_model", ("recidrisk.cli:load_model",), None),
)

BOUNDARY_NAMES = tuple(name for name, _, _ in BOUNDARIES)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "counts")

    def __init__(self, name, start, parent, run_id):
        self.name, self.start, self.end = name, start, None
        self.parent, self.run_id, self.counts = parent, run_id, None

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
                "run_id": self.run_id, "counts": self.counts}


class Tracer:
    """Records spans while `run_id` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, run_id: str):
        """One traced pass: a root span with its run id; spans are recorded inside it."""
        self.run_id = run_id
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)
            self.run_id = None

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if count is not None:
                tracer.spans[index].counts = count(args, result)
            return result

        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        for name, targets, count in boundaries:
            for target in targets:
                module_name, attr_path = target.split(":")
                *owner_path, attr = attr_path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": [s.to_json() for s in self.spans]}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Aggregation: self times and per-layer metrics over one traced pass.

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (children nest, never overlap)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def subtree(spans: list[Span], run_ids) -> list[Span]:
    """Spans of the given runs, re-indexed so parents point into the returned list."""
    keep = [i for i, s in enumerate(spans) if s.run_id in run_ids]
    where = {old: new for new, old in enumerate(keep)}
    out = []
    for i in keep:
        s = spans[i]
        copy = Span(s.name, s.start, where.get(s.parent), s.run_id)
        copy.end, copy.counts = s.end, s.counts
        out.append(copy)
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def aggregate(spans: list[Span]):
    """Per span name: inclusive seconds, self seconds, calls and summed counts."""
    own = self_times(spans)
    incl, selfs, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    maxima = defaultdict(lambda: defaultdict(int))
    for s, t in zip(spans, own):
        incl[s.name] += s.end - s.start
        selfs[s.name] += t
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[s.name][key] += value
            maxima[s.name][key] = max(maxima[s.name][key], value)
    return incl, selfs, calls, counts, maxima


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metric values for one traced pass; with no spans, every name at 0."""
    incl, selfs, calls, counts, maxima = aggregate(spans)
    m = {}
    for name in BOUNDARY_NAMES:
        if layer_of(name) != "cli":
            m[f"{name}.self_s"] = selfs[name]
        elif name != "cli.main":
            m[f"{name}.s"] = incl[name]
    m["cli.self_s"] = sum(t for name, t in selfs.items() if layer_of(name) == "cli")
    m["synthgen.cases_per_s"] = _ratio(counts["synthgen.generate"]["rows"], incl["synthgen.generate"])
    m["dataset.read_cases.rows"] = counts["dataset.read_cases"]["rows"]
    m["dataset.case_file_mb"] = maxima["dataset.read_cases"]["file_bytes"] / MIB
    m["dataset.matrix_mb"] = maxima["dataset.encode_cases"]["matrix_bytes"] / MIB
    m["dataset.kfold.calls"] = calls["dataset.kfold"]
    m["nearest_centroid.fit.calls"] = calls["nearest_centroid.fit"]
    m["nearest_centroid.predict.rows"] = counts["nearest_centroid.predict"]["rows"]
    m["knn.distance_pairs"] = counts["knn.neighbor_labels"]["pairs"]
    m["trees.trees_grown"] = counts["trees.grow"]["trees"]
    m["trees.nodes_grown"] = counts["trees.grow"]["nodes"]
    m["trees.nodes_per_s"] = _ratio(counts["trees.grow"]["nodes"], selfs["trees.grow"])
    m["trees.predict.rows"] = counts["trees.predict_at_depths"]["rows"]
    m["hybrid.mc_runs"] = calls["hybrid.hybrid_sample"]
    m["hybrid.mc_runs_per_s"] = _ratio(
        calls["hybrid.hybrid_sample"], incl["hybrid.mu_sweep"] + incl["hybrid.resource_profile"])
    m["metrics.confusion.calls"] = calls["metrics.confusion"]
    m["seeding.derive_rng.calls"] = calls["seeding.derive_rng"]
    m["experiments.grid.configs"] = counts["experiments.grid_search"]["configs"]
    m["experiments.grid.error_rows"] = counts["experiments.grid_search"]["error_rows"]
    m["experiments.cv.fold_fits"] = counts["experiments.cv_table"]["fold_fits"]
    m["model_io.model_mb"] = maxima["model_io.save_model"]["file_bytes"] / MIB
    return m


def layer_totals(spans: list[Span]) -> dict:
    """Self seconds per layer (module), excluding the benchmark's own root spans."""
    totals = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if s.parent is not None:
            totals[layer_of(s.name)] += t
    return dict(totals)
