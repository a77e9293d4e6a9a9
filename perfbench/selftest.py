"""Self-test of the benchmark: a tiny version of every workload, untraced and traced.

    python3 perfbench/selftest.py

For each workload it checks that the run is correct with no failures, that
every end-to-end metric (untraced) and per-layer metric (traced) is emitted
with its unit and matches BENCHMARK.json, and that the span tree is well
formed: children nest inside their parent and share its run id, self times
are non-negative, and each tree's self times sum to its root span's time.
It also checks that the benchmark refuses to run without the program's
sources. Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, END_TO_END, PER_LAYER, ROOT, WORK, WORKLOAD_NAMES  # noqa: E402

TOLERANCE_S = 1e-6


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, proc: subprocess.CompletedProcess, expected: dict) -> None:
    if proc.returncode != 0:
        fail(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        fail(f"{workload}: metrics differ from the spec: "
             f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: {name} = {m['value']!r}")


def check_span_tree(workload: str, path: Path) -> int:
    doc = json.loads(path.read_text())
    if doc["missing"]:
        fail(f"{workload}: missing span targets {doc['missing']}")
    spans = doc["spans"]
    own = [s["end"] - s["start"] for s in spans]
    root_of = []
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is None:
            root_of.append(i)
            continue
        parent = spans[p]
        if not 0 <= p < i or parent["run_id"] != s["run_id"]:
            fail(f"{workload}: span {i} ({s['name']}) has a bad parent {p}")
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            fail(f"{workload}: span {i} ({s['name']}) is not inside its parent")
        own[p] -= s["end"] - s["start"]
        root_of.append(root_of[p])
    if min(own) < -TOLERANCE_S:
        fail(f"{workload}: negative self time {min(own)}")
    roots = set(root_of)
    for r in roots:
        total = sum(t for t, root in zip(own, root_of) if root == r)
        if abs(total - (spans[r]["end"] - spans[r]["start"])) > TOLERANCE_S:
            fail(f"{workload}: self times of root {spans[r]['name']} sum to {total}")
    return len(roots)


def check_spec_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        fail("BENCHMARK.json workloads differ from run.py")
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != expected:
            fail(f"BENCHMARK.json {key} differs from run.py: "
                 f"{sorted(set(listed.items()) ^ set(expected.items()))}")


def check_refuses_without_sources() -> None:
    bare = WORK / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, WORKLOAD_NAMES[0], DEFAULT_SEED, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the program's sources")


def main() -> int:
    check_spec_matches_benchmark_json()
    check_refuses_without_sources()
    for workload in WORKLOAD_NAMES:
        check_result(workload, run_bench(ROOT, workload, DEFAULT_SEED, 0), END_TO_END)
        check_result(workload, run_bench(ROOT, workload, 1, 1), PER_LAYER)
        roots = check_span_tree(workload, WORK / workload / "spans.json")
        print(f"selftest {workload}: ok ({roots} traced passes)")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
