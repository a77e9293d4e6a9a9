"""recidrisk's benchmark: runs the README's CLI commands in-process, one workload per
process, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload grid_select --seed 20240 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run.
See perfbench/README.md for the workloads and the layer -> metric map.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import tracing  # the benchmark's own module; imports nothing of the program

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("grid_select", "cv_tune", "hybrid_decide", "ingest")
DEFAULT_SEED = 20240  # the demo corpus seed
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "work_per_s": "1/s"}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# every traced-pass metric, then the ones the run itself adds
PER_LAYER = {name: unit_of(name) for name in (
    *tracing.layer_metrics([]),
    "process.cpu_s", "process.wall_s", "trace.wall_s", "trace.overhead_ratio",
    "trace.spans", "trace.missing_spans", "trace.prediction_met",
)}


def _cap_blas_threads() -> None:
    """BLAS pools may use at most the cores this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= cores:
            os.environ[var] = str(cores)


def _import_program():
    """The recidrisk package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "recidrisk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no recidrisk sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import recidrisk
    import recidrisk.cli

    if Path(recidrisk.__file__).resolve().parent != (src / "recidrisk").resolve():
        raise SystemExit(f"perfbench: imported recidrisk from {recidrisk.__file__}, not {src}")
    return recidrisk.cli


def machine_block(workload: str, size: dict, seed: int, seconds: float) -> dict:
    import numpy as np

    sources = sorted((ROOT / "src" / "recidrisk").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
    }


class Runner:
    """Runs CLI commands through recidrisk.cli.main; counts attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0  # seconds inside CLI commands since the last reset
        self.cpu = 0.0

    def reset_clock(self) -> None:
        self.wall = self.cpu = 0.0

    def __call__(self, *argv: str) -> None:
        self.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code or 0  # sys.exit() and sys.exit(0) both mean success
        except Exception:  # a crashing command is a counted failure, not a benchmark crash
            code = traceback.format_exc()
        self.wall += time.perf_counter() - start
        self.cpu += time.process_time() - cpu
        if code != 0:
            self.fail(f"command {' '.join(argv[:1])} failed: {code}")

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} {detail}")


def _outputs_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> int:
    _cap_blas_threads()
    cli = _import_program()
    from workloads import SIZES, WORKLOADS, Context

    workload = WORKLOADS[name]
    ctx = Context(WORK / name, seed, SIZES[size_name][name])
    shutil.rmtree(ctx.dir, ignore_errors=True)
    ctx.dir.mkdir(parents=True)
    print("machine " + json.dumps(machine_block(name, ctx.size, seed, seconds)), flush=True)

    run = Runner(cli)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()

    # One set-up sample is a fresh interpreter's start and imports, then the
    # input files made in this process. Samples are taken before the loop and
    # after every iteration, so their median spans the whole run.
    probe = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
             "import recidrisk.cli"]
    setup_times = []

    def set_up(traced: bool) -> None:
        start = time.perf_counter()
        run.check("import_probe", subprocess.run(probe, cwd=ROOT).returncode == 0)
        if workload.setup and traced:
            with tracer.root("bench.setup", "setup"):
                workload.setup(ctx, run)
        elif workload.setup:
            workload.setup(ctx, run)
        setup_times.append(time.perf_counter() - start)

    set_up(traced=tracer is not None)

    # timed loop: until `seconds` would be exceeded; with tracing, the first
    # half runs untraced (the overhead baseline) and the rest traced
    plain, traced = [], []  # (command wall, command cpu, run id)
    loop_start = time.perf_counter()
    first_digest = None
    while True:
        elapsed = time.perf_counter() - loop_start
        done = len(plain) + len(traced)
        out_of_time = done > 0 and elapsed * (done + 1) / done > seconds
        if out_of_time and plain and (tracer is None or traced):
            break
        use_trace = tracer is not None and bool(plain) and (elapsed >= seconds / 2 or out_of_time)
        run_id = f"iteration-{done}"
        run.reset_clock()
        failed_before = run.failed
        try:
            if use_trace:
                with tracer.root("bench.iteration", run_id):
                    workload.iteration(ctx, run)
            else:
                workload.iteration(ctx, run)
        except Exception:  # reported and counted; the run stops here
            run.attempted += 1
            run.fail(f"iteration {run_id} raised:\n{traceback.format_exc()}")
            break
        (traced if use_trace else plain).append((run.wall, run.cpu, run_id))
        if run.failed > failed_before:
            break
        digest = _outputs_digest(ctx.dir / "out")
        first_digest = first_digest or digest
        run.check(f"outputs_identical.{run_id}", digest == first_digest, "outputs differ from the first iteration")
        set_up(traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    if run.failed == 0:
        try:
            for check_name, ok, detail in workload.checks(ctx):
                run.check(check_name, bool(ok), detail)
        except Exception:  # a crashing check is a failed check
            run.check("checks_completed", False, traceback.format_exc())

    wall_s = median(w for w, _, _ in plain) if plain else float("nan")
    work = workload.work(ctx)
    print(f"iterations {len(plain)} untraced, {len(traced)} traced; work {work} {workload.unit} "
          f"per iteration; size {ctx.size}; command wall s "
          + " ".join(f"{w:.3f}" for w, _, _ in plain + traced), flush=True)
    if tracer:
        metrics = _layer_metrics(tracer, workload, plain, traced, ctx)
    else:
        values = {"wall_s": wall_s, "setup_s": median(setup_times), "peak_rss_mb": peak_rss_mb,
                  "work_per_s": work / wall_s}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {run.failed / max(run.attempted, 1):.6g} failed/attempted "
          f"({run.failed} of {run.attempted})")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0


def _layer_metrics(tracer, workload, plain, traced, ctx) -> dict:
    tracer.write(ctx.dir / "spans.json")
    if not (plain and traced):  # the run failed before a traced pass
        return {k: {"value": float("nan"), "unit": unit} for k, unit in PER_LAYER.items()}
    chosen = sorted((w, run_id) for w, _, run_id in traced)[(len(traced) - 1) // 2][1]
    spans = tracing.subtree(tracer.spans, {"setup", chosen})
    values = tracing.layer_metrics(spans)
    wall = median(w for w, _, _ in plain)
    values["process.cpu_s"] = median(c for _, c, _ in plain)
    values["process.wall_s"] = wall
    values["trace.wall_s"] = median(w for w, _, _ in traced)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / wall - 1.0
    values["trace.spans"] = len(spans)
    values["trace.missing_spans"] = len(tracer.missing)

    totals = tracing.layer_totals(tracing.subtree(tracer.spans, {chosen}))
    top = max(totals, key=totals.get)
    values["trace.prediction_met"] = int(top in workload.predicted)
    print("layers (self s, timed part) " + ", ".join(
        f"{layer} {t:.3f}" for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])))
    verdict = "as predicted" if top in workload.predicted else "MISPREDICTED"
    print(f"dominant layer {top} ({verdict}; predicted {' or '.join(workload.predicted)})")
    for target in tracer.missing:
        print(f"missing span target {target}", file=sys.stderr)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints their lines and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            combined["failed"] += 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
