"""Benchmark of the vlcrf program, run from the repository root:

    python3 bench/run.py --workload fig3_sweep --seed 1 --seconds 45 --trace 0

--trace 0 measures the workload untraced and reports the end-to-end metrics;
--trace 1 makes one untraced and one traced single-worker pass over a smaller
batch (plus, for a pooled workload, one untraced pass at full size for
experiment.parallelism) and reports the per-layer metrics.  Every output the
program emits is checked (see checks.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; a
fuller record (workload
parameters, versions, latency tail, output hashes, problems) is written to
bench/out/.  --quick shrinks every workload for the self-tests.

The program is imported from src/ next to this directory; BLAS is pinned to
one thread so that pool workers x threads <= CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every child process

import workloads  # noqa: E402  (imports numpy)
from tracing import Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120

# a fresh interpreter imports the CLI and resolves the workload's config
SETUP_SCRIPT = """\
import sys
import vlcrf.cli
from vlcrf.experiment import PRESETS, build_config, parse_config_text
raw = dict(PRESETS[sys.argv[1]])
with open(sys.argv[2], encoding="utf-8") as fh:
    raw.update(parse_config_text(fh.read()))
raw["seed"] = sys.argv[3]
build_config(raw)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-tests")
    return parser.parse_args(argv)


def load_program() -> SimpleNamespace:
    """Import vlcrf from src/; refuse any other copy on the path."""
    sys.path.insert(0, SRC)
    import vlcrf
    import vlcrf.cli
    import vlcrf.dc_solver
    import vlcrf.experiment

    if not os.path.abspath(vlcrf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vlcrf imported from {vlcrf.__file__}, not from {SRC}")
    return SimpleNamespace(cli=vlcrf.cli, experiment=vlcrf.experiment, dc_solver=vlcrf.dc_solver)


def measure_setup(workload, out_dir: str, repeats: int) -> list[float]:
    preset, text, seed = workload.setup_args()
    path = os.path.join(out_dir, "setup.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT, preset, path, str(seed)], cwd=ROOT)
        # a blocking wait returns as the child exits; Popen.wait(timeout) polls
        # in sleeps of up to 50 ms, which would be added to the time
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def untraced(workload, api, args, nproc: int, out_dir: str) -> tuple[dict, list, dict]:
    run = workloads.drive(workload, workload.batch(traced=False, workers=nproc), api.cli.main, args.seconds)
    rss = peak_rss_mb()  # before the set-up interpreters become children too
    setup = measure_setup(workload, out_dir, 1 if args.quick else SETUP_REPEATS)
    passes = run.passes()
    metrics = {
        "setup_s": statistics.median(setup),
        "solves_per_s": statistics.median(p.solved / p.wall_s for p in passes),
        "cpu_ms_per_solve": statistics.median(1000.0 * p.cpu_s / max(p.solved, 1) for p in passes),
        "call_p50_ms": 1000.0 * statistics.median(r.wall_s for r in run.results),
        "peak_rss_mb": rss,
    }
    extra = {
        "setup_runs_s": setup,
        "latency": workloads.call_latency(run),
        "wall_s": run.wall_s,
        "cpu_s": run.cpu_s,
        "solved": run.solved,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "solved": p.solved} for p in passes],
        "call_walls_s": [r.wall_s for r in run.results],
    }
    return metrics, [run], extra


def traced(workload, api, args, nproc: int, out_dir: str) -> tuple[dict, list, dict]:
    main = api.cli.main
    plain = workloads.drive(workload, workload.batch(traced=True, workers=1), main, 0)
    runs = [plain]
    parallel = plain
    if workload.pooled and nproc > 1:
        # the pool's use of the CPUs at the untraced run's size, one pass
        parallel = workloads.drive(workload, workload.batch(traced=False, workers=nproc), main, 0)
        runs.append(parallel)
    modules = {"cli": api.cli, "experiment": api.experiment, "dc_solver": api.dc_solver}
    tracer = Tracer(modules)
    traced_run = workloads.drive(workload, workload.batch(traced=True, workers=1), main, 0, tracer)
    runs.append(traced_run)
    spans_path = os.path.join(out_dir, "spans.jsonl")
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    gaps = [g for o in traced_run.outcomes for g in o.gaps]
    metrics.update({
        "dc_solver.objective_mean_bits": _mean([f for o in traced_run.outcomes for f in o.objectives]),
        "reference_oracle.gap_max_bits": max(gaps) if gaps else 0.0,
        "experiment.csv_bytes": workload.output_bytes(),
        "experiment.parallelism": parallel.cpu_s / parallel.wall_s,
        "trace.overhead_frac": traced_run.wall_s / plain.wall_s - 1.0,
    })
    extra = {"spans": os.path.relpath(spans_path, ROOT), "untraced_wall_s": plain.wall_s,
             "traced_wall_s": traced_run.wall_s, "parallel_wall_s": parallel.wall_s,
             "parallel_workers": nproc if parallel is not plain else 1}
    return metrics, runs, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vlcrf", "cli.py")):
        print(f"bench: no vlcrf source under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = SRC
    api = load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](api, args.seed, args.quick, out_dir, nproc)

    measure = traced if args.trace else untraced
    values, runs, extra = measure(workload, api, args, nproc, out_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = attempted > 0 and failed == 0

    first_pass = runs[0].passes()[0].outcomes
    gaps = [g for o in first_pass for g in o.gaps]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "params": workload.params(),
        "environment": environment(nproc),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "objective_mean_bits": _mean([f for o in first_pass for f in o.objectives]),
        "oracle_gap_max_bits": max(gaps) if gaps else None,
        "output_sha256": {str(k): v for k, v in workload.digests.items()},
        "problems": [p for r in runs for o in r.outcomes for p in o.problems][:50],
        **extra,
    }
    record_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
