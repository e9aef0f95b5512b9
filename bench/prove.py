"""Repeat the benchmark over several seeds and summarise every metric:

    python3 bench/prove.py [--seeds N ...] [--trace]

For each workload in BENCHMARK.json it runs bench/run.py once per seed
(untraced, run_seconds from BENCHMARK.json), writes the runs to
bench/out/prove.json and reports each end-to-end metric's median, quartiles
and spread: the distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median.  The
spread is compared with the metric's bound.  --trace adds one traced run per
workload on the first seed.  Seeds 1-10 are the default seeds; HELD_OUT_SEED
is kept for confirming a claim on a seed not used while making it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 4099


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_within_bound": spread <= bound, "spread_below_third": spread < bound / 3}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    report = {"seeds": args.seeds, "held_out_seed": HELD_OUT_SEED, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    workload_names = [w["name"] for w in spec["workloads"]]
    for workload in workload_names:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            for m in spec["end_to_end"]
        }
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            entry["traced"] = {"seed": args.seeds[0], **run_once(workload, args.seeds[0], spec["run_seconds"], 1)}
        report["workloads"][workload] = entry
        for name, s in summary.items():
            print(f"  {name}: median {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}"
                  f" (bound {s['bound']})", flush=True)
    record_path = os.path.join(ROOT, "bench", "out", f"result-{workload_names[0]}-seed{args.seeds[0]}-trace0.json")
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            report["environment"] = json.load(fh)["environment"]
    out_path = os.path.join(BENCH_DIR, "out", "prove.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"report -> {os.path.relpath(out_path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
