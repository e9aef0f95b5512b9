"""Self-tests of the benchmark: tiny runs, the output checks, and the
worker-count determinism the fig3_sweep hashes rely on."""

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_missing_program_is_refused(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(BENCH_DIR, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fig3_sweep", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env={"PATH": os.environ.get("PATH", "")},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# two users with c = (2, 1); r_min = sweep_value * max c
COEFFS = [2.0, 1.0]


def _row(value, objective, tau_dl="0.5,0.0", tau_ul="0.5,0.5", status="converged"):
    r_min = value * max(COEFFS)
    return {
        "sweep_value": repr(value), "users": "2", "trial": "0", "r_min": repr(r_min),
        "objective_bits": repr(objective), "dl_rate_achieved": repr(2.0 * float(tau_dl.split(",")[0])),
        "tau_dl": tau_dl, "tau_ul": tau_ul, "status": status,
    }


def _failures(rows):
    return checks.sweep_row_failures(rows, lambda users, trial: COEFFS)


def test_valid_chain_passes():
    rows = [_row(0.0, 1.5), _row(0.25, 1.2), _row(0.5, 1.2, tau_dl="0.5,0.0")]
    assert _failures(rows) == {}


def test_slot_sum_over_one_fails():
    rows = [_row(0.0, 1.5), _row(0.25, 1.2, tau_dl="0.6,0.5")]
    assert list(_failures(rows)) == [1]


def test_rising_chain_fails():
    rows = [_row(0.0, 1.2), _row(0.25, 1.5), _row(0.5, 1.0)]
    assert list(_failures(rows)) == [1]


def test_rate_shortfall_fails():
    rows = [_row(0.5, 1.0, tau_dl="0.4,0.1")]
    assert list(_failures(rows)) == [0]


def test_infeasible_mark_must_match_the_target():
    infeasible = _row(0.5, 1.0, status="infeasible")
    assert list(_failures([infeasible])) == [0]


SOLVE_OUTPUT = """\
status: converged
r_min: 1.2
objective_bits: np.float64(0.75)
iterations: 12
kkt_residual: 1e-12
user 0: tau_dl=0.6 tau_ul=0.25
user 1: tau_dl=0.0 tau_ul=0.75
oracle: objective=0.7 gap=-0.05 rel_tol=0.001 -> {verdict}
"""


def test_solve_output_checks():
    parsed = checks.parse_solve_output(SOLVE_OUTPUT.format(verdict="pass"))
    assert parsed["objective_bits"] == 0.75 and parsed["tau_ul"] == [0.25, 0.75]
    assert checks.solve_failures(0, parsed, COEFFS, 0.6, oracle=True) == []
    assert checks.solve_failures(3, parsed, COEFFS, 0.6, oracle=True) != []
    failed = checks.parse_solve_output(SOLVE_OUTPUT.format(verdict="FAIL"))
    assert checks.solve_failures(0, failed, COEFFS, 0.6, oracle=True) != []
    garbled = checks.parse_solve_output(SOLVE_OUTPUT.format(verdict="pass").replace("tau_ul=0.25", "tau_ul=x"))
    assert checks.solve_failures(0, garbled, COEFFS, 0.6, oracle=True) != []


def _sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_tiny_fig3_bytes_match_across_worker_counts(tmp_path):
    from vlcrf.cli import main

    digests = []
    for workers in (1, 2):
        cfg = tmp_path / f"workers{workers}.cfg"
        cfg.write_text(f"runtime.workers = {workers}\n")
        out = tmp_path / f"out{workers}"
        argv = ["sweep", "--preset", "fig3", "--config", str(cfg), "--seed", "5", "--trials", "2", "--out", str(out)]
        assert main(argv) == 0
        digests.append(_sha256([out / "sweep_rows.csv", out / "sweep_agg.csv"]))
    assert digests[0] == digests[1]


def test_failed_solve_adds_no_throughput(tmp_path):
    import vlcrf.experiment

    oracle = workloads.OracleCheck(SimpleNamespace(experiment=vlcrf.experiment), 1, True, str(tmp_path), 1)
    result = workloads.CallResult(0.1, 0.1, 0, SOLVE_OUTPUT.format(verdict="FAIL"), None)
    outcome = oracle.inspect(0, result)
    assert outcome.failed == 1 and outcome.objectives == []
