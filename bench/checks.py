"""Output checks: every allocation the program emits is re-checked from its
printed or CSV output, independently of the program's own audit.

A solve fails when:
- its call raises or returns the wrong exit code;
- its slot fractions are negative, a slot budget sums past 1 + SUM_SLACK, or
  the DL rate sum(c_k tau_dl_k) falls short of r_min;
- it is marked infeasible although r_min <= max c_k, or solved although
  r_min > max c_k;
- in an r_min sweep, its objective rises above that of the next looser target
  of the same (users, trial) chain, which breaks the monotone curve the sweep
  promises;
- the oracle verdict is FAIL.

The rate coefficients c_k come from the caller, which regenerates each
scenario with the program's scenario generator.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict

STATUS_INFEASIBLE = "infeasible"

SUM_SLACK = 1e-9    # slack on each unit slot budget, as the program's Allocation allows
RATE_TOL = 1e-8     # DL rate shortfall, relative to max(1, r_min), as the program's audit allows
CHAIN_TOL = 1e-9    # rise of a chained objective, relative to max(1, |objective|)
R_MIN_RTOL = 1e-12  # r_min against its definition (fraction * max c_k)


def allocation_failures(tau_dl, tau_ul, coeffs, r_min) -> list[str]:
    """Feasibility problems of one allocation; empty when it is feasible."""
    problems = []
    if len(tau_dl) != len(coeffs) or len(tau_ul) != len(coeffs):
        return [f"expected {len(coeffs)} users, got {len(tau_dl)} DL / {len(tau_ul)} UL fractions"]
    if min(tau_dl + tau_ul) < 0.0:
        problems.append("negative slot fraction")
    for label, taus in (("DL", tau_dl), ("UL", tau_ul)):
        total = math.fsum(taus)
        if total > 1.0 + SUM_SLACK:
            problems.append(f"{label} slots sum to {total!r} > 1")
    rate = math.fsum(c * t for c, t in zip(coeffs, tau_dl))
    if rate < r_min - RATE_TOL * max(1.0, r_min):
        problems.append(f"DL rate {rate!r} below r_min {r_min!r}")
    return problems


def verdict_failures(infeasible: bool, coeffs, r_min: float) -> list[str]:
    """The infeasible status must hold exactly when r_min exceeds every c_k."""
    if infeasible != (r_min > max(coeffs)):
        state = "infeasible" if infeasible else "solved"
        return [f"marked {state} with r_min {r_min!r} and max c_k {max(coeffs)!r}"]
    return []


def _r_min_failures(r_min: float, fraction: float, coeffs) -> list[str]:
    expected = fraction * float(max(coeffs))
    if abs(r_min - expected) > R_MIN_RTOL * max(1.0, expected):
        return [f"r_min {r_min!r} differs from {fraction!r} * max c_k = {expected!r}"]
    return []


def read_csv_rows(path: str) -> list[dict]:
    """Rows of one of the program's CSV files; '#' lines are comments."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _fractions(packed: str) -> list[float]:
    return [float(x) for x in packed.split(",")]


def sweep_row_failures(rows: list[dict], coeffs_for) -> dict[int, list[str]]:
    """Problems per row index of an r_min-fraction sweep's rows CSV.

    ``coeffs_for(users, trial)`` returns that scenario's DL rate coefficients.
    """
    failures: dict[int, list[str]] = defaultdict(list)
    chains: dict[tuple[int, int], list[tuple[float, float, int]]] = defaultdict(list)
    for i, row in enumerate(rows):
        users, trial = int(row["users"]), int(row["trial"])
        coeffs = coeffs_for(users, trial)
        value, r_min = float(row["sweep_value"]), float(row["r_min"])
        infeasible = row["status"] == STATUS_INFEASIBLE
        failures[i] += _r_min_failures(r_min, value, coeffs)
        failures[i] += verdict_failures(infeasible, coeffs, r_min)
        if infeasible:
            continue
        failures[i] += allocation_failures(_fractions(row["tau_dl"]), _fractions(row["tau_ul"]), coeffs, r_min)
        reported = float(row["dl_rate_achieved"])
        if reported < r_min - RATE_TOL * max(1.0, r_min):
            failures[i].append(f"reported DL rate {reported!r} below r_min {r_min!r}")
        chains[(users, trial)].append((value, float(row["objective_bits"]), i))
    for chain in chains.values():
        chain.sort()
        for (v0, f0, _), (v1, f1, i1) in zip(chain, chain[1:]):
            if f1 > f0 + CHAIN_TOL * max(1.0, abs(f0)):
                failures[i1].append(f"objective rises from {f0!r} to {f1!r} as sweep_value goes {v0!r} -> {v1!r}")
    return {i: problems for i, problems in failures.items() if problems}


# a float as the CLI prints it: repr(), which shows numpy scalars as np.float64(...)
_NUMBER = re.compile(r"(?:np\.float64\()?([^()\s]+?)\)?")
_USER_LINE = re.compile(r"^user (\d+): tau_dl=(\S+) tau_ul=(\S+)$")
_ORACLE_LINE = re.compile(r"^oracle: objective=(\S+) gap=(\S+) rel_tol=\S+ -> (pass|FAIL)$")


def _number(text: str) -> float | None:
    match = _NUMBER.fullmatch(text)
    try:
        return float(match.group(1)) if match else None
    except ValueError:
        return None


def parse_solve_output(text: str) -> dict:
    """Fields of `vlcrf solve` output: status, r_min, objective, tau lists, oracle.

    A field whose value does not parse is left out, so the checks report it.
    """
    out: dict = {"tau_dl": [], "tau_ul": [], "oracle": None}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "status":
            out["status"] = value
        elif key in ("r_min", "objective_bits") and (number := _number(value)) is not None:
            out[key] = number
        elif (m := _USER_LINE.match(line)) is not None:
            out["tau_dl"].append(_number(m.group(2)))
            out["tau_ul"].append(_number(m.group(3)))
        elif (m := _ORACLE_LINE.match(line)) is not None:
            out["oracle"] = {"objective": _number(m.group(1)), "gap": _number(m.group(2)),
                             "passed": m.group(3) == "pass"}
    if None in out["tau_dl"] + out["tau_ul"]:
        out["tau_dl"], out["tau_ul"] = [], []
    return out


def solve_failures(exit_code, parsed: dict, coeffs, fraction: float, oracle: bool) -> list[str]:
    """Problems of one `vlcrf solve [--oracle]` call with r_min = fraction * max c_k."""
    if "status" not in parsed or "r_min" not in parsed:
        return ["output lacks the status or r_min line"]
    r_min = parsed["r_min"]
    infeasible = parsed["status"] == STATUS_INFEASIBLE
    problems = _r_min_failures(r_min, fraction, coeffs) + verdict_failures(infeasible, coeffs, r_min)
    expected_code = 3 if infeasible else 0
    if exit_code != expected_code:
        problems.append(f"exit code {exit_code!r}, expected {expected_code}")
    if infeasible:
        return problems
    problems += allocation_failures(parsed["tau_dl"], parsed["tau_ul"], coeffs, r_min)
    if "objective_bits" not in parsed:
        problems.append("output lacks the objective")
    if oracle:
        if parsed["oracle"] is None:
            problems.append("output lacks the oracle verdict")
        elif not parsed["oracle"]["passed"]:
            problems.append(f"oracle verdict FAIL (gap {parsed['oracle']['gap']!r})")
    return problems
