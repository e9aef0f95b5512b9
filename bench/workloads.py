"""The benchmark's workloads and the loop that drives them through vlcrf.cli.main.

fig3_sweep   `vlcrf sweep --preset fig3` at 50 trials, one worker per CPU:
             the paper's main figure, warm-started r_min chains at K = 1, 2, 4,
             the process pool and the CSV writer.
oracle_check `vlcrf solve --oracle` on the fig4 preset with two users, one call
             per scenario of a 10-scenario panel, grid resolution 64: the grid
             oracle does most of the work, cold multistart solves the rest.

Both workloads keep their scenarios fixed, so that a run's cost does not
swing with which channels a seed happens to draw: with seeded scenarios the
cost of a 200-trial fig3 sweep varied by a quarter between seeds
(interquartile range over the median, ten seeds), and the oracle's grid cost
per solve is bimodal in the channel draw.  The run seed changes the problems
instead: fig3_sweep shifts its 20 r_min fractions by up to half a step, and
oracle_check uses it as solver.seed, the stream of the solver's random
restarts (the grid's work does not depend on it).  The program sees only the
generated arguments and config files.
"""

from __future__ import annotations

import hashlib
import io
import os
import resource
import statistics
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks

FIG3_TRIALS = 50           # 3,000 solves per call, 7-10 s on 2 CPUs: 4-6 passes per run
FIG3_TRACE_TRIALS = 20
FIG3_SHIFT = 0.025         # the seed shifts all 20 rate fractions by up to half their step
ORACLE_SOLVES = 10         # one pass over the panel, 12-15 s: 3 passes per run
ORACLE_TRACE_SOLVES = 4
ORACLE_RESOLUTION = 64     # the grid's share of the work: about 45% at 32, 79% at 48, 95% at 64


@dataclass
class CallResult:
    wall_s: float
    cpu_s: float         # this process plus the children it reaped during the call
    exit_code: int | None
    stdout: str
    error: str | None    # traceback when the call raised


@dataclass
class Outcome:
    """What the checks make of one call."""

    solves: int                  # solves the call attempted
    failed: int                  # of those, how many failed a check
    problems: list[str] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)  # per solved output that passed its checks
    gaps: list[float] = field(default_factory=list)        # oracle - solver, per solve


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_call(main, argv: list[str]) -> CallResult:
    """One in-process CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    exit_code = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = main(argv)
    except Exception:  # a raising call is a failed call, not a benchmark crash
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    return CallResult(wall, _cpu_s() - cpu0, exit_code, out.getvalue(), error)


def _sha256_files(paths) -> dict[str, str]:
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Fig3Sweep:
    name = "fig3_sweep"
    preset = "fig3"
    pooled = True

    def __init__(self, api, seed: int, quick: bool, out_dir: str, workers: int):
        self.api = api
        self.shift = FIG3_SHIFT * float(np.random.default_rng(np.random.SeedSequence(seed)).random())
        self.trials = 2 if quick else FIG3_TRIALS
        self.trace_trials = 1 if quick else FIG3_TRACE_TRIALS
        self.workers = workers
        self.out_dir = out_dir
        self.csv_paths = [os.path.join(out_dir, f) for f in (api.experiment.ROWS_FILE, api.experiment.AGG_FILE)]
        self.digests: dict[int, dict] = {}  # trials -> sha256 of each CSV at the first call
        self._coeffs: dict[tuple[int, int], list[float]] = {}

    def config_text(self, workers: int | None = None) -> str:
        preset = self.api.experiment.PRESETS[self.preset]
        start = float(preset["sweep.start"]) + self.shift
        stop = float(preset["sweep.stop"]) + self.shift
        return f"runtime.workers = {workers or self.workers}\nsweep.start = {start!r}\nsweep.stop = {stop!r}\n"

    def setup_args(self) -> tuple[str, str, int]:
        return self.preset, self.config_text(), int(self.api.experiment.PRESETS[self.preset]["seed"])

    def params(self) -> dict:
        return {"preset": self.preset, "sweep_shift": self.shift, "trials": self.trials,
                "trace_trials": self.trace_trials, "workers": self.workers}

    def batch(self, traced: bool, workers: int) -> list[tuple]:
        path = os.path.join(self.out_dir, f"workers{workers}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(workers))
        trials = self.trace_trials if traced else self.trials
        argv = ["sweep", "--preset", self.preset, "--config", path, "--trials", str(trials), "--out", self.out_dir]
        return [(trials, argv)]

    def digest(self, result: CallResult) -> dict[str, str]:
        if result.exit_code != 0:
            return {"exit_code": str(result.exit_code)}
        return _sha256_files(self.csv_paths)

    def _coeffs_for(self, users: int, trial: int) -> list[float]:
        if (users, trial) not in self._coeffs:
            raw = {k: v for k, v in self.api.experiment.PRESETS[self.preset].items()
                   if not k.startswith("sweep.") and k != "users.list"}
            raw["users.count"] = str(users)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, fs = self.api.experiment.generate_scenario(self.api.experiment.build_config(raw), trial)
            self._coeffs[(users, trial)] = [float(c) for c in fs.rate_coeffs]
        return self._coeffs[(users, trial)]

    def inspect(self, trials, result: CallResult) -> Outcome:
        cfg = self.api.experiment.PRESETS[self.preset]
        expected = trials * int(cfg["sweep.points"]) * len(cfg["users.list"].split(","))
        if result.error is not None or result.exit_code != 0:
            return Outcome(expected, expected, [f"exit code {result.exit_code!r}", result.error or ""])
        self.digests[trials] = self.digest(result)
        rows = checks.read_csv_rows(self.csv_paths[0])
        if len(rows) != expected:
            return Outcome(expected, expected, [f"{len(rows)} rows, expected {expected}"])
        try:
            failures = checks.sweep_row_failures(rows, self._coeffs_for)
            # a row that failed a check is not a solved output
            objectives = [float(r["objective_bits"]) for i, r in enumerate(rows)
                          if i not in failures and r["status"] != checks.STATUS_INFEASIBLE]
        except (KeyError, ValueError) as err:  # a column missing or unparsable
            return Outcome(expected, expected, [f"malformed rows CSV: {err!r}"])
        problems = [f"row {i}: {p}" for i, ps in sorted(failures.items()) for p in ps]
        return Outcome(expected, len(failures), problems, objectives)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.csv_paths)


class OracleCheck:
    name = "oracle_check"
    preset = "fig4"
    pooled = False

    def __init__(self, api, seed: int, quick: bool, out_dir: str, workers: int):
        self.api = api
        self.solver_seed = seed
        self.solves = 2 if quick else ORACLE_SOLVES
        self.trace_solves = 1 if quick else ORACLE_TRACE_SOLVES
        self.resolution = 16 if quick else ORACLE_RESOLUTION
        self.fraction = float(api.experiment.PRESETS[self.preset]["rate.min_fraction"])
        self.config_path = os.path.join(out_dir, "oracle.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text())
        self.digests: dict[int, str] = {}

    def config_text(self) -> str:
        return f"users.count = 2\noracle.resolution = {self.resolution}\nsolver.seed = {self.solver_seed}\n"

    def setup_args(self) -> tuple[str, str, int]:
        return self.preset, self.config_text(), 0

    def params(self) -> dict:
        return {"preset": self.preset, "users.count": 2, "oracle.resolution": self.resolution,
                "solver.seed": self.solver_seed, "scenario_seeds": f"0..{self.solves - 1}",
                "trace_solves": self.trace_solves}

    def batch(self, traced: bool, workers: int) -> list[tuple]:
        count = self.trace_solves if traced else self.solves
        return [(i, ["solve", "--oracle", "--preset", self.preset, "--config", self.config_path, "--seed", str(i)])
                for i in range(count)]

    def digest(self, result: CallResult) -> str:
        return hashlib.sha256(f"{result.exit_code}\n{result.stdout}".encode()).hexdigest()

    def inspect(self, index, result: CallResult) -> Outcome:
        if result.error is not None:
            return Outcome(1, 1, [result.error])
        self.digests[index] = self.digest(result)
        raw = dict(self.api.experiment.PRESETS[self.preset])
        raw.update(self.api.experiment.parse_config_text(self.config_text()))
        raw["seed"] = str(index)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, fs = self.api.experiment.generate_scenario(self.api.experiment.build_config(raw), 0)
        parsed = checks.parse_solve_output(result.stdout)
        problems = checks.solve_failures(result.exit_code, parsed, [float(c) for c in fs.rate_coeffs],
                                         self.fraction, oracle=True)
        solved = (not problems and parsed.get("status") not in (None, checks.STATUS_INFEASIBLE)
                  and "objective_bits" in parsed)
        objectives = [parsed["objective_bits"]] if solved else []
        gap = (parsed["oracle"] or {}).get("gap")
        gaps = [gap] if gap is not None else []
        return Outcome(1, 1 if problems else 0, [f"scenario {index}: {p}" for p in problems], objectives, gaps)

    def output_bytes(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Fig3Sweep, OracleCheck)}


@dataclass
class Run:
    """Whole passes over one batch made by drive(), and what the checks made of each call."""

    batch_len: int
    results: list[CallResult] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def attempted(self) -> int:
        return sum(o.solves for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def solved(self) -> int:
        return sum(len(o.objectives) for o in self.outcomes)

    def passes(self) -> list["Run"]:
        n = self.batch_len
        return [Run(n, self.results[i:i + n], self.outcomes[i:i + n]) for i in range(0, len(self.results), n)]


def drive(workload, batch, main, seconds: float, tracer=None) -> Run:
    """Pass through the batch once, then keep passing while the passes
    measured so far plus one average pass fit in ``seconds``.

    The first call of each batch item is checked in full; a repeated call must
    reproduce the first one's outputs byte for byte.
    """
    run = Run(len(batch))
    first: dict = {}
    while not run.results or run.wall_s * (1 + run.batch_len / len(run.results)) <= seconds:
        for key, argv in batch:
            if tracer is None:
                result = run_call(main, argv)
            else:
                with tracer.request("cli.main"):
                    result = run_call(main, argv)
            if key not in first:
                outcome = workload.inspect(key, result)
                first[key] = outcome
            else:
                outcome = first[key]
                if workload.digest(result) != workload.digests.get(key):
                    outcome = Outcome(outcome.solves, outcome.solves, ["repeated call changed its outputs"])
            run.results.append(result)
            run.outcomes.append(outcome)
    return run


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11], "samples": n}


def call_latency(run: Run) -> dict:
    walls_ms = [1000.0 * r.wall_s for r in run.results]
    return {"calls": len(walls_ms), "p50_ms": statistics.median(walls_ms), "tail_ms": tail(walls_ms)}
