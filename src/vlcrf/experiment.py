"""Seeded experiment harness: config files, scenario generation, sweeps.

Configs are flat ``key = value`` text files with dotted section names;
``KNOWN_KEYS`` lists every key and ``build_config`` holds the defaults.
Five keys are accepted, parsed and range-checked but set nothing:
``solver.restarts``, ``solver.seed``, ``solver.subproblem_tolerance`` and
``solver.max_inner_iterations`` belonged to the multi-start DCA solver that
the certified concave solve replaced, and ``noise.eve_dl`` has no use
because no downlink secrecy is modeled.

All randomness derives from the mandatory seed (>= 0) plus the trial index, so
any run is reproducible byte for byte: identical configs produce identical
CSVs regardless of worker count.

Minimum-rate sweeps walk each trial from the highest target downward and
warm-start every solve from the previous (tighter) solution, which makes
the per-trial objective curve monotone by construction: the previous
answer stays feasible once the constraint relaxes, and the solver keeps
the better of its start and its own answer.  The trials run in blocks
(``_rmin_chain_block``): one ``dc_solver.solve_rows`` call takes a rate
target for every trial of the block at once.  A row's bytes do not depend
on its block, because the solver's row reductions add each row as a solve
of that row alone would.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from vlcrf.dc_solver import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    DcaSettings,
    FeasibleSet,
    allocation_violation,
    check_feasibility,
    dca_solve,
    initial_allocation,
    solve_rows,
    violation_rows,
)
from vlcrf.link_budget import (
    ScenarioChannels,
    check_fractions,
    clamped_secrecy_rows,
    clamped_secrecy_sum,
    dl_rate_coefficients,
    dl_sum_rate,
    secrecy_capacity_user,
)
from vlcrf.reference_oracle import GridSpec, compare, grid_search
from vlcrf.rf_channel import MIXING_NORMALIZED, MIXING_UNNORMALIZED, RicianConfig, sample_rician_gain
from vlcrf.vlc_channel import (
    CONCENTRATOR_ANGLE_DEPENDENT,
    CONCENTRATOR_CONSTANT,
    LedConfig,
    PhotodiodeConfig,
    UserTerminal,
    Vec3,
    vlc_channel_gain,
)

SWEEP_RMIN = "rmin"
SWEEP_RMIN_FRACTION = "rmin_fraction"
SWEEP_USERS = "users"

ROWS_FILE = "sweep_rows.csv"
AGG_FILE = "sweep_agg.csv"
REPORT_FILE = "allocation_report.csv"

FEASIBILITY_AUDIT_TOL = 1e-8


class ConfigError(ValueError):
    """Raised for unknown keys, unparsable values or invariant violations."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    trials: int
    output_dir: str
    workers: int | None             # None: one worker per CPU
    room: tuple[float, float, float]
    led: LedConfig
    pd: PhotodiodeConfig
    concentrator_model: str
    rician: RicianConfig
    rf_mixing: str
    ap_position: Vec3
    noise_user_dl: float
    noise_user_ul: float
    noise_eve_ul: float
    eta: float
    users_count: int
    users_positions: tuple[Vec3, ...] | None
    users_height: float
    users_list: tuple[int, ...] | None
    eve_position: Vec3 | None       # None: uniform in the room volume per trial
    r_min: float
    r_min_fraction: float | None
    sweep_kind: str | None
    sweep_values: tuple[float, ...] | None
    solver: DcaSettings
    oracle_spec: GridSpec


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_vec3(raw: str, key: str) -> Vec3:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'x,y,z', got {raw!r}")
    return Vec3(*(_parse_float(p, key) for p in parts))


def _parse_float_list(raw: str, key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(_parse_float(p, key) for p in parts)


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(_parse_int(p, key) for p in parts)


def _parse_positions(raw: str, key: str) -> tuple[Vec3, ...]:
    groups = [g.strip() for g in raw.split(";") if g.strip()]
    if not groups:
        raise ConfigError(f"{key}: expected 'x,y,z; x,y,z; ...', got {raw!r}")
    return tuple(_parse_vec3(g, key) for g in groups)


KNOWN_KEYS = {
    "seed", "trials", "output.dir", "runtime.workers",
    "room.width", "room.depth", "room.height",
    "led.position", "led.orientation", "led.power", "led.dc_offset", "led.semi_angle",
    "pd.area", "pd.responsivity", "pd.fov", "pd.filter_gain", "pd.refractive_index",
    "concentrator.model",
    "rf.k_factor", "rf.path_loss_exponent", "rf.los_reference_gain", "rf.mixing",
    "ap.position",
    "noise.user_dl", "noise.user_ul", "noise.eve_dl", "noise.eve_ul",
    "harvest.efficiency",
    "users.count", "users.positions", "users.height", "users.list",
    "eve.position",
    "rate.min", "rate.min_fraction",
    "sweep.kind", "sweep.start", "sweep.stop", "sweep.points", "sweep.values",
    "solver.epsilon", "solver.max_iterations", "solver.subproblem_tolerance",
    "solver.restarts", "solver.seed", "solver.max_inner_iterations",
    "oracle.resolution", "oracle.refine_rounds", "oracle.refine_shrink",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from raw key/value strings."""
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "seed" not in raw:
        raise ConfigError("seed: mandatory for reproducibility, none given")
    seed = _parse_int(raw["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")

    width = _parse_float(raw.get("room.width", "5.0"), "room.width")
    depth = _parse_float(raw.get("room.depth", "5.0"), "room.depth")
    height = _parse_float(raw.get("room.height", "3.0"), "room.height")
    if min(width, depth, height) <= 0:
        raise ConfigError("room dimensions must be positive")
    ceiling_center = Vec3(width / 2.0, depth / 2.0, height)

    def _component(section: str, factory, **kwargs):
        try:
            return factory(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{section}: {err}") from None

    led = _component(
        "led",
        LedConfig,
        position=_parse_vec3(raw["led.position"], "led.position") if "led.position" in raw else ceiling_center,
        orientation=_parse_vec3(raw["led.orientation"], "led.orientation") if "led.orientation" in raw else Vec3(0.0, 0.0, -1.0),
        p_led=_parse_float(raw.get("led.power", "1.0"), "led.power"),
        dc_offset=_parse_float(raw.get("led.dc_offset", "2.0"), "led.dc_offset"),
        semi_angle_half=_parse_float(raw.get("led.semi_angle", "60.0"), "led.semi_angle"),
    )
    pd = _component(
        "pd",
        PhotodiodeConfig,
        area=_parse_float(raw.get("pd.area", "1e-4"), "pd.area"),
        responsivity=_parse_float(raw.get("pd.responsivity", "0.54"), "pd.responsivity"),
        fov=_parse_float(raw.get("pd.fov", "60.0"), "pd.fov"),
        filter_gain=_parse_float(raw.get("pd.filter_gain", "1.0"), "pd.filter_gain"),
        refractive_index=_parse_float(raw.get("pd.refractive_index", "1.5"), "pd.refractive_index"),
    )
    concentrator_model = raw.get("concentrator.model", CONCENTRATOR_CONSTANT)
    if concentrator_model not in (CONCENTRATOR_CONSTANT, CONCENTRATOR_ANGLE_DEPENDENT):
        raise ConfigError(f"concentrator.model: unknown model {concentrator_model!r}")
    rician = _component(
        "rf",
        RicianConfig,
        k_factor=_parse_float(raw.get("rf.k_factor", "2.0"), "rf.k_factor"),
        los_reference_gain=_parse_float(raw.get("rf.los_reference_gain", "1e-3"), "rf.los_reference_gain"),
        path_loss_exponent=_parse_float(raw.get("rf.path_loss_exponent", "2.0"), "rf.path_loss_exponent"),
    )
    rf_mixing = raw.get("rf.mixing", MIXING_NORMALIZED)
    if rf_mixing not in (MIXING_NORMALIZED, MIXING_UNNORMALIZED):
        raise ConfigError(f"rf.mixing: unknown mixing {rf_mixing!r}")
    ap_position = _parse_vec3(raw["ap.position"], "ap.position") if "ap.position" in raw else ceiling_center

    noise = {}
    for short, key in (
        ("user_dl", "noise.user_dl"), ("user_ul", "noise.user_ul"),
        ("eve_dl", "noise.eve_dl"), ("eve_ul", "noise.eve_ul"),
    ):
        noise[short] = _parse_float(raw.get(key, "1e-14"), key)
        if noise[short] <= 0:
            raise ConfigError(f"{key}: noise power must be > 0")
    eta = _parse_float(raw.get("harvest.efficiency", "0.44"), "harvest.efficiency")
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"harvest.efficiency: must lie in (0, 1], got {eta!r}")

    users_positions = (
        _parse_positions(raw["users.positions"], "users.positions")
        if "users.positions" in raw else None
    )
    if "users.count" in raw:
        users_count = _parse_int(raw["users.count"], "users.count")
        if users_positions is not None and len(users_positions) != users_count:
            raise ConfigError(
                f"users.positions: got {len(users_positions)} positions for users.count = {users_count}"
            )
    else:
        users_count = len(users_positions) if users_positions is not None else 4
    if users_count < 1:
        raise ConfigError("users.count: need at least one user")
    users_height = _parse_float(raw.get("users.height", "0.0"), "users.height")
    if users_positions is not None:
        for i, p in enumerate(users_positions):
            if not (0.0 <= p.x <= width and 0.0 <= p.y <= depth and 0.0 <= p.z <= height):
                raise ConfigError(f"users.positions: user {i} at {p} lies outside the room")
    users_list = _parse_int_list(raw["users.list"], "users.list") if "users.list" in raw else None
    if users_list is not None:
        if any(k < 1 for k in users_list):
            raise ConfigError("users.list: user counts must be >= 1")
        if users_positions is not None:
            raise ConfigError("users.list: cannot combine with explicit users.positions")

    eve_raw = raw.get("eve.position", "random")
    eve_position = None if eve_raw == "random" else _parse_vec3(eve_raw, "eve.position")

    r_min = _parse_float(raw.get("rate.min", "0.0"), "rate.min")
    if r_min < 0:
        raise ConfigError("rate.min: must be >= 0")
    r_min_fraction = (
        _parse_float(raw["rate.min_fraction"], "rate.min_fraction")
        if "rate.min_fraction" in raw else None
    )
    if r_min_fraction is not None:
        if not 0.0 <= r_min_fraction < 1.0:
            raise ConfigError("rate.min_fraction: must lie in [0, 1)")
        if r_min > 0:
            raise ConfigError("rate.min and rate.min_fraction are mutually exclusive")

    sweep_kind = raw.get("sweep.kind")
    sweep_values: tuple[float, ...] | None = None
    if sweep_kind is not None:
        if sweep_kind not in (SWEEP_RMIN, SWEEP_RMIN_FRACTION, SWEEP_USERS):
            raise ConfigError(f"sweep.kind: unknown kind {sweep_kind!r}")
        if "sweep.values" in raw:
            if sweep_kind == SWEEP_USERS:
                sweep_values = tuple(float(v) for v in _parse_int_list(raw["sweep.values"], "sweep.values"))
            else:
                sweep_values = _parse_float_list(raw["sweep.values"], "sweep.values")
        else:
            if sweep_kind == SWEEP_USERS:
                raise ConfigError("sweep.values: required for a users sweep")
            start = _parse_float(raw.get("sweep.start", "0.0"), "sweep.start")
            stop = _parse_float(raw.get("sweep.stop", "0.95"), "sweep.stop")
            points = _parse_int(raw.get("sweep.points", "20"), "sweep.points")
            if points < 2:
                raise ConfigError("sweep.points: need at least 2 points")
            if stop < start:
                raise ConfigError("sweep.stop: must be >= sweep.start")
            sweep_values = tuple(float(v) for v in np.linspace(start, stop, points))
        if sweep_kind == SWEEP_RMIN_FRACTION and any(not 0.0 <= v < 1.0 for v in sweep_values):
            raise ConfigError("sweep values: fractions must lie in [0, 1)")
        if any(v < 0 for v in sweep_values):
            raise ConfigError("sweep values: must be >= 0")
        if sweep_kind == SWEEP_USERS and users_positions is not None:
            raise ConfigError("sweep.kind: a users sweep cannot fix explicit users.positions")
    elif any(k.startswith("sweep.") for k in raw):
        raise ConfigError("sweep.kind: required when other sweep.* keys are present")
    if users_list is not None and sweep_kind not in (SWEEP_RMIN, SWEEP_RMIN_FRACTION):
        raise ConfigError("users.list: only applies to r_min sweeps")

    try:
        solver = DcaSettings(
            epsilon=_parse_float(raw.get("solver.epsilon", "1e-8"), "solver.epsilon"),
            max_iterations=_parse_int(raw.get("solver.max_iterations", "500"), "solver.max_iterations"),
        )
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from None
    # accepted and checked, but ignored (see the module docstring)
    _parse_int(raw.get("solver.seed", "0"), "solver.seed")
    if _parse_float(raw.get("solver.subproblem_tolerance", "1e-9"), "solver.subproblem_tolerance") <= 0:
        raise ConfigError("solver: subproblem_tolerance must be > 0")
    for key in ("solver.restarts", "solver.max_inner_iterations"):
        if _parse_int(raw.get(key, "1"), key) < 1:
            raise ConfigError(f"solver: {key.split('.')[1]} must be >= 1")
    try:
        oracle_spec = GridSpec(
            resolution=_parse_int(raw.get("oracle.resolution", "256"), "oracle.resolution"),
            refine_rounds=_parse_int(raw.get("oracle.refine_rounds", "3"), "oracle.refine_rounds"),
            refine_shrink=_parse_float(raw.get("oracle.refine_shrink", "0.2"), "oracle.refine_shrink"),
        )
    except ValueError as err:
        raise ConfigError(f"oracle: {err}") from None

    trials = _parse_int(raw.get("trials", "1"), "trials")
    if trials < 1:
        raise ConfigError("trials: must be >= 1")
    workers_raw = raw.get("runtime.workers", "auto")
    if workers_raw == "auto":
        workers = None
    else:
        workers = _parse_int(workers_raw, "runtime.workers")
        if workers < 1:
            raise ConfigError("runtime.workers: must be >= 1 or 'auto'")

    return ExperimentConfig(
        seed=seed,
        trials=trials,
        output_dir=raw.get("output.dir", "out"),
        workers=workers,
        room=(width, depth, height),
        led=led,
        pd=pd,
        concentrator_model=concentrator_model,
        rician=rician,
        rf_mixing=rf_mixing,
        ap_position=ap_position,
        noise_user_dl=noise["user_dl"],
        noise_user_ul=noise["user_ul"],
        noise_eve_ul=noise["eve_ul"],
        eta=eta,
        users_count=users_count,
        users_positions=users_positions,
        users_height=users_height,
        users_list=users_list,
        eve_position=eve_position,
        r_min=r_min,
        r_min_fraction=r_min_fraction,
        sweep_kind=sweep_kind,
        sweep_values=sweep_values,
        solver=solver,
        oracle_spec=oracle_spec,
    )


def load_config(path: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load and validate a config file; ``overrides`` win over file values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from None
    raw = parse_config_text(text)
    if overrides:
        raw.update(overrides)
    return build_config(raw)


# Both presets pin a stronger RF link budget than the library default:
# the trade-off structure of the secrecy-vs-rate curves needs uplink SNR
# constants well above the noise floor, and no RF link values are part of
# the published parameter table.
PRESETS: dict[str, dict[str, str]] = {
    # secrecy vs DL rate trade-off curves for several user counts
    "fig3": {
        "seed": "20240",
        "trials": "200",
        "sweep.kind": SWEEP_RMIN_FRACTION,
        "sweep.start": "0.0",
        "sweep.stop": "0.95",
        "sweep.points": "20",
        "users.list": "1,2,4",
        "rf.los_reference_gain": "0.1",
    },
    # per-user slot allocation report for a single seeded 4-user scenario
    "fig4": {
        "seed": "12",
        "trials": "1",
        "users.count": "4",
        "rate.min_fraction": "0.6",
        "rf.los_reference_gain": "0.1",
    },
}


def preset_config(name: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Build a named preset, optionally overlaid with explicit settings."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    raw = dict(PRESETS[name])
    if overrides:
        raw.update(overrides)
    return build_config(raw)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

def _distance(p: Vec3, q: Vec3) -> float:
    return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)


def generate_scenario(cfg: ExperimentConfig, trial: int) -> tuple[ScenarioChannels, FeasibleSet]:
    """Deterministic scenario for (config, trial): placements, fading, targets.

    Three independent substreams (user placement, eavesdropper placement,
    fading) derive from (seed, trial), so explicit user positions leave the
    fading draws unchanged.  Users outside the LED field of view get a zero
    gain and a warning; the scenario stays valid.
    """
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    ss = np.random.SeedSequence([cfg.seed, trial])
    geom_rng, eve_rng, fading_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    width, depth, height = cfg.room

    if cfg.users_positions is not None:
        positions = list(cfg.users_positions)
    else:
        xs = geom_rng.uniform(0.0, width, cfg.users_count)
        ys = geom_rng.uniform(0.0, depth, cfg.users_count)
        positions = [Vec3(float(x), float(y), cfg.users_height) for x, y in zip(xs, ys)]

    if cfg.eve_position is not None:
        eve = cfg.eve_position
    else:
        eve = Vec3(
            float(eve_rng.uniform(0.0, width)),
            float(eve_rng.uniform(0.0, depth)),
            float(eve_rng.uniform(0.0, height)),
        )

    g = np.empty(len(positions))
    for k, pos in enumerate(positions):
        user = UserTerminal(id=k, position=pos, pd=cfg.pd)
        g[k] = vlc_channel_gain(cfg.led, user, cfg.concentrator_model)
        if g[k] == 0.0:
            warnings.warn(f"user {k} at {pos} is outside the LED field of view; VLC gain is 0")

    h = np.empty(len(positions))
    h_e = np.empty(len(positions))
    for k, pos in enumerate(positions):
        d_ap = _distance(pos, cfg.ap_position)
        if d_ap <= 0.0:
            raise ConfigError(f"user {k} coincides with the access point")
        h[k] = sample_rician_gain(cfg.rician, d_ap, fading_rng, cfg.rf_mixing).h_mag
    for k, pos in enumerate(positions):
        d_eve = _distance(pos, eve)
        if d_eve <= 0.0:
            raise ConfigError(f"user {k} coincides with the eavesdropper position")
        h_e[k] = sample_rician_gain(cfg.rician, d_eve, fading_rng, cfg.rf_mixing).h_mag

    scenario = ScenarioChannels(
        g=g,
        h=h,
        h_e=h_e,
        sigma2_dl=np.full(len(positions), cfg.noise_user_dl),
        sigma2_ul=np.full(len(positions), cfg.noise_user_ul),
        sigma2_e=cfg.noise_eve_ul,
        eta=cfg.eta,
        i_d=cfg.led.dc_offset,
        p_led=cfg.led.p_led,
    )
    coeffs = dl_rate_coefficients(scenario)
    if cfg.r_min_fraction is not None:
        r_min = cfg.r_min_fraction * float(np.max(coeffs))
    else:
        r_min = cfg.r_min
    return scenario, FeasibleSet(coeffs, r_min)


# ---------------------------------------------------------------------------
# single solves and sweep rows
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _pack_fractions(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _audit_row(viol: float, r_min: float) -> None:
    """Refuse to emit an allocation that violates its feasible set beyond FEASIBILITY_AUDIT_TOL."""
    if viol > FEASIBILITY_AUDIT_TOL:
        raise RuntimeError(
            f"emitted allocation violates the feasible set by {viol!r} (r_min = {r_min!r})"
        )


def _solved_row(sweep_value, users, trial, r_min, *, objective, clamped, dl_rate,
                tau_dl, tau_ul, iterations, status, gap) -> dict:
    """One solved sweep row; ``gap_bits`` rides along for callers and is not written."""
    return {
        "sweep_value": sweep_value,
        "users": users,
        "trial": trial,
        "r_min": r_min,
        "objective_bits": objective,
        "clamped_secrecy_sum": clamped,
        "dl_rate_achieved": dl_rate,
        "tau_dl": _pack_fractions(tau_dl),
        "tau_ul": _pack_fractions(tau_ul),
        "iterations": iterations,
        "status": status,
        "gap_bits": gap,
    }


def _infeasible_row(sweep_value, users, trial, r_min) -> dict:
    return {
        "sweep_value": sweep_value,
        "users": users,
        "trial": trial,
        "r_min": r_min,
        "objective_bits": None,
        "clamped_secrecy_sum": None,
        "dl_rate_achieved": None,
        "tau_dl": None,
        "tau_ul": None,
        "iterations": 0,
        "status": STATUS_INFEASIBLE,
        "gap_bits": None,
    }


def _rmin_chain_block(cfg: ExperimentConfig, users: int, trials: range | list[int]) -> list[list[dict]]:
    """Rows of an r_min sweep for a block of trials: per trial, its rows in sweep-value order.

    Every trial walks the targets tightest first, each solve warm-started
    from the trial's previous raw answer (the first from
    ``initial_allocation``); a target beyond a trial's best rate gives an
    infeasible row and leaves its chain as it was.  One ``solve_rows`` call
    per target solves the block's feasible trials together.  The emitted
    fractions get ``Allocation``'s checks and the feasibility audit, row by
    row, and a row is what a ``dca_solve`` chain of its trial alone gives,
    byte for byte.
    """
    sub = dataclasses.replace(cfg, users_count=users, r_min=0.0, r_min_fraction=None)
    problems = [generate_scenario(sub, trial) for trial in trials]
    a = np.array([s.a_user() for s, _ in problems])
    a_e = np.array([s.a_eve() for s, _ in problems])
    c = np.array([fs.rate_coeffs for _, fs in problems])
    bound = c.max(axis=1)
    chain_dl, chain_ul = np.zeros_like(c), np.zeros_like(c)
    chained = np.zeros(len(problems), dtype=bool)
    rows: list[list] = [[None] * len(cfg.sweep_values) for _ in problems]
    order = sorted(range(len(cfg.sweep_values)), key=lambda i: -cfg.sweep_values[i])
    for idx in order:
        value = cfg.sweep_values[idx]
        r_min = value * bound if cfg.sweep_kind == SWEEP_RMIN_FRACTION else np.full(len(problems), value)
        for i in np.flatnonzero(r_min > bound):
            rows[i][idx] = _infeasible_row(value, users, trials[i], float(r_min[i]))
        live = np.flatnonzero(r_min <= bound)
        if not live.size:
            continue
        for i in live[~chained[live]]:
            start = initial_allocation(FeasibleSet(c[i], float(r_min[i])))
            chain_dl[i], chain_ul[i] = start.tau_dl, start.tau_ul
        chained[live] = True
        # relaxed targets continue from the previous optimum, which both
        # guarantees the per-trial monotone curve and keeps the sweep cheap
        out = solve_rows(a[live], a_e[live], c[live], r_min[live], chain_dl[live], chain_ul[live], cfg.solver)
        check_fractions(out.tau_dl, out.tau_ul)
        check_fractions(out.raw_tau_dl, out.raw_tau_ul)
        chain_dl[live], chain_ul[live] = out.raw_tau_dl, out.raw_tau_ul
        viol = violation_rows(c[live], r_min[live], out.tau_dl, out.tau_ul)
        worst = int(np.argmax(viol))
        _audit_row(float(viol[worst]), float(r_min[live[worst]]))
        clamped = clamped_secrecy_rows(a[live], a_e[live], out.tau_dl, out.tau_ul)
        dl_rate = np.vecdot(c[live], out.tau_dl)  # dl_sum_rate: c holds the scenarios' dl_rate_coefficients
        for n, i in enumerate(live):
            rows[i][idx] = _solved_row(
                value, users, trials[i], float(r_min[i]),
                objective=float(out.objective[n]), clamped=float(clamped[n]), dl_rate=float(dl_rate[n]),
                tau_dl=out.tau_dl[n], tau_ul=out.tau_ul[n], iterations=int(out.iterations[n]),
                status=STATUS_CONVERGED if out.converged[n] else STATUS_MAX_ITERATIONS,
                gap=float(out.gap_bits[n]),
            )
    return rows


def _users_rows(cfg: ExperimentConfig, users: int, trial: int) -> list[dict]:
    sub = dataclasses.replace(cfg, users_count=users)
    scenario, fs = generate_scenario(sub, trial)
    result = dca_solve(scenario, fs, cfg.solver)
    if result.status == STATUS_INFEASIBLE:
        return [_infeasible_row(users, users, trial, fs.r_min)]
    alloc = result.allocation
    _audit_row(allocation_violation(fs, alloc), fs.r_min)
    return [_solved_row(
        users, users, trial, fs.r_min,
        objective=result.objective, clamped=clamped_secrecy_sum(scenario, alloc),
        dl_rate=dl_sum_rate(scenario, alloc), tau_dl=alloc.tau_dl, tau_ul=alloc.tau_ul,
        iterations=result.iterations, status=result.status, gap=result.gap_bits,
    )]


def _sweep_task(payload) -> tuple[int, range, list[list[dict]]]:
    """Rows of one (user count, trial block) task: per trial, its rows."""
    cfg, k_index, users, trials = payload
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if cfg.sweep_kind == SWEEP_USERS:
            rows = [_users_rows(cfg, users, trial) for trial in trials]
        else:
            rows = _rmin_chain_block(cfg, users, trials)
    return k_index, trials, rows


ROW_COLUMNS = (
    "sweep_value", "users", "trial", "r_min", "objective_bits",
    "clamped_secrecy_sum", "dl_rate_achieved", "tau_dl", "tau_ul",
    "iterations", "status",
)

AGG_COLUMNS = (
    "sweep_value", "users", "rows", "objective_mean", "objective_std",
    "clamped_mean", "clamped_std", "dl_rate_mean", "dl_rate_std",
)


def _write_csv(path: str, comment: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row["users"], row["sweep_value"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        users, sweep_value = key
        solved = [r for r in groups[key] if r["status"] != STATUS_INFEASIBLE]
        entry = {
            "sweep_value": sweep_value,
            "users": users,
            "rows": len(solved),
            "objective_mean": None, "objective_std": None,
            "clamped_mean": None, "clamped_std": None,
            "dl_rate_mean": None, "dl_rate_std": None,
        }
        if solved:
            for prefix, column in (
                ("objective", "objective_bits"),
                ("clamped", "clamped_secrecy_sum"),
                ("dl_rate", "dl_rate_achieved"),
            ):
                values = np.array([r[column] for r in solved], dtype=np.float64)
                entry[f"{prefix}_mean"] = float(np.mean(values))
                entry[f"{prefix}_std"] = float(np.std(values))
        out.append(entry)
    return out


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute the configured sweep; returns output paths and row counts.

    Emits one row per (sweep value, trial) plus a mean/population-std
    aggregate per sweep value.  Infeasible points are recorded with status
    "infeasible" rather than dropped.  An r_min sweep runs one task per
    (user count, trial block), the trials split into one contiguous block
    per worker; a users sweep runs one task per (user count, trial).  A
    row's bytes do not depend on its block, and the output is an ordered
    merge, so the worker count never changes bytes.
    """
    if cfg.sweep_kind is None:
        raise ConfigError("sweep.kind: a sweep requires sweep.kind (or use a preset)")
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)

    if cfg.sweep_kind == SWEEP_USERS:
        k_values = [int(v) for v in cfg.sweep_values]
    else:
        k_values = list(cfg.users_list) if cfg.users_list else [cfg.users_count]
    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    size = 1 if cfg.sweep_kind == SWEEP_USERS else -(-cfg.trials // workers)  # one r_min block per worker
    blocks = [range(first, min(first + size, cfg.trials)) for first in range(0, cfg.trials, size)]
    tasks = [(cfg, k_index, users, block) for k_index, users in enumerate(k_values) for block in blocks]
    workers = max(1, min(workers, len(tasks)))
    if workers == 1:
        results = [_sweep_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))

    rows: list[dict] = []
    by_task = {
        (k_index, trial): trial_rows
        for k_index, trials, block_rows in results
        for trial, trial_rows in zip(trials, block_rows)
    }
    for k_index, users in enumerate(k_values):
        if cfg.sweep_kind == SWEEP_USERS:
            for trial in range(cfg.trials):
                rows.extend(by_task[(k_index, trial)])
        else:
            per_trial = [by_task[(k_index, trial)] for trial in range(cfg.trials)]
            for value_idx in range(len(cfg.sweep_values)):
                for trial in range(cfg.trials):
                    rows.append(per_trial[trial][value_idx])

    rows_path = os.path.join(out_dir, ROWS_FILE)
    agg_path = os.path.join(out_dir, AGG_FILE)
    comment = (
        "# one row per (sweep_value, users, trial); tau columns pack per-user "
        "fractions comma-separated; objective/rates in bits/s/Hz"
    )
    _write_csv(rows_path, comment, ROW_COLUMNS, rows)
    agg = _aggregate(rows)
    agg_comment = (
        "# per (sweep_value, users) aggregates over solved rows; "
        "std is the population standard deviation"
    )
    _write_csv(agg_path, agg_comment, AGG_COLUMNS, agg)
    solved = sum(1 for r in rows if r["status"] != STATUS_INFEASIBLE)
    return {
        "rows_path": rows_path,
        "agg_path": agg_path,
        "rows": len(rows),
        "solved": solved,
    }


REPORT_COLUMNS = (
    "user", "tau_dl", "tau_ul", "vlc_gain", "rate_coeff_bits",
    "secrecy_bits", "clamped_secrecy_bits",
)


def run_report(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Solve the seeded scenario (trial 0) and emit the per-user slot report."""
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    scenario, fs = generate_scenario(cfg, 0)
    result = dca_solve(scenario, fs, cfg.solver)
    path = os.path.join(out_dir, REPORT_FILE)
    if result.status == STATUS_INFEASIBLE:
        _write_csv(path, f"# infeasible: r_min = {_fmt(fs.r_min)}", REPORT_COLUMNS, [])
        return {"report_path": path, "status": result.status, "result": result, "r_min": fs.r_min}
    alloc = result.allocation
    _audit_row(allocation_violation(fs, alloc), fs.r_min)
    coeffs = fs.rate_coeffs
    rows = []
    for k in range(scenario.K):
        secrecy = secrecy_capacity_user(scenario, k, float(alloc.tau_dl[k]), float(alloc.tau_ul[k]))
        rows.append({
            "user": k,
            "tau_dl": float(alloc.tau_dl[k]),
            "tau_ul": float(alloc.tau_ul[k]),
            "vlc_gain": float(scenario.g[k]),
            "rate_coeff_bits": float(coeffs[k]),
            "secrecy_bits": secrecy,
            "clamped_secrecy_bits": max(0.0, secrecy),
        })
    comment = (
        f"# single-scenario allocation report; objective_bits={_fmt(result.objective)} "
        f"r_min={_fmt(fs.r_min)} dl_rate={_fmt(dl_sum_rate(scenario, alloc))} status={result.status}"
    )
    _write_csv(path, comment, REPORT_COLUMNS, rows)
    return {"report_path": path, "status": result.status, "result": result, "r_min": fs.r_min}


def run_solve(cfg: ExperimentConfig, oracle: bool = False) -> dict:
    """Solve the seeded scenario (trial 0); optionally cross-check the oracle."""
    scenario, fs = generate_scenario(cfg, 0)
    # an infeasible target skips the oracle, so only a feasible one is refused
    if oracle and scenario.K > 2 and check_feasibility(fs):
        raise ConfigError("--oracle supports K <= 2 only (grid search dimensionality)")
    result = dca_solve(scenario, fs, cfg.solver)
    out = {"result": result, "r_min": fs.r_min, "scenario": scenario, "fs": fs}
    if oracle and result.status != STATUS_INFEASIBLE:
        _, oracle_objective = grid_search(scenario, fs, cfg.oracle_spec)
        out["oracle"] = compare(result, oracle_objective)
    return out
