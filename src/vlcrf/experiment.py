"""Seeded experiment harness: config files, scenario generation, sweeps.

Configs are flat ``key = value`` text files with dotted section names;
``KNOWN_KEYS`` lists every key.  The led, pd, rf, solver and oracle
sections get only the keys a config sets, through the tables of
``SECTIONS``, so the field defaults of their dataclasses are the only
defaults of those keys (``led.position`` defaults to the ceiling centre of
the room); ``build_config`` holds the defaults of the other keys.
``load_config`` layers a preset, a config file and overrides (the CLI flags).
Five keys are accepted, parsed and range-checked but set nothing:
``solver.restarts``, ``solver.seed``, ``solver.subproblem_tolerance`` and
``solver.max_inner_iterations`` belonged to the multi-start DCA solver that
the certified concave solve replaced, and ``noise.eve_dl`` has no use
because no downlink secrecy is modeled.

All randomness derives from the mandatory seed (>= 0) plus the trial index, so
any run is reproducible byte for byte: identical configs produce identical
CSVs regardless of worker count.

One block chain (``_rmin_chain_block``) makes the rows of every command.
An r_min sweep walks each trial from the highest target downward and
warm-starts every solve from the previous (tighter) solution, which makes
the per-trial objective curve monotone by construction: the previous
answer stays feasible once the constraint relaxes, and the solver keeps
the better of its start and its own answer.  A users sweep is a chain of
one target per user count, and ``report`` and ``solve`` the chain of one
target of trial 0, so each of their solves is a chain's cold first link.
The trials run in blocks: one ``dc_solver.solve_rows`` call takes a
rate target for every trial of the block at once, so each user count's
trials split into only as many blocks as it takes to give every worker a
task (``run_sweep``); the pool gets the tasks by falling user count.  A
row's bytes do not depend on its block, because the solver's row
reductions add each row as a solve of that row alone would.

The block path is column-wise from the channel draws to the CSV bytes.
``scenario_block`` draws a block's scenarios straight into (N, K) arrays,
the chain keeps each target's results as arrays, and each worker formats
its own rows' CSV text a column at a time; the parent joins the text and
computes the aggregates from the concatenated arrays.  No row is made
that ``dc_solver.audit_rows``, the one rule of a valid allocation,
refuses: the chain stops with its error instead.

Scenario generation is pure data: a user placement outside the LED field of
view is a zero VLC gain, and each ``run_*`` returns how many such placements
its scenarios held ("dark"), which ``cli`` prints as its one notice.  No
code here raises a Python warning.  ``generate_scenario`` is
``scenario_block`` of one trial with its rate target resolved; no command
calls it, and the benchmark's output checks read its rate coefficients.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from vlcrf.dc_solver import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    DcaSettings,
    FeasibleSet,
    audit_rows,
    initial_rows,
    solve_rows,
)
from vlcrf.link_budget import rate_coefficients, snr_constants
from vlcrf.reference_oracle import GridSpec, compare, grid_search
from vlcrf.rf_channel import (
    MIXING_NORMALIZED,
    MIXING_UNNORMALIZED,
    RicianConfig,
    los_component,
    mixing_weights,
    rician_mix,
)
from vlcrf.vlc_channel import (
    CONCENTRATOR_ANGLE_DEPENDENT,
    CONCENTRATOR_CONSTANT,
    LedConfig,
    PhotodiodeConfig,
    Vec3,
    ray_gain,
)

# Stubs: bench/tracing.py wraps these names on this module by getattr, and no
# code calls them; they go when the tracer is repointed (ROADMAP item 1).
(vlc_channel_gain, sample_rician_gain, dl_rate_coefficients, dl_sum_rate, clamped_secrecy_sum,
 secrecy_capacity_user, dca_solve, allocation_violation) = (None,) * 8

SWEEP_RMIN = "rmin"
SWEEP_RMIN_FRACTION = "rmin_fraction"
SWEEP_USERS = "users"

ROWS_FILE = "sweep_rows.csv"
AGG_FILE = "sweep_agg.csv"
REPORT_FILE = "allocation_report.csv"


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


def _parse_list(raw: str, key: str, parse) -> tuple:
    """The non-empty items of a comma-separated list, each through ``parse``."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(parse(p, key) for p in parts)


def _parse_counts(raw: str, key: str) -> tuple[int, ...]:
    """A comma-separated list of user counts, each >= 1."""
    counts = _parse_list(raw, key, _parse_int)
    if any(k < 1 for k in counts):
        raise ConfigError(f"{key}: user counts must be >= 1")
    return counts


def _parse_positions(raw: str, key: str) -> tuple[Vec3, ...]:
    groups = [g.strip() for g in raw.split(";") if g.strip()]
    if not groups:
        raise ConfigError(f"{key}: expected 'x,y,z; x,y,z; ...', got {raw!r}")
    return tuple(_parse_vec3(g, key) for g in groups)


# Each section dataclass owns its defaults: key -> (field, parser), in parse
# order, and ``_section`` passes the class only the keys the config gives.
SECTIONS = {
    "led": (LedConfig, {
        "led.position": ("position", _parse_vec3),
        "led.orientation": ("orientation", _parse_vec3),
        "led.power": ("p_led", _parse_float),
        "led.dc_offset": ("dc_offset", _parse_float),
        "led.semi_angle": ("semi_angle_half", _parse_float),
    }),
    "pd": (PhotodiodeConfig, {
        "pd.area": ("area", _parse_float),
        "pd.responsivity": ("responsivity", _parse_float),
        "pd.fov": ("fov", _parse_float),
        "pd.filter_gain": ("filter_gain", _parse_float),
        "pd.refractive_index": ("refractive_index", _parse_float),
    }),
    "rf": (RicianConfig, {
        "rf.k_factor": ("k_factor", _parse_float),
        "rf.los_reference_gain": ("los_reference_gain", _parse_float),
        "rf.path_loss_exponent": ("path_loss_exponent", _parse_float),
    }),
    "solver": (DcaSettings, {
        "solver.epsilon": ("epsilon", _parse_float),
        "solver.max_iterations": ("max_iterations", _parse_int),
    }),
    "oracle": (GridSpec, {
        "oracle.resolution": ("resolution", _parse_int),
        "oracle.refine_rounds": ("refine_rounds", _parse_int),
        "oracle.refine_shrink": ("refine_shrink", _parse_float),
    }),
}

KNOWN_KEYS = {key for _, keys in SECTIONS.values() for key in keys} | {
    "seed", "trials", "output.dir", "runtime.workers",
    "room.width", "room.depth", "room.height",
    "concentrator.model", "rf.mixing", "ap.position",
    "noise.user_dl", "noise.user_ul", "noise.eve_dl", "noise.eve_ul",
    "harvest.efficiency",
    "users.count", "users.positions", "users.height", "users.list",
    "eve.position",
    "rate.min", "rate.min_fraction",
    "sweep.kind", "sweep.start", "sweep.stop", "sweep.points", "sweep.values",
    "solver.subproblem_tolerance", "solver.restarts", "solver.seed", "solver.max_inner_iterations",
}


def _section(raw: dict[str, str], name: str, **given):
    """Section ``name``'s dataclass from the keys ``raw`` gives, over ``given`` and the class defaults."""
    factory, keys = SECTIONS[name]
    fields = dict(given)
    for key, (field, parse) in keys.items():
        if key in raw:
            fields[field] = parse(raw[key], key)
    try:
        return factory(**fields)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from None


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

    led = _section(raw, "led", position=ceiling_center)
    pd = _section(raw, "pd")
    concentrator_model = raw.get("concentrator.model", CONCENTRATOR_CONSTANT)
    if concentrator_model not in (CONCENTRATOR_CONSTANT, CONCENTRATOR_ANGLE_DEPENDENT):
        raise ConfigError(f"concentrator.model: unknown model {concentrator_model!r}")
    rician = _section(raw, "rf")
    rf_mixing = raw.get("rf.mixing", MIXING_NORMALIZED)
    if rf_mixing not in (MIXING_NORMALIZED, MIXING_UNNORMALIZED):
        raise ConfigError(f"rf.mixing: unknown mixing {rf_mixing!r}")
    ap_position = _parse_vec3(raw["ap.position"], "ap.position") if "ap.position" in raw else ceiling_center

    noise = {}
    for key in ("noise.user_dl", "noise.user_ul", "noise.eve_dl", "noise.eve_ul"):
        noise[key] = _parse_float(raw.get(key, "1e-14"), key)
        if noise[key] <= 0:
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
    if not 0.0 <= users_height <= height:
        raise ConfigError(f"users.height: must lie in [0, room.height = {height!r}], got {users_height!r}")
    if users_positions is not None:
        for i, p in enumerate(users_positions):
            if not (0.0 <= p.x <= width and 0.0 <= p.y <= depth and 0.0 <= p.z <= height):
                raise ConfigError(f"users.positions: user {i} at {p} lies outside the room")
    users_list = _parse_counts(raw["users.list"], "users.list") if "users.list" in raw else None
    if users_list is not None and users_positions is not None:
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
                sweep_values = tuple(float(k) for k in _parse_counts(raw["sweep.values"], "sweep.values"))
            else:
                sweep_values = _parse_list(raw["sweep.values"], "sweep.values", _parse_float)
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

    solver = _section(raw, "solver")
    # accepted and checked, but ignored (see the module docstring)
    _parse_int(raw.get("solver.seed", "0"), "solver.seed")
    if _parse_float(raw.get("solver.subproblem_tolerance", "1e-9"), "solver.subproblem_tolerance") <= 0:
        raise ConfigError("solver: subproblem_tolerance must be > 0")
    for key in ("solver.restarts", "solver.max_inner_iterations"):
        if _parse_int(raw.get(key, "1"), key) < 1:
            raise ConfigError(f"solver: {key.split('.')[1]} must be >= 1")
    oracle_spec = _section(raw, "oracle")

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
        noise_user_dl=noise["noise.user_dl"],
        noise_user_ul=noise["noise.user_ul"],
        noise_eve_ul=noise["noise.eve_ul"],
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


def load_config(
    path: str | None = None, overrides: dict[str, str] | None = None, preset: str | None = None,
) -> ExperimentConfig:
    """A validated config from three layers: the named preset, then the
    config file at ``path``, then ``overrides``; each wins over the ones before."""
    raw: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        raw.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw.update(parse_config_text(fh.read()))
        except OSError as err:
            raise ConfigError(f"cannot read config file {path!r}: {err}") from None
    raw.update(overrides or {})
    return build_config(raw)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioBlock:
    """The channels of N trials' scenarios as (N, K) arrays, row n for the n-th trial."""

    g: np.ndarray      # VLC gains (``ray_gain``)
    h: np.ndarray      # uplink amplitudes at the access point (``rician_mix``)
    h_e: np.ndarray    # uplink amplitudes at the eavesdropper
    a: np.ndarray      # the users' SNR constants (``snr_constants``)
    a_e: np.ndarray    # the eavesdropper's SNR constants
    c: np.ndarray      # DL rate coefficients (``rate_coefficients``)


def _distance(x: float, y: float, z: float, q: Vec3, j: int, what: str) -> float:
    """|(x, y, z) - q|; user ``j`` at ``what`` (q), or so far that a square overflows, is a ``ConfigError``."""
    try:
        d = math.sqrt((x - q.x) ** 2 + (y - q.y) ** 2 + (z - q.z) ** 2)
    except OverflowError:  # float ** raises where x * x would read inf
        raise ConfigError(f"user {j}: the distance to {what} overflows") from None
    if d <= 0.0:
        raise ConfigError(f"user {j} coincides with {what}")
    return d


def scenario_block(cfg: ExperimentConfig, trials: range | list[int]) -> ScenarioBlock:
    """Deterministic scenarios for (config, trial), for a block of trials.

    Per trial, three independent substreams (user placement, eavesdropper
    placement, fading) derive from (seed, trial), so explicit user positions
    leave the fading draws unchanged.  The fading comes from one (2K, 2)
    standard normal draw: (re, im) of the K access-point links, then of the
    K eavesdropper links, the stream of 2K single draws.  The geometry stays
    on the scalar ``math`` kernels ``ray_gain`` and ``los_component``, one
    call per user, so every entry has the bits of the per-user model.  A
    user outside the LED field of view gets a zero gain, so no rate and no
    harvested power; the scenario stays valid, and the commands count such
    users.

    A scenario the model cannot evaluate raises ``ConfigError``: a user at
    the LED, the access point or the eavesdropper position, or at a distance
    from one whose square overflows; a user at normal incidence under the
    angle-dependent concentrator; a concentrator gain, a line-of-sight power
    law or an I_D^2 that overflows; or, checked once per block in this
    order, a non-finite VLC gain g, uplink amplitude h or hE, SNR constant a
    or aE, or rate coefficient c.  No numpy warning prints before the refusal.
    """
    k = cfg.users_count
    width, depth, height = cfg.room
    led, ap = cfg.led, cfg.ap_position
    g = np.empty((len(trials), k))
    los = np.empty((len(trials), 2 * k))
    draws = np.empty((len(trials), 2 * k, 2))
    for n, trial in enumerate(trials):
        if trial < 0:
            raise ValueError("trial index must be >= 0")
        # the children SeedSequence([seed, trial]).spawn(3) makes, without spawning them
        geom_seq, eve_seq, fading_seq = (np.random.SeedSequence([cfg.seed, trial], spawn_key=(i,)) for i in range(3))
        if cfg.users_positions is not None:
            positions = [(p.x, p.y, p.z) for p in cfg.users_positions]
        else:
            geom_rng = np.random.default_rng(geom_seq)
            xs = geom_rng.uniform(0.0, width, k).tolist()
            ys = geom_rng.uniform(0.0, depth, k).tolist()
            positions = [(x, y, cfg.users_height) for x, y in zip(xs, ys)]
        if cfg.eve_position is not None:
            eve = cfg.eve_position
        else:
            eve_rng = np.random.default_rng(eve_seq)
            eve = Vec3(*(float(eve_rng.uniform(0.0, side)) for side in (width, depth, height)))

        for j, (x, y, z) in enumerate(positions):
            _distance(x, y, z, led.position, j, "the LED")
            try:
                g[n, j] = ray_gain(x - led.position.x, y - led.position.y, z - led.position.z,
                                   led, cfg.pd, cfg.concentrator_model)
            except ValueError as err:  # the angle-dependent concentrator diverges at normal incidence
                raise ConfigError(f"user {j}: {err}") from None
            except (OverflowError, ZeroDivisionError):  # refractive_index ** 2, or a sin ** 2 that underflows
                raise ConfigError(f"user {j}: the concentrator gain overflows") from None
        for offset, point, what in ((0, ap, "the access point"), (k, eve, "the eavesdropper position")):
            for j, (x, y, z) in enumerate(positions):
                d = _distance(x, y, z, point, j, what)
                try:
                    los[n, offset + j] = los_component(cfg.rician, d)
                except OverflowError:  # the power law's float ** overflows
                    raise ConfigError(
                        f"user {j}: the line-of-sight amplitude to {what} overflows at {d!r} m") from None
        draws[n] = np.random.default_rng(fading_seq).standard_normal((2 * k, 2))

    with np.errstate(all="ignore"):  # a non-finite entry is refused, not warned about
        mag = rician_mix(los, draws[..., 0], draws[..., 1], mixing_weights(cfg.rician, cfg.rf_mixing))
        h, h_e = np.ascontiguousarray(mag[:, :k]), np.ascontiguousarray(mag[:, k:])
        i_d = cfg.led.dc_offset
        try:
            a, a_e = (snr_constants(cfg.eta, i_d, g, amp, noise)
                      for amp, noise in ((h, cfg.noise_user_ul), (h_e, cfg.noise_eve_ul)))
        except OverflowError:  # the float i_d ** 2
            raise ConfigError(f"the SNR constants overflow: I_D^2 at led.dc_offset = {i_d!r}") from None
        block = ScenarioBlock(g=g, h=h, h_e=h_e, a=a, a_e=a_e, c=rate_coefficients(cfg.led.p_led, g, cfg.noise_user_dl))
    for name, values in (("the VLC gain g", g), ("the uplink amplitude h", h), ("the uplink amplitude hE", h_e),
                         ("the SNR constant a", block.a), ("the SNR constant aE", block.a_e),
                         ("the rate coefficient c", block.c)):
        bad = ~np.isfinite(values)
        if bad.any():
            n, j = np.argwhere(bad)[0]
            raise ConfigError(f"user {j}: {name} must be finite, got {float(values[n, j])!r}")
    return block


def generate_scenario(cfg: ExperimentConfig, trial: int) -> tuple[ScenarioBlock, FeasibleSet]:
    """``scenario_block`` of the one trial, and its rate coefficients with the resolved target."""
    block = scenario_block(cfg, [trial])
    coeffs = block.c[0]
    r_min = cfg.r_min if cfg.r_min_fraction is None else cfg.r_min_fraction * float(np.max(coeffs))
    return block, FeasibleSet(coeffs, r_min)


# ---------------------------------------------------------------------------
# sweep chains and CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _chain_targets(cfg: ExperimentConfig, users: int) -> tuple[tuple, tuple, bool]:
    """(row labels, rate targets, whether the targets are fractions of each trial's best rate).

    An r_min sweep labels each row with its target.  Any other config (a
    users sweep, ``report``, ``solve``) has one target, ``rate.min_fraction``
    or ``rate.min``, and labels its row with the user count.
    """
    if cfg.sweep_kind in (SWEEP_RMIN, SWEEP_RMIN_FRACTION):
        return cfg.sweep_values, cfg.sweep_values, cfg.sweep_kind == SWEEP_RMIN_FRACTION
    if cfg.r_min_fraction is not None:
        return (users,), (cfg.r_min_fraction,), True
    return (users,), (cfg.r_min,), False


def _chain_rates(cfg: ExperimentConfig, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) rate targets of a block's trials, row t for target t of ``_chain_targets``,
    and where each is feasible: at most the trial's largest rate coefficient."""
    _, targets, fraction = _chain_targets(cfg, c.shape[1])
    bound = c.max(axis=1)
    r_min = np.array([t * bound if fraction else np.full(bound.size, t) for t in targets])
    return r_min, r_min <= bound


@dataclass(frozen=True)
class ChainBlock:
    """A block's sweep rows as columns: entry [t, n] is target t's row of the n-th trial.

    Targets are in sweep-value order.  Where ``feasible`` is False the row is
    infeasible: its fractions are 0, its values nan and its iterations 0.
    """

    r_min: np.ndarray         # (T, N)
    feasible: np.ndarray      # (T, N) bool
    objective: np.ndarray     # (T, N)
    secrecy: np.ndarray       # (T, N, K) per-user secrecy terms u_k - v_k (``RowSolutions.secrecy``)
    clamped: np.ndarray       # (T, N) clamped secrecy sum
    dl_rate: np.ndarray       # (T, N) achieved DL sum rate
    tau_dl: np.ndarray        # (T, N, K) certified fractions
    tau_ul: np.ndarray        # (T, N, K)
    iterations: np.ndarray    # (T, N) int
    converged: np.ndarray     # (T, N) bool
    gap_bits: np.ndarray      # (T, N)

    def status(self, idx: int) -> list[str]:
        """Target ``idx``'s row statuses, in trial order."""
        return [STATUS_INFEASIBLE if not ok else STATUS_CONVERGED if conv else STATUS_MAX_ITERATIONS
                for ok, conv in zip(self.feasible[idx].tolist(), self.converged[idx].tolist())]


def _rmin_chain_block(cfg: ExperimentConfig, block: ScenarioBlock) -> ChainBlock:
    """The rows of a block of trials (``scenario_block``), as per-target arrays.

    Every command runs here, with the targets of ``_chain_targets`` at the
    block's user count: an r_min sweep's whole chain, and a chain of one for
    a users sweep and for ``report`` and ``solve``.  Every trial walks the
    targets tightest first, each solve warm-started from the trial's
    previous answer (the first from ``initial_rows``); a target beyond a
    trial's best rate gives an infeasible row and leaves its chain as it
    was.  One ``solve_rows`` call per target solves the block's feasible
    trials together, and ``dc_solver.audit_rows`` checks its answers, which
    are both that target's rows and the next target's starts, once; its
    metrics (the solver's secrecy terms, their ``_clamped_sum``, c . tau_dl)
    come per target.  A row is what the chain of its trial alone gives, byte for byte.
    """
    a, a_e, c = block.a, block.a_e, block.c
    n, k = c.shape
    targets = _chain_targets(cfg, k)[1]
    r_min_t, feasible = _chain_rates(cfg, c)
    shape = feasible.shape
    objective, clamped, dl_rate, gap_bits = (np.full(shape, np.nan) for _ in range(4))
    secrecy = np.full(shape + (k,), np.nan)
    tau_dl, tau_ul = np.zeros(shape + (k,)), np.zeros(shape + (k,))
    iterations = np.zeros(shape, dtype=np.int64)
    converged = np.zeros(shape, dtype=bool)

    chain_dl, chain_ul = np.zeros_like(c), np.zeros_like(c)
    chained = np.zeros(n, dtype=bool)
    for idx in sorted(range(len(targets)), key=lambda i: -targets[i]):
        r_min, fits = r_min_t[idx], feasible[idx]
        if not fits.any():
            continue
        live = slice(None) if fits.all() else fits  # every trial: the whole arrays, not gathers of them
        new = fits & ~chained
        if new.any():
            chain_dl[new], chain_ul[new] = initial_rows(c[new], r_min[new])
            chained |= new
        # relaxed targets continue from the previous optimum, which both
        # guarantees the per-trial monotone curve and keeps the sweep cheap
        out = solve_rows(a[live], a_e[live], c[live], r_min[live], chain_dl[live], chain_ul[live], cfg.solver)
        audit_rows(c[live], r_min[live], out.tau_dl, out.tau_ul)
        chain_dl[live], chain_ul[live] = out.tau_dl, out.tau_ul
        objective[idx, live], secrecy[idx, live] = out.objective, out.secrecy
        clamped[idx, live] = _clamped_sum(out.secrecy)
        dl_rate[idx, live] = np.vecdot(c[live], out.tau_dl)  # the DL sum rate, the linear form c . tau_dl
        tau_dl[idx, live], tau_ul[idx, live] = out.tau_dl, out.tau_ul
        iterations[idx, live] = out.iterations
        converged[idx, live] = out.converged
        gap_bits[idx, live] = out.gap_bits
    return ChainBlock(r_min_t, feasible, objective, secrecy, clamped, dl_rate, tau_dl, tau_ul,
                      iterations, converged, gap_bits)


def _clamped_sum(secrecy: np.ndarray) -> np.ndarray:
    """Per row, the sum of max(u_k - v_k, 0), added in user order (the CSV bytes depend on it)."""
    total = np.zeros(secrecy.shape[0])
    for term in np.maximum(secrecy, 0.0).T:
        total += term
    return total


ROW_COLUMNS = (
    "sweep_value", "users", "trial", "r_min", "objective_bits",
    "clamped_secrecy_sum", "dl_rate_achieved", "tau_dl", "tau_ul",
    "iterations", "status",
)

AGG_COLUMNS = (
    "sweep_value", "users", "rows", "objective_mean", "objective_std",
    "clamped_mean", "clamped_std", "dl_rate_mean", "dl_rate_std",
)


def _chain_csv(label, users: int, trials: range | list[int], chain: ChainBlock, idx: int) -> str:
    """CSV text (``ROW_COLUMNS``) of target ``idx``'s rows, in trial order.

    Each line is one %-format of its row: ``repr`` of each float, the
    per-user fractions joined with "," in one cell; an infeasible row has
    empty value and fraction cells.  A cell is quoted only where it holds a
    comma, which only a fraction cell of K >= 2 does: no cell holds a quote
    or a line break.
    """
    cell = ",".join(["%r"] * users)
    if users > 1:
        cell = f'"{cell}"'
    prefix = f"{_fmt(label)},{users},"
    solved = prefix + f"%d,%r,%r,%r,%r,{cell},{cell},%d,%s\n"
    unsolved = prefix + "%d,%r,,,,,,%d,%s\n"
    rows = zip(
        trials, chain.r_min[idx].tolist(), chain.objective[idx].tolist(), chain.clamped[idx].tolist(),
        chain.dl_rate[idx].tolist(), *chain.tau_dl[idx].T.tolist(), *chain.tau_ul[idx].T.tolist(),
        chain.iterations[idx].tolist(), chain.status(idx),
    )
    return "".join(
        solved % row if ok else unsolved % (row[0], row[1], *row[-2:])
        for row, ok in zip(rows, chain.feasible[idx].tolist())
    )


def _sweep_task(payload) -> tuple[int, list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One (user count, trial block) task: how many of its user placements are
    outside the LED field of view, per target the CSV text of its rows, then
    the (T, N) feasible mask and objective, clamped and DL rate columns."""
    cfg, users, trials = payload
    block = scenario_block(dataclasses.replace(cfg, users_count=users), trials)
    chain = _rmin_chain_block(cfg, block)
    labels = _chain_targets(cfg, users)[0]
    text = [_chain_csv(label, users, trials, chain, idx) for idx, label in enumerate(labels)]
    return int((block.g == 0.0).sum()), text, chain.feasible, chain.objective, chain.clamped, chain.dl_rate


def _make_output_dir(path: str) -> None:
    """Create the output directory; one that cannot be made is a ``ConfigError``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path!r}: {err}") from None


def _write_csv(path: str, comment: str, columns, body: str) -> None:
    """Write the comment line, the header and ``body``; a path that cannot be
    opened for writing is a ``ConfigError``, while a failing write raises as
    it is.  Lines join their cells with "," unquoted, as no column name,
    ``_fmt`` number or empty cell holds a comma, quote or line break."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err}") from None
    with fh:
        fh.write(comment + "\n" + ",".join(columns) + "\n" + body)


def _process_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` processes, imported only when a sweep forks."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Execute the configured sweep; returns output paths and row counts.

    Emits one row per (sweep value, trial) plus a mean/population-std
    aggregate per (sweep value, user count); repeated sweep values fold
    into one aggregate.  Infeasible points are recorded with status
    "infeasible" rather than dropped.  Both sweep kinds run one block chain
    task per (user count, trial block), with no more workers than usable
    CPUs.  Each user count's trials split into ceil(workers / user counts)
    contiguous blocks, the fewest that give every worker a task: a block
    pays a fixed cost per rate target, whatever its row count.  The pool
    gets the tasks by falling user count.  Each task formats its own rows'
    CSV text; the text goes out ordered by user count, then sweep value,
    then block, and the aggregates see each group's solved values
    concatenated in that row order.  A row's bytes do not depend on its
    block, and the results are put back in task order before the text is
    joined, so the worker count never changes bytes.  "dark" (as in
    ``run_solve``) sums the tasks' counts, so it too is worker-count free.
    """
    if cfg.sweep_kind is None:
        kinds = ", ".join(sorted(name for name, raw in PRESETS.items() if "sweep.kind" in raw))
        raise ConfigError(f"sweep.kind: a sweep requires sweep.kind (or a preset that sets it: {kinds})")
    _make_output_dir(cfg.output_dir)

    if cfg.sweep_kind == SWEEP_USERS:
        k_values = [int(v) for v in cfg.sweep_values]
    else:
        k_values = list(cfg.users_list) if cfg.users_list else [cfg.users_count]
    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    workers = min(cfg.workers or cpus, cpus)
    per_count = -(-workers // len(k_values))  # blocks per user count
    size = -(-cfg.trials // per_count)
    blocks = [range(first, min(first + size, cfg.trials)) for first in range(0, cfg.trials, size)]
    tasks = [(cfg, users, block) for users in k_values for block in blocks]
    workers = min(workers, len(tasks))
    if workers == 1:
        results = [_sweep_task(t) for t in tasks]
    else:
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
        results = [None] * len(tasks)
        with _process_pool(workers) as pool:
            for i, result in zip(order, pool.map(_sweep_task, [tasks[i] for i in order])):
                results[i] = result

    text: list[str] = []
    groups: dict[tuple, list[list[np.ndarray]]] = {}  # (users, sweep value) -> per chunk, its solved values
    for first, users in zip(range(0, len(results), len(blocks)), k_values):
        for idx, label in enumerate(_chain_targets(cfg, users)[0]):
            for _, chunks, feasible, *values in results[first:first + len(blocks)]:
                text.append(chunks[idx])
                groups.setdefault((users, label), []).append([v[idx][feasible[idx]] for v in values])
    agg = []
    for (users, label), parts in groups.items():
        solved = [np.concatenate(column) for column in zip(*parts)]  # objective, clamped, DL rate
        stats = [_fmt(float(f(v))) for v in solved for f in (np.mean, np.std)] if solved[0].size else [""] * 6
        agg.append(",".join([_fmt(label), str(users), str(solved[0].size), *stats]) + "\n")

    rows_path = os.path.join(cfg.output_dir, ROWS_FILE)
    agg_path = os.path.join(cfg.output_dir, AGG_FILE)
    comment = (
        "# one row per (sweep_value, users, trial); tau columns pack per-user "
        "fractions comma-separated; objective/rates in bits/s/Hz"
    )
    _write_csv(rows_path, comment, ROW_COLUMNS, "".join(text))
    agg_comment = (
        "# per (sweep_value, users) aggregates over solved rows; "
        "std is the population standard deviation"
    )
    _write_csv(agg_path, agg_comment, AGG_COLUMNS, "".join(agg))
    return {
        "rows_path": rows_path,
        "agg_path": agg_path,
        "rows": sum(feasible.size for _, _, feasible, *_ in results),
        "solved": sum(int(feasible.sum()) for _, _, feasible, *_ in results),
        "dark": (sum(dark for dark, *_ in results), cfg.trials * sum(k_values)),
    }


REPORT_COLUMNS = (
    "user", "tau_dl", "tau_ul", "vlc_gain", "rate_coeff_bits",
    "secrecy_bits", "clamped_secrecy_bits",
)


def run_report(cfg: ExperimentConfig) -> dict:
    """Solve the seeded scenario as ``run_solve`` does and emit the per-user slot
    report; returns its "report_path", and ``run_solve``'s "status", "r_min" and "dark".
    ``secrecy_bits`` are trial 0's terms of the chain (``ChainBlock.secrecy``), which sum to ``objective_bits``."""
    _make_output_dir(cfg.output_dir)
    out = run_solve(cfg)
    block, chain, status, r_min = out["block"], out["chain"], out["status"], out["r_min"]
    path = os.path.join(cfg.output_dir, REPORT_FILE)
    info = {"report_path": path, "status": status, "r_min": r_min, "dark": out["dark"]}
    if status == STATUS_INFEASIBLE:
        _write_csv(path, f"# infeasible: r_min = {_fmt(r_min)}", REPORT_COLUMNS, "")
        return info
    columns = zip(chain.tau_dl[0, 0].tolist(), chain.tau_ul[0, 0].tolist(), block.g[0].tolist(),
                  block.c[0].tolist(), chain.secrecy[0, 0].tolist())
    rows = [",".join(_fmt(v) for v in (k, dl, ul, g, c, s, max(0.0, s))) + "\n"
            for k, (dl, ul, g, c, s) in enumerate(columns)]
    comment = (
        f"# single-scenario allocation report; objective_bits={_fmt(chain.objective[0, 0])} "
        f"r_min={_fmt(r_min)} dl_rate={_fmt(chain.dl_rate[0, 0])} status={status}"
    )
    _write_csv(path, comment, REPORT_COLUMNS, "".join(rows))
    return info


def run_solve(cfg: ExperimentConfig, oracle: bool = False) -> dict:
    """Solve the seeded scenario (trial 0) at its one target, whatever sweep the
    config sets; optionally cross-check the oracle.  Returns the trial's
    "block" and "chain", the row's "status" and "r_min", "dark" (user
    placements outside the LED field of view, all user placements) and the
    "oracle" comparison.
    """
    cfg = dataclasses.replace(cfg, sweep_kind=None)
    block = scenario_block(cfg, [0])
    # an infeasible target skips the oracle, so only a feasible one is refused
    if oracle and cfg.users_count > 2 and _chain_rates(cfg, block.c)[1][0, 0]:
        raise ConfigError("--oracle supports K <= 2 only (grid search dimensionality)")
    chain = _rmin_chain_block(cfg, block)
    status = chain.status(0)[0]
    out = {"block": block, "chain": chain, "status": status, "r_min": float(chain.r_min[0, 0]),
           "dark": (int((block.g == 0.0).sum()), block.g.size)}
    if oracle and status != STATUS_INFEASIBLE:
        *_, oracle_objective = grid_search(block.a[0], block.a_e[0], block.c[0], out["r_min"], cfg.oracle_spec)
        out["oracle"] = compare(float(chain.objective[0, 0]), oracle_objective)
    return out
