"""Config parsing, scenario generation, sweeps, CSV output and the CLI."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.introspect import opt_func_info

import vlcrf
from vlcrf import cli, experiment
from vlcrf.cli import main as cli_main
from vlcrf.dc_solver import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    DcaSettings,
    FeasibleSet,
    _secrecy_problem,
    audit_rows,
    solve_rows,
)
from vlcrf.experiment import (
    PRESETS,
    ConfigError,
    build_config,
    generate_scenario,
    load_config,
    parse_config_text,
    run_report,
    run_solve,
    run_sweep,
)
from model_reference import (
    Channels,
    clamped_secrecy_rows,
    feasible,
    sample_rician_gain,
    secrecy_rows,
    solve_one,
    violation,
    vlc_channel_gain,
)
from vlcrf.reference_oracle import GridSpec
from vlcrf.rf_channel import RicianConfig
from vlcrf.vlc_channel import LedConfig, PhotodiodeConfig, Vec3


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# hello\n\nseed = 5 # trailing\n  users.count =2\n")
        assert raw == {"seed": "5", "users.count": "2"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("what is this")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({})

    def test_defaults_from_bare_seed(self):
        cfg = build_config({"seed": "1"})
        assert cfg.room == (5.0, 5.0, 3.0)
        assert cfg.led.position.x == 2.5 and cfg.led.position.z == 3.0
        assert cfg.led.p_led == 1.0
        assert cfg.led.semi_angle_half == 60.0
        assert cfg.pd.area == 1e-4
        assert cfg.pd.responsivity == 0.54
        assert cfg.pd.fov == 60.0
        assert cfg.pd.refractive_index == 1.5
        assert cfg.eta == 0.44
        assert cfg.noise_user_dl == cfg.noise_eve_ul == 1e-14
        assert cfg.rician.k_factor == 2.0
        assert cfg.rician.los_reference_gain == 1e-3
        assert cfg.users_count == 4
        assert cfg.eve_position is None
        assert cfg.solver.epsilon == 1e-8
        assert cfg.solver.max_iterations == 500

    def test_ignored_keys_still_checked(self):
        # five keys are parsed and range-checked but set no field
        base = build_config({"seed": "1"})
        bad_values = {
            "solver.restarts": "0",
            "solver.seed": "x",
            "solver.subproblem_tolerance": "0",
            "solver.max_inner_iterations": "0",
            "noise.eve_dl": "0",
        }
        for key, bad in bad_values.items():
            assert build_config({"seed": "1", key: "3"}) == base
            with pytest.raises(ConfigError, match=key.split(".")[1]):
                build_config({"seed": "1", key: bad})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="led.wattage"):
            build_config({"seed": "1", "led.wattage": "3"})

    def test_fov_invariant_named(self):
        with pytest.raises(ConfigError, match="pd"):
            build_config({"seed": "1", "pd.fov": "120"})

    def test_positions_arity_mismatch(self):
        with pytest.raises(ConfigError, match="users.positions"):
            build_config({"seed": "1", "users.count": "3", "users.positions": "1,1,0; 2,2,0"})

    def test_positions_outside_room(self):
        with pytest.raises(ConfigError, match="outside the room"):
            build_config({"seed": "1", "users.positions": "9,1,0"})

    def test_rate_keys_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            build_config({"seed": "1", "rate.min": "2", "rate.min_fraction": "0.5"})

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="sweep.kind"):
            build_config({"seed": "1", "sweep.points": "4"})
        with pytest.raises(ConfigError, match="sweep.kind"):
            build_config({"seed": "1", "sweep.kind": "banana"})
        with pytest.raises(ConfigError, match="sweep.values"):
            build_config({"seed": "1", "sweep.kind": "users"})
        with pytest.raises(ConfigError):
            build_config({"seed": "1", "sweep.kind": "rmin_fraction", "sweep.values": "0.2,1.5"})
        with pytest.raises(ConfigError, match="sweep.values"):
            build_config({"seed": "1", "sweep.kind": "users", "sweep.values": "0,1"})

    def test_users_sweep_with_positions_rejected(self):
        with pytest.raises(ConfigError):
            build_config({
                "seed": "1", "sweep.kind": "users", "sweep.values": "1,2",
                "users.positions": "1,1,0",
            })

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.txt")

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 3\nusers.count = 2\nrate.min = 1.5\n")
        cfg = load_config(str(path), overrides={"trials": "2"})
        assert cfg.seed == 3 and cfg.users_count == 2 and cfg.trials == 2
        assert cfg.r_min == 1.5

    def test_preset_unknown(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config(preset="fig9")

    def test_layers_preset_then_file_then_overrides(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 7\ntrials = 3\nusers.count = 2\noutput.dir = from-file\n")
        cfg = load_config(str(path), {"trials": "5"}, preset="fig4")
        assert (cfg.seed, cfg.users_count, cfg.output_dir) == (7, 2, "from-file")  # file over preset
        assert cfg.trials == 5                                                     # overrides over file
        assert cfg.r_min_fraction == 0.6 and cfg.rician.los_reference_gain == 0.1  # preset kept
        assert load_config(preset="fig4") == build_config(dict(PRESETS["fig4"]))
        assert load_config(str(path), preset="fig4").trials == 3
        assert load_config(overrides={"seed": "4"}) == build_config({"seed": "4"})

    def test_known_keys_pinned(self):
        assert experiment.KNOWN_KEYS == {
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
        assert len(experiment.KNOWN_KEYS) == 49

    def test_sections_keep_their_class_defaults(self):
        cfg = build_config({"seed": "1"})
        assert cfg.led == LedConfig(position=Vec3(2.5, 2.5, 3.0))
        assert cfg.pd == PhotodiodeConfig()
        assert cfg.rician == RicianConfig()
        assert cfg.solver == DcaSettings()
        assert cfg.oracle_spec == GridSpec()
        assert build_config({"seed": "1", "room.width": "4", "room.height": "2.5"}).led.position == Vec3(2.0, 2.5, 2.5)

    @pytest.mark.parametrize("key, value, field, want", [
        ("led.position", "1,2,2.5", "position", Vec3(1.0, 2.0, 2.5)),
        ("led.orientation", "0,0,1", "orientation", Vec3(0.0, 0.0, 1.0)),
        ("led.power", "2", "p_led", 2.0),
        ("led.dc_offset", "3", "dc_offset", 3.0),
        ("led.semi_angle", "30", "semi_angle_half", 30.0),
        ("pd.area", "2e-4", "area", 2e-4),
        ("pd.responsivity", "0.6", "responsivity", 0.6),
        ("pd.fov", "70", "fov", 70.0),
        ("pd.filter_gain", "0.9", "filter_gain", 0.9),
        ("pd.refractive_index", "1.2", "refractive_index", 1.2),
        ("rf.k_factor", "3", "k_factor", 3.0),
        ("rf.los_reference_gain", "0.1", "los_reference_gain", 0.1),
        ("rf.path_loss_exponent", "3", "path_loss_exponent", 3.0),
        ("solver.epsilon", "1e-6", "epsilon", 1e-6),
        ("solver.max_iterations", "40", "max_iterations", 40),
        ("oracle.resolution", "64", "resolution", 64),
        ("oracle.refine_rounds", "1", "refine_rounds", 1),
        ("oracle.refine_shrink", "0.5", "refine_shrink", 0.5),
    ])
    def test_section_key_sets_its_field(self, key, value, field, want):
        section = {"led": "led", "pd": "pd", "rf": "rician", "solver": "solver", "oracle": "oracle_spec"}
        base = build_config({"seed": "1"})
        cfg = build_config({"seed": "1", key: value})
        name = section[key.split(".")[0]]
        got = getattr(cfg, name)
        assert getattr(got, field) == want and type(getattr(got, field)) is type(want)
        assert got == dataclasses.replace(getattr(base, name), **{field: want})

    @pytest.mark.parametrize("key, value", [
        ("led.power", "nan"), ("led.position", "1,2"), ("pd.fov", "x"), ("rf.k_factor", "inf"),
        ("solver.epsilon", "nan"), ("solver.max_iterations", "2.5"),
        ("oracle.resolution", "x"), ("oracle.refine_shrink", "nan"),
    ])
    def test_section_parse_error_names_its_key_once(self, key, value):
        with pytest.raises(ConfigError) as err:
            build_config({"seed": "1", key: value})
        assert str(err.value).startswith(f"{key}: expected ") and str(err.value).count(key.split(".")[0]) == 1

    @pytest.mark.parametrize("key", [
        "noise.user_dl", "noise.user_ul", "noise.eve_ul", "harvest.efficiency", "led.dc_offset", "led.power",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constants_rejected(self, key, value):
        # every constant the SNR constants and the DL rate coefficients read
        with pytest.raises(ConfigError) as err:
            build_config({"seed": "1", key: value})
        assert str(err.value) == f"{key}: expected a finite number, got {value!r}"

    @pytest.mark.parametrize("value", ["3.5", "5", "-0.5"])
    def test_users_height_outside_the_room(self, value):
        with pytest.raises(ConfigError, match=r"^users\.height: must lie in \[0, room\.height = 3\.0\]"):
            build_config({"seed": "1", "users.height": value})

    @pytest.mark.parametrize("raw, message", [
        ({"sweep.kind": "rmin", "sweep.values": ","}, "sweep.values: expected a comma-separated list, got ','"),
        ({"sweep.kind": "users", "sweep.values": " , "}, "sweep.values: expected a comma-separated list, got ' , '"),
        ({"sweep.kind": "rmin", "users.list": ","}, "users.list: expected a comma-separated list, got ','"),
        ({"sweep.kind": "rmin", "sweep.values": "0.5,x"}, "sweep.values: expected a number, got 'x'"),
        ({"sweep.kind": "users", "sweep.values": "1,2.5"}, "sweep.values: expected an integer, got '2.5'"),
        ({"sweep.kind": "rmin", "users.list": "1,x"}, "users.list: expected an integer, got 'x'"),
        ({"users.positions": ";"}, "users.positions: expected 'x,y,z; x,y,z; ...', got ';'"),
        ({"room.width": "0"}, "room dimensions must be positive"),
        ({"room.height": "-3"}, "room dimensions must be positive"),
        ({"concentrator.model": "flat"}, "concentrator.model: unknown model 'flat'"),
        ({"rf.mixing": "mixed"}, "rf.mixing: unknown mixing 'mixed'"),
        ({"harvest.efficiency": "0"}, "harvest.efficiency: must lie in (0, 1], got 0.0"),
        ({"harvest.efficiency": "1.5"}, "harvest.efficiency: must lie in (0, 1], got 1.5"),
        ({"users.count": "0"}, "users.count: need at least one user"),
        ({"sweep.kind": "rmin", "users.list": "1,0,2"}, "users.list: user counts must be >= 1"),
        ({"sweep.kind": "users", "sweep.values": "2,-1"}, "sweep.values: user counts must be >= 1"),
        ({"sweep.kind": "rmin", "users.list": "1,2", "users.positions": "1,1,0"},
         "users.list: cannot combine with explicit users.positions"),
        ({"rate.min": "-1"}, "rate.min: must be >= 0"),
        ({"rate.min_fraction": "1"}, "rate.min_fraction: must lie in [0, 1)"),
        ({"rate.min_fraction": "-0.5"}, "rate.min_fraction: must lie in [0, 1)"),
        ({"sweep.kind": "rmin", "sweep.points": "1"}, "sweep.points: need at least 2 points"),
        ({"sweep.kind": "rmin_fraction", "sweep.start": "0.5", "sweep.stop": "0.2"},
         "sweep.stop: must be >= sweep.start"),
        ({"sweep.kind": "rmin", "sweep.values": "1,-1"}, "sweep values: must be >= 0"),
        ({"users.list": "1,2"}, "users.list: only applies to r_min sweeps"),
        ({"sweep.kind": "users", "sweep.values": "1,2", "users.list": "1,2"}, "users.list: only applies to r_min sweeps"),
        ({"trials": "0"}, "trials: must be >= 1"),
        ({"runtime.workers": "0"}, "runtime.workers: must be >= 1 or 'auto'"),
    ])
    def test_config_error_message_pinned(self, raw, message):
        with pytest.raises(ConfigError) as err:
            build_config(dict(raw, seed="1"))
        assert str(err.value) == message

    def test_users_height_inside_the_room(self):
        for raw in ({"users.height": "0"}, {"users.height": "3"}, {"users.height": "5", "room.height": "6"}):
            assert build_config(dict(raw, seed="1")).users_height == float(raw["users.height"])


class TestGenerateScenario:
    def test_deterministic_per_config_and_trial(self):
        cfg = build_config({"seed": "77", "users.count": "3"})
        s1, fs1 = generate_scenario(cfg, 4)
        s2, fs2 = generate_scenario(cfg, 4)
        for name in ("g", "h", "h_e", "a", "a_e", "c"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
        assert fs1.r_min == fs2.r_min

    def test_trials_differ(self):
        cfg = build_config({"seed": "77", "users.count": "3"})
        s1, _ = generate_scenario(cfg, 0)
        s2, _ = generate_scenario(cfg, 1)
        assert not np.array_equal(s1.g, s2.g)

    def test_explicit_positions_fix_geometry_not_fading(self):
        cfg = build_config({
            "seed": "77",
            "users.positions": "1.0,1.0,0.0; 3.5,2.0,0.0",
        })
        s1, _ = generate_scenario(cfg, 0)
        s2, _ = generate_scenario(cfg, 1)
        assert np.array_equal(s1.g, s2.g)          # geometry pinned
        assert not np.array_equal(s1.h, s2.h)      # fading re-drawn

    def test_center_user_matches_channel_module(self):
        cfg = build_config({"seed": "1", "users.positions": "2.5,2.5,0.0"})
        s, _ = generate_scenario(cfg, 0)
        hand = 2.0 * 1e-4 * 0.54 / (2.0 * math.pi * 9.0) * 3.0
        assert float(s.g[0, 0]) == pytest.approx(hand, rel=1e-12)
        assert float(s.g[0, 0]) == pytest.approx(5.7296e-6, rel=1e-4)

    def test_out_of_fov_user_has_zero_gain(self):
        # the placement is data: a zero gain, and no warning
        cfg = build_config({
            "seed": "1", "pd.fov": "20", "users.positions": "0.1,0.1,0.0",
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, _ = generate_scenario(cfg, 0)
        assert s.g.tolist() == [[0.0]]

    def test_rate_fraction_resolved_against_bound(self):
        cfg = build_config({"seed": "5", "users.count": "2", "rate.min_fraction": "0.5"})
        s, fs = generate_scenario(cfg, 0)
        assert fs.r_min == pytest.approx(0.5 * float(s.c.max()), rel=1e-12)

    def test_fixed_eve_position(self):
        cfg = build_config({"seed": "5", "eve.position": "1.0,1.0,1.0", "users.count": "1"})
        s1, _ = generate_scenario(cfg, 0)
        s2, _ = generate_scenario(cfg, 1)
        assert s1.h_e.shape == (1, 1)
        # same geometry for Eve but fading still varies by trial
        assert not np.array_equal(s1.h_e, s2.h_e)


def _reference_scenario(cfg, trial):
    """One trial's scenario the way the sweeps drew it before the block
    generator: a ``Vec3`` per user, one ``vlc_channel_gain`` and two
    ``sample_rician_gain`` calls per user (``model_reference``).  Returns
    the scenario and how many of its users are outside the LED field of
    view."""
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
        eve = Vec3(*(float(eve_rng.uniform(0.0, side)) for side in (width, depth, height)))

    def distance(p, q):
        return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)

    g = np.empty(len(positions))
    for k, pos in enumerate(positions):
        g[k] = vlc_channel_gain(cfg.led, pos, cfg.pd, cfg.concentrator_model)
    h = [sample_rician_gain(cfg.rician, distance(pos, cfg.ap_position), fading_rng, cfg.rf_mixing)
         for pos in positions]
    h_e = [sample_rician_gain(cfg.rician, distance(pos, eve), fading_rng, cfg.rf_mixing)
           for pos in positions]
    scenario = Channels(
        g=g, h=h, h_e=h_e, sigma2_dl=cfg.noise_user_dl, sigma2_ul=cfg.noise_user_ul,
        sigma2_e=cfg.noise_eve_ul, eta=cfg.eta, i_d=cfg.led.dc_offset, p_led=cfg.led.p_led,
    )
    return scenario, sum(gain == 0.0 for gain in g.tolist())


class TestScenarioBlock:
    @pytest.mark.parametrize("raw, users, trials", [
        (dict(PRESETS["fig3"]), (1, 2, 4), range(12)),
        (dict(PRESETS["fig3"]), (3, 16, 64), [9, 0, 31, 4]),
        (dict(PRESETS["fig4"]), (4,), range(8)),
        ({"seed": "77", "users.positions": "1.0,1.0,0.0; 3.5,2.0,0.0; 0.2,4.9,0.4",
          "eve.position": "4.0,4.0,1.5", "rf.mixing": "unnormalized"}, (3,), range(6)),
        ({"seed": "9", "concentrator.model": "angle-dependent", "users.height": "0.85",
          "rf.k_factor": "0.0", "rf.los_reference_gain": "0.1"}, (2, 8), [5, 1, 2]),
        ({"seed": "31", "pd.fov": "25", "eve.position": "0.5,4.0,2.0"}, (6, 40), range(5)),
    ])
    def test_block_matches_the_scalar_reference(self, raw, users, trials):
        """Every array of the block equals, with ==, the per-user reference,
        and the block raises no warning for users out of the LED's view."""
        dark = 0
        for k in users:
            cfg = dataclasses.replace(build_config(raw), users_count=k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = experiment.scenario_block(cfg, trials)
            want_dark = 0
            for n, trial in enumerate(trials):
                s, out_of_view = _reference_scenario(cfg, trial)
                want_dark += out_of_view
                for name, want in (("g", s.g), ("h", s.h), ("h_e", s.h_e), ("a", s.a_user()),
                                   ("a_e", s.a_eve()), ("c", s.rate_coeffs())):
                    got = getattr(block, name)[n]
                    assert got.shape == want.shape and np.all(got == want), (k, trial, name)
            assert int((block.g == 0.0).sum()) == want_dark
            dark += want_dark
        if raw.get("pd.fov") == "25":
            assert dark > 0  # some users are out of view

    def test_generate_scenario_is_the_block_of_one_trial(self):
        cfg = build_config({"seed": "5", "users.count": "5", "rate.min_fraction": "0.4"})
        block = experiment.scenario_block(cfg, [3, 7])
        s, fs = generate_scenario(cfg, 7)
        for name in ("g", "h", "h_e", "a", "a_e", "c"):
            assert np.array_equal(getattr(s, name), getattr(block, name)[1:])
        assert np.array_equal(fs.rate_coeffs, block.c[1])
        assert fs.r_min == 0.4 * float(np.max(block.c[1]))

    @pytest.mark.parametrize("extra, message", [
        ({"ap.position": "3.5,2.0,0.0"}, "user 1 coincides with the access point"),
        ({"eve.position": "3.5,2.0,0.0"}, "user 1 coincides with the eavesdropper position"),
        ({"ap.position": "3.5,2.0,0.0", "eve.position": "1.0,1.0,0.0"}, "user 1 coincides with the access point"),
        ({"led.position": "3.5,2.0,0.0"}, "user 1 coincides with the LED"),
    ])
    def test_coincidence_errors(self, extra, message):
        cfg = build_config(dict({"seed": "3", "users.positions": "1.0,1.0,0.0; 3.5,2.0,0.0"}, **extra))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # level with the LED, user 0 is out of its view: no warning
            with pytest.raises(ConfigError, match=f"^{message}$"):
                generate_scenario(cfg, 0)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                experiment.scenario_block(cfg, [1, 0])

    def test_non_finite_gain_rejected(self):
        # 1e-160 m beneath the LED, d^2 is subnormal and the gain overflows
        cfg = build_config({"seed": "3", "users.positions": "1.0,1.0,0.0", "led.position": "1.0,1.0,1e-160"})
        for make in (lambda: generate_scenario(cfg, 0), lambda: experiment.scenario_block(cfg, [0])):
            with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
                warnings.simplefilter("error")  # refused before numpy warns
                make()
            assert str(err.value) == "user 0: the VLC gain g must be finite, got inf"

    def test_non_finite_uplink_amplitude_rejected(self):
        # 1e-160 m from the access point the LOS amplitude overflows, and the mix is nan
        cfg = build_config({"seed": "3", "users.positions": "1.0,1.0,0.0", "ap.position": "1.0,1.0,1e-160",
                            "rf.los_reference_gain": "1e200"})
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")  # refused before numpy warns
            experiment.scenario_block(cfg, [0])
        assert str(err.value) == "user 0: the uplink amplitude h must be finite, got nan"

    @pytest.mark.parametrize("extra, message", [
        # d ** (-3.9 / 2) at d = 1e-160 m leaves the float range
        ({"ap.position": "1.0,1.0,1e-160", "rf.path_loss_exponent": "3.9"},
         "user 0: the line-of-sight amplitude to the access point overflows at 9.99994433575849e-161 m"),
        ({"eve.position": "1.0,1.0,1e-160", "rf.path_loss_exponent": "3.9"},
         "user 0: the line-of-sight amplitude to the eavesdropper position overflows at 9.99994433575849e-161 m"),
        # the LOS amplitude is 1e157, so h ** 2 and with it a overflow to inf
        ({"ap.position": "1.0,1.0,1e-160"}, "user 0: the SNR constant a must be finite, got inf"),
        ({"eve.position": "1.0,1.0,1e-160"}, "user 0: the SNR constant aE must be finite, got inf"),
        # the DL SNR p g^2 / sigma^2 overflows while a and aE stay finite
        ({"led.power": "1e300", "noise.user_dl": "1e-300"}, "user 0: the rate coefficient c must be finite, got inf"),
        # kappa^2 / sin^2(0) under the angle-dependent concentrator
        ({"users.positions": "1.0,1.0,0.0; 2.5,2.5,0.0", "concentrator.model": "angle-dependent"},
         "user 1: angle-dependent concentrator gain diverges at normal incidence"),
    ])
    def test_unevaluable_scenario_rejected(self, extra, message):
        cfg = build_config(dict({"seed": "3", "users.positions": "1.0,1.0,0.0"}, **extra))
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")  # refused before numpy warns
            experiment.scenario_block(cfg, [1, 0])
        assert str(err.value) == message

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial index"):
            generate_scenario(build_config({"seed": "3"}), -1)

    @pytest.mark.parametrize("seed", [0, 1, 31, 20240, 2**32 - 1, 2**63 + 5, 10**30])
    def test_substreams_are_the_spawned_children(self, seed):
        # scenario_block builds its three substreams with spawn_key=(i,);
        # they are the children spawn(3) makes, so every draw keeps its bits
        for trial in (0, 1, 2, 49, 199, 10**6):
            spawned = np.random.SeedSequence([seed, trial]).spawn(3)
            for i, child in enumerate(spawned):
                direct = np.random.SeedSequence([seed, trial], spawn_key=(i,))
                assert np.array_equal(direct.generate_state(8), child.generate_state(8)), (seed, trial, i)


class _InlinePool:
    """A stand-in ``ProcessPoolExecutor`` that maps in-process and records
    its size and the (user count, trial block) of each task, in submission
    order: no process starts."""

    def __init__(self, max_workers):
        self.size = max_workers
        self.tasks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = [(users, block) for _, users, block in tasks]
        return map(fn, tasks)


def _inline_pool(monkeypatch, cpus: int | None) -> list[_InlinePool]:
    """Make ``run_sweep`` use ``_InlinePool``, with ``cpus`` usable CPUs
    (None: leave the CPU count alone); returns the pools it creates."""
    pools = []

    def make(max_workers):
        pools.append(_InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(experiment, "_process_pool", make)
    if cpus is not None:
        monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return pools


SMALL_SWEEP = {
    "seed": "42",
    "trials": "2",
    "users.count": "1",
    "sweep.kind": "rmin_fraction",
    "sweep.start": "0.0",
    "sweep.stop": "0.8",
    "sweep.points": "4",
    "rf.los_reference_gain": "0.1",
    "runtime.workers": "1",
}


class TestRunSweep:
    def test_rows_and_aggregates(self, tmp_path):
        cfg = build_config(dict(SMALL_SWEEP))
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        assert info["rows"] == 8 and info["solved"] == 8
        rows = read_rows(info["rows_path"])
        assert len(rows) == 8
        for row in rows:
            assert row["status"] in ("converged", "max_iterations")
            assert float(row["dl_rate_achieved"]) >= float(row["r_min"]) - 1e-6
        # per-trial monotone objective in the sweep value
        for trial in ("0", "1"):
            objs = [float(r["objective_bits"]) for r in rows if r["trial"] == trial]
            assert all(objs[i] >= objs[i + 1] - 1e-9 for i in range(len(objs) - 1))

    def test_aggregate_means_exact(self, tmp_path):
        cfg = build_config(dict(SMALL_SWEEP))
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        rows = read_rows(info["rows_path"])
        agg = read_rows(info["agg_path"])
        for entry in agg:
            values = [
                float(r["objective_bits"])
                for r in rows
                if r["sweep_value"] == entry["sweep_value"] and r["status"] != "infeasible"
            ]
            assert int(entry["rows"]) == len(values)
            mean = float(np.mean(np.array(values)))
            assert abs(float(entry["objective_mean"]) - mean) <= 1e-12 * max(1.0, abs(mean))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = build_config(dict(SMALL_SWEEP))
        info1 = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")))
        info2 = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
        for key in ("rows_path", "agg_path"):
            with open(info1[key], "rb") as fh:
                b1 = fh.read()
            with open(info2[key], "rb") as fh:
                b2 = fh.read()
            assert b1 == b2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = dict(SMALL_SWEEP)
        parallel = dict(SMALL_SWEEP)
        parallel["runtime.workers"] = "2"
        info1 = run_sweep(dataclasses.replace(build_config(serial), output_dir=str(tmp_path / "s")))
        info2 = run_sweep(dataclasses.replace(build_config(parallel), output_dir=str(tmp_path / "p")))
        with open(info1["rows_path"], "rb") as fh:
            b1 = fh.read()
        with open(info2["rows_path"], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_infeasible_points_recorded(self, tmp_path):
        cfg = build_config({
            "seed": "42", "trials": "1", "users.count": "1",
            "sweep.kind": "rmin", "sweep.values": "0.5,50.0",
            "runtime.workers": "1",
        })
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        rows = read_rows(info["rows_path"])
        statuses = [r["status"] for r in rows]
        assert "infeasible" in statuses  # 50 bits/s/Hz is beyond any bound
        assert info["solved"] == 1
        infeasible = [r for r in rows if r["status"] == "infeasible"][0]
        assert infeasible["objective_bits"] == ""
        with open(info["agg_path"], encoding="utf-8") as fh:
            assert fh.read().splitlines()[-1] == "50.0,1,0,,,,,,"  # no solved row: empty, unquoted cells

    def test_users_sweep(self, tmp_path):
        cfg = build_config({
            "seed": "42", "trials": "1",
            "sweep.kind": "users", "sweep.values": "1,2",
            "rf.los_reference_gain": "0.1",
            "runtime.workers": "1",
        })
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        rows = read_rows(info["rows_path"])
        assert [r["users"] for r in rows] == ["1", "2"]

    def test_emitted_allocations_revalidate(self, tmp_path):
        # round-trip audit: every row, of every trial, parses back into slot
        # fractions that pass audit_rows and satisfy the budgets and the
        # row's own minimum-rate column under its trial's rate coefficients
        cfg = build_config(dict(SMALL_SWEEP))
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        base = build_config({k: v for k, v in SMALL_SWEEP.items() if not k.startswith("sweep")})
        coeffs = {str(t): generate_scenario(base, t)[1].rate_coeffs for t in range(base.trials)}
        rows = read_rows(info["rows_path"])
        assert sorted({row["trial"] for row in rows}) == sorted(coeffs)
        for row in rows:
            tau_dl = [float(x) for x in row["tau_dl"].split(",")]
            tau_ul = [float(x) for x in row["tau_ul"].split(",")]
            fs = FeasibleSet(coeffs[row["trial"]], float(row["r_min"]))
            audit_rows(fs.rate_coeffs[None], np.array([fs.r_min]), np.array([tau_dl]), np.array([tau_ul]))
            assert violation(fs, tau_dl, tau_ul) <= 1e-8

    @pytest.mark.parametrize("workers, cpus, affinity, want", [
        ("500", 2, True, 2),   # capped at the usable CPUs, not at the 12 tasks
        ("auto", 3, True, 3),
        ("2", 4, True, 2),
        ("auto", 3, False, 3),  # no sched_getaffinity: os.cpu_count()
    ])
    def test_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch, workers, cpus, affinity, want):
        raw = dict(SMALL_SWEEP, trials="12")
        serial = run_sweep(build_config(dict(raw, **{"output.dir": str(tmp_path / "s")})))
        pools = _inline_pool(monkeypatch, cpus if affinity else None)
        if not affinity:
            monkeypatch.delattr(experiment.os, "sched_getaffinity")
            monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        pooled = run_sweep(build_config(dict(raw, **{"runtime.workers": workers, "output.dir": str(tmp_path / "p")})))
        assert [pool.size for pool in pools] == [want]
        for key in ("rows_path", "agg_path"):
            with open(serial[key], "rb") as fh, open(pooled[key], "rb") as gh:
                assert fh.read() == gh.read()

    def test_one_block_per_user_count_when_that_fills_the_workers(self, tmp_path, monkeypatch):
        # each solve_rows call is one (block, rate target) step
        calls = []
        solve_rows = experiment.solve_rows

        def counted(*args):
            calls.append(args[0].shape[0])
            return solve_rows(*args)

        monkeypatch.setattr(experiment, "solve_rows", counted)
        pools = _inline_pool(monkeypatch, 2)
        # fig3 at 2 workers: three user counts, one block each, largest first
        cfg = load_config(overrides={"trials": "5", "runtime.workers": "2"}, preset="fig3")
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "fig3")))
        assert calls == [5] * (3 * 20)
        assert pools[0].size == 2 and pools[0].tasks == [(4, range(5)), (2, range(5)), (1, range(5))]
        # one user count at 2 workers: two blocks
        calls.clear()
        raw = dict(SMALL_SWEEP, trials="5", **{"runtime.workers": "2", "output.dir": str(tmp_path / "one")})
        run_sweep(build_config(raw))
        assert calls == [3] * 4 + [2] * 4
        assert pools[1].size == 2 and pools[1].tasks == [(1, range(3)), (1, range(3, 5))]

    def test_sweep_requires_kind(self, tmp_path):
        cfg = build_config({"seed": "1"})
        with pytest.raises(ConfigError, match="sweep.kind"):
            run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))


def _chain(cfg, users, trial):
    """(r_min, objective, gap_bits) of every row of one r_min chain, by r_min."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        block = experiment.scenario_block(dataclasses.replace(cfg, users_count=users), [trial])
        chain = experiment._rmin_chain_block(cfg, block)
    return sorted(zip(chain.r_min[:, 0].tolist(), chain.objective[:, 0].tolist(), chain.gap_bits[:, 0].tolist()))


def _assert_monotone_and_concave(chain, points):
    # the rate target enters the concave programme through one linear
    # constraint, so the optimum V(r_min) is concave and non-increasing;
    # with f <= V <= f + gap per row a chain's second differences are at
    # most 2 gap: an optimality check at any K without the grid oracle
    f = [obj for _, obj, _ in chain]
    assert len(f) == points
    assert all(f[i + 1] <= f[i] for i in range(len(f) - 1))
    for i in range(1, len(f) - 1):
        gap = chain[i][2]
        assert f[i - 1] - 2.0 * f[i] + f[i + 1] <= 2.0 * gap + 1e-12 * max(1.0, abs(f[i]))


class TestChainConcavity:
    def test_full_fig3_preset(self, tmp_path, monkeypatch):
        # the preset as the paper's figure runs it, 200 trials at K = 1, 2, 4
        # (12,000 rows), where the pinned sweeps take 20: every row solved
        # and certified, every chain's objective non-increasing in the target,
        # and every row's clamped_secrecy_sum the user-order sum of
        # max(term, 0) over the secrecy terms solve_rows returned for it, those
        # terms adding up to its objective and equal to the reporting
        # closure's (model_reference), bit for bit
        solved = {}

        def recording(a, a_e, c, r_min, *args):
            out = solve_rows(a, a_e, c, r_min, *args)
            for n, (r, terms) in enumerate(zip(r_min.tolist(), out.secrecy.tolist())):
                total = 0.0
                for term in terms:
                    total += max(term, 0.0)
                solved[(a.shape[1], n, r)] = total, out.objective[n], terms, out.tau_dl[n], out.tau_ul[n], a[n], a_e[n]
            return out

        monkeypatch.setattr(experiment, "solve_rows", recording)
        cfg = load_config(overrides={"runtime.workers": "1", "output.dir": str(tmp_path)}, preset="fig3")
        rows = read_rows(run_sweep(cfg)["rows_path"])
        assert len(rows) == len(solved) == 3 * 200 * 20
        assert {row["status"] for row in rows} == {STATUS_CONVERGED}
        chains = {}
        for row in rows:
            chains.setdefault((row["users"], row["trial"]), []).append(
                (float(row["sweep_value"]), float(row["objective_bits"])))
            total, objective, terms, dl, ul, a, a_e = solved[(int(row["users"]), int(row["trial"]), float(row["r_min"]))]
            assert row["clamped_secrecy_sum"] == repr(total) and row["objective_bits"] == repr(float(objective))
            assert np.sum(terms) == objective
            assert secrecy_rows(a[None], a_e[None], dl[None], ul[None])[0].tolist() == terms, row
        assert len(chains) == 3 * 200
        for key, chain in chains.items():
            f = [obj for _, obj in sorted(chain)]
            assert all(f[i + 1] <= f[i] for i in range(len(f) - 1)), key

    def test_full_fig3_preset_emits_the_certified_point(self):
        # on every solved row of the preset's 12,000, the value, per-user
        # terms and gap of the secrecy problem at the emitted fractions are the
        # row's objective, secrecy and gap_bits, bit for bit, and no row emits
        # a DL rate short of its r_min, not even by an ulp (the audit would
        # allow 1e-8 relative)
        cfg = load_config(preset="fig3")
        solved = 0
        for users in cfg.users_list:
            block = experiment.scenario_block(dataclasses.replace(cfg, users_count=users), range(cfg.trials))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chain = experiment._rmin_chain_block(cfg, block)
            assert chain.feasible.all()
            assert (chain.dl_rate >= chain.r_min).all(), (users, np.argwhere(chain.dl_rate < chain.r_min).tolist())
            for idx in range(chain.r_min.shape[0]):
                ok = chain.feasible[idx]
                prob = _secrecy_problem(block.a[ok], block.a_e[ok], block.c[ok], chain.r_min[idx][ok])
                dl, ul = chain.tau_dl[idx][ok], chain.tau_ul[idx][ok]
                terms, g_dl, g_ul = prob.value_and_grad(dl, ul)
                assert np.array_equal(terms, chain.secrecy[idx][ok]), (users, idx)
                assert np.array_equal(terms.sum(axis=1), chain.objective[idx][ok]), (users, idx)
                assert np.array_equal(prob.gap(dl, ul, g_dl, g_ul), chain.gap_bits[idx][ok]), (users, idx)
                solved += int(ok.sum())
        assert solved == 3 * 200 * 20

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    def test_report_secrecy_is_the_kernel_terms(self, tmp_path, preset):
        # the report's secrecy_bits are trial 0's secrecy terms as the chain
        # holds them from solve_rows, and clamped_secrecy_bits those clamped at 0
        cfg = load_config(overrides={"output.dir": str(tmp_path)}, preset=preset)
        rows = read_rows(run_report(cfg)["report_path"])
        terms = run_solve(cfg)["chain"].secrecy[0, 0].tolist()
        assert [r["secrecy_bits"] for r in rows] == [repr(t) for t in terms]
        assert [r["clamped_secrecy_bits"] for r in rows] == [repr(max(0.0, t)) for t in terms]

    def test_fig3_chains_are_monotone_and_concave(self):
        cfg = load_config(overrides={"trials": "10"}, preset="fig3")
        for users in (2, 4):
            for trial in range(10):
                _assert_monotone_and_concave(_chain(cfg, users, trial), len(cfg.sweep_values))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10_000),
        st.integers(1, 16),
        st.none() | st.floats(-3.0, 0.0),
    )
    def test_random_chains_are_monotone_and_concave(self, seed, trial, users, los_exponent):
        """Random fig3 scenarios up to K = 16, some with another RF link gain.

        Derandomized, yet the examples move when only src/ changes: hypothesis
        6.155 mines the literal constants of local modules (src/vlcrf among
        them) and draws one of them with p = 0.05, so a changed literal there
        reshuffles the example set.  Compare counts within one commit only.
        """
        raw = dict(PRESETS["fig3"], seed=str(seed))
        if los_exponent is not None:
            raw["rf.los_reference_gain"] = repr(10.0 ** los_exponent)
        cfg = build_config(raw)
        _assert_monotone_and_concave(_chain(cfg, users, trial), len(cfg.sweep_values))


def _cell(value) -> str:
    """The CSV cell the sweep writes for a reference row's value: empty for
    None, text as it is, numbers as ``experiment._fmt`` formats them."""
    if value is None:
        return ""
    return value if isinstance(value, str) else experiment._fmt(value)


def _reference_row(value, users, trial, scenario, fs, result):
    """A sweep row of one problem solved alone (``solve_one``; None where r_min
    exceeds every c_k): the dict the sweeps built row by row before their rows
    became columns.  ``gap_bits`` is not written."""
    row = {"sweep_value": value, "users": users, "trial": trial, "r_min": fs.r_min,
           "iterations": 0, "status": STATUS_INFEASIBLE, "gap_bits": None}
    for column in ("objective_bits", "clamped_secrecy_sum", "dl_rate_achieved", "tau_dl", "tau_ul"):
        row[column] = None
    if result is not None:
        audit_rows(fs.rate_coeffs[None], np.array([fs.r_min]), result.tau_dl[None], result.tau_ul[None])
        row.update({
            "iterations": result.iterations,
            "status": STATUS_CONVERGED if result.converged else STATUS_MAX_ITERATIONS,
            "objective_bits": result.objective,
            "clamped_secrecy_sum": clamped_secrecy_rows(scenario.a, scenario.a_e, result.tau_dl[None],
                                                        result.tau_ul[None])[0],
            "dl_rate_achieved": float(np.dot(fs.rate_coeffs, result.tau_dl)),
            "tau_dl": ",".join(repr(float(v)) for v in result.tau_dl),
            "tau_ul": ",".join(repr(float(v)) for v in result.tau_ul),
            "gap_bits": result.gap_bits,
        })
    return row


def _solve_alone(scenario, fs, settings, start=None):
    """``solve_one`` of the trial's scenario (a block of one trial), or None where r_min exceeds every c_k."""
    if not feasible(fs):
        return None
    return solve_one(scenario.a[0], scenario.a_e[0], fs, settings, start)


def _reference_chain_rows(cfg, users, trial):
    """One trial's r_min sweep rows, each row's problem solved alone: the
    per-trial chain that the block chain replaced, kept as its reference."""
    sub = dataclasses.replace(cfg, users_count=users, r_min=0.0, r_min_fraction=None)
    scenario, base_fs = generate_scenario(sub, trial)
    bound = float(np.max(base_fs.rate_coeffs))
    rows = {}
    chain = None
    for idx in sorted(range(len(cfg.sweep_values)), key=lambda i: -cfg.sweep_values[i]):
        value = cfg.sweep_values[idx]
        r_min = value * bound if cfg.sweep_kind == "rmin_fraction" else value
        fs = FeasibleSet(base_fs.rate_coeffs, r_min)
        result = _solve_alone(scenario, fs, cfg.solver, chain)
        if result is not None:
            chain = (result.tau_dl, result.tau_ul)
        rows[idx] = _reference_row(value, users, trial, scenario, fs, result)
    return [rows[i] for i in range(len(cfg.sweep_values))]


def _users_rows(cfg, users, trial):
    """One trial's users-sweep row, its problem solved alone: the path the
    block chain replaced for the users sweep, kept as its reference."""
    sub = dataclasses.replace(cfg, users_count=users)
    scenario, fs = generate_scenario(sub, trial)
    return [_reference_row(users, users, trial, scenario, fs, _solve_alone(scenario, fs, cfg.solver))]


def _block_rows(cfg, users, block):
    """Per trial of the block, its rows as the sweep emits them: every CSV cell
    as ``_sweep_task`` formats it, and ``gap_bits`` read off the columns."""
    scenarios = experiment.scenario_block(dataclasses.replace(cfg, users_count=users), block)
    chain = experiment._rmin_chain_block(cfg, scenarios)
    labels = experiment._chain_targets(cfg, users)[0]
    lines = [list(csv.reader(experiment._chain_csv(label, users, block, chain, idx).splitlines()))
             for idx, label in enumerate(labels)]
    assert all(len(cells) == len(block) for cells in lines)
    return [
        [dict(zip(experiment.ROW_COLUMNS, lines[idx][n]),
              gap_bits=experiment._fmt(chain.gap_bits[idx, n]) if chain.feasible[idx, n] else "")
         for idx in range(len(labels))]
        for n in range(len(block))
    ]


USERS_SWEEPS = {
    # fraction targets from K = 1 to 16, every row solved
    "fraction": {
        "seed": "12", "trials": "20", "sweep.kind": "users", "sweep.values": "1,2,4,8,16",
        "rate.min_fraction": "0.6", "rf.los_reference_gain": "0.1",
    },
    # an absolute target beyond the best rate of 16 of the 48 rows
    "absolute": {
        "seed": "7", "trials": "12", "sweep.kind": "users", "sweep.values": "1,2,3,5",
        "rate.min": "9.0", "rf.los_reference_gain": "0.1",
    },
}


# numpy picks the float64 loops of these functions at import, by CPU feature,
# and its AVX-512 and AVX2 kernels round some inputs differently, so every
# pinned digest is keyed by the targets they dispatch to.  The AVX2_TARGETS
# entries were measured at commit d690453 on an AVX-512 host with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", under which numpy
# dispatches as on an AVX2-only x86 host.
DISPATCHED = ("exp", "expm1", "log", "log1p", "arccos", "power")
AVX512_TARGETS = ("X86_V4",) * 6
AVX2_TARGETS = ("X86_V3", "baseline(X86_V2)", "X86_V3", "baseline(X86_V2)", "baseline(X86_V2)", "baseline(X86_V2)")


def _dispatch_targets() -> tuple[str, ...]:
    """The targets of numpy's float64 loops of ``DISPATCHED``, in that order."""
    info = opt_func_info(func_name="^(" + "|".join(DISPATCHED) + ")$")
    return tuple(info[name]["ddd" if name == "power" else "dd"]["current"] for name in DISPATCHED)


def _pinned(table: dict):
    """``table``'s entry for the active dispatch targets; fails, naming them, where it has none."""
    targets = _dispatch_targets()
    if targets not in table:
        pytest.fail(f"no pinned digest for numpy's float64 dispatch targets {dict(zip(DISPATCHED, targets))}")
    return table[targets]


# sha256 of (sweep_rows.csv, sweep_agg.csv); see the pinned tests for their history
USERS_SWEEP_DIGESTS = {
    "fraction": {
        AVX512_TARGETS: ["bd00456ca59269363b0ee61b8b3f07407a128c07f54827c9f6d90b1099a2cc3f",
                         "4b6162774aa125e6430d81d5b583a1c87345651e2b7a1d77944044aa6046e5ac"],
        AVX2_TARGETS: ["b9eef1f18deb1ab88a285069f82712f636ae71f5825852bc4699824a178afe09",
                       "b774339de5e8fa37be54b4008d1af95a38360f7f0fc3d054053df95afb6af365"],
    },
    "absolute": {
        AVX512_TARGETS: ["8fc96abb343734c9516d1f1f6d99153b301333bad2421d0bb131ae613b9e433a",
                         "732f4acfcbf53e9e11079243c083718e1bb601ce56d71be7542aeb0fdd8e17cf"],
        AVX2_TARGETS: ["fdf8b3f5a6b48805833c18a5df3b29293bc43fc3f662634938b68cd7f6d4c9b6",
                       "c525d2e200e3862833c359ce0ad82931737567e5cedcb4938ddc54f5efc3a19a"],
    },
}
FIG3_DIGESTS = {  # fig3 preset at 20 trials
    AVX512_TARGETS: ["6fc94e5e1185c668eb60bb378063f8536d5656d2ab51255bbf6599b05f9b6e61",
                     "b16c538e2d3d127f4c867ab33c3ce6ae60b4f6b5f8b1f2441f44aa21576dd8ce"],
    AVX2_TARGETS: ["1ce8ebf14e3c5e748ad51be081b46e3b07811342cb1a4007a28cc5c308d4ce2b",
                   "32f6026a46b753dfa1c7a7c94572b1723ca34da2657c304effe6a803d86314be"],
}


def _digests(info) -> list[str]:
    got = []
    for key in ("rows_path", "agg_path"):
        with open(info[key], "rb") as fh:
            got.append(hashlib.sha256(fh.read()).hexdigest())
    return got


class TestBlockChain:
    FIELDS = experiment.ROW_COLUMNS + ("gap_bits",)

    def _assert_matches_reference(self, cfg, users, trials, splits, reference_rows=_reference_chain_rows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = {trial: reference_rows(cfg, users, trial) for trial in trials}
            for blocks in splits:
                seen = []
                for block in blocks:
                    for trial, rows in zip(block, _block_rows(cfg, users, block)):
                        seen.append(trial)
                        assert len(rows) == len(reference[trial])
                        for got, want in zip(rows, reference[trial]):
                            for field in self.FIELDS:
                                assert got[field] == _cell(want[field]), (
                                    users, trial, want["sweep_value"], field)
                assert sorted(seen) == list(trials)

    def test_fig3_rows_match_per_row_solves(self):
        # fig3 targets at K = 1, 2, 4 and the same rate fractions at K = 8, 16;
        # each block split is another worker count's view of the trials
        cfg = load_config(overrides={"trials": "10"}, preset="fig3")
        splits = ([range(10)], [range(0, 4), range(4, 10)], [[t] for t in (7, 2, 9, 0, 4, 1, 8, 3, 6, 5)])
        for users in (1, 2, 4, 8, 16):
            self._assert_matches_reference(cfg, users, range(10), splits)

    def test_random_blocks_match_per_row_solves(self):
        # seeded draws: another seed, RF link gain and user count per case,
        # absolute targets up to past the best rate (infeasible rows mid-block)
        rng = np.random.default_rng(2024)
        for _ in range(6):
            users = int(rng.integers(1, 17))
            raw = dict(PRESETS["fig3"], seed=str(int(rng.integers(0, 2**31))),
                       **{"rf.los_reference_gain": repr(10.0 ** rng.uniform(-3.0, 0.0))})
            if rng.random() < 0.5:
                del raw["sweep.start"], raw["sweep.stop"], raw["sweep.points"]
                raw.update({"sweep.kind": "rmin", "sweep.values": ",".join(
                    repr(float(v)) for v in np.sort(rng.uniform(0.0, 12.0, 8)))})
            cfg = build_config(raw)
            order = [int(t) for t in rng.permutation(6)]
            cut = int(rng.integers(1, 6))
            self._assert_matches_reference(cfg, users, range(6), [[range(6)], [order[:cut], order[cut:]]])

    def test_random_users_sweeps_match_per_row_solves(self):
        # seeded draws of K = 1 to 16, seed and RF link gain, half of them
        # with an absolute target near the best rate (infeasible rows inside
        # a block), the rest with a rate fraction
        rng = np.random.default_rng(11)
        mid_block_infeasible = 0
        for users in (1, 16, *(int(k) for k in rng.integers(2, 16, 8))):
            raw = {"seed": str(int(rng.integers(0, 2**31))), "trials": "6",
                   "sweep.kind": "users", "sweep.values": str(users),
                   "rf.los_reference_gain": repr(10.0 ** rng.uniform(-3.0, 0.0))}
            if rng.random() < 0.5:
                raw["rate.min"] = repr(float(rng.uniform(8.0, 10.5)))
            else:
                raw["rate.min_fraction"] = repr(float(rng.uniform(0.0, 0.99)))
            cfg = build_config(raw)
            order = [int(t) for t in rng.permutation(6)]
            cut = int(rng.integers(1, 6))
            splits = [[range(6)], [order[:cut], order[cut:]]]
            self._assert_matches_reference(cfg, users, range(6), splits, reference_rows=_users_rows)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                statuses = [_users_rows(cfg, users, trial)[0]["status"] for trial in range(6)]
            solved = [t for t, status in enumerate(statuses) if status != STATUS_INFEASIBLE]
            mid_block_infeasible += bool(solved) and STATUS_INFEASIBLE in statuses[solved[0]:solved[-1]]
        assert mid_block_infeasible >= 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name, digests", USERS_SWEEP_DIGESTS.items())
    def test_users_sweep_bytes_pinned(self, tmp_path, workers, name, digests):
        """Users sweeps write pinned bytes at 1 and 2 workers.

        The digests were first measured at commit 6d48b19, the last with
        one ``dca_solve`` per row, and re-measured when zero uplink shares
        replaced the 1e-9 floor (41 of the fraction sweep's 100 rows and 4 of
        the absolute sweep's 32 solved rows moved: 43 objectives rose, by at
        most 7.1e-9 bits, and one fell by 3.3e-16 relative), and again when
        the per-user Newton response stopped on its rounding swing (one row
        of each sweep moved; both objectives fell, by 8.3e-17 and 2.8e-17
        bits), and the fraction sweep's again when the rows became the
        certified point, without the reporting snap (2 of its rows moved under
        AVX-512, K = 4 trials 11 and 18, and 3 under AVX2, those and K = 2
        trial 7: each keeps a DL share of about 2.2e-16 that the snap
        zeroed, and its DL rate and clamped sum rise to r_min and its
        objective, or their last bit; no objective or status moved), and the
        fraction sweep's again when every DL vertex met its rate in floating
        point (K = 4 trials 11 and 18, and under AVX2 K = 2 trial 7: each
        share of about 2.2e-16 outside the face user's support is gone, the
        face share rises by an ulp or two, and trial 18's objective falls by
        4.4e-16 bits; no status moved), with numpy 2.4.6 on x86_64; another
        numpy or BLAS may round differently.
        """
        cfg = build_config(dict(USERS_SWEEPS[name], **{"runtime.workers": workers}))
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        assert _digests(info) == _pinned(digests)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name, digests", [
        ("rmin", {AVX512_TARGETS: ["742ea65588eb63f925c2cd300db7e280fe1053410c71f443d63481baa23eaa2c",
                                   "761bf87ed880046fb6b4ccf18b5fb4753f8d7d448f4e2823ce0df5021e964016"],
                  AVX2_TARGETS: ["fe6bcab790247c6f709a8719cbe07399c3763e46bffae3b9fb9de2499b71eb17",
                                 "761bf87ed880046fb6b4ccf18b5fb4753f8d7d448f4e2823ce0df5021e964016"]}),
        ("users", {AVX512_TARGETS: ["d4784c180b5650ba6b113fdd46a141c732169ba6e63bab382d18b17bad16f2e0",
                                    "770f78a3f2f0f0be82b844542e70ecd8c565ad2e89e0f5517f84eb379ab70ec3"],
                   AVX2_TARGETS: ["da3b54b4ceea57bc35605b48f7687f8bcaaf0d9c4724f3c62a3b0871fc2a081b",
                                  "770f78a3f2f0f0be82b844542e70ecd8c565ad2e89e0f5517f84eb379ab70ec3"]}),
    ])
    def test_repeated_sweep_values_bytes_pinned(self, tmp_path, workers, name, digests):
        """A sweep value given twice writes its rows twice and folds them into one aggregate.

        The digests were measured at commit 174513d, the last that built the
        rows as dicts, with numpy 2.4.6 on x86_64; another numpy or BLAS may
        round differently.
        """
        if name == "rmin":
            cfg = load_config(overrides={"trials": "5", "sweep.values": "0.5,0.2,0.5", "runtime.workers": workers},
                              preset="fig3")
            folded = {("0.5", k): "10" for k in ("1", "2", "4")}
        else:
            cfg = build_config({"seed": "12", "trials": "5", "sweep.kind": "users", "sweep.values": "2,1,2",
                                "rate.min_fraction": "0.6", "rf.los_reference_gain": "0.1",
                                "runtime.workers": workers})
            folded = {("2", "2"): "10"}
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        agg = read_rows(info["agg_path"])
        assert len({(r["sweep_value"], r["users"]) for r in agg}) == len(agg)
        assert {key: r["rows"] for r in agg if (key := (r["sweep_value"], r["users"])) in folded} == folded
        assert _digests(info) == _pinned(digests)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fig3_sweep_bytes_pinned(self, tmp_path, workers):
        """fig3 at 20 trials writes pinned bytes at 1 and 2 workers.

        Both digests were first measured at commit 3ac2ca0, the last with one
        ``dca_solve`` per row, and re-measured when zero uplink shares
        replaced the 1e-9 floor (117 of 1,200 rows moved: 96 objectives rose,
        by at most 1.7e-9 bits, and 21 fell by at most 3.3e-16 relative),
        and again when every DL vertex met its rate in floating point (K = 2
        trial 16 at 0.85 moves an edge vertex's mass toward its larger-c
        user and rises by 6.7e-16 bits, and under AVX-512 its 0.8 row moves
        in tau_ul), with numpy 2.4.6 on x86_64; another numpy or BLAS may
        round differently.
        """
        cfg = load_config(overrides={"trials": "20", "runtime.workers": workers}, preset="fig3")
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        assert _digests(info) == _pinned(FIG3_DIGESTS)

    def test_digest_table_without_the_active_targets_fails_naming_them(self):
        targets = _dispatch_targets()
        with pytest.raises(pytest.fail.Exception) as err:
            _pinned({("ASIMD",) * len(DISPATCHED): "0" * 64})
        assert str(err.value) == (
            f"no pinned digest for numpy's float64 dispatch targets {dict(zip(DISPATCHED, targets))}")
        assert _pinned({targets: "digest"}) == "digest"

    def test_avx2_entries_checked_in_a_child(self, request):
        """On an AVX-512 host the pins re-run in a child process under AVX2
        dispatch, so one tier-1 command reads both entries of every digest
        table.  The child's ``-k`` never selects this test."""
        if _dispatch_targets() != AVX512_TARGETS:
            pytest.skip(f"numpy dispatches {_dispatch_targets()}, not AVX512_TARGETS: no second target to check")
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(vlcrf.__file__))
        path = os.pathsep.join(p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")

        def child(*args):
            return subprocess.run([sys.executable, *args], env=env, cwd=os.path.dirname(tests),
                                  capture_output=True, text=True, timeout=600)

        probe = child("-c", "import test_experiment as t; print(t._dispatch_targets())")
        assert probe.stdout.strip() == str(AVX2_TARGETS), probe.stderr
        run = child("-m", "pytest", "-q", "-p", "no:cacheprovider", os.path.abspath(__file__),
                    "-k", f"pinned and not {request.node.name}")
        summary = run.stdout.strip().rsplit("\n", 1)[-1]
        passed = re.fullmatch(r"\d+ passed, \d+ deselected in .*", summary)
        assert run.returncode == 0 and passed, run.stdout + run.stderr

    @pytest.mark.parametrize("cpus", [3, 4])
    @pytest.mark.parametrize("name", ["fig3", "users"])
    def test_bytes_pinned_at_more_workers(self, tmp_path, monkeypatch, cpus, name):
        """The pinned fig3 and users-sweep bytes at 3 and 4 workers, where a
        user count may run as several blocks and the tasks go to the pool in
        another order; the pool is the in-process stand-in."""
        pools = _inline_pool(monkeypatch, cpus)
        if name == "fig3":
            cfg, want = load_config(overrides={"trials": "20"}, preset="fig3"), FIG3_DIGESTS
        else:
            cfg, want = build_config(USERS_SWEEPS["fraction"]), USERS_SWEEP_DIGESTS["fraction"]
        info = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        assert _digests(info) == _pinned(want)
        (pool,) = pools
        counts = [users for users, _ in pool.tasks]
        assert pool.size == cpus and counts == sorted(counts, reverse=True)
        assert len(counts) == -(-cpus // len(set(counts))) * len(set(counts))  # blocks per user count


class TestAudit:
    @pytest.mark.parametrize("command, fault", [
        pytest.param("sweep", fault, id=fault) for fault in ("tau_dl", "tau_ul", "rate")
    ] + [
        pytest.param(command, fault, id=f"{command}-{fault}")
        for command in ("solve", "report") for fault in ("tau_dl", "tau_ul", "rate")
    ])
    def test_nan_answer_never_reaches_the_rows(self, command, fault, tmp_path, monkeypatch):
        # a solver that returned a nan fraction, or fractions (each row and
        # the next target's start) short of the rate target, would be refused
        # before any row or text is made, by every command
        solve_rows = experiment.solve_rows

        def faulty(*args):
            out = solve_rows(*args)
            if fault == "rate":
                return dataclasses.replace(out, tau_dl=0.5 * out.tau_dl)
            taus = getattr(out, fault).copy()
            taus[-1, 0] = math.nan
            return dataclasses.replace(out, **{fault: taus})

        monkeypatch.setattr(experiment, "solve_rows", faulty)
        match = "short of r_min" if fault == "rate" else "nan or negative"
        cfg = load_config(overrides={"trials": "3", "output.dir": str(tmp_path)},
                          preset="fig3" if command == "sweep" else "fig4")
        with warnings.catch_warnings(), pytest.raises(RuntimeError, match=match):
            warnings.simplefilter("ignore")
            if command == "sweep":
                block = experiment.scenario_block(dataclasses.replace(cfg, users_count=2), range(3))
                experiment._rmin_chain_block(cfg, block)
            else:
                (run_solve if command == "solve" else run_report)(cfg)
        assert not os.listdir(tmp_path)  # no report written

    def test_short_answer_refused_before_it_starts_the_next_target(self, monkeypatch):
        # only the tightest target's answers fall short of the rate: the chain
        # refuses them before the next target's solve starts from them
        solve_rows, calls = experiment.solve_rows, []

        def faulty(*args):
            out = solve_rows(*args)
            calls.append(len(calls))
            return dataclasses.replace(out, tau_dl=0.5 * out.tau_dl) if len(calls) == 1 else out

        monkeypatch.setattr(experiment, "solve_rows", faulty)
        cfg = load_config(overrides={"trials": "3"}, preset="fig3")
        block = experiment.scenario_block(dataclasses.replace(cfg, users_count=2), range(3))
        with warnings.catch_warnings(), pytest.raises(RuntimeError, match="short of r_min"):
            warnings.simplefilter("ignore")
            experiment._rmin_chain_block(cfg, block)
        assert calls == [0]


REPORT_DIGEST = {
    AVX512_TARGETS: "2af7e1dda19444773d83b73e3e1d5b7ff98d35f387dbedda4f04c5cc0991721f",
    AVX2_TARGETS: "c3d5bce66e3bcb9e117d9d65fd9751d63a7fa6c8f5eb2f2cbb6da32e48da0f44",
}
ORACLE_PANEL_DIGEST = {
    AVX512_TARGETS: "5e69d1f9b3756f44d59be06f46b75a4dbf0c8bcc98afee26e43ca6c4ff68f31d",
    AVX2_TARGETS: "fc07d8c07d8b4f637ef0590ef49bc4cd22d7e1a345dc25a9e1d67fc7278a60cd",
}


class TestReportAndSolve:
    def test_fig4_report(self, tmp_path):
        cfg = load_config(overrides={"output.dir": str(tmp_path)}, preset="fig4")
        info = run_report(cfg)
        rows = read_rows(info["report_path"])
        assert len(rows) == 4
        tau_dl = np.array([float(r["tau_dl"]) for r in rows])
        assert int(np.sum(tau_dl > 0.01)) == 1
        for r in rows:
            assert float(r["vlc_gain"]) > 0

    def test_solve_with_oracle(self):
        cfg = build_config({
            "seed": "3", "users.count": "1", "rate.min_fraction": "0.4",
            "rf.los_reference_gain": "0.1",
        })
        out = run_solve(cfg, oracle=True)
        assert out["oracle"].passed

    def test_fig4_report_bytes_pinned(self, tmp_path):
        """``vlcrf report --preset fig4`` writes pinned bytes.

        Measured at commit fff193b, the last whose dual solve ran on numpy
        arrays, with numpy 2.4.6 on x86_64; another numpy or BLAS may round
        differently.
        """
        assert cli_main(["report", "--preset", "fig4", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "allocation_report.csv", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == _pinned(REPORT_DIGEST)

    def test_solve_oracle_panel_stdout_pinned(self, tmp_path, capsys):
        """``vlcrf solve --oracle`` prints pinned text on fig4 with two users,
        grid resolution 64 and seeds 0-9 (the benchmark's oracle panel).

        Measured at commit fff193b, as the report digest.
        """
        path = tmp_path / "c.txt"
        path.write_text("users.count = 2\noracle.resolution = 64\n")
        printed = []
        for seed in range(10):
            assert cli_main(["solve", "--oracle", "--preset", "fig4", "--config", str(path), "--seed", str(seed)]) == 0
            printed.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(printed).encode()).hexdigest() == _pinned(ORACLE_PANEL_DIGEST)

    def test_solve_stdout_pinned(self, tmp_path, capsys):
        """``vlcrf solve`` prints pinned text: fig4 (K = 4) without the
        oracle, then fig4 at K = 1 with the oracle at seeds 0 (a switched-off
        user) and 3.

        Measured at commit 7850686, the last whose ``solve`` ran one
        ``dca_solve``, with numpy 2.4.6 on x86_64.
        """
        assert cli_main(["solve", "--preset", "fig4"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _pinned({
            AVX512_TARGETS: "5b723cf425690b0398b4061e2f6cef708eb08320dc5f7063eba8c61020e6f0e1",
            AVX2_TARGETS: "5c49875224fcb0db61a0274b2dfa4969f981584fcd46f8dcadace57a6ff3d12d",
        })
        path = tmp_path / "c.txt"
        path.write_text("users.count = 1\n")
        printed = []
        for seed in (0, 3):
            assert cli_main(["solve", "--oracle", "--preset", "fig4", "--config", str(path), "--seed", str(seed)]) == 0
            printed.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(printed).encode()).hexdigest() == _pinned({
            AVX512_TARGETS: "29adb58110902d2daabb1262e0c4261d2b61392f3309424a43c8db19022c9f92",
            AVX2_TARGETS: "29adb58110902d2daabb1262e0c4261d2b61392f3309424a43c8db19022c9f92",
        })

    @pytest.mark.parametrize("command", ["solve", "report"])
    def test_unreachable_target_exit_three(self, tmp_path, capsys, command):
        # rate.min beyond every user's rate: exit 3, pinned stdout and report
        path = tmp_path / "c.txt"
        path.write_text("seed = 12\nrate.min = 99.0\nusers.count = 4\nrf.los_reference_gain = 0.1\n")
        out = tmp_path / "o"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 3
        if command == "solve":
            assert capsys.readouterr().out == (
                "status: infeasible\nr_min: 99.0\nrate target exceeds the best achievable DL sum rate\n")
        else:
            report = out / "allocation_report.csv"
            assert capsys.readouterr().out == f"report -> {report} (status: infeasible)\n"
            assert report.read_bytes() == (
                b"# infeasible: r_min = 99.0\n"
                b"user,tau_dl,tau_ul,vlc_gain,rate_coeff_bits,secrecy_bits,clamped_secrecy_bits\n")

    @pytest.mark.parametrize("command", ["solve", "report"])
    def test_out_of_fov_user_counted_once(self, tmp_path, command):
        # the one user out of view is counted, not warned about
        cfg = build_config({"seed": "1", "pd.fov": "20", "users.positions": "2.5,2.5,0.0; 0.1,0.1,0.0",
                            "output.dir": str(tmp_path)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_solve(cfg) if command == "solve" else run_report(cfg)
        assert out["dark"] == (1, 2)

    def test_solve_oracle_rejects_large_k(self, tmp_path, monkeypatch, capsys):
        # refused before the solve runs, for a feasible target only: an
        # infeasible one solves nothing and exits 3, as without the oracle
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_rows ran before the K check")

        monkeypatch.setattr(experiment, "solve_rows", no_solve)
        cfg = build_config({"seed": "3", "users.count": "3"})
        with pytest.raises(ConfigError, match="K <= 2"):
            run_solve(cfg, oracle=True)
        path = tmp_path / "c.txt"
        path.write_text("seed = 12\nusers.count = 3\nrate.min = 99.0\n")
        assert cli_main(["solve", "--oracle", "--config", str(path)]) == 3
        assert capsys.readouterr().out == (
            "status: infeasible\nr_min: 99.0\nrate target exceeds the best achievable DL sum rate\n")


class TestCli:
    def test_solve_exit_zero(self, tmp_path, capsys):
        code = cli_main([
            "solve", "--preset", "fig4", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "objective_bits" in out
        lines = out.splitlines()
        kkt = next(i for i, line in enumerate(lines) if line.startswith("kkt_residual: "))
        assert lines[kkt + 1].startswith("gap_bits: ")
        assert float(lines[kkt + 1].split(": ")[1]) <= 1e-8

    def test_solve_oracle_at_default_resolution(self, tmp_path, capsys):
        # oracle.resolution stays at its default of 256; seed 0 has a
        # positive objective, so the grid has something to match
        path = tmp_path / "c.txt"
        path.write_text("users.count = 2\n")
        code = cli_main([
            "solve", "--oracle", "--preset", "fig4", "--config", str(path), "--seed", "0",
            "--out", str(tmp_path / "o"),
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert float(next(ln for ln in lines if ln.startswith("objective_bits: ")).split(": ")[1]) > 0
        assert any(ln.startswith("oracle: ") and ln.endswith("-> pass") for ln in lines)

    def test_config_error_exit_two(self, capsys):
        code = cli_main(["solve", "--config", "/nonexistent.txt"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err

    def test_empty_config_path_exit_two(self, tmp_path, capsys):
        # an empty path names no file: it fails like any unreadable one
        code = cli_main(["solve", "--preset", "fig4", "--config", "", "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config file ''" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("led.power", "nan"),
        ("noise.user_dl", "nan"),
        ("room.width", "nan"),
        ("rf.k_factor", "nan"),
        ("pd.area", "inf"),
        ("solver.epsilon", "nan"),
        ("rate.min", "nan"),
        ("users.height", "-inf"),
    ])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, key, value):
        # nan and inf parse as floats; the config must reject them up front
        path = tmp_path / "c.txt"
        path.write_text(f"seed = 1\nusers.count = 2\n{key} = {value}\n")
        code = cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and key in err

    def test_missing_seed_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("users.count = 2\n")
        code = cli_main(["solve", "--config", str(path)])
        assert code == 2

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        # SeedSequence takes no negative entropy, so the config rejects the seed up front
        code = cli_main(["solve", "--preset", "fig4", "--seed", "-12", "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_sweep_writes_files(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in SMALL_SWEEP.items()) + "\n")
        code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "sweep_rows.csv").exists()
        assert (tmp_path / "o" / "sweep_agg.csv").exists()

    def test_users_sweep_zero_users_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("seed = 1\ntrials = 1\nsweep.kind = users\nsweep.values = 0,1\nruntime.workers = 1\n")
        code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "sweep.values" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["solve", "report", "sweep"])
    @pytest.mark.parametrize("geometry, message", [
        ({"ap.position": "1.0,1.0,1e-160", "rf.los_reference_gain": "1e200"},
         "user 0: the uplink amplitude h must be finite, got nan"),
        ({"ap.position": "1.0,1.0,1e-160", "rf.path_loss_exponent": "3.9"},
         "user 0: the line-of-sight amplitude to the access point overflows at 9.99994433575849e-161 m"),
        ({"led.position": "1.0,1.0,1e-160"}, "user 0: the VLC gain g must be finite, got inf"),
        ({"users.positions": "2.5,2.5,3.0"}, "user 0 coincides with the LED"),
        ({"ap.position": "1.0,1.0,1e-160"}, "user 0: the SNR constant a must be finite, got inf"),
        # a Python float ** that overflows, a sin ** 2 that underflows, or a
        # cosine that rounds to 1, each caught where it happens
        ({"led.dc_offset": "1.9e273"}, "the SNR constants overflow: I_D^2 at led.dc_offset = 1.9e+273"),
        ({"pd.refractive_index": "1e160"}, "user 0: the concentrator gain overflows"),
        ({"pd.fov": "1e-200", "led.position": "1.0,1.0,3.0"}, "user 0: the concentrator gain overflows"),
        ({"room.width": "1e200", "room.depth": "1e200"}, "user 0: the distance to the LED overflows"),
        ({"room.height": "1e200"}, "user 0: the distance to the LED overflows"),
        ({"led.position": "1e155,0,3"}, "user 0: the distance to the LED overflows"),
        ({"ap.position": "1e200,0,0"}, "user 0: the distance to the access point overflows"),
        ({"eve.position": "1e200,0,0"}, "user 0: the distance to the eavesdropper position overflows"),
        ({"led.semi_angle": "5e-7"},
         "led: LedConfig.semi_angle_half is too narrow for a Lambertian order (its cosine rounds to 1), got 5e-07"),
    ])
    def test_unevaluable_scenario_exit_two(self, tmp_path, capfd, geometry, message, command, workers):
        # the one line on stderr is the refusal: no traceback, and no numpy
        # warning before it (the error filter makes one fail the command)
        raw = {"seed": "3", "users.positions": "1.0,1.0,0.0", **geometry, "trials": "2",
               "sweep.kind": "rmin", "sweep.values": "0.1", "runtime.workers": workers}
        path = tmp_path / "c.txt"
        path.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert (code, *capfd.readouterr()) == (2, "", f"config error: {message}\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["solve", "report", "sweep", "oracle"])
    @pytest.mark.parametrize("key", ["noise.user_ul", "noise.eve_ul"])
    def test_huge_noise_exits_zero(self, tmp_path, capfd, key, command):
        # noise 1e300 makes a (or aE) subnormal, and aE / a (or a / aE)
        # overflows: a switched-off user's constants, or an aE that reads as 0
        raw = {"seed": "3", "users.count": "2", "trials": "2", key: "1e300", "runtime.workers": "1",
               "sweep.kind": "rmin_fraction", "sweep.values": "0.2,0.6"}
        path = tmp_path / "c.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        argv = ["solve", "--oracle"] if command == "oracle" else [command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(argv + ["--config", str(path), "--out", str(tmp_path / "o")])
        printed = capfd.readouterr()
        assert (code, printed.err) == (0, "") and printed.out

    # each numeric key's accepted finite range, as (least, largest) base-10
    # exponents of a log-uniform draw, and the open or closed upper ends
    NUMERIC_KEYS = {
        **{key: (-323.3, 308.25) for key in (
            "noise.user_dl", "noise.user_ul", "noise.eve_dl", "noise.eve_ul", "led.power", "led.dc_offset",
            "pd.area", "pd.responsivity", "pd.filter_gain", "rf.k_factor", "rf.los_reference_gain",
            "room.width", "room.depth", "room.height")},
        "led.semi_angle": (-323.3, math.log10(90.0)),
        "pd.fov": (-323.3, math.log10(90.0)),
        "pd.refractive_index": (0.0, 308.25),
        "rf.path_loss_exponent": (0.0, 308.25),
        "harvest.efficiency": (-323.3, 0.0),
    }
    CEILINGS = {"led.semi_angle": math.nextafter(90.0, 0.0), "pd.fov": 90.0, "harvest.efficiency": 1.0}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_numeric_keys_never_raise(self, data):
        """Any values of 1-6 numeric keys, each log-uniform over its accepted
        finite range: ``solve`` and ``report`` return 0, 2 or 3, raise
        nothing (a warning included), print only ``config error:`` and
        ``warning:`` lines on stderr, and a config error as its one line with
        empty stdout."""
        keys = data.draw(st.lists(st.sampled_from(sorted(self.NUMERIC_KEYS)), min_size=1, max_size=6, unique=True))
        raw = {"seed": str(data.draw(st.integers(0, 99))), "users.count": str(data.draw(st.integers(1, 4))),
               "trials": "1", "rate.min_fraction": "0.5", "runtime.workers": "1"}
        for key in keys:
            value = 10.0 ** data.draw(st.floats(*self.NUMERIC_KEYS[key]))
            raw[key] = repr(min(value, self.CEILINGS.get(key, math.inf)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{key} = {value}\n" for key, value in raw.items()))
            for command in ("solve", "report"):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = cli_main([command, "--config", path, "--out", os.path.join(tmp, "o")])
                lines = err.getvalue().splitlines()
                assert code in (0, 2, 3), (command, raw, lines)
                assert all(line.startswith(("config error: ", "warning: ")) for line in lines), (command, raw, lines)
                if code == 2:
                    assert (out.getvalue(), len(lines)) == ("", 1), (command, raw, lines)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command, out, message", [
        # the output directory is a file, or lies under one
        ("sweep", "taken", "cannot create output directory '{out}': [Errno 17] File exists: '{out}'"),
        ("report", "taken/sub", "cannot create output directory '{out}': [Errno 20] Not a directory: '{out}'"),
        # the directory is fine, but the file to write is a directory
        ("sweep", "o", "cannot write '{out}/sweep_rows.csv': [Errno 21] Is a directory: '{out}/sweep_rows.csv'"),
        ("report", "o", "cannot write '{out}/allocation_report.csv': "
                        "[Errno 21] Is a directory: '{out}/allocation_report.csv'"),
    ])
    def test_unusable_output_exit_two(self, tmp_path, capfd, command, out, message, workers):
        (tmp_path / "taken").write_text("")
        (tmp_path / "o" / "sweep_rows.csv").mkdir(parents=True)
        (tmp_path / "o" / "allocation_report.csv").mkdir()
        path = tmp_path / "c.txt"
        path.write_text(f"runtime.workers = {workers}\n")
        out = str(tmp_path / out)
        code = cli_main([command, "--preset", "fig3" if command == "sweep" else "fig4", "--trials", "2",
                         "--config", str(path), "--out", out])
        assert (code, *capfd.readouterr()) == (2, "", f"config error: {message.format(out=out)}\n")
        assert multiprocessing.active_children() == []

    def test_failing_write_is_not_a_config_error(self, tmp_path, monkeypatch):
        # only a path that cannot be opened is refused as configuration; a
        # write that fails on an opened file (a full disk) raises as it is
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(experiment, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        with pytest.raises(OSError) as info:
            experiment._write_csv(str(tmp_path / "x.csv"), "# c", ["a"], "")
        assert not isinstance(info.value, ConfigError) and info.value.errno == errno.ENOSPC

    # sha256 of the out-of-view config's stdout, with its output directory
    # written "OUT", then each output file's name and bytes; measured at
    # commit 20c9bd8, the last whose scenarios warned, with numpy 2.4.6 on
    # x86_64, the same under the AVX-512 and the AVX2 targets
    DARK_DIGESTS = {
        "solve": "a22c8936bbd554ef7d31fcbc632120c139cbf69e8999a48c389e20fc0ba410a0",
        "report": "c648984fadec1c45b22c510beaa2240afca7560112648c42ced443381485ffb3",
        "sweep": "a8186d2583eecec4c5b74978d27f096dbdedfcc835d025ec585becc36919a5f6",
    }

    @pytest.mark.parametrize("command", ["solve", "report", "sweep"])
    @pytest.mark.parametrize("preset", [None, "fig3", "fig4"])
    def test_one_notice_for_placements_out_of_view(self, tmp_path, capfd, preset, command):
        """Seed 31 with a 25 degree field of view puts 3 of trial 0's 6 users,
        and 14 of trials 0-2's 18, out of the LED's view.  Each command prints
        one notice line on stderr, counted over every scenario it drew, and
        raises no warning; the line and every byte of stdout and the outputs
        are the same at 1 and 2 workers.  The presets print no notice, and
        ``sweep --preset fig4`` only its config error.
        """
        raw = {"trials": "2"} if preset else {
            "seed": "31", "pd.fov": "25", "users.count": "6", "trials": "3",
            "sweep.kind": "rmin_fraction", "sweep.values": "0.2,0.5"}
        seen = []
        for workers in ("1", "2"):
            out, path = tmp_path / workers, tmp_path / f"{workers}.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in dict(raw, **{"runtime.workers": workers}).items()))
            argv = [command, "--config", str(path), "--out", str(out)] + (["--preset", preset] if preset else [])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli_main(argv)
            printed = capfd.readouterr()
            assert multiprocessing.active_children() == []
            written = printed.out.replace(str(out), "OUT").encode()
            for name in sorted(os.listdir(out)) if out.is_dir() else []:
                written += name.encode() + b"\n" + (out / name).read_bytes()
            seen.append((code, printed.err, hashlib.sha256(written).hexdigest()))
        assert seen[0] == seen[1]
        code, err, digest = seen[0]
        if preset is None:
            dark = "14 of 18" if command == "sweep" else "3 of 6"
            assert (code, err) == (0, f"warning: {dark} user placements are outside the LED field of view; "
                                      "their VLC gain is 0\n")
            assert digest == self.DARK_DIGESTS[command]
        elif preset == "fig4" and command == "sweep":
            assert (code, err) == (2, "config error: sweep.kind: a sweep requires sweep.kind "
                                      "(or a preset that sets it: fig3)\n")
        else:
            assert (code, err) == (0, "")

    def test_infeasible_everywhere_exit_three(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(
            "seed = 1\ntrials = 1\nusers.count = 1\n"
            "sweep.kind = rmin\nsweep.values = 99.0\nruntime.workers = 1\n"
        )
        code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_report_command(self, tmp_path, capsys):
        code = cli_main(["report", "--preset", "fig4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "allocation_report.csv").exists()

    def test_seed_override(self, tmp_path, capsys):
        code = cli_main(["solve", "--preset", "fig4", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0

    def test_flags_over_file_over_preset(self, tmp_path, monkeypatch):
        seen = []

        def report(cfg):
            seen.append(cfg)
            return {"report_path": os.path.join(cfg.output_dir, "r.csv"), "status": "converged", "dark": (0, 2)}

        monkeypatch.setattr(cli, "run_report", report)
        path = tmp_path / "c.txt"
        path.write_text(f"seed = 7\ntrials = 3\nusers.count = 2\noutput.dir = {tmp_path / 'file'}\n")
        argv = ["report", "--preset", "fig4", "--config", str(path)]
        assert cli_main(argv) == 0
        assert cli_main(argv + ["--seed", "9", "--trials", "6", "--out", str(tmp_path / "flag")]) == 0
        from_file, from_flags = seen
        assert (from_file.seed, from_file.trials, from_file.output_dir) == (7, 3, str(tmp_path / "file"))
        assert (from_flags.seed, from_flags.trials, from_flags.output_dir) == (9, 6, str(tmp_path / "flag"))
        for cfg in seen:
            assert cfg.users_count == 2 and cfg.r_min_fraction == 0.6  # file over preset, preset kept

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--oracle", "--config", "--preset", "--seed", "--trials", "--out"]),
        ("sweep", ["--config", "--preset", "--seed", "--trials", "--out"]),
        ("report", ["--config", "--preset", "--seed", "--trials", "--out"]),
    ])
    def test_help_lists_the_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as stop:
            cli_main([command, "--help"])
        assert stop.value.code == 0
        options = capsys.readouterr().out.split("options:\n", 1)[1]
        assert re.findall(r"^  (-[\w-]+)(?:, (--[\w-]+))?", options, re.M) == [
            ("-h", "--help"), *((flag, "") for flag in flags)]

    def test_parser_built_once_answers_as_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        # main() keeps one parser per process: a run of calls through it
        # prints, writes and exits as the same calls through a fresh parser each
        out = str(tmp_path / "out")
        config = tmp_path / "serial.cfg"
        config.write_text("runtime.workers = 1\n")
        calls = [
            ["solve", "--preset", "fig4", "--out", out],
            ["sweep", "--preset", "fig3", "--trials", "2", "--config", str(config), "--out", out],
            ["sweep", "--bogus"],
            ["report", "--preset", "fig4", "--seed", "3", "--out", out],
            ["solve", "--preset", "fig4", "--trials", "x"],
            ["sweep", "--preset", "fig4", "--out", out],
            ["report", "--help"],
            ["solve", "--preset", "fig4", "--seed", "5", "--out", out],
        ]

        def run_all():
            seen = []
            for argv in calls:
                try:
                    code = cli_main(argv)
                except SystemExit as stop:
                    code = f"exit {stop.code}"
                printed = capsys.readouterr()
                files = {}
                for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                    with open(os.path.join(out, name), "rb") as fh:
                        files[name] = fh.read()
                seen.append((code, printed.out, printed.err, files))
            return seen

        assert cli._build_parser() is cli._build_parser()
        reused = run_all()
        for name in os.listdir(out):
            os.remove(os.path.join(out, name))
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert run_all() == reused
        assert [code for code, *_ in reused] == [0, 0, "exit 2", 0, "exit 2", 2, "exit 0", 0]

    @staticmethod
    def _loaded_by(statement: str, package: str) -> str:
        """The modules of ``package`` that a fresh interpreter has loaded after ``statement``."""
        src = os.path.dirname(os.path.dirname(vlcrf.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        )
        return out.stdout.strip()

    def test_cli_imports_without_scipy(self):
        # the package needs numpy only; scipy would add startup time and memory
        assert self._loaded_by("import vlcrf.cli", "scipy") == "[]"

    def test_cli_imports_without_the_process_pool(self):
        # only a sweep that forks loads the pool and multiprocessing
        assert self._loaded_by("import vlcrf.cli", "multiprocessing") == "[]"
        assert "concurrent.futures.process" not in self._loaded_by("import vlcrf.cli", "concurrent")

    def test_package_import_loads_no_module(self):
        # the package re-exports nothing: each module is imported by its name
        assert self._loaded_by("import vlcrf", "vlcrf") == "['vlcrf']"
        assert self._loaded_by("import vlcrf.cli", "vlcrf") == str([
            "vlcrf", "vlcrf.cli", "vlcrf.dc_solver", "vlcrf.experiment", "vlcrf.link_budget",
            "vlcrf.reference_oracle", "vlcrf.rf_channel", "vlcrf.vlc_channel"])
