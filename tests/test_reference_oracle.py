"""Grid-oracle checks: accuracy against closed forms and the solver."""

import math
import warnings

import numpy as np
import pytest

from vlcrf.dc_solver import DcaResult, DcaSettings, FeasibleSet, allocation_violation, dca_solve
from vlcrf.experiment import PRESETS, build_config, generate_scenario
from vlcrf.link_budget import ScenarioChannels, dl_rate_coefficients
from vlcrf.reference_oracle import GridSpec, compare, grid_search


def scenario_with_a(a_values, ae_values):
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    ae = np.atleast_1d(np.asarray(ae_values, dtype=float))
    return ScenarioChannels(
        g=np.ones_like(a),
        h=np.sqrt(a * 1e-14 / (0.44 * 4.0)),
        h_e=np.sqrt(ae * 1e-14 / (0.44 * 4.0)),
        sigma2_dl=np.full(a.shape, 1e-14),
        sigma2_ul=np.full(a.shape, 1e-14),
        sigma2_e=1e-14,
        eta=0.44,
        i_d=2.0,
        p_led=1.0,
    )


def fs_for(s, r_min=0.0):
    return FeasibleSet(dl_rate_coefficients(s), float(r_min))


FINE = GridSpec(resolution=1024, refine_rounds=3, refine_shrink=0.2)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=8)
        with pytest.raises(ValueError):
            GridSpec(refine_rounds=-1)
        with pytest.raises(ValueError):
            GridSpec(refine_shrink=1.0)


class TestSingleUser:
    def test_identical_channels_zero(self):
        s = scenario_with_a([7.0], [7.0])
        _, obj = grid_search(s, fs_for(s, 1.0), GridSpec(resolution=64, refine_rounds=1))
        assert obj == 0.0

    def test_forced_full_dl_slot(self):
        s = scenario_with_a([10.0], [1.0])
        c = float(dl_rate_coefficients(s)[0])
        alloc, obj = grid_search(s, fs_for(s, c), GridSpec(resolution=64, refine_rounds=1))
        assert float(alloc.tau_dl[0]) == 1.0
        assert obj == 0.0

    def test_ten_vs_one_hand_optimum(self):
        s = scenario_with_a([10.0], [1.0])
        alloc, obj = grid_search(s, fs_for(s, 0.0), FINE)
        assert obj == pytest.approx(math.log2(11.0) - math.log2(2.0), abs=2e-4)
        assert float(alloc.tau_dl[0]) <= 1e-3
        assert float(alloc.tau_ul[0]) == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_with_rate_target(self):
        # for a > a_E the objective increases in tau_ul and decreases in
        # tau_dl, so the optimum sits at tau_ul = 1, tau_dl = r_min/c
        rng = np.random.default_rng(20)
        for _ in range(8):
            a = float(rng.uniform(2.0, 300.0))
            ae = float(rng.uniform(0.05, 0.5)) * a
            s = scenario_with_a([a], [ae])
            c = float(dl_rate_coefficients(s)[0])
            r_min = float(rng.uniform(0.0, 0.9)) * c
            _, obj = grid_search(s, fs_for(s, r_min), FINE)
            a_act = float(s.a_user()[0])
            ae_act = float(s.a_eve()[0])
            leftover = 1.0 - r_min / c
            expected = math.log2(1.0 + a_act * leftover) - math.log2(1.0 + ae_act * leftover)
            assert obj == pytest.approx(expected, abs=1e-4)

    def test_refinement_never_degrades(self):
        s = scenario_with_a([40.0], [3.0])
        fs = fs_for(s, 2.0)
        objs = [
            grid_search(s, fs, GridSpec(resolution=128, refine_rounds=r))[1]
            for r in range(4)
        ]
        assert all(objs[i + 1] >= objs[i] for i in range(3))

    def test_returned_point_feasible(self):
        s = scenario_with_a([25.0], [2.0])
        fs = fs_for(s, 3.0)
        alloc, _ = grid_search(s, fs, GridSpec(resolution=64, refine_rounds=1))
        assert allocation_violation(fs, alloc) <= 1e-12


class TestTwoUsers:
    def test_agrees_with_solver(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            s = scenario_with_a(rng.uniform(1.0, 80.0, 2), rng.uniform(0.1, 20.0, 2))
            c = dl_rate_coefficients(s)
            fs = fs_for(s, float(rng.uniform(0.0, 0.7)) * float(c.max()))
            res = dca_solve(s, fs, DcaSettings())
            _, oracle_obj = grid_search(s, fs, GridSpec(resolution=64, refine_rounds=3))
            assert compare(res, oracle_obj, rel_tol=1e-3).passed
            # two-sided sanity: the feasible grid point cannot beat the
            # solver by much either
            assert res.objective >= oracle_obj - 1e-3 * max(1.0, abs(oracle_obj))

    def test_unsupported_user_count(self):
        s = scenario_with_a([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            grid_search(s, fs_for(s, 0.0), GridSpec(resolution=16))

    def test_infeasible_rejected(self):
        s = scenario_with_a([5.0], [1.0])
        c = float(dl_rate_coefficients(s)[0])
        with pytest.raises(ValueError):
            grid_search(s, FeasibleSet(np.array([c]), c + 1.0), GridSpec(resolution=16))


class TestCertificateCrossCheck:
    def test_grid_never_beats_the_certified_bound(self):
        # the grid value is a feasible lower bound on the optimum and
        # objective + gap_bits an upper bound, at the start (a huge epsilon
        # returns it unsolved) and at the answer; panel: fig4 at K = 1, 2
        for users in (1, 2):
            for seed in range(10):
                raw = dict(PRESETS["fig4"], seed=str(seed))
                raw["users.count"] = str(users)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    s, fs = generate_scenario(build_config(raw), 0)
                _, grid = grid_search(s, fs, GridSpec(resolution=32, refine_rounds=3))
                for res in (dca_solve(s, fs, DcaSettings(epsilon=1e9)), dca_solve(s, fs)):
                    assert grid <= res.objective + res.gap_bits + 1e-12


class TestCompare:
    def _result(self, objective):
        return DcaResult(
            allocation=None, objective=objective, iterations=1,
            status="converged",
        )

    def test_within_tolerance_passes(self):
        out = compare(self._result(0.9995), 1.0, rel_tol=1e-3)
        assert out.passed and out.gap == pytest.approx(0.0005)

    def test_solver_beating_grid_passes(self):
        assert compare(self._result(1.01), 1.0, rel_tol=1e-3).passed

    def test_clearly_below_fails(self):
        out = compare(self._result(0.9), 1.0, rel_tol=1e-3)
        assert not out.passed
        assert out.gap == pytest.approx(0.1)
