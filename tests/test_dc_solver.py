"""Solver checks: projections, the dual engine, certificates, sweep chains.

The hypothesis suites are derandomized, yet their examples move when only
src/ changes: hypothesis 6.155 mines the literal constants of local modules
(src/vlcrf among them) and draws one of them with p = 0.05, so a changed
literal there reshuffles the example set.  Compare their counts within one
commit only.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vlcrf.dc_solver import (
    DcaSettings,
    FeasibleSet,
    allocation_violation,
    check_feasibility,
    dca_solve,
    initial_allocation,
    kkt_residual,
    project_onto_feasible,
)
from vlcrf.experiment import generate_scenario, preset_config
from dual_reference import dl_leftovers, dual_probes
from vlcrf.link_budget import (
    Allocation,
    ScenarioChannels,
    dl_rate_coefficients,
    objective_value,
    secrecy_capacity_user,
)


def scenario_with_a(a_values, ae_values):
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    ae = np.atleast_1d(np.asarray(ae_values, dtype=float))
    h = np.sqrt(a * 1e-14 / (0.44 * 4.0))
    h_e = np.sqrt(ae * 1e-14 / (0.44 * 4.0))
    return ScenarioChannels(
        g=np.ones_like(a), h=h, h_e=h_e,
        sigma2_dl=np.full(a.shape, 1e-14), sigma2_ul=np.full(a.shape, 1e-14), sigma2_e=1e-14,
        eta=0.44, i_d=2.0, p_led=1.0,
    )


def fs_for(s, r_min=0.0):
    return FeasibleSet(dl_rate_coefficients(s), float(r_min))


class TestFeasibility:
    def test_zero_target_always_feasible(self):
        assert check_feasibility(FeasibleSet(np.array([3.0, 1.0]), 0.0))

    def test_boundary_target_feasible(self):
        assert check_feasibility(FeasibleSet(np.array([3.0, 1.0]), 3.0))

    def test_beyond_best_user_infeasible(self):
        assert not check_feasibility(FeasibleSet(np.array([3.0, 1.0]), 3.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            FeasibleSet(np.array([1.0]), -0.5)
        with pytest.raises(ValueError):
            FeasibleSet(np.array([-1.0]), 0.0)

    @pytest.mark.parametrize("r_min", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, r_min):
        # a nan target used to pass and then read as an infeasible solve
        with pytest.raises(ValueError, match="r_min"):
            FeasibleSet(np.array([3.0, 1.0]), r_min)


class TestInitialAllocation:
    def test_half_loaded_single_user(self):
        fs = FeasibleSet(np.array([10.0]), 5.0)
        alloc = initial_allocation(fs)
        assert float(alloc.tau_dl[0]) == pytest.approx(0.500001, rel=1e-12)
        assert float(alloc.tau_ul[0]) == 1.0

    def test_zero_target_near_zero_dl(self):
        fs = FeasibleSet(np.array([4.0, 9.0]), 0.0)
        alloc = initial_allocation(fs)
        assert float(alloc.tau_dl[1]) == pytest.approx(1e-6, rel=1e-12)
        assert float(alloc.tau_dl[0]) == 0.0
        assert np.all(alloc.tau_ul == 0.5)

    def test_rate_constraint_satisfied_by_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            c = rng.uniform(0.5, 12.0, k)
            fs = FeasibleSet(c, float(rng.uniform(0.0, 1.0) * c.max()))
            alloc = initial_allocation(fs)
            assert float(np.dot(c, alloc.tau_dl)) >= fs.r_min - 1e-12

    def test_tie_break_lowest_index(self):
        alloc = initial_allocation(FeasibleSet(np.array([3.0, 3.0]), 1.5))
        assert alloc.tau_dl[0] > 0 and alloc.tau_dl[1] == 0.0

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            initial_allocation(FeasibleSet(np.array([1.0]), 2.0))


class TestProjection:
    def test_feasible_points_fixed(self):
        fs = FeasibleSet(np.array([5.0, 2.0]), 1.0)
        dl, ul = project_onto_feasible(fs, [0.3, 0.1], [0.4, 0.4])
        assert dl == [0.3, 0.1]
        assert ul == [0.4, 0.4]

    def test_output_always_feasible(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            k = int(rng.integers(1, 9))
            c = rng.uniform(0.0, 12.0, k)
            r_min = float(rng.uniform(0, 0.95) * c.max()) if c.max() > 0 else 0.0
            fs = FeasibleSet(c, r_min)
            dl, ul = project_onto_feasible(
                fs, rng.uniform(-1.5, 1.5, k).tolist(), rng.uniform(-1.5, 1.5, k).tolist()
            )
            alloc = Allocation(np.maximum(dl, 0.0), np.maximum(ul, 0.0))
            assert allocation_violation(fs, alloc) <= 1e-9
            assert min(ul) >= 0.0

    @staticmethod
    def _large_cases(seed):
        """(fs, v_dl, v_ul) with entries of 1e6-1e13: K = 1..8, with and
        without a rate target, all-positive, all-negative and mixed signs."""
        rng = np.random.default_rng(seed)
        for k in range(1, 9):
            for with_rate in (False, True):
                for sign in (1.0, -1.0, None):
                    for _ in range(4):
                        c = rng.uniform(0.5, 50.0, k)
                        r_min = float(rng.uniform(0.05, 0.95) * c.max()) if with_rate else 0.0
                        scale = 10.0 ** rng.uniform(6.0, 13.0)
                        v = [
                            rng.uniform(0.5, 1.0, k) * scale
                            * (sign if sign is not None else rng.choice([-1.0, 1.0], k))
                            for _ in range(2)
                        ]
                        yield FeasibleSet(c, r_min), v[0], v[1]

    def test_large_inputs_stay_feasible(self):
        # the inner loop's undamped block-Newton trials reach 1e11-3e12;
        # the budget and rate faces must survive shifts of that size
        for fs, v_dl, v_ul in self._large_cases(16):
            dl, ul = project_onto_feasible(fs, v_dl.tolist(), v_ul.tolist())
            assert sum(dl) <= 1.0 + 1e-12
            assert sum(ul) <= 1.0 + 1e-12
            assert min(dl) >= 0.0
            assert min(ul) >= 0.0
            assert float(np.dot(fs.rate_coeffs, dl)) >= fs.r_min * (1.0 - 1e-12)

    def test_large_inputs_dl_repair_stops_at_the_rate_face(self):
        # the DL block is a feasibility repair, not a projection: clipped and
        # scaled onto the budget, a point short of r_min moves toward the
        # best-user vertex just until it reaches the rate face
        for fs, v, _ in self._large_cases(17):
            c, r_min = fs.rate_coeffs, fs.r_min
            dl, _ = project_onto_feasible(fs, v, np.full(fs.K, 0.1))
            assert sum(dl) <= 1.0 + 1e-12 and min(dl) >= 0.0
            clipped = np.maximum(v, 0.0)
            clipped /= max(1.0, clipped.sum())
            if float(c @ clipped) < r_min:
                assert float(c @ np.asarray(dl)) == pytest.approx(r_min, rel=1e-12)
            else:
                assert dl == clipped.tolist()

    def test_single_user_large_inputs_exact(self):
        # K = 1: the exact projections are the budget (UL) and r_min / c (DL)
        fs = FeasibleSet(np.array([45.3]), 21.37)
        dl, ul = project_onto_feasible(fs, [-1e12], [1e12])
        assert ul[0] == pytest.approx(1.0, abs=1e-15)
        assert dl[0] == pytest.approx(21.37 / 45.3, rel=1e-15)
        assert 45.3 * dl[0] >= 21.37 * (1.0 - 1e-12)

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            project_onto_feasible(FeasibleSet(np.array([2.0, 1.0]), 2.5), [0.5, 0.5], [0.5, 0.5])


@st.composite
def _projection_problem(draw, exponents=(-12.0, 13.0)):
    """(fs, v_dl, v_ul): K = 1..64, entries of either sign with magnitudes
    10^exponents, rate coefficients log-uniform with some zero, and r_min
    at 0, inside the range or at max c."""
    k = draw(st.integers(1, 64))
    sign = hnp.arrays(np.float64, k, elements=st.sampled_from([-1.0, 1.0]))
    magnitude = hnp.arrays(np.float64, k, elements=st.floats(*exponents))
    v_dl, v_ul = (draw(sign) * 10.0 ** draw(magnitude) for _ in range(2))
    c = 10.0 ** draw(hnp.arrays(np.float64, k, elements=st.floats(-3.0, 3.0)))
    c[draw(hnp.arrays(np.bool_, k))] = 0.0
    share = draw(st.sampled_from([0.0, None, 1.0]))
    if share is None:
        share = draw(st.floats(0.01, 0.99))
    return FeasibleSet(c, share * float(c.max())), v_dl, v_ul


class TestProjectionProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_projection_problem())
    # UL entries of order 100 leave the direct threshold form 6e-15 over the budget
    @example((FeasibleSet(np.ones(10), 0.0), -np.ones(10), np.r_[-np.ones(9), 100.0]))
    def test_output_feasible_and_stable(self, problem):
        fs, v_dl, v_ul = problem
        dl, ul = project_onto_feasible(fs, v_dl, v_ul)
        assert sum(dl) <= 1.0 + 1e-12 and sum(ul) <= 1.0 + 1e-12
        assert float(np.dot(fs.rate_coeffs, dl)) >= fs.r_min * (1.0 - 1e-12)
        assert min(ul) >= 0.0 and min(dl) >= 0.0
        dl2, ul2 = project_onto_feasible(fs, dl, ul)
        assert np.abs(np.subtract(dl2, dl)).max() <= 1e-15
        assert np.abs(np.subtract(ul2, ul)).max() <= 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_projection_problem(exponents=(-12.0, 0.0)), st.sampled_from([0.0, 0.5, 1.0]))
    def test_feasible_input_unchanged(self, problem, share):
        # both blocks scaled to half the frame; r_min up to the point's own rate
        fs, v_dl, v_ul = problem
        dl = np.abs(v_dl) / (2.0 * np.abs(v_dl).sum())
        ul = np.abs(v_ul) / (2.0 * np.abs(v_ul).sum())
        fs = FeasibleSet(fs.rate_coeffs, share * float(np.dot(fs.rate_coeffs, dl)))
        assert project_onto_feasible(fs, dl, ul) == (dl.tolist(), ul.tolist())


class TestDcaSolve:
    def test_no_eavesdropper_matches_closed_form(self):
        # with a_E = 0 the optimum pushes tau_dl to the rate boundary and
        # tau_ul to the full frame: f* = log2(1 + a (1 - r_min/c))
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = float(rng.uniform(1.0, 300.0))
            s = scenario_with_a([a], [1e-15])
            c = float(dl_rate_coefficients(s)[0])
            r_min = float(rng.uniform(0.0, 0.9)) * c
            res = dca_solve(s, fs_for(s, r_min), DcaSettings())
            a_actual = float(s.a_user()[0])
            leftover = 1.0 - r_min / c
            expected = math.log2(1.0 + a_actual * leftover)
            assert res.objective == pytest.approx(expected, abs=1e-4, rel=1e-4)

    def test_identical_channels_zero_in_two_iterations(self):
        s = scenario_with_a([10.0, 4.0], [10.0, 4.0])
        res = dca_solve(s, fs_for(s, 1.0), DcaSettings())
        assert res.objective == 0.0
        assert res.status == "converged"
        assert res.iterations <= 2

    def test_rate_sweep_non_increasing(self):
        s = scenario_with_a([80.0], [3.0])
        c = float(dl_rate_coefficients(s)[0])
        objs = []
        for frac in np.linspace(0.0, 0.9, 7):
            res = dca_solve(s, fs_for(s, frac * c), DcaSettings())
            objs.append(res.objective)
        assert all(objs[i] >= objs[i + 1] - 1e-6 for i in range(len(objs) - 1))

    def test_settings_validation(self):
        # an infinite epsilon would certify any start: on fig4 it passed a
        # start 0.4 bit below the optimum as converged
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                DcaSettings(epsilon=bad)
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValueError):
                DcaSettings(max_iterations=bad)
        assert DcaSettings(max_iterations=np.int64(7)).max_iterations == 7

    def test_infeasible_status(self):
        s = scenario_with_a([10.0], [1.0])
        c = float(dl_rate_coefficients(s)[0])
        res = dca_solve(s, FeasibleSet(np.array([c]), c + 1.0))
        assert res.status == "infeasible"
        assert res.allocation is None
        assert math.isnan(res.objective)

    def test_ascent_across_scenarios(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            k = [1, 2, 4, 8][trial % 4]
            s = scenario_with_a(rng.uniform(0.2, 200.0, k), rng.uniform(0.2, 200.0, k))
            fs = fs_for(s, rng.uniform(0, 0.8) * dl_rate_coefficients(s).max())
            res = dca_solve(s, fs, DcaSettings())
            assert res.objective >= objective_value(s, initial_allocation(fs)) - 1e-9
            assert allocation_violation(fs, res.allocation) <= 1e-8

    def test_fixed_point_restart(self):
        s = scenario_with_a([60.0, 25.0], [2.0, 1.0])
        fs = fs_for(s, 1.5)
        first = dca_solve(s, fs, DcaSettings())
        assert first.status == "converged"
        again = dca_solve(s, fs, DcaSettings(), initial=first.allocation)
        assert again.iterations <= 2
        assert again.objective == pytest.approx(first.objective, abs=1e-8)

    def test_eavesdropper_dominance_nonpositive(self):
        s = scenario_with_a([1.0, 2.0], [30.0, 18.0])
        res = dca_solve(s, fs_for(s, 0.5), DcaSettings())
        assert res.objective <= 1e-9

    def test_snapping_keeps_rate_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            s = scenario_with_a(rng.uniform(0.5, 80.0, k), rng.uniform(0.5, 80.0, k))
            c = dl_rate_coefficients(s)
            fs = fs_for(s, rng.uniform(0.3, 0.9) * c.max())
            res = dca_solve(s, fs, DcaSettings())
            assert float(np.dot(c, res.allocation.tau_dl)) >= fs.r_min - 1e-6
            small = res.allocation.tau_ul[(res.allocation.tau_ul > 0) & (res.allocation.tau_ul < 1e-6)]
            assert small.size == 0  # reporting snap removed the slivers


class TestKktResidual:
    def test_near_zero_at_verified_optimum(self):
        s = scenario_with_a([45.0], [1.5])
        fs = fs_for(s, 2.0)
        res = dca_solve(s, fs, DcaSettings())
        assert res.gap_bits < 1e-4

    def test_large_at_initial_allocation(self):
        # generic non-stationarity of the deterministic starting point on
        # a fixed strong-channel scenario
        s = scenario_with_a([150.0, 40.0], [2.0, 1.0])
        fs = fs_for(s, 1.0)
        resid = kkt_residual(s, fs, initial_allocation(fs))
        assert resid > 1e-2

    def test_corner_user_does_not_swamp_the_ul_gap(self):
        # user 0 holds the whole DL frame (r_min = max c), so its DL gradient
        # is about -1.4e10; the only gain left is user 1's idle UL time delta,
        # worth about g_ul delta.  Summed in one, the blocks read 1.9e-6 here.
        s = scenario_with_a([1e10, 100.0], [1.0, 1.0])
        fs = FeasibleSet(np.array([2.0, 1.0]), 2.0)
        delta = 1e-7
        alloc = Allocation(np.array([1.0, 0.0]), np.array([0.0, 1.0 - delta]))
        best = Allocation(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        gain = objective_value(s, best) - objective_value(s, alloc)
        assert kkt_residual(s, fs, alloc) == pytest.approx(gain, rel=1e-6)

    def test_zero_share_without_eavesdropper_is_unbounded(self):
        # aE = 0: log2(a / aE) = inf is the UL gradient at a zero share with
        # DL time left, and inf * 0 in the UL block's g . x must not read nan
        s = scenario_with_a([100.0, 50.0], [0.0, 1.0])
        fs = fs_for(s)
        alloc = Allocation(np.zeros(2), np.array([0.0, 1.0]))
        assert kkt_residual(s, fs, alloc) == math.inf
        assert dca_solve(s, fs, initial=alloc).status == "converged"

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_share_beyond_the_doubles_reads_as_zero(self, tiny):
        # a w / tau_ul overflows: the term is 0 to within the doubles, and its
        # gradient is the limit at tau_ul = 0, not inf - inf
        s = scenario_with_a([1e12, 1e3], [1e6, 1.0])
        fs = fs_for(s)
        gaps = [kkt_residual(s, fs, Allocation(np.zeros(2), np.array([t, 0.5]))) for t in (tiny, 0.0)]
        assert math.isfinite(gaps[0]) and gaps[0] == gaps[1]


class TestSwitchedOffUsers:
    def test_switched_off_user_gets_no_uplink(self):
        # user 1 has a_k < aE_k: its term is <= 0 everywhere and 0 at tau_ul = 0
        s = scenario_with_a([40.0, 2.0], [3.0, 9.0])
        fs = fs_for(s, 0.5 * float(dl_rate_coefficients(s).max()))
        res = dca_solve(s, fs)
        raw = res.raw_allocation
        assert raw.tau_ul[1] == 0.0
        assert res.allocation.tau_ul[1] == 0.0
        active = secrecy_capacity_user(s, 0, float(raw.tau_dl[0]), float(raw.tau_ul[0]))
        assert res.objective == active

    def test_every_user_switched_off(self):
        s = scenario_with_a([1.0, 2.0, 0.5], [30.0, 18.0, 0.5])
        res = dca_solve(s, fs_for(s, 1.0))
        assert res.objective == 0.0
        assert res.status == "converged"
        assert np.all(res.raw_allocation.tau_ul == 0.0)


class TestCertificate:
    def test_gap_bounds_the_distance_from_the_closed_form(self):
        # K = 1, a > aE: f* = log2(1 + a w) - log2(1 + aE w) at w = 1 - r_min / c.
        # A huge epsilon returns the start itself with its gap.
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = float(rng.uniform(2.0, 300.0))
            s = scenario_with_a([a], [float(rng.uniform(0.05, 0.9)) * a])
            c = float(dl_rate_coefficients(s)[0])
            fs = fs_for(s, float(rng.uniform(0.0, 0.9)) * c)
            w = 1.0 - fs.r_min / c
            best = math.log2(1.0 + float(s.a_user()[0]) * w) - math.log2(1.0 + float(s.a_eve()[0]) * w)
            start = dca_solve(s, fs, DcaSettings(epsilon=1e9))
            res = dca_solve(s, fs)
            for out in (start, res):
                assert best - out.objective <= out.gap_bits + 1e-12
                assert kkt_residual(s, fs, out.raw_allocation) == out.gap_bits
            assert res.status == "converged" and res.gap_bits <= 1e-8

    def test_certified_start_returned_unchanged(self):
        s = scenario_with_a([60.0, 25.0], [2.0, 1.0])
        fs = fs_for(s, 1.5)
        first = dca_solve(s, fs)
        again = dca_solve(s, fs, initial=first.raw_allocation)
        assert first.status == again.status == "converged"
        assert again.iterations == 0
        assert again.objective == first.objective
        assert np.array_equal(again.raw_allocation.tau_dl, first.raw_allocation.tau_dl)


def _fig3_problem(users, trial, index):
    """Scenario and feasible set of one fig3 sweep row, built as the sweep builds them."""
    cfg = preset_config("fig3")
    sub = dataclasses.replace(cfg, users_count=users, r_min=0.0, r_min_fraction=None)
    s, fs = generate_scenario(sub, trial)
    c = fs.rate_coeffs
    return s, FeasibleSet(c, cfg.sweep_values[index] * float(c.max()))


class TestDualEngine:
    # cold fig3 solves, with the objective the earlier SLSQP engine reached
    @pytest.mark.parametrize("users, trial, index, earlier", [
        (2, 17, 12, 0.6205658419291258),    # r_min at 0.6: a kink, two DL vertices mixed
        (4, 185, 19, 0.22509868789485088),  # r_min at 0.95: the DL optimum on the budget edge
        (4, 151, 10, 1.7553263014818),      # r_min at 0.5: a saturated user with no uplink
    ])
    def test_cold_fig3_solves_certified(self, users, trial, index, earlier):
        s, fs = _fig3_problem(users, trial, index)
        res = dca_solve(s, fs)
        assert res.status == "converged"
        assert res.gap_bits <= 1e-8
        assert res.objective >= earlier - 1e-12 * max(1.0, abs(earlier))

    def test_lowest_switched_off_user_carries_the_rate(self):
        # one active user of three, equal c: every switched-off user's DL time
        # is free, and the lowest index takes the whole rate target
        s = scenario_with_a([40.0, 2.0, 1.0], [3.0, 9.0, 5.0])
        c = dl_rate_coefficients(s)
        assert c[0] == c[1] == c[2]
        fs = fs_for(s, 0.4 * float(c[0]))
        raw = dca_solve(s, fs).raw_allocation
        assert raw.tau_dl.tolist() == [0.0, fs.r_min / float(c[1]), 0.0]
        assert raw.tau_ul.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_dl_tie_with_a_corner_user_certified(self, share):
        # equal c: either user can carry r_min.  User 1 carries it and gets no
        # uplink; user 0 (no eavesdropper) takes the whole UL frame.  At
        # r_min = max c user 1 sits at the corner tau_dl = 1, tau_ul = 0, where
        # the supergradient (-phi'(0), 0) would read a gap of 76,172 bits.
        s = ScenarioChannels(
            g=np.ones(2), h=np.array([1e-5, 2e-5]), h_e=np.array([0.0, 1e-5]),
            sigma2_dl=np.full(2, 1e-14), sigma2_ul=np.full(2, 1e-14), sigma2_e=1e-14,
            eta=0.44, i_d=2.0, p_led=1.0,
        )
        c = dl_rate_coefficients(s)
        fs = FeasibleSet(c, share * float(c.max()))
        res = dca_solve(s, fs)
        assert res.status == "converged" and res.gap_bits <= 1e-8
        assert res.raw_allocation.tau_ul.tolist() == [1.0, 0.0]
        assert res.objective == pytest.approx(math.log2(1.0 + float(s.a_user()[0])), rel=1e-15)

    def test_single_user_closed_form(self):
        # K = 1: tau_dl = r_min / c and tau_ul = 1, with no search
        s = scenario_with_a([80.0], [3.0])
        c = float(dl_rate_coefficients(s)[0])
        fs = fs_for(s, 0.5 * c)
        res = dca_solve(s, fs)
        assert res.raw_allocation.tau_ul.tolist() == [1.0]
        assert res.raw_allocation.tau_dl[0] == pytest.approx(fs.r_min / c, rel=1e-15)
        assert res.status == "converged" and res.iterations == 1


def _adversarial_channels(a, a_e, g):
    """Channels with SNR constants a and aE at VLC gains g (some may be 0)."""
    # a = eta I^2 g^2 h^2 / sigma^2 with eta I^2 = 1.76 and sigma^2 = 1e-14
    safe_g = np.where(g > 0.0, g, 1.0)
    k = g.size
    return ScenarioChannels(
        g=g, h=np.sqrt(a * 1e-14 / 1.76) / safe_g, h_e=np.sqrt(a_e * 1e-14 / 1.76) / safe_g,
        sigma2_dl=np.full(k, 1e-14), sigma2_ul=np.full(k, 1e-14), sigma2_e=1e-14,
        eta=0.44, i_d=2.0, p_led=1.0,
    )


@st.composite
def _adversarial_problem(draw):
    """SNR constants log-uniform in [1e-6, 1e12], ties a_k = aE_k, zero VLC
    gains, r_min at 0, inside the range or at max c_k, and K up to 64."""
    k = draw(st.integers(1, 64))
    exponent = st.floats(-6.0, 12.0)
    a = np.array([10.0 ** draw(exponent) for _ in range(k)])
    a_e = np.array([10.0 ** draw(exponent) for _ in range(k)])
    tie = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    a_e[tie] = a[tie]
    g = np.array([10.0 ** draw(st.floats(-7.5, -5.0)) for _ in range(k)])
    g[np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = 0.0
    s = _adversarial_channels(a, a_e, g)
    c = dl_rate_coefficients(s)
    share = draw(st.sampled_from([0.0, None, 1.0]))
    if share is None:
        share = draw(st.floats(0.01, 0.99))
    return s, FeasibleSet(c, share * float(c.max()))


def _adversarial_panel(seed, count, k_max):
    """(s, fs) pairs of the kinds ``_adversarial_problem`` draws, from a seeded
    numpy stream: K from 1 to k_max, a quarter of the users tied and a
    quarter with zero gain, r_min cycling through 0, inside and max c."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, k_max + 1))
        a, a_e = 10.0 ** rng.uniform(-6.0, 12.0, (2, k))
        tie = rng.random(k) < 0.25
        a_e[tie] = a[tie]
        g = 10.0 ** rng.uniform(-7.5, -5.0, k)
        g[rng.random(k) < 0.25] = 0.0
        s = _adversarial_channels(a, a_e, g)
        c = dl_rate_coefficients(s)
        share = (0.0, float(rng.uniform(0.01, 0.99)), 1.0)[i % 3]
        yield s, FeasibleSet(c, share * float(c.max()))


def _check_solver_invariants(s, fs, res):
    assert allocation_violation(fs, res.raw_allocation) <= 1e-8
    assert allocation_violation(fs, res.allocation) <= 1e-8
    start = objective_value(s, initial_allocation(fs))
    assert res.objective >= start - 1e-12 * max(1.0, abs(start))
    assert res.gap_bits >= -1e-12
    if res.status == "converged":
        assert res.gap_bits <= DcaSettings().epsilon
    off = s.a_user() <= s.a_eve()
    assert np.all(res.raw_allocation.tau_ul[off] == 0.0)
    assert np.all(res.allocation.tau_ul[off] == 0.0)


class TestAdversarialProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_adversarial_problem())
    def test_solver_invariants(self, problem):
        s, fs = problem
        _check_solver_invariants(s, fs, dca_solve(s, fs))


class TestAdversarialPanel:
    def test_every_solve_certifies(self):
        # a seeded panel: its problems stay put when src/ changes
        for s, fs in _adversarial_panel(seed=41, count=400, k_max=64):
            res = dca_solve(s, fs)
            _check_solver_invariants(s, fs, res)
            assert res.status == "converged", (fs.K, fs.r_min, res.gap_bits)
            assert math.isfinite(kkt_residual(s, fs, res.raw_allocation))


def _dual_panel():
    """(s, fs) pairs with K <= 8: an adversarial panel, fig3 draws, fig4 draws
    and problems whose rate coefficients are drawn apart from the channels."""
    yield from _adversarial_panel(seed=43, count=90, k_max=8)
    rng = np.random.default_rng(44)
    for s, _ in _adversarial_panel(seed=46, count=60, k_max=8):
        # c log-uniform in [1e-3, 10] and r_min uniform in [0, max c]: the DL
        # optimum often lies on an edge, most of it on a low-rate user
        c = 10.0 ** rng.uniform(-3.0, 1.0, s.K)
        yield s, FeasibleSet(c, float(rng.uniform(0.0, c.max())))
    for name, counts in (("fig3", (1, 2, 4, 8)), ("fig4", (2, 4, 8))):
        cfg = preset_config(name)
        for i in range(30):
            sub = dataclasses.replace(cfg, users_count=counts[i % len(counts)], r_min=0.0, r_min_fraction=None)
            s, fs = generate_scenario(sub, int(rng.integers(0, 1000)))
            c = fs.rate_coeffs
            share = (0.0, float(rng.uniform(0.01, 0.99)), 1.0)[i % 3]
            yield s, FeasibleSet(c, share * float(c.max()))


class TestDualReference:
    """The Lagrangian dual of the UL budget, computed by code that shares
    nothing with the solver (``dual_reference``), bounds every answer."""

    def test_single_user_dual_meets_the_closed_form(self):
        # K = 1: f* = phi(1 - r_min / c), reached by tau_ul = 1
        problems = [(np.array([a]), np.array([a_e]), np.array([c]), r_min)
                    for a, a_e, c, r_min in ((80.0, 3.0, 2.0, 1.0), (1e9, 1e-3, 5.0, 0.0), (40.0, 0.0, 3.0, 3.0))]
        _, values = dual_probes(problems)
        for (a, a_e, c, r_min), low in zip(problems, values.min(axis=1)):
            w = 1.0 - r_min / c[0]
            best = math.log2((1.0 + a[0] * w) / (1.0 + a_e[0] * w))
            assert low == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_dl_vertices(self):
        # c = (3, 0.1), r_min = 0.3: e_0, the rate face's 0.1 e_0 and the
        # point of [e_0, e_1] with 2.9 lam = 0.2 on it; 0.3 / 0.1 e_1 is outside
        w = sorted(map(tuple, dl_leftovers(np.array([3.0, 0.1]), 0.3).tolist()))
        expected = [(0.0, 1.0), (0.9, 1.0), (27.0 / 29.0, 2.0 / 29.0)]
        assert len(w) == 3
        for got, want in zip(w, expected):
            assert got == pytest.approx(want, rel=1e-15)
        # at r_min = max c the one vertex is e_0, and 1 - v is exactly 0
        assert dl_leftovers(np.array([0.7, 0.3]), 0.7).tolist() == [[0.0, 1.0]]

    def test_the_dual_bounds_every_answer(self):
        # f <= D(lambda) at every lambda probed: no answer is infeasible or
        # overvalued.  min D - f <= gap_bits: no certificate is understated,
        # at the solver's answer and at two starts it returns uncertified
        # (epsilon = 1e9): the default start and a random one.
        problems = list(_dual_panel())
        _, values = dual_probes([(s.a_user(), s.a_eve(), fs.rate_coeffs, fs.r_min) for s, fs in problems])
        rng = np.random.default_rng(45)
        loose = DcaSettings(epsilon=1e9)
        for (s, fs), probes in zip(problems, values):
            res = dca_solve(s, fs)
            f = res.objective
            assert np.all(f <= probes + 1e-12 * max(1.0, abs(f)))
            random = Allocation(rng.dirichlet(np.ones(fs.K + 1))[: fs.K], rng.dirichlet(np.ones(fs.K + 1))[: fs.K])
            for out in (res, dca_solve(s, fs, loose), dca_solve(s, fs, loose, initial=random)):
                assert probes.min() - out.objective <= out.gap_bits + 1e-12 * max(1.0, abs(out.objective))
