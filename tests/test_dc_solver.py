"""Solver checks: projections, subproblem, DCA loop, stationarity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize as scipy_minimize

from vlcrf.dc_solver import (
    DcaSettings,
    FeasibleSet,
    allocation_violation,
    check_feasibility,
    dca_solve,
    initial_allocation,
    kkt_residual,
    project_onto_feasible,
    solve_subproblem,
)
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
            assert min(ul) >= fs.tau_floor

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
            assert min(ul) >= fs.tau_floor
            assert float(np.dot(fs.rate_coeffs, dl)) >= fs.r_min * (1.0 - 1e-12)

    def test_large_inputs_match_reference_qp(self):
        # distance cross-check at large magnitudes, in the expanded form
        # |z|^2 / 2 - v . z (same argmin, no 1e26-sized squares), kept
        # only where the generic solver reports convergence
        checked = 0
        for fs, v, _ in self._large_cases(17):
            k, c, r_min = fs.K, fs.rate_coeffs, fs.r_min
            dl, _ = project_onto_feasible(fs, v.tolist(), [0.1] * k)
            cons = [{"type": "ineq", "fun": lambda z: 1.0 - z.sum(), "jac": lambda z: -np.ones(k)}]
            if r_min > 0.0:
                cons.append({"type": "ineq", "fun": lambda z: np.dot(c, z) - r_min, "jac": lambda z: c})
            start = np.clip(v, 0.0, 1.0)
            ref = scipy_minimize(
                lambda z: 0.5 * np.dot(z, z) - np.dot(v, z), start / max(1.0, start.sum()),
                jac=lambda z: z - v, method="SLSQP", bounds=[(0.0, None)] * k,
                constraints=cons, options={"maxiter": 500, "ftol": 1e-16},
            )
            if ref.success:
                checked += 1
                mine = 0.5 * np.dot(dl, dl) - np.dot(v, dl)
                theirs = 0.5 * np.dot(ref.x, ref.x) - np.dot(v, ref.x)
                assert mine <= theirs + 1e-12 * np.abs(v).sum()
        assert checked > 0

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
        assert min(ul) >= fs.tau_floor and min(dl) >= 0.0
        dl2, ul2 = project_onto_feasible(fs, dl, ul)
        assert np.abs(np.subtract(dl2, dl)).max() <= 1e-15
        assert np.abs(np.subtract(ul2, ul)).max() <= 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_projection_problem(exponents=(-12.0, 0.0)), st.sampled_from([0.0, 0.5, 1.0]))
    def test_feasible_input_unchanged(self, problem, share):
        # both blocks scaled to half the frame; r_min up to the point's own rate
        fs, v_dl, v_ul = problem
        dl = np.abs(v_dl) / (2.0 * np.abs(v_dl).sum())
        ul = fs.tau_floor + np.abs(v_ul) / (2.0 * np.abs(v_ul).sum())
        fs = FeasibleSet(fs.rate_coeffs, share * float(np.dot(fs.rate_coeffs, dl)))
        assert project_onto_feasible(fs, dl, ul) == (dl.tolist(), ul.tolist())

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_projection_problem(exponents=(-3.0, 0.5)))
    def test_ul_block_matches_reference_qp(self, problem):
        fs, _, v = problem
        floor, k = fs.tau_floor, fs.K
        _, ul = project_onto_feasible(fs, np.zeros(k), v)
        ref = scipy_minimize(
            lambda z: 0.5 * np.dot(z - v, z - v), np.full(k, 1.0 / k), jac=lambda z: z - v,
            method="SLSQP", bounds=[(floor, None)] * k,
            constraints=[{"type": "ineq", "fun": lambda z: 1.0 - z.sum(), "jac": lambda z: -np.ones(k)}],
            options={"maxiter": 500, "ftol": 1e-16},
        )
        if ref.success:
            assert np.abs(np.subtract(ul, ref.x)).max() <= 1e-9
            assert np.dot(ul - v, ul - v) <= np.dot(ref.x - v, ref.x - v) + 1e-12


class TestSubproblem:
    def test_zero_tilt_maximizes_u_alone(self):
        s = scenario_with_a([10.0], [1.0])
        fs = fs_for(s, 0.0)
        alloc = solve_subproblem(s, fs, np.zeros(2))
        # u is decreasing in tau_dl and increasing in tau_ul along the
        # budget, confirmed by a coarse grid below
        assert float(alloc.tau_dl[0]) <= 1e-8
        assert float(alloc.tau_ul[0]) == pytest.approx(1.0, abs=1e-9)
        grid = [
            (td, tu)
            for td in np.linspace(0, 1, 41)
            for tu in np.linspace(0, 1, 41)
        ]
        vals = [objective_value(s, Allocation([td], [tu])) for td, tu in grid]
        best_td, best_tu = grid[int(np.argmax(vals))]
        assert best_td == 0.0 and best_tu == 1.0

    def test_warm_start_at_optimum_unchanged(self):
        s = scenario_with_a([10.0], [1.0])
        fs = fs_for(s, 0.0)
        first = solve_subproblem(s, fs, np.zeros(2))
        again = solve_subproblem(s, fs, np.zeros(2), start=first)
        move = max(
            np.abs(again.tau_dl - first.tau_dl).max(),
            np.abs(again.tau_ul - first.tau_ul).max(),
        )
        assert move <= 1e-8

    def test_result_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            s = scenario_with_a(rng.uniform(0.5, 50.0, k), rng.uniform(0.5, 50.0, k))
            fs = fs_for(s, rng.uniform(0, 0.8) * dl_rate_coefficients(s).max())
            y = rng.standard_normal(2 * k)
            alloc = solve_subproblem(s, fs, y)
            assert allocation_violation(fs, alloc) <= 1e-8

    def test_surrogate_never_below_warm_start(self):
        rng = np.random.default_rng(4)
        s = scenario_with_a([20.0, 3.0], [1.0, 9.0])
        fs = fs_for(s, 2.0)
        for _ in range(20):
            y = rng.standard_normal(4) * 5.0
            start = initial_allocation(fs)
            out = solve_subproblem(s, fs, y, start=start)

            def surrogate(al):
                u = objective_value(scenario_with_a([20.0, 3.0], [1e-15, 1e-15]), al)
                return u - float(np.dot(y[:2], al.tau_dl)) - float(np.dot(y[2:], al.tau_ul))

            assert surrogate(out) >= surrogate(start) - 1e-9
            assert allocation_violation(fs, out) <= 1e-8

    def test_bad_inputs_rejected(self):
        s = scenario_with_a([10.0], [1.0])
        fs = fs_for(s, 0.0)
        with pytest.raises(ValueError):
            solve_subproblem(s, fs, np.zeros(3))
        with pytest.raises(ValueError):
            solve_subproblem(s, fs, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            solve_subproblem(s, FeasibleSet(np.array([1.0]), 2.0), np.zeros(2))


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
            objs = [t[0] for t in res.trace]
            assert all(objs[i + 1] >= objs[i] - 1e-9 for i in range(len(objs) - 1))
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

    def test_trace_records_steps(self):
        s = scenario_with_a([60.0], [2.0])
        res = dca_solve(s, fs_for(s, 1.0), DcaSettings())
        assert res.trace[0][1] == 0.0
        assert len(res.trace) == res.iterations + 1


class TestKktResidual:
    def test_near_zero_at_verified_optimum(self):
        s = scenario_with_a([45.0], [1.5])
        fs = fs_for(s, 2.0)
        res = dca_solve(s, fs, DcaSettings())
        assert res.kkt_residual < 1e-4

    def test_large_at_initial_allocation(self):
        # generic non-stationarity of the deterministic starting point on
        # a fixed strong-channel scenario
        s = scenario_with_a([150.0, 40.0], [2.0, 1.0])
        fs = fs_for(s, 1.0)
        resid = kkt_residual(s, fs, initial_allocation(fs))
        assert resid > 1e-2


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
                assert kkt_residual(s, fs, out.raw_allocation) == out.gap_bits == out.kkt_residual
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
    # a = eta I^2 g^2 h^2 / sigma^2 with eta I^2 = 1.76 and sigma^2 = 1e-14
    safe_g = np.where(g > 0.0, g, 1.0)
    s = ScenarioChannels(
        g=g, h=np.sqrt(a * 1e-14 / 1.76) / safe_g, h_e=np.sqrt(a_e * 1e-14 / 1.76) / safe_g,
        sigma2_dl=np.full(k, 1e-14), sigma2_ul=np.full(k, 1e-14), sigma2_e=1e-14,
        eta=0.44, i_d=2.0, p_led=1.0,
    )
    c = dl_rate_coefficients(s)
    share = draw(st.sampled_from([0.0, None, 1.0]))
    if share is None:
        share = draw(st.floats(0.01, 0.99))
    return s, FeasibleSet(c, share * float(c.max()))


class TestAdversarialProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_adversarial_problem())
    def test_solver_invariants(self, problem):
        s, fs = problem
        res = dca_solve(s, fs)
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
