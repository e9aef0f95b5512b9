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
    _dl_best,
    _dl_vertices,
    _secrecy_problem,
    audit_rows,
    initial_rows,
    solve_rows,
)
from vlcrf import experiment
from vlcrf.experiment import ScenarioBlock, build_config, generate_scenario, load_config
from dual_reference import dl_leftovers, dual_probes
from model_reference import (
    Channels,
    certificate_gap,
    formula_dl_vertices,
    initial_allocation,
    objective_value,
    project_onto_feasible,
    secrecy_capacity_user,
    solve_one,
    violation,
    violation_rows,
)


def scenario_with_a(a_values, ae_values):
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    ae = np.atleast_1d(np.asarray(ae_values, dtype=float))
    h = np.sqrt(a * 1e-14 / (0.44 * 4.0))
    h_e = np.sqrt(ae * 1e-14 / (0.44 * 4.0))
    return Channels(g=np.ones_like(a), h=h, h_e=h_e)


def fs_for(s, r_min=0.0):
    return FeasibleSet(s.rate_coeffs(), float(r_min))


def solve(s, fs, settings=DcaSettings(), start=None):
    """``solve_one`` of the channels ``s`` at the feasible set ``fs``."""
    return solve_one(s.a_user(), s.a_eve(), fs, settings, start)


def gap_at(s, fs, tau_dl, tau_ul):
    """``certificate_gap`` of the channels ``s`` at the feasible set ``fs``."""
    return certificate_gap(s.a_user(), s.a_eve(), fs, tau_dl, tau_ul)


def chain_row(c, r_min):
    """The block chain's row of one trial with rate coefficients ``c`` at the absolute target ``r_min``."""
    c = np.array([c], dtype=float)
    cfg = build_config({"seed": "1", "users.count": str(c.shape[1]), "rate.min": repr(r_min)})
    block = ScenarioBlock(g=np.ones_like(c), h=np.ones_like(c), h_e=np.ones_like(c), a=np.full_like(c, 10.0),
                          a_e=np.ones_like(c), c=c)
    return experiment._rmin_chain_block(cfg, block)


class TestFeasibility:
    # the rate target is reachable iff it does not exceed the best single-user rate
    def test_zero_target_always_feasible(self):
        assert chain_row([3.0, 1.0], 0.0).feasible[0, 0]

    def test_boundary_target_feasible(self):
        assert chain_row([3.0, 1.0], 3.0).feasible[0, 0]

    def test_beyond_best_user_infeasible(self):
        assert not chain_row([3.0, 1.0], 3.1).feasible[0, 0]

    def test_infeasible_target_gives_an_empty_row(self):
        row = chain_row([3.0, 1.0], 3.1)
        assert np.isnan(row.objective[0, 0]) and row.iterations[0, 0] == 0 and not row.converged[0, 0]
        assert not row.tau_dl.any() and not row.tau_ul.any()

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
        dl, ul = initial_allocation(fs)
        assert float(dl[0]) == pytest.approx(0.500001, rel=1e-12)
        assert float(ul[0]) == 1.0

    def test_zero_target_near_zero_dl(self):
        fs = FeasibleSet(np.array([4.0, 9.0]), 0.0)
        dl, ul = initial_allocation(fs)
        assert float(dl[1]) == pytest.approx(1e-6, rel=1e-12)
        assert float(dl[0]) == 0.0
        assert np.all(ul == 0.5)

    def test_rate_constraint_satisfied_by_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            c = rng.uniform(0.5, 12.0, k)
            fs = FeasibleSet(c, float(rng.uniform(0.0, 1.0) * c.max()))
            dl, _ = initial_allocation(fs)
            assert float(np.dot(c, dl)) >= fs.r_min - 1e-12

    def test_tie_break_lowest_index(self):
        dl, _ = initial_allocation(FeasibleSet(np.array([3.0, 3.0]), 1.5))
        assert dl[0] > 0 and dl[1] == 0.0

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            initial_allocation(FeasibleSet(np.array([1.0]), 2.0))

    def test_rows_match_the_one_row_rule(self):
        # the batched starts against the rule written out one row at a time:
        # ties, zero coefficients, r_min = 0 and r_min = max c included
        rng = np.random.default_rng(8)
        c = rng.choice([0.0, 1.5, 3.0, 7.25], size=(300, 5)) * rng.uniform(0.5, 2.0, (300, 1))
        c[::9] = rng.uniform(0.0, 12.0, (len(c[::9]), 5))
        c[::17, 0] = c[::17].max(axis=1)
        r_min = rng.uniform(0.0, 1.0, 300) * c.max(axis=1)
        r_min[::4], r_min[1::4] = 0.0, c[1::4].max(axis=1)
        dl, ul = initial_rows(c, r_min)
        for n in range(300):
            j = int(np.argmax(c[n]))
            want = np.zeros(5)
            want[j] = 1e-6 if r_min[n] <= 0.0 else min(1.0, min(1.0, r_min[n] / float(c[n, j])) + 1e-6)
            assert np.array_equal(dl[n], want)
            assert np.array_equal(ul[n], np.full(5, 1.0 / 5))


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
            assert violation(fs, np.maximum(dl, 0.0), np.maximum(ul, 0.0)) <= 1e-9
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


class TestSolveOneRow:
    def test_no_eavesdropper_matches_closed_form(self):
        # with a_E = 0 the optimum pushes tau_dl to the rate boundary and
        # tau_ul to the full frame: f* = log2(1 + a (1 - r_min/c))
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = float(rng.uniform(1.0, 300.0))
            s = scenario_with_a([a], [1e-15])
            c = float(s.rate_coeffs()[0])
            r_min = float(rng.uniform(0.0, 0.9)) * c
            res = solve(s, fs_for(s, r_min), DcaSettings())
            a_actual = float(s.a_user()[0])
            leftover = 1.0 - r_min / c
            expected = math.log2(1.0 + a_actual * leftover)
            assert res.objective == pytest.approx(expected, abs=1e-4, rel=1e-4)

    def test_identical_channels_zero_in_two_iterations(self):
        s = scenario_with_a([10.0, 4.0], [10.0, 4.0])
        res = solve(s, fs_for(s, 1.0), DcaSettings())
        assert res.objective == 0.0
        assert res.converged
        assert res.iterations <= 2

    def test_rate_sweep_non_increasing(self):
        s = scenario_with_a([80.0], [3.0])
        c = float(s.rate_coeffs()[0])
        objs = []
        for frac in np.linspace(0.0, 0.9, 7):
            res = solve(s, fs_for(s, frac * c), DcaSettings())
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

    def test_ascent_across_scenarios(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            k = [1, 2, 4, 8][trial % 4]
            s = scenario_with_a(rng.uniform(0.2, 200.0, k), rng.uniform(0.2, 200.0, k))
            fs = fs_for(s, rng.uniform(0, 0.8) * s.rate_coeffs().max())
            res = solve(s, fs, DcaSettings())
            assert res.objective >= objective_value(s.a_user(), s.a_eve(), *initial_allocation(fs)) - 1e-9
            assert violation(fs, res.tau_dl, res.tau_ul) <= 1e-8

    def test_fixed_point_restart(self):
        s = scenario_with_a([60.0, 25.0], [2.0, 1.0])
        fs = fs_for(s, 1.5)
        first = solve(s, fs, DcaSettings())
        assert first.converged
        again = solve(s, fs, DcaSettings(), start=(first.tau_dl, first.tau_ul))
        assert again.iterations <= 2
        assert again.objective == pytest.approx(first.objective, abs=1e-8)

    def test_eavesdropper_dominance_nonpositive(self):
        s = scenario_with_a([1.0, 2.0], [30.0, 18.0])
        res = solve(s, fs_for(s, 0.5), DcaSettings())
        assert res.objective <= 1e-9

    def test_answer_keeps_rate_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            s = scenario_with_a(rng.uniform(0.5, 80.0, k), rng.uniform(0.5, 80.0, k))
            c = s.rate_coeffs()
            fs = fs_for(s, rng.uniform(0.3, 0.9) * c.max())
            res = solve(s, fs, DcaSettings())
            assert float(np.dot(c, res.tau_dl)) >= fs.r_min - 1e-6

    def test_tiny_dl_share_emitted_as_certified(self):
        # user 1 is switched off (a <= aE) and carries r_min alone in a DL
        # share of 1e-7: the emitted row keeps that share, meets the rate and
        # is the certified point
        c, r_min = np.array([[1.0, 1e7]]), np.array([1.0])
        start = initial_rows(c, r_min)
        out = solve_rows(np.array([[10.0, 1.0]]), np.array([[1.0, 10.0]]), c, r_min, *start)
        assert out.tau_dl[0, 1] == pytest.approx(1e-7, rel=1e-12)
        assert np.vecdot(c, out.tau_dl)[0] >= r_min[0]
        assert out.converged[0]


class TestViolation:
    def test_nan_row_violates_by_inf(self):
        # np.fmax skips nan: a row holding one must not read as feasible
        got = violation_rows(np.array([[1.0, 2.0]] * 3), np.array([0.5] * 3),
                             np.array([[np.nan, 0.3], [0.2, 0.3], [0.2, 0.3]]),
                             np.array([[0.5, np.nan], [0.5, 0.1], [np.nan, 0.1]]))
        assert got.tolist() == [np.inf, 0.0, np.inf]


def audit_one(tau_dl, tau_ul, c=(1.0, 2.0), r_min=0.0):
    """``audit_rows`` of one allocation, as a row."""
    audit_rows(*(np.array([x], dtype=float) for x in (c, r_min, tau_dl, tau_ul)))


class TestAudit:
    def test_valid_rows_pass(self):
        audit_one([0.5, 0.5], [0.999999999, 0.0])            # within the budget slack
        audit_one([0.5, 0.5], [1.0 + 1e-9, 0.0])                # at the slack
        audit_one([1.0 - 0.5e-8, 0.0], [0.0, 0.0], r_min=1.0)  # rate short by half the tolerance
        audit_one([0.5 * (1.0 - 0.5e-8), 0.0], [0.0, 0.0], c=(200.0, 1.0), r_min=100.0)
        audit_rows(np.ones((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("tau_dl, tau_ul, c, r_min, what", [
        pytest.param([-0.1, 0.2], [0.1, 0.1], (1.0, 2.0), 0.0, "nan or negative", id="negative-dl"),
        pytest.param([0.1, 0.2], [0.1, -1e-300], (1.0, 2.0), 0.0, "nan or negative", id="negative-ul"),
        pytest.param([0.6, 0.6], [0.1, 0.1], (1.0, 2.0), 0.0, "sum\\(tau_dl\\) over", id="dl-budget"),
        pytest.param([0.1, 0.1], [0.5, 0.5 + 2e-9], (1.0, 2.0), 0.0, "sum\\(tau_ul\\) over", id="ul-budget"),
        pytest.param([1.0 - 2e-8, 0.0], [0.0, 0.0], (1.0, 2.0), 1.0, "short of r_min", id="rate"),
        pytest.param([0.5 * (1.0 - 2e-8), 0.0], [0.0, 0.0], (200.0, 1.0), 100.0, "short of r_min", id="rate-relative"),
        pytest.param([0.0, 0.0], [0.0, 0.0], (1.0, math.nan), 0.5, "short of r_min", id="nan-rate"),
    ])
    def test_each_refusal(self, tau_dl, tau_ul, c, r_min, what):
        with pytest.raises(RuntimeError, match=what):
            audit_one(tau_dl, tau_ul, c, r_min)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction_refused(self, bad):
        # nan passes both < 0 and > 1 + slack, so each check is written to fail on it
        for tau_dl, tau_ul in (([bad, 0.3], [0.5, 0.1]), ([0.2, 0.3], [0.5, bad])):
            with pytest.raises(RuntimeError, match="invalid allocation"):
                audit_one(tau_dl, tau_ul)

    def test_refused_row_inside_a_block(self):
        # the first failing row of a block is named, whatever row it is
        rows = np.array([[0.2, 0.3], [0.1, 0.1], [0.3, 0.1]])
        bad = np.where([[False, False], [False, False], [True, False]], math.nan, rows)
        with pytest.raises(RuntimeError, match=r"tau_ul = \[nan, 0.1\]"):
            audit_rows(np.ones((3, 2)), np.zeros(3), rows, bad)


class TestCertificateGap:
    def test_near_zero_at_verified_optimum(self):
        s = scenario_with_a([45.0], [1.5])
        fs = fs_for(s, 2.0)
        res = solve(s, fs, DcaSettings())
        assert res.gap_bits < 1e-4

    def test_large_at_initial_allocation(self):
        # generic non-stationarity of the deterministic starting point on
        # a fixed strong-channel scenario
        s = scenario_with_a([150.0, 40.0], [2.0, 1.0])
        fs = fs_for(s, 1.0)
        resid = gap_at(s, fs, *initial_allocation(fs))
        assert resid > 1e-2

    def test_corner_user_does_not_swamp_the_ul_gap(self):
        # user 0 holds the whole DL frame (r_min = max c), so its DL gradient
        # is about -1.4e10; the only gain left is user 1's idle UL time delta,
        # worth about g_ul delta.  Summed in one, the blocks read 1.9e-6 here.
        s = scenario_with_a([1e10, 100.0], [1.0, 1.0])
        fs = FeasibleSet(np.array([2.0, 1.0]), 2.0)
        delta = 1e-7
        dl = np.array([1.0, 0.0])
        ul, best = np.array([0.0, 1.0 - delta]), np.array([0.0, 1.0])
        gain = objective_value(s.a_user(), s.a_eve(), dl, best) - objective_value(s.a_user(), s.a_eve(), dl, ul)
        assert gap_at(s, fs, dl, ul) == pytest.approx(gain, rel=1e-6)

    def test_zero_share_without_eavesdropper_is_unbounded(self):
        # aE = 0: log2(a / aE) = inf is the UL gradient at a zero share with
        # DL time left, and inf * 0 in the UL block's g . x must not read nan
        s = scenario_with_a([100.0, 50.0], [0.0, 1.0])
        fs = fs_for(s)
        alloc = (np.zeros(2), np.array([0.0, 1.0]))
        assert gap_at(s, fs, *alloc) == math.inf
        assert solve(s, fs, start=alloc).converged

    def test_dl_block_closed_form_matches_the_vertices(self):
        # the gap's DL block (_dl_best) against the largest g . v over the
        # vertices _dl_vertices lists, at their formulas' points (how far a
        # listed vertex may move from them is test_every_vertex_meets_its_rate's):
        # r_min at 0, at a drawn c_k (a tie), at max c and inside the range,
        # with some c_k = 0 and g of either sign
        rng = np.random.default_rng(48)
        for k in range(1, 17):
            c = 10.0 ** rng.uniform(-2.0, 1.0, (400, k))
            c[rng.random((400, k)) < 0.2] = 0.0
            top = c.max(axis=1)
            r_min = np.stack([np.zeros(100), c[np.arange(100, 200), rng.integers(0, k, 100)], top[200:300],
                              rng.uniform(0.0, 1.0, 100) * top[300:]]).ravel()
            g = rng.choice([-1.0, 1.0], (400, k)) * 10.0 ** rng.uniform(-3.0, 3.0, (400, k))
            got = _dl_best(c, r_min, g)
            for i in range(400):
                want = float((formula_dl_vertices(c[i], float(r_min[i])) @ g[i]).max())
                assert abs(got[i] - want) <= 4.0 * np.spacing(max(1.0, abs(want))), (k, i, got[i], want)

    def test_every_vertex_meets_its_rate(self):
        # each listed DL vertex has np.vecdot(c, v) >= r_min in floating point,
        # stays within the budget and its own support (one face user, or an
        # edge's two users), and lies within 4 ulps per share of its
        # formula's point; the formulas' own points round short on some rows:
        # r_min at a drawn c_k, at max c and inside the range, some c_k = 0
        rng = np.random.default_rng(49)
        short = 0
        for k in range(1, 17):
            c = 10.0 ** rng.uniform(-2.0, 1.0, (400, k))
            c[rng.random((400, k)) < 0.2] = 0.0
            top = c.max(axis=1)
            r_min = np.concatenate([c[np.arange(100), rng.integers(0, k, 100)], top[100:200],
                                    rng.uniform(0.0, 1.0, 200) * top[200:]])
            for i in range(400):
                ci, r = c[i], float(r_min[i])
                vertices, formula = _dl_vertices(ci, r), formula_dl_vertices(ci, r)
                assert (np.vecdot(ci, vertices) >= r).all() and (vertices >= 0.0).all(), (k, i)
                assert (vertices.sum(axis=1) <= 1.0 + 2.0 ** -52).all(), (k, i)
                assert vertices.shape == formula.shape and (vertices[formula == 0.0] == 0.0).all(), (k, i)
                assert (np.abs(vertices - formula) <= 4.0 * np.spacing(1.0)).all(), (k, i, vertices, formula)
                short += int((np.vecdot(ci, formula) < r).sum())
        assert short >= 100

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_share_beyond_the_doubles_reads_as_zero(self, tiny):
        # a w / tau_ul overflows: the term is 0 to within the doubles, and its
        # gradient is the limit at tau_ul = 0, not inf - inf
        s = scenario_with_a([1e12, 1e3], [1e6, 1.0])
        fs = fs_for(s)
        gaps = [gap_at(s, fs, np.zeros(2), np.array([t, 0.5])) for t in (tiny, 0.0)]
        assert math.isfinite(gaps[0]) and gaps[0] == gaps[1]


class TestSwitchedOffUsers:
    def test_switched_off_user_gets_no_uplink(self):
        # user 1 has a_k < aE_k: its term is <= 0 everywhere and 0 at tau_ul = 0
        s = scenario_with_a([40.0, 2.0], [3.0, 9.0])
        fs = fs_for(s, 0.5 * float(s.rate_coeffs().max()))
        res = solve(s, fs)
        assert res.tau_ul[1] == 0.0
        active = secrecy_capacity_user(s, 0, float(res.tau_dl[0]), float(res.tau_ul[0]))
        assert res.objective == active

    def test_every_user_switched_off(self):
        s = scenario_with_a([1.0, 2.0, 0.5], [30.0, 18.0, 0.5])
        res = solve(s, fs_for(s, 1.0))
        assert res.objective == 0.0
        assert res.converged
        assert np.all(res.tau_ul == 0.0)


class TestCertificate:
    def test_gap_bounds_the_distance_from_the_closed_form(self):
        # K = 1, a > aE: f* = log2(1 + a w) - log2(1 + aE w) at w = 1 - r_min / c.
        # A huge epsilon returns the start itself with its gap.
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = float(rng.uniform(2.0, 300.0))
            s = scenario_with_a([a], [float(rng.uniform(0.05, 0.9)) * a])
            c = float(s.rate_coeffs()[0])
            fs = fs_for(s, float(rng.uniform(0.0, 0.9)) * c)
            w = 1.0 - fs.r_min / c
            best = math.log2(1.0 + float(s.a_user()[0]) * w) - math.log2(1.0 + float(s.a_eve()[0]) * w)
            start = solve(s, fs, DcaSettings(epsilon=1e9))
            res = solve(s, fs)
            for out in (start, res):
                assert best - out.objective <= out.gap_bits + 1e-12
                assert gap_at(s, fs, out.tau_dl, out.tau_ul) == out.gap_bits
            assert res.converged and res.gap_bits <= 1e-8

    def test_certified_start_returned_unchanged(self):
        s = scenario_with_a([60.0, 25.0], [2.0, 1.0])
        fs = fs_for(s, 1.5)
        first = solve(s, fs)
        again = solve(s, fs, start=(first.tau_dl, first.tau_ul))
        assert first.converged and again.converged
        assert again.iterations == 0
        assert again.objective == first.objective
        assert np.array_equal(again.tau_dl, first.tau_dl)


def _fig3_problem(users, trial, index):
    """(a, aE, feasible set) of one fig3 sweep row, built as the sweep builds them."""
    cfg = load_config(preset="fig3")
    sub = dataclasses.replace(cfg, users_count=users, r_min=0.0, r_min_fraction=None)
    block, fs = generate_scenario(sub, trial)
    c = fs.rate_coeffs
    return block.a[0], block.a_e[0], FeasibleSet(c, cfg.sweep_values[index] * float(c.max()))


class TestDualEngine:
    # cold fig3 solves, with the objective the earlier SLSQP engine reached
    @pytest.mark.parametrize("users, trial, index, earlier", [
        (2, 17, 12, 0.6205658419291258),    # r_min at 0.6: a kink, two DL vertices mixed
        (4, 185, 19, 0.22509868789485088),  # r_min at 0.95: the DL optimum on the budget edge
        (4, 151, 10, 1.7553263014818),      # r_min at 0.5: a saturated user with no uplink
    ])
    def test_cold_fig3_solves_certified(self, users, trial, index, earlier):
        res = solve_one(*_fig3_problem(users, trial, index))
        assert res.converged
        assert res.gap_bits <= 1e-8
        assert res.objective >= earlier - 1e-12 * max(1.0, abs(earlier))

    def test_lowest_switched_off_user_carries_the_rate(self):
        # one active user of three, equal c: every switched-off user's DL time
        # is free, and the lowest index takes the whole rate target
        s = scenario_with_a([40.0, 2.0, 1.0], [3.0, 9.0, 5.0])
        c = s.rate_coeffs()
        assert c[0] == c[1] == c[2]
        fs = fs_for(s, 0.4 * float(c[0]))
        res = solve(s, fs)
        assert res.tau_dl.tolist() == [0.0, fs.r_min / float(c[1]), 0.0]
        assert res.tau_ul.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_dl_tie_with_a_corner_user_certified(self, share):
        # equal c: either user can carry r_min.  User 1 carries it and gets no
        # uplink; user 0 (no eavesdropper) takes the whole UL frame.  At
        # r_min = max c user 1 sits at the corner tau_dl = 1, tau_ul = 0, where
        # the supergradient (-phi'(0), 0) would read a gap of 76,172 bits.
        s = Channels(g=np.ones(2), h=np.array([1e-5, 2e-5]), h_e=np.array([0.0, 1e-5]))
        c = s.rate_coeffs()
        fs = FeasibleSet(c, share * float(c.max()))
        res = solve(s, fs)
        assert res.converged and res.gap_bits <= 1e-8
        assert res.tau_ul.tolist() == [1.0, 0.0]
        assert res.objective == pytest.approx(math.log2(1.0 + float(s.a_user()[0])), rel=1e-15)

    def test_single_user_closed_form(self):
        # K = 1: tau_dl = r_min / c and tau_ul = 1, with no search
        s = scenario_with_a([80.0], [3.0])
        c = float(s.rate_coeffs()[0])
        fs = fs_for(s, 0.5 * c)
        res = solve(s, fs)
        assert res.tau_ul.tolist() == [1.0]
        assert res.tau_dl[0] == pytest.approx(fs.r_min / c, rel=1e-15)
        assert res.converged and res.iterations == 1


def _adversarial_channels(a, a_e, g):
    """Channels with SNR constants a and aE at VLC gains g (some may be 0)."""
    # a = eta I^2 g^2 h^2 / sigma^2 with eta I^2 = 1.76 and sigma^2 = 1e-14
    safe_g = np.where(g > 0.0, g, 1.0)
    return Channels(g=g, h=np.sqrt(a * 1e-14 / 1.76) / safe_g, h_e=np.sqrt(a_e * 1e-14 / 1.76) / safe_g)


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
    c = s.rate_coeffs()
    share = draw(st.sampled_from([0.0, None, 1.0]))
    if share is None:
        share = draw(st.floats(0.01, 0.99))
    return s.a_user(), s.a_eve(), FeasibleSet(c, share * float(c.max()))


def _adversarial_panel(seed, count, k_max):
    """(a, aE, fs) problems of the kinds ``_adversarial_problem`` draws, from a seeded
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
        c = s.rate_coeffs()
        share = (0.0, float(rng.uniform(0.01, 0.99)), 1.0)[i % 3]
        yield s.a_user(), s.a_eve(), FeasibleSet(c, share * float(c.max()))


def _check_solver_invariants(a, a_e, fs, res):
    assert violation(fs, res.tau_dl, res.tau_ul) <= 1e-8
    start = objective_value(a, a_e, *initial_allocation(fs))
    assert res.objective >= start - 1e-12 * max(1.0, abs(start))
    assert res.gap_bits >= -1e-12
    if res.converged:
        assert res.gap_bits <= DcaSettings().epsilon
    off = a <= a_e
    assert np.all(res.tau_ul[off] == 0.0)
    # the emitted fractions are the certified point: its value and gap are the reported ones
    prob = _secrecy_problem(a[None], a_e[None], fs.rate_coeffs[None], np.array([fs.r_min]))
    dl, ul = res.tau_dl[None], res.tau_ul[None]
    terms, g_dl, g_ul = prob.value_and_grad(dl, ul)
    assert (terms.sum(axis=1)[0], prob.gap(dl, ul, g_dl, g_ul)[0]) == (res.objective, res.gap_bits)
    assert terms[0].tolist() == res.secrecy.tolist()


class TestAdversarialProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_adversarial_problem())
    def test_solver_invariants(self, problem):
        _check_solver_invariants(*problem, solve_one(*problem))


@st.composite
def _mixed_block(draw):
    """(a, aE, c, r_min, warm) of an (N, K) block, N = 2..6 and K = 1..8.

    SNR constants log-uniform in [1e-6, 1e12], with users tied at a = aE,
    users without eavesdropper (aE = 0) and switched-off users (aE > a),
    rate coefficients log-uniform in [1e-2, 10] and r_min at 0, inside the
    range or at max c.  ``warm`` marks the rows that start from their own
    answer, which certifies them at the start; row 0 is warm and row 1
    cold, so every block holds both kinds.
    """
    k, n = draw(st.integers(1, 8)), draw(st.integers(2, 6))

    def rows(strategy):
        return np.array(draw(st.lists(strategy, min_size=n * k, max_size=n * k))).reshape(n, k)

    a = rows(st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e))
    a_e = rows(st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e))
    kind = rows(st.sampled_from(["drawn", "tie", "zero"]))
    a_e = np.where(kind == "tie", a, np.where(kind == "zero", 0.0, a_e))
    c = rows(st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e))
    share = np.array([draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)) for _ in range(n)])
    warm = np.array([True, False] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2)))
    return a, a_e, c, share * c.max(axis=1), warm


class TestRowIndependence:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_mixed_block())
    def test_every_row_is_its_solve_alone(self, block):
        # the block's row reductions add each row as a block of that row alone
        # would, so no field of a row depends on the rows solved beside it
        a, a_e, c, r_min, warm = block
        tau_dl, tau_ul = initial_rows(c, r_min)
        for i in np.flatnonzero(warm):
            first = solve_rows(a[i:i + 1], a_e[i:i + 1], c[i:i + 1], r_min[i:i + 1], tau_dl[i:i + 1], tau_ul[i:i + 1])
            tau_dl[i], tau_ul[i] = first.tau_dl[0], first.tau_ul[0]
            assert not first.converged[0] or solve_rows(
                a[i:i + 1], a_e[i:i + 1], c[i:i + 1], r_min[i:i + 1], tau_dl[i:i + 1], tau_ul[i:i + 1]
            ).iterations[0] == 0  # a warm row is a certified start
        out = solve_rows(a, a_e, c, r_min, tau_dl, tau_ul)
        for i in range(c.shape[0]):
            alone = solve_rows(a[i:i + 1], a_e[i:i + 1], c[i:i + 1], r_min[i:i + 1], tau_dl[i:i + 1], tau_ul[i:i + 1])
            for field in dataclasses.fields(out):
                got, want = getattr(out, field.name)[i], getattr(alone, field.name)[0]
                assert np.array_equal(got, want), (i, field.name, got, want)


class TestAdversarialPanel:
    def test_every_solve_certifies(self):
        # a seeded panel: its problems stay put when src/ changes
        for a, a_e, fs in _adversarial_panel(seed=41, count=400, k_max=64):
            res = solve_one(a, a_e, fs)
            _check_solver_invariants(a, a_e, fs, res)
            assert res.converged, (fs.K, fs.r_min, res.gap_bits)
            assert math.isfinite(certificate_gap(a, a_e, fs, res.tau_dl, res.tau_ul))

    def test_ul_sliver_emitted_as_certified(self):
        # a panel row where user 0 keeps a UL share of 2.5e-8: zeroed, the
        # point would be worth 9.65e-7 bits less, with a gap of 0.78 bits
        a = np.array([1570283.745097474, 606286551168.2555])
        a_e = np.array([4.115269602712459e-06, 0.11360380231564239])
        fs = FeasibleSet(np.array([0.9134405588603909, 1.0972290998321415]), 0.8967401686015)
        res = solve_one(a, a_e, fs)
        _check_solver_invariants(a, a_e, fs, res)
        assert res.converged and res.objective == 38.985972831201174
        assert 0.0 < res.tau_ul[0] < 1e-6


def _dual_panel():
    """(a, aE, fs) problems with K <= 8: an adversarial panel, fig3 draws, fig4
    draws and problems whose rate coefficients are drawn apart from the channels."""
    yield from _adversarial_panel(seed=43, count=90, k_max=8)
    rng = np.random.default_rng(44)
    for a, a_e, _ in _adversarial_panel(seed=46, count=60, k_max=8):
        # c log-uniform in [1e-3, 10] and r_min uniform in [0, max c]: the DL
        # optimum often lies on an edge, most of it on a low-rate user
        c = 10.0 ** rng.uniform(-3.0, 1.0, a.size)
        yield a, a_e, FeasibleSet(c, float(rng.uniform(0.0, c.max())))
    for name, counts in (("fig3", (1, 2, 4, 8)), ("fig4", (2, 4, 8))):
        cfg = load_config(preset=name)
        for i in range(30):
            sub = dataclasses.replace(cfg, users_count=counts[i % len(counts)], r_min=0.0, r_min_fraction=None)
            block, fs = generate_scenario(sub, int(rng.integers(0, 1000)))
            c = fs.rate_coeffs
            share = (0.0, float(rng.uniform(0.01, 0.99)), 1.0)[i % 3]
            yield block.a[0], block.a_e[0], FeasibleSet(c, share * float(c.max()))


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
        _, values = dual_probes([(a, a_e, fs.rate_coeffs, fs.r_min) for a, a_e, fs in problems])
        rng = np.random.default_rng(45)
        loose = DcaSettings(epsilon=1e9)
        for (a, a_e, fs), probes in zip(problems, values):
            res = solve_one(a, a_e, fs)
            f = res.objective
            assert np.all(f <= probes + 1e-12 * max(1.0, abs(f)))
            random = (rng.dirichlet(np.ones(fs.K + 1))[: fs.K], rng.dirichlet(np.ones(fs.K + 1))[: fs.K])
            for out in (res, solve_one(a, a_e, fs, loose), solve_one(a, a_e, fs, loose, random)):
                assert probes.min() - out.objective <= out.gap_bits + 1e-12 * max(1.0, abs(out.objective))
