"""The float dual kernel against its numpy form (``dual_numpy``), bit for bit.

Every comparison is ==, with nan matching nan in the same place: the
responses (y, 1/s, q, d(1/s)/dlambda) at many prices, and the (tau_dl,
tau_ul) each dual solve returns, or the error it raises.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import dual_numpy
from vlcrf import dc_solver, experiment
from vlcrf.dc_solver import _dual_solve, _respond, _secrecy_problem, initial_rows, solve_rows
from vlcrf.experiment import load_config


def _same(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def _check_responses(a, a_e, lams) -> int:
    """Compare the responses of the active users of (a, a_e) at each price of
    ``lams`` (nats), walked from the largest down with the previous response
    as ``y_right``, as the dual search's falling steps pass it.  Returns the
    number of saturated responses seen."""
    prob = _secrecy_problem(a[None], a_e[None], np.ones((1, a.size)), np.zeros(1))
    on = prob.on[0]
    users = prob.users[:, 0, on].tolist()
    a, rho = a[on], a_e[on] / a[on]
    y_new, y_ref = [np.inf] * a.size, np.full(a.size, np.inf)
    saturated = 0
    with np.errstate(all="ignore"):
        for lam in sorted(lams, reverse=True):
            got = _respond(users, lam, y_new)
            want = dual_numpy._respond(a, rho, lam, y_ref)
            for name, g, w in zip(("y", "1/s", "q", "d(1/s)"), got, want):
                assert _same(g, w), (name, lam, a.tolist(), rho.tolist())
            y_new, y_ref = got[0], want[0]
            saturated += int(np.isinf(want[0]).sum())
    return saturated


def _prices(rng, a, a_e, count=12) -> list[float]:
    """Prices across (0, y_max] of the users and beyond: tiny, inside, at and past saturation."""
    on = a > a_e
    with np.errstate(divide="ignore"):
        y_max = -np.log(a_e[on] / a[on])
    finite = y_max[np.isfinite(y_max)]
    top = float(finite.max()) if finite.size else 40.0
    lams = [1e-300, 1e-12, *(top * rng.uniform(0.0, 1.2, count)).tolist()]
    return lams + [float(v) for v in finite[:3]] + [2.0 * top]


def _random_users(rng, k):
    a, a_e = 10.0 ** rng.uniform(-6.0, 12.0, (2, k))
    return np.maximum(a, a_e), np.minimum(a, a_e)


def _below(a, ulps):
    """The double ``ulps`` steps below each entry of a."""
    out = a.copy()
    for _ in range(ulps):
        out = np.nextafter(out, 0.0)
    return out


def test_quotient_matches_numpy():
    values = [1.0, -1.0, 0.0, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]
    for x in values:
        for y in values:
            got = dc_solver._quotient(x, y)
            with np.errstate(all="ignore"):
                want = float(np.divide(x, y))
            if np.isnan(want):
                assert np.isnan(got), (x, y)
            else:
                assert got == want and np.signbit(got) == np.signbit(want), (x, y)


class TestResponses:
    def test_newton_stops_in_rounding_noise(self, monkeypatch):
        # with aE / a near 1, F is nearly flat at the root and the iterate
        # swings by about 1e-16 once it gets there: the loop must stop on the
        # swing, not run out its RESPONSE_STEPS
        a = np.ones(2)
        a_e = np.array([0.8671597294808296, 0.9919232097835802])
        lam = 0.005170110247949786  # nats
        prob = _secrecy_problem(a[None], a_e[None], np.ones((1, 2)), np.zeros(1))
        calls = []
        expm1 = np.expm1
        monkeypatch.setattr(np, "expm1", lambda x: calls.append(x) or expm1(x))
        _respond(prob.users[:, 0].tolist(), lam, [np.inf, np.inf])
        assert len(calls) < 10
        monkeypatch.undo()
        _check_responses(a, a_e, [lam])

    def test_snr_constants_across_the_range(self):
        rng = np.random.default_rng(5)
        saturated = 0
        for _ in range(60):
            a, a_e = _random_users(rng, int(rng.integers(2, 65)))
            saturated += _check_responses(a, a_e, _prices(rng, a, a_e))
        assert saturated > 0

    def test_rho_within_ulps_of_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 9))
            a = 10.0 ** rng.uniform(-6.0, 12.0, k)
            a_e = _below(a, int(rng.integers(1, 5)))
            assert np.all(a_e / a < 1.0) and np.all(a_e / a > 1.0 - 1e-15)
            _check_responses(a, a_e, _prices(rng, a, a_e))

    def test_no_eavesdropper(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, a_e = _random_users(rng, int(rng.integers(2, 17)))
            a_e[rng.random(a.size) < 0.5] = 0.0
            _check_responses(a, a_e, _prices(rng, a, a_e) + [700.0, 800.0])


def _solve(solve, prob, lam):
    """A dual solve's (tau_dl, tau_ul) from the start ``lam`` (bits), or the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return solve(prob, 0, lam, 500)
    except ValueError as err:
        return repr(err)


def _check_dual(a, a_e, c, r_min, lams) -> int:
    """Compare both dual solves of one problem from each start ``lams`` (bits),
    answers or errors.  Returns the number of solves with two or more active
    users."""
    prob = _secrecy_problem(a[None], a_e[None], c[None], np.array([r_min]))
    for lam in lams:
        got, want = _solve(_dual_solve, prob, lam), _solve(dual_numpy._dual_solve, prob, lam)
        where = (a.tolist(), a_e.tolist(), c.tolist(), r_min, lam)
        if isinstance(want, str):
            assert got == want, where
        else:
            assert _same(got[0], want[0]) and _same(got[1], want[1]), where
    return len(lams) * int(prob.on.sum() >= 2)


def _starts(rng, a, a_e) -> list[float]:
    """Warm starts in bits: inside (0, hi), and outside it (0, below, above, inf, nan)."""
    with np.errstate(divide="ignore"):
        hi = float(np.max(np.log2(a / a_e)[a > a_e]))
    inside = (min(hi, 60.0) * rng.uniform(0.0, 1.0, 2)).tolist()
    return inside + [0.0, -1.0, hi, 2.0 * hi + 1.0, np.inf, np.nan]


class TestDualSolves:
    def test_random_problems(self):
        # K from 2 to 16 and, every tenth problem, 24 to 64; r_min at 0,
        # inside the range and at max c; some users switched off, some
        # without an eavesdropper, some within ulps of their eavesdropper;
        # starts inside and outside (0, hi)
        rng = np.random.default_rng(8)
        multi = 0
        for i in range(40):
            wide = i % 10 == 9
            k = (24, 32, 48, 64)[i // 10] if wide else int(rng.integers(2, 17))
            a, a_e = _random_users(rng, k)
            kind = 1 if wide else i % 4   # every user of a wide problem active
            if kind == 1:
                a_e[rng.random(k) < 0.3] = 0.0
            elif kind == 2:
                near = rng.random(k) < 0.5
                a_e[near] = _below(a[near], 2)
            elif kind == 3:
                off = rng.random(k) < 0.3
                a_e[off] = a[off] * 2.0
            c = 10.0 ** rng.uniform(-3.0, 1.0, k)
            r_min = (0.0, float(rng.uniform(0.0, c.max())), float(c.max()))[i % 3]
            starts = _starts(rng, a, a_e)
            multi += _check_dual(a, a_e, c, r_min, starts[1::3] if wide else starts)
        assert multi >= 200

    def test_start_with_users_saturated(self):
        # a start just below the largest log2(a / aE) saturates every other
        # user, and the search must come down; a second start sits at half of it
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            a = 10.0 ** rng.uniform(0.0, 6.0, k)
            a_e = a * rng.uniform(0.2, 0.9, k)
            c = 10.0 ** rng.uniform(-3.0, 1.0, k)
            hi = float(np.max(np.log2(a / a_e)))
            _check_dual(a, a_e, c, float(rng.uniform(0.0, c.max())), [0.999999 * hi, hi * 0.5 + 1e-9])

    def test_prices_past_the_doubles(self):
        # no eavesdropper and a from 1e200 to 1e300: the root lambda lies near
        # ln a, up to 691 nats, where a doubled lambda would pass e^709 and
        # read nan prices.  The search stays at or below LAM_MAX, so both
        # kernels find the root from every start, one past LAM_MAX included,
        # and every solve certifies
        c = np.array([[1.0, 2.0]])
        for a0 in (1e200, 1e250, 1e300):
            for r_min in (0.0, 0.5, 2.0):
                a = np.array([a0, a0 / 3.0])
                prob = _secrecy_problem(a[None], np.zeros((1, 2)), c, np.array([r_min]))
                assert not isinstance(_solve(dual_numpy._dual_solve, prob, 1.0), str)
                _check_dual(a, np.zeros(2), c[0], r_min, [1.0, 600.0, 1100.0])
                start = initial_rows(c, np.array([r_min]))
                assert solve_rows(a[None], np.zeros((1, 2)), c, np.array([r_min]), *start).converged[0]

    @pytest.mark.parametrize("a, a_e, c, r_min", [
        ((5.5e304, 1.6e300), (1e-18, 2.7e-11), (1.95, 0.1), 1.27),
        ((2e208, 2.4e303), (2.5e-49, 3.6e-20), (0.48, 0.14), 0.0),
        ((3.4e215, 4.2e305), (3.3e-59, 5e-17), (1.4, 6.8), 0.24),
    ])
    def test_newton_step_capped_at_lam_max(self, a, a_e, c, r_min, monkeypatch):
        # a near 1e300 and a tiny nonzero aE: the bracket's top ln(a / aE)
        # lies past 709 nats, and from these starts a Newton step or kink cut
        # inside the bracket overshoots past e^709, where the prices would
        # read nan and the tie set be empty.  Every step is capped at
        # LAM_MAX, and neither kernel errors
        a, a_e, c = np.array(a), np.array(a_e), np.array(c)
        prob = _secrecy_problem(a[None], a_e[None], c[None], np.array([r_min]))
        assert float(np.max(np.log(a) - np.log(a_e))) > dc_solver.LAM_MAX
        seen = []
        respond = dc_solver._respond
        monkeypatch.setattr(dc_solver, "_respond", lambda users, lam, y: seen.append(lam) or respond(users, lam, y))
        for lam in (1.0, 900.0):
            assert not isinstance(_solve(dual_numpy._dual_solve, prob, lam), str)
        _check_dual(a, a_e, c, r_min, [1.0, 100.0, 900.0])
        assert max(seen) == dc_solver.LAM_MAX

    @pytest.mark.parametrize("users", [2, 4, 8])
    def test_fig3_block_dual_rows(self, users, monkeypatch):
        # every row a seeded fig3 chain sends to the dual solve, compared
        # where the engine calls it
        seen = []

        def both(prob, row, lam, max_steps):
            with np.errstate(all="ignore"):
                want = dual_numpy._dual_solve(prob, row, lam, max_steps)
            got = _dual_solve(prob, row, lam, max_steps)
            assert _same(got[0], want[0]) and _same(got[1], want[1]), (row, lam)
            seen.append(int(prob.on[row].sum()))
            return got

        monkeypatch.setattr(dc_solver, "_dual_solve", both)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = dataclasses.replace(load_config(overrides={"trials": "12"}, preset="fig3"), users_count=users)
            experiment._rmin_chain_block(cfg, experiment.scenario_block(cfg, range(12)))
        assert sum(k >= 2 for k in seen) >= 5
