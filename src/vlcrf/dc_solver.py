"""Certified concave solver for the time-slot allocation problem.

The paper maximizes sum_k (u_k - v_k) over the polytope

    sum(tau_dl) <= 1,  sum(tau_ul) <= 1,  tau >= 0,  c . tau_dl >= r_min

by DCA: linearize the concave subtrahend v, maximize the concave surrogate
u - <grad v, x>, repeat.  Here u_k and v_k are the perspectives
tau_ul log2(1 + a (1 - tau_dl) / tau_ul) with the user's and the
eavesdropper's SNR constants a_k and aE_k.

Concave reduction.  For a user with a_k <= aE_k the term u_k - v_k is <= 0
everywhere and exactly 0 at tau_ul = 0, and giving up its uplink share only
frees budget for the others, so such a user is switched off: tau_ul = 0,
and its downlink share carries rate at no cost.  For every other user
u_k - v_k is the perspective of the concave s -> log2((1 + a s) / (1 + aE s)),
hence jointly concave in (tau_dl, tau_ul).  The reduced problem is a concave
programme over a polytope, and one SLSQP solve of it, put back on the
polytope by the exact projections below, replaces the DCA iteration.  DCA
with the decomposition (f, 0) of this concave f is exactly that: its
surrogate is f itself, so one step reaches the optimum and the next is a
fixed point.  ``solve_subproblem`` keeps the paper's DCA step (the argmax of
u - <y, x>) as a call of the same engine.

Certificate.  For concave f over a polytope P the Frank-Wolfe duality gap

    gap(x) = max_{y in P} grad f(x) . (y - x)  >=  f* - f(x)

bounds the distance from the optimum in bits.  The maximum splits over the
two blocks and is taken over their vertices in closed form (``_dl_support``
and the best UL vertex).  It is the engine's only exit test: a start whose
gap is at most ``epsilon`` is returned as it is, and a solve ends
``converged`` iff the gap of its answer is at most ``epsilon``.

Active users keep tau_ul at or above a small floor so the perspective
gradients stay defined; downlink fractions may reach 0 exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, nnls

from vlcrf.link_budget import (
    Allocation,
    ScenarioChannels,
    perspective_grads,
    perspective_value,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

SNAP_THRESHOLD = 1e-6       # reported fractions below this collapse to 0
FACE_SLACK = 1e-12          # relative overshoot of a budget / rate face a projection may leave
SLSQP_FTOL = 1e-16          # below any objective's ulp: SLSQP stops on its own line search


@dataclass(frozen=True)
class FeasibleSet:
    """Time-slot polytope: two unit budgets, nonnegativity, minimum DL rate."""

    rate_coeffs: np.ndarray
    r_min: float
    tau_floor: float = 1e-9

    def __post_init__(self):
        c = np.asarray(self.rate_coeffs, dtype=np.float64).copy()
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("rate_coeffs must be a nonempty 1-D array")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValueError("rate_coeffs must be finite and >= 0")
        c.flags.writeable = False
        object.__setattr__(self, "rate_coeffs", c)
        if self.r_min < 0:
            raise ValueError(f"r_min must be >= 0, got {self.r_min!r}")
        if not 0.0 < self.tau_floor < 1e-3:
            raise ValueError(f"tau_floor must be a small positive number, got {self.tau_floor!r}")

    @property
    def K(self) -> int:
        return self.rate_coeffs.shape[0]


@dataclass(frozen=True)
class DcaSettings:
    epsilon: float = 1e-8                 # bound on the certificate gap, bits
    max_iterations: int = 500             # SLSQP iteration cap

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class DcaResult:
    allocation: Allocation | None
    objective: float
    iterations: int
    status: str
    trace: tuple
    kkt_residual: float
    raw_allocation: Allocation | None = None  # solver iterate before snapping
    gap_bits: float = math.nan                # certificate: objective >= optimum - gap_bits


def check_feasibility(fs: FeasibleSet) -> bool:
    """The rate target is reachable iff it does not exceed the best single-user rate."""
    return fs.r_min <= float(np.max(fs.rate_coeffs))


def initial_allocation(fs: FeasibleSet) -> Allocation:
    """Deterministic start: rate target covered by the best DL user, uniform UL.

    The best-coefficient user (lowest index on ties) gets just enough DL
    time for the rate constraint plus a small margin, capped at the frame.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    c = fs.rate_coeffs
    j = int(np.argmax(c))
    if fs.r_min <= 0.0:
        beta = 1e-6
    else:
        beta = min(1.0, min(1.0, fs.r_min / float(c[j])) + 1e-6)
    tau_dl = np.zeros(fs.K)
    tau_dl[j] = beta
    tau_ul = np.full(fs.K, 1.0 / fs.K)
    return Allocation(tau_dl, tau_ul)


# ---------------------------------------------------------------------------
# exact projections onto the two constraint blocks (plain-Python hot path)
# ---------------------------------------------------------------------------

def _simplex_theta(w: list, budget: float) -> float:
    """Threshold t with sum(max(w - t, 0)) = budget, for budget > 0."""
    u = sorted(w, reverse=True)
    css = 0.0
    theta = 0.0
    for j, uj in enumerate(u, start=1):
        css += uj
        t = (css - budget) / j
        if uj - t > 0.0:
            theta = t
    return theta


def _simplex_project(w: list, budget: float) -> list:
    """Projection of w onto {x >= 0, sum(x) = budget}, exact under large shifts.

    The projection does not change when a constant is added to every entry,
    so the entries are first shifted to put the largest at 0.  The active
    entries then lie within ``budget`` of 0 (the shift is exact for them),
    every later subtraction is between numbers of order ``budget``, and the
    result sums to ``budget`` within a few ulps however large the input.
    """
    top = max(w)
    shifted = [wi - top for wi in w]
    theta = _simplex_theta(shifted, budget)
    return [max(si - theta, 0.0) for si in shifted]


def _over_budget(x: list, budget: float) -> bool:
    """True when sum(x) exceeds ``budget`` by more than FACE_SLACK."""
    return sum(x) > budget * (1.0 + FACE_SLACK)


def _project_ul(v: list, floor: float) -> list:
    """Project onto {x >= floor, sum(x) <= 1}.

    When the budget binds the result is floor + the projection of v - floor
    onto the simplex of size 1 - n floor.  The direct threshold form loses
    the floor and the budget in rounding once the entries reach about 1e11
    (sum(x) came out 1 + 2e-9).  A result over the budget by more than
    FACE_SLACK is recomputed in shifted form (``_simplex_project``), so
    sum(x) <= 1 + FACE_SLACK and x >= floor for any finite input.
    """
    x = [vi if vi > floor else floor for vi in v]
    if sum(x) <= 1.0:
        return x
    n = len(v)
    budget = 1.0 - n * floor
    theta = _simplex_theta([vi - floor for vi in v], budget)
    x = [max(vi - floor - theta, 0.0) + floor for vi in v]
    if _over_budget(x, 1.0):
        x = [wi + floor for wi in _simplex_project(v, budget)]
    return x


def _rate_dot(c: list, x: list) -> float:
    total = 0.0
    for ci, xi in zip(c, x):
        total += ci * xi
    return total


def _mu_for_rate(v: list, c: list, r_min: float) -> float:
    """Smallest mu >= 0 with c . max(v + mu c, 0) = r_min (piecewise-linear scan)."""
    s1 = 0.0  # sum of c_i v_i over active entries
    s2 = 0.0  # sum of c_i^2 over active entries
    future = []
    for vi, ci in zip(v, c):
        if ci <= 0.0:
            continue
        if vi > 0.0:
            s1 += ci * vi
            s2 += ci * ci
        else:
            future.append((-vi / ci, vi, ci))
    future.sort()
    mu_cur = 0.0
    idx = 0
    while True:
        nxt = future[idx][0] if idx < len(future) else math.inf
        if s2 > 0.0:
            mu_need = (r_min - s1) / s2
            if mu_need <= nxt:
                return max(mu_need, mu_cur)
        if idx >= len(future):
            raise RuntimeError("rate target unreachable in projection; feasibility not checked")
        _, vi, ci = future[idx]
        s1 += ci * vi
        s2 += ci * ci
        mu_cur = nxt
        idx += 1


def _project_dl_both_active(v: list, c: list, r_min: float) -> list:
    """Projection with both the unit budget and the rate constraint active.

    The achieved rate c . x(mu) along the budget-projected path x(mu) =
    P(v + mu c) is piecewise linear and nondecreasing in the rate
    multiplier mu, so a bracketed Newton walk on its segments lands on the
    root in a few evaluations (each segment's slope follows from the
    active support statistics).
    """
    n = len(v)

    def eval_mu(mu: float):
        w = [v[i] + mu * c[i] for i in range(n)]
        theta = _simplex_theta(w, 1.0)
        x = [0.0] * n
        rate = 0.0
        s_c = 0.0
        s_cc = 0.0
        m = 0
        for i in range(n):
            xi = w[i] - theta
            if xi > 0.0:
                x[i] = xi
                rate += c[i] * xi
                s_c += c[i]
                s_cc += c[i] * c[i]
                m += 1
        slope = s_cc - s_c * s_c / m if m else 0.0
        return x, rate, slope

    lo = 0.0
    hi = None
    x_hi = None
    x, rate, slope = eval_mu(0.0)
    if rate >= r_min:
        return x
    mu = 0.0
    tol = 1e-12 * max(1.0, r_min)
    for _ in range(200):
        if slope > 1e-300:
            mu_next = mu + (r_min - rate) / slope
        else:
            mu_next = mu * 2.0 + 1.0
        if hi is not None and not (lo < mu_next < hi):
            mu_next = 0.5 * (lo + hi)
        elif hi is None and mu_next <= lo:
            mu_next = lo * 2.0 + 1.0
        if mu_next > 1e18:
            # the target sits at the best-user vertex, which the path
            # reaches only in the limit; the point at mu = 1e18 has lost v
            # in rounding, and _restore_dl puts it back on the faces
            return eval_mu(1e18)[0]
        x_n, rate_n, slope_n = eval_mu(mu_next)
        if rate_n >= r_min:
            hi, x_hi = mu_next, x_n
            if rate_n - r_min <= tol:
                return x_n
        else:
            lo = mu_next
        mu, rate, slope = mu_next, rate_n, slope_n
        if hi is not None and hi - lo <= 1e-15 * max(1.0, hi):
            return x_hi
    return x_hi if x_hi is not None else x


def _restore_dl(x: list, c: list, r_min: float) -> list:
    """Put a DL point that rounding moved off the frame back onto its faces.

    The threshold and the rate multiplier meet the entries in sums like
    v - theta and v + mu c, which lose the budget and the rate target in
    rounding once the entries reach about 1e11.  A point over the budget by
    more than FACE_SLACK is re-projected onto it in shifted form; a point
    short of r_min by more than FACE_SLACK (relative) then moves toward the
    best-user vertex e_j (feasible whenever r_min <= max c) just far enough
    that c . x = r_min.  That convex combination keeps x >= 0 and
    sum(x) <= 1.  Smaller deviations, which the direct forms leave at
    ordinary input sizes (up to 2.3e-13 on the budget), are kept as they
    are.
    """
    if _over_budget(x, 1.0):
        x = _simplex_project(x, 1.0)
    if r_min <= 0.0:
        return x
    rate = _rate_dot(c, x)
    if rate >= r_min * (1.0 - FACE_SLACK):
        return x
    j = max(range(len(c)), key=c.__getitem__)
    lam = (r_min - rate) / (c[j] - rate)
    x = [(1.0 - lam) * xi for xi in x]
    x[j] += lam
    return x


def _project_dl(v: list, c: list, r_min: float) -> list:
    """Project onto {x >= 0, sum(x) <= 1, c . x >= r_min} (exact, case analysis).

    The result meets the budget and the rate target to FACE_SLACK for any
    finite input: a point that rounding moved further off either face goes
    through ``_restore_dl``.
    """
    x = [vi if vi > 0.0 else 0.0 for vi in v]
    sum_ok = sum(x) <= 1.0
    rate_ok = r_min <= 0.0 or _rate_dot(c, x) >= r_min
    if sum_ok and rate_ok:
        return x
    if not sum_ok:
        theta = _simplex_theta(v, 1.0)
        x = [max(vi - theta, 0.0) for vi in v]
        if r_min <= 0.0 or _rate_dot(c, x) >= r_min:
            return _restore_dl(x, c, r_min)
        return _restore_dl(_project_dl_both_active(v, c, r_min), c, r_min)
    mu = _mu_for_rate(v, c, r_min)
    x = [max(vi + mu * ci, 0.0) for vi, ci in zip(v, c)]
    if sum(x) <= 1.0:
        return _restore_dl(x, c, r_min)
    return _restore_dl(_project_dl_both_active(v, c, r_min), c, r_min)


def project_onto_feasible(fs: FeasibleSet, tau_dl, tau_ul) -> tuple[list, list]:
    """Euclidean projection onto the feasible polytope (both blocks).

    Exact up to rounding, and for any finite input both budgets and the
    rate target hold to FACE_SLACK (relative), with tau_ul >= floor and
    tau_dl >= 0 exactly.  Entries of order 1e11 and beyond carry the
    answer only to about their own ulp; there the result is within that
    distance of the exact projection.
    """
    c = [float(x) for x in fs.rate_coeffs]
    dl = _project_dl([float(x) for x in tau_dl], c, fs.r_min)
    ul = _project_ul([float(x) for x in tau_ul], fs.tau_floor)
    return dl, ul


def allocation_violation(fs: FeasibleSet, alloc: Allocation) -> float:
    """Worst constraint violation of an allocation (0 when feasible).

    The minimum-rate slack is normalized by max(1, r_min) so the measure is
    comparable across rate scales.
    """
    dl = alloc.tau_dl
    ul = alloc.tau_ul
    viol = max(0.0, float(-dl.min()), float(-ul.min()))
    viol = max(viol, float(dl.sum()) - 1.0, float(ul.sum()) - 1.0)
    rate = _rate_dot([float(x) for x in fs.rate_coeffs], [float(x) for x in dl])
    viol = max(viol, (fs.r_min - rate) / max(1.0, fs.r_min))
    return viol


# ---------------------------------------------------------------------------
# the engine: one certified solve of the concave programme
# ---------------------------------------------------------------------------

def _dl_support(g: np.ndarray, c: np.ndarray, r_min: float) -> float:
    """max g . y over {y >= 0, sum(y) <= 1, c . y >= r_min}, by the vertices.

    A vertex has K active constraints among y_k = 0, the budget and the
    rate face: the origin (only when r_min = 0), e_k (c_k >= r_min),
    (r_min / c_k) e_k (the rate face alone) and, with both faces active,
    the point of the edge [e_i, e_j] with c_i > r_min > c_j on the rate face.
    """
    if r_min <= 0.0:
        return max(0.0, float(g.max()))
    reach = c >= r_min
    best = max(float(g[reach].max()), float((g[reach] * (r_min / c[reach])).max()))
    above = c > r_min
    below = c < r_min
    if above.any() and below.any():
        c_i = c[above][:, None]
        c_j = c[below][None, :]
        lam = (r_min - c_j) / (c_i - c_j)
        edge = lam * g[above][:, None] + (1.0 - lam) * g[below][None, :]
        best = max(best, float(edge.max()))
    return best


@dataclass(frozen=True)
class _Concave:
    """max sum_{k on} (u_k - v_k) - y . x over the polytope, tau_ul = 0 off ``on``.

    ``a_e`` is 0 and ``on`` all True for the DCA subproblem; the secrecy
    problem has y = 0 and switches off the users with a_k <= aE_k.
    """

    a: np.ndarray
    a_e: np.ndarray
    y_dl: np.ndarray
    y_ul: np.ndarray
    on: np.ndarray
    fs: FeasibleSet

    def project(self, dl, ul_on) -> tuple[np.ndarray, np.ndarray]:
        """The exact projection, with the switched-off users' tau_ul at 0."""
        fs = self.fs
        ul = np.zeros(fs.K)
        ul[self.on] = _project_ul([float(t) for t in ul_on], fs.tau_floor)
        dl = _project_dl([float(d) for d in dl], [float(c) for c in fs.rate_coeffs], fs.r_min)
        return np.array(dl), ul

    def value_and_grad(self, dl: np.ndarray, ul: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        on = self.on
        w = 1.0 - dl[on]
        t = ul[on]
        a = self.a[on]
        a_e = self.a_e[on]
        value = float(np.sum(perspective_value(a, w, t) - perspective_value(a_e, w, t)))
        value -= float(self.y_dl @ dl) + float(self.y_ul @ ul)
        du_dl, du_ul = perspective_grads(a, w, t)
        dv_dl, dv_ul = perspective_grads(a_e, w, t)
        g_dl = -self.y_dl
        g_dl[on] += du_dl - dv_dl
        g_ul = -self.y_ul
        g_ul[on] += du_ul - dv_ul
        return value, g_dl, g_ul

    def gap(self, dl: np.ndarray, ul: np.ndarray, g_dl: np.ndarray, g_ul: np.ndarray) -> float:
        """Frank-Wolfe gap: the UL block's best vertex is 0 or one active user's e_k."""
        g_on = g_ul[self.on]
        ul_best = max(0.0, float(g_on.max())) if g_on.size else 0.0
        dl_best = _dl_support(g_dl, self.fs.rate_coeffs, self.fs.r_min)
        return ul_best + dl_best - float(g_on @ ul[self.on]) - float(g_dl @ dl)

    def slsqp(self, dl: np.ndarray, ul: np.ndarray, max_iterations: int) -> np.ndarray | None:
        """SLSQP from (dl, ul) over z = [tau_dl, active tau_ul]; None on a failure.

        The point may sit slightly outside the polytope: the caller projects
        it.  SLSQP's own success flag is not used: it reports failure at
        points the certificate accepts.
        """
        fs = self.fs
        K = fs.K
        m = int(self.on.sum())
        c = fs.rate_coeffs

        def neg(z):
            full = np.zeros(K)
            full[self.on] = z[K:]
            f, g_dl, g_ul = self.value_and_grad(z[:K], full)
            return -f, -np.concatenate([g_dl, g_ul[self.on]])

        budget_dl = np.concatenate([-np.ones(K), np.zeros(m)])
        cons = [{"type": "ineq", "fun": lambda z: 1.0 - z[:K].sum(), "jac": lambda z: budget_dl}]
        if m:
            budget_ul = np.concatenate([np.zeros(K), -np.ones(m)])
            cons.append({"type": "ineq", "fun": lambda z: 1.0 - z[K:].sum(), "jac": lambda z: budget_ul})
        if fs.r_min > 0.0:
            rate = np.concatenate([c, np.zeros(m)])
            cons.append({"type": "ineq", "fun": lambda z: float(c @ z[:K]) - fs.r_min, "jac": lambda z: rate})
        bounds = [(0.0, 1.0)] * K + [(fs.tau_floor, 1.0)] * m
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                sol = minimize(
                    neg, np.concatenate([dl, ul[self.on]]), jac=True, method="SLSQP", bounds=bounds,
                    constraints=cons, options={"maxiter": max_iterations, "ftol": SLSQP_FTOL},
                )
        except (ValueError, ArithmeticError):
            return None
        return sol.x if np.all(np.isfinite(sol.x)) else None


def _maximize(prob: _Concave, start: Allocation, settings: DcaSettings):
    """One certified solve from ``start``: (tau_dl, tau_ul, objective, gap, trace).

    The start is projected onto the polytope first (switched-off users lose
    their uplink share, which never lowers the objective).  A start whose gap
    is at most ``epsilon`` is returned as it is; otherwise one SLSQP pass
    runs, and its point, projected, replaces the start when its objective is
    at least as high, so the answer never falls below the start.  The trace
    holds (objective, max-norm move) per pass, after the start's (f, 0).
    """
    x_dl, x_ul = prob.project(start.tau_dl, start.tau_ul[prob.on])
    f, g_dl, g_ul = prob.value_and_grad(x_dl, x_ul)
    gap = prob.gap(x_dl, x_ul, g_dl, g_ul)
    trace = [(f, 0.0)]
    if gap <= settings.epsilon:
        return x_dl, x_ul, f, gap, tuple(trace)
    step = 0.0
    z = prob.slsqp(x_dl, x_ul, settings.max_iterations)
    if z is not None:
        n_dl, n_ul = prob.project(z[: prob.fs.K], z[prob.fs.K :])
        f_n, gn_dl, gn_ul = prob.value_and_grad(n_dl, n_ul)
        if f_n >= f:
            step = float(max(np.abs(n_dl - x_dl).max(), np.abs(n_ul - x_ul).max()))
            x_dl, x_ul, f = n_dl, n_ul, f_n
            gap = prob.gap(x_dl, x_ul, gn_dl, gn_ul)
    trace.append((f, step))
    return x_dl, x_ul, f, gap, tuple(trace)


def solve_subproblem(
    s: ScenarioChannels,
    fs: FeasibleSet,
    y: np.ndarray,
    start: Allocation | None = None,
    settings: DcaSettings = DcaSettings(),
) -> Allocation:
    """One DCA step: argmax of u(x) - <y, x> over the polytope.

    ``y`` is the 2K linearization gradient ordered [dl block, ul block].
    The surrogate is concave in every user, so the engine runs with no user
    switched off; the answer is never below ``start`` (default
    initial_allocation) on the surrogate.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (2 * fs.K,):
        raise ValueError(f"y must have shape ({2 * fs.K},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("linearization gradient must be finite")
    if not check_feasibility(fs):
        raise ValueError("feasible set is empty for this rate target")
    if start is None:
        start = initial_allocation(fs)
    prob = _Concave(s.a_user(), np.zeros(fs.K), y[: fs.K], y[fs.K :], np.ones(fs.K, dtype=bool), fs)
    dl, ul, _, _, _ = _maximize(prob, start, settings)
    return Allocation(dl, ul)


def _snap_reported(dl: list, ul: list, c: list, r_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero out fractions below the reporting threshold.

    Downlink snapping is skipped wholesale if it would break the minimum
    rate; uplink snapping only removes floor-level slivers and is safe.
    """
    ul_s = np.array([0.0 if x < SNAP_THRESHOLD else x for x in ul])
    dl_s = np.array([0.0 if x < SNAP_THRESHOLD else x for x in dl])
    if r_min > 0.0 and _rate_dot(c, list(dl_s)) < r_min - 1e-9:
        dl_s = np.array(dl)
    return dl_s, ul_s


def dca_solve(
    s: ScenarioChannels,
    fs: FeasibleSet,
    settings: DcaSettings = DcaSettings(),
    initial: Allocation | None = None,
) -> DcaResult:
    """Certified solve of the secrecy maximization problem.

    Users with a_k <= aE_k are switched off (tau_ul = 0) and the concave
    rest is solved once from ``initial`` (default initial_allocation).  The
    objective is never below that of the start.  ``gap_bits`` bounds the
    distance from the optimum; the status is "converged" iff it is at most
    ``settings.epsilon``.  ``iterations`` counts SLSQP passes (0 or 1).
    Infeasible rate targets short-circuit with status "infeasible".
    """
    if fs.K != s.K:
        raise ValueError("feasible set and scenario disagree on the user count")
    if not check_feasibility(fs):
        return DcaResult(
            allocation=None,
            objective=float("nan"),
            iterations=0,
            status=STATUS_INFEASIBLE,
            trace=(),
            kkt_residual=float("nan"),
        )
    a = s.a_user()
    a_e = s.a_eve()
    prob = _Concave(a, a_e, np.zeros(fs.K), np.zeros(fs.K), a > a_e, fs)
    start = initial if initial is not None else initial_allocation(fs)
    dl, ul, f, gap, trace = _maximize(prob, start, settings)
    raw = Allocation(dl, ul)
    dl_s, ul_s = _snap_reported(
        [float(x) for x in dl], [float(x) for x in ul], [float(x) for x in fs.rate_coeffs], fs.r_min
    )
    return DcaResult(
        allocation=Allocation(dl_s, ul_s),
        objective=f,
        iterations=len(trace) - 1,
        status=STATUS_CONVERGED if gap <= settings.epsilon else STATUS_MAX_ITERATIONS,
        trace=trace,
        kkt_residual=kkt_residual(s, fs, raw),
        raw_allocation=raw,
        gap_bits=gap,
    )


def kkt_residual(s: ScenarioChannels, fs: FeasibleSet, alloc: Allocation) -> float:
    """Norm of the objective gradient projected onto the tangent cone.

    Active constraints at the point define a polyhedral tangent cone; by
    Moreau decomposition the projection of the gradient onto it equals the
    gradient minus its nonnegative-least-squares fit on the active outward
    normals.  Near-zero at stationary points; equals the plain gradient
    norm at unconstrained interior points.  Uplink fractions are lifted to
    the solver floor before differentiation.
    """
    if fs.K != s.K or alloc.K != s.K:
        raise ValueError("scenario, feasible set and allocation sizes disagree")
    K = s.K
    tau_dl = np.asarray(alloc.tau_dl, dtype=np.float64)
    tau_ul = np.maximum(np.asarray(alloc.tau_ul, dtype=np.float64), fs.tau_floor)
    du_dl, du_ul = perspective_grads(s.a_user(), 1.0 - tau_dl, tau_ul)
    dv_dl, dv_ul = perspective_grads(s.a_eve(), 1.0 - tau_dl, tau_ul)
    grad = np.concatenate([du_dl - dv_dl, du_ul - dv_ul])
    atol = 1e-7
    rows = []
    for k in range(K):
        if tau_dl[k] <= atol:
            row = np.zeros(2 * K)
            row[k] = -1.0
            rows.append(row)
    for k in range(K):
        if tau_ul[k] <= fs.tau_floor + atol:
            row = np.zeros(2 * K)
            row[K + k] = -1.0
            rows.append(row)
    if tau_dl.sum() >= 1.0 - atol:
        row = np.zeros(2 * K)
        row[:K] = 1.0
        rows.append(row)
    if tau_ul.sum() >= 1.0 - atol:
        row = np.zeros(2 * K)
        row[K:] = 1.0
        rows.append(row)
    c = np.asarray(fs.rate_coeffs, dtype=np.float64)
    if float(np.dot(c, tau_dl)) <= fs.r_min + atol * max(1.0, fs.r_min):
        row = np.zeros(2 * K)
        row[:K] = -c
        rows.append(row)
    if not rows:
        return float(np.linalg.norm(grad))
    a_mat = np.array(rows).T  # (2K, m)
    coeffs, _ = nnls(a_mat, grad)
    return float(np.linalg.norm(grad - a_mat @ coeffs))
