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
programme over a polytope, and one SLSQP solve of it replaces the DCA
iteration.  DCA with the decomposition (f, 0) of this concave f is exactly
that: its surrogate is f itself, so one step reaches the optimum and the
next is a fixed point.  ``solve_subproblem`` keeps the paper's DCA step
(the argmax of u - <y, x>) as a call of the same engine.

Certificate.  For concave f over a polytope P the Frank-Wolfe duality gap

    gap(x) = max_{y in P} grad f(x) . (y - x)  >=  f* - f(x)

bounds the distance from the optimum in bits.  The maximum splits over the
two blocks and is taken over their vertices in closed form (``_dl_support``
and the best UL vertex).  It is the engine's only exit test: a start whose
gap is at most ``epsilon`` is returned as it is, and a solve ends
``converged`` iff the gap of its answer is at most ``epsilon``.

Back on the polytope.  The start and the SLSQP point are put back on the
polytope block by block: the UL block by its Euclidean projection, the DL
block by a feasibility repair that is not a projection.  Both return a
feasible point unchanged; the engine keeps a point by its objective and
certifies it by its gap, so neither needs the closest feasible point.
Active users keep tau_ul >= TAU_FLOOR so the perspective gradients stay
defined; downlink fractions may reach 0 exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import minimize

from vlcrf.link_budget import Allocation, ScenarioChannels, perspective_grads, perspective_value

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

SNAP_THRESHOLD = 1e-6       # reported fractions below this collapse to 0
SLSQP_FTOL = 1e-16          # below any objective's ulp: SLSQP stops on its own line search
TAU_FLOOR = 1e-9            # lower bound on an active user's tau_ul


@dataclass(frozen=True)
class FeasibleSet:
    """Time-slot polytope: two unit budgets, nonnegativity, minimum DL rate."""

    rate_coeffs: np.ndarray
    r_min: float
    tau_floor: ClassVar[float] = TAU_FLOOR  # read-only, not a constructor field

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
# putting a point back on the polytope
# ---------------------------------------------------------------------------

def _onto_simplex(w: np.ndarray, budget: float) -> np.ndarray:
    """Projection onto {x >= 0, sum(x) = budget > 0} by the sorted threshold
    (Duchi et al., ICML 2008)."""
    u = np.sort(w)[::-1]
    t = (np.cumsum(u) - budget) / np.arange(1, u.size + 1)
    below = t[u - t > 0.0]
    theta = below[-1] if below.size else 0.0
    return np.maximum(w - theta, 0.0)


def _project_ul(t: np.ndarray, floor: float) -> np.ndarray:
    """Euclidean projection onto {x >= floor, sum(x) <= 1}.

    With the budget binding it is floor + the simplex projection of
    t - floor.  That form leaves the sum over the budget by about the ulp of
    the largest entry (1 + 2e-9 at 1e11), so a result over it by more than
    1e-15 is recomputed on the shift-invariant t - max(t), whose active
    entries lie near 0: the sum then misses 1 by a few ulps of 1, and a
    second projection moves no entry by more than 1e-15.
    """
    x = np.maximum(t, floor)
    if x.sum() <= 1.0:
        return x
    budget = 1.0 - t.size * floor
    x = _onto_simplex(t - floor, budget) + floor
    if x.sum() > 1.0 + 1e-15:
        x = _onto_simplex(t - t.max(), budget) + floor
    return x


def _repair_dl(d: np.ndarray, c: np.ndarray, r_min: float) -> np.ndarray:
    """A point of {x >= 0, sum(x) <= 1, c . x >= r_min} near d, not the closest.

    Clip at 0, scale onto the budget, then, short of r_min, move toward the
    best-user vertex e_j (feasible as r_min <= max c) until c . x = r_min, a
    convex combination that keeps both budgets.  A feasible d comes back
    unchanged, and the result is feasible for any finite d.
    """
    d = np.maximum(d, 0.0)
    total = d.sum()
    if total > 1.0:
        d = d / total
    rate = float(c @ d)
    if rate < r_min:
        j = int(np.argmax(c))
        lam = (r_min - rate) / (float(c[j]) - rate)
        d = (1.0 - lam) * d
        d[j] += lam
    return d


def project_onto_feasible(fs: FeasibleSet, tau_dl, tau_ul) -> tuple[list, list]:
    """Put both blocks back on the feasible polytope, as two lists.

    UL: the Euclidean projection onto {tau_ul >= TAU_FLOOR, sum <= 1}.  DL:
    the feasibility repair ``_repair_dl``, not a projection.  A feasible
    input comes back unchanged; for any finite input the budgets and the
    rate target hold up to rounding, tau_ul >= TAU_FLOOR and tau_dl >= 0.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    dl = _repair_dl(np.asarray(tau_dl, dtype=np.float64), fs.rate_coeffs, fs.r_min)
    ul = _project_ul(np.asarray(tau_ul, dtype=np.float64), TAU_FLOOR)
    return dl.tolist(), ul.tolist()


def allocation_violation(fs: FeasibleSet, alloc: Allocation) -> float:
    """Worst constraint violation of an allocation (0 when feasible).

    The minimum-rate slack is normalized by max(1, r_min) so the measure is
    comparable across rate scales.
    """
    dl = alloc.tau_dl
    ul = alloc.tau_ul
    viol = max(0.0, float(-dl.min()), float(-ul.min()))
    viol = max(viol, float(dl.sum()) - 1.0, float(ul.sum()) - 1.0)
    rate = float(fs.rate_coeffs @ dl)
    return max(viol, (fs.r_min - rate) / max(1.0, fs.r_min))


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

    def project(self, dl: np.ndarray, ul_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """DL repair, UL projection of the active users' ``ul_on``; 0 for the rest."""
        fs = self.fs
        ul = np.zeros(fs.K)
        ul[self.on] = _project_ul(ul_on, TAU_FLOOR)
        return _repair_dl(dl, fs.rate_coeffs, fs.r_min), ul

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

        The point may sit slightly outside the polytope: the caller puts it
        back (``project``).  SLSQP's own success flag is not used: it reports failure at
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
        bounds = [(0.0, 1.0)] * K + [(TAU_FLOOR, 1.0)] * m
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

    The start is put back on the polytope first (switched-off users lose
    their uplink share, which never lowers the objective).  A start whose gap
    is at most ``epsilon`` is returned as it is; otherwise one SLSQP pass
    runs, and its point, put back on the polytope, replaces the start when
    its objective is at least as high, so the answer never falls below the
    start.  The trace holds (objective, max-norm move) per pass, after the
    start's (f, 0).
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


def _snap_reported(dl: np.ndarray, ul: np.ndarray, c: np.ndarray, r_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero out fractions below the reporting threshold.

    Downlink snapping is skipped wholesale if it would break the minimum
    rate; uplink snapping only removes floor-level slivers and is safe.
    """
    ul_s = np.where(ul < SNAP_THRESHOLD, 0.0, ul)
    dl_s = np.where(dl < SNAP_THRESHOLD, 0.0, dl)
    if r_min > 0.0 and float(c @ dl_s) < r_min - 1e-9:
        dl_s = dl
    return dl_s, ul_s


def _secrecy_problem(s: ScenarioChannels, fs: FeasibleSet) -> _Concave:
    """The secrecy objective with the users a_k <= aE_k switched off."""
    a, a_e = s.a_user(), s.a_eve()
    return _Concave(a, a_e, np.zeros(fs.K), np.zeros(fs.K), a > a_e, fs)


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
    ``settings.epsilon``.  ``kkt_residual`` holds the same gap (see
    ``kkt_residual``).  ``iterations`` counts SLSQP passes (0 or 1).
    Infeasible rate targets short-circuit with status "infeasible".
    """
    if fs.K != s.K:
        raise ValueError("feasible set and scenario disagree on the user count")
    if not check_feasibility(fs):
        return DcaResult(allocation=None, objective=math.nan, iterations=0, status=STATUS_INFEASIBLE,
                         trace=(), kkt_residual=math.nan)
    start = initial if initial is not None else initial_allocation(fs)
    dl, ul, f, gap, trace = _maximize(_secrecy_problem(s, fs), start, settings)
    dl_s, ul_s = _snap_reported(dl, ul, fs.rate_coeffs, fs.r_min)
    return DcaResult(
        allocation=Allocation(dl_s, ul_s),
        objective=f,
        iterations=len(trace) - 1,
        status=STATUS_CONVERGED if gap <= settings.epsilon else STATUS_MAX_ITERATIONS,
        trace=trace,
        kkt_residual=gap,
        raw_allocation=Allocation(dl, ul),
        gap_bits=gap,
    )


def kkt_residual(s: ScenarioChannels, fs: FeasibleSet, alloc: Allocation) -> float:
    """Frank-Wolfe gap of the secrecy problem at ``alloc``, in bits.

    For a feasible ``alloc``, f* - f(alloc) <= gap.  f switches off the users
    with a_k <= aE_k as ``dca_solve`` does (their tau_ul is not read), so it
    is the secrecy objective wherever they get no uplink, as in every solver
    answer, where the gap equals ``gap_bits``.  The other users' tau_ul is
    lifted to TAU_FLOOR first so the gradient is defined.
    """
    if fs.K != s.K or alloc.K != s.K:
        raise ValueError("scenario, feasible set and allocation sizes disagree")
    prob = _secrecy_problem(s, fs)
    ul = np.maximum(alloc.tau_ul, TAU_FLOOR)
    _, g_dl, g_ul = prob.value_and_grad(alloc.tau_dl, ul)
    return prob.gap(alloc.tau_dl, ul, g_dl, g_ul)
