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
programme over a polytope.  DCA with the decomposition (f, 0) of this
concave f reaches the optimum in one step (its surrogate is f itself), so
the engine solves the concave programme directly.

The UL-budget dual.  Write phi_k(s) = log2((1 + a_k s) / (1 + aE_k s)) and
w_k = 1 - tau_dl_k; an active user's term is tau_ul_k phi_k(w_k / tau_ul_k).
Only the UL budget is dualised, with the multiplier lambda:

    D(lambda) = lambda + max_{tau_dl} sum_k max_{tau_ul_k >= 0}
                [tau_ul_k phi_k(w_k / tau_ul_k) - lambda tau_ul_k].

* Per-user response.  The inner maximum sits at tau_ul_k = w_k / s_k with
  psi_k(s_k) = lambda, psi_k(s) = phi_k(s) - s phi_k'(s), which rises from 0
  to log2(a_k / aE_k).  A user with lambda at or above that limit is
  saturated: its best share is 0 (the engine gives it TAU_FLOOR).  In
  y = ln((1 + a s) / (1 + aE s)) the equation psi = lambda is convex and
  increasing, so Newton's method from the right of the root descends to it
  monotonically (``_respond``).
* The DL block.  The inner maximum is w_k q_k with q_k = phi_k'(s_k), the
  price of a unit of user k's DL time (0 for switched-off and saturated
  users).  What is left over tau_dl is the LP min q . tau_dl over
  {tau_dl >= 0, sum <= 1, c . tau_dl >= r_min}, optimal at one of the
  vertices ``_dl_vertices`` lists; ties go to the earlier row, so the
  lowest-index switched-off user that can carry r_min alone does.
* The lambda search.  D is convex, and by the envelope theorem
  dD/dlambda = 1 - sum_k tau_ul_k: the UL-budget residual.  Its root is
  found by a bracketed Newton iteration warm-started from the start's
  largest active UL gradient (``_dual_solve``).  The answer is
  tau_ul_k = w_k / s_k(lambda*) at the optimal DL vertex, after one
  linearised lambda step taken on the shares: near saturation a share
  moves by 1e-6 and more per ulp of lambda, so no double lambda may give
  sum tau_ul = 1.
* Kinks.  Where the optimal vertex changes, D has a kink, and its root may
  sit there.  The search then steps to the lambda where the two vertices'
  costs tie and mixes them so that sum tau_ul = 1 exactly: every point of
  the optimal face with sum tau_ul = 1 is optimal, and tau_ul is linear in
  tau_dl at fixed lambda.
* One active user takes the whole UL frame and the DL vertex with the
  least of its own DL time; K = 1 gives tau_dl = r_min / c, tau_ul = 1.

Certificate.  For concave f over a polytope P the Frank-Wolfe duality gap

    gap(x) = max_{y in P} grad f(x) . (y - x)  >=  f* - f(x)

bounds the distance from the optimum in bits.  The maximum splits over the
two blocks and is taken over their vertices in closed form (``_dl_vertices``
and the best UL vertex).  It is the engine's only exit test: a start whose
gap is at most ``epsilon`` is returned as it is, and a solve ends
``converged`` iff the gap of its answer is at most ``epsilon``.

Back on the polytope.  The start and the dual solve's point are put back on
the polytope block by block, each by a feasibility repair that is not a
projection: the UL block is lifted to TAU_FLOOR and, over the budget,
scaled onto it above the floor (``_repair_ul``); the DL block is clipped,
scaled and moved toward the rate face (``_repair_dl``).  Both return a
feasible point unchanged; the engine keeps a point by its objective and
certifies it by its gap, so neither needs the closest feasible point.
Active users keep tau_ul >= TAU_FLOOR so the perspective gradients stay
defined; downlink fractions may reach 0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from vlcrf.link_budget import LN2, Allocation, ScenarioChannels, perspective_grads, perspective_value

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

SNAP_THRESHOLD = 1e-6       # reported fractions below this collapse to 0
TAU_FLOOR = 1e-9            # lower bound on an active user's tau_ul
BUDGET_TOL = 1e-14          # the dual search stops once sum(tau_ul) is this close to 1
TIE_TOL = 1e-12             # DL vertex costs this close (relative to max q) tie
RESPONSE_STEPS = 60         # cap on the Newton steps of one per-user response

minimize = None  # unused: bench/tracing.py wraps dc_solver.minimize by name until that span is repointed


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
    max_iterations: int = 500             # cap on the steps of the UL-multiplier search

    def __post_init__(self):
        if not self.epsilon > 0:  # nan too: it would fail every certificate
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class DcaResult:
    allocation: Allocation | None
    objective: float
    iterations: int                           # engine passes: 0 (certified start) or 1 (dual solve)
    status: str
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

def _repair_ul(t: np.ndarray) -> np.ndarray:
    """A point of {x >= TAU_FLOOR, sum(x) <= 1} near t, not the closest.

    Lift every entry to the floor, then, over the budget, scale the part
    above the floor onto what the floor leaves of it.  A feasible t comes
    back unchanged; for any finite t the result is feasible up to a few ulps
    of the budget, so a second repair moves no entry by more than that.
    """
    x = np.maximum(t, TAU_FLOOR)
    total = x.sum()
    if total > 1.0:
        held = x.size * TAU_FLOOR
        x = TAU_FLOOR + (x - TAU_FLOOR) * ((1.0 - held) / (total - held))
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

    UL: the feasibility repair ``_repair_ul``, DL: ``_repair_dl``; neither
    is a projection.  A feasible input comes back unchanged; for any finite
    input the budgets and the rate target hold up to rounding,
    tau_ul >= TAU_FLOOR and tau_dl >= 0.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    dl = _repair_dl(np.asarray(tau_dl, dtype=np.float64), fs.rate_coeffs, fs.r_min)
    ul = _repair_ul(np.asarray(tau_ul, dtype=np.float64))
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

def _dl_vertices(c: np.ndarray, r_min: float) -> np.ndarray:
    """Vertices of {y >= 0, sum(y) <= 1, c . y >= r_min}, one per row.

    A vertex has K active constraints among y_k = 0, the budget and the
    rate face.  With r_min = 0 the rows are the origin and then each e_k.
    Otherwise they are, in this order: (r_min / c_k) e_k (the rate face
    alone) and then e_k, for each c_k >= r_min, and, with both faces active,
    the point of the edge [e_i, e_j] with c_i > r_min > c_j on the rate
    face.  A cost q >= 0 is never lower at e_k than at (r_min / c_k) e_k, so
    taking the first of the cheapest rows prefers the rate face and then the
    lowest user index.
    """
    K = c.size
    if r_min <= 0.0:
        return np.eye(K + 1, K, -1)
    cs = c.tolist()  # K is small: Python scalars beat numpy's per-call cost here
    reach = [k for k, ck in enumerate(cs) if ck >= r_min]
    edges = [(i, j, (r_min - cj) / (ci - cj)) for i, ci in enumerate(cs) if ci > r_min
             for j, cj in enumerate(cs) if cj < r_min]
    n = len(reach)
    out = np.zeros((2 * n + len(edges), K))
    for row, k in enumerate(reach):
        out[row, k] = r_min / cs[k]
        out[n + row, k] = 1.0
    for row, (i, j, lam) in enumerate(edges, 2 * n):
        out[row, i] = lam
        out[row, j] = 1.0 - lam
    return out


@dataclass(frozen=True)
class _Concave:
    """max sum_{k on} (u_k - v_k) over the polytope, tau_ul = 0 off ``on``."""

    a: np.ndarray
    a_e: np.ndarray
    on: np.ndarray
    fs: FeasibleSet

    @cached_property
    def vertices(self) -> np.ndarray:
        return _dl_vertices(self.fs.rate_coeffs, self.fs.r_min)

    def repair(self, dl: np.ndarray, ul_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both repairs; ``ul_on`` holds the active users' tau_ul, 0 for the rest."""
        fs = self.fs
        ul = np.zeros(fs.K)
        ul[self.on] = _repair_ul(ul_on)
        return _repair_dl(dl, fs.rate_coeffs, fs.r_min), ul

    def value_and_grad(self, dl: np.ndarray, ul: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        on = self.on
        w = 1.0 - dl[on]
        t = ul[on]
        a = self.a[on]
        a_e = self.a_e[on]
        value = float(np.sum(perspective_value(a, w, t) - perspective_value(a_e, w, t)))
        du_dl, du_ul = perspective_grads(a, w, t)
        dv_dl, dv_ul = perspective_grads(a_e, w, t)
        g_dl = np.zeros(self.fs.K)
        g_dl[on] = du_dl - dv_dl
        g_ul = np.zeros(self.fs.K)
        g_ul[on] = du_ul - dv_ul
        return value, g_dl, g_ul

    def gap(self, dl: np.ndarray, ul: np.ndarray, g_dl: np.ndarray, g_ul: np.ndarray) -> float:
        """Frank-Wolfe gap: the UL block's best vertex is 0 or one active user's e_k."""
        g_on = g_ul[self.on]
        ul_best = max(0.0, float(g_on.max())) if g_on.size else 0.0
        dl_best = float((self.vertices @ g_dl).max())
        return ul_best + dl_best - float(g_on @ ul[self.on]) - float(g_dl @ dl)


def _respond(a: np.ndarray, rho: np.ndarray, lam: float, y_right: np.ndarray):
    """The active users' responses to the UL price ``lam`` (nats, > 0).

    ``a`` holds their SNR constants and ``rho`` = aE / a.  Returns
    (y, 1/s, q, d(1/s)/dlam), with q = phi'(s) in nats.  Newton's method
    solves F(y) = lam for F(y) = y - (1 + rho - e^-y - rho e^y) / (1 - rho),
    the nats form of psi in y = ln((1 + a s) / (1 + aE s)).  F is convex and
    increasing on [0, y_max], y_max = ln(1 / rho), and
    y - (1 - sqrt(rho)) / (1 + sqrt(rho)) <= F(y) <= y, so Newton starts
    right of the root and descends to it; ``y_right`` is the response at a
    larger price, or inf.  Saturated users (lam >= y_max) get y = inf and
    1/s = q = 0: their best share is 0.
    """
    y = np.full(a.size, np.inf)
    inv_s, q, d_inv_s = np.zeros(a.size), np.zeros(a.size), np.zeros(a.size)
    with np.errstate(divide="ignore"):
        y_max = -np.log(rho)                 # inf where aE = 0: never saturated
    free = lam < y_max
    a, rho, root = a[free], rho[free], np.sqrt(rho[free])
    z = np.minimum(np.minimum(y_right[free], lam + (1.0 - root) / (1.0 + root)), y_max[free])
    for _ in range(RESPONSE_STEPS):
        e_p, e_m = np.expm1(z), np.expm1(-z)
        slope = (rho * e_p - e_m) / (1.0 - rho)
        step = (z + (e_m + rho * e_p) / (1.0 - rho) - lam) / slope
        z = z - step
        if not np.any(np.abs(step) > 1e-15 * z):
            break
    e_p = np.expm1(z)
    slope = (rho * e_p - np.expm1(-z)) / (1.0 - rho)
    share = 1.0 - rho - rho * e_p            # 1 - rho e^y
    y[free] = z
    inv_s[free] = a * share / e_p
    q[free] = a * share * share / ((1.0 + e_p) * (1.0 - rho))
    d_inv_s[free] = -a * (1.0 + e_p) * (1.0 - rho) / (e_p * e_p * slope)
    return y, inv_s, q, d_inv_s


def _dual_solve(prob: _Concave, lam: float, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau_dl, active tau_ul) maximizing the concave programme, via lambda.

    ``lam`` (bits) is the warm start.  Each step evaluates every user's
    response and every DL vertex's cost q . v and UL use
    U_v = sum_k max((1 - v_k) / s_k, TAU_FLOOR) at lambda.  The vertices
    whose cost ties with the least give the sub-differential
    [1 - max U, 1 - min U] of D; when it holds 0, the two vertices with the
    largest and the least U are mixed to sum(tau_ul) = 1.  Otherwise the
    bracket on lambda shrinks and lambda takes a Newton step on ln U along
    the vertex that stays optimal in the direction of travel, cut at the
    first vertex whose linearised cost overtakes it there (the kink), or the
    bracket's midpoint when the step leaves the bracket.  The search stops
    there, when lambda stalls, or after ``max_steps`` steps; the caller
    repairs and certifies the answer.
    """
    on = prob.on
    vertices = prob.vertices
    v_on = vertices[:, on]
    if on.sum() == 1:
        # one active user: the whole UL frame, and the least of its DL time
        return vertices[int(np.argmin(v_on[:, 0]))], np.ones(1)
    a = prob.a[on]
    rho = prob.a_e[on] / a
    with np.errstate(divide="ignore"):
        lo, hi = 0.0, float(-np.log(rho.min()))    # above hi every user is saturated
    lam *= LN2
    if not 0.0 < lam < hi:
        lam = 0.5 * hi if math.isfinite(hi) else 1.0
    y_right = np.full(a.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_steps):
            y, inv_s, q, d_inv_s = _respond(a, rho, lam, y_right)
            cost = v_on @ q
            used = v_on @ inv_s                      # -d cost / d lambda
            shares = (1.0 - v_on) * inv_s
            U = np.maximum(shares, TAU_FLOOR).sum(axis=1)
            tied = np.flatnonzero(cost <= cost.min() + TIE_TOL * q.max())
            big = int(tied[np.argmax(U[tied])])
            small = int(tied[np.argmin(U[tied])])
            if U[big] >= 1.0 - BUDGET_TOL and U[small] <= 1.0 + BUDGET_TOL:
                break
            rising = U[small] > 1.0                  # every optimal vertex overspends: raise lambda
            if rising:
                lo, p = lam, small
            else:
                hi, p, y_right = lam, big, y
            d_U = ((1.0 - v_on[p]) * d_inv_s)[shares[p] > TAU_FLOOR].sum()
            nxt = lam - np.log(U[p]) * U[p] / d_U
            cross = lam + (cost - cost[p]) / (used - used[p])   # where cost_v meets cost_p, linearised
            ahead = cross[(used > used[p]) if rising else (used < used[p])]
            ahead = ahead[(ahead > lam) if rising else (ahead < lam)]
            if ahead.size:
                nxt = min(nxt, ahead.min()) if rising else max(nxt, ahead.max())
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lam
            if nxt == lam or not lo < nxt < hi:
                break
            lam = nxt
    if U[big] > U[small]:
        theta = min(1.0, max(0.0, (1.0 - U[small]) / (U[big] - U[small])))
    else:
        theta = 1.0
    dl = theta * vertices[big] + (1.0 - theta) * vertices[small]
    w = 1.0 - dl[on]
    ul, d_ul = w * inv_s, w * d_inv_s
    # Near saturation tau_ul moves by 1e-6 and more per ulp of lambda, so
    # sum(tau_ul) = 1 may lie between two doubles.  One linearised lambda
    # step, taken on the shares themselves, closes the budget: it goes to
    # the users whose shares move fastest, whose UL gradients are flat.
    free = ul > TAU_FLOOR
    slope = d_ul[free].sum()
    if slope < 0.0:
        ul[free] += d_ul[free] * ((1.0 - np.maximum(ul, TAU_FLOOR).sum()) / slope)
    return dl, np.maximum(ul, TAU_FLOOR)


def _maximize(prob: _Concave, start: Allocation, settings: DcaSettings):
    """One certified solve from ``start``: (tau_dl, tau_ul, objective, gap, passes).

    The start is put back on the polytope first (switched-off users lose
    their uplink share, which never lowers the objective).  A start whose gap
    is at most ``epsilon`` is returned as it is, after 0 passes; otherwise the
    dual solve runs once, warm-started from the start's largest active UL
    gradient, and its point, put back on the polytope, replaces the start
    when its objective is at least as high, so the answer never falls below
    the start.
    """
    x_dl, x_ul = prob.repair(start.tau_dl, start.tau_ul[prob.on])
    f, g_dl, g_ul = prob.value_and_grad(x_dl, x_ul)
    gap = prob.gap(x_dl, x_ul, g_dl, g_ul)
    if gap <= settings.epsilon:
        return x_dl, x_ul, f, gap, 0
    n_dl, n_ul = prob.repair(*_dual_solve(prob, float(g_ul[prob.on].max()), settings.max_iterations))
    f_n, gn_dl, gn_ul = prob.value_and_grad(n_dl, n_ul)
    if f_n >= f:
        x_dl, x_ul, f = n_dl, n_ul, f_n
        gap = prob.gap(x_dl, x_ul, gn_dl, gn_ul)
    return x_dl, x_ul, f, gap, 1


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
    return _Concave(a, a_e, a > a_e, fs)


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
    ``settings.epsilon``; ``kkt_residual`` recomputes the same gap from an
    allocation.  ``iterations`` counts engine passes: 0 for a certified
    start, else 1.
    Infeasible rate targets short-circuit with status "infeasible".
    """
    if fs.K != s.K:
        raise ValueError("feasible set and scenario disagree on the user count")
    if not check_feasibility(fs):
        return DcaResult(allocation=None, objective=math.nan, iterations=0, status=STATUS_INFEASIBLE)
    start = initial if initial is not None else initial_allocation(fs)
    dl, ul, f, gap, passes = _maximize(_secrecy_problem(s, fs), start, settings)
    dl_s, ul_s = _snap_reported(dl, ul, fs.rate_coeffs, fs.r_min)
    return DcaResult(
        allocation=Allocation(dl_s, ul_s),
        objective=f,
        iterations=passes,
        status=STATUS_CONVERGED if gap <= settings.epsilon else STATUS_MAX_ITERATIONS,
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
