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
  saturated: its share is 0, as a switched-off user's is.  In
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
two blocks and is taken over their vertices in closed form (the rate face,
corners and edges ``_dl_vertices`` lists, and the best UL vertex).  It is
the engine's only exit test: a start whose gap is at most ``epsilon`` is
returned as it is, and a solve ends ``converged`` iff the gap of its answer
is at most ``epsilon``.

Rows.  The certificate kernels (both repairs, value and gradient, gap and
the reporting snap) are row-batched: they take (N, K) arrays, one problem
with its own channels, rate coefficients and r_min per row.
``dca_solve`` and ``kkt_residual`` pass one row; ``solve_rows`` passes
many, as both sweeps (r_min and users) do for a block of trials at one
rate target.
Only the dual solve runs row by row, for the rows the gap does not
certify.  The kernels reduce plain (N, K) rows, to which a user without
uplink adds exact zeros; a row-wise ``sum`` or ``np.vecdot`` of a
C-contiguous block adds each row as it adds that row alone, so a row's
answer does not depend on the rows solved beside it.

Back on the polytope.  The start and the dual solve's point are put back on
the polytope block by block, each by a feasibility repair that is not a
projection: both blocks are clipped at 0 and, over the budget, scaled onto
it (``_repair_ul`` zeroes the switched-off users first), and the DL block
is then moved toward the rate face (``_repair_dl``).  Both return a
feasible point unchanged; the engine keeps a point by its objective and
certifies it by its gap, so neither needs the closest feasible point.
Every fraction may reach 0 exactly: at tau_ul = 0 the gradient kernel takes
a supergradient of the perspective's closure (``_Concave.value_and_grad``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vlcrf.link_budget import LN2, Allocation, ScenarioChannels, perspective_grads, perspective_value

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

SNAP_THRESHOLD = 1e-6       # reported fractions below this collapse to 0
BUDGET_TOL = 1e-14          # the dual search stops once sum(tau_ul) is this close to 1
TIE_TOL = 1e-12             # DL vertex costs this close (relative to max q) tie
RESPONSE_STEPS = 60         # cap on the Newton steps of one per-user response

minimize = None  # unused: bench/tracing.py wraps dc_solver.minimize by name until that span is repointed


@dataclass(frozen=True)
class FeasibleSet:
    """Time-slot polytope: two unit budgets, nonnegativity, minimum DL rate."""

    rate_coeffs: np.ndarray
    r_min: float

    def __post_init__(self):
        c = np.asarray(self.rate_coeffs, dtype=np.float64).copy()
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("rate_coeffs must be a nonempty 1-D array")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValueError("rate_coeffs must be finite and >= 0")
        c.flags.writeable = False
        object.__setattr__(self, "rate_coeffs", c)
        # nan passes a plain r_min < 0 test and then reads as an infeasible target
        if not (math.isfinite(self.r_min) and self.r_min >= 0):
            raise ValueError(f"r_min must be finite and >= 0, got {self.r_min!r}")

    @property
    def K(self) -> int:
        return self.rate_coeffs.shape[0]


@dataclass(frozen=True)
class DcaSettings:
    epsilon: float = 1e-8                 # bound on the certificate gap, bits
    max_iterations: int = 500             # cap on the steps of the UL-multiplier search

    def __post_init__(self):
        # nan would fail every certificate and inf pass any gap as converged
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")
        steps = self.max_iterations
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ValueError(f"max_iterations must be an int >= 1, got {steps!r}")


@dataclass(frozen=True)
class DcaResult:
    allocation: Allocation | None
    objective: float
    iterations: int                           # engine passes: 0 (certified start) or 1 (dual solve)
    status: str
    raw_allocation: Allocation | None = None  # solver iterate before snapping
    gap_bits: float = math.nan                # certificate: objective >= optimum - gap_bits


@dataclass(frozen=True)
class RowSolutions:
    """What ``dca_solve`` returns, for N problems at once: (N, K) and (N,) arrays.

    No ``Allocation`` is built; a caller that emits the fractions runs
    ``link_budget.check_fractions`` on them.
    """

    tau_dl: np.ndarray        # reported fractions, snapped
    tau_ul: np.ndarray
    raw_tau_dl: np.ndarray    # the solver's point before snapping: the next warm start
    raw_tau_ul: np.ndarray
    objective: np.ndarray
    gap_bits: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray     # gap_bits <= epsilon: status "converged", else "max_iterations"


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

def _clip_to_budget(x: np.ndarray) -> np.ndarray:
    """Per row, clip at 0 and, over the unit budget, scale onto it."""
    x = np.maximum(x, 0.0)
    total = x.sum(axis=1)
    over = total > 1.0
    x[over] /= total[over, None]
    return x


def _repair_ul(t: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per row, a point of {x >= 0, 0 off ``on``, sum(x) <= 1} near t.

    Not the closest point: zero the inactive entries, clip at 0 and, over
    the budget, scale onto it.  A feasible row comes back unchanged; for any
    finite row the result is feasible up to a few ulps of the budget, so a
    second repair moves no entry by more than that.
    """
    return _clip_to_budget(np.where(on, t, 0.0))


def _repair_dl(d: np.ndarray, c: np.ndarray, r_min: np.ndarray) -> np.ndarray:
    """Per row, a point of {x >= 0, sum(x) <= 1, c . x >= r_min} near d.

    Not the closest point: clip at 0, scale onto the budget, then, short of
    r_min, move toward the best-user vertex e_j (feasible as r_min <= max c)
    until c . x = r_min, a convex combination that keeps both budgets.  A
    feasible row comes back unchanged, and the result is feasible for any
    finite d.
    """
    d = _clip_to_budget(d)
    rate = np.vecdot(c, d)
    short = np.flatnonzero(rate < r_min)
    if short.size:
        j = np.argmax(c[short], axis=1)
        lam = (r_min[short] - rate[short]) / (c[short, j] - rate[short])
        d[short] *= (1.0 - lam)[:, None]
        d[short, j] += lam
    return d


def project_onto_feasible(fs: FeasibleSet, tau_dl, tau_ul) -> tuple[list, list]:
    """Put both blocks back on the feasible polytope, as two lists.

    UL: the feasibility repair ``_repair_ul``, DL: ``_repair_dl``; neither
    is a projection.  A feasible input comes back unchanged; for any finite
    input the budgets and the rate target hold up to rounding, and both
    blocks are >= 0.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    dl = _repair_dl(np.asarray(tau_dl, dtype=np.float64)[None], fs.rate_coeffs[None], np.array([fs.r_min]))
    ul = _repair_ul(np.asarray(tau_ul, dtype=np.float64)[None], np.ones((1, fs.K), dtype=bool))
    return dl[0].tolist(), ul[0].tolist()


def violation_rows(rate_coeffs: np.ndarray, r_min: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """Worst constraint violation of each row's allocation (0 when feasible).

    (N, K) rate coefficients and fractions, (N,) rate targets.  The
    minimum-rate slack is normalized by max(1, r_min) so the measure is
    comparable across rate scales.
    """
    rate = np.vecdot(rate_coeffs, tau_dl)
    return np.fmax.reduce([
        np.zeros(r_min.shape), -tau_dl.min(axis=1), -tau_ul.min(axis=1),
        tau_dl.sum(axis=1) - 1.0, tau_ul.sum(axis=1) - 1.0,
        (r_min - rate) / np.maximum(1.0, r_min),
    ])


def allocation_violation(fs: FeasibleSet, alloc: Allocation) -> float:
    """Worst constraint violation of an allocation (0 when feasible), as ``violation_rows``."""
    return float(violation_rows(fs.rate_coeffs[None], np.array([fs.r_min]), alloc.tau_dl[None], alloc.tau_ul[None])[0])


# ---------------------------------------------------------------------------
# the engine: certified solves of the concave programme
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


def _dl_best(c: np.ndarray, r_min: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per row, the largest g . v over the vertices v that ``_dl_vertices`` lists.

    In closed form: (r_min / c_k) g_k (0 at r_min = 0, the origin) and g_k
    for each c_k >= r_min, and lam g_i + (1 - lam) g_j on each edge with
    c_i > r_min > c_j, lam = (r_min - c_j) / (c_i - c_j).
    """
    r = r_min[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        face = np.where(r > 0.0, r / c, 0.0) * g
        best = np.where(c >= r, np.maximum(face, g), -np.inf).max(axis=1)
        c_i, c_j, r = c[:, :, None], c[:, None, :], r[:, :, None]
        edge = (c_i > r) & (c_j < r)
        if edge.any():
            lam = (r - c_j) / (c_i - c_j)
            on_edge = lam * g[:, :, None] + (1.0 - lam) * g[:, None, :]
            best = np.maximum(best, np.where(edge, on_edge, -np.inf).max(axis=(1, 2)))
    return best


@dataclass(frozen=True)
class _Concave:
    """Per row, max sum_{k on} (u_k - v_k) over the polytope, tau_ul = 0 off ``on``.

    ``a``, ``a_e``, ``on`` and the rate coefficients ``c`` are (N, K),
    ``r_min`` is (N,): one problem per row.
    """

    a: np.ndarray
    a_e: np.ndarray
    on: np.ndarray
    c: np.ndarray
    r_min: np.ndarray

    def take(self, rows: np.ndarray) -> "_Concave":
        return _Concave(self.a[rows], self.a_e[rows], self.on[rows], self.c[rows], self.r_min[rows])

    def repair(self, dl: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both repairs; ``ul`` is read at the active users only."""
        return _repair_dl(dl, self.c, self.r_min), _repair_ul(ul, self.on)

    def value_and_grad(self, dl: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Objective per row and a supergradient of it, 0 off ``on``.

        At tau_ul = 0 (or where a w / tau_ul overflows) a term is 0, and its
        superdifferential is that of the perspective's closure: with
        w = 1 - tau_dl > 0 the limit (d/dtau_dl, d/dtau_ul) = (0, log2(a / aE)),
        inf where aE = 0; at the corner w = 0 every (-phi'(s), psi(s)),
        s >= 0.  Any choice certifies; to keep the gap tight on DL ties, a
        corner user takes that limit when log2(a / aE) is at most the row's
        largest UL gradient at a positive share (so it raises no UL vertex),
        else (-phi'(0), 0) = (-(a - aE) / ln2, 0).
        """
        on, a, a_e = self.on, self.a, self.a_e
        w = 1.0 - dl
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = perspective_value(a, w, ul) - perspective_value(a_e, w, ul)
            du_dl, du_ul = perspective_grads(a, w, ul)
            dv_dl, dv_ul = perspective_grads(a_e, w, ul)
            g_dl, g_ul = du_dl - dv_dl, du_ul - dv_ul
            limit = np.log2(a / a_e)  # inf where aE = 0
        # no uplink, or a w / tau_ul beyond the doubles: take the limits at tau_ul -> 0
        zero = on & ~np.isfinite(g_ul)
        share = on & ~zero
        lam = np.where(share, g_ul, -np.inf).max(axis=1, keepdims=True)
        corner = zero & (w <= 0.0) & (limit > lam)
        g_ul = np.where(share, g_ul, np.where(zero & ~corner, limit, 0.0))
        g_dl = np.where(share, g_dl, np.where(corner, (a_e - a) / LN2, 0.0))
        return np.where(share, value, 0.0).sum(axis=1), g_dl, g_ul

    def gap(self, dl: np.ndarray, ul: np.ndarray, g_dl: np.ndarray, g_ul: np.ndarray) -> np.ndarray:
        """Frank-Wolfe gap per row: the UL block's best vertex is 0 or one active user's e_k.

        Summed block by block: a corner user's DL gradient of -1e10 would
        swamp a UL gap of 1e-7 in one sum.  An infinite UL gradient (aE = 0)
        makes the gap inf; it is left out of g . x, where it would read nan.
        """
        ul_best = np.maximum(g_ul.max(axis=1), 0.0)
        ul_gap = ul_best - np.vecdot(np.where(np.isfinite(g_ul), g_ul, 0.0), ul)
        return ul_gap + (_dl_best(self.c, self.r_min, g_dl) - np.vecdot(g_dl, dl))


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


def _dual_solve(prob: _Concave, row: int, lam: float, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau_dl, tau_ul) maximizing row ``row`` of the concave programme, via lambda.

    ``lam`` (bits) is the warm start.  Each step evaluates every user's
    response and every DL vertex's cost q . v and UL use
    U_v = sum_k max((1 - v_k) / s_k, 0) at lambda.  The vertices
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
    on = prob.on[row]
    vertices = _dl_vertices(prob.c[row], float(prob.r_min[row]))
    v_on = vertices[:, on]
    out = np.zeros(on.size)
    if on.sum() == 1:
        # one active user: the whole UL frame, and the least of its DL time
        out[on] = 1.0
        return vertices[int(np.argmin(v_on[:, 0]))], out
    a = prob.a[row, on]
    rho = prob.a_e[row, on] / a
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
            U = np.maximum(shares, 0.0).sum(axis=1)
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
            d_U = ((1.0 - v_on[p]) * d_inv_s)[shares[p] > 0.0].sum()
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
    free = ul > 0.0
    slope = d_ul[free].sum()
    if slope < 0.0:
        ul[free] += d_ul[free] * ((1.0 - np.maximum(ul, 0.0).sum()) / slope)
    out[on] = ul
    return dl, out


def _maximize(prob: _Concave, dl: np.ndarray, ul: np.ndarray, settings: DcaSettings):
    """Certified solves from the starts (dl, ul), one per row: (tau_dl, tau_ul, objective, gap, passes).

    Each start is put back on the polytope first (switched-off users lose
    their uplink share, which never lowers the objective).  A start whose
    gap is at most ``epsilon`` is returned as it is, after 0 passes; for
    every other row the dual solve runs once, warm-started from the start's
    largest active UL gradient, and its point, put back on the polytope,
    replaces the start when its objective is at least as high, so no answer
    falls below its start.
    """
    x_dl, x_ul = prob.repair(dl, ul)
    f, g_dl, g_ul = prob.value_and_grad(x_dl, x_ul)
    gap = prob.gap(x_dl, x_ul, g_dl, g_ul)
    passes = np.zeros(f.size, dtype=np.int64)
    todo = np.flatnonzero(~(gap <= settings.epsilon))
    if todo.size:
        sub = prob.take(todo)
        lam = np.where(sub.on, g_ul[todo], -np.inf).max(axis=1)
        points = [_dual_solve(sub, i, float(lam[i]), settings.max_iterations) for i in range(todo.size)]
        n_dl, n_ul = sub.repair(np.array([p[0] for p in points]), np.array([p[1] for p in points]))
        f_n, gn_dl, gn_ul = sub.value_and_grad(n_dl, n_ul)
        gap_n = sub.gap(n_dl, n_ul, gn_dl, gn_ul)
        better = f_n >= f[todo]
        rows = todo[better]
        x_dl[rows], x_ul[rows], f[rows], gap[rows] = n_dl[better], n_ul[better], f_n[better], gap_n[better]
        passes[todo] = 1
    return x_dl, x_ul, f, gap, passes


def _snap_reported(dl: np.ndarray, ul: np.ndarray, c: np.ndarray, r_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero out fractions below the reporting threshold, row by row.

    A row's downlink snapping is skipped wholesale if it would break the
    minimum rate; uplink snapping only removes the slivers that users near
    saturation keep, and is safe.
    """
    ul_s = np.where(ul < SNAP_THRESHOLD, 0.0, ul)
    dl_s = np.where(dl < SNAP_THRESHOLD, 0.0, dl)
    keep = (r_min > 0.0) & (np.vecdot(c, dl_s) < r_min - 1e-9)
    dl_s[keep] = dl[keep]
    return dl_s, ul_s


def _secrecy_problem(a, a_e, c, r_min) -> _Concave:
    """The secrecy objective, row by row, with the users a_k <= aE_k switched off."""
    return _Concave(a, a_e, a > a_e, c, r_min)


def solve_rows(
    a: np.ndarray,
    a_e: np.ndarray,
    rate_coeffs: np.ndarray,
    r_min: np.ndarray,
    tau_dl: np.ndarray,
    tau_ul: np.ndarray,
    settings: DcaSettings = DcaSettings(),
) -> RowSolutions:
    """Certified solves of N secrecy problems, row i from the start (tau_dl[i], tau_ul[i]).

    ``a``, ``a_e`` (the users' and the eavesdropper's SNR constants),
    ``rate_coeffs`` and the starts are (N, K); ``r_min`` is (N,), each
    feasible (at most the row's largest rate coefficient).  Row i is what
    ``dca_solve`` returns for that problem alone, bit for bit.
    """
    prob = _secrecy_problem(a, a_e, rate_coeffs, r_min)
    dl, ul, f, gap, passes = _maximize(prob, tau_dl, tau_ul, settings)
    dl_s, ul_s = _snap_reported(dl, ul, rate_coeffs, r_min)
    return RowSolutions(dl_s, ul_s, dl, ul, f, gap, passes, gap <= settings.epsilon)


def _one_row(s: ScenarioChannels, fs: FeasibleSet) -> tuple[np.ndarray, ...]:
    """(a, a_e, rate_coeffs, r_min) of one problem as a single row."""
    return s.a_user()[None], s.a_eve()[None], fs.rate_coeffs[None], np.array([fs.r_min], dtype=np.float64)


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
    out = solve_rows(*_one_row(s, fs), start.tau_dl[None], start.tau_ul[None], settings)
    return DcaResult(
        allocation=Allocation(out.tau_dl[0], out.tau_ul[0]),
        objective=float(out.objective[0]),
        iterations=int(out.iterations[0]),
        status=STATUS_CONVERGED if out.converged[0] else STATUS_MAX_ITERATIONS,
        raw_allocation=Allocation(out.raw_tau_dl[0], out.raw_tau_ul[0]),
        gap_bits=float(out.gap_bits[0]),
    )


def kkt_residual(s: ScenarioChannels, fs: FeasibleSet, alloc: Allocation) -> float:
    """Frank-Wolfe gap of the secrecy problem at ``alloc``, in bits.

    For a feasible ``alloc``, f* - f(alloc) <= gap.  f switches off the users
    with a_k <= aE_k as ``dca_solve`` does (their tau_ul is not read), so it
    is the secrecy objective wherever they get no uplink, as in every solver
    answer, where the gap equals ``gap_bits``.  An active user without
    uplink contributes the supergradient ``_Concave.value_and_grad`` picks;
    with aE = 0 and tau_dl < 1 its UL gradient, and so the gap, is +inf.
    """
    if fs.K != s.K or alloc.K != s.K:
        raise ValueError("scenario, feasible set and allocation sizes disagree")
    prob = _secrecy_problem(*_one_row(s, fs))
    dl, ul = alloc.tau_dl[None], alloc.tau_ul[None]
    _, g_dl, g_ul = prob.value_and_grad(dl, ul)
    return float(prob.gap(dl, ul, g_dl, g_ul)[0])
