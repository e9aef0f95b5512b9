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

Rows.  The certificate kernels (both repairs, value and gradient, and the
gap) are row-batched: they take (N, K) arrays, one problem with its own
channels, rate coefficients and r_min per row.
``solve_rows`` is the one entry: every command (both sweep kinds,
``report`` and ``solve``) runs it through the experiment's block chain,
one call per rate target for a block of trials, and one problem is a
block of one row.
The kernels reduce plain (N, K) rows, to which a user without uplink adds
exact zeros; a row-wise ``sum`` or ``np.vecdot`` of a C-contiguous block
adds each row as it adds that row alone, so a row's answer does not depend
on the rows solved beside it.
``_secrecy_problem`` works out what the engine reads of the users' SNR
constants once per problem, as (N, K) blocks (``_Concave``).
Only the dual solve runs row by row, for the rows the gap does not
certify, and mostly on Python floats: a row has a handful of users and DL
vertices, where numpy's cost per call outweighs its arithmetic.  Floats
round + - * / as numpy does, so the user responses, the tie set, the
lambda bracket and the kink search run on them (``_respond``,
``_dual_solve``), from the lists of the row's per-user constants.  numpy
stays where its rounding is the answer: every exponential and logarithm
(``math``'s differ in the last bit for some inputs), the vertex costs and
uses as gemv calls on the F-ordered vertex block, and the sums whose order
fixes their bits.

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

from vlcrf.link_budget import LN2, perspective_terms

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

BUDGET_TOL = 1e-14          # the dual search stops once sum(tau_ul) is this close to 1
TIE_TOL = 1e-12             # DL vertex costs this close (relative to max q) tie
RESPONSE_STEPS = 60         # cap on the Newton steps of one per-user response
LAM_MAX = 708.0             # every lambda step (nats) is capped at it: every e^(lam + 1) is finite
AUDIT_SUM_SLACK = 1e-9      # an emitted row's budget sums may exceed 1 by this
AUDIT_RATE_TOL = 1e-8       # and its DL rate fall short of r_min by this, relative to max(1, r_min)

# Stubs: bench/tracing.py wraps these names on this module by getattr, and no
# code calls them; they go when the tracer is repointed (ROADMAP item 1).
minimize = kkt_residual = perspective_value = perspective_grads = None


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
class RowSolutions:
    """Certified answers of N problems: (N, K) and (N,) arrays, row i for problem i.

    The fractions are the certified point itself: ``objective`` and
    ``gap_bits`` are its value and gap, and it is both what a caller emits
    and the next warm start.  A caller that does either runs ``audit_rows``
    on them.  ``objective`` is the row sum of ``secrecy``, the certificate
    kernel's own terms (``_Concave.value_and_grad``), the one source of every reported secrecy value.
    """

    tau_dl: np.ndarray
    tau_ul: np.ndarray
    objective: np.ndarray
    secrecy: np.ndarray       # (N, K) per-user terms, 0 off the active users and at tau_ul = 0
    gap_bits: np.ndarray      # certificate: objective >= optimum - gap_bits
    iterations: np.ndarray    # engine passes: 0 (certified start) or 1 (dual solve)
    converged: np.ndarray     # gap_bits <= epsilon: status "converged", else "max_iterations"


def initial_rows(rate_coeffs: np.ndarray, r_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic starts of N feasible problems: (N, K) DL and UL fractions.

    Per row, user j = argmax c (lowest index on ties) gets
    min(1, min(1, r_min / c_j) + 1e-6) of the DL frame, or 1e-6 at
    r_min = 0, and every user 1/K of the UL frame.
    """
    rows = np.arange(rate_coeffs.shape[0])
    best = np.argmax(rate_coeffs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # c_j = 0 only at r_min = 0
        share = np.minimum(1.0, np.minimum(1.0, r_min / rate_coeffs[rows, best]) + 1e-6)
    tau_dl = np.zeros(rate_coeffs.shape)
    tau_dl[rows, best] = np.where(r_min <= 0.0, 1e-6, share)
    return tau_dl, np.full(rate_coeffs.shape, 1.0 / rate_coeffs.shape[1])


# ---------------------------------------------------------------------------
# putting a point back on the polytope
# ---------------------------------------------------------------------------

def _clip_to_budget(x: np.ndarray) -> np.ndarray:
    """Per row, clip at 0 and, over the unit budget, scale onto it."""
    x = np.maximum(x, 0.0)
    total = x.sum(axis=1)
    over = total > 1.0
    if over.any():
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


def audit_rows(rate_coeffs: np.ndarray, r_min: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> None:
    """Refuse rows that are not a valid allocation of their problem: RuntimeError.

    (N, K) rate coefficients and fractions, (N,) rate targets.  A row is
    refused for a nan or negative fraction, a DL or UL budget sum over
    1 + ``AUDIT_SUM_SLACK``, or a DL rate short of r_min by more than
    ``AUDIT_RATE_TOL`` max(1, r_min); the message names the first failing
    check and its first failing row.  Each check is written so that a
    nan fails it.
    """
    rate = np.vecdot(rate_coeffs, tau_dl)
    for bad, what in (
        (~((tau_dl >= 0.0) & (tau_ul >= 0.0)).all(axis=1), "a nan or negative slot fraction"),
        (~(tau_dl.sum(axis=1) <= 1.0 + AUDIT_SUM_SLACK), "sum(tau_dl) over the unit frame"),
        (~(tau_ul.sum(axis=1) <= 1.0 + AUDIT_SUM_SLACK), "sum(tau_ul) over the unit frame"),
        (~((r_min - rate) / np.maximum(1.0, r_min) <= AUDIT_RATE_TOL), "a DL rate short of r_min"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise RuntimeError(f"invalid allocation, {what}: tau_dl = {tau_dl[i].tolist()}, "
                               f"tau_ul = {tau_ul[i].tolist()}, r_min = {float(r_min[i])!r}")


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
    lowest user index.  Every row's ``np.vecdot`` with c is at least r_min.
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
    # c . v may round short of r_min on a rate-face row: move the row's mass
    # toward its user of the larger c (the face user, an edge's i) by ulps,
    # inside its own support, until it meets the rate in floating point.  A
    # face row's np.vecdot is its one product; an edge row's is left to numpy,
    # which may fuse its multiply-adds
    for row, k in enumerate(reach):
        share = r_min / cs[k]
        while cs[k] * share < r_min:
            share = math.nextafter(share, 1.0)
        out[row, k] = share
        out[n + row, k] = 1.0
    for row, (i, j, lam) in enumerate(edges, 2 * n):
        out[row, i] = lam
        out[row, j] = 1.0 - lam
        while np.vecdot(c, out[row]) < r_min:
            out[row, i] = lam = math.nextafter(lam, 1.0)
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

    One problem per row: ``on``, the rate coefficients ``c`` and ``limit``
    are (N, K), ``r_min`` is (N,).  ``_secrecy_problem`` works out, once per
    problem, all the engine reads of the SNR constants a and aE: ``pair``
    is (a, aE) stacked, (2, N, K); ``limit`` is log2(a / aE), the UL
    gradient at tau_ul = 0 (inf where aE = 0); and ``users`` stacks what
    ``_respond`` reads of a user, (5, N, K): a, rho = aE / a,
    y_max = -ln rho (inf where aE = 0), the Newton start offset
    (1 - sqrt rho) / (1 + sqrt rho) and 1 - rho, each one numpy expression
    over the block, so a row's entries have the bits of that row alone.
    """

    pair: np.ndarray
    on: np.ndarray
    c: np.ndarray
    r_min: np.ndarray
    limit: np.ndarray
    users: np.ndarray

    @property
    def a(self) -> np.ndarray:
        return self.pair[0]

    @property
    def a_e(self) -> np.ndarray:
        return self.pair[1]

    def take(self, rows: np.ndarray) -> "_Concave":
        return _Concave(self.pair[:, rows], self.on[rows], self.c[rows], self.r_min[rows],
                        self.limit[rows], self.users[:, rows])

    def repair(self, dl: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both repairs; ``ul`` is read at the active users only."""
        return _repair_dl(dl, self.c, self.r_min), _repair_ul(ul, self.on)

    def value_and_grad(self, dl: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-user terms u_k - v_k, (N, K), whose row sum is the objective,
        and a supergradient of it; all three are 0 off ``on``.

        The user's and the eavesdropper's terms are one (2, N, K) pass of
        ``perspective_terms``, one logarithm per term.  Where tau_ul = 0 or
        a w / tau_ul overflows, a term's value and UL gradient are not
        finite, and the term is dropped (it is 0; where a w / tau_ul
        overflows, the closure's value would be below 6e-306 a w bits).

        There a term is 0, and its superdifferential is that of the
        perspective's closure: with w = 1 - tau_dl > 0 the limit
        (d/dtau_dl, d/dtau_ul) = (0, log2(a / aE)), inf where aE = 0; at the
        corner w = 0 every (-phi'(s), psi(s)), s >= 0.  Any choice
        certifies; to keep the gap tight on DL ties, a corner user takes
        that limit when log2(a / aE) is at most the row's largest UL
        gradient at a positive share (so it raises no UL vertex), else
        (-phi'(0), 0) = (-(a - aE) / ln2, 0).
        """
        on, limit = self.on, self.limit
        w = 1.0 - dl
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # (aE - a) / ln2 may overflow too
            value, g_dl, g_ul = (x[0] - x[1] for x in perspective_terms(self.pair, w, ul))
            share = on & np.isfinite(g_ul)
            zero = on & ~share
            lam = np.where(share, g_ul, -np.inf).max(axis=1, keepdims=True)
            corner = zero & (w <= 0.0) & (limit > lam)
            g_ul = np.where(share, g_ul, np.where(zero & ~corner, limit, 0.0))
            g_dl = np.where(share, g_dl, np.where(corner, (self.a_e - self.a) / LN2, 0.0))
        return np.where(share, value, 0.0), g_dl, g_ul

    def gap(self, dl: np.ndarray, ul: np.ndarray, g_dl: np.ndarray, g_ul: np.ndarray) -> np.ndarray:
        """Frank-Wolfe gap per row: the UL block's best vertex is 0 or one active user's e_k.

        Summed block by block: a corner user's DL gradient of -1e10 would
        swamp a UL gap of 1e-7 in one sum.  An infinite UL gradient (aE = 0)
        makes the gap inf; it is left out of g . x, where it would read nan.
        """
        ul_best = np.maximum(g_ul.max(axis=1), 0.0)
        ul_gap = ul_best - np.vecdot(np.where(np.isfinite(g_ul), g_ul, 0.0), ul)
        return ul_gap + (_dl_best(self.c, self.r_min, g_dl) - np.vecdot(g_dl, dl))


def _quotient(x: float, y: float) -> float:
    """x / y on floats, with numpy's +-inf or nan where y is 0 (Python raises there)."""
    if y:
        return x / y
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(x, y))


def _respond(users: list[list], lam: float, y_right: list) -> tuple[list, list, list, list]:
    """The active users' responses to the UL price ``lam`` (nats, > 0).

    ``users`` is the lists (a, rho = aE / a, y_max, start offset, 1 - rho)
    of their constants, a row of ``_Concave.users``.  Returns the lists
    (y, 1/s, q, d(1/s)/dlam), with q = phi'(s) in nats.  Newton's method
    solves F(y) = lam for F(y) = y - (1 + rho - e^-y - rho e^y) / (1 - rho),
    the nats form of psi in y = ln((1 + a s) / (1 + aE s)).  F is convex and
    increasing on [0, y_max], y_max = ln(1 / rho), and
    y - (1 - sqrt(rho)) / (1 + sqrt(rho)) <= F(y) <= y, so Newton starts
    right of the root and descends to it; ``y_right`` is the response at a
    larger price, or inf.  A free user is still moving while its step
    exceeds 1e-15 z and, once the step is at most 1e-12 z, is shorter than
    its previous step: with rho near 1, F is nearly flat at the root and
    the iterate swings there by rounding alone.  The loop stops once no
    free user moves, or after ``RESPONSE_STEPS`` steps.  Saturated users
    (lam >= y_max) get y = inf and 1/s = q = 0: their best share is 0.

    The arithmetic runs on Python floats, whose + - * / round as numpy's
    do; the exponentials are one ``np.expm1`` call on [z, -z] per step,
    since ``math.expm1`` differs from it in the last bit for some inputs.
    A division by 0 gives numpy's +-inf or nan (``_quotient``).
    """
    a, rho, y_max, offset, one_m_rho = users
    n = len(a)
    y, inv_s, q, d_inv_s = [math.inf] * n, [0.0] * n, [0.0] * n, [0.0] * n
    free = [k for k in range(n) if lam < y_max[k]]
    if not free:
        return y, inv_s, q, d_inv_s
    rho_f, omr_f = [rho[k] for k in free], [one_m_rho[k] for k in free]
    z = []
    for k in free:  # np.minimum of y_right, lam + offset and y_max: a nan wins
        zk, x = y_right[k], lam + offset[k]
        zk = zk if zk < x or zk != zk else x
        x = y_max[k]
        z.append(zk if zk < x or zk != zk else x)
    last = [math.inf] * len(z)
    for _ in range(RESPONSE_STEPS):
        e = np.expm1(np.array(z + [-x for x in z])).tolist()
        moving = False
        for i, (zi, e_p, e_m, r, omr) in enumerate(zip(z, e, e[len(z):], rho_f, omr_f)):
            num, slope = zi + (e_m + r * e_p) / omr - lam, (r * e_p - e_m) / omr
            step = num / slope if slope else _quotient(num, slope)
            z[i] = zi = zi - step
            size = abs(step)
            moving = moving or (size > 1e-15 * zi and (size > 1e-12 * zi or size < last[i]))
            last[i] = size
        if not moving:
            break
    e = np.expm1(np.array(z + [-x for x in z])).tolist()
    for k, zi, e_p, e_m, r, omr in zip(free, z, e, e[len(z):], rho_f, omr_f):
        ak = a[k]
        slope = (r * e_p - e_m) / omr
        share = omr - r * e_p                # 1 - rho e^y
        y[k] = zi
        inv_s[k] = _quotient(ak * share, e_p)
        q[k] = _quotient(ak * share * share, (1.0 + e_p) * omr)
        d_inv_s[k] = _quotient(-ak * (1.0 + e_p) * omr, e_p * e_p * slope)
    return y, inv_s, q, d_inv_s


def _extremes(tied: list, U: list) -> tuple[int, int]:
    """The tied vertices with the largest and the least U, the first on ties (U has no nan)."""
    big = small = tied[0]
    for v in tied[1:]:
        if U[v] > U[big]:
            big = v
        elif U[v] < U[small]:
            small = v
    return big, small


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

    The row's user constants come from ``prob.users`` as lists; the
    responses, the tie set, the bracket and the kink search run on Python
    floats.  numpy stays where its rounding is the answer: the costs
    ``v_on @ q`` and uses ``v_on @ (1/s)`` are gemv calls on the
    F-ordered ``v_on``, U adds user by user over the F-ordered shares,
    dU/dlambda and the closing budget step are numpy's 1-D (pairwise) sums,
    and every logarithm is ``np.log``.  A nan in a cost, a price or a U
    would order the ties differently in ``min``/``max`` than in numpy's
    reductions, so such a step takes its tie set from numpy.
    """
    on = prob.on[row]
    vertices = _dl_vertices(prob.c[row], float(prob.r_min[row]))
    v_on = vertices[:, on]
    out = np.zeros(on.size)
    if on.sum() == 1:
        # one active user: the whole UL frame, and the least of its DL time
        out[on] = 1.0
        return vertices[int(np.argmin(v_on[:, 0]))], out
    users = prob.users[:, row, on].tolist()
    rho, y_max = users[1], users[2]
    lo, hi = 0.0, y_max[rho.index(min(rho))]        # above hi every user is saturated
    lam = min(lam * LN2, LAM_MAX)
    if not 0.0 < lam < hi:
        lam = 0.5 * hi if math.isfinite(hi) else 1.0
    w_on = 1.0 - v_on                                # F-ordered, as v_on
    w_rows = w_on.tolist()
    y_right = [math.inf] * len(rho)
    # a, aE near the doubles' limits give inf or nan shares, which the
    # caller's keep-better test and certificate refuse
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_steps):
            y, inv_s, q, d_inv_s = _respond(users, lam, y_right)
            inv_s_arr = np.array(inv_s)
            cost = (v_on @ np.array(q)).tolist()
            used = (v_on @ inv_s_arr).tolist()       # -d cost / d lambda
            U = np.maximum(w_on * inv_s_arr, 0.0).sum(axis=1).tolist()
            limit = min(cost) + TIE_TOL * max(q)
            tied = [v for v, c_v in enumerate(cost) if c_v <= limit]
            if tied and not math.isnan(sum(cost) + sum(U) + sum(q)):
                big, small = _extremes(tied, U)
            else:  # a nan, or no vertex at the least cost: numpy's ties (and its error)
                cost_a, U_a = np.array(cost), np.array(U)
                tied = np.flatnonzero(cost_a <= cost_a.min() + TIE_TOL * np.array(q).max())
                big, small = int(tied[np.argmax(U_a[tied])]), int(tied[np.argmin(U_a[tied])])
            if U[big] >= 1.0 - BUDGET_TOL and U[small] <= 1.0 + BUDGET_TOL:
                break
            rising = U[small] > 1.0                  # every optimal vertex overspends: raise lambda
            if rising:
                lo, p = lam, small
            else:
                hi, p, y_right = lam, big, y
            w_p, U_p, cost_p, used_p = w_rows[p], U[p], cost[p], used[p]
            d_U = np.add.reduce(np.array([w * d for w, d, s in zip(w_p, d_inv_s, inv_s) if w * s > 0.0]))
            nxt = float(lam - np.log(U_p) * U_p / d_U)
            # cut at the first vertex ahead whose linearised cost meets cost_p
            if rising:
                for c_v, u_v in zip(cost, used):
                    if u_v > used_p:
                        cross = lam + (c_v - cost_p) / (u_v - used_p)
                        if lam < cross < nxt:
                            nxt = cross
            else:
                for c_v, u_v in zip(cost, used):
                    if u_v < used_p:
                        cross = lam + (c_v - cost_p) / (u_v - used_p)
                        if nxt < cross < lam:
                            nxt = cross
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lam
            nxt = min(nxt, LAM_MAX)
            if nxt == lam or not lo < nxt < hi:
                break
            lam = nxt
        if U[big] > U[small]:
            theta = min(1.0, max(0.0, (1.0 - U[small]) / (U[big] - U[small])))
        else:
            theta = 1.0
        dl = theta * vertices[big] + (1.0 - theta) * vertices[small]
        w = 1.0 - dl[on]
        ul, d_ul = w * np.array(inv_s), w * np.array(d_inv_s)
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


def _secrecy_problem(a, a_e, c, r_min) -> _Concave:
    """The secrecy objective, row by row, with the users a_k <= aE_k switched off."""
    # aE = 0, a = 0 and a subnormal a or aE give inf or nan, each of a switched-off
    # user or of an aE that reads as 0 (limit = inf), as aE = 0 does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = a_e / a
        y_max = -np.log(rho)
        root = np.sqrt(rho)
        limit = np.log2(a / a_e)
        users = np.array((a, rho, y_max, (1.0 - root) / (1.0 + root), 1.0 - rho))
    return _Concave(np.array((a, a_e)), a > a_e, c, r_min, limit, users)


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
    a call on that row alone returns, bit for bit.

    The users with a_k <= aE_k are switched off, and each start is put back
    on the polytope (switched-off users lose their uplink share, which never
    lowers the objective).  A start whose gap is at most ``epsilon`` is
    returned as it is, after 0 passes; for every other row the dual solve
    runs once, warm-started from the start's largest active UL gradient,
    and its point, put back on the polytope, replaces the start when its
    objective is at least as high, so no answer falls below its start.
    The returned fractions are the point whose objective, per-user terms
    and gap are returned, bit for bit.
    """
    prob = _secrecy_problem(a, a_e, rate_coeffs, r_min)
    dl, ul = prob.repair(tau_dl, tau_ul)
    terms, g_dl, g_ul = prob.value_and_grad(dl, ul)
    gap = prob.gap(dl, ul, g_dl, g_ul)
    passes = np.zeros(gap.size, dtype=np.int64)
    todo = np.flatnonzero(~(gap <= settings.epsilon))
    if todo.size:
        sub = prob.take(todo)
        lam = np.where(sub.on, g_ul[todo], -np.inf).max(axis=1)
        points = [_dual_solve(sub, i, float(lam[i]), settings.max_iterations) for i in range(todo.size)]
        n_dl, n_ul = sub.repair(np.array([p[0] for p in points]), np.array([p[1] for p in points]))
        terms_n, gn_dl, gn_ul = sub.value_and_grad(n_dl, n_ul)
        gap_n = sub.gap(n_dl, n_ul, gn_dl, gn_ul)
        # a nan share is dropped as a term and reads 0, but its gap reads nan
        better = (terms_n.sum(axis=1) >= terms[todo].sum(axis=1)) & ~np.isnan(gap_n)
        rows = todo[better]
        dl[rows], ul[rows], terms[rows], gap[rows] = n_dl[better], n_ul[better], terms_n[better], gap_n[better]
        passes[todo] = 1
    return RowSolutions(dl, ul, terms.sum(axis=1), terms, gap, passes, gap <= settings.epsilon)
