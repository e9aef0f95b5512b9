"""The numpy form of the dual kernel: ``_respond`` and ``_dual_solve`` as they
ran on numpy arrays before the kernel moved to Python floats.

``dc_solver``'s float kernel must give these bits exactly, nan and inf
included.  Same names, same arguments, except that ``_respond`` takes the
active users' a and rho = aE / a as arrays and the response at a larger
price as an array.
"""

import math

import numpy as np

from vlcrf.dc_solver import BUDGET_TOL, LAM_MAX, RESPONSE_STEPS, TIE_TOL, _Concave, _dl_vertices
from vlcrf.link_budget import LN2


def _respond(a: np.ndarray, rho: np.ndarray, lam: float, y_right: np.ndarray):
    """The active users' responses to the UL price ``lam`` (nats, > 0).

    ``a`` holds their SNR constants and ``rho`` = aE / a.  Returns
    (y, 1/s, q, d(1/s)/dlam), with q = phi'(s) in nats.  Newton's method
    solves F(y) = lam for F(y) = y - (1 + rho - e^-y - rho e^y) / (1 - rho),
    the nats form of psi in y = ln((1 + a s) / (1 + aE s)).  F is convex and
    increasing on [0, y_max], y_max = ln(1 / rho), and
    y - (1 - sqrt(rho)) / (1 + sqrt(rho)) <= F(y) <= y, so Newton starts
    right of the root and descends to it; ``y_right`` is the response at a
    larger price, or inf.  A user moves while its step exceeds 1e-15 z and,
    once the step is at most 1e-12 z, is shorter than its previous step.
    Saturated users (lam >= y_max) get y = inf and 1/s = q = 0: their best
    share is 0.
    """
    y = np.full(a.size, np.inf)
    inv_s, q, d_inv_s = np.zeros(a.size), np.zeros(a.size), np.zeros(a.size)
    with np.errstate(divide="ignore"):
        y_max = -np.log(rho)                 # inf where aE = 0: never saturated
    free = lam < y_max
    a, rho, root = a[free], rho[free], np.sqrt(rho[free])
    z = np.minimum(np.minimum(y_right[free], lam + (1.0 - root) / (1.0 + root)), y_max[free])
    last = np.full(z.size, np.inf)
    for _ in range(RESPONSE_STEPS):
        e_p, e_m = np.expm1(z), np.expm1(-z)
        slope = (rho * e_p - e_m) / (1.0 - rho)
        step = (z + (e_m + rho * e_p) / (1.0 - rho) - lam) / slope
        z = z - step
        size = np.abs(step)
        if not np.any((size > 1e-15 * z) & ((size > 1e-12 * z) | (size < last))):
            break
        last = size
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
    lam = min(lam * LN2, LAM_MAX)
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
