"""An independent upper bound on the secrecy optimum, for tests.

It shares no code with ``vlcrf.dc_solver``.  The problem, per user k with
w_k = 1 - tau_dl_k, t_k = tau_ul_k and phi_k(s) = log2((1 + a_k s) / (1 + aE_k s)):

    max sum_k t_k phi_k(w_k / t_k)
    over tau_dl >= 0, sum(tau_dl) <= 1, c . tau_dl >= r_min, t >= 0, sum(t) <= 1.

Dualising the UL budget with lambda >= 0 (Boyd & Vandenberghe, sections 5.2
and 5.5) gives

    D(lambda) = lambda + max_{tau_dl} sum_k w_k q_k(lambda),
    q_k(lambda) = max(0, sup_{s > 0} (phi_k(s) - lambda) / s),

since t_k = w_k / s.  Weak duality gives f* <= D(lambda) for every
lambda >= 0, and as the constraints are linear, min D = f*.  A user with
a_k <= aE_k has q_k = 0: its best share is 0, as the solver's switched-off
users get.

* q_k: (phi(s) - lambda) / s rises while psi(s) = phi(s) - s phi'(s) is below
  lambda and falls after, so the best point of a grid in ln s brackets its
  maximum and a golden-section search in ln s finds it.
* The DL block: with q >= 0, sum_k q_k (1 - v_k) is largest at a vertex of
  the DL polytope.  The vertices are found by brute force over every choice
  of K tight constraints among the K + 2 (the tight faces v_k = 0 fix their
  coordinates; the budget and rate faces among them leave a system of at
  most two unknowns), solved in exact rationals, so that 1 - v_k is exact
  before it is rounded once: a vertex coordinate left at 1 - 1e-16 times
  q ~ 1e8 would add 1e-8 bits to D.
* lambda: D is convex, so a golden-section search finds its minimum on
  [0, hi], hi = max_k phi_k(K) over the users with a_k > aE_k.  At the
  optimum every user with t_k > 0 has psi_k(w_k / t_k) = lambda*, and
  either the UL budget is full, so some t_k >= 1 / K and
  lambda* <= psi_k(K) <= phi_k(K), or lambda* = 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LOG_S = 80            # q's search runs over s in [e^-80, e^80], first on a grid of step 1
Q_STEPS = 45          # golden steps in ln s: a bracket of width 2 shrinks to 8e-10
LAMBDA_STEPS = 70     # golden steps in lambda: [0, hi] shrinks by 2e-15


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The solution of a square rational system, or None when it is singular."""
    n = len(rows)
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def dl_leftovers(c, r_min: float) -> np.ndarray:
    """1 - v for every vertex v of {v >= 0, sum(v) <= 1, c . v >= r_min}, one per row.

    Each entry is computed exactly and rounded once.
    """
    K = len(c)
    cf = [Fraction(float(x)) for x in c]
    rf = Fraction(float(r_min))
    budget, rate = ([Fraction(1)] * K, Fraction(1)), (cf, rf)
    found = set()
    for faces in ([], [budget], [rate], [budget, rate]):
        # K - len(faces) coordinates at 0; the rest solve the tight budget and rate faces
        for free in itertools.combinations(range(K), len(faces)):
            part = _solve_exact([[row[i] for i in free] for row, _ in faces], [b for _, b in faces])
            if part is None:
                continue
            v = [Fraction(0)] * K
            for i, x in zip(free, part):
                v[i] = x
            if min(v) >= 0 and sum(v) <= 1 and sum(x * y for x, y in zip(cf, v)) >= rf:
                found.add(tuple(v))
    return np.array([[float(1 - x) for x in v] for v in sorted(found)])


def _phi(a: np.ndarray, a_e: np.ndarray, s: np.ndarray) -> np.ndarray:
    return (np.log1p(a * s) - np.log1p(a_e * s)) / math.log(2.0)


def user_prices(a: np.ndarray, a_e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """q_k(lambda) for (P, K) users and (P,) prices: a grid in ln s, then a golden-section search."""

    def h(x):
        s = np.exp(x)
        return (_phi(a[..., None], a_e[..., None], s) - lam[:, None, None]) / s

    grid = np.arange(-LOG_S, LOG_S + 1, dtype=np.float64)
    best = grid[np.argmax(h(np.broadcast_to(grid, a.shape + grid.shape)), axis=-1)]
    lo, hi = best - 1.0, best + 1.0
    for _ in range(Q_STEPS):
        x = np.stack([hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)], axis=-1)
        value = h(x)
        left = value[..., 0] >= value[..., 1]
        hi = np.where(left, x[..., 1], hi)
        lo = np.where(left, lo, x[..., 0])
    return np.maximum(0.0, h(np.stack([lo, hi], axis=-1)).max(axis=-1))


def dual_probes(problems) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, D(lambda)), each (P, probes), at every lambda a golden-section search for min D probes.

    ``problems`` holds P tuples (a, a_e, c, r_min) with 1-D arrays of any
    length K <= 8; the searches run side by side.  Shorter problems are
    padded with users of a = aE = 0, whose q is 0.
    """
    P, K = len(problems), max(len(p[0]) for p in problems)
    a, a_e = np.zeros((P, K)), np.zeros((P, K))
    parts = []
    for i, (a_i, a_e_i, c, r_min) in enumerate(problems):
        a[i, : len(a_i)], a_e[i, : len(a_i)] = a_i, a_e_i
        parts.append(dl_leftovers(c, r_min))
    leftovers = np.ones((P, max(w.shape[0] for w in parts), K))
    for i, w in enumerate(parts):
        leftovers[i, :, : w.shape[1]] = w[np.minimum(np.arange(leftovers.shape[1]), w.shape[0] - 1)]

    def dual(lam):
        q = user_prices(a, a_e, lam)
        return lam + (q[:, None, :] * leftovers).sum(axis=-1).max(axis=-1)

    # hi = max_k phi_k(K) over the active users, 0 where there is none
    lo = np.zeros(P)
    hi = np.where(a > a_e, _phi(a, a_e, np.float64(K)), 0.0).max(axis=1)
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    d1, d2 = dual(x1), dual(x2)
    lams, values = [lo, hi, x1, x2], [dual(lo), dual(hi), d1, d2]
    for _ in range(LAMBDA_STEPS):
        left = d1 <= d2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x1, x2 = np.where(left, hi - GOLDEN * (hi - lo), x2), np.where(left, x1, lo + GOLDEN * (hi - lo))
        new = np.where(left, x1, x2)
        d_new = dual(new)
        d1, d2 = np.where(left, d_new, d2), np.where(left, d1, d_new)
        lams.append(new)
        values.append(d_new)
    return np.stack(lams, axis=1), np.stack(values, axis=1)
