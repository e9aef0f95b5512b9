"""Brute-force grid oracle for validating solver output at K <= 2.

Exhaustively evaluates the secrecy objective on a feasibility-filtered
grid over the time-slot box, then refines locally around the incumbent.
The oracle is one-sided: it produces a certified feasible lower bound on
the optimum.

For K = 2 the objective is w1[k1, j1] + w2[k2, j2], one value table per
user over (downlink level, uplink level).  The levels ascend, and rounded
addition fl(x + y) does not decrease as y grows.  Two consequences reduce
the cross product of downlink and uplink pairs to one pass over the
(user-1 DL level, user-1 UL level) grid:

- The user-2 UL levels admitted next to level j1 (u1 + u2 <= 1, the same
  test on the same sums) form a prefix 0..m(j1).  With R2 the running
  maximum of w2 along the UL axis, the best of them is w1 + R2[k2, m(j1)].
- Both DL tests, d1 + d2 <= 1 and c0*d1 + c1*d2 >= r_min with c1 >= 0, are
  monotone in d2 in floating point, so the user-2 DL levels admitted next
  to level k1 form one run lo(k1)..hi(k1).  The best of them is
  w1[k1, j1] + RM(k1, j1), where RM is the maximum of R2[k2, m(j1)] over
  k2 in that run.

A maximum is exact and fl(x + .) is monotone, so both steps hold bit for
bit: the search returns the maximum of the full cross product.  RM comes
from a sparse table over the user-2 DL levels (the maxima of 2**l
consecutive levels; a run is covered by two overlapping windows).  It is
built one level at a time and each level answers its queries before the
next replaces it, so the extra memory stays O(|user-2 DL levels| x
|user-1 UL levels|), without a log factor.

Ties go to the lowest DL pair in row-major (k1, k2) order, then the lowest
user-1 UL level, then the lowest user-2 UL level: k1 is the first row that
reaches the maximum; that row's run is recomputed pair by pair and its
first maximum gives k2 and j1; j2 is the first prefix index whose
recomputed sum equals the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vlcrf.dc_solver import DcaResult, FeasibleSet, check_feasibility
from vlcrf.link_budget import LN2, Allocation, ScenarioChannels


@dataclass(frozen=True)
class GridSpec:
    resolution: int = 256        # points per axis per round
    refine_rounds: int = 3       # local refinement passes after the global pass
    refine_shrink: float = 0.2   # window shrink factor per round

    def __post_init__(self):
        # a float or bool count would pass the range checks and fail inside the search
        for name, least in (("resolution", 16), ("refine_rounds", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError("refine_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class OracleComparison:
    passed: bool
    gap: float
    dca_objective: float
    oracle_objective: float
    rel_tol: float


def _pair_table(a: float, a_e: float, dl_levels: np.ndarray, ul_levels: np.ndarray) -> np.ndarray:
    """Per-user objective table over (dl level, ul level), tau_ul = 0 extended."""
    leftover = 1.0 - dl_levels[:, None]
    t = ul_levels[None, :]
    safe_t = np.where(t > 0.0, t, 1.0)
    u = np.where(t > 0.0, t * np.log1p(a * leftover / safe_t) / LN2, 0.0)
    v = np.where(t > 0.0, t * np.log1p(a_e * leftover / safe_t) / LN2, 0.0)
    return u - v


def _levels(lo: float, hi: float, n: int, extra=()) -> np.ndarray:
    pts = np.linspace(lo, hi, n)
    extras = [e for e in extra if lo <= e <= hi]
    if extras:
        pts = np.unique(np.concatenate([pts, np.array(extras)]))
    return pts


def _search_k1(s, fs, spec, windows):
    a = float(s.a_user()[0])
    a_e = float(s.a_eve()[0])
    c = float(fs.rate_coeffs[0])
    (dlo, dhi), (ulo, uhi) = windows
    boundary = (fs.r_min / c,) if (fs.r_min > 0.0 and c > 0.0) else ()
    dl = _levels(dlo, dhi, spec.resolution, boundary)
    ul = _levels(ulo, uhi, spec.resolution)
    if fs.r_min > 0.0:
        dl = dl[c * dl >= fs.r_min]
    if dl.size == 0 or ul.size == 0:
        return None
    table = _pair_table(a, a_e, dl, ul)
    i, j = np.unravel_index(np.argmax(table), table.shape)
    return float(table[i, j]), (float(dl[i]),), (float(ul[j]),)


def _dl_feasible(c, r_min, d1, d2):
    """(|d1|, |d2|) mask of the DL level pairs inside the DL budget and the rate target."""
    return (d1[:, None] + d2[None, :] <= 1.0) & (c[0] * d1[:, None] + c[1] * d2[None, :] >= r_min)


def _range_max(table, lo, span):
    """Row i: the maximum of ``table[lo[i] : lo[i] + span[i]]`` along axis 0.

    A sparse table built one level at a time: level l holds the maxima of
    2**l consecutive rows, and the queries with 2**l <= span < 2**(l + 1)
    take the larger of its two overlapping windows before level l + 1
    replaces it.  Every span is >= 1.
    """
    out = np.empty((lo.size, table.shape[1]))
    level = np.frexp(span)[1] - 1  # floor(log2(span)), exact for integers
    level_max = table
    for lvl in range(int(level.max()) + 1):
        if lvl:
            half = 1 << (lvl - 1)
            level_max = np.maximum(level_max[:-half], level_max[half:])
        sel = np.flatnonzero(level == lvl)
        if sel.size:
            end = lo[sel] + span[sel] - (1 << lvl)
            out[sel] = np.maximum(level_max[lo[sel]], level_max[end])
    return out


def _search_k2(s, fs, spec, windows):
    a = s.a_user()
    a_e = s.a_eve()
    c = np.asarray(fs.rate_coeffs, dtype=np.float64)
    (d1lo, d1hi), (d2lo, d2hi), (u1lo, u1hi), (u2lo, u2hi) = windows
    d1 = _levels(d1lo, d1hi, spec.resolution)
    d2 = _levels(d2lo, d2hi, spec.resolution)
    if fs.r_min > 0.0:
        # put the exact rate boundary in the candidate set along each axis
        if c[1] > 0.0:
            cand = (fs.r_min - c[0] * d1) / c[1]
            d2 = np.unique(np.concatenate([d2, cand[(cand >= d2lo) & (cand <= d2hi)]]))
        if c[0] > 0.0:
            cand = (fs.r_min - c[1] * d2) / c[0]
            d1 = np.unique(np.concatenate([d1, cand[(cand >= d1lo) & (cand <= d1hi)]]))
    u1 = _levels(u1lo, u1hi, spec.resolution)
    u2 = _levels(u2lo, u2hi, spec.resolution)

    # the admitted user-2 DL levels of user-1 level k1 form one run lo..lo+span-1
    ok = _dl_feasible(c, fs.r_min, d1, d2)
    span = np.count_nonzero(ok, axis=1)
    rows = np.flatnonzero(span)
    if rows.size == 0:
        return None
    lo = np.argmax(ok[rows], axis=1)
    span = span[rows]
    # the admitted user-2 UL levels of user-1 level j1 form a prefix 0..m[j1]
    m = np.count_nonzero(u1[:, None] + u2[None, :] <= 1.0, axis=1) - 1
    js = np.flatnonzero(m >= 0)
    if js.size == 0:
        return None

    w1 = _pair_table(float(a[0]), float(a_e[0]), d1, u1)
    w2 = _pair_table(float(a[1]), float(a_e[1]), d2, u2)
    # user 1 at UL level js[q] plus the best admitted user-2 UL level
    left = w1[:, js]
    right = np.maximum.accumulate(w2, axis=1)[:, m[js]]
    row_best = left[rows] + _range_max(right, lo, span)
    r, q = np.unravel_index(np.argmax(row_best), row_best.shape)
    best = float(row_best[r, q])
    # the first DL row holding the maximum; its run, redone pair by pair,
    # gives the lowest user-2 DL level and then the lowest user-1 UL level
    k1 = rows[r]
    block = left[k1] + right[lo[r] : lo[r] + span[r]]
    p, q = np.unravel_index(np.argmax(block), block.shape)
    k2, j1 = lo[r] + p, js[q]
    # first user-2 UL level reaching the maximum; the sum is recomputed because
    # rounding can lift w1 + w2[j2] to best while w2[j2] is below the prefix max
    j2 = int(np.argmax(w1[k1, j1] + w2[k2, : m[j1] + 1] == best))
    dl = (float(d1[k1]), float(d2[k2]))
    ul = (float(u1[j1]), float(u2[j2]))
    return best, dl, ul


def grid_search(s: ScenarioChannels, fs: FeasibleSet, spec: GridSpec = GridSpec()):
    """Best feasible grid point, refined locally; returns (Allocation, objective).

    Supports K in {1, 2}: the search space is the raw polytope (uplink
    fractions may be exactly 0 through the continuous objective extension),
    so the oracle value is a true lower bound on the optimum.
    """
    if s.K > 2:
        raise ValueError("grid oracle supports K <= 2 only")
    if fs.K != s.K:
        raise ValueError("feasible set and scenario disagree on the user count")
    if not check_feasibility(fs):
        raise ValueError("rate target is infeasible; nothing to search")

    search = _search_k1 if s.K == 1 else _search_k2
    windows = [(0.0, 1.0)] * (2 * s.K)
    best_val = None
    best_dl = best_ul = None
    width = 1.0
    for round_idx in range(spec.refine_rounds + 1):
        found = search(s, fs, spec, windows)
        if found is not None:
            val, dl, ul = found
            if best_val is None or val > best_val:
                best_val, best_dl, best_ul = val, dl, ul
        if best_val is None:
            raise RuntimeError("no feasible grid point found despite feasible target")
        width *= spec.refine_shrink
        center = list(best_dl) + list(best_ul)
        windows = [
            (max(0.0, cen - width / 2.0), min(1.0, cen + width / 2.0)) for cen in center
        ]
    alloc = Allocation(np.array(best_dl), np.array(best_ul))
    return alloc, best_val


def compare(dca: DcaResult, oracle_objective: float, rel_tol: float = 1e-3) -> OracleComparison:
    """One-sided check: the solver may beat the grid but not trail it.

    Passes iff dca.objective >= oracle - rel_tol * max(1, |oracle|); the
    reported gap is oracle - dca (positive when the solver trails).
    """
    gap = oracle_objective - dca.objective
    slack = rel_tol * max(1.0, abs(oracle_objective))
    return OracleComparison(
        passed=bool(dca.objective >= oracle_objective - slack),
        gap=float(gap),
        dca_objective=float(dca.objective),
        oracle_objective=float(oracle_objective),
        rel_tol=float(rel_tol),
    )
