"""Brute-force grid oracle for validating solver output at K <= 2.

Exhaustively evaluates the secrecy objective on a feasibility-filtered
grid over the time-slot box, then refines locally around the incumbent.
The oracle is one-sided: it produces a certified feasible lower bound on
the optimum.  It takes one problem as a row, the users' and the
eavesdropper's SNR constants, the rate coefficients and r_min, and shares
no code with the solver; ``compare`` checks a solver objective against it.

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
bit: the search returns the maximum of the full cross product.  RM is read
off the run ends where it can: a column of R2[:, m(j1)] that never rises
along the user-2 DL axis has each run's maximum in the run's first row, one
that never falls in its last row.  In fig4's two-user scenarios every
column is monotone (a user's value falls with its DL level where a > aE and
rises where a < aE).  The other columns (mixed steps or nan) fall back
to a sparse table over the user-2 DL levels (the maxima of 2**l consecutive
levels; a run is covered by two overlapping windows).  It is built one
level at a time and each level answers its queries before the next
replaces it, so the extra memory stays O(|user-2 DL levels| x |user-1 UL
levels|), without a log factor.

The levels of a window are np.linspace's, built by its own arithmetic
(k * step + lo, the last level set to hi) without its per-call overhead;
the value tables are filled in place, and user 1's only on the DL levels
that admit a user-2 level and the UL levels that admit one.

Ties go to the lowest DL pair in row-major (k1, k2) order, then the lowest
user-1 UL level, then the lowest user-2 UL level: k1 is the first row that
reaches the maximum; that row's run is recomputed pair by pair and its
first maximum gives k2 and j1; j2 is the first prefix index whose
recomputed sum equals the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vlcrf.link_budget import LN2


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
    shared = ul_levels > 0.0
    safe_t = np.where(shared, ul_levels, 1.0)
    u = a * leftover / safe_t
    v = a_e * leftover / safe_t
    for x in (u, v):  # t * log1p(x) / ln 2, in place
        np.log1p(x, out=x)
        x *= ul_levels
        x /= LN2
    u -= v
    u[:, ~shared] = 0.0
    return u


def _levels(lo: float, hi: float, n: int, extra=None) -> np.ndarray:
    """np.linspace(lo, hi, n) by its own arithmetic, ``_merged`` with the ``extra`` points if given."""
    delta = hi - lo
    step = delta / (n - 1)
    pts = np.arange(n, dtype=np.float64)
    if step == 0.0:  # a zero or subnormal width: linspace divides first, then scales
        pts /= n - 1
        pts *= delta
    else:
        pts *= step
    pts += lo
    pts[-1] = hi
    return pts if extra is None else _merged(pts, extra, lo, hi)


def _merged(levels: np.ndarray, cand, lo: float, hi: float) -> np.ndarray:
    """The ``levels`` and the candidate points inside [lo, hi], ascending, each value once."""
    cand = np.asarray(cand, dtype=np.float64)
    return np.unique(np.concatenate([levels, cand[(cand >= lo) & (cand <= hi)]]))


def _search_k1(a, a_e, c, r_min, spec, windows):
    (dlo, dhi), (ulo, uhi) = windows
    boundary = (r_min / c[0],) if (r_min > 0.0 and c[0] > 0.0) else None
    dl = _levels(dlo, dhi, spec.resolution, boundary)
    ul = _levels(ulo, uhi, spec.resolution)
    if r_min > 0.0:
        dl = dl[c[0] * dl >= r_min]
    if dl.size == 0 or ul.size == 0:
        return None
    table = _pair_table(a[0], a_e[0], dl, ul)
    i, j = divmod(int(np.argmax(table)), table.shape[1])
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


def _run_max(table, lo, span):
    """``_range_max(table, lo, span)``, read off the run ends where a column is monotone.

    A column that never rises along axis 0 has each run's maximum in the
    run's first row, one that never falls in its last row; the others (mixed
    steps or nan) go through ``_range_max``.  The tables hold no -0.0, so a
    run's first or last row is its maximum bit for bit.
    """
    falls = np.all(table[1:] <= table[:-1], axis=0)
    if falls.all():
        return table[lo]
    rises = np.all(table[1:] >= table[:-1], axis=0)
    out = np.where(falls, table[lo], table[lo + span - 1])
    rest = np.flatnonzero(~(falls | rises))
    if rest.size:
        out[:, rest] = _range_max(table[:, rest], lo, span)
    return out


def _search_k2(a, a_e, c, r_min, spec, windows):
    (d1lo, d1hi), (d2lo, d2hi), (u1lo, u1hi), (u2lo, u2hi) = windows
    d1 = _levels(d1lo, d1hi, spec.resolution)
    d2 = _levels(d2lo, d2hi, spec.resolution)
    if r_min > 0.0:
        # put the exact rate boundary in the candidate set along each axis
        if c[1] > 0.0:
            d2 = _merged(d2, (r_min - c[0] * d1) / c[1], d2lo, d2hi)
        if c[0] > 0.0:
            d1 = _merged(d1, (r_min - c[1] * d2) / c[0], d1lo, d1hi)
    u1 = _levels(u1lo, u1hi, spec.resolution)
    u2 = _levels(u2lo, u2hi, spec.resolution)

    # the admitted user-2 DL levels of user-1 level k1 form one run lo..lo+span-1
    ok = _dl_feasible(c, r_min, d1, d2)
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

    # user 1 at DL level rows[r] and UL level js[q] plus the best admitted user-2 UL level
    left = _pair_table(a[0], a_e[0], d1[rows], u1[js])
    w2 = _pair_table(a[1], a_e[1], d2, u2)
    # np.take keeps the gather C-ordered, so its rows read contiguously below
    right = np.take(np.maximum.accumulate(w2, axis=1), m[js], axis=1)
    row_best = left + _run_max(right, lo, span)
    r, q = divmod(int(np.argmax(row_best)), js.size)
    best = float(row_best[r, q])
    # the first DL row holding the maximum; its run, redone pair by pair,
    # gives the lowest user-2 DL level and then the lowest user-1 UL level
    block = left[r] + right[lo[r] : lo[r] + span[r]]
    p, q = divmod(int(np.argmax(block)), js.size)
    k1, k2, j1 = rows[r], lo[r] + p, js[q]
    # first user-2 UL level reaching the maximum; the sum is recomputed because
    # rounding can lift w1 + w2[j2] to best while w2[j2] is below the prefix max
    j2 = int(np.argmax(left[r, q] + w2[k2, : m[j1] + 1] == best))
    dl = (float(d1[k1]), float(d2[k2]))
    ul = (float(u1[j1]), float(u2[j2]))
    return best, dl, ul


def grid_search(a, a_e, rate_coeffs, r_min: float, spec: GridSpec = GridSpec()):
    """Best feasible grid point of one problem, refined locally; returns (tau_dl, tau_ul, objective).

    ``a``, ``a_e`` (the users' and the eavesdropper's SNR constants) and
    ``rate_coeffs`` hold one entry per user, K in {1, 2}.  The search space
    is the raw polytope (uplink fractions may be exactly 0 through the
    continuous objective extension), so the oracle value is a true lower
    bound on the optimum.
    """
    a = np.asarray(a, dtype=np.float64).tolist()
    a_e = np.asarray(a_e, dtype=np.float64).tolist()
    c = np.asarray(rate_coeffs, dtype=np.float64)
    k = len(a)
    if not 1 <= k <= 2:
        raise ValueError("grid oracle supports K <= 2 only")
    if not len(a_e) == c.shape[0] == k:
        raise ValueError("the SNR constants and rate coefficients disagree on the user count")
    if not r_min <= float(np.max(c)):
        raise ValueError("rate target is infeasible; nothing to search")

    search = _search_k1 if k == 1 else _search_k2
    windows = [(0.0, 1.0)] * (2 * k)
    best_val = None
    best_dl = best_ul = None
    width = 1.0
    for round_idx in range(spec.refine_rounds + 1):
        found = search(a, a_e, c, r_min, spec, windows)
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
    return np.array(best_dl), np.array(best_ul), best_val


def compare(objective: float, oracle_objective: float, rel_tol: float = 1e-3) -> OracleComparison:
    """One-sided check of a solver ``objective``: the solver may beat the grid but not trail it.

    Passes iff objective >= oracle - rel_tol * max(1, |oracle|); the
    reported gap is oracle - objective (positive when the solver trails).
    """
    gap = oracle_objective - objective
    slack = rel_tol * max(1.0, abs(oracle_objective))
    return OracleComparison(
        passed=bool(objective >= oracle_objective - slack),
        gap=float(gap),
        dca_objective=float(objective),
        oracle_objective=float(oracle_objective),
        rel_tol=float(rel_tol),
    )
