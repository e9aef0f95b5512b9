"""Three steps of the K = 2 grid oracle in the forms they had before the rework.

``pair_table`` is ``reference_oracle._pair_table`` as it masked the
tau_ul = 0 columns with ``np.where`` over the full table, ``levels`` is
``_levels`` as it called ``np.linspace``, and ``run_max`` is the window
step as it sent every column through the sparse table of ``_range_max``.
The reworked forms must give these bits exactly.
"""

import numpy as np

from vlcrf.link_budget import LN2


def pair_table(a: float, a_e: float, dl_levels: np.ndarray, ul_levels: np.ndarray) -> np.ndarray:
    """Per-user objective table over (dl level, ul level), tau_ul = 0 extended."""
    leftover = 1.0 - dl_levels[:, None]
    t = ul_levels[None, :]
    safe_t = np.where(t > 0.0, t, 1.0)
    u = np.where(t > 0.0, t * np.log1p(a * leftover / safe_t) / LN2, 0.0)
    v = np.where(t > 0.0, t * np.log1p(a_e * leftover / safe_t) / LN2, 0.0)
    return u - v


def levels(lo: float, hi: float, n: int, extra=()) -> np.ndarray:
    pts = np.linspace(lo, hi, n)
    extras = [e for e in extra if lo <= e <= hi]
    if extras:
        pts = np.unique(np.concatenate([pts, np.array(extras)]))
    return pts


def run_max(table, lo, span):
    """Row i: the maximum of ``table[lo[i] : lo[i] + span[i]]`` along axis 0, by a sparse table."""
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
