"""Two steps of the sweep in the forms they had before they were fused.

``chain_csv`` is ``experiment._chain_csv`` as it went through
``csv.writer``, and ``value_and_grad`` is ``dc_solver._Concave.value_and_grad``
as it called ``perspective_value`` (now ``model_reference``'s) and
``perspective_grads`` (the partials of ``perspective_terms``) once per term,
each taking log1p(a w / tau_ul) on its own.  The fused forms must give
these bytes and bits exactly.  Both kernels now read
``link_budget.perspective_terms``; ``model_reference`` keeps the expressions
it replaced, and ``test_link_budget`` compares them.
"""

import csv
import io
from itertools import repeat

import numpy as np

from vlcrf.dc_solver import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITERATIONS
from vlcrf.experiment import _fmt
from model_reference import perspective_value
from vlcrf.link_budget import LN2, perspective_terms


def chain_csv(label, users: int, trials, chain, idx: int) -> str:
    """CSV text (``ROW_COLUMNS``) of target ``idx``'s rows, in trial order, by ``csv.writer``."""
    ok = chain.feasible[idx].tolist()

    def floats(values: np.ndarray) -> list[str]:
        return [repr(v) if f else "" for v, f in zip(values.tolist(), ok)]

    def packed(taus: np.ndarray) -> list[str]:
        return [",".join(map(repr, row)) if f else "" for row, f in zip(taus.tolist(), ok)]

    status = [
        (STATUS_CONVERGED if conv else STATUS_MAX_ITERATIONS) if f else STATUS_INFEASIBLE
        for conv, f in zip(chain.converged[idx].tolist(), ok)
    ]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(
        repeat(_fmt(label)), repeat(str(users)), map(str, trials), map(repr, chain.r_min[idx].tolist()),
        floats(chain.objective[idx]), floats(chain.clamped[idx]), floats(chain.dl_rate[idx]),
        packed(chain.tau_dl[idx]), packed(chain.tau_ul[idx]),
        map(str, chain.iterations[idx].tolist()), status,
    ))
    return buf.getvalue()


def same_bits(got, want) -> bool:
    """== with nan matching nan in the same place and each zero keeping its sign."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def value_and_grad(prob, dl: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user terms of the ``_Concave`` ``prob`` and a supergradient of their sum, 0 off ``on``."""
    on, a, a_e = prob.on, prob.a, prob.a_e
    w = 1.0 - dl
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = perspective_value(a, w, ul) - perspective_value(a_e, w, ul)
        _, du_dl, du_ul = perspective_terms(a, w, ul)
        _, dv_dl, dv_ul = perspective_terms(a_e, w, ul)
        g_dl, g_ul = du_dl - dv_dl, du_ul - dv_ul
        limit = np.log2(a / a_e)  # inf where aE = 0
    zero = on & ~np.isfinite(g_ul)
    share = on & ~zero
    lam = np.where(share, g_ul, -np.inf).max(axis=1, keepdims=True)
    corner = zero & (w <= 0.0) & (limit > lam)
    g_ul = np.where(share, g_ul, np.where(zero & ~corner, limit, 0.0))
    g_dl = np.where(share, g_dl, np.where(corner, (a_e - a) / LN2, 0.0))
    return np.where(share, value, 0.0), g_dl, g_ul
