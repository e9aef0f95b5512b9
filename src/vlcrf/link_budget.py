"""Rates, secrecy capacity and their derivatives.

Per user k the uplink secrecy contribution is a difference of two
perspective terms

    u_k = tau_ul * log2(1 + a_k (1 - tau_dl) / tau_ul)
    v_k = tau_ul * log2(1 + aE_k (1 - tau_dl) / tau_ul)

with a_k = eta I_D^2 g_k^2 h_k^2 / sigma_ul^2 and aE_k the analogous
eavesdropper constant.  Both terms are concave with rank-one Hessians and
extend continuously to 0 at tau_ul = 0.  Rates are in bits (log base 2).
``perspective_terms`` states a term and its partials once, for the solver's
certificate kernel, whose per-user terms are every reported secrecy value.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def snr_constants(eta: float, i_d: float, g: np.ndarray, h: np.ndarray, sigma2) -> np.ndarray:
    """eta I_D^2 g^2 h^2 / sigma2, elementwise on arrays of any shape.

    The SNR constants a (with the access point's amplitudes h and the user
    uplink noise) and aE (the eavesdropper's) of a block of (N, K)
    scenarios.
    """
    return eta * i_d**2 * g**2 * h**2 / sigma2


def rate_coefficients(p_led: float, g: np.ndarray, sigma2_dl) -> np.ndarray:
    """Per-user DL spectral efficiency c, bits/s/Hz of allocated slot, elementwise on gains of any shape.

    c = log2(1 + (e / 2 pi) P_LED g^2 / sigma_dl^2); the (e / 2 pi) factor
    is the standard intensity-modulation capacity lower bound.  The DL sum
    rate of an allocation is then the linear form sum(tau_dl * c).
    """
    snr = (math.e / (2.0 * math.pi)) * p_led * g**2 / sigma2_dl
    return np.log1p(snr) / LN2


# ---------------------------------------------------------------------------
# the perspective-term kernel: ``perspective_terms`` is its one statement,
# read by the solver's certificate kernel
# ---------------------------------------------------------------------------

def perspective_terms(a, leftover, tau_ul):
    """(value, d/dtau_dl, d/dtau_ul) of the perspective term, one log1p per entry.

    With w = leftover = 1 - tau_dl and t = tau_ul:

        value     = t log2(1 + a w / t)
        d/dtau_dl = -a t / (ln2 (t + a w))
        d/dtau_ul = log2(1 + a w / t) - a w / (ln2 (t + a w))

    No closure: the value and d/dtau_ul are not finite at t = 0 and where
    a w / t overflows, the signal on which the solver's certificate kernel
    (``dc_solver._Concave.value_and_grad``) drops a term.  Scalars or
    broadcastable arrays; no warnings.
    """
    t = np.asarray(tau_ul, dtype=np.float64)
    prod = a * leftover
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_term = np.log1p(prod / t)
        scaled = LN2 * (t + prod)
        return t * log_term / LN2, -a * t / scaled, log_term / LN2 - prod / scaled
