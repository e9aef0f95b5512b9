"""Rates, secrecy capacity and their derivatives.

Per user k the uplink secrecy contribution is a difference of two
perspective terms

    u_k = tau_ul * log2(1 + a_k (1 - tau_dl) / tau_ul)
    v_k = tau_ul * log2(1 + aE_k (1 - tau_dl) / tau_ul)

with a_k = eta I_D^2 g_k^2 h_k^2 / sigma_ul^2 and aE_k the analogous
eavesdropper constant.  Both terms are concave with rank-one Hessians and
extend continuously to 0 at tau_ul = 0.  Rates are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

SUM_SLACK = 1e-9  # accepted slack on the two unit time budgets


def _readonly_array(values, name: str, length: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScenarioChannels:
    """Frozen per-scenario channel state.

    g:         per-user VLC downlink channel gain (unitless, >= 0)
    h:         per-user uplink amplitude at the access point (>= 0)
    h_e:       per-user uplink amplitude at the eavesdropper (>= 0)
    sigma2_dl: per-user downlink noise power, W
    sigma2_ul: per-user uplink noise power, W
    sigma2_e:  eavesdropper uplink noise power, W
    eta:       optical-to-electrical harvesting efficiency
    i_d:       LED drive DC offset, A
    p_led:     LED emitted power, W
    """

    g: np.ndarray
    h: np.ndarray
    h_e: np.ndarray
    sigma2_dl: np.ndarray
    sigma2_ul: np.ndarray
    sigma2_e: float
    eta: float
    i_d: float
    p_led: float

    def __post_init__(self):
        g = _readonly_array(self.g, "g")
        k = g.shape[0]
        if k < 1:
            raise ValueError("ScenarioChannels needs at least one user")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", _readonly_array(self.h, "h", k))
        object.__setattr__(self, "h_e", _readonly_array(self.h_e, "h_e", k))
        object.__setattr__(self, "sigma2_dl", _readonly_array(self.sigma2_dl, "sigma2_dl", k))
        object.__setattr__(self, "sigma2_ul", _readonly_array(self.sigma2_ul, "sigma2_ul", k))
        for name in ("g", "h", "h_e"):
            if np.any(getattr(self, name) < 0) or not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"ScenarioChannels.{name} entries must be finite and >= 0")
        for name in ("sigma2_dl", "sigma2_ul"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value) & (value > 0)):
                raise ValueError(f"ScenarioChannels.{name} entries must be finite and > 0")
        for name in ("sigma2_e", "eta", "i_d", "p_led"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"ScenarioChannels.{name} must be finite and > 0")

    @property
    def K(self) -> int:
        return self.g.shape[0]

    def a_user(self) -> np.ndarray:
        """Per-user uplink SNR constant a_k = eta I_D^2 g_k^2 h_k^2 / sigma_ul^2."""
        return snr_constants(self.eta, self.i_d, self.g, self.h, self.sigma2_ul)

    def a_eve(self) -> np.ndarray:
        """Eavesdropper SNR constant with the eavesdropper noise power."""
        return snr_constants(self.eta, self.i_d, self.g, self.h_e, self.sigma2_e)


def snr_constants(eta: float, i_d: float, g: np.ndarray, h: np.ndarray, sigma2) -> np.ndarray:
    """eta I_D^2 g^2 h^2 / sigma2, elementwise on arrays of any shape.

    ``ScenarioChannels.a_user``/``a_eve`` of one scenario, or of a block
    of (N, K) scenarios with the same bits per entry.
    """
    return eta * i_d**2 * g**2 * h**2 / sigma2


@dataclass(frozen=True)
class Allocation:
    """Per-user downlink / uplink slot fractions of a unit TDMA frame."""

    tau_dl: np.ndarray
    tau_ul: np.ndarray

    def __post_init__(self):
        dl = _readonly_array(self.tau_dl, "tau_dl")
        ul = _readonly_array(self.tau_ul, "tau_ul", dl.shape[0])
        object.__setattr__(self, "tau_dl", dl)
        object.__setattr__(self, "tau_ul", ul)
        check_fractions(dl[None], ul[None])

    @property
    def K(self) -> int:
        return self.tau_dl.shape[0]


def check_fractions(tau_dl: np.ndarray, tau_ul: np.ndarray) -> None:
    """``Allocation``'s checks on rows of slot fractions, (N, K) each.

    Every fraction is finite and >= 0, and each row's DL and UL fractions
    sum to at most 1 + SUM_SLACK; ValueError names the first failing sum.
    A nan passes every comparison, so it is refused by name: a row holding
    one sums to nan.
    """
    if (tau_dl < 0).any() or (tau_ul < 0).any():
        raise ValueError("Allocation fractions must be componentwise >= 0")
    for name, taus in (("tau_dl", tau_dl), ("tau_ul", tau_ul)):
        total = taus.sum(axis=1)
        if np.isnan(total).any():
            raise ValueError(f"{name} holds a nan fraction")
        over = total > 1.0 + SUM_SLACK
        if over.any():
            raise ValueError(f"sum({name}) = {float(total[over][0])!r} exceeds the unit frame")


def _check_index(s: ScenarioChannels, k: int) -> None:
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range for K = {s.K}")


def dl_rate_coefficients(s: ScenarioChannels) -> np.ndarray:
    """Per-user DL spectral efficiency c_k, bits/s/Hz of allocated slot.

    c_k = log2(1 + (e / 2 pi) P_LED g_k^2 / sigma_dl^2); the (e / 2 pi)
    factor is the standard intensity-modulation capacity lower bound.  The
    DL sum rate of an allocation is then the linear form sum(tau_dl * c).
    """
    return rate_coefficients(s.p_led, s.g, s.sigma2_dl)


def rate_coefficients(p_led: float, g: np.ndarray, sigma2_dl) -> np.ndarray:
    """``dl_rate_coefficients`` elementwise on gains of any shape."""
    snr = (math.e / (2.0 * math.pi)) * p_led * g**2 / sigma2_dl
    return np.log1p(snr) / LN2


def dl_sum_rate(s: ScenarioChannels, alloc: Allocation) -> float:
    """Achieved DL sum rate, bits/s/Hz."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    return float(np.dot(dl_rate_coefficients(s), alloc.tau_dl))


# ---------------------------------------------------------------------------
# the perspective-term kernel: ``perspective_terms`` is its one statement,
# read by the solver's gradient kernel and by the wrappers below
# ---------------------------------------------------------------------------

def perspective_terms(a, leftover, tau_ul):
    """(value, d/dtau_dl, d/dtau_ul) of the perspective term, one log1p per entry.

    With w = leftover = 1 - tau_dl and t = tau_ul:

        value     = t log2(1 + a w / t)
        d/dtau_dl = -a t / (ln2 (t + a w))
        d/dtau_ul = log2(1 + a w / t) - a w / (ln2 (t + a w))

    No closure: the value and d/dtau_ul are not finite at t = 0 and where
    a w / t overflows, the signal ``perspective_value`` and the solver's
    gradient kernel read.  Scalars or broadcastable arrays; no warnings.
    """
    t = np.asarray(tau_ul, dtype=np.float64)
    prod = a * leftover
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_term = np.log1p(prod / t)
        scaled = LN2 * (t + prod)
        return t * log_term / LN2, -a * t / scaled, log_term / LN2 - prod / scaled


def perspective_value(a, leftover, tau_ul):
    """tau_ul * log2(1 + a * leftover / tau_ul), extended with 0 at tau_ul = 0.

    ``perspective_terms``' value, with its closure: 0 at tau_ul = 0, and
    where a * leftover / tau_ul overflows (a tiny positive share, where the
    value reads inf) the log is taken as ln(a * leftover) - ln(tau_ul):
    there log1p(x) and ln(x) agree to double precision.
    Scalars or broadcastable arrays; a scalar result is a numpy float.
    """
    t = np.asarray(tau_ul, dtype=np.float64)
    value = perspective_terms(a, leftover, t)[0]
    over = value == np.inf
    if over.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(over, t * (np.log(a * leftover) - np.log(t)) / LN2, value)
    return np.where(t > 0.0, value, 0.0)[()]


def perspective_grads(a, leftover, tau_ul):
    """(d/dtau_dl, d/dtau_ul) of the perspective term: ``perspective_terms``' last two."""
    return perspective_terms(a, leftover, tau_ul)[1:]


def secrecy_capacity_user(s: ScenarioChannels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Secrecy capacity of user k's uplink, bits/s/Hz (may be negative).

    Returns u_k - v_k; at tau_ul = 0 the continuous extension 0 is used.
    The value is not clamped at zero: the solver maximizes the unclamped
    sum, which is concave once the users with a_k <= aE_k are switched off;
    only the reporting side clamps (``clamped_secrecy_sum``).
    """
    _check_index(s, k)
    if not 0.0 <= tau_dl_k <= 1.0:
        raise ValueError(f"tau_dl_k must lie in [0, 1], got {tau_dl_k!r}")
    if tau_ul_k < 0.0:
        raise ValueError(f"tau_ul_k must be >= 0, got {tau_ul_k!r}")
    leftover = 1.0 - tau_dl_k
    a = float(s.a_user()[k])
    a_e = float(s.a_eve()[k])
    return perspective_value(a, leftover, tau_ul_k) - perspective_value(a_e, leftover, tau_ul_k)


def secrecy_rows(a: np.ndarray, a_e: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """``secrecy_capacity_user`` of every user of N allocations: (N, K), signed.

    (N, K) SNR constants (``a_user``, ``a_eve``) and fractions.
    """
    if np.any(tau_dl > 1.0):
        raise ValueError("tau_dl entries must lie in [0, 1]")
    leftover = 1.0 - tau_dl
    return perspective_value(a, leftover, tau_ul) - perspective_value(a_e, leftover, tau_ul)


def clamped_secrecy_rows(a: np.ndarray, a_e: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """``clamped_secrecy_sum`` of N allocations at once: ``secrecy_rows``
    clamped at 0, one sum per row, added user by user in user order (the
    CSV bytes depend on it)."""
    terms = np.maximum(secrecy_rows(a, a_e, tau_dl, tau_ul), 0.0)
    total = np.zeros(terms.shape[0])
    for k in range(terms.shape[1]):
        total += terms[:, k]
    return total


def clamped_secrecy_sum(s: ScenarioChannels, alloc: Allocation) -> float:
    """Reporting-side sum of max(C_S_k, 0); the optimizer never clamps."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    return float(clamped_secrecy_rows(s.a_user()[None], s.a_eve()[None], alloc.tau_dl[None], alloc.tau_ul[None])[0])
