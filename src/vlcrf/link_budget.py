"""Energy harvesting, rates, secrecy capacity and their derivatives.

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
        return self.eta * self.i_d**2 * self.g**2 * self.h**2 / self.sigma2_ul

    def a_eve(self) -> np.ndarray:
        """Eavesdropper SNR constant with the eavesdropper noise power."""
        return self.eta * self.i_d**2 * self.g**2 * self.h_e**2 / self.sigma2_e


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

    Every fraction is >= 0 and each row's DL and UL fractions sum to at most
    1 + SUM_SLACK; ValueError names the first failing sum.
    """
    if (tau_dl < 0).any() or (tau_ul < 0).any():
        raise ValueError("Allocation fractions must be componentwise >= 0")
    for name, taus in (("tau_dl", tau_dl), ("tau_ul", tau_ul)):
        total = taus.sum(axis=1)
        over = total > 1.0 + SUM_SLACK
        if over.any():
            raise ValueError(f"sum({name}) = {float(total[over][0])!r} exceeds the unit frame")


def _check_index(s: ScenarioChannels, k: int) -> None:
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range for K = {s.K}")


def harvested_energy(s: ScenarioChannels, k: int, tau_dl_k: float) -> float:
    """Energy harvested by user k while not receiving: eta I_D^2 g^2 (1 - tau_dl)."""
    _check_index(s, k)
    if not 0.0 <= tau_dl_k <= 1.0:
        raise ValueError(f"tau_dl_k must lie in [0, 1], got {tau_dl_k!r}")
    return s.eta * s.i_d**2 * float(s.g[k]) ** 2 * (1.0 - tau_dl_k)


def ul_power(s: ScenarioChannels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Uplink transmit power: the harvested energy spread over the UL slot."""
    if tau_ul_k <= 0.0:
        raise ValueError("UL power is undefined at tau_ul = 0; use the rate limit instead")
    return harvested_energy(s, k, tau_dl_k) / tau_ul_k


def ul_energy(s: ScenarioChannels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Energy spent in the UL slot, i.e. ul_power * tau_ul in cancelled form.

    Evaluating the product in floating point would reintroduce the division
    rounding of ul_power; evaluating it in the algebraically cancelled
    expression order reproduces harvested_energy bit for bit, which keeps
    the energy accounting exactly conservative.
    """
    if tau_ul_k <= 0.0:
        raise ValueError("no UL slot to spend energy in (tau_ul = 0)")
    return harvested_energy(s, k, tau_dl_k)


def dl_rate_coefficients(s: ScenarioChannels) -> np.ndarray:
    """Per-user DL spectral efficiency c_k, bits/s/Hz of allocated slot.

    c_k = log2(1 + (e / 2 pi) P_LED g_k^2 / sigma_dl^2); the (e / 2 pi)
    factor is the standard intensity-modulation capacity lower bound.  The
    DL sum rate of an allocation is then the linear form sum(tau_dl * c).
    """
    snr = (math.e / (2.0 * math.pi)) * s.p_led * s.g**2 / s.sigma2_dl
    return np.log1p(snr) / LN2


def dl_sum_rate(s: ScenarioChannels, alloc: Allocation) -> float:
    """Achieved DL sum rate, bits/s/Hz."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    return float(np.dot(dl_rate_coefficients(s), alloc.tau_dl))


# ---------------------------------------------------------------------------
# the perspective-term kernel shared by the public API and the solver
# ---------------------------------------------------------------------------

def perspective_value(a, leftover, tau_ul):
    """tau_ul * log2(1 + a * leftover / tau_ul), extended with 0 at tau_ul = 0.

    Scalars or broadcastable arrays; a scalar result is a numpy float.
    """
    t = np.asarray(tau_ul, dtype=np.float64)
    positive = t > 0.0
    safe_t = np.where(positive, t, 1.0)
    return np.where(positive, t * np.log1p(a * leftover / safe_t) / LN2, 0.0)[()]


def perspective_grads(a, leftover, tau_ul):
    """(d/dtau_dl, d/dtau_ul) of the perspective term; needs tau_ul > 0.

    With w = 1 - tau_dl and t = tau_ul:

        d/dtau_ul = log2(1 + a w / t) - a w / (ln2 (t + a w))
        d/dtau_dl = -a t / (ln2 (t + a w))

    Scalars or broadcastable arrays, like ``perspective_value``.
    """
    prod = a * leftover
    denom = tau_ul + prod
    d_dl = -a * tau_ul / (LN2 * denom)
    d_ul = np.log1p(prod / tau_ul) / LN2 - prod / (LN2 * denom)
    return d_dl, d_ul


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


def objective_value(s: ScenarioChannels, alloc: Allocation) -> float:
    """Sum of per-user secrecy capacities (continuous extension at tau_ul=0)."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    leftover = 1.0 - alloc.tau_dl
    u = perspective_value(s.a_user(), leftover, alloc.tau_ul)
    v = perspective_value(s.a_eve(), leftover, alloc.tau_ul)
    return float(np.sum(u - v))


def clamped_secrecy_rows(a: np.ndarray, a_e: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """``clamped_secrecy_sum`` of N allocations at once.

    (N, K) SNR constants (``a_user``, ``a_eve``) and fractions; one sum per
    row, added user by user in user order: the CSV bytes depend on it.
    """
    if np.any(tau_dl > 1.0):
        raise ValueError("tau_dl entries must lie in [0, 1]")
    leftover = 1.0 - tau_dl
    terms = np.maximum(perspective_value(a, leftover, tau_ul) - perspective_value(a_e, leftover, tau_ul), 0.0)
    total = np.zeros(terms.shape[0])
    for k in range(terms.shape[1]):
        total += terms[:, k]
    return total


def clamped_secrecy_sum(s: ScenarioChannels, alloc: Allocation) -> float:
    """Reporting-side sum of max(C_S_k, 0); the optimizer never clamps."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    return float(clamped_secrecy_rows(s.a_user()[None], s.a_eve()[None], alloc.tau_dl[None], alloc.tau_ul[None])[0])
