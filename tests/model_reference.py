"""The paper's per-user model as scalar functions, the tests' reference.

No command calls these: the program works on (N, K) rows (``scenario_block``,
``solve_rows``, ``secrecy_rows``).  The tests keep them as a readable
statement of the model's equations, one user or one allocation at a time:

- the energy a user harvests while it does not receive, and its uplink
  power and energy (``harvested_energy``, ``ul_power``, ``ul_energy``);
- the secrecy objective of an allocation (``objective_value``);
- the angles of an LED-to-user link (``link_angles``);
- the solver's deterministic start and its feasibility repairs for one
  problem (``initial_allocation``, ``project_onto_feasible``);
- the perspective term and its partials as the program wrote them before
  ``link_budget.perspective_terms`` stated them once: the lines the
  solver's gradient kernel fused over the (2, N, K) pair of user and
  eavesdropper (``fused_terms``), and the bodies of ``perspective_value``
  and ``perspective_grads`` (``split_value``, ``split_grads``).
"""

import numpy as np

from vlcrf.dc_solver import FeasibleSet, _repair_dl, _repair_ul, check_feasibility, initial_rows
from vlcrf.link_budget import LN2, Allocation, ScenarioChannels, perspective_value
from vlcrf.vlc_channel import LedConfig, UserTerminal, _ray_angles


def harvested_energy(s: ScenarioChannels, k: int, tau_dl_k: float) -> float:
    """Energy harvested by user k while not receiving: eta I_D^2 g^2 (1 - tau_dl)."""
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range for K = {s.K}")
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


def objective_value(s: ScenarioChannels, alloc: Allocation) -> float:
    """Sum of per-user secrecy capacities (continuous extension at tau_ul=0)."""
    if alloc.K != s.K:
        raise ValueError("allocation size does not match scenario")
    leftover = 1.0 - alloc.tau_dl
    u = perspective_value(s.a_user(), leftover, alloc.tau_ul)
    v = perspective_value(s.a_eve(), leftover, alloc.tau_ul)
    return float(np.sum(u - v))


def link_angles(led: LedConfig, user: UserTerminal) -> tuple[float, float, float]:
    """Irradiance angle, incidence angle (degrees) and distance (m) of a link.

    The irradiance angle is measured between the LED boresight and the
    LED-to-user ray; the incidence angle between the photodiode normal and
    the user-to-LED ray.  Both lie in [0, 180].
    """
    ray = user.position.minus(led.position)
    return _ray_angles(ray.x, ray.y, ray.z, led.orientation, user.surface_normal)


def initial_allocation(fs: FeasibleSet) -> Allocation:
    """Deterministic start: rate target covered by the best DL user, uniform UL.

    The best-coefficient user (lowest index on ties) gets just enough DL
    time for the rate constraint plus a small margin, capped at the frame:
    ``initial_rows`` of the one problem.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    tau_dl, tau_ul = initial_rows(fs.rate_coeffs[None], np.array([fs.r_min]))
    return Allocation(tau_dl[0], tau_ul[0])


def project_onto_feasible(fs: FeasibleSet, tau_dl, tau_ul) -> tuple[list, list]:
    """Put both blocks back on the feasible polytope, as two lists.

    UL: the feasibility repair ``_repair_ul``, DL: ``_repair_dl``; neither
    is a projection.  A feasible input comes back unchanged; for any finite
    input the budgets and the rate target hold up to rounding, and both
    blocks are >= 0.
    """
    if not check_feasibility(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")
    dl = _repair_dl(np.asarray(tau_dl, dtype=np.float64)[None], fs.rate_coeffs[None], np.array([fs.r_min]))
    ul = _repair_ul(np.asarray(tau_ul, dtype=np.float64)[None], np.ones((1, fs.K), dtype=bool))
    return dl[0].tolist(), ul[0].tolist()


def fused_terms(pair: np.ndarray, w: np.ndarray, ul: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, d/dtau_dl, d/dtau_ul) of both terms of a (2, N, K) pair, with no closure."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prod = pair * w
        log_term = np.log1p(prod / ul)
        scaled = LN2 * (ul + prod)
        value = ul * log_term / LN2
        d_dl = -pair * ul / scaled
        d_ul = log_term / LN2 - prod / scaled
    return value, d_dl, d_ul


def split_value(a, leftover, tau_ul):
    """tau_ul * log2(1 + a * leftover / tau_ul), 0 at tau_ul = 0, the ln form on overflow."""
    t = np.asarray(tau_ul, dtype=np.float64)
    positive = t > 0.0
    safe_t = np.where(positive, t, 1.0)
    prod = a * leftover
    with np.errstate(over="ignore"):
        ratio = prod / safe_t
    log_term = np.log1p(ratio)
    over = np.isinf(ratio)
    if over.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(over, np.log(prod) - np.log(safe_t), log_term)
    return np.where(positive, t * log_term / LN2, 0.0)[()]


def split_grads(a, leftover, tau_ul) -> tuple[np.ndarray, np.ndarray]:
    """(d/dtau_dl, d/dtau_ul) of the perspective term; needs tau_ul > 0."""
    prod = a * leftover
    denom = tau_ul + prod
    d_dl = -a * tau_ul / (LN2 * denom)
    d_ul = np.log1p(prod / tau_ul) / LN2 - prod / (LN2 * denom)
    return d_dl, d_ul
