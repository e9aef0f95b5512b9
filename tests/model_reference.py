"""The paper's per-user model as scalar functions, the tests' reference.

No command calls these: the program works on (N, K) rows (``scenario_block``,
``solve_rows``).  The tests keep them as a readable
statement of the model's equations, one user or one problem at a time:

- one scenario's channel state and its SNR constants and rate coefficients
  (``Channels``), and the per-user channel draws in the order the sweeps
  once made them (``vlc_channel_gain``, ``sample_rician_gain``);
- the energy a user harvests while it does not receive, and its uplink
  power and energy (``harvested_energy``, ``ul_power``, ``ul_energy``);
- the secrecy capacity of one user and the objective of an allocation
  (``secrecy_capacity_user``, ``objective_value``), and the signed and
  clamped secrecy of rows of allocations (``secrecy_rows``,
  ``clamped_secrecy_rows``): the reporting closure the program evaluated
  after each solve until the certificate kernel's own per-user terms
  (``RowSolutions.secrecy``) became the reported ones;
- the angles of an LED-to-user link (``link_angles``);
- the solver's deterministic start and its feasibility repairs for one
  problem (``initial_allocation``, ``project_onto_feasible``);
- whether one problem's rate target is reachable (``feasible``), that
  problem solved as a block of one row, and the certificate gap of one
  allocation (``solve_one``, ``certificate_gap``);
- the worst constraint violation of rows of allocations and of one
  (``violation_rows``, ``violation``): a measure, where the program's rule
  of a valid allocation is ``dc_solver.audit_rows``;
- the DL vertices of one problem as their formulas give them
  (``formula_dl_vertices``), before ``dc_solver._dl_vertices`` moves a row
  by ulps to meet its rate in floating point;
- the perspective term and its partials as the program wrote them before
  ``link_budget.perspective_terms`` stated them once: the lines the
  solver's gradient kernel fused over the (2, N, K) pair of user and
  eavesdropper (``fused_terms``), the term with its closure
  (``perspective_value``: 0 at tau_ul = 0, the ln form where a w / tau_ul
  overflows) and the partials (``split_grads``).
"""

import dataclasses

import numpy as np

from vlcrf.dc_solver import (
    DcaSettings,
    FeasibleSet,
    RowSolutions,
    _repair_dl,
    _repair_ul,
    _secrecy_problem,
    initial_rows,
    solve_rows,
)
from vlcrf.link_budget import LN2, rate_coefficients, snr_constants
from vlcrf.rf_channel import MIXING_NORMALIZED, RicianConfig, los_component, mixing_weights, rician_mix
from vlcrf.vlc_channel import CONCENTRATOR_CONSTANT, LedConfig, PhotodiodeConfig, Vec3, _ray_angles, ray_gain


@dataclasses.dataclass(frozen=True)
class Channels:
    """One scenario's channel state: per-user VLC gains g and uplink amplitudes
    h (access point) and h_e (eavesdropper), and the constants their SNR
    constants and DL rate coefficients read: noise powers (W), the harvesting
    efficiency eta, the LED's DC offset i_d (A) and power p_led (W)."""

    g: np.ndarray
    h: np.ndarray
    h_e: np.ndarray
    sigma2_dl: float = 1e-14
    sigma2_ul: float = 1e-14
    sigma2_e: float = 1e-14
    eta: float = 0.44
    i_d: float = 2.0
    p_led: float = 1.0

    def __post_init__(self):
        for name in ("g", "h", "h_e"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))

    @property
    def K(self) -> int:
        return self.g.shape[0]

    def a_user(self) -> np.ndarray:
        """Per-user uplink SNR constant a_k = eta I_D^2 g_k^2 h_k^2 / sigma_ul^2."""
        return snr_constants(self.eta, self.i_d, self.g, self.h, self.sigma2_ul)

    def a_eve(self) -> np.ndarray:
        """Eavesdropper SNR constant with the eavesdropper noise power."""
        return snr_constants(self.eta, self.i_d, self.g, self.h_e, self.sigma2_e)

    def rate_coeffs(self) -> np.ndarray:
        """Per-user DL spectral efficiency c_k."""
        return rate_coefficients(self.p_led, self.g, self.sigma2_dl)


def vlc_channel_gain(led: LedConfig, position: Vec3, pd: PhotodiodeConfig, model: str = CONCENTRATOR_CONSTANT) -> float:
    """DC channel gain of the LED-to-photodiode link of an upward-facing user at ``position``."""
    return ray_gain(position.x - led.position.x, position.y - led.position.y, position.z - led.position.z,
                    led, pd, model)


def sample_rician_gain(cfg: RicianConfig, distance: float, rng: np.random.Generator,
                       mixing: str = MIXING_NORMALIZED) -> float:
    """Draw one fading amplitude, re then im from ``rng``; deterministic given (seed, call order)."""
    los = los_component(cfg, distance)
    weights = mixing_weights(cfg, mixing)
    re = rng.standard_normal(1)
    im = rng.standard_normal(1)
    return float(rician_mix(los, re, im, weights)[0])


def harvested_energy(s: Channels, k: int, tau_dl_k: float) -> float:
    """Energy harvested by user k while not receiving: eta I_D^2 g^2 (1 - tau_dl)."""
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range for K = {s.K}")
    if not 0.0 <= tau_dl_k <= 1.0:
        raise ValueError(f"tau_dl_k must lie in [0, 1], got {tau_dl_k!r}")
    return s.eta * s.i_d**2 * float(s.g[k]) ** 2 * (1.0 - tau_dl_k)


def ul_power(s: Channels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Uplink transmit power: the harvested energy spread over the UL slot."""
    if tau_ul_k <= 0.0:
        raise ValueError("UL power is undefined at tau_ul = 0; use the rate limit instead")
    return harvested_energy(s, k, tau_dl_k) / tau_ul_k


def ul_energy(s: Channels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Energy spent in the UL slot, i.e. ul_power * tau_ul in cancelled form.

    Evaluating the product in floating point would reintroduce the division
    rounding of ul_power; evaluating it in the algebraically cancelled
    expression order reproduces harvested_energy bit for bit, which keeps
    the energy accounting exactly conservative.
    """
    if tau_ul_k <= 0.0:
        raise ValueError("no UL slot to spend energy in (tau_ul = 0)")
    return harvested_energy(s, k, tau_dl_k)


def secrecy_capacity_user(s: Channels, k: int, tau_dl_k: float, tau_ul_k: float) -> float:
    """Secrecy capacity of user k's uplink, bits/s/Hz (may be negative).

    Returns u_k - v_k; at tau_ul = 0 the continuous extension 0 is used.
    """
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range for K = {s.K}")
    if not 0.0 <= tau_dl_k <= 1.0:
        raise ValueError(f"tau_dl_k must lie in [0, 1], got {tau_dl_k!r}")
    if tau_ul_k < 0.0:
        raise ValueError(f"tau_ul_k must be >= 0, got {tau_ul_k!r}")
    leftover = 1.0 - tau_dl_k
    a = float(s.a_user()[k])
    a_e = float(s.a_eve()[k])
    return perspective_value(a, leftover, tau_ul_k) - perspective_value(a_e, leftover, tau_ul_k)


def secrecy_rows(a: np.ndarray, a_e: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """Secrecy capacity u_k - v_k of every user of N allocations: (N, K), signed, bits/s/Hz.

    (N, K) SNR constants and fractions; at tau_ul = 0 a term takes its
    continuous extension 0, and where a w / tau_ul overflows its ln form.
    """
    if np.any(tau_dl > 1.0):
        raise ValueError("tau_dl entries must lie in [0, 1]")
    leftover = 1.0 - tau_dl
    return perspective_value(a, leftover, tau_ul) - perspective_value(a_e, leftover, tau_ul)


def clamped_secrecy_rows(a: np.ndarray, a_e: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """Sum of max(C_S_k, 0) of N allocations: ``secrecy_rows`` clamped at 0,
    one sum per row, added user by user in user order."""
    terms = np.maximum(secrecy_rows(a, a_e, tau_dl, tau_ul), 0.0)
    total = np.zeros(terms.shape[0])
    for k in range(terms.shape[1]):
        total += terms[:, k]
    return total


def objective_value(a, a_e, tau_dl, tau_ul) -> float:
    """Sum of per-user secrecy capacities (continuous extension at tau_ul=0)."""
    tau_ul = np.asarray(tau_ul, dtype=np.float64)
    leftover = 1.0 - np.asarray(tau_dl, dtype=np.float64)
    u = perspective_value(a, leftover, tau_ul)
    v = perspective_value(a_e, leftover, tau_ul)
    return float(np.sum(u - v))


def link_angles(led: LedConfig, position: Vec3) -> tuple[float, float, float]:
    """Irradiance angle, incidence angle (degrees) and distance (m) of a link.

    The irradiance angle is measured between the LED boresight and the
    LED-to-user ray; the incidence angle between the upward photodiode
    normal and the user-to-LED ray.  Both lie in [0, 180].
    """
    return _ray_angles(position.x - led.position.x, position.y - led.position.y, position.z - led.position.z,
                       led.orientation)


def feasible(fs: FeasibleSet) -> bool:
    """The rate target is reachable iff it does not exceed the best single-user rate."""
    return fs.r_min <= float(np.max(fs.rate_coeffs))


def _require_feasible(fs: FeasibleSet) -> None:
    if not feasible(fs):
        raise ValueError(f"rate target {fs.r_min!r} is infeasible for these coefficients")


def initial_allocation(fs: FeasibleSet) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic start (tau_dl, tau_ul): rate target covered by the best DL user, uniform UL.

    The best-coefficient user (lowest index on ties) gets just enough DL
    time for the rate constraint plus a small margin, capped at the frame:
    ``initial_rows`` of the one problem.
    """
    _require_feasible(fs)
    tau_dl, tau_ul = initial_rows(fs.rate_coeffs[None], np.array([fs.r_min]))
    return tau_dl[0], tau_ul[0]


def project_onto_feasible(fs: FeasibleSet, tau_dl, tau_ul) -> tuple[list, list]:
    """Put both blocks back on the feasible polytope, as two lists.

    UL: the feasibility repair ``_repair_ul``, DL: ``_repair_dl``; neither
    is a projection.  A feasible input comes back unchanged; for any finite
    input the budgets and the rate target hold up to rounding, and both
    blocks are >= 0.
    """
    _require_feasible(fs)
    dl = _repair_dl(np.asarray(tau_dl, dtype=np.float64)[None], fs.rate_coeffs[None], np.array([fs.r_min]))
    ul = _repair_ul(np.asarray(tau_ul, dtype=np.float64)[None], np.ones((1, fs.K), dtype=bool))
    return dl[0].tolist(), ul[0].tolist()


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)[None]


def solve_one(a, a_e, fs: FeasibleSet, settings: DcaSettings = DcaSettings(), start=None) -> RowSolutions:
    """``solve_rows`` of the one problem (a, aE, fs) as a block of one row.

    From ``start`` = (tau_dl, tau_ul), by default ``initial_rows``; returns
    row 0 of each ``RowSolutions`` field.  The target must be feasible.
    """
    _require_feasible(fs)
    c, r_min = fs.rate_coeffs[None], np.array([fs.r_min])
    dl, ul = initial_rows(c, r_min) if start is None else (_row(start[0]), _row(start[1]))
    out = solve_rows(_row(a), _row(a_e), c, r_min, dl, ul, settings)
    return RowSolutions(*(getattr(out, f.name)[0] for f in dataclasses.fields(out)))


def certificate_gap(a, a_e, fs: FeasibleSet, tau_dl, tau_ul) -> float:
    """Frank-Wolfe gap of the secrecy problem at one allocation, in bits.

    The gap ``solve_rows`` certifies with: for a feasible allocation,
    f* - f(allocation) <= gap.  f switches off the users with a_k <= aE_k
    (their tau_ul is not read), so it is the secrecy objective wherever they
    get no uplink, as in every solver answer, where the gap equals
    ``gap_bits``.
    """
    prob = _secrecy_problem(_row(a), _row(a_e), fs.rate_coeffs[None], np.array([fs.r_min]))
    dl, ul = _row(tau_dl), _row(tau_ul)
    _, g_dl, g_ul = prob.value_and_grad(dl, ul)
    return float(prob.gap(dl, ul, g_dl, g_ul)[0])


def violation_rows(rate_coeffs: np.ndarray, r_min: np.ndarray, tau_dl: np.ndarray, tau_ul: np.ndarray) -> np.ndarray:
    """Worst constraint violation of each row's allocation (0 when feasible).

    (N, K) rate coefficients and fractions, (N,) rate targets.  The
    minimum-rate slack is normalized by max(1, r_min) so the measure is
    comparable across rate scales.  A row holding a nan violates by inf.
    """
    rate = np.vecdot(rate_coeffs, tau_dl)
    dl_sum, ul_sum = tau_dl.sum(axis=1), tau_ul.sum(axis=1)
    viol = np.fmax.reduce([
        np.zeros(r_min.shape), -tau_dl.min(axis=1), -tau_ul.min(axis=1),
        dl_sum - 1.0, ul_sum - 1.0, (r_min - rate) / np.maximum(1.0, r_min),
    ])
    # fmax skips nan, which every comparison passes: a nan reads in the sums
    return np.where(np.isnan(dl_sum + ul_sum + rate), np.inf, viol)


def violation(fs: FeasibleSet, tau_dl, tau_ul) -> float:
    """Worst constraint violation of one allocation (0 when feasible): ``violation_rows`` of its row."""
    return float(violation_rows(fs.rate_coeffs[None], np.array([fs.r_min]), _row(tau_dl), _row(tau_ul))[0])


def formula_dl_vertices(c: np.ndarray, r_min: float) -> np.ndarray:
    """The rows of ``_dl_vertices(c, r_min)``, in its order, at their formulas'
    points: (r_min / c_k) e_k, e_k, and lam e_i + (1 - lam) e_j on each edge,
    lam = (r_min - c_j) / (c_i - c_j); the origin and each e_k at r_min = 0."""
    K = c.size
    if r_min <= 0.0:
        return np.eye(K + 1, K, -1)
    cs = c.tolist()
    reach = [k for k, ck in enumerate(cs) if ck >= r_min]
    edges = [(i, j, (r_min - cj) / (ci - cj)) for i, ci in enumerate(cs) if ci > r_min
             for j, cj in enumerate(cs) if cj < r_min]
    n = len(reach)
    out = np.zeros((2 * n + len(edges), K))
    for row, k in enumerate(reach):
        out[row, k] = r_min / cs[k]
        out[n + row, k] = 1.0
    for row, (i, j, lam) in enumerate(edges, 2 * n):
        out[row, i], out[row, j] = lam, 1.0 - lam
    return out


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


def perspective_value(a, leftover, tau_ul):
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
