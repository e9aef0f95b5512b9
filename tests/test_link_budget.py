"""Energy, rate and secrecy math against independent hand oracles."""

import math

import numpy as np
import pytest

from vlcrf.link_budget import (
    Allocation,
    ScenarioChannels,
    clamped_secrecy_sum,
    dl_rate_coefficients,
    dl_sum_rate,
    harvested_energy,
    objective_value,
    perspective_grads,
    perspective_value,
    secrecy_capacity_user,
    ul_energy,
    ul_power,
)

G_CENTER = 2.0 * 1e-4 * 0.54 / (2.0 * math.pi * 9.0) * 3.0  # Table-style device, 3 m beneath


def scenario(g, h, h_e, sigma2_ul=1e-14, sigma2_e=1e-14, eta=0.44, i_d=2.0):
    g = np.atleast_1d(np.asarray(g, dtype=float))
    k = g.shape[0]
    return ScenarioChannels(
        g=g,
        h=np.broadcast_to(np.asarray(h, dtype=float), (k,)).copy(),
        h_e=np.broadcast_to(np.asarray(h_e, dtype=float), (k,)).copy(),
        sigma2_dl=np.full(k, 1e-14),
        sigma2_ul=np.full(k, sigma2_ul),
        sigma2_e=sigma2_e,
        eta=eta,
        i_d=i_d,
        p_led=1.0,
    )


def scenario_with_a(a_values, ae_values):
    """Channels whose SNR constants come out at the requested values."""
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    ae = np.atleast_1d(np.asarray(ae_values, dtype=float))
    h = np.sqrt(a * 1e-14 / (0.44 * 4.0))
    h_e = np.sqrt(ae * 1e-14 / (0.44 * 4.0))
    return scenario(np.ones_like(a), h, h_e)


class TestScenarioChannels:
    def test_snr_constants_match_hand_products(self):
        s = scenario([G_CENTER], 1e-3, 5e-4)
        a_hand = 0.44 * 2.0**2 * G_CENTER**2 * 1e-6 / 1e-14
        ae_hand = 0.44 * 2.0**2 * G_CENTER**2 * 25e-8 / 1e-14
        assert float(s.a_user()[0]) == pytest.approx(a_hand, rel=1e-12)
        assert float(s.a_eve()[0]) == pytest.approx(ae_hand, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario([], 1e-3, 1e-3)
        with pytest.raises(ValueError):
            scenario([-1e-6], 1e-3, 1e-3)
        with pytest.raises(ValueError):
            scenario([1e-6], 1e-3, 1e-3, sigma2_ul=0.0)
        with pytest.raises(ValueError):
            ScenarioChannels(
                g=[1e-6], h=[1e-3, 1e-3], h_e=[1e-3],
                sigma2_dl=[1e-14], sigma2_ul=[1e-14], sigma2_e=1e-14,
                eta=0.44, i_d=2.0, p_led=1.0,
            )

    @pytest.mark.parametrize("field", ["sigma2_dl", "sigma2_ul", "sigma2_e", "eta", "i_d", "p_led"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        kwargs = dict(
            g=[1e-6], h=[1e-3], h_e=[1e-3], sigma2_dl=[1e-14], sigma2_ul=[1e-14],
            sigma2_e=1e-14, eta=0.44, i_d=2.0, p_led=1.0,
        )
        kwargs[field] = [value] if isinstance(kwargs[field], list) else value
        with pytest.raises(ValueError, match=field):
            ScenarioChannels(**kwargs)

    def test_arrays_read_only(self):
        s = scenario([1e-6], 1e-3, 1e-3)
        with pytest.raises(ValueError):
            s.g[0] = 2.0


class TestAllocation:
    def test_budget_slack(self):
        Allocation([0.5, 0.5], [0.999999999, 0.0])
        with pytest.raises(ValueError):
            Allocation([0.6, 0.6], [0.1, 0.1])
        with pytest.raises(ValueError):
            Allocation([-0.1, 0.2], [0.1, 0.1])


class TestHarvestedEnergy:
    def test_no_harvest_window(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        assert harvested_energy(s, 0, 1.0) == 0.0

    def test_full_window_hand_value(self):
        # 0.44 * 2^2 * g^2 with the module-1 gain
        s = scenario([G_CENTER], 1e-3, 1e-3)
        hand = 0.44 * 4.0 * G_CENTER * G_CENTER
        assert harvested_energy(s, 0, 0.0) == pytest.approx(hand, rel=1e-12)
        assert harvested_energy(s, 0, 0.0) == pytest.approx(5.778e-11, rel=1e-3)

    def test_affine_in_slot(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        assert harvested_energy(s, 0, 0.5) == harvested_energy(s, 0, 0.0) / 2.0

    def test_domain(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        with pytest.raises(ValueError):
            harvested_energy(s, 0, 1.5)
        with pytest.raises(IndexError):
            harvested_energy(s, 3, 0.5)


class TestUlPower:
    def test_unit_window_equals_energy(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        assert ul_power(s, 0, 0.0, 1.0) == harvested_energy(s, 0, 0.0)

    def test_halving_slot_doubles_power(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        assert ul_power(s, 0, 0.2, 0.25) == pytest.approx(2.0 * ul_power(s, 0, 0.2, 0.5), rel=1e-12)

    def test_zero_energy_when_no_harvest(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        assert ul_power(s, 0, 1.0, 0.7) == 0.0

    def test_zero_slot_error(self):
        s = scenario([G_CENTER], 1e-3, 1e-3)
        with pytest.raises(ValueError):
            ul_power(s, 0, 0.5, 0.0)
        with pytest.raises(ValueError):
            ul_energy(s, 0, 0.5, 0.0)

    def test_energy_identity_bit_exact_in_cancelled_form(self):
        # The UL energy accessor evaluates power*slot in the algebraically
        # cancelled expression order, which reproduces the harvested
        # energy bit for bit; evaluating the literal float product instead
        # would reintroduce the division rounding (for roughly a tenth of
        # random operand pairs no representable quotient exists at all).
        rng = np.random.default_rng(17)
        for _ in range(20_000):
            g = rng.uniform(1e-7, 1e-5)
            s = scenario([g], rng.uniform(1e-4, 1.0), 1e-3)
            tau_dl = rng.uniform(0.0, 1.0)
            tau_ul = rng.uniform(1e-9, 1.0)
            e = harvested_energy(s, 0, tau_dl)
            assert ul_energy(s, 0, tau_dl, tau_ul) == e
            # the raw product is still correct to a couple of ulps
            assert ul_power(s, 0, tau_dl, tau_ul) * tau_ul == pytest.approx(e, rel=1e-15, abs=0.0)


class TestDlRate:
    def test_zero_gain_zero_rate(self):
        s = scenario([0.0], 1e-3, 1e-3)
        assert dl_rate_coefficients(s)[0] == 0.0

    def test_table_values_hand_evaluation(self):
        # log2(1 + (e/2pi) * 1 * g^2 / 1e-14) with the module-1 gain
        s = scenario([G_CENTER], 1e-3, 1e-3)
        hand = math.log2(1.0 + (math.e / (2.0 * math.pi)) * G_CENTER**2 / 1e-14)
        assert float(dl_rate_coefficients(s)[0]) == pytest.approx(hand, rel=1e-12)
        assert float(dl_rate_coefficients(s)[0]) == pytest.approx(10.472928302768029, rel=1e-10)

    def test_unit_snr_anchor(self):
        g = 3e-6
        sigma2 = (math.e / (2.0 * math.pi)) * g * g
        s = ScenarioChannels(
            g=[g], h=[1e-3], h_e=[1e-3],
            sigma2_dl=[sigma2], sigma2_ul=[1e-14], sigma2_e=1e-14,
            eta=0.44, i_d=2.0, p_led=1.0,
        )
        assert float(dl_rate_coefficients(s)[0]) == pytest.approx(1.0, rel=1e-12)

    def test_sum_rate_is_linear_form(self):
        s = scenario([2e-6, 4e-6, 1e-6], 1e-3, 1e-3)
        alloc = Allocation([0.1, 0.3, 0.2], [0.2, 0.2, 0.2])
        c = dl_rate_coefficients(s)
        assert dl_sum_rate(s, alloc) == pytest.approx(float(np.dot(c, alloc.tau_dl)), rel=1e-14)


class TestSecrecyCapacity:
    def test_identical_channels_exactly_zero(self):
        s = scenario([G_CENTER, 2e-6], 1e-3, 1e-3)
        for tau_dl, tau_ul in [(0.0, 1.0), (0.3, 0.5), (0.9, 0.01)]:
            assert secrecy_capacity_user(s, 0, tau_dl, tau_ul) == 0.0

    def test_full_dl_slot_gives_zero(self):
        s = scenario([G_CENTER], 1e-2, 1e-3)
        assert secrecy_capacity_user(s, 0, 1.0, 0.7) == 0.0

    def test_hand_example_ten_vs_one(self):
        s = scenario_with_a([10.0], [1.0])
        expected = math.log2(11.0) - math.log2(2.0)
        assert secrecy_capacity_user(s, 0, 0.0, 1.0) == pytest.approx(expected, rel=1e-9)
        assert secrecy_capacity_user(s, 0, 0.0, 1.0) == pytest.approx(2.4594, rel=1e-4)

    def test_sign_tracks_channel_ordering(self):
        strong = scenario_with_a([50.0], [2.0])
        weak = scenario_with_a([2.0], [50.0])
        assert secrecy_capacity_user(strong, 0, 0.2, 0.5) > 0
        assert secrecy_capacity_user(weak, 0, 0.2, 0.5) < 0

    def test_continuous_at_zero_ul(self):
        s = scenario_with_a([250.0], [3.0])
        assert secrecy_capacity_user(s, 0, 0.2, 0.0) == 0.0
        assert abs(secrecy_capacity_user(s, 0, 0.2, 1e-12)) < 1e-9

    def test_clamped_sum(self):
        s = scenario_with_a([10.0, 2.0], [1.0, 50.0])
        alloc = Allocation([0.1, 0.1], [0.5, 0.5])
        per_user = [secrecy_capacity_user(s, k, 0.1, 0.5) for k in range(2)]
        assert per_user[1] < 0
        assert clamped_secrecy_sum(s, alloc) == pytest.approx(max(0.0, per_user[0]), rel=1e-12)
        assert objective_value(s, alloc) == pytest.approx(sum(per_user), rel=1e-12)

    def test_clamped_sum_matches_per_user_loop(self):
        # same arithmetic as summing max(0, secrecy_capacity_user) user by user
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            s = scenario_with_a(10.0 ** rng.uniform(-3, 6, k), 10.0 ** rng.uniform(-3, 6, k))
            dl = rng.dirichlet(np.ones(k + 1))[:k]
            ul = rng.dirichlet(np.ones(k + 1))[:k]
            ul[rng.random(k) < 0.2] = 0.0
            alloc = Allocation(dl, ul)
            total = 0.0
            for j in range(k):
                total += max(0.0, secrecy_capacity_user(s, j, float(dl[j]), float(ul[j])))
            assert clamped_secrecy_sum(s, alloc) == total


def secrecy_gradient(s, tau_dl, tau_ul):
    """Gradient of sum_k (u_k - v_k), ordered [d/dtau_dl_1..K, d/dtau_ul_1..K]:
    the u - v differences of ``perspective_grads``, as the solver forms them."""
    leftover = 1.0 - np.asarray(tau_dl, dtype=float)
    du_dl, du_ul = perspective_grads(s.a_user(), leftover, np.asarray(tau_ul, dtype=float))
    dv_dl, dv_ul = perspective_grads(s.a_eve(), leftover, np.asarray(tau_ul, dtype=float))
    return np.concatenate([du_dl - dv_dl, du_ul - dv_ul])


class TestGradient:
    def test_matches_central_differences(self):
        # independent oracle: central finite differences of the value path
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 5))
            s = scenario_with_a(rng.uniform(0.1, 100.0, k), rng.uniform(0.1, 100.0, k))
            tau_dl = rng.uniform(0.05, 0.9, k) / k
            tau_ul = rng.uniform(0.05, 0.9, k) / k
            grad = secrecy_gradient(s, tau_dl, tau_ul)
            h = 1e-6
            for j in range(2 * k):
                dl_p, ul_p = tau_dl.copy(), tau_ul.copy()
                dl_m, ul_m = tau_dl.copy(), tau_ul.copy()
                if j < k:
                    dl_p[j] += h
                    dl_m[j] -= h
                else:
                    ul_p[j - k] += h
                    ul_m[j - k] -= h
                fd = (
                    objective_value(s, Allocation(dl_p, ul_p))
                    - objective_value(s, Allocation(dl_m, ul_m))
                ) / (2.0 * h)
                scale = max(1.0, abs(grad[j]))
                worst = max(worst, abs(grad[j] - fd) / scale)
        assert worst < 1e-5

    def test_identical_channels_zero_gradient(self):
        s = scenario([G_CENTER, 3e-6], 1e-3, 1e-3)
        grad = secrecy_gradient(s, [0.2, 0.1], [0.4, 0.3])
        assert np.all(grad == 0.0)

    def test_dl_partial_negative_in_interior(self):
        rng = np.random.default_rng(8)
        s = scenario_with_a([30.0], [0.5])
        for _ in range(50):
            grad = secrecy_gradient(s, [rng.uniform(0.01, 0.95)], [rng.uniform(0.01, 0.99)])
            # gradient of u alone is negative; the objective's dl component
            # is the difference but the u part dominates here (a >> a_e)
            assert grad[0] < 0


class TestPerspectiveStructure:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = float(rng.uniform(0.1, 200.0))
            w = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.05, 1.0))
            lam = float(rng.uniform(0.1, 1.0))
            assert perspective_value(a, lam * w, lam * t) == pytest.approx(
                lam * perspective_value(a, w, t), rel=1e-12
            )

    def test_concavity_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            a = float(rng.uniform(0.05, 300.0))
            w1, w2 = rng.uniform(0.01, 1.0, 2)
            t1, t2 = rng.uniform(0.01, 1.0, 2)
            lam = float(rng.uniform(0.0, 1.0))
            mid = perspective_value(a, lam * w1 + (1 - lam) * w2, lam * t1 + (1 - lam) * t2)
            chord = lam * perspective_value(a, w1, t1) + (1 - lam) * perspective_value(a, w2, t2)
            assert mid >= chord - 1e-9
