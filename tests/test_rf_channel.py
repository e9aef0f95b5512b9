"""Rician fading stream checks: determinism, moments, limits."""

import math

import numpy as np
import pytest

from model_reference import sample_rician_gain
from vlcrf.rf_channel import (
    MIXING_NORMALIZED,
    MIXING_UNNORMALIZED,
    RicianConfig,
    los_component,
    mixing_weights,
    rician_mix,
)


def sample_rician_gains(cfg, distance, rng, n, mixing=MIXING_NORMALIZED):
    """``n`` amplitudes from the kernel the scenario generator mixes its draws with."""
    return rician_mix(los_component(cfg, distance), rng.standard_normal(n), rng.standard_normal(n),
                      mixing_weights(cfg, mixing))


class TestLosComponent:
    def test_reference_distance(self):
        cfg = RicianConfig(k_factor=2.0, los_reference_gain=1e-3, path_loss_exponent=2.0)
        assert los_component(cfg, 1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_amplitude_falls_with_inverse_distance(self):
        cfg = RicianConfig(k_factor=2.0, los_reference_gain=1e-3, path_loss_exponent=2.0)
        assert los_component(cfg, 10.0) == pytest.approx(1e-4, rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_singular_geometry(self, d):
        with pytest.raises(ValueError):
            los_component(RicianConfig(), d)

    def test_steeper_exponent(self):
        cfg = RicianConfig(los_reference_gain=2e-3, path_loss_exponent=4.0)
        assert los_component(cfg, 10.0) == pytest.approx(2e-3 * 1e-2, rel=1e-12)


class TestRicianSampling:
    def test_same_seed_identical(self):
        cfg = RicianConfig()
        a = sample_rician_gains(cfg, 3.0, np.random.default_rng(99), 1)
        b = sample_rician_gains(cfg, 3.0, np.random.default_rng(99), 1)
        assert a[0] == b[0]

    def test_stream_order_determinism(self):
        cfg = RicianConfig()
        rng = np.random.default_rng(7)
        seq = [float(sample_rician_gains(cfg, 2.0, rng, 1)[0]) for _ in range(5)]
        rng2 = np.random.default_rng(7)
        seq2 = [float(sample_rician_gains(cfg, 2.0, rng2, 1)[0]) for _ in range(5)]
        assert seq == seq2

    @pytest.mark.parametrize("mixing", [MIXING_NORMALIZED, MIXING_UNNORMALIZED])
    def test_single_draw_is_the_kernel_of_one(self, mixing):
        # re, then im: the draw order of the per-user reference stream
        cfg = RicianConfig(k_factor=3.0)
        rng, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        for d in (0.5, 2.0, 7.0):
            assert sample_rician_gain(cfg, d, rng, mixing) == sample_rician_gains(cfg, d, rng2, 1, mixing)[0]

    def test_pure_los_limit(self):
        cfg = RicianConfig(k_factor=1e12, los_reference_gain=1e-3)
        los = los_component(cfg, 2.0)
        h = float(sample_rician_gains(cfg, 2.0, np.random.default_rng(0), 1)[0])
        assert h == pytest.approx(los, rel=1e-4)

    def test_rayleigh_mean_at_zero_k(self):
        # Monte-Carlo against the closed-form Rayleigh mean: with the NLOS
        # part CN(0, los^2), the magnitude mean is los * sqrt(pi)/2
        cfg = RicianConfig(k_factor=0.0, los_reference_gain=1e-3)
        los = los_component(cfg, 2.5)
        draws = sample_rician_gains(cfg, 2.5, np.random.default_rng(11), 1_000_000)
        expected = los * math.sqrt(math.pi) / 2.0
        assert float(draws.mean()) == pytest.approx(expected, rel=0.01)

    def test_power_normalization(self):
        # E[|h|^2] = los^2 for the normalized mix, any K factor
        for k_factor in (0.0, 2.0, 10.0):
            cfg = RicianConfig(k_factor=k_factor, los_reference_gain=1e-3)
            los = los_component(cfg, 3.0)
            draws = sample_rician_gains(cfg, 3.0, np.random.default_rng(21), 200_000)
            assert float(np.mean(draws**2)) == pytest.approx(los**2, rel=0.02)

    def test_samples_nonnegative_finite(self):
        cfg = RicianConfig(k_factor=2.0)
        draws = sample_rician_gains(cfg, 4.0, np.random.default_rng(5), 10_000)
        assert np.all(draws >= 0)
        assert np.all(np.isfinite(draws))

    def test_unnormalized_mix_degenerates_at_zero_k(self):
        cfg = RicianConfig(k_factor=0.0)
        h = sample_rician_gains(cfg, 2.0, np.random.default_rng(1), 1, MIXING_UNNORMALIZED)
        assert h[0] == 0.0

    def test_unnormalized_mix_inflates_power(self):
        # both terms weighted by sqrt(K/(1+K)): E[|h|^2] = 2K/(1+K) * los^2
        cfg = RicianConfig(k_factor=2.0, los_reference_gain=1e-3)
        los = los_component(cfg, 3.0)
        draws = sample_rician_gains(cfg, 3.0, np.random.default_rng(31), 200_000, MIXING_UNNORMALIZED)
        assert float(np.mean(draws**2)) == pytest.approx((4.0 / 3.0) * los**2, rel=0.02)

    def test_unknown_mixing_rejected(self):
        with pytest.raises(ValueError):
            mixing_weights(RicianConfig(), "bogus")


class TestValidation:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            RicianConfig(k_factor=-0.1)
        with pytest.raises(ValueError):
            RicianConfig(los_reference_gain=0.0)
        with pytest.raises(ValueError):
            RicianConfig(path_loss_exponent=0.5)
