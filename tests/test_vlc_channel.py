"""Geometry and Lambertian channel-gain checks."""

import math

import numpy as np
import pytest

from model_reference import link_angles
from vlcrf.vlc_channel import (
    CONCENTRATOR_ANGLE_DEPENDENT,
    LedConfig,
    PhotodiodeConfig,
    Vec3,
    concentrator_gain,
    lambertian_order,
    ray_gain,
)

TABLE_LED = LedConfig(position=Vec3(2.5, 2.5, 3.0), p_led=1.0, dc_offset=2.0, semi_angle_half=60.0)
TABLE_PD = PhotodiodeConfig(area=1e-4, responsivity=0.54, fov=60.0, filter_gain=1.0, refractive_index=1.5)


def gain_at(x, y, z, led=TABLE_LED):
    """``ray_gain`` of the table photodiode at (x, y, z), facing up."""
    return ray_gain(x - led.position.x, y - led.position.y, z - led.position.z, led, TABLE_PD)


class TestLambertianOrder:
    def test_sixty_degrees_gives_order_one(self):
        # cos 60 = 1/2 forces m = 1, to machine precision
        assert abs(lambertian_order(60.0) - 1.0) < 1e-14

    def test_thirty_degrees(self):
        # hand evaluation of -1/log2(cos 30deg)
        expected = -1.0 / math.log2(math.cos(math.radians(30.0)))
        assert lambertian_order(30.0) == pytest.approx(expected, rel=1e-14)
        assert lambertian_order(30.0) == pytest.approx(4.818841679306421, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 180.0])
    def test_domain_errors(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)

    def test_positive_and_decreasing_in_beam_width(self):
        angles = np.linspace(5.0, 85.0, 17)
        orders = [lambertian_order(a) for a in angles]
        assert all(m > 0 for m in orders)
        assert all(orders[i] > orders[i + 1] for i in range(len(orders) - 1))


class TestLinkAngles:
    def test_directly_beneath(self):
        phi, varphi, d = link_angles(TABLE_LED, Vec3(2.5, 2.5, 0.0))
        assert phi == pytest.approx(0.0, abs=1e-9)
        assert varphi == pytest.approx(0.0, abs=1e-9)
        assert d == pytest.approx(3.0, rel=1e-12)

    def test_offset_right_triangle(self):
        phi, varphi, d = link_angles(TABLE_LED, Vec3(5.5, 2.5, 0.0))
        assert phi == pytest.approx(45.0, rel=1e-12)
        assert varphi == pytest.approx(45.0, rel=1e-12)
        assert d == pytest.approx(math.hypot(3.0, 3.0), rel=1e-12)

    def test_user_above_downward_led(self):
        phi, _, _ = link_angles(TABLE_LED, Vec3(2.5, 2.5, 3.5))
        assert phi == pytest.approx(180.0, rel=1e-12)

    def test_coincident_positions_error(self):
        with pytest.raises(ValueError):
            link_angles(TABLE_LED, Vec3(2.5, 2.5, 3.0))


class TestConcentratorGain:
    def test_constant_gain_inside_fov(self):
        # kappa^2 / sin^2(60deg) = 2.25 / 0.75
        assert concentrator_gain(0.0, TABLE_PD) == pytest.approx(3.0, rel=1e-12)
        assert concentrator_gain(59.9, TABLE_PD) == pytest.approx(3.0, rel=1e-12)

    def test_zero_outside_fov(self):
        assert concentrator_gain(61.0, TABLE_PD) == 0.0

    def test_unit_concentrator(self):
        pd = PhotodiodeConfig(fov=90.0, refractive_index=1.0)
        assert concentrator_gain(0.0, pd) == pytest.approx(1.0, rel=1e-12)

    def test_angle_dependent_model(self):
        assert concentrator_gain(30.0, TABLE_PD, CONCENTRATOR_ANGLE_DEPENDENT) == pytest.approx(
            2.25 / math.sin(math.radians(30.0)) ** 2, rel=1e-12
        )
        with pytest.raises(ValueError):
            concentrator_gain(0.0, TABLE_PD, CONCENTRATOR_ANGLE_DEPENDENT)
        assert concentrator_gain(75.0, TABLE_PD, CONCENTRATOR_ANGLE_DEPENDENT) == 0.0

    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError):
            concentrator_gain(-1.0, TABLE_PD)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            concentrator_gain(10.0, TABLE_PD, "bogus")


class TestChannelGain:
    def test_table_device_directly_beneath(self):
        # hand evaluation: 2 * 1e-4 * 0.54 / (2 pi 9) * 3
        hand = 2.0 * 1e-4 * 0.54 / (2.0 * math.pi * 9.0) * 3.0
        g = gain_at(2.5, 2.5, 0.0)
        assert g == pytest.approx(hand, rel=1e-12)
        assert g == pytest.approx(5.7296e-6, rel=1e-4)

    def test_outside_fov_is_zero(self):
        # incidence angle atan(6/3) = 63.4deg exceeds the 60deg FOV
        assert gain_at(8.5, 2.5, 0.0) == 0.0

    def test_inverse_square_law(self):
        g_near = gain_at(2.5, 2.5, 1.5)
        g_far = gain_at(2.5, 2.5, 0.0)
        assert g_far == pytest.approx(g_near * (1.5 / 3.0) ** 2, rel=1e-12)

    def test_strictly_decreasing_along_fixed_ray(self):
        heights = np.linspace(2.4, 0.0, 9)
        gains = [gain_at(3.0, 3.0, h) for h in heights]
        assert all(gains[i] > gains[i + 1] > 0 for i in range(len(gains) - 1))

    def test_rotational_symmetry(self):
        radius = 1.7
        gains = []
        for az in (0.0, 0.7, 2.1, 4.4):
            x = 2.5 + radius * math.cos(az)
            y = 2.5 + radius * math.sin(az)
            gains.append(gain_at(x, y, 0.0))
        for g in gains[1:]:
            assert g == pytest.approx(gains[0], rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x, y = rng.uniform(-3, 8, 2)
            z = rng.uniform(-1, 4)
            if (x, y, z) == (2.5, 2.5, 3.0):
                continue
            assert gain_at(x, y, z) >= 0.0

    def test_behind_emission_hemisphere_is_zero(self):
        # an LED facing +x and a user below it on the -x side: the incidence
        # angle, 18.4 degrees, is inside the field of view, but the
        # irradiance angle, 108.4 degrees, is behind the emission hemisphere
        led = LedConfig(position=Vec3(2.5, 2.5, 3.0), orientation=Vec3(1.0, 0.0, 0.0))
        phi, varphi, _ = link_angles(led, Vec3(1.5, 2.5, 0.0))
        assert phi > 90.0 and varphi < TABLE_PD.fov
        assert gain_at(1.5, 2.5, 0.0, led) == 0.0
        assert gain_at(3.5, 2.5, 0.0, led) > 0.0  # the mirror user, in front of it


class TestConfigValidation:
    def test_led_invariants(self):
        with pytest.raises(ValueError):
            LedConfig(position=Vec3(0, 0, 3), p_led=0.0)
        with pytest.raises(ValueError):
            LedConfig(position=Vec3(0, 0, 3), dc_offset=-1.0)
        with pytest.raises(ValueError):
            LedConfig(position=Vec3(0, 0, 3), semi_angle_half=95.0)
        with pytest.raises(ValueError):
            LedConfig(position=Vec3(0, 0, 3), orientation=Vec3(0, 0, -2.0))

    def test_pd_invariants(self):
        with pytest.raises(ValueError):
            PhotodiodeConfig(area=-1e-4)
        with pytest.raises(ValueError):
            PhotodiodeConfig(fov=120.0)
        with pytest.raises(ValueError):
            PhotodiodeConfig(refractive_index=0.9)

    def test_vec3_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0.0, 0.0)
