"""Line-of-sight optical channel between a ceiling LED and a photodiode.

The downlink gain follows the generalized Lambertian emission model: the
LED radiates with order m set by its half-intensity semi-angle, and the
receiver collects through an optical filter and a non-imaging concentrator
that is blind outside its field of view.  All angles at the public
interface are in degrees; conversion to radians happens internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

UNIT_NORM_TOL = 1e-9

CONCENTRATOR_CONSTANT = "constant"
CONCENTRATOR_ANGLE_DEPENDENT = "angle-dependent"


@dataclass(frozen=True)
class Vec3:
    """Point or direction in room coordinates, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"Vec3.{name} must be a finite number, got {v!r}")

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))


DOWN = Vec3(0.0, 0.0, -1.0)
UP = Vec3(0.0, 0.0, 1.0)


def _require_unit(v: Vec3, what: str) -> None:
    if abs(v.norm() - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{what} must have unit norm, got |v| = {v.norm()!r}")


@dataclass(frozen=True)
class LedConfig:
    """Transmitter: emitted power, drive DC offset and radiation pattern."""

    position: Vec3
    p_led: float = 1.0              # emitted optical power, W
    dc_offset: float = 2.0          # drive-current DC offset, A
    semi_angle_half: float = 60.0   # half-intensity semi-angle, degrees
    orientation: Vec3 = field(default=DOWN)

    def __post_init__(self):
        if self.p_led <= 0:
            raise ValueError(f"LedConfig.p_led must be > 0, got {self.p_led!r}")
        if self.dc_offset <= 0:
            raise ValueError(f"LedConfig.dc_offset must be > 0, got {self.dc_offset!r}")
        if not 0.0 < self.semi_angle_half < 90.0:
            raise ValueError(
                f"LedConfig.semi_angle_half must lie in (0, 90) degrees, got {self.semi_angle_half!r}"
            )
        if math.cos(math.radians(self.semi_angle_half)) == 1.0:  # log2(cos) = 0: no Lambertian order
            raise ValueError(f"LedConfig.semi_angle_half is too narrow for a Lambertian order "
                             f"(its cosine rounds to 1), got {self.semi_angle_half!r}")
        _require_unit(self.orientation, "LedConfig.orientation")


@dataclass(frozen=True)
class PhotodiodeConfig:
    """Receiver front end: active area, responsivity, filter and concentrator."""

    area: float = 1e-4              # detection area, m^2
    responsivity: float = 0.54      # A/W
    fov: float = 60.0               # concentrator field of view, degrees
    filter_gain: float = 1.0        # optical filter gain
    refractive_index: float = 1.5   # concentrator refractive index

    def __post_init__(self):
        if self.area <= 0:
            raise ValueError(f"PhotodiodeConfig.area must be > 0, got {self.area!r}")
        if self.responsivity <= 0:
            raise ValueError(f"PhotodiodeConfig.responsivity must be > 0, got {self.responsivity!r}")
        if not 0.0 < self.fov <= 90.0:
            raise ValueError(f"PhotodiodeConfig.fov must lie in (0, 90] degrees, got {self.fov!r}")
        if self.filter_gain <= 0:
            raise ValueError(f"PhotodiodeConfig.filter_gain must be > 0, got {self.filter_gain!r}")
        if self.refractive_index < 1.0:
            raise ValueError(
                f"PhotodiodeConfig.refractive_index must be >= 1, got {self.refractive_index!r}"
            )


def lambertian_order(semi_angle_half: float) -> float:
    """Lambertian order m = -1 / log2(cos(semi-angle)), semi-angle in degrees.

    A 60 degree half-intensity semi-angle gives m = 1 (the classic cosine
    emitter); narrower beams give larger m.
    """
    if not 0.0 < semi_angle_half < 90.0:
        raise ValueError(
            f"semi_angle_half must lie strictly in (0, 90) degrees, got {semi_angle_half!r}"
        )
    return -1.0 / math.log2(math.cos(math.radians(semi_angle_half)))


def _ray_angles(rx: float, ry: float, rz: float, orientation: Vec3) -> tuple[float, float, float]:
    """Irradiance angle (from the LED's ``orientation``), incidence angle (from
    the upward photodiode normal ``UP``), in degrees, and length (m) of the
    LED-to-user ray (rx, ry, rz), on plain floats."""
    d = math.sqrt(rx * rx + ry * ry + rz * rz)
    if d == 0.0:
        raise ValueError("user position coincides with the LED position")
    cos_phi = (orientation.x * rx + orientation.y * ry + orientation.z * rz) / d
    cos_varphi = (UP.x * -rx + UP.y * -ry + UP.z * -rz) / d
    phi = math.degrees(math.acos(min(1.0, max(-1.0, cos_phi))))
    varphi = math.degrees(math.acos(min(1.0, max(-1.0, cos_varphi))))
    return phi, varphi, d


def concentrator_gain(varphi: float, pd: PhotodiodeConfig, model: str = CONCENTRATOR_CONSTANT) -> float:
    """Non-imaging concentrator gain at incidence angle ``varphi`` (degrees).

    The default ``constant`` model applies the textbook flat gain
    kappa^2 / sin^2(FOV) anywhere inside the field of view and zero outside.
    The ``angle-dependent`` model instead evaluates kappa^2 / sin^2(varphi),
    which diverges at normal incidence and is therefore rejected at
    varphi = 0; it exists for side-by-side comparison of the two readings.
    """
    if varphi < 0.0:
        raise ValueError(f"incidence angle must be >= 0 degrees, got {varphi!r}")
    if varphi > pd.fov:
        return 0.0
    kappa2 = pd.refractive_index**2
    if model == CONCENTRATOR_CONSTANT:
        return kappa2 / math.sin(math.radians(pd.fov)) ** 2
    if model == CONCENTRATOR_ANGLE_DEPENDENT:
        if varphi == 0.0:
            raise ValueError("angle-dependent concentrator gain diverges at normal incidence")
        return kappa2 / math.sin(math.radians(varphi)) ** 2
    raise ValueError(f"unknown concentrator model {model!r}")


def ray_gain(
    rx: float,
    ry: float,
    rz: float,
    led: LedConfig,
    pd: PhotodiodeConfig,
    model: str = CONCENTRATOR_CONSTANT,
) -> float:
    """DC channel gain of the LED-to-photodiode line-of-sight link along the ray (rx, ry, rz).

    g = (m+1) A R / (2 pi d^2) * cos^m(phi) * T_s * T_f(varphi) * cos(varphi)

    for an upward-facing photodiode at the end of the LED-to-user ray.  The
    gain is zero whenever the incidence angle falls outside the
    concentrator field of view, and likewise when the user sits behind the
    LED emission hemisphere (irradiance angle >= 90 degrees), so the result
    is always nonnegative.  The experiment's block generator calls it once
    per user, on plain floats: it stays on ``math``, as numpy's vectorised
    acos/cos/degrees differ from it in the last bit for some positions.
    """
    phi, varphi, d = _ray_angles(rx, ry, rz, led.orientation)
    if varphi > pd.fov or phi >= 90.0:
        return 0.0
    m = lambertian_order(led.semi_angle_half)
    t_f = concentrator_gain(varphi, pd, model)
    geometry = (m + 1.0) * pd.area * pd.responsivity / (2.0 * math.pi * d * d)
    return (
        geometry
        * math.cos(math.radians(phi)) ** m
        * pd.filter_gain
        * t_f
        * math.cos(math.radians(varphi))
    )
