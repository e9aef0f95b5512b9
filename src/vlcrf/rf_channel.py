"""Rician-faded uplink RF channel amplitudes, reproducible from a seed.

The deterministic line-of-sight magnitude follows an amplitude-domain
power law anchored at 1 m; the scattered part is a circularly-symmetric
complex Gaussian whose variance equals the LOS power, so the K-factor has
its textbook meaning as the LOS-to-scatter power ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIXING_NORMALIZED = "normalized"
MIXING_UNNORMALIZED = "unnormalized"


@dataclass(frozen=True)
class RicianConfig:
    k_factor: float = 2.0             # LOS-to-scatter power ratio
    los_reference_gain: float = 1e-3  # amplitude at 1 m
    path_loss_exponent: float = 2.0   # power-domain exponent

    def __post_init__(self):
        if self.k_factor < 0:
            raise ValueError(f"RicianConfig.k_factor must be >= 0, got {self.k_factor!r}")
        if self.los_reference_gain <= 0:
            raise ValueError(
                f"RicianConfig.los_reference_gain must be > 0, got {self.los_reference_gain!r}"
            )
        if self.path_loss_exponent < 1.0:
            raise ValueError(
                f"RicianConfig.path_loss_exponent must be >= 1, got {self.path_loss_exponent!r}"
            )


def los_component(cfg: RicianConfig, distance: float) -> float:
    """Deterministic LOS amplitude at ``distance`` meters.

    Amplitude falls as d^(-exponent/2) so that power falls as d^(-exponent).
    """
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0 m, got {distance!r}")
    return cfg.los_reference_gain * distance ** (-cfg.path_loss_exponent / 2.0)


def mixing_weights(cfg: RicianConfig, mixing: str = MIXING_NORMALIZED) -> tuple[float, float]:
    """(LOS weight, scatter weight) of a mixing rule.

    The ``normalized`` mix sqrt(K/(1+K)) * LOS + sqrt(1/(1+K)) * NLOS
    preserves E[|h|^2] = LOS^2.  The ``unnormalized`` variant applies the
    LOS weight sqrt(K/(1+K)) to both terms and does not preserve power; it
    exists only for comparison and degenerates to zero at K = 0.
    """
    k = cfg.k_factor
    w_los = math.sqrt(k / (1.0 + k))
    if mixing == MIXING_NORMALIZED:
        return w_los, math.sqrt(1.0 / (1.0 + k))
    if mixing == MIXING_UNNORMALIZED:
        return w_los, w_los
    raise ValueError(f"unknown mixing {mixing!r}")


def rician_mix(los, re, im, weights: tuple[float, float]) -> np.ndarray:
    """|w_los LOS + w_nlos LOS (re + j im) / sqrt(2)| per draw: the fading amplitudes.

    The experiment's block generator mixes its whole block in one call;
    ``los`` is a float or an array shaped like the standard normal draws
    ``re`` and ``im``, and ``weights`` is ``mixing_weights``.
    """
    w_los, w_nlos = weights
    nlos = los * (re + 1j * im) / math.sqrt(2.0)
    return np.abs(w_los * los + w_nlos * nlos)
