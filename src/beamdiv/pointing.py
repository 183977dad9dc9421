"""Pointing-jitter loss and optimum beam-divergence selection.

The mean power penalty from residual pointing jitter is modeled as
``L_p = 10**(-2 * beta**2)`` with ``beta = 2 * sigma / theta_d``, where
``sigma`` is the pointing accuracy and ``theta_d`` the full transmit
divergence.  Together with a transmit gain that falls off with divergence
this gives a well-defined optimum ``theta_d`` for each ``sigma``.

Two gain conventions are supported because the quadratic law ``G ~ 1/theta^2``
is the dimensionally standard one, while some published dB deltas are only
reproduced by a linear ``G ~ 1/theta`` reading.  Both are provided and the
caller picks; nothing here guesses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GainConvention",
    "PointingModel",
    "pointing_loss",
    "pointing_loss_db",
    "rule_of_thumb_divergence",
    "optimal_divergence",
    "gain_improvement_db",
    "sweep_optimal_divergence",
]

# Closed-form optimizer constants: theta* / sigma for each gain convention.
_OPT_FACTOR_QUADRATIC = math.sqrt(8.0 * math.log(10.0))   # ~4.2919
_OPT_FACTOR_LINEAR = 4.0 * math.sqrt(math.log(10.0))      # ~6.0697


class GainConvention(enum.Enum):
    """Transmit-gain scaling used when trading gain against pointing loss."""

    QUADRATIC = "quadratic"  # G proportional to 1/theta^2
    LINEAR = "linear"        # G proportional to 1/theta


@dataclass(frozen=True)
class PointingModel:
    """Pointing accuracy sigma plus a note on how the number was obtained.

    Vendor attitude-control specs come in many flavors (3-sigma, per axis,
    half cone...).  ``source_note`` records the interpretation applied, e.g.
    ``"0.021 deg vendor spec taken as sigma"``, instead of silently rescaling.
    """

    sigma: float
    source_note: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def pointing_loss(sigma: float, theta_d: float) -> float:
    """Mean pointing-loss fraction ``10**(-2 beta^2)``, in (0, 1]."""
    if not (math.isfinite(theta_d) and theta_d > 0.0):
        raise ValueError(f"theta_d must be finite and > 0, got {theta_d}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    beta = 2.0 * sigma / theta_d
    return 10.0 ** (-2.0 * beta**2)


def pointing_loss_db(sigma: float, theta_d: float) -> float:
    """Pointing loss in dB: ``10*log10(L_p) = -20 beta^2`` (always <= 0)."""
    if not (math.isfinite(theta_d) and theta_d > 0.0):
        raise ValueError(f"theta_d must be finite and > 0, got {theta_d}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    beta = 2.0 * sigma / theta_d
    return -20.0 * beta**2


def rule_of_thumb_divergence(sigma: float) -> float:
    """The 5-sigma rule of thumb for the operating divergence.

    Raises for ``sigma == 0``: there is no finite optimum without jitter and
    the caller must clamp to the hardware minimum instead.
    """
    if sigma <= 0.0:
        raise ValueError("rule_of_thumb_divergence needs sigma > 0; clamp to the hardware minimum instead")
    return 5.0 * sigma


def optimal_divergence(sigma: float, convention: GainConvention) -> float:
    """Exact maximizer of gain times pointing loss.

    QUADRATIC: ``theta* = sigma * sqrt(8 ln 10)`` (~4.2919 sigma).
    LINEAR:    ``theta* = 4 sigma * sqrt(ln 10)`` (~6.0697 sigma).
    Scale-invariant: ``theta*(k sigma) = k theta*(sigma)``.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if convention is GainConvention.QUADRATIC:
        return sigma * _OPT_FACTOR_QUADRATIC
    if convention is GainConvention.LINEAR:
        return sigma * _OPT_FACTOR_LINEAR
    raise ValueError(f"unknown gain convention: {convention!r}")


def gain_improvement_db(theta_ref: float, theta_new: float, convention: GainConvention) -> float:
    """Gain gained (dB) by narrowing the divergence from theta_ref to theta_new."""
    if theta_ref <= 0.0 or theta_new <= 0.0:
        raise ValueError("divergence angles must be > 0")
    ratio = theta_ref / theta_new
    if convention is GainConvention.LINEAR:
        return 10.0 * math.log10(ratio)
    if convention is GainConvention.QUADRATIC:
        return 20.0 * math.log10(ratio)
    raise ValueError(f"unknown gain convention: {convention!r}")


def _objective(theta: np.ndarray, sigma: float, convention: GainConvention) -> np.ndarray:
    gain = 16.0 / theta**2 if convention is GainConvention.QUADRATIC else 16.0 / theta
    return gain * 10.0 ** (-2.0 * (2.0 * sigma / theta) ** 2)


def sweep_optimal_divergence(
    sigma: float,
    convention: GainConvention,
    lo: float,
    hi: float,
    n_points: int = 1000,
    refinements: int = 3,
) -> float:
    """Brute-force maximizer of gain times pointing loss on a log-spaced grid.

    Sweeps ``n_points`` log-spaced angles over [lo, hi], then re-sweeps the
    bracket around the argmax ``refinements`` more times.  This is the
    independent oracle for :func:`optimal_divergence`; it never uses the
    closed form.
    """
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    theta = np.geomspace(lo, hi, n_points)
    for _ in range(refinements + 1):
        i = int(np.argmax(_objective(theta, sigma, convention)))
        lo_i = theta[max(i - 1, 0)]
        hi_i = theta[min(i + 1, n_points - 1)]
        best = theta[i]
        theta = np.geomspace(lo_i, hi_i, n_points)
    return float(best)
