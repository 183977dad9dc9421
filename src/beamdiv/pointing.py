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
import functools
import math

import numpy as np

from ._checks import finite

__all__ = [
    "GainConvention",
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

# Brute-force oracle: log-spaced angles per sweep, and re-sweeps around the argmax.
_SWEEP_POINTS = 1000
_SWEEP_REFINEMENTS = 3


class GainConvention(enum.Enum):
    """Transmit-gain scaling used when trading gain against pointing loss."""

    QUADRATIC = "quadratic"  # G proportional to 1/theta^2
    LINEAR = "linear"        # G proportional to 1/theta


def pointing_loss(sigma: float, theta_d: float) -> float:
    """Mean pointing-loss fraction ``10**(-2 beta^2)``, in [0, 1]."""
    return 10.0 ** (pointing_loss_db(sigma, theta_d) / 10.0)


def pointing_loss_db(sigma, theta_d):
    """Pointing loss in dB, ``10*log10(L_p) = -20 beta^2`` (always <= 0), of floats or columns alike.

    ``beta = 2 sigma / theta_d``, and ``beta * beta`` is its correctly
    rounded square; past about 1.3e154 it saturates to inf, a total loss.
    A column gives, element for element, the floats each element gives alone.
    """
    finite("theta_d", theta_d, gt=0)
    finite("sigma", sigma, ge=0)
    with np.errstate(over="ignore"):
        beta = 2.0 * sigma / theta_d
        return -20.0 * (beta * beta)


def rule_of_thumb_divergence(sigma):
    """The 5-sigma rule of thumb for the operating divergence (of a sigma or an array of them).

    Raises for ``sigma == 0``: there is no finite optimum without jitter and
    the caller must clamp to the hardware minimum instead.
    """
    return 5.0 * finite("sigma", sigma, gt=0)


def optimal_divergence(sigma, convention: GainConvention):
    """Exact maximizer of gain times pointing loss, for a sigma or an array of them.

    QUADRATIC: ``theta* = sigma * sqrt(8 ln 10)`` (~4.2919 sigma).
    LINEAR:    ``theta* = 4 sigma * sqrt(ln 10)`` (~6.0697 sigma).
    Scale-invariant up to rounding: ``theta*(k sigma)`` and ``k theta*(sigma)``
    differ by at most 2 ulps, since each side rounds twice.
    """
    finite("sigma", sigma, gt=0)
    if convention is GainConvention.QUADRATIC:
        return sigma * _OPT_FACTOR_QUADRATIC
    if convention is GainConvention.LINEAR:
        return sigma * _OPT_FACTOR_LINEAR
    raise ValueError(f"unknown gain convention: {convention!r}")


def gain_improvement_db(theta_ref: float, theta_new: float, convention: GainConvention) -> float:
    """Gain gained (dB) by narrowing the divergence from theta_ref to theta_new."""
    finite("theta_ref", theta_ref, gt=0)
    finite("theta_new", theta_new, gt=0)
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
) -> float:
    """Brute-force maximizer of gain times pointing loss on a log-spaced grid.

    Sweeps ``_SWEEP_POINTS`` log-spaced angles over [lo, hi], then re-sweeps
    the bracket around the argmax ``_SWEEP_REFINEMENTS`` more times.  This is
    the independent oracle for :func:`optimal_divergence`; it never uses the
    closed form.
    """
    finite("sigma", sigma, gt=0)
    finite("hi", hi, gt=finite("lo", lo, gt=0))
    theta = _log_grid(lo, hi, _SWEEP_POINTS)
    for _ in range(_SWEEP_REFINEMENTS):
        i = int(np.argmax(_objective(theta, sigma, convention)))
        theta = _log_grid(theta[max(i - 1, 0)], theta[min(i + 1, _SWEEP_POINTS - 1)], _SWEEP_POINTS)
    return float(theta[np.argmax(_objective(theta, sigma, convention))])


@functools.lru_cache(maxsize=8)
def _steps(n: int) -> np.ndarray:
    steps = np.arange(n, dtype=float)
    steps.flags.writeable = False
    return steps


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)`` bit for bit, for ``0 < lo <= hi`` and ``n >= 1``.

    The same arithmetic -- numpy ``log10`` of the endpoints, ``y * step +
    start``, ``10**y``, both endpoints pinned -- without geomspace's dtype
    and sign handling, which costs more than the grid itself.
    """
    start, stop = np.log10(float(lo)), np.log10(float(hi))
    grid = np.power(10.0, _steps(n) * ((stop - start) / max(n - 1, 1)) + start)
    grid[-1] = hi
    grid[0] = lo
    return grid
