"""Gaussian-beam far-field optics for a truncated-aperture transmitter.

Everything here is a pure function of its inputs.  Angles always travel with
an explicit convention (:class:`Convention`) because the two common ways to
quote a beam divergence -- full width at half maximum intensity, and the full
angle at 1/e^2 intensity -- differ by a factor of ``sqrt(ln 2 / 2) ~ 0.589``
for a Gaussian profile, and mixing them up silently wrecks a link budget.

Units are SI throughout: meters, radians, watts.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from ._checks import finite, integer
from ._roots import brentq

__all__ = [
    "Convention",
    "DivergenceAngle",
    "GaussianBeam",
    "AperturedBeam",
    "QuadratureError",
    "FWHM_PER_FULL_1E2",
    "convert_divergence",
    "untruncated_divergence",
    "farfield_intensity",
    "truncated_fwhm",
    "transmit_gain",
    "transmit_gain_db",
    "footprint",
]

# FWHM of a Gaussian far-field profile over its full 1/e^2 angle.
FWHM_PER_FULL_1E2 = math.sqrt(math.log(2.0) / 2.0)

# Wavelength band accepted for C-band transmitter configs.
C_BAND_MIN_M = 1.50e-6
C_BAND_MAX_M = 1.60e-6


class Convention(enum.Enum):
    """How a divergence angle is quoted."""

    FWHM = "fwhm"
    FULL_1E2 = "full_1e2"


class QuadratureError(RuntimeError):
    """Far-field quadrature or root bracketing failed its self-check."""


@dataclass(frozen=True)
class DivergenceAngle:
    """A full divergence angle in radians tagged with its convention."""

    value: float
    convention: Convention

    def __post_init__(self) -> None:
        finite("divergence angle", self.value, gt=0)
        if not isinstance(self.convention, Convention):
            raise ValueError(f"unknown divergence convention: {self.convention!r}")

    def to(self, target: Convention) -> "DivergenceAngle":
        return convert_divergence(self, target)

    @property
    def fwhm(self) -> float:
        """Value expressed as FWHM, radians."""
        return self.to(Convention.FWHM).value

    @property
    def full_1e2(self) -> float:
        """Value expressed as full 1/e^2 angle, radians."""
        return self.to(Convention.FULL_1E2).value


@dataclass(frozen=True)
class GaussianBeam:
    """Collimated Gaussian beam described by its 1/e^2 intensity diameter.

    Parameters
    ----------
    waist_diameter_1e2 : float
        Diameter where intensity falls to 1/e^2 of the axial value, meters.
    wavelength : float
        Vacuum wavelength, meters.  Restricted to the C band, the only band
        the transmitter is specified for.
    """

    waist_diameter_1e2: float
    wavelength: float

    def __post_init__(self) -> None:
        finite("waist diameter", self.waist_diameter_1e2, gt=0)
        if not (C_BAND_MIN_M <= self.wavelength <= C_BAND_MAX_M):
            raise ValueError(
                f"wavelength {self.wavelength} m outside C band "
                f"[{C_BAND_MIN_M}, {C_BAND_MAX_M}] m"
            )

    @property
    def waist_radius_1e2(self) -> float:
        return 0.5 * self.waist_diameter_1e2


@dataclass(frozen=True)
class AperturedBeam:
    """Gaussian beam truncated by a circular clear aperture.

    The truncation ratio is aperture radius over 1/e^2 field radius; 1.12
    maximizes on-axis far-field gain for an unobscured aperture.
    """

    beam: GaussianBeam
    aperture_diameter: float

    def __post_init__(self) -> None:
        finite("aperture diameter", self.aperture_diameter, gt=0)

    @property
    def truncation_ratio(self) -> float:
        return self.aperture_diameter / self.beam.waist_diameter_1e2


def convert_divergence(angle: DivergenceAngle, target: Convention) -> DivergenceAngle:
    """Convert between FWHM and full-1/e^2 divergence conventions.

    For a Gaussian far field ``FWHM = FULL_1E2 * sqrt(ln 2 / 2)``.  Each
    direction rounds once, so a round trip returns the angle to within one
    ulp, not always exactly.
    """
    if angle.convention is target:
        return angle
    if target is Convention.FWHM:
        return DivergenceAngle(angle.value * FWHM_PER_FULL_1E2, Convention.FWHM)
    return DivergenceAngle(angle.value / FWHM_PER_FULL_1E2, Convention.FULL_1E2)


def untruncated_divergence(beam: GaussianBeam) -> DivergenceAngle:
    """Far-field full 1/e^2 divergence of the untruncated Gaussian, 4*lambda/(pi*D)."""
    theta = 4.0 * beam.wavelength / (math.pi * beam.waist_diameter_1e2)
    return DivergenceAngle(theta, Convention.FULL_1E2)


# Shared self-check bound: the most that doubling the radial rule may move an intensity.
CHECK_TOL = 1e-9

# Rows of the far-field kernel evaluated at a time.  A multiple of 4, so that
# every full block meets the matrix-vector product's row unrolling the same way.
_BLOCK_ROWS = 256

_ON_AXIS = np.zeros(1)


@functools.lru_cache(maxsize=16)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Node generation is O(n^2); cache it, the rule is reused constantly.
    return np.polynomial.legendre.leggauss(n_nodes)


def _radial_rule(apertured: AperturedBeam, n_nodes: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for ``U(theta) = int_0^a exp(-(r/w)^2) J0(k r theta) r dr``.

    Returns ``(k, r, weights)`` with the field and the ``r dr`` measure folded
    into the weights, so ``U(theta) = J0(k theta r) @ weights``.  The
    integrand is smooth, so the rule converges spectrally.
    """
    a = 0.5 * apertured.aperture_diameter
    w = apertured.beam.waist_radius_1e2
    x, wt = _leggauss(n_nodes)
    r = 0.5 * a * (x + 1.0)
    weights = np.exp(-((r / w) ** 2)) * r * (0.5 * a * wt)
    return 2.0 * math.pi / apertured.beam.wavelength, r, weights


def _amplitude(rule: tuple[float, np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """Far-field amplitude at ``angles`` (1-D), in blocks of ``_BLOCK_ROWS`` kernel rows."""
    k, r, weights = rule
    out = np.empty(angles.size)
    for i in range(0, angles.size, _BLOCK_ROWS):
        out[i:i + _BLOCK_ROWS] = j0(k * np.outer(angles[i:i + _BLOCK_ROWS], r)) @ weights
    return out


def _intensity(rule: tuple[float, np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """Intensity at ``angles`` normalized by the rule's own on-axis amplitude."""
    return (_amplitude(rule, angles) / _amplitude(rule, _ON_AXIS)[0]) ** 2


def _check_converged(coarse: np.ndarray, fine: np.ndarray, n_nodes: int, check_tol: float) -> None:
    worst = float(np.max(np.abs(fine - coarse), initial=0.0))
    if worst > check_tol:
        raise QuadratureError(
            f"far-field quadrature not converged at n_nodes={n_nodes}: "
            f"grid doubling moved intensity by {worst:.3e}"
        )


def farfield_intensity(
    apertured: AperturedBeam,
    angles,
    n_nodes: int = 256,
    check_tol: float = CHECK_TOL,
) -> np.ndarray:
    """Normalized far-field intensity of the truncated Gaussian beam.

    Parameters
    ----------
    apertured : AperturedBeam
        Beam and clear aperture.
    angles : array_like
        Off-axis angles in radians, non-negative and sorted ascending.
    n_nodes : int
        Radial quadrature resolution, >= 1.  Convergence is self-checked by
        recomputing with ``2 * n_nodes`` nodes.
    check_tol : float
        Maximum allowed intensity difference between the two grids, finite
        and >= 0.

    Returns
    -------
    ndarray
        Intensity normalized to 1 at theta = 0.

    Raises
    ------
    QuadratureError
        If grid doubling moves any returned value by more than ``check_tol``.
    """
    integer("n_nodes", n_nodes, ge=1)
    finite("check_tol", check_tol, ge=0)
    th = np.asarray(angles, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise ValueError("angles must be a non-empty 1-D sequence")
    finite("angles", th, ge=0)
    if np.any(np.diff(th) < 0.0):
        raise ValueError("angles must be sorted ascending")
    fine = _intensity(_radial_rule(apertured, 2 * n_nodes), th)
    _check_converged(_intensity(_radial_rule(apertured, n_nodes), th), fine, n_nodes, check_tol)
    return fine


def truncated_fwhm(apertured: AperturedBeam, n_nodes: int = 256) -> DivergenceAngle:
    """Half-intensity full width of the truncated-Gaussian far field.

    Root-finds the angle where the ``2 * n_nodes`` intensity crosses 0.5 and
    doubles it.  Every angle the search visits is then checked against the
    ``n_nodes`` rule in one batch, under the same bound as
    :func:`farfield_intensity`.  Deterministic for a fixed quadrature
    resolution.
    """
    integer("n_nodes", n_nodes, ge=1)
    fine_rule = _radial_rule(apertured, 2 * n_nodes)
    u0 = _amplitude(fine_rule, _ON_AXIS)[0]
    visited: list[float] = []
    fine: list[float] = []

    def half_excess(theta: float) -> float:
        value = float(((_amplitude(fine_rule, np.array([theta])) / u0) ** 2)[0])
        visited.append(theta)
        fine.append(value)
        return value - 0.5

    try:
        # Bracket the half-intensity crossing starting from the untruncated
        # half-angle, which always lies inside the main lobe.
        lo = 0.0
        hi = 0.5 * untruncated_divergence(apertured.beam).value
        for _ in range(80):
            if half_excess(hi) < 0.0:
                break
            lo = hi
            hi *= 1.4
        else:
            raise QuadratureError("failed to bracket the half-intensity angle")
        half_angle = brentq(half_excess, lo, hi, xtol=1e-14, rtol=1e-13)
    finally:
        # An unconverged rule outranks whatever the search made of its values.
        coarse = _intensity(_radial_rule(apertured, n_nodes), np.array(visited))
        _check_converged(coarse, np.array(fine), n_nodes, CHECK_TOL)
    return DivergenceAngle(2.0 * half_angle, Convention.FWHM)


def transmit_gain(theta: DivergenceAngle) -> float:
    """On-axis transmit antenna gain ``16 / theta^2``.

    ``theta`` must already be expressed as the full 1/e^2 angle; convert
    first.  ``gain * theta^2`` is 16 to within one ulp of 16, not always
    exactly.
    """
    if theta.convention is not Convention.FULL_1E2:
        raise ValueError("transmit_gain expects a FULL_1E2 angle; convert first")
    return 16.0 / theta.value**2


def transmit_gain_db(theta: DivergenceAngle) -> float:
    """Transmit gain in dB."""
    return 10.0 * math.log10(transmit_gain(theta))


def footprint(theta_fwhm: DivergenceAngle, distance: float) -> float:
    """Beam footprint diameter ``theta * distance`` at the receiver, meters.

    Small-angle geometry only (theta < 0.1 rad).
    """
    if theta_fwhm.convention is not Convention.FWHM:
        raise ValueError("footprint expects an FWHM angle; convert first")
    if theta_fwhm.value >= 0.1:
        raise ValueError("footprint is a small-angle formula; theta must be < 0.1 rad")
    return theta_fwhm.value * finite("distance", distance, gt=0)
