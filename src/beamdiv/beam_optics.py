"""Gaussian-beam far-field optics for a truncated-aperture transmitter.

Everything here is a pure function of its inputs.  Angles in this module
travel with an explicit convention (:class:`Convention`) because the two
common ways to quote a beam divergence -- full width at half maximum
intensity, and the full angle at 1/e^2 intensity -- differ by a factor of
``sqrt(ln 2 / 2) ~ 0.589`` for a Gaussian profile, and mixing them up
silently wrecks a link budget.  A :class:`DivergenceAngle` converts itself
where it is used: the transmit gain reads its full 1/e^2 angle and the
footprint its FWHM, whichever convention it was quoted in.  Outside this
module and the link budget's transmit divergence, every angle is a bare FWHM
float in radians: the actuator, the policy, the pass columns and the
calibration files.

Units are SI throughout: meters, radians, watts.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._checks import finite, integer, member
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
        member("divergence convention", self.convention, Convention)

    def to(self, target: Convention) -> "DivergenceAngle":
        return convert_divergence(self, target)

    @property
    def fwhm(self) -> float:
        """Value expressed as FWHM, radians."""
        return self.value if self.convention is Convention.FWHM else self.value * FWHM_PER_FULL_1E2

    @property
    def full_1e2(self) -> float:
        """Value expressed as full 1/e^2 angle, radians."""
        return self.value if self.convention is Convention.FULL_1E2 else self.value / FWHM_PER_FULL_1E2


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
        finite("wavelength", self.wavelength, ge=C_BAND_MIN_M, le=C_BAND_MAX_M)

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
    return DivergenceAngle(angle.fwhm if target is Convention.FWHM else angle.full_1e2, target)


def untruncated_divergence(beam: GaussianBeam) -> DivergenceAngle:
    """Far-field full 1/e^2 divergence of the untruncated Gaussian, 4*lambda/(pi*D)."""
    theta = 4.0 * beam.wavelength / (math.pi * beam.waist_diameter_1e2)
    return DivergenceAngle(theta, Convention.FULL_1E2)


# Shared self-check bound: the most that doubling the radial rule may move an intensity.
CHECK_TOL = 1e-9

# Rows of the far-field kernel evaluated at a time.  A multiple of 4, so that
# every full block meets the matrix-vector product's row unrolling the same way.
# Blocks are independent and run on every core the process may use, each lane
# holding one block buffer at a time; a block's floats do not depend on which
# lane computes it.
_BLOCK_ROWS = 256

_ON_AXIS = np.zeros(1)


@functools.cache
def _scipy_j0():
    from scipy.special import j0

    return j0


def j0(x, out=None):
    """``scipy.special.j0``, imported on the first call.

    The far field is SciPy's only user in the package, so ``import beamdiv``
    and the CLI commands that never reach it do not load SciPy.
    """
    return _scipy_j0()(x, out=out)


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


def _lanes(blocks: int) -> int:
    """Threads for ``blocks`` kernel blocks: the cores this process may use, at most one per block."""
    if blocks <= 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return min(cores, blocks)


def _block(rule: tuple[float, np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """``j0(k * outer(angles, r)) @ weights``, the same floats, in one buffer that dies on return."""
    k, r, weights = rule
    m = np.outer(angles, r)
    m *= k
    j0(m, out=m)
    return m @ weights


def _amplitude(rule: tuple[float, np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """Far-field amplitude at ``angles`` (1-D), in blocks of ``_BLOCK_ROWS`` kernel rows.

    The calling thread is one lane; with more than one lane the others run
    in a pool that lives for this call only.  Every lane pulls block starts
    from one shared iterator, and ``j0`` and the matrix-vector product
    release the GIL, so the blocks overlap.  The result is bit for bit the
    one-lane result.  An exception in any lane re-raises here.
    """
    out = np.empty(angles.size)
    starts = iter(range(0, angles.size, _BLOCK_ROWS))

    def lane() -> None:
        for i in starts:
            out[i:i + _BLOCK_ROWS] = _block(rule, angles[i:i + _BLOCK_ROWS])

    lanes = _lanes(-(-angles.size // _BLOCK_ROWS))
    if lanes == 1:
        lane()
        return out
    # Imported here: SciPy has loaded most of it by now, and ``import beamdiv`` stays lean.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(lanes - 1) as pool:
        others = [pool.submit(lane) for _ in range(lanes - 1)]
        lane()
    for other in others:
        other.result()
    return out


def _intensity(rule: tuple[float, np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """Intensity at ``angles`` normalized by the rule's own on-axis amplitude."""
    return (_amplitude(rule, angles) / _amplitude(rule, _ON_AXIS)[0]) ** 2


def _check_converged(coarse: np.ndarray, fine: np.ndarray, n_nodes: int) -> None:
    worst = float(np.max(np.abs(fine - coarse), initial=0.0))
    if worst > CHECK_TOL:
        raise QuadratureError(
            f"far-field quadrature not converged at n_nodes={n_nodes}: "
            f"grid doubling moved intensity by {worst:.3e}"
        )


def farfield_intensity(
    apertured: AperturedBeam,
    angles,
    n_nodes: int = 256,
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

    Returns
    -------
    ndarray
        Intensity normalized to 1 at theta = 0.

    Raises
    ------
    QuadratureError
        If grid doubling moves any returned value by more than ``CHECK_TOL``.
    """
    integer("n_nodes", n_nodes, ge=1)
    th = np.asarray(angles, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise ValueError("angles must be a non-empty 1-D sequence")
    finite("angles", th, ge=0)
    if np.any(np.diff(th) < 0.0):
        raise ValueError("angles must be sorted ascending")
    fine = _intensity(_radial_rule(apertured, 2 * n_nodes), th)
    _check_converged(_intensity(_radial_rule(apertured, n_nodes), th), fine, n_nodes)
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
        _check_converged(coarse, np.array(fine), n_nodes)
    return DivergenceAngle(2.0 * half_angle, Convention.FWHM)


def transmit_gain(theta: DivergenceAngle) -> float:
    """On-axis transmit antenna gain ``16 / theta^2``, ``theta`` the full 1/e^2 angle.

    An angle quoted in another convention is converted first.  ``gain *
    theta^2`` is 16 to within one ulp of 16, not always exactly.
    """
    return 16.0 / theta.full_1e2**2


def transmit_gain_db(theta: DivergenceAngle) -> float:
    """Transmit gain in dB: the link budget's gain kernel at ``theta``'s full 1/e^2 angle."""
    return float(_tx_gain_kernel(theta.full_1e2))


def _tx_gain_kernel(theta_full_1e2: np.ndarray) -> np.ndarray:
    """Transmit gain ``10 log10(16 / theta^2)``, dB, per full 1/e^2 angle; overflow saturates to inf."""
    with np.errstate(over="ignore", divide="ignore"):
        return 10.0 * np.log10(16.0 / np.square(theta_full_1e2))


def footprint(theta: DivergenceAngle, distance: float) -> float:
    """Beam footprint diameter ``theta * distance`` at the receiver, meters, ``theta`` the FWHM angle.

    Small-angle geometry only (FWHM < 0.1 rad).
    """
    return finite("theta_fwhm", theta.fwhm, lt=0.1) * finite("distance", distance, gt=0)
