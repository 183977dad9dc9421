"""The far field computed per evaluation: the oracle for ``beam_optics.truncated_fwhm`` and its profiles.

Written apart from the package: the Gauss-Legendre rules come from
``leggauss`` on every call's node count, and every angle the FWHM search
visits runs the full n / 2n self-check on its own, so tests compare the
package's batched, stored-rule solver against an independent statement of
the same integral.
"""

import functools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

from beamdiv.beam_optics import QuadratureError, untruncated_divergence


@functools.lru_cache(maxsize=None)
def _nodes(n):
    return np.polynomial.legendre.leggauss(n)


def reference_amplitude(apertured, angles, n):
    """``int_0^a exp(-(r/w)^2) J0(k r theta) r dr`` at each angle, by the ``n``-node rule."""
    a = 0.5 * apertured.aperture_diameter
    w = apertured.beam.waist_radius_1e2
    k = 2.0 * math.pi / apertured.beam.wavelength
    x, wt = _nodes(n)
    r = 0.5 * a * (x + 1.0)
    base = np.exp(-((r / w) ** 2)) * r * (0.5 * a * wt)
    return j0(k * np.outer(np.asarray(angles, dtype=float), r)) @ base


def reference_fwhm(apertured, n_nodes=256):
    """The per-evaluation solver: every angle the search visits runs the full n / 2n self-check.

    Returns the FWHM from the ``2 * n_nodes`` rule and the visited angles.
    At ``n_nodes = 256`` ``truncated_fwhm`` must give the same float and
    raise ``QuadratureError`` on the same inputs.
    """
    visited = []

    def half_excess(theta):
        visited.append(theta)
        coarse, fine = (
            (reference_amplitude(apertured, [theta], n) / reference_amplitude(apertured, [0.0], n)[0]) ** 2
            for n in (n_nodes, 2 * n_nodes)
        )
        if float(np.max(np.abs(fine - coarse))) > 1e-9:
            raise QuadratureError("not converged")
        return float(fine[0]) - 0.5

    lo, hi = 0.0, 0.5 * untruncated_divergence(apertured.beam).value
    for _ in range(80):
        if half_excess(hi) < 0.0:
            break
        lo, hi = hi, hi * 1.4
    else:
        raise QuadratureError("failed to bracket the half-intensity angle")
    return 2.0 * brentq(half_excess, lo, hi, xtol=1e-14, rtol=1e-13), visited
