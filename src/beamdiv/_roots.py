"""Brent's bracketing root-finder, the one 1-D solver beamdiv uses.

A line-for-line port of SciPy's ``brentq.c`` (Brent 1973, as written by
Charles Harris): the same bisection, secant and inverse-quadratic steps, with
the same float operations in the same order, so it visits the same abscissae
and returns the same root bit for bit as SciPy's ``optimize.brentq`` at its
default 100 iterations.  Keeping it here spares every ``import beamdiv`` the
cost of loading SciPy's optimize and linalg subpackages for one solver.
"""

from __future__ import annotations

import math
from typing import Callable

_MAX_ITER = 100


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in ``[a, b]``, converged to ``xtol + rtol * |x|``.

    Raises
    ------
    ValueError
        If ``f(a)`` and ``f(b)`` have the same sign, or ``f`` returns NaN.
    RuntimeError
        If the search has not converged after 100 iterations.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # call() lets no NaN through, so on non-zero values ``< 0`` is C's signbit.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(a, b) is ``a < b ? a : b``, which differs from min() on NaN.
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAX_ITER} iterations.")
