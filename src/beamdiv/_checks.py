"""The one rule for numbers entering beamdiv: finite, and inside its bounds.

NaN fails every comparison, so a bare ``if x <= 0: raise`` lets it through;
this module tests finiteness first, and words every rejection the same way,
naming each bound it was given: ``"<name> must be finite and >= <a> and <=
<b>, got <value>"``.  Constructors and public entry points state their names
and bounds, lower (``gt``, ``ge``) and upper (``lt``, ``le``), through
:func:`finite`; a caller that handles bad elements its own way asks
:func:`rejected` for their indices: ``run_pass`` names the tick of a bad
jitter value, and marks as outages the ticks whose rate is not finite and
positive.  A count, such as a quadrature's node number, goes through
:func:`integer`, and a choice, such as a policy's strategy, through
:func:`member`.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np


def finite(name: str, value, *, gt=None, ge=None, lt=None, le=None):
    """Return ``value`` if it is finite and ``> gt`` / ``>= ge`` / ``< lt`` / ``<= le``; else raise ``ValueError`` naming it.

    Only the bounds given apply.  ``value`` is a number, or a sequence or
    array that is checked once as a whole; the error then shows its first
    rejected element.
    """
    if isinstance(value, (int, float)):
        if (math.isfinite(value) and (gt is None or value > gt) and (ge is None or value >= ge)
                and (lt is None or value < lt) and (le is None or value <= le)):
            return value
        shown = value
    else:
        bad = rejected(value, gt=gt, ge=ge, lt=lt, le=le)
        if not bad.size:
            return value
        shown = np.ravel(value)[bad[0]]
    bounds = "".join(f" and {op} {bound}" for op, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
                     if bound is not None)
    raise ValueError(f"{name} must be finite{bounds}, got {shown}")


def rejected(values, *, gt=None, ge=None, lt=None, le=None) -> np.ndarray:
    """Flat indices of the elements of ``values`` that :func:`finite` would reject, in order; never raises."""
    array = np.asarray(values, dtype=float)
    ok = np.isfinite(array)
    for inside, bound in ((np.greater, gt), (np.greater_equal, ge), (np.less, lt), (np.less_equal, le)):
        if bound is not None:
            ok &= inside(array, bound)
    return np.flatnonzero(~ok)


def integer(name: str, value, *, ge: int):
    """Return ``value`` if it is an integer ``>= ge``; else raise ``ValueError`` naming it.

    A bool is not an integer here: ``True`` would otherwise pass as 1.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= ge:
        return value
    raise ValueError(f"{name} must be a finite integer >= {ge}, got {value!r}")


def member(name: str, value, kind: type[enum.Enum]):
    """Return ``value`` if it is a member of ``kind``, not a member's value; else raise ``ValueError`` naming the choices."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"{name} must be one of {[k.value for k in kind]}, got {value!r}")
