"""The in-package Brent solver against its oracle, SciPy's ``brentq``.

The port must visit the same abscissae and return the same float, and raise
the same errors, so every caller's output stays what it was with SciPy.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs
from scipy.optimize import brentq as scipy_brentq

import beamdiv
from beamdiv._roots import brentq

# (xtol, rtol) pairs: truncated_fwhm's, which is brentq's only caller, then a
# tighter pair kept as extra coverage of the port.
TOLERANCES = [(1e-14, 1e-13), (1e-15, 1e-15)]


def _run(solver, f, a, b, xtol, rtol):
    """The solver's outcome (root as hex, or error type and message) and every abscissa it tried."""
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    try:
        outcome = solver(traced, a, b, xtol=xtol, rtol=rtol).hex()
    except (ValueError, RuntimeError) as exc:
        outcome = (type(exc), str(exc))
    return outcome, calls


def _assert_same(f, a, b, xtol, rtol):
    ours, expected = _run(brentq, f, a, b, xtol, rtol), _run(scipy_brentq, f, a, b, xtol, rtol)
    assert ours == expected
    return ours[0]


_SHAPES = {
    "odd_power": lambda s, r, k: lambda x: s * (x - r) ** k,
    "exp": lambda s, r, k: lambda x: math.exp(s * x / k) - math.exp(s * r / k),
    "atan": lambda s, r, k: lambda x: math.atan(s * (x - r) ** k),
    "tanh_cubic": lambda s, r, k: lambda x: math.tanh(s * (x - r)) + 0.01 * s * (x - r) ** 3,
}


@given(
    hs.sampled_from(sorted(_SHAPES)),
    hs.floats(-3.0, 3.0).filter(lambda s: abs(s) >= 0.05),
    hs.floats(-5.0, 5.0),
    hs.sampled_from([1, 3, 5, 7]),
    hs.floats(1e-6, 8.0),
    hs.floats(1e-6, 8.0),
    hs.booleans(),
    hs.sampled_from(TOLERANCES),
)
# Near the root |f(xblk)| can round to |f(xcur)|; this draw meets that tie, where
# the swap of the two points must happen on ``<`` only, as in C.
@example("exp", 1.0529501573785145, -0.21364980061533956, 5, 7.520718792900573, 0.27369544419943576, False, TOLERANCES[1])
def test_port_matches_scipy_bit_for_bit(shape, scale, root, power, left, right, flipped, tolerance):
    f = _SHAPES[shape](scale, root, power)
    a, b = root - left, root + right
    if flipped:
        a, b = b, a
    # A high-multiplicity root can exhaust the 100 iterations; scipy must then fail too.
    _assert_same(f, a, b, *tolerance)


@pytest.mark.parametrize(
    "f, a, b, xtol, message",
    [
        (lambda x: x * x + 1.0, -1.0, 2.0, 1e-15, "different signs"),
        (lambda x: {0.0: -1.0, 1.0: 1.0}.get(x, math.nan), 0.0, 1.0, 1e-15, "is NaN"),
        (lambda x: math.nan, 0.0, 1.0, 1e-15, "is NaN"),
        # A sign step bisects from 1e300 towards a 1e-300 tolerance: far past 100 iterations.
        (lambda x: math.copysign(1.0, x), -1e300, 1e300, 1e-300, "Failed to converge after 100 iterations"),
    ],
    ids=["same_sign", "nan_inside", "nan_at_a", "no_convergence"],
)
def test_port_raises_what_scipy_raises(f, a, b, xtol, message):
    outcome = _assert_same(f, a, b, xtol, 1e-15)
    assert message in outcome[1]


@pytest.mark.parametrize("root", [1.0, 3.0])
def test_endpoint_root_returns_the_endpoint(root):
    assert _assert_same(lambda x: x - root, 1.0, 3.0, *TOLERANCES[0]) == root.hex()


def test_import_leaves_scipy_optimize_unloaded():
    # A fresh interpreter: importing beamdiv loads no SciPy special functions
    # until the far field needs j0, loads no quadrature rule, and no configparser at all.  Then every solver beamdiv uses is called
    # once, and SciPy's optimize subpackage (with linalg behind it) must still
    # not be loaded.  No thread is left running after the import or after a
    # far-field solve and a multi-block profile: the kernel keeps no pool.
    code = "\n".join([
        "import sys, threading",
        "import beamdiv, beamdiv.cli",
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.special'))",
        "assert not loaded, loaded",
        "assert 'configparser' not in sys.modules",
        "assert beamdiv.beam_optics._rules.cache_info().currsize == 0",
        "assert threading.active_count() == 1, threading.enumerate()",
        "from beamdiv.actuator import ActuatorState, corrected_position",
        "design = beamdiv.AperturedBeam(beamdiv.GaussianBeam(0.0178, 1.55e-6), 0.02)",
        "beamdiv.truncated_fwhm(design)",
        "beamdiv.farfield_intensity(design, [i * 1e-7 for i in range(2000)])",
        "assert threading.active_count() == 1, threading.enumerate()",
        "corrected_position(ActuatorState(temperature_c=-30.0), 90e-6)",
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.optimize'))",
        "assert not loaded, loaded",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamdiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
