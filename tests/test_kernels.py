"""The budget's numpy kernels: one float equals its column position, and the old ``math`` forms are close.

Each budget term is one numpy kernel, and each scalar API calls it on the
Python float itself.  numpy picks its ``log10`` and ``power`` loops by CPU
feature at run time, and a SIMD loop treats a vector body and its tail
apart, so the first test holds each kernel at one float to the same bits
at every position of columns of 1, 7, 8, 9, 289 and 1025 elements.  The
second states how far each kernel is from the ``math.log10`` and ``**``
forms it replaced, over the physical domain of a pass.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from beamdiv.actuator import (
    ActuatorState,
    Branch,
    ChromaticModel,
    DivergenceMap,
    ThermalModel,
    achieved_divergence,
    actual_divergence,
    corrected_position,
    setting_on_branch,
)
from beamdiv.beam_optics import FWHM_PER_FULL_1E2, Convention, DivergenceAngle, _tx_gain_kernel, transmit_gain_db
from beamdiv.link_budget import (
    LinkConfig,
    _path_loss_kernel,
    calibrate_sensitivity,
    free_space_loss_db,
    max_rate,
    max_rate_column,
    receive_gain_db,
    received_power_column,
    watts_to_dbm,
)
from beamdiv.pointing import pointing_loss_db

WAVELENGTH = 1.55e-6
MARGIN_DB = 5.0
_LINK = LinkConfig(
    tx_power_w=2.0,
    wavelength=WAVELENGTH,
    tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
    rx_aperture_diameter=0.35,
)
LINK = _LINK.with_sensitivity(calibrate_sensitivity(_LINK, 600e3, 10e9, MARGIN_DB))
SENSITIVITY = LINK.sensitivity
DMAP = DivergenceMap()
STROKE_END = max(DMAP.diverging_max, DMAP.converging_max)
ULP = 2.0**-52


def _log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(lo, hi, n)


# name -> (kernel over a float or a float column, extra arguments, a column of n inputs from rng).  Domains run
# past the physical ones, into the ranges where a square or a power overflows or underflows.
KERNELS = {
    "tx_gain": (_tx_gain_kernel, (), lambda rng, n: _log_uniform(rng, -200.0, 10.0, n)),
    "path_loss": (_path_loss_kernel, (WAVELENGTH,), lambda rng, n: _log_uniform(rng, -3.0, 305.0, n)),
    "pointing_loss": (pointing_loss_db, (1e-3,), lambda rng, n: _log_uniform(rng, -160.0, 200.0, n)),
    "rate": (lambda received: max_rate_column(LINK, received, MARGIN_DB), (),
             lambda rng, n: rng.uniform(-4000.0, 4000.0, n) * 10.0 ** rng.integers(-3, 2, n)),
}


@given(hs.sampled_from(sorted(KERNELS)), hs.sampled_from([1, 7, 8, 9, 289, 1025]), hs.integers(0, 2**32 - 1),
       hs.lists(hs.floats(1e-300, 1e300), max_size=3))
def test_one_element_equals_its_column_position(name, n, seed, drawn):
    kernel, args, inputs = KERNELS[name]
    column = inputs(np.random.default_rng(seed), n)
    column[:len(drawn)] = drawn[:n]
    whole = kernel(column, *args)
    alone = np.array([float(kernel(value, *args)) for value in column.tolist()])
    assert alone.view(np.int64).tolist() == whole.view(np.int64).tolist()


def test_scalar_forms_return_python_floats():
    # An np.float64 would reach a repr as "np.float64(...)".
    values = [
        pointing_loss_db(1e-5, 90e-6),
        free_space_loss_db(600e3, WAVELENGTH),
        transmit_gain_db(DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2)),
        max_rate(LINK, 600e3, MARGIN_DB),
        actual_divergence(ActuatorState(lens_position=1e-3)),
        setting_on_branch(-1e-3, Branch.CONVERGING, DMAP),
        ThermalModel().deviation(1e-3, -10.0),
        ChromaticModel().offset(1e-3, 1.53e-6),
        corrected_position(ActuatorState(temperature_c=40.0, wavelength=1.53e-6), 1e-3),
        achieved_divergence(ActuatorState(), 1e-3),
    ]
    assert [type(value) for value in values] == [float] * len(values)


def _within_ulps(new, old, ulps):
    return np.all(np.abs(new - old) <= ulps * np.spacing(np.abs(old)))


@hs.composite
def _operating_points(draw):
    """Distances of 300-3000 km, FWHM angles from the collimated minimum to the stroke end, sigma to 1 mrad."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    n = 500
    distance = rng.uniform(300e3, 3000e3, n)
    fwhm = rng.uniform(DMAP.collimated_divergence, STROKE_END, n)
    sigma = rng.uniform(0.0, draw(hs.sampled_from([30e-6, 300e-6, 1e-3])), n)
    # The domain's corners.
    distance[:2] = 300e3, 3000e3
    fwhm[:2] = DMAP.collimated_divergence, STROKE_END
    return distance, fwhm, sigma


@given(_operating_points())
def test_kernels_within_the_stated_tolerance_of_the_math_forms(points):
    distance, fwhm, sigma = points
    theta = fwhm / FWHM_PER_FULL_1E2
    beta = 2.0 * sigma / fwhm

    # The log terms: within 2 ulps of math.log10.
    gain_old = np.array([10.0 * math.log10(16.0 / t**2) for t in theta.tolist()])
    path_old = np.array([20.0 * math.log10(4.0 * math.pi * d / WAVELENGTH) for d in distance.tolist()])
    assert _within_ulps(_tx_gain_kernel(theta), gain_old, 2)
    assert _within_ulps(_path_loss_kernel(distance, WAVELENGTH), path_old, 2)

    # The pointing loss: np.square is the correctly rounded beta * beta, within one ulp of beta**2,
    # and -20 times it is within 2 ulps of -20 * beta**2.
    square_old = np.array([b**2 for b in beta.tolist()])
    assert np.square(beta).tolist() == (beta * beta).tolist()
    assert _within_ulps(np.square(beta), square_old, 1)
    loss = pointing_loss_db(sigma, fwhm)
    assert _within_ulps(loss, -20.0 * square_old, 2)

    # The rate kernel alone, at the same received power: within 2 ulps of ref_rate * 10.0**x.
    received = received_power_column(LINK, distance, -loss, fwhm)
    exponent = (received - SENSITIVITY.ref_sensitivity_dbm - MARGIN_DB) / 10.0
    rate_old = np.array([SENSITIVITY.ref_rate * 10.0**x for x in exponent.tolist()])
    tiny = 4.0 * SENSITIVITY.ref_rate * 5e-324  # a power of ten below the normal range keeps few bits
    rate = max_rate_column(LINK, received, MARGIN_DB)
    assert np.all(np.abs(rate - rate_old) <= 2.0 * np.spacing(rate_old) + tiny)

    # The rate through the whole budget, against the budget in math forms.  A change of one ulp in a
    # term moves the received power by one ulp of the largest term M, and the rate by ln(10)/10 times
    # that, relative: the bound is 4 such ulps plus 16 ulps of rounding.  At the design points
    # (M about 260 dB) that is about 5e-14; a pass of perfbench moves by at most 2e-14.
    tx_power = watts_to_dbm(LINK.tx_power_w)
    rx_gain = receive_gain_db(LINK.rx_aperture_diameter, WAVELENGTH)
    received_old = (tx_power + gain_old - 20.0 * square_old - path_old + rx_gain
                    - LINK.insertion_loss_db - LINK.misc_loss_db)
    chain_old = np.array([SENSITIVITY.ref_rate * 10.0**((p - SENSITIVITY.ref_sensitivity_dbm - MARGIN_DB) / 10.0)
                          for p in received_old.tolist()])
    largest = np.max(np.abs([gain_old, path_old, 20.0 * square_old, received_old]), axis=0)
    bound = 4.0 * math.log(10.0) / 10.0 * np.spacing(largest) + 16.0 * ULP
    assert np.all(np.abs(rate - chain_old) <= bound * chain_old + tiny)
