import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs
from scipy.optimize import brentq
from scipy.special import j0

from beamdiv import beam_optics

from beamdiv.beam_optics import (
    AperturedBeam,
    Convention,
    DivergenceAngle,
    GaussianBeam,
    QuadratureError,
    convert_divergence,
    farfield_intensity,
    footprint,
    transmit_gain,
    transmit_gain_db,
    truncated_fwhm,
    untruncated_divergence,
)

DESIGN_BEAM = GaussianBeam(waist_diameter_1e2=0.0178, wavelength=1.55e-6)
DESIGN = AperturedBeam(beam=DESIGN_BEAM, aperture_diameter=0.02)


class TestConventions:
    def test_full_1e2_to_fwhm(self):
        a = DivergenceAngle(100e-6, Convention.FULL_1E2)
        assert a.to(Convention.FWHM).value == pytest.approx(5.8870501125773735e-05, rel=1e-12)

    def test_identity_conversion(self):
        a = DivergenceAngle(90e-6, Convention.FWHM)
        assert convert_divergence(a, Convention.FWHM) is a

    def test_fwhm_to_full_1e2_against_profile_oracle(self):
        # Independent oracle: solve the Gaussian far-field profile
        # exp(-8 theta^2 / Theta^2) = 1/2 for the half-max half-angle.
        converted = DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2)
        assert converted.value == pytest.approx(1.5287792405184345e-4, rel=1e-12)
        big = converted.value
        half = brentq(lambda t: math.exp(-8.0 * t**2 / big**2) - 0.5, 0.0, big, xtol=1e-18)
        assert 2.0 * half == pytest.approx(90e-6, rel=1e-9)

    # Each anchor value is the centre of two decades of drawn angles.
    @pytest.mark.parametrize("value", [1e-6, 90e-6, 5e-3, 0.05])
    @pytest.mark.parametrize("conv", list(Convention))
    @given(scale=hs.floats(0.1, 10.0))
    def test_round_trip(self, value, conv, scale):
        angle = value * scale
        other = Convention.FWHM if conv is Convention.FULL_1E2 else Convention.FULL_1E2
        back = DivergenceAngle(angle, conv).to(other).to(conv)
        assert abs(back.value - angle) <= math.ulp(angle)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DivergenceAngle(0.0, Convention.FWHM)
        with pytest.raises(ValueError):
            DivergenceAngle(-1e-6, Convention.FULL_1E2)
        with pytest.raises(ValueError):
            DivergenceAngle(math.nan, Convention.FWHM)


class TestBeamTypes:
    def test_wavelength_restricted_to_c_band(self):
        with pytest.raises(ValueError):
            GaussianBeam(0.0178, 1.064e-6)
        with pytest.raises(ValueError):
            GaussianBeam(0.0178, 1.7e-6)

    def test_waist_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianBeam(0.0, 1.55e-6)

    def test_design_truncation_ratio(self):
        assert DESIGN.truncation_ratio == pytest.approx(1.12, abs=0.005)


class TestUntruncatedDivergence:
    def test_design_value(self):
        assert untruncated_divergence(DESIGN_BEAM).value == pytest.approx(1.1087198282806193e-4, rel=1e-12)
        assert untruncated_divergence(DESIGN_BEAM).convention is Convention.FULL_1E2

    def test_inverse_diameter_scaling(self):
        doubled = GaussianBeam(2 * 0.0178, 1.55e-6)
        assert untruncated_divergence(doubled).value == pytest.approx(
            0.5 * untruncated_divergence(DESIGN_BEAM).value, rel=1e-12
        )

    def test_linear_in_wavelength(self):
        shifted = GaussianBeam(0.0178, 1.565e-6)
        assert untruncated_divergence(shifted).value == pytest.approx(112.0e-6, rel=1e-3)


class TestFarfieldIntensity:
    def test_normalized_at_zero(self):
        assert farfield_intensity(DESIGN, [0.0])[0] == 1.0

    def test_monotone_over_main_lobe(self):
        th = np.linspace(0.0, 60e-6, 121)
        profile = farfield_intensity(DESIGN, th)
        assert np.all(np.diff(profile) < 0.0)

    def test_huge_aperture_matches_gaussian_closed_form(self):
        # Closed-form far field of the untruncated Gaussian over the main lobe.
        huge = AperturedBeam(DESIGN_BEAM, aperture_diameter=40 * DESIGN_BEAM.waist_radius_1e2)
        full = untruncated_divergence(DESIGN_BEAM).value
        th = np.linspace(0.0, 80e-6, 81)
        expected = np.exp(-8.0 * th**2 / full**2)
        got = farfield_intensity(huge, th)
        assert np.max(np.abs(got - expected)) < 0.01

    def test_rejects_bad_angle_grids(self):
        with pytest.raises(ValueError):
            farfield_intensity(DESIGN, [-1e-6, 0.0])
        with pytest.raises(ValueError):
            farfield_intensity(DESIGN, [2e-6, 1e-6])
        with pytest.raises(ValueError):
            farfield_intensity(DESIGN, [])

    def test_unconverged_quadrature_reported(self):
        # A 4-node rule cannot resolve the kernel; the self-check must raise
        # instead of returning a wrong profile.
        with pytest.raises(QuadratureError):
            farfield_intensity(DESIGN, np.linspace(0.0, 200e-6, 9), n_nodes=4)


@functools.lru_cache(maxsize=None)
def _nodes(n):
    return np.polynomial.legendre.leggauss(n)


def _reference_amplitude(apertured, angles, n):
    a = 0.5 * apertured.aperture_diameter
    w = apertured.beam.waist_radius_1e2
    k = 2.0 * math.pi / apertured.beam.wavelength
    x, wt = _nodes(n)
    r = 0.5 * a * (x + 1.0)
    base = np.exp(-((r / w) ** 2)) * r * (0.5 * a * wt)
    return j0(k * np.outer(np.asarray(angles, dtype=float), r)) @ base


def _reference_fwhm(apertured, n_nodes=256):
    """The per-evaluation solver: every angle the search visits runs the full n / 2n self-check.

    Returns the FWHM and the visited angles.  ``truncated_fwhm`` must give
    the same float and raise ``QuadratureError`` on the same inputs.
    """
    visited = []

    def half_excess(theta):
        visited.append(theta)
        coarse, fine = (
            (_reference_amplitude(apertured, [theta], n) / _reference_amplitude(apertured, [0.0], n)[0]) ** 2
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


@given(
    hs.floats(0.6, 40.0),
    hs.floats(1.50e-6, 1.60e-6),
    hs.sampled_from([8, 16, 64, 256]),
)
def test_fwhm_equals_the_per_evaluation_solver(truncation, wavelength, n_nodes):
    apertured = AperturedBeam(GaussianBeam(0.02 / truncation, wavelength), 0.02)
    try:
        expected, _ = _reference_fwhm(apertured, n_nodes)
    except QuadratureError:
        with pytest.raises(QuadratureError):
            truncated_fwhm(apertured, n_nodes)
        return
    assert truncated_fwhm(apertured, n_nodes).value == expected  # bit for bit


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_unconverged_fwhm_raises(n_nodes):
    with pytest.raises(QuadratureError, match=f"not converged at n_nodes={n_nodes}"):
        truncated_fwhm(DESIGN, n_nodes=n_nodes)


def test_fwhm_solve_evaluates_the_kernel_once_per_visited_angle():
    # U(0) at n and 2n, one 2n row per visited angle, one batch of n rows for the check.
    _, visited = _reference_fwhm(DESIGN)
    with mock.patch.object(beam_optics, "j0", wraps=j0) as counted:
        truncated_fwhm(DESIGN)
    assert counted.call_count == len(visited) + 3


def _unblocked_profile(apertured, angles, n_nodes=256):
    coarse, fine = (
        (_reference_amplitude(apertured, angles, n) / _reference_amplitude(apertured, [0.0], n)[0]) ** 2
        for n in (n_nodes, 2 * n_nodes)
    )
    assert np.max(np.abs(fine - coarse)) <= 1e-9
    return fine


@pytest.mark.parametrize("block_rows", [4, 8, 256])
@pytest.mark.parametrize("n_angles", [1, 3, 4, 5, 9, 255, 256, 257, 700])
def test_blocked_profile_equals_unblocked(block_rows, n_angles):
    angles = np.linspace(0.0, 4.0 * 1.55e-6 / 0.02, n_angles)
    with mock.patch.object(beam_optics, "_BLOCK_ROWS", block_rows):
        blocked = farfield_intensity(DESIGN, angles)
    assert blocked.shape == angles.shape
    assert np.max(np.abs(blocked - _unblocked_profile(DESIGN, angles))) <= 1e-15


def _design_profile(n_angles, n_nodes=256):
    return farfield_intensity(DESIGN, np.linspace(0.0, 4.0 * 1.55e-6 / 0.02, n_angles), n_nodes=n_nodes)


@pytest.mark.parametrize("lanes", ["host", "more than cores"])
@pytest.mark.parametrize("n_nodes", [64, 256])
@pytest.mark.parametrize("block_rows", [4, 256])
@pytest.mark.parametrize("n_angles", [1, 255, 256, 257, 700, 2000])
def test_lanes_give_the_one_lane_bytes(lanes, n_nodes, block_rows, n_angles):
    # "host" runs on the cores this process may use.  "more than cores" forces
    # threads on any host and switches between them as often as the interpreter
    # allows: a block lost or taken twice from the shared iterator changes the bytes.
    with mock.patch.object(beam_optics, "_BLOCK_ROWS", block_rows):
        with mock.patch.object(beam_optics, "_lanes", lambda blocks: 1):
            expected = _design_profile(n_angles, n_nodes)
        if lanes == "host":
            got = _design_profile(n_angles, n_nodes)
        else:
            forced = 4 * (os.cpu_count() or 1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with mock.patch.object(beam_optics, "_lanes", lambda blocks: min(forced, blocks)):
                    got = _design_profile(n_angles, n_nodes)
            finally:
                sys.setswitchinterval(interval)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API on this platform")
def test_a_process_pinned_to_one_cpu_gives_the_same_bytes():
    code = "\n".join([
        "import os, sys",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "import numpy as np",
        "from beamdiv import beam_optics as bo",
        "assert bo._lanes(8) == 1",
        "ab = bo.AperturedBeam(bo.GaussianBeam(0.0178, 1.55e-6), 0.02)",
        "sys.stdout.write(bo.farfield_intensity(ab, np.linspace(0.0, 4.0 * 1.55e-6 / 0.02, 2000)).tobytes().hex())",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(beam_optics.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert bytes.fromhex(proc.stdout) == _design_profile(2000).tobytes()


class _BlockFailed(Exception):
    pass


@pytest.mark.parametrize("failing_lane", ["calling", "worker"])
def test_a_failing_block_raises_in_the_caller_and_leaves_no_thread(failing_lane):
    caller = threading.get_ident()
    started = threading.Event()

    def failing_j0(x, out=None):
        if (threading.get_ident() == caller) == (failing_lane == "calling"):
            started.set()
            raise _BlockFailed
        # The other lane computes only once the failing lane has taken a block.
        assert started.wait(timeout=60)
        return j0(x, out=out)

    before = threading.active_count()
    with mock.patch.object(beam_optics, "_lanes", lambda blocks: min(2, blocks)):
        with mock.patch.object(beam_optics, "j0", failing_j0):
            with pytest.raises(_BlockFailed):
                _design_profile(2000)
    assert threading.active_count() == before


def test_profile_memory_is_one_block_buffer_per_lane():
    fine_block_bytes = beam_optics._BLOCK_ROWS * 2 * 256 * 8  # float64 rows over the 2n-node rule, n = 256
    lanes = beam_optics._lanes(-(-2000 // beam_optics._BLOCK_ROWS))
    _design_profile(2000)  # SciPy, the quadrature nodes and the pool machinery are loaded
    tracemalloc.start()
    try:
        _design_profile(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= lanes * fine_block_bytes + 0.5e6


class TestTruncatedFwhm:
    def test_design_point_near_90_urad(self):
        fwhm = truncated_fwhm(DESIGN)
        assert fwhm.convention is Convention.FWHM
        assert fwhm.value == pytest.approx(90e-6, rel=0.10)

    def test_quadrature_doubling_stable(self):
        coarse = truncated_fwhm(DESIGN, n_nodes=256).value
        fine = truncated_fwhm(DESIGN, n_nodes=512).value
        assert abs(fine - coarse) / coarse < 1e-3

    def test_untruncated_limit(self):
        huge = AperturedBeam(DESIGN_BEAM, aperture_diameter=40 * DESIGN_BEAM.waist_radius_1e2)
        assert truncated_fwhm(huge).value == pytest.approx(6.527089189896186e-05, rel=1e-6)

    def test_scales_linearly_with_wavelength(self):
        shifted = AperturedBeam(GaussianBeam(0.0178, 1.565e-6), 0.02)
        ratio = truncated_fwhm(shifted).value / truncated_fwhm(DESIGN).value
        assert ratio == pytest.approx(1.565 / 1.550, rel=1e-9)

    def test_widens_as_aperture_shrinks(self):
        w = DESIGN_BEAM.waist_radius_1e2
        ratios = [3.0, 1.5, 1.1236, 0.9]
        values = [
            truncated_fwhm(AperturedBeam(DESIGN_BEAM, 2 * m * w)).value for m in ratios
        ]
        assert values == sorted(values)
        assert values[0] > untruncated_divergence(DESIGN_BEAM).value * math.sqrt(math.log(2) / 2)


class TestTransmitGain:
    def test_unity_at_theta_4(self):
        assert transmit_gain(DivergenceAngle(4.0, Convention.FULL_1E2)) == pytest.approx(1.0, rel=1e-15)

    def test_quadratic_scaling(self):
        g1 = transmit_gain(DivergenceAngle(200e-6, Convention.FULL_1E2))
        g2 = transmit_gain(DivergenceAngle(100e-6, Convention.FULL_1E2))
        assert g2 / g1 == pytest.approx(4.0, rel=1e-12)
        db1 = transmit_gain_db(DivergenceAngle(200e-6, Convention.FULL_1E2))
        db2 = transmit_gain_db(DivergenceAngle(100e-6, Convention.FULL_1E2))
        assert db2 - db1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_design_gain_db(self):
        theta = DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2)
        assert transmit_gain_db(theta) == pytest.approx(88.3543, abs=1e-3)

    # Each anchor angle is the centre of two decades of drawn angles.
    @pytest.mark.parametrize("theta", [1e-6, 152.9e-6, 5e-3, 1.0])
    @given(scale=hs.floats(0.1, 10.0))
    def test_gain_theta_squared_identity(self, theta, scale):
        angle = theta * scale
        g = transmit_gain(DivergenceAngle(angle, Convention.FULL_1E2))
        assert abs(g * angle**2 - 16.0) <= math.ulp(16.0)

    def test_converts_a_fwhm_angle(self):
        fwhm = DivergenceAngle(90e-6, Convention.FWHM)
        assert transmit_gain(fwhm) == transmit_gain(fwhm.to(Convention.FULL_1E2))
        assert transmit_gain_db(fwhm) == transmit_gain_db(fwhm.to(Convention.FULL_1E2))


class TestFootprint:
    def test_design_point_exact(self):
        assert footprint(DivergenceAngle(90e-6, Convention.FWHM), 600e3) == 54.0

    def test_linear_in_distance(self):
        assert footprint(DivergenceAngle(90e-6, Convention.FWHM), 1200e3) == pytest.approx(108.0, rel=1e-12)

    def test_wide_beam(self):
        assert footprint(DivergenceAngle(5e-3, Convention.FWHM), 600e3) == pytest.approx(3000.0, rel=1e-12)

    def test_preconditions(self):
        full = DivergenceAngle(90e-6, Convention.FULL_1E2)
        assert footprint(full, 600e3) == footprint(full.to(Convention.FWHM), 600e3)
        with pytest.raises(ValueError):
            footprint(DivergenceAngle(0.2, Convention.FWHM), 600e3)
        with pytest.raises(ValueError):
            footprint(DivergenceAngle(90e-6, Convention.FWHM), 0.0)
