"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import math
import time

import numpy as np
import pytest

from beamdiv import actuator, calibration
from beamdiv.actuator import (
    ActuatorState,
    Branch,
    ChromaticModel,
    DivergenceMap,
    ThermalModel,
    apply_temperature,
    apply_wavelength,
    axis_deviation,
    command_divergence,
    divergence_from_position,
    setting_on_branch,
    step,
    temperature_corrected_position,
)
from beamdiv.beam_optics import (
    AperturedBeam,
    Convention,
    DivergenceAngle,
    GaussianBeam,
    footprint,
    truncated_fwhm,
)
from beamdiv.link_budget import LinkConfig, calibrate_sensitivity, link_margin_db, max_rate
from beamdiv.pointing import (
    GainConvention,
    gain_improvement_db,
    optimal_divergence,
    pointing_loss,
    rule_of_thumb_divergence,
    sweep_optimal_divergence,
)
from beamdiv.sim import ControlPolicy, PassGeometry, Strategy, run_pass, steps_to_csv


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {title}")
                raise
            line = f"[criterion {number}] PASS  {title}"
            if detail:
                line += f"  ({detail})"
            print(line)

        return wrapper

    return decorate


def design_link():
    cfg = LinkConfig(
        tx_power_w=2.0,
        wavelength=1.55e-6,
        tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
        rx_aperture_diameter=0.35,
    )
    return cfg.with_sensitivity(calibrate_sensitivity(cfg, 600e3, 10e9, 5.0))


@criterion(1, "truncated-Gaussian far field reaches 90 urad FWHM at the design point")
def test_farfield_design_point():
    t0 = time.perf_counter()
    apertured = AperturedBeam(GaussianBeam(0.0178, 1.55e-6), 0.02)
    coarse = truncated_fwhm(apertured, n_nodes=256).value
    fine = truncated_fwhm(apertured, n_nodes=512).value
    elapsed = time.perf_counter() - t0
    assert coarse == pytest.approx(90e-6, rel=0.10)
    assert abs(fine - coarse) / coarse < 1e-3
    assert elapsed < 5.0
    return f"FWHM {coarse * 1e6:.3f} urad, grid-doubling shift {abs(fine - coarse) / coarse:.2e}, {elapsed:.2f} s"


@criterion(2, "pointing loss, 5-sigma rule, and closed-form optimum vs brute force")
def test_pointing_math():
    assert pointing_loss(100e-6, 200e-6) == 0.01  # beta = 1, exact
    rule = rule_of_thumb_divergence(math.radians(0.021))
    assert rule == pytest.approx(1.833e-3, rel=0.03)
    worst = 0.0
    for convention in GainConvention:
        for sigma in (10e-6, 100e-6, 366.5e-6):
            closed = optimal_divergence(sigma, convention)
            # 1000-point log-spaced sweep, bracket refined by re-sweeping,
            # never using the closed form.
            swept = sweep_optimal_divergence(sigma, convention, closed / 10.0, closed * 10.0)
            worst = max(worst, abs(swept - closed) / closed)
    assert worst < 1e-4
    return f"rule {rule * 1e3:.4f} mrad, worst sweep-vs-closed-form error {worst:.2e}"


@criterion(3, "17 dB and 13 dB gain-improvement figures (linear convention)")
def test_gain_accounting():
    wide = rule_of_thumb_divergence(math.radians(0.021))
    to_39 = gain_improvement_db(wide, 39e-6, GainConvention.LINEAR)
    to_90 = gain_improvement_db(wide, 90e-6, GainConvention.LINEAR)
    assert to_39 == pytest.approx(17.0, abs=0.5)
    assert to_90 == pytest.approx(13.0, abs=0.5)
    return f"{to_39:.2f} dB and {to_90:.2f} dB"


@criterion(4, "link budget closes both design operating points after one calibration")
def test_link_budget_consistency():
    cfg = design_link()
    margin_far = link_margin_db(cfg, 1200e3, 2.5e9)
    assert margin_far == pytest.approx(5.0, abs=0.01)
    near = max_rate(cfg, 600e3, 5.0)
    far = max_rate(cfg, 1200e3, 5.0)
    assert near == pytest.approx(10e9, rel=1e-9)
    assert far == pytest.approx(2.5e9, rel=1e-9)
    spot = footprint(DivergenceAngle(90e-6, Convention.FWHM), 600e3)
    assert spot == 54.0
    return f"margin(1200 km, 2.5 Gbit/s) = {margin_far:.6f} dB, rates {near / 1e9:.3f}/{far / 1e9:.3f} Gbit/s, footprint {spot} m"


@criterion(5, "actuator map anchors and constant-speed timing")
def test_actuator_map_and_timing():
    dmap = DivergenceMap()
    assert divergence_from_position(3.5e-3, dmap) == pytest.approx(6.14e-3, rel=1e-12)
    assert divergence_from_position(-3.5e-3, dmap) == pytest.approx(6.25e-3, rel=1e-12)
    st = ActuatorState(lens_position=-3.5e-3, target_position=-3.5e-3)
    command_divergence(st, 6.14e-3, Branch.DIVERGING)
    dt, ticks = 0.01, 0
    while st.in_motion:
        step(st, dt)
        ticks += 1
        assert ticks < 1000
    assert abs(ticks * dt - 0.9) <= dt  # one tick
    span = (dmap.converging_max - dmap.collimated_divergence) + (
        dmap.diverging_max - dmap.collimated_divergence
    )
    urad_per_ms = span / 0.9 * 1e3
    assert abs(urad_per_ms - 13.6) <= 0.3
    return f"traverse {ticks * dt:.2f} s, implied speed {urad_per_ms:.2f} urad/ms"


@criterion(6, "thermal anchors, lookup-table correction, and chromatic offsets")
def test_thermal_and_chromatic_models():
    thermal = ThermalModel()
    chroma = ChromaticModel()
    for theta, temp, expected in (
        (90e-6, -30.0, 675e-6),
        (90e-6, 60.0, 423e-6),
        (5e-3, -30.0, 5e-3 / 1.2),
        (5e-3, 60.0, 5.5e-3),
    ):
        assert apply_temperature(theta, temp, thermal) == pytest.approx(expected, rel=1e-12)
    assert apply_temperature(5e-3, -30.0, thermal) == pytest.approx(4.167e-3, abs=5e-7)

    dmap = DivergenceMap()
    worst = 0.0
    for theta in np.linspace(90e-6, 5e-3, 10):
        for temp in np.linspace(-30.0, 60.0, 10):
            x = temperature_corrected_position(theta, temp, thermal, dmap, Branch.CONVERGING)
            u = setting_on_branch(x, Branch.CONVERGING, dmap)
            achieved = u + thermal.deviation(u, temp)
            worst = max(worst, abs(achieved - theta) / theta)
    assert worst < 0.01

    for theta, wl, expected in (
        (90e-6, 1.53e-6, 100e-6),
        (90e-6, 1.565e-6, 93e-6),
        (5e-3, 1.53e-6, 5.171e-3),
        (5e-3, 1.565e-6, 5.13e-3),
    ):
        assert apply_wavelength(theta, wl, chroma) == pytest.approx(expected, rel=1e-12)
    return f"worst lookup-table round-trip residual {worst:.2e}"


@criterion(7, "calibration pipeline recovers the emulator models")
def test_calibration_pipeline():
    dmap = DivergenceMap()
    fit = calibration.build_position_map(calibration.sample_position_map(dmap))
    err_div = abs(fit.map.diverging_slope - dmap.diverging_slope) / dmap.diverging_slope
    err_conv = abs(fit.map.converging_slope - dmap.converging_slope) / dmap.converging_slope
    assert err_div < 1e-4 and err_conv < 1e-4
    assert fit.diverging.r_squared >= 0.9999
    assert fit.converging.r_squared >= 0.9999

    exact = calibration.fit_divergence(
        [(d, 0.0178 + 5e-3 * d) for d in (3.0, 5.0, 10.0, 15.0)]
    )
    assert exact.slope == pytest.approx(5e-3, rel=1e-12)
    assert exact.r_squared == pytest.approx(1.0, abs=1e-12)

    na = calibration.na_mismatch_effect(
        2.62, calibration.DESIGN_EFFECTIVE_FOCAL_LENGTH_M, GaussianBeam(0.0178, 1.55e-6), 90e-6
    )
    assert 22e-6 <= na.divergence_change_rad <= 23e-6
    return (
        f"slope errors {err_div:.2e}/{err_conv:.2e}, "
        f"NA-mismatch widening {na.divergence_change_rad * 1e6:.2f} urad"
    )


@criterion(8, "optical-axis stability: 7 samples x 12 settings inside the 5 % bound")
def test_axis_stability_campaign():
    rng = np.random.default_rng(0)
    settings = np.geomspace(90e-6, 6.14e-3, 12)
    collimated_mean = None
    for theta in settings:
        st = ActuatorState()
        command_divergence(st, float(theta), Branch.DIVERGING)
        step(st, 1.0)
        current = actuator.actual_divergence(st)
        mags = []
        for _ in range(7):
            tip, tilt = axis_deviation(st, rng)
            mag = math.hypot(tip, tilt)
            assert mag <= 0.05 * current
            mags.append(mag)
        if theta == settings[0]:
            collimated_mean = float(np.mean(mags))
    assert collimated_mean == pytest.approx(1.3e-6, rel=0.30)
    return f"collimated 7-sample mean {collimated_mean * 1e6:.3f} urad"


@criterion(9, "closed-loop pass reproduces the design points, deterministically")
def test_simulation_anchors_and_determinism():
    geometry = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=1.0)
    policy = ControlPolicy(strategy=Strategy.EXACT_OPT, margin_floor_db=5.0)
    result = run_pass(geometry, policy, design_link(), jitter=0.0, seed=0)
    mid = result.steps[len(result.steps) // 2]
    first = result.steps[0]
    assert mid["slant_range_m"] == 600e3
    assert mid["rate_bps"] == pytest.approx(10e9, rel=1e-6)
    assert first["slant_range_m"] == pytest.approx(1200e3, abs=1e-3)
    assert first["rate_bps"] == pytest.approx(2.5e9, rel=1e-6)
    assert mid["margin_db"] == 5.0

    again = run_pass(geometry, policy, design_link(), jitter=0.0, seed=0)
    assert steps_to_csv(again.steps) == steps_to_csv(result.steps)
    assert again.summary == result.summary

    fine = run_pass(
        PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=0.5),
        policy,
        design_link(),
    )
    drift = abs(fine.summary["total_bits"] - result.summary["total_bits"]) / result.summary["total_bits"]
    assert drift < 0.01
    return (
        f"rates {mid['rate_bps'] / 1e9:.3f}/{first['rate_bps'] / 1e9:.3f} Gbit/s in-loop, "
        f"dt-halving bit drift {drift:.2e}"
    )
