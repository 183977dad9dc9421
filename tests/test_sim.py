import dataclasses
import math
import re

import numpy as np
import pytest

from beamdiv.actuator import ActuatorState
from beamdiv.beam_optics import Convention, DivergenceAngle
from beamdiv.link_budget import LinkConfig, calibrate_sensitivity
from beamdiv.pointing import pointing_loss, pointing_loss_db
from beamdiv.sim import (
    ControlPolicy,
    PassGeometry,
    Strategy,
    adaptive_policy,
    elevation_for_range_deg,
    pass_profile,
    run_pass,
    slant_range,
    steps_to_csv,
)

GEOM = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=1.0)


def design_link():
    cfg = LinkConfig(
        tx_power_w=2.0,
        wavelength=1.55e-6,
        tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
        rx_aperture_diameter=0.35,
    )
    return cfg.with_sensitivity(calibrate_sensitivity(cfg, 600e3, 10e9, 5.0))


DESIGN_POLICY = ControlPolicy(strategy=Strategy.EXACT_OPT, margin_floor_db=5.0)


class TestGeometry:
    def test_zenith_range_is_altitude(self):
        assert slant_range(90.0, GEOM) == 600e3

    def test_monotone_in_elevation(self):
        els = np.linspace(1.0, 90.0, 90)
        ranges = [slant_range(e, GEOM) for e in els]
        assert ranges == sorted(ranges, reverse=True)

    def test_1200_km_elevation_exists(self):
        el = elevation_for_range_deg(1200e3, GEOM)
        assert 0.0 < el < 90.0
        assert slant_range(el, GEOM) == pytest.approx(1200e3, rel=1e-12)

    def test_elevation_domain(self):
        with pytest.raises(ValueError):
            slant_range(0.0, GEOM)
        with pytest.raises(ValueError):
            slant_range(91.0, GEOM)

    def test_range_domain(self):
        with pytest.raises(ValueError):
            elevation_for_range_deg(100e3, GEOM)


class TestPassProfile:
    def test_zenith_peak(self):
        profile = pass_profile(GEOM)
        mid = len(profile) // 2
        assert profile.t_s[mid] == 0.0
        assert profile.slant_range_m[mid] == 600e3
        assert profile.elevation_deg[mid] == pytest.approx(90.0, abs=1e-9)

    def test_overhead_elevations_finite_over_altitudes(self):
        # At a 90 deg peak the arcsin argument can round past 1; 687,654.3 m
        # is an altitude where it does.
        for altitude in [*np.linspace(400e3, 1200e3, 300), 687_654.3]:
            geom = PassGeometry(altitude_m=float(altitude), dt_s=30.0)
            elevation = pass_profile(geom).elevation_deg
            assert np.all(np.isfinite(elevation)) and np.all(elevation <= 90.0)
            assert elevation[len(elevation) // 2] == pytest.approx(geom.max_elevation_deg, abs=1e-4)

    def test_range_clip_hits_endpoints_exactly(self):
        profile = pass_profile(GEOM)
        assert profile.slant_range_m[0] == pytest.approx(1200e3, abs=1e-3)
        assert profile.slant_range_m[-1] == pytest.approx(1200e3, abs=1e-3)
        assert np.max(profile.slant_range_m) <= 1200e3 + 1e-3

    def test_symmetry(self):
        profile = pass_profile(GEOM)
        assert np.allclose(profile.slant_range_m, profile.slant_range_m[::-1], rtol=1e-12)
        assert np.allclose(profile.t_s, -profile.t_s[::-1], rtol=1e-12)

    def test_elevation_clip(self):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=20.0, dt_s=5.0)
        profile = pass_profile(geom)
        assert np.min(profile.elevation_deg) >= 20.0 - 1e-6

    def test_off_zenith_pass(self):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=10.0, max_elevation_deg=45.0, dt_s=5.0)
        profile = pass_profile(geom)
        assert np.max(profile.elevation_deg) == pytest.approx(45.0, abs=1e-9)

    def test_empty_pass_rejected(self):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=50.0, max_elevation_deg=30.0, dt_s=5.0)
        with pytest.raises(ValueError, match="empty pass"):
            pass_profile(geom)


class TestAdaptivePolicy:
    def test_rule_follows_sigma(self):
        st = ActuatorState()
        policy = ControlPolicy(strategy=Strategy.RULE_5_SIGMA, margin_floor_db=5.0)
        theta = adaptive_policy(policy, math.radians(0.021), st)
        assert theta == pytest.approx(1.833e-3, rel=1e-3)

    def test_small_sigma_clamps_to_minimum(self):
        st = ActuatorState()
        assert adaptive_policy(DESIGN_POLICY, 1e-6, st) == st.dmap.collimated_divergence

    def test_zero_sigma_clamps_to_minimum(self):
        st = ActuatorState()
        assert adaptive_policy(DESIGN_POLICY, 0.0, st) == st.dmap.collimated_divergence

    def test_huge_sigma_clamps_to_branch_max(self):
        st = ActuatorState()
        policy = ControlPolicy(strategy=Strategy.RULE_5_SIGMA, margin_floor_db=0.0)
        assert adaptive_policy(policy, 0.1, st) == st.dmap.diverging_max

    def test_fixed_strategy(self):
        st = ActuatorState()
        policy = ControlPolicy(strategy=Strategy.FIXED, fixed_divergence_rad=5e-3)
        assert adaptive_policy(policy, 1e-3, st) == 5e-3

    def test_fixed_requires_value(self):
        with pytest.raises(ValueError):
            ControlPolicy(strategy=Strategy.FIXED)


class TestRunPass:
    def test_design_operating_points_in_loop(self):
        result = run_pass(GEOM, DESIGN_POLICY, design_link())
        first, mid = result.steps[0], result.steps[len(result.steps) // 2]
        assert mid["slant_range_m"] == 600e3
        assert mid["rate_bps"] == pytest.approx(10e9, rel=1e-6)
        assert mid["margin_db"] == 5.0
        assert first["slant_range_m"] == pytest.approx(1200e3, abs=1e-3)
        assert first["rate_bps"] == pytest.approx(2.5e9, rel=1e-6)
        assert first["theta_actual_rad"] == 90e-6
        assert first["pointing_loss_db"] == 0.0

    def test_deterministic_and_byte_identical(self):
        a = run_pass(GEOM, DESIGN_POLICY, design_link(), seed=3)
        b = run_pass(GEOM, DESIGN_POLICY, design_link(), seed=3)
        assert np.array_equal(a.steps, b.steps)
        assert steps_to_csv(a.steps) == steps_to_csv(b.steps)
        assert a.summary == b.summary

    def test_halving_dt_changes_bits_under_one_percent(self):
        coarse = run_pass(GEOM, DESIGN_POLICY, design_link())
        fine_geom = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=0.5)
        fine = run_pass(fine_geom, DESIGN_POLICY, design_link())
        rel = abs(fine.summary["total_bits"] - coarse.summary["total_bits"]) / coarse.summary["total_bits"]
        assert rel < 0.01

    def test_summary_bits_match_ticks(self):
        result = run_pass(GEOM, DESIGN_POLICY, design_link())
        expected = sum(s["rate_bps"] for s in result.steps if s["margin_db"] >= 5.0) * GEOM.dt_s
        assert result.summary["total_bits"] == pytest.approx(expected, rel=1e-12)
        assert result.summary["fraction_at_margin_floor"] == 1.0

    def test_zero_jitter_optimal_equals_fixed_minimum(self):
        fixed = ControlPolicy(strategy=Strategy.FIXED, fixed_divergence_rad=90e-6, margin_floor_db=5.0)
        a = run_pass(GEOM, DESIGN_POLICY, design_link())
        b = run_pass(GEOM, fixed, design_link())
        for sa, sb in zip(a.steps, b.steps):
            assert sa["rate_bps"] == sb["rate_bps"]

    def test_wider_sigma_never_beats_smaller(self):
        rates = []
        for sigma in (0.0, 50e-6, 200e-6, 366.5e-6):
            result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=sigma)
            rates.append(result.summary["total_bits"])
        assert rates == sorted(rates, reverse=True)

    def test_jitter_schedule_array(self):
        n = len(pass_profile(GEOM))
        schedule = np.full(n, 100e-6)
        result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=schedule)
        theta_star = 100e-6 * math.sqrt(8.0 * math.log(10.0))
        assert result.steps[-1]["theta_commanded_rad"] == pytest.approx(theta_star, rel=1e-12)

    def test_jitter_schedule_length_checked(self):
        with pytest.raises(ValueError):
            run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=[1e-6, 2e-6])

    @pytest.mark.parametrize("form", ["scalar", "array", "callable"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-6])
    def test_bad_jitter_schedule_names_tick_and_value(self, form, bad):
        # The bad value sits at one tick (t = 0 for the array and callable)
        # and the error names that tick and the value.
        n = len(pass_profile(GEOM))
        schedule = np.full(n, 20e-6)
        schedule[n // 2] = bad
        jitter = {"scalar": bad, "array": schedule, "callable": lambda t: bad if t == 0.0 else 20e-6}[form]
        t = pass_profile(GEOM).t_s[0] if form == "scalar" else 0.0
        with pytest.raises(ValueError, match=re.escape(f"sigma = {bad} rad at t = {t} s")):
            run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=jitter)

    def test_commanded_divergence_always_in_hardware_range(self):
        schedule = lambda t: 2e-3 * (1.0 + math.sin(t / 20.0)) + 1e-6
        result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=schedule)
        st = ActuatorState()
        for s in result.steps:
            assert st.dmap.collimated_divergence <= s["theta_commanded_rad"] <= st.dmap.diverging_max
            assert s["theta_actual_rad"] <= st.dmap.diverging_max + 1e-12

    def test_actual_trails_command_within_slew(self):
        # Step the jitter hard halfway through; the actual divergence must
        # never lag the command by more than one tick of slew.
        schedule = lambda t: 0.0 if t < 0 else 500e-6
        result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=schedule)
        st = ActuatorState()
        max_slew = st.motor_speed * GEOM.dt_s * max(st.dmap.diverging_slope, st.dmap.converging_slope)
        for s in result.steps:
            assert abs(s["theta_actual_rad"] - s["theta_commanded_rad"]) <= max_slew + 1e-12

    def test_rate_ladder(self):
        ladder = (2.5e9, 5e9, 10e9)
        policy = ControlPolicy(strategy=Strategy.EXACT_OPT, margin_floor_db=5.0, rate_ladder_bps=ladder)
        result = run_pass(GEOM, policy, design_link())
        mid = result.steps[len(result.steps) // 2]
        assert mid["rate_bps"] == 10e9
        assert all(s["rate_bps"] in ladder for s in result.steps)
        assert all(s["margin_db"] >= 5.0 - 1e-9 for s in result.steps)

    def test_requires_sensitivity(self):
        bare = LinkConfig(
            tx_power_w=2.0,
            wavelength=1.55e-6,
            tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
            rx_aperture_diameter=0.35,
        )
        with pytest.raises(ValueError):
            run_pass(GEOM, DESIGN_POLICY, bare)

    def test_csv_layout(self):
        result = run_pass(GEOM, DESIGN_POLICY, design_link())
        text = steps_to_csv(result.steps)
        header = text.splitlines()[0].split(",")
        assert tuple(header) == result.steps.dtype.names
        assert header[0] == "t_s"
        assert "rate_bps" in header
        assert len(text.splitlines()) == len(result.steps) + 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: dataclasses.replace(design_link(), insertion_loss_db=math.nan),
        lambda: dataclasses.replace(design_link(), misc_loss_db=math.nan),
        lambda: dataclasses.replace(design_link(), misc_loss_db=math.inf),
        lambda: ControlPolicy(margin_floor_db=math.nan),
        lambda: ControlPolicy(margin_floor_db=math.inf),
        lambda: ControlPolicy(strategy=Strategy.FIXED, fixed_divergence_rad=math.nan),
        lambda: ControlPolicy(strategy=Strategy.FIXED, fixed_divergence_rad=math.inf),
        lambda: ControlPolicy(rate_ladder_bps=(1e9, math.nan)),
        lambda: ControlPolicy(rate_ladder_bps=(1e9, math.inf)),
        lambda: PassGeometry(dt_s=math.nan),
        lambda: PassGeometry(dt_s=math.inf),
        lambda: PassGeometry(altitude_m=math.nan),
        lambda: PassGeometry(altitude_m=math.inf),
        lambda: PassGeometry(earth_radius_m=math.nan),
        lambda: PassGeometry(max_range_m=math.nan),
        lambda: PassGeometry(max_range_m=math.inf),
        lambda: pointing_loss(math.nan, 1e-3),
        lambda: pointing_loss(1e-5, math.nan),
        lambda: pointing_loss_db(math.nan, 1e-3),
        lambda: pointing_loss_db(1e-5, math.nan),
    ],
    ids=[
        "insertion_loss_nan", "misc_loss_nan", "misc_loss_inf", "margin_floor_nan", "margin_floor_inf",
        "fixed_divergence_nan", "fixed_divergence_inf", "ladder_nan", "ladder_inf", "dt_nan", "dt_inf",
        "altitude_nan", "altitude_inf", "earth_radius_nan", "max_range_nan", "max_range_inf",
        "pointing_loss_sigma_nan", "pointing_loss_theta_nan", "pointing_loss_db_sigma_nan",
        "pointing_loss_db_theta_nan",
    ],
)
def test_non_finite_input_rejected_at_the_boundary(make):
    with pytest.raises(ValueError, match="finite"):
        make()
