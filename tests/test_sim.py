import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given
from hypothesis import strategies as hs

from beamdiv import actuator, sim
from beamdiv.actuator import ActuatorState, Branch, ChromaticModel, DivergenceMap, ThermalModel, TravelRangeError
from beamdiv.beam_optics import (
    AperturedBeam,
    Convention,
    DivergenceAngle,
    GaussianBeam,
    farfield_intensity,
    footprint,
    truncated_fwhm,
)
from beamdiv.calibration import (
    estimate_min_divergence,
    fit_divergence,
    na_mismatch_effect,
    sample_position_map,
    simulate_profiler_samples,
)
from beamdiv.link_budget import (
    LinkClosedError,
    LinkConfig,
    budget_report,
    calibrate_sensitivity,
    free_space_loss_db,
    link_margin_db,
    max_rate,
    receive_gain_db,
    received_power_column,
    received_power_dbm,
    watts_to_dbm,
)
from beamdiv.pointing import (
    GainConvention,
    gain_improvement_db,
    optimal_divergence,
    pointing_loss,
    pointing_loss_db,
    rule_of_thumb_divergence,
    sweep_optimal_divergence,
)
from beamdiv.sim import (
    _CSV_BLOCK_ROWS,
    STEP_DTYPE,
    ControlPolicy,
    PassGeometry,
    Strategy,
    adaptive_policy,
    elevation_for_range_deg,
    pass_profile,
    run_pass,
    slant_range,
    steps_to_csv,
    write_steps_csv,
)

GEOM = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=1.0)


def design_link(wavelength=1.55e-6):
    cfg = LinkConfig(
        tx_power_w=2.0,
        wavelength=wavelength,
        tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
        rx_aperture_diameter=0.35,
    )
    return cfg.with_sensitivity(calibrate_sensitivity(cfg, 600e3, 10e9, 5.0))


DESIGN_POLICY = ControlPolicy(strategy=Strategy.EXACT_OPT, margin_floor_db=5.0)


def _per_tick(geometry, schedule):
    """A jitter schedule of time, evaluated at each tick of the pass: the per-tick form ``run_pass`` takes."""
    return [schedule(t) for t in pass_profile(geometry)["t_s"].tolist()]


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
        assert profile["t_s"][mid] == 0.0
        assert profile["slant_range_m"][mid] == 600e3
        assert profile["elevation_deg"][mid] == pytest.approx(90.0, abs=1e-9)

    def test_is_the_pass_before_the_loop_fills_it(self):
        profile = pass_profile(GEOM)
        steps = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=20e-6).steps
        assert profile.dtype == STEP_DTYPE
        for name in ("t_s", "elevation_deg", "slant_range_m"):
            assert profile[name].tobytes() == steps[name].tobytes()
        for name in STEP_DTYPE.names[3:]:
            assert np.all(np.isnan(profile[name]))

    def test_overhead_elevations_finite_over_altitudes(self):
        # At a 90 deg peak the arcsin argument can round past 1; 687,654.3 m
        # is an altitude where it does.
        for altitude in [*np.linspace(400e3, 1200e3, 300), 687_654.3]:
            geom = PassGeometry(altitude_m=float(altitude), dt_s=30.0)
            elevation = pass_profile(geom)["elevation_deg"]
            assert np.all(np.isfinite(elevation)) and np.all(elevation <= 90.0)
            assert elevation[len(elevation) // 2] == pytest.approx(geom.max_elevation_deg, abs=1e-4)

    def test_range_clip_hits_endpoints_exactly(self):
        profile = pass_profile(GEOM)
        assert profile["slant_range_m"][0] == pytest.approx(1200e3, abs=1e-3)
        assert profile["slant_range_m"][-1] == pytest.approx(1200e3, abs=1e-3)
        assert np.max(profile["slant_range_m"]) <= 1200e3 + 1e-3

    def test_symmetry(self):
        profile = pass_profile(GEOM)
        assert np.allclose(profile["slant_range_m"], profile["slant_range_m"][::-1], rtol=1e-12)
        assert np.allclose(profile["t_s"], -profile["t_s"][::-1], rtol=1e-12)

    def test_elevation_clip(self):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=20.0, dt_s=5.0)
        profile = pass_profile(geom)
        assert np.min(profile["elevation_deg"]) >= 20.0 - 1e-6

    @pytest.mark.parametrize("min_elevation_deg,max_range_m,first", [
        (30.0, 2000e3, "elevation"),  # 2000 km lies at 9.04 deg
        (20.0, 1200e3, "range"),  # 1200 km lies at 25.4 deg
        (30.0, 3000e3, "elevation"),  # 3000 km lies beyond the 2829 km horizon range
    ])
    def test_both_clips_end_at_the_first_reached(self, min_elevation_deg, max_range_m, first):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=min_elevation_deg, max_range_m=max_range_m, dt_s=5.0)
        if first == "elevation":
            alone = PassGeometry(altitude_m=600e3, min_elevation_deg=min_elevation_deg, dt_s=5.0)
        else:
            alone = PassGeometry(altitude_m=600e3, max_range_m=max_range_m, dt_s=5.0)
        profile = pass_profile(geom)
        assert profile.tobytes() == pass_profile(alone).tobytes()
        assert np.min(profile["elevation_deg"]) >= min_elevation_deg - 1e-6
        assert np.max(profile["slant_range_m"]) <= max_range_m + 1e-3

    def test_off_zenith_pass(self):
        geom = PassGeometry(altitude_m=600e3, min_elevation_deg=10.0, max_elevation_deg=45.0, dt_s=5.0)
        profile = pass_profile(geom)
        assert np.max(profile["elevation_deg"]) == pytest.approx(45.0, abs=1e-9)

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

    @example(a=0.0, b=50e-6)
    @example(a=50e-6, b=200e-6)
    @example(a=200e-6, b=366.5e-6)
    @given(a=hs.floats(0.0, 3e-3), b=hs.floats(0.0, 3e-3))
    def test_wider_sigma_never_beats_smaller(self, a, b):
        # Constant jitter from none to past the branch-maximum clamp (about 1.43 mrad).
        narrow, wide = (run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=s).summary["total_bits"]
                        for s in sorted((a, b)))
        assert wide <= narrow

    def test_jitter_schedule_array(self):
        n = len(pass_profile(GEOM))
        schedule = np.full(n, 100e-6)
        result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=schedule)
        theta_star = 100e-6 * math.sqrt(8.0 * math.log(10.0))
        assert result.steps[-1]["theta_commanded_rad"] == pytest.approx(theta_star, rel=1e-12)

    def test_jitter_schedule_length_checked(self):
        with pytest.raises(ValueError):
            run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=[1e-6, 2e-6])

    @pytest.mark.parametrize("form", ["scalar", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-6])
    def test_bad_jitter_schedule_names_tick_and_value(self, form, bad):
        # The bad value sits at one tick (t = 0 for the array) and the error
        # names that tick and the value.
        n = len(pass_profile(GEOM))
        schedule = np.full(n, 20e-6)
        schedule[n // 2] = bad
        jitter = {"scalar": bad, "array": schedule}[form]
        t = pass_profile(GEOM)["t_s"][0] if form == "scalar" else 0.0
        with pytest.raises(ValueError, match=re.escape(f"sigma = {bad} rad at t = {t} s")):
            run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=jitter)

    def test_commanded_divergence_always_in_hardware_range(self):
        schedule = _per_tick(GEOM, lambda t: 2e-3 * (1.0 + math.sin(t / 20.0)) + 1e-6)
        result = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=schedule)
        st = ActuatorState()
        for s in result.steps:
            assert st.dmap.collimated_divergence <= s["theta_commanded_rad"] <= st.dmap.diverging_max
            assert s["theta_actual_rad"] <= st.dmap.diverging_max + 1e-12

    def test_actual_trails_command_within_slew(self):
        # Step the jitter hard halfway through; the actual divergence must
        # never lag the command by more than one tick of slew.
        schedule = _per_tick(GEOM, lambda t: 0.0 if t < 0 else 500e-6)
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

    def test_default_actuator_is_at_the_link_wavelength(self):
        # At 1.53 um the chromatic offset widens the collimated beam to 100 urad.
        link = design_link(wavelength=1.53e-6)
        alone = run_pass(GEOM, DESIGN_POLICY, link, jitter=20e-6)
        at_link = run_pass(GEOM, DESIGN_POLICY, link, jitter=20e-6, state=ActuatorState(wavelength=1.53e-6))
        assert alone.steps.tobytes() == at_link.steps.tobytes()
        assert alone.summary == at_link.summary

    def test_csv_layout(self):
        result = run_pass(GEOM, DESIGN_POLICY, design_link())
        text = steps_to_csv(result.steps)
        header = text.splitlines()[0].split(",")
        assert tuple(header) == result.steps.dtype.names
        assert header[0] == "t_s"
        assert "rate_bps" in header
        assert len(text.splitlines()) == len(result.steps) + 1


_FARFIELD = AperturedBeam(GaussianBeam(0.0178, 1.55e-6), 0.02)


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
        lambda: PassGeometry(max_range_m=math.nan),
        lambda: PassGeometry(max_range_m=math.inf),
        lambda: pointing_loss(math.nan, 1e-3),
        lambda: pointing_loss(1e-5, math.nan),
        lambda: pointing_loss_db(math.nan, 1e-3),
        lambda: pointing_loss_db(1e-5, math.nan),
        lambda: pointing_loss_db(np.array([1e-5, math.nan]), np.array([1e-4, 1e-4])),
        lambda: pointing_loss_db(np.array([1e-5, 1e-5]), np.array([1e-4, -1e-4])),

        lambda: DivergenceMap(collimated_divergence=math.nan),
        lambda: DivergenceMap(diverging_slope=math.nan),
        lambda: DivergenceMap(converging_slope=math.inf),
        lambda: DivergenceMap(max_travel=math.inf),
        lambda: ThermalModel(cold_outputs=(math.nan, 4e-3)),
        lambda: ThermalModel(hot_temperature_c=math.inf),
        lambda: ThermalModel(anchor_settings=(90e-6, math.inf)),
        lambda: ChromaticModel(offsets_low=(math.nan, 0.0, 3e-6)),
        lambda: ChromaticModel(wavelengths=(1.53e-6, 1.55e-6, math.inf)),
        lambda: ActuatorState(motor_speed=math.nan),
        lambda: ActuatorState(motor_speed=math.inf),
        lambda: ActuatorState(step_size=math.nan),
        lambda: actuator.step(ActuatorState(), math.nan),
        lambda: actuator.track(ActuatorState(), [0.0], math.inf),
        lambda: actuator.steer(ActuatorState(), math.nan, math.nan),
        lambda: actuator.steering_residual(math.nan, 1e-5),
        lambda: actuator.steering_residual(10.0, math.nan),
        lambda: actuator.apply_temperature(math.nan, 20.0, ThermalModel()),
        lambda: actuator.apply_wavelength(-1.0, 1.55e-6, ChromaticModel()),
        lambda: fit_divergence([(math.nan, math.nan)]),
        lambda: fit_divergence([(3.0, math.nan)]),
        lambda: simulate_profiler_samples(5e-3, 0.0178, (3.0, 5.0, 10.0), replicates=2.5, rng=0),
        lambda: simulate_profiler_samples(5e-3, 0.0178, (3.0, 5.0, 10.0), replicates=True, rng=0),
        lambda: sample_position_map(DivergenceMap(), points_per_branch=2.5),
        lambda: sample_position_map(DivergenceMap(), points_per_branch=True),
        lambda: estimate_min_divergence([90e-6, math.nan]),
        lambda: na_mismatch_effect(math.nan, 0.0765, GaussianBeam(0.02, 1.55e-6), 90e-6),
        lambda: na_mismatch_effect(2.62, 0.0765, GaussianBeam(0.02, 1.55e-6), math.nan),
        lambda: design_link().sensitivity.sensitivity_dbm(math.nan),
        lambda: watts_to_dbm(math.nan),
        lambda: free_space_loss_db(math.nan, 1.55e-6),
        lambda: free_space_loss_db(600e3, math.inf),
        lambda: receive_gain_db(0.35, math.nan),
        lambda: received_power_dbm(design_link(), math.nan),
        lambda: received_power_dbm(design_link(), math.inf),
        lambda: received_power_dbm(design_link(), 600e3, math.nan),
        lambda: received_power_column(design_link(), np.array([600e3, math.nan]), np.zeros(2), np.full(2, 90e-6)),
        lambda: link_margin_db(design_link(), 600e3, math.nan),
        lambda: budget_report(design_link(), math.nan, 10e9),
        lambda: budget_report(design_link(), 600e3, math.nan),
        lambda: optimal_divergence(math.nan, GainConvention.QUADRATIC),
        lambda: sweep_optimal_divergence(math.nan, GainConvention.QUADRATIC, 1e-7, 1e-1),
        lambda: sweep_optimal_divergence(-1e-5, GainConvention.QUADRATIC, 1e-7, 1e-1),
        lambda: sweep_optimal_divergence(1e-5, GainConvention.QUADRATIC, math.nan, 1e-1),
        lambda: sweep_optimal_divergence(1e-5, GainConvention.QUADRATIC, 1e-7, math.inf),
        lambda: optimal_divergence(np.array([1e-5, math.nan]), GainConvention.LINEAR),
        lambda: rule_of_thumb_divergence(math.nan),
        lambda: rule_of_thumb_divergence(np.array([1e-5, math.inf])),
        lambda: gain_improvement_db(math.nan, 1e-3, GainConvention.QUADRATIC),
        lambda: footprint(DivergenceAngle(90e-6, Convention.FWHM), math.nan),
        lambda: farfield_intensity(AperturedBeam(GaussianBeam(0.02, 1.55e-6), 0.02), [0.0, math.nan]),
        lambda: farfield_intensity(_FARFIELD, [0.0], n_nodes=True),
        lambda: farfield_intensity(_FARFIELD, [0.0], n_nodes=0),
        lambda: farfield_intensity(_FARFIELD, [0.0], n_nodes=2.5),
        lambda: truncated_fwhm(_FARFIELD, n_nodes=True),
        lambda: truncated_fwhm(_FARFIELD, n_nodes=0),
        lambda: truncated_fwhm(_FARFIELD, n_nodes=2.5),
        lambda: adaptive_policy(DESIGN_POLICY, np.array([1e-5, math.nan]), ActuatorState()),
    ],
    ids=[
        "insertion_loss_nan", "misc_loss_nan", "misc_loss_inf", "margin_floor_nan", "margin_floor_inf",
        "fixed_divergence_nan", "fixed_divergence_inf", "ladder_nan", "ladder_inf", "dt_nan", "dt_inf",
        "altitude_nan", "altitude_inf", "max_range_nan", "max_range_inf",
        "pointing_loss_sigma_nan", "pointing_loss_theta_nan", "pointing_loss_db_sigma_nan",
        "pointing_loss_db_theta_nan", "pointing_loss_db_sigma_column_nan", "pointing_loss_db_theta_column_negative",
        "map_collimated_nan", "map_diverging_slope_nan",
        "map_converging_slope_inf", "map_max_travel_inf", "thermal_output_nan", "thermal_hot_inf",
        "thermal_anchor_inf", "chromatic_offset_nan", "chromatic_wavelength_inf", "motor_speed_nan",
        "motor_speed_inf", "step_size_nan", "step_dt_nan", "track_dt_inf", "steer_nan",
        "steering_frequency_nan", "steering_amplitude_nan", "apply_temperature_nan", "apply_wavelength_negative",
        "profiler_sample_nan", "profiler_spot_nan",
        "profiler_replicates_fraction", "profiler_replicates_bool", "position_points_fraction",
        "position_points_bool",
        "min_divergence_measurement_nan", "na_mismatch_nan", "na_mismatch_fwhm_nan",
        "sensitivity_rate_nan", "watts_nan", "path_loss_distance_nan", "path_loss_wavelength_inf",
        "rx_gain_wavelength_nan", "received_power_distance_nan", "received_power_distance_inf",
        "received_power_pointing_nan",
        "received_power_column_distance_nan", "link_margin_rate_nan", "budget_distance_nan", "budget_rate_nan",
        "optimal_divergence_nan", "sweep_sigma_nan", "sweep_sigma_negative", "sweep_lo_nan", "sweep_hi_inf",
        "optimal_divergence_array_nan", "rule_of_thumb_nan",
        "rule_of_thumb_array_inf", "gain_improvement_nan", "footprint_distance_nan",
        "farfield_angle_nan", "farfield_n_nodes_bool", "farfield_n_nodes_zero", "farfield_n_nodes_fraction", "fwhm_n_nodes_bool",
        "fwhm_n_nodes_zero", "fwhm_n_nodes_fraction",
        "policy_sigma_nan",
    ],
)
def test_non_finite_input_rejected_at_the_boundary(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("motor_speed", 0.0, ValueError),
        ("motor_speed", -1e-3, ValueError),
        ("step_size", -1e-6, ValueError),
        ("step_size", math.inf, ValueError),
        ("lens_position", 1.0, TravelRangeError),
        ("lens_position", math.nan, TravelRangeError),
        ("target_position", -math.inf, TravelRangeError),
        ("temperature_c", 61.0, ValueError),
        ("temperature_c", math.nan, ValueError),
        ("wavelength", 1.6e-6, ValueError),
    ],
)
def test_actuator_state_rejected_before_any_tick(field, value, error):
    with pytest.raises(error):
        ActuatorState(**{field: value})
    # A field assigned after construction is caught when run_pass starts.
    state = ActuatorState()
    setattr(state, field, value)
    with pytest.raises(error):
        run_pass(GEOM, DESIGN_POLICY, design_link(), state=state)
    assert state.time_s == 0.0


def _reference_pass(geometry, policy, config, jitter=0.0, seed=0, state=None):
    """The per-tick closed loop: policy -> command -> step -> achieved divergence -> budget, tick by tick.

    A tick where ``max_rate`` raises is an outage: rate 0, and margin -inf.
    ``run_pass`` computes the same pass as columns; this is its oracle.
    """
    st = state if state is not None else ActuatorState(wavelength=config.wavelength)
    profile = pass_profile(geometry)
    n = len(profile)
    sigmas = np.broadcast_to(np.asarray(jitter, dtype=float), (n,)).tolist()
    floor = policy.margin_floor_db
    rows = []
    for t, elevation, distance, sig in zip(
        profile["t_s"].tolist(), profile["elevation_deg"].tolist(), profile["slant_range_m"].tolist(), sigmas
    ):
        theta_cmd = float(adaptive_policy(policy, sig, st))
        actuator.command_divergence(st, theta_cmd)
        actuator.step(st, geometry.dt_s)
        theta_act = actuator.actual_divergence(st)
        lp_db = pointing_loss_db(sig, theta_act)
        live = config.with_divergence(DivergenceAngle(theta_act, Convention.FWHM))
        try:
            rate = max_rate(live, distance, floor, pointing_loss_db=-lp_db)
            margin = floor
        except LinkClosedError:
            rate, margin = 0.0, -math.inf
        if policy.rate_ladder_bps is not None:
            ladder = [r for r in policy.rate_ladder_bps if r <= rate * (1.0 + 1e-9)]
            if ladder:
                rate = max(ladder)
                report = received_power_dbm(live, distance, pointing_loss_db=-lp_db)
                margin = report.received_power_dbm - config.sensitivity.sensitivity_dbm(rate)
            else:
                rate = 0.0
                margin = -math.inf
        rows.append((t, elevation, distance, sig, theta_cmd, theta_act, lp_db, margin, rate))
    steps = np.array(rows, dtype=STEP_DTYPE)
    total_bits = 0.0
    for row in rows:
        total_bits += row[8] * geometry.dt_s if row[7] >= floor else 0.0
    lag = np.abs(steps["theta_commanded_rad"] - steps["theta_actual_rad"])
    summary = {
        "ticks": n,
        "dt_s": geometry.dt_s,
        "duration_s": rows[-1][0] - rows[0][0],
        "min_range_m": min(r[2] for r in rows),
        "max_range_m": max(r[2] for r in rows),
        "total_bits": total_bits,
        "fraction_at_margin_floor": sum(r[7] >= floor for r in rows) / n,
        "mean_command_lag_rad": float(np.mean(lag)),
        "max_command_lag_rad": float(np.max(lag)),
        "seed": seed,
    }
    return steps, summary


def _final_state(state):
    return (state.lens_position, state.target_position, state.in_motion, state.time_s, state.branch)


@hs.composite
def _passes(draw):
    altitude = draw(hs.floats(400e3, 1200e3))
    if draw(hs.booleans()):
        clip = {"max_range_m": altitude + draw(hs.floats(50e3, 1000e3)),
                "max_elevation_deg": draw(hs.floats(30.0, 90.0))}
    else:
        low = draw(hs.floats(5.0, 60.0))
        clip = {"min_elevation_deg": low, "max_elevation_deg": draw(hs.floats(low + 1.0, 90.0))}
    geometry = PassGeometry(altitude_m=altitude, dt_s=draw(hs.floats(0.2, 15.0)), **clip)
    try:
        n = len(pass_profile(geometry))
    except ValueError:  # the peak lies below the clip
        assume(False)
    assume(n <= 3000)

    strategy = draw(hs.sampled_from(Strategy))
    ladder = draw(hs.none() | hs.lists(
        hs.sampled_from([1e6, 2.5e9, 5e9, 10e9, 20e9, 1e13]) | hs.floats(1e6, 1e12), min_size=1, max_size=6))
    policy = ControlPolicy(
        strategy=strategy,
        margin_floor_db=draw(hs.floats(0.0, 10.0)),
        convention=draw(hs.sampled_from(GainConvention)),
        fixed_divergence_rad=draw(hs.floats(30e-6, 8e-3)) if strategy is Strategy.FIXED else None,
        rate_ladder_bps=None if ladder is None else tuple(ladder),
    )

    dmap = DivergenceMap()
    branch = draw(hs.sampled_from(Branch))
    state = dict(
        branch=branch,
        lens_position=draw(hs.floats(-dmap.max_travel, dmap.max_travel)),
        target_position=draw(hs.floats(-dmap.max_travel, dmap.max_travel)),
        motor_speed=draw(hs.sampled_from([actuator.MOTOR_SPEED_M_PER_S, 1e-4]) | hs.floats(1e-6, 1e-2)),
        step_size=draw(hs.sampled_from([0.0, 1e-7, 1e-6, 3.3e-6])),
        temperature_c=draw(hs.sampled_from([-30.0, 20.0, 60.0]) | hs.floats(-30.0, 60.0)),
        wavelength=draw(hs.sampled_from([1.53e-6, 1.55e-6, 1.565e-6]) | hs.floats(1.53e-6, 1.565e-6)),
        time_s=draw(hs.sampled_from([0.0, 12.5])),
    )

    base = draw(hs.sampled_from([0.0, 1e-6, 20e-6]) | hs.floats(0.0, 1e-3))
    spike = draw(hs.sampled_from([0.0, 5e-4, 5e-3, 0.1]))
    form = draw(hs.sampled_from(["scalar", "array", "periodic"]))
    if form == "scalar":
        jitter = base
    elif form == "array":
        # Per-tick noise gives every tick its own angles, so that the few
        # inputs on which numpy's log10 or power would round differently from
        # the scalar functions turn up.
        noise = draw(hs.sampled_from([0.0, 0.08]))
        rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
        values = np.maximum(base * (1.0 + noise * rng.standard_normal(n)), 0.0)
        ticks = draw(hs.lists(hs.integers(0, n - 1), max_size=5))
        values[ticks] = spike
        values[draw(hs.lists(hs.integers(0, n - 1), max_size=3))] = 0.0
        jitter = values
    else:
        period = draw(hs.floats(5.0, 200.0))

        def spikes(t):
            phase = (t / period) % 1.0
            return spike if phase < 0.1 else 0.0 if phase < 0.2 else base

        jitter = _per_tick(geometry, spikes)

    return geometry, policy, jitter, state


def _assert_pass_equals_reference(geometry, policy, jitter, state, seed=0) -> list[str]:
    """Run both loops from equal states; returns labels of what the pass went through.

    Neither loop may raise: a tick that cannot close is an outage in both.
    """
    config = design_link()
    new, ref = ActuatorState(**state), ActuatorState(**state)
    got = run_pass(geometry, policy, config, jitter=jitter, seed=seed, state=new)
    steps, summary = _reference_pass(geometry, policy, config, jitter=jitter, seed=seed, state=ref)
    assert _final_state(new) == _final_state(ref)
    assert np.array_equal(got.steps, steps)
    assert got.summary == summary
    return ["slewing" if summary["max_command_lag_rad"] > 0.0 else "settled",
            "outage" if np.any(steps["margin_db"] == -math.inf) else "every tick has a rate"]


def _spike_at_culmination(t):
    return 0.1 if abs(t) < 30.0 else 20e-6


# A continuous rate with a spike that closes no rate: outages off the ladder.
@example(case=(GEOM, DESIGN_POLICY, _per_tick(GEOM, _spike_at_culmination), {}), seed=0)
@given(_passes(), hs.integers(0, 2**31))
def test_columnar_pass_equals_the_per_tick_loop(case, seed):
    geometry, policy, jitter, state = case
    for label in _assert_pass_equals_reference(geometry, policy, jitter, state, seed):
        event(label)


def _stops_at_the_stroke_end(steps, state):
    # The first tick's 1.94 mm of travel quantizes to 3.6 mm; the lens stops
    # at the 3.5 mm end, then reaches its 2.43 mm target.
    end = actuator.achieved_divergence(ActuatorState(**state), np.array([DivergenceMap().max_travel]))
    assert steps["theta_actual_rad"][0] == end[0]
    assert np.all(steps["rate_bps"] > 0.0)


def _outage_from_t0(steps, state):
    closed = steps["t_s"] >= 0.0
    assert np.all(steps["rate_bps"][closed] == 0.0)
    assert np.all(steps["margin_db"][closed] == -math.inf)
    # Earlier ticks are those of the same pass without the spike.
    calm = run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=20e-6, state=ActuatorState(**state))
    assert np.array_equal(steps[~closed], calm.steps[~closed])


@pytest.mark.parametrize(
    "geometry,jitter,state,check",
    [
        # A 3.6 mm step quantum rounds the lens past the 3.5 mm stroke end on
        # its way to a wide divergence.
        (dataclasses.replace(GEOM, dt_s=0.25), 1e-3, {"step_size": 3.6e-3}, _stops_at_the_stroke_end),
        # A 0.1 rad spike costs thousands of dB of pointing loss from t = 0 on.
        (GEOM, _per_tick(GEOM, lambda t: 0.1 if t >= 0.0 else 20e-6), {"lens_position": 1e-3, "step_size": 0.0},
         _outage_from_t0),
    ],
    ids=["travel", "link_closed"],
)
def test_failing_tick_completes_as_the_per_tick_loop(geometry, jitter, state, check):
    result = run_pass(geometry, DESIGN_POLICY, design_link(), jitter=jitter, state=ActuatorState(**state))
    check(result.steps, state)
    _assert_pass_equals_reference(geometry, DESIGN_POLICY, jitter, state)


def test_noisy_pass_equals_the_per_tick_loop():
    # Thousands of distinct angles and ranges, as in a 10 ms pass with a
    # vibration episode: numpy's SIMD log10, power or square would round
    # differently from the scalar terms on a few of them.
    geometry = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=0.2)
    n = len(pass_profile(geometry))
    rng = np.random.default_rng(7)
    sigma = np.full(n, 25e-6)
    sigma[n // 3: n // 2] = 400e-6
    sigma *= 1.0 + 0.08 * rng.standard_normal(n)
    state = {"temperature_c": -20.0, "wavelength": 1.56e-6}
    labels = _assert_pass_equals_reference(geometry, DESIGN_POLICY, np.maximum(sigma, 0.0), state)
    assert labels == ["slewing", "every tick has a rate"]


def _row_wise_csv(steps):
    """The CSV of a pass, one ``repr`` per cell: the oracle of ``steps_to_csv``."""
    lines = [",".join(steps.dtype.names)]
    lines.extend(",".join(map(repr, row)) for row in steps.tolist())
    return "\n".join(lines) + "\n"


_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
_CELLS = [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324, -2.5e-320,
          2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e22, 20e-6, 90e-6]


@hs.composite
def _step_arrays(draw):
    """A ``STEP_DTYPE`` array and a block size to render it with.

    Small block sizes put block boundaries inside short arrays; the real one
    is drawn too.
    """
    block = draw(hs.sampled_from([1, 2, 3, 7, _CSV_BLOCK_ROWS]))
    blocks = draw(hs.sampled_from([0, 1] if block == _CSV_BLOCK_ROWS else [0, 1, 2, 3]))
    n = max(0, block * blocks + draw(hs.sampled_from([-1, 0, 1, 5])))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    steps = np.empty(n, STEP_DTYPE)
    for name in STEP_DTYPE.names:
        pool = np.array(draw(hs.lists(hs.sampled_from(_CELLS) | hs.floats(), min_size=1, max_size=4)))
        kind = draw(hs.sampled_from(["runs", "distinct", "alternating", "signed zeros"]))
        if kind == "runs":
            # Runs up to the whole array long, so some cross a block boundary.
            longest = draw(hs.sampled_from([1, 2, 3, 50, 3 * block]))
            lengths = rng.integers(1, longest + 1, n)
            column = np.repeat(pool[rng.integers(0, len(pool), n)], lengths)[:n]
        elif kind == "distinct":
            column = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-323, 308, n).astype(float)
            sprinkled = rng.random(n) < 0.05
            column[sprinkled] = pool[rng.integers(0, len(pool), n)][sprinkled]
        elif kind == "alternating":
            column = pool[np.arange(n) % len(pool)]
        else:
            column = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        steps[name] = column
    return steps, block


def _cell_events(steps, block):
    for name in STEP_DTYPE.names:
        column = steps[name]
        bits = column.view(np.int64)
        if len(column) > block and bits[block - 1] == bits[block]:
            yield "a run crosses a block boundary"
        zeros = (column[:-1] == 0.0) & (column[1:] == 0.0)
        if np.any(zeros & (np.signbit(column[:-1]) != np.signbit(column[1:]))):
            yield "0.0 next to -0.0"
        if np.any(np.isnan(column)):
            yield "NaN"
        if np.any(np.isinf(column)):
            yield "inf"
        if np.any((column != 0.0) & (np.abs(column) < 2.2250738585072014e-308)):
            yield "subnormal"


_BLOCKS_GEOM = dataclasses.replace(GEOM, dt_s=0.05)


# A real pass longer than one block: constant columns run across the boundary.
@example(case=(run_pass(_BLOCKS_GEOM, DESIGN_POLICY, design_link(),
                        jitter=_per_tick(_BLOCKS_GEOM, _spike_at_culmination)).steps, _CSV_BLOCK_ROWS))
# A symmetric pass in one block under a constant jitter: some columns hold one value throughout.
@example(case=(run_pass(GEOM, DESIGN_POLICY, design_link(), jitter=20e-6).steps, _CSV_BLOCK_ROWS))
@given(_step_arrays())
def test_csv_equals_the_row_wise_renderer(tmp_path_factory, case):
    steps, block = case
    for label in set(_cell_events(steps, block)):
        event(label)
    event("more than one block" if len(steps) > block else "one block or less")
    event(f"{'real' if block == _CSV_BLOCK_ROWS else 'small'} block size")
    expected = _row_wise_csv(steps)
    path = tmp_path_factory.mktemp("csv") / "pass.csv"
    with mock.patch.object(sim, "_CSV_BLOCK_ROWS", block):
        assert steps_to_csv(steps) == expected
        write_steps_csv(steps, path)
    assert path.read_bytes() == expected.encode("ascii")


@pytest.fixture(scope="module")
def long_pass():
    """A 28.8k-tick pass at dt = 10 ms with a vibration episode: nearly every cell is distinct."""
    geometry = dataclasses.replace(GEOM, dt_s=0.01)
    n = len(pass_profile(geometry))
    rng = np.random.default_rng(11)
    sigma = np.full(n, 25e-6)
    sigma[n // 3: n // 2] = 400e-6
    sigma *= 1.0 + 0.08 * rng.standard_normal(n)
    return run_pass(geometry, DESIGN_POLICY, design_link(), jitter=np.maximum(sigma, 0.0)).steps


@pytest.mark.parametrize(
    "rows",
    [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
     2 * _CSV_BLOCK_ROWS - 1, 2 * _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 1, 6 * _CSV_BLOCK_ROWS + 5, None],
)
def test_written_csv_equals_the_rendered_text(tmp_path, long_pass, rows):
    steps = long_pass[:rows]
    path = tmp_path / "pass.csv"
    write_steps_csv(steps, path)
    assert path.read_bytes() == steps_to_csv(steps).encode("ascii")


def test_writing_a_long_pass_holds_one_block_not_its_text(tmp_path, long_pass):
    # Rendering the whole text before one write would peak at twice its size.
    size = len(steps_to_csv(long_pass))
    tracemalloc.start()
    try:
        write_steps_csv(long_pass, tmp_path / "pass.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 3
