import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hs
from scipy.optimize import brentq

from beamdiv.actuator import (
    MOTOR_SPEED_M_PER_S,
    STEERING_RANGE_RAD,
    ActuatorState,
    Branch,
    ChromaticModel,
    DivergenceMap,
    ThermalModel,
    TravelRangeError,
    achieved_divergence,
    actual_divergence,
    apply_temperature,
    apply_wavelength,
    axis_deviation,
    command_divergence,
    divergence_from_position,
    position_from_divergence,
    run_script,
    set_temperature,
    set_wavelength,
    setting_on_branch,
    snapshot,
    steer,
    steering_residual,
    step,
    temperature_corrected_position,
)

MAP = DivergenceMap()
THERMAL = ThermalModel()
CHROMA = ChromaticModel()

# Spot angles that split [collimated, branch maximum] into four segments.
ROUND_TRIP_STARTS = [90e-6, 350e-6, 3.115e-3, 6.1e-3]


def assert_travel_time(seconds, theta, lens_position=0.0):
    """An unquantized lens commanded to ``theta`` on the diverging branch arrives in one
    tick of ``seconds`` (to rel 1e-9), and not in a tick that much shorter."""
    for dt, moving in ((seconds * (1.0 - 1e-9), True), (seconds * (1.0 + 1e-9), False)):
        st = ActuatorState(lens_position=lens_position, target_position=lens_position, step_size=0.0)
        command_divergence(st, theta, Branch.DIVERGING)
        step(st, dt)
        assert st.in_motion is moving
    assert st.lens_position == st.target_position


class TestDivergenceMap:
    def test_collimated_point(self):
        assert divergence_from_position(0.0, MAP) == 90e-6

    def test_diverging_endpoint(self):
        assert divergence_from_position(3.5e-3, MAP) == pytest.approx(6.14e-3, rel=1e-12)

    def test_converging_endpoint(self):
        assert divergence_from_position(-3.5e-3, MAP) == pytest.approx(6.25e-3, rel=1e-12)

    def test_design_slopes(self):
        # 6.05 mrad over 3.5 mm and 6.16 mrad over 3.5 mm.
        assert MAP.diverging_slope == pytest.approx(1728.571e-6 / 1e-3, rel=1e-4)
        assert MAP.converging_slope == pytest.approx(1760e-6 / 1e-3, rel=1e-12)

    def test_out_of_travel(self):
        with pytest.raises(TravelRangeError):
            divergence_from_position(3.6e-3, MAP)

    @pytest.mark.parametrize("branch", list(Branch))
    @pytest.mark.parametrize("theta", ROUND_TRIP_STARTS)
    @example(fraction=0.0)
    @given(fraction=hs.floats(0.0, 1.0))
    def test_inverse_round_trip(self, branch, theta, fraction):
        # Each case draws from the segment its spot angle starts, so together
        # they cover the branch; the round trip is good to one ulp.
        hi = next((start for start in ROUND_TRIP_STARTS if start > theta), MAP.branch_max(branch))
        target = min(theta + fraction * (hi - theta), hi)
        x = position_from_divergence(target, branch, MAP)
        assert abs(divergence_from_position(x, MAP) - target) <= math.ulp(target)

    def test_inverse_examples(self):
        assert position_from_divergence(90e-6, Branch.DIVERGING, MAP) == 0.0
        assert position_from_divergence(90e-6, Branch.CONVERGING, MAP) == 0.0
        assert position_from_divergence(6.25e-3, Branch.CONVERGING, MAP) == pytest.approx(-3.5e-3, rel=1e-12)
        assert position_from_divergence(3.115e-3, Branch.DIVERGING, MAP) == pytest.approx(1.75e-3, rel=1e-12)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            position_from_divergence(80e-6, Branch.DIVERGING, MAP)
        with pytest.raises(ValueError):
            position_from_divergence(6.2e-3, Branch.DIVERGING, MAP)  # above diverging max

    @pytest.mark.parametrize("branch", list(Branch))
    def test_branch_maximum_reachable(self, branch):
        # The converging maximum used to map one ulp past the stroke end.
        st = ActuatorState()
        command_divergence(st, MAP.branch_max(branch), branch)
        target = st.target_position
        assert abs(target) == MAP.max_travel
        step(st, MAP.max_travel / st.motor_speed)
        assert st.lens_position == target
        assert actual_divergence(st) == pytest.approx(MAP.branch_max(branch), rel=1e-12)
        script = [f"set-divergence {MAP.branch_max(branch)!r} {branch.value}", "step 1"]
        assert run_script(script)[-1]["lens_position_m"] == target

    def test_virtual_setting_extends_below_collimation(self):
        u = setting_on_branch(-1e-3, Branch.DIVERGING, MAP)
        assert u == pytest.approx(90e-6 - MAP.diverging_slope * 1e-3, rel=1e-12)
        assert setting_on_branch(1e-3, Branch.DIVERGING, MAP) == divergence_from_position(1e-3, MAP)


class TestMotion:
    def test_full_traverse_duration(self):
        st = ActuatorState(lens_position=-3.5e-3, target_position=-3.5e-3)
        command_divergence(st, 6.14e-3, Branch.DIVERGING)
        assert st.target_position == pytest.approx(3.5e-3, rel=1e-12)
        assert_travel_time(0.9, 6.14e-3, lens_position=-3.5e-3)

    def test_noop_command(self):
        st = ActuatorState()
        command_divergence(st, 90e-6)
        assert not st.in_motion  # arrived before any tick
        step(st, 1e-9)
        assert st.lens_position == st.target_position == 0.0

    def test_small_move_timing(self):
        # 1.36 mrad step on the diverging branch takes about 100 ms.
        assert_travel_time(0.10115702479338845, 90e-6 + 1.36e-3)

    def test_step_fixed_point_at_target(self):
        st = ActuatorState(lens_position=1e-3, target_position=1e-3)
        before = st.lens_position
        step(st, 0.05)
        assert st.lens_position == before
        assert not st.in_motion

    def test_full_traverse_arrives_in_0_9_s(self):
        st = ActuatorState(lens_position=-3.5e-3, target_position=-3.5e-3)
        command_divergence(st, 6.14e-3, Branch.DIVERGING)
        dt = 0.01
        ticks = 0
        while st.in_motion:
            step(st, dt)
            ticks += 1
            assert ticks < 200
        assert st.lens_position == pytest.approx(3.5e-3, abs=st.step_size)
        assert abs(ticks * dt - 0.9) <= dt  # 0.9 s within one tick

    def test_never_overshoots_target(self):
        st = ActuatorState()
        command_divergence(st, 4.0e-3, Branch.DIVERGING)
        target = st.target_position
        last = st.lens_position
        while st.in_motion:
            step(st, 0.007)
            assert st.lens_position <= target + st.step_size
            assert st.lens_position >= last  # monotone approach
            last = st.lens_position
        assert st.lens_position == target

    def test_half_steps_consistent(self):
        a = ActuatorState()
        b = ActuatorState()
        command_divergence(a, 5e-3, Branch.DIVERGING)
        command_divergence(b, 5e-3, Branch.DIVERGING)
        step(a, 0.2)
        step(b, 0.1)
        step(b, 0.1)
        assert abs(a.lens_position - b.lens_position) <= a.step_size

    def test_implied_angular_speed(self):
        # Full converging-to-diverging sweep covers 12.21 mrad in 0.9 s.
        span = (MAP.converging_max - 90e-6) + (MAP.diverging_max - 90e-6)
        urad_per_ms = span / 0.9 * 1e3
        assert urad_per_ms == pytest.approx(13.5667, abs=0.001)
        assert abs(urad_per_ms - 13.6) <= 0.3

    def test_motor_speed_constant(self):
        assert MOTOR_SPEED_M_PER_S == pytest.approx(7e-3 / 0.9, rel=1e-15)


class TestThermalModel:
    @pytest.mark.parametrize("theta,temp,expected", [
        (90e-6, -30.0, 675e-6),
        (90e-6, 60.0, 423e-6),
        (5e-3, -30.0, 5e-3 / 1.2),
        (5e-3, 60.0, 5.5e-3),
    ])
    def test_qualification_anchors(self, theta, temp, expected):
        assert apply_temperature(theta, temp, THERMAL) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", [90e-6, 1e-3, 5e-3, 6.14e-3])
    def test_identity_at_reference(self, theta):
        assert apply_temperature(theta, 20.0, THERMAL) == theta

    def test_deviation_linear_in_temperature_per_side(self):
        dev_10 = THERMAL.deviation(90e-6, 10.0)
        dev_0 = THERMAL.deviation(90e-6, 0.0)
        dev_m30 = THERMAL.deviation(90e-6, -30.0)
        assert dev_0 == pytest.approx(2.0 * dev_10, rel=1e-12)
        assert dev_m30 == pytest.approx(5.0 * dev_10, rel=1e-12)

    def test_deviation_linear_in_setting(self):
        lo, hi = THERMAL.anchor_settings
        mid = 0.5 * (lo + hi)
        dev_mid = THERMAL.deviation(mid, -30.0)
        assert dev_mid == pytest.approx(
            0.5 * (THERMAL.deviation(lo, -30.0) + THERMAL.deviation(hi, -30.0)), rel=1e-12
        )

    def test_an_array_of_settings_gives_an_array_at_the_reference(self):
        settings = np.array([[90e-6, 1e-3], [5e-3, 6.14e-3], [-1e-3, 0.0]])
        deviation = THERMAL.deviation(settings, THERMAL.reference_temperature_c)
        assert isinstance(deviation, np.ndarray) and deviation.shape == settings.shape
        assert not deviation.any()

    def test_monotone_in_distance_from_reference(self):
        temps_cold = [10.0, 0.0, -10.0, -20.0, -30.0]
        devs = [THERMAL.deviation(90e-6, t) for t in temps_cold]
        assert devs == sorted(devs)  # grows as T drops below 20 C

    def test_cold_slope_value(self):
        assert THERMAL.cold_slope(0) == pytest.approx(1.17e-05, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_temperature(90e-6, -31.0, THERMAL)
        with pytest.raises(ValueError):
            apply_temperature(90e-6, 61.0, THERMAL)


class TestChromaticModel:
    @pytest.mark.parametrize("theta,wl,expected", [
        (90e-6, 1.53e-6, 100e-6),
        (90e-6, 1.565e-6, 93e-6),
        (5e-3, 1.53e-6, 5.171e-3),
        (5e-3, 1.565e-6, 5.13e-3),
    ])
    def test_band_edge_anchors(self, theta, wl, expected):
        assert apply_wavelength(theta, wl, CHROMA) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", [90e-6, 2e-3, 5e-3])
    def test_identity_at_optimized_wavelength(self, theta):
        assert apply_wavelength(theta, 1.55e-6, CHROMA) == theta

    def test_offsets_nonnegative_at_band_edges(self):
        for theta in np.linspace(90e-6, 6.25e-3, 20):
            assert CHROMA.offset(theta, 1.53e-6) >= 0.0
            assert CHROMA.offset(theta, 1.565e-6) >= 0.0

    def test_quadratic_interpolation_between_samples(self):
        off = CHROMA.offset(90e-6, 1.54e-6)
        assert 0.0 < off < 10e-6

    @pytest.mark.parametrize("field,values", [
        ("wavelengths", (1.53e-6, 1.55e-6)),
        ("wavelengths", (1.53e-6, 1.54e-6, 1.55e-6, 1.565e-6)),
        ("offsets_low", (10e-6, 0.0)),
        ("offsets_low", (10e-6, 0.0, 3e-6, 5e-6)),
        ("offsets_high", (171e-6, 0.0)),
        ("offsets_high", (171e-6, 0.0, 130e-6, 150e-6)),
    ])
    def test_needs_exactly_three_samples(self, field, values):
        with pytest.raises(ValueError, match="exactly 3"):
            ChromaticModel(**{field: values})

    def test_zero_offsets_must_share_a_wavelength(self):
        # Each anchor has a zero, but at different wavelengths: no wavelength
        # is the optimization wavelength.
        with pytest.raises(ValueError, match="zero offset at both anchors"):
            ChromaticModel(offsets_low=(0.0, 1e-6, 3e-6))
        ChromaticModel(offsets_low=(10e-6, -0.0, 3e-6))

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            apply_wavelength(90e-6, 1.52e-6, CHROMA)
        with pytest.raises(ValueError):
            apply_wavelength(90e-6, 1.58e-6, CHROMA)


class TestTemperatureCorrection:
    def test_ambient_matches_plain_inverse(self):
        for branch in Branch:
            for theta in (90e-6, 1e-3, 5e-3):
                x_corr = temperature_corrected_position(theta, 20.0, THERMAL, MAP, branch)
                x_plain = position_from_divergence(theta, branch, MAP)
                assert x_corr == pytest.approx(x_plain, abs=1e-12)

    def test_collimated_at_minus_30(self):
        # The correction crosses the nominal collimation point.
        x = temperature_corrected_position(90e-6, -30.0, THERMAL, MAP, Branch.DIVERGING)
        assert x == pytest.approx(-4.7590169431349727e-4, rel=1e-9)
        u = setting_on_branch(x, Branch.DIVERGING, MAP)
        achieved = u + THERMAL.deviation(u, -30.0)
        assert achieved == pytest.approx(90e-6, rel=1e-9)

    def test_round_trip_grid_under_one_percent(self):
        for theta in np.linspace(90e-6, 5e-3, 8):
            for temp in np.linspace(-30.0, 60.0, 7):
                x = temperature_corrected_position(theta, temp, THERMAL, MAP, Branch.CONVERGING)
                u = setting_on_branch(x, Branch.CONVERGING, MAP)
                achieved = u + THERMAL.deviation(u, temp)
                assert abs(achieved - theta) / theta < 0.01

    def test_emulator_reports_corrected_output(self):
        st = ActuatorState()
        set_temperature(st, -30.0)
        x = temperature_corrected_position(90e-6, -30.0, st.thermal, st.dmap, st.branch)
        st.lens_position = st.target_position = x
        assert actual_divergence(st) == pytest.approx(90e-6, rel=1e-9)

    def test_correction_beyond_travel_raises(self):
        # 5 mrad at -30 C on the diverging branch needs ~3.52 mm of travel.
        with pytest.raises(TravelRangeError):
            temperature_corrected_position(5e-3, -30.0, THERMAL, MAP, Branch.DIVERGING)

    @pytest.mark.parametrize("target", [-1e-3, 0.0, math.nan, math.inf])
    def test_target_checked_at_entry(self, target):
        # -1 mrad lies inside the reachable outputs, which run below zero.
        with pytest.raises(ValueError, match="theta_target must be finite and > 0"):
            temperature_corrected_position(target, 20.0, THERMAL, MAP, Branch.DIVERGING)



def _stroke_outputs(temperature_c, branch):
    """Achieved divergence at the two stroke ends: the ends of the reachable range."""
    ends = (-MAP.max_travel, MAP.max_travel)
    return [u + THERMAL.deviation(u, temperature_c) for u in (setting_on_branch(x, branch, MAP) for x in ends)]


@given(hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c), hs.sampled_from(Branch), hs.floats(0.0, 1.0))
def test_lookup_table_realizes_its_target_anywhere_in_the_stroke(temperature_c, branch, fraction):
    p_min, p_max = sorted(_stroke_outputs(temperature_c, branch))
    target = max(p_min, 1e-6) + fraction * (p_max - max(p_min, 1e-6))
    x = temperature_corrected_position(target, temperature_c, THERMAL, MAP, branch)
    achieved = apply_temperature(setting_on_branch(x, branch, MAP), temperature_c, THERMAL)
    # The output is affine in x, so the solver's x tolerance maps through its slope; plus rounding.
    slope = (p_max - p_min) / (2 * MAP.max_travel)
    assert abs(achieved - target) <= slope * (1e-15 + 1e-15 * abs(x)) + 4 * math.ulp(p_max)

    def excess(y):
        u = setting_on_branch(y, branch, MAP)
        return u + THERMAL.deviation(u, temperature_c) - target

    root = brentq(excess, -MAP.max_travel, MAP.max_travel, xtol=1e-15, rtol=1e-15)
    assert abs(x - root) <= 1e-15 + 1e-15 * abs(root)


@given(hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c), hs.sampled_from(Branch),
       hs.floats(1e-12, 1.0), hs.booleans())
def test_lookup_table_rejects_targets_outside_the_stroke(temperature_c, branch, excess, above):
    p_min, p_max = sorted(_stroke_outputs(temperature_c, branch))
    target = p_max * (1.0 + excess) if above else p_min - excess * abs(p_min) - 1e-9
    # The reachable outputs can run below zero; a target there is no angle at all.
    error, message = (TravelRangeError, "exceeds travel range") if target > 0 else (ValueError, "finite and > 0")
    with pytest.raises(error, match=message):
        temperature_corrected_position(target, temperature_c, THERMAL, MAP, branch)


class TestActualDivergence:
    def test_ambient_matches_nominal_map(self):
        st = ActuatorState()
        command_divergence(st, 3e-3, Branch.DIVERGING)
        step(st, 1.0)
        assert actual_divergence(st) == pytest.approx(3e-3, rel=1e-12)

    def test_cold_collimated(self):
        st = ActuatorState()
        set_temperature(st, -30.0)
        assert actual_divergence(st) == pytest.approx(675e-6, rel=1e-12)

    def test_band_edge_wavelength(self):
        st = ActuatorState()
        set_wavelength(st, 1.53e-6)
        assert actual_divergence(st) == pytest.approx(100e-6, rel=1e-12)

    def test_never_below_collimated_minimum(self):
        st = ActuatorState()
        set_temperature(st, -30.0)
        for x in np.linspace(-3.5e-3, 3.5e-3, 41):
            st.lens_position = x
            assert actual_divergence(st) >= MAP.collimated_divergence


STROKE = MAP.max_travel
# Positions on the stroke, its ends and both zeros included.
POSITIONS = hs.lists(hs.sampled_from([0.0, -0.0, STROKE, -STROKE]) | hs.floats(-STROKE, STROKE), min_size=1, max_size=20)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@given(hs.sampled_from([THERMAL.cold_temperature_c, THERMAL.reference_temperature_c, THERMAL.hot_temperature_c])
       | hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c),
       hs.sampled_from(CHROMA.wavelengths) | hs.floats(CHROMA.wavelengths[0], CHROMA.wavelengths[2]),
       hs.sampled_from(Branch), POSITIONS)
def test_a_column_of_positions_gives_what_each_position_gives(temperature_c, wavelength, branch, positions):
    st = ActuatorState(temperature_c=temperature_c, wavelength=wavelength, branch=branch)
    column = np.array(positions)
    achieved, settings = achieved_divergence(st, column), setting_on_branch(column, branch, MAP)
    one_by_one = []
    for x in positions:
        st.lens_position = x
        one_by_one.append(actual_divergence(st))
    assert _bits(achieved) == _bits(one_by_one)
    assert _bits(settings) == _bits([setting_on_branch(x, branch, MAP) for x in positions])


@given(POSITIONS, hs.integers(0, 19), hs.sampled_from(Branch),
       hs.sampled_from([math.nextafter(STROKE, math.inf), -math.nextafter(STROKE, math.inf), math.nan])
       | hs.floats(min_value=STROKE, exclude_min=True) | hs.floats(max_value=-STROKE, exclude_max=True))
def test_a_column_with_a_position_off_the_stroke_is_rejected_naming_it(positions, at, branch, off):
    column = np.array(positions)
    column[at % len(column)] = off
    st = ActuatorState(branch=branch)
    message = f"^lens position must be finite and >= {-STROKE} and <= {STROKE}, got {re.escape(repr(off))}$"
    with pytest.raises(TravelRangeError, match=message):
        achieved_divergence(st, column)
    with pytest.raises(TravelRangeError, match=message):
        setting_on_branch(column, branch, MAP)


class TestAxisAndSteering:
    def test_deterministic_for_fixed_seed(self):
        st = ActuatorState()
        assert axis_deviation(st, 7) == axis_deviation(st, 7)

    def test_bounded_by_five_percent(self):
        rng = np.random.default_rng(3)
        for theta in (90e-6, 1e-3, 6.14e-3):
            st = ActuatorState()
            command_divergence(st, theta, Branch.DIVERGING)
            step(st, 1.0)
            current = actual_divergence(st)
            for _ in range(500):
                tip, tilt = axis_deviation(st, rng)
                assert math.hypot(tip, tilt) <= 0.05 * current

    def test_collimated_mean_magnitude(self):
        st = ActuatorState()
        rng = np.random.default_rng(12)
        mags = [math.hypot(*axis_deviation(st, rng)) for _ in range(4000)]
        assert np.mean(mags) == pytest.approx(1.3e-6, rel=0.05)

    def test_steering_residual_in_band(self):
        assert steering_residual(50.0, 80e-6) == pytest.approx(0.8e-6, rel=1e-12)

    def test_steering_residual_above_band(self):
        assert steering_residual(150.0, 10e-6) == 10e-6

    def test_steering_residual_zero_input(self):
        assert steering_residual(50.0, 0.0) == 0.0

    def test_steering_residual_saturates(self):
        residual = steering_residual(50.0, 120e-6)
        assert residual == pytest.approx(STEERING_RANGE_RAD * 0.01 + 20e-6, rel=1e-12)

    def test_steer_range_enforced(self):
        st = ActuatorState()
        steer(st, 100e-6, -100e-6)
        assert (st.tip, st.tilt) == (100e-6, -100e-6)
        with pytest.raises(ValueError):
            steer(st, 101e-6, 0.0)

    def test_bad_tilt_leaves_the_tip_unchanged(self):
        st = ActuatorState()
        steer(st, 50e-6, 0.0)
        with pytest.raises(ValueError, match="tilt"):
            steer(st, -50e-6, 2e-4)
        assert (st.tip, st.tilt) == (50e-6, 0.0)

    def test_temperature_range_enforced(self):
        st = ActuatorState()
        set_temperature(st, -30.0)
        set_temperature(st, 60.0)
        with pytest.raises(ValueError):
            set_temperature(st, 75.0)


class TestCommandScript:
    def test_empty_script_initial_row_only(self):
        trace = run_script([])
        assert len(trace) == 1
        assert trace[0]["command"] == "initial"
        assert trace[0]["actual_divergence_rad"] == 90e-6

    def test_divergence_and_step(self):
        trace = run_script(["set-divergence 5e-3 diverging", "step 0.9"])
        final = trace[-1]
        assert final["in_motion"] is False
        assert final["actual_divergence_rad"] == pytest.approx(5e-3, rel=1e-9)
        assert final["time_s"] == pytest.approx(0.9)

    def test_cold_query(self):
        trace = run_script(["set-temperature -30", "query"])
        assert trace[-1]["actual_divergence_rad"] == pytest.approx(675e-6, rel=1e-12)

    def test_comments_and_blanks_skipped(self):
        trace = run_script(["# comment", "", "step 0.1  # inline"])
        assert len(trace) == 2

    def test_bad_command_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            run_script(["step 0.1", "warp 9"])

    @pytest.mark.parametrize("line,usage", [
        ("step", "step DT_S"),
        ("step 0.1 0.2", "step DT_S"),
        ("steer 1e-5", "steer TIP_RAD TILT_RAD"),
        ("steer 1e-5 1e-5 1e-5", "steer TIP_RAD TILT_RAD"),
        ("set-temperature", "set-temperature DEG_C"),
        ("set-wavelength", "set-wavelength METERS"),
        ("set-wavelength 1.55e-6 1.56e-6", "set-wavelength METERS"),
        ("query now", "query"),
        ("set-divergence", "set-divergence THETA_RAD [diverging|converging]"),
        ("set-divergence 1e-3 diverging 2", "set-divergence THETA_RAD [diverging|converging]"),
    ])
    def test_wrong_argument_count_names_the_usage(self, line, usage):
        # Nothing is dropped or indexed past the end: the line fails as a whole.
        with pytest.raises(ValueError, match=f"^script line 2: usage: {re.escape(usage)}$"):
            run_script(["query", line])

    def test_trace_is_json_serializable(self):
        trace = run_script(["set-divergence 2e-3", "step 0.5", "steer 5e-6 -5e-6", "query"])
        json.dumps(trace)

    def test_snapshot_fields(self):
        snap = snapshot(ActuatorState())
        for key in ("time_s", "lens_position_m", "branch", "actual_divergence_rad", "temperature_c"):
            assert key in snap
