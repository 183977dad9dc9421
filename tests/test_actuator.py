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
    axis_deviation,
    command_divergence,
    corrected_position,
    position_from_divergence,
    run_script,
    set_temperature,
    set_wavelength,
    setting_on_branch,
    snapshot,
    steer,
    steering_residual,
    step,
    track,
)
from scalar_motion import scalar_step, scalar_track

MAP = DivergenceMap()
THERMAL = ThermalModel()
CHROMA = ChromaticModel()

# Spot angles that split [collimated, branch maximum] into four segments.
ROUND_TRIP_STARTS = [90e-6, 350e-6, 3.115e-3, 6.1e-3]


def nominal(x):
    """The nominal divergence a trace row reports at lens position ``x``: the setting on ``x``'s own side."""
    return snapshot(ActuatorState(lens_position=x, target_position=x))["nominal_divergence_rad"]


def achieved_at(theta, **at):
    """What the lens achieves commanded to ``theta`` on the diverging branch, at a temperature or wavelength."""
    state = ActuatorState(**at)
    return achieved_divergence(state, position_from_divergence(theta, Branch.DIVERGING, state.dmap))


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
        assert nominal(0.0) == 90e-6

    def test_diverging_endpoint(self):
        assert nominal(3.5e-3) == pytest.approx(6.14e-3, rel=1e-12)

    def test_converging_endpoint(self):
        assert nominal(-3.5e-3) == pytest.approx(6.25e-3, rel=1e-12)

    def test_design_slopes(self):
        # 6.05 mrad over 3.5 mm and 6.16 mrad over 3.5 mm.
        assert MAP.diverging_slope == pytest.approx(1728.571e-6 / 1e-3, rel=1e-4)
        assert MAP.converging_slope == pytest.approx(1760e-6 / 1e-3, rel=1e-12)

    def test_out_of_travel(self):
        with pytest.raises(TravelRangeError):
            setting_on_branch(3.6e-3, Branch.DIVERGING, MAP)

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
        assert abs(setting_on_branch(x, branch, MAP) - target) <= math.ulp(target)

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
        assert setting_on_branch(1e-3, Branch.DIVERGING, MAP) == nominal(1e-3)


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


def _bits(values):
    """The float64 bit patterns of ``values``: equal bits, not just equal values (-0.0 differs from 0.0)."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_track_is_the_scalar_rule(state, targets, dt):
    """``track`` over the column gives the scalar rule's positions and final state, bit for bit."""
    column, looped = ActuatorState(**state), ActuatorState(**state)
    got = track(column, np.array(targets, dtype=float), dt)
    want = scalar_track(looped, list(targets), dt)
    assert got.dtype == np.float64 and got.shape == (len(want),)
    assert _bits(got) == _bits(want)
    final = [(st.lens_position, st.target_position, st.time_s) for st in (column, looped)]
    assert _bits(final[0]) == _bits(final[1])


STROKE = MAP.max_travel
# Stroke ends, signed zeros and a half-step grid point among any positions on the stroke.
LENS_POSITIONS = hs.sampled_from([-STROKE, STROKE, 0.0, -0.0, 1e-6, -0.5e-6]) | hs.floats(-STROKE, STROKE)
SPEEDS = hs.sampled_from([MOTOR_SPEED_M_PER_S, 1e-4]) | hs.floats(1e-6, 1.0)
QUANTA = hs.sampled_from([0.0, 1e-7, 1e-6, 3.3e-6, 3.6e-3])  # 3.6 mm: one step is longer than the stroke
DTS = hs.sampled_from([5e-5, 0.01, 1.0]) | hs.floats(1e-5, 10.0)
TIMES = hs.sampled_from([0.0, 12.5]) | hs.floats(0.0, 1e5)


@hs.composite
def target_columns(draw):
    form = draw(hs.sampled_from(["points", "holds", "wander"]))
    if form == "points":
        return draw(hs.lists(LENS_POSITIONS, max_size=40))
    if form == "holds":  # a few targets, each held for many ticks: long slews for a slow lens
        holds = draw(hs.lists(hs.tuples(LENS_POSITIONS, hs.integers(1, 400)), min_size=1, max_size=6))
        return [x for x, ticks in holds for _ in range(ticks)]
    # A wandering target: any tick may start a slew, and a slew may turn back.
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    centre, spread = draw(LENS_POSITIONS), draw(hs.sampled_from([1e-6, 1e-4, 1e-3]))
    return np.clip(centre + spread * rng.standard_normal(draw(hs.integers(1, 600))), -STROKE, STROKE).tolist()


@given(lens=LENS_POSITIONS, target=LENS_POSITIONS, speed=SPEEDS, quantum=QUANTA, dt=DTS, time_s=TIMES,
       targets=target_columns())
def test_track_is_the_scalar_rule_bit_for_bit(lens, target, speed, quantum, dt, time_s, targets):
    state = dict(lens_position=lens, target_position=target, motor_speed=speed, step_size=quantum, time_s=time_s)
    _assert_track_is_the_scalar_rule(state, targets, dt)


# What a caller does between steps: a run of ticks of one dt, a commanded
# divergence (a fraction of its branch's range), or a target assigned directly.
MOTION_COMMANDS = (
    hs.tuples(hs.just("step"), DTS, hs.integers(1, 40))
    | hs.tuples(hs.just("command"), hs.sampled_from(list(Branch)), hs.floats(0.0, 1.0))
    | hs.tuples(hs.just("target"), LENS_POSITIONS)
)


@given(lens=LENS_POSITIONS, target=LENS_POSITIONS, speed=SPEEDS, quantum=QUANTA, time_s=TIMES,
       commands=hs.lists(MOTION_COMMANDS, max_size=30))
def test_step_is_the_scalar_rule_bit_for_bit(lens, target, speed, quantum, time_s, commands):
    state = dict(lens_position=lens, target_position=target, motor_speed=speed, step_size=quantum, time_s=time_s)
    stepped, looped = ActuatorState(**state), ActuatorState(**state)
    for kind, *args in commands:
        if kind == "step":
            dt, ticks = args
            for _ in range(ticks):
                step(stepped, dt)
                scalar_step(looped, dt)
                final = [(st.lens_position, st.target_position, st.time_s) for st in (stepped, looped)]
                assert _bits(final[0]) == _bits(final[1])
        elif kind == "command":
            branch, fraction = args
            top = MAP.branch_max(branch)
            theta = min(MAP.collimated_divergence + fraction * (top - MAP.collimated_divergence), top)
            command_divergence(stepped, theta, branch)
            command_divergence(looped, theta, branch)
        else:
            stepped.target_position = looped.target_position = args[0]


@pytest.mark.parametrize("speed, quantum, dt", [
    (1e-5, 1e-6, 0.01),  # 0.1 um a tick rounds back: the lens cannot leave its grid point
    (1e-3, 0.0, 0.01),  # a slow lens off the grid
    (1e-3, 1e-6, 0.01),
    (MOTOR_SPEED_M_PER_S, 1e-6, 1e-4),  # fine ticks: a stroke-long slew takes thousands
], ids=["stuck", "slow_unquantized", "slow", "fine_ticks"])
def test_track_runs_long_slews_ahead_as_the_scalar_rule(speed, quantum, dt):
    rng = np.random.default_rng(7)
    columns = {
        "wander": np.clip(np.cumsum(rng.normal(0.0, 2e-4, 2000)), -STROKE, STROKE),
        "jumps": np.repeat(rng.uniform(-STROKE, STROKE, 8), 250),
        "noise": rng.uniform(-STROKE, STROKE, 2000),
    }
    for targets in columns.values():
        _assert_track_is_the_scalar_rule(dict(motor_speed=speed, step_size=quantum), targets.tolist(), dt)


def test_a_lens_rounding_to_zero_from_below_lands_on_positive_zero():
    # -0.2 steps rounds to the integer 0 in the rule, where np.rint gives -0.0.
    state = dict(lens_position=0.5e-6, motor_speed=0.7e-6, step_size=1e-6)
    assert _bits(track(ActuatorState(**state), [-1e-3, -1e-3], 1.0)) == _bits([0.0, -1e-6])
    _assert_track_is_the_scalar_rule(state, [-1e-3, -1e-3], 1.0)


@pytest.mark.parametrize("lens, targets, want", [
    (0.0, [-0.0, -0.0, 1e-3, -0.0], [-0.0, -0.0, 1e-3, -0.0]),
    (-0.0, [0.0, 0.0], [0.0, 0.0]),
])
def test_a_target_equal_to_the_lens_is_taken_with_its_zero_sign(lens, targets, want):
    st = ActuatorState(lens_position=lens, target_position=lens, step_size=0.0, motor_speed=1.0)
    assert _bits(track(st, targets, 0.01)) == _bits(want)


def test_an_empty_column_leaves_the_state_untouched():
    st = ActuatorState(lens_position=1e-3, target_position=-1e-3, time_s=3.0)
    got = track(st, [], 0.01)
    assert got.dtype == np.float64 and got.shape == (0,)
    assert (st.lens_position, st.target_position, st.time_s) == (1e-3, -1e-3, 3.0)


def test_track_leaves_its_targets_as_they_are_and_rejects_one_off_the_stroke():
    targets = np.array([1e-3, -2e-3, 3e-3])
    track(ActuatorState(), targets, 0.01)
    assert targets.tolist() == [1e-3, -2e-3, 3e-3]
    st = ActuatorState()
    with pytest.raises(TravelRangeError, match=r"^target position must be finite and >= -0\.0035 and <= 0\.0035"):
        track(st, [1e-3, 4e-3], 0.01)
    assert st.time_s == 0.0


@pytest.mark.parametrize("dt", [math.nan, 0.0, -0.0, -0.01, math.inf])
def test_step_rejects_a_dt_that_is_not_positive_naming_it(dt):
    st = ActuatorState(target_position=1e-3)
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0, got "):
        step(st, dt)
    assert (st.lens_position, st.time_s) == (0.0, 0.0)


def test_step_rejects_a_target_assigned_off_the_stroke():
    st = ActuatorState()
    st.target_position = 4e-3
    with pytest.raises(TravelRangeError,
                       match=r"^target position must be finite and >= -0\.0035 and <= 0\.0035, got 0\.004$"):
        step(st, 0.01)
    assert (st.lens_position, st.target_position, st.time_s) == (0.0, 4e-3, 0.0)


def test_a_step_too_fine_for_the_stroke_is_rejected_naming_the_bound():
    # The rule divides a lens position by the step: at 1e-320 the quotient overflows.
    with pytest.raises(ValueError, match=r"^a positive step_size must be finite and >= 3\.89\d*e-311, got 1e-320$"):
        ActuatorState(step_size=1e-320)
    st = ActuatorState()
    st.step_size = 1e-320
    with pytest.raises(ValueError, match="step_size"):
        st.validate()
    assert ActuatorState(step_size=4e-311).step_size == 4e-311
    assert ActuatorState(step_size=0.0).step_size == 0.0


class TestThermalModel:
    @pytest.mark.parametrize("theta,temp,expected", [
        (90e-6, -30.0, 675e-6),
        (90e-6, 60.0, 423e-6),
        (5e-3, -30.0, 5e-3 / 1.2),
        (5e-3, 60.0, 5.5e-3),
    ])
    def test_qualification_anchors(self, theta, temp, expected):
        assert achieved_at(theta, temperature_c=temp) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", [90e-6, 1e-3, 5e-3, 6.14e-3])
    def test_identity_at_reference(self, theta):
        assert THERMAL.deviation(theta, 20.0) == 0.0

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
            THERMAL.deviation(90e-6, -31.0)
        with pytest.raises(ValueError):
            THERMAL.deviation(90e-6, 61.0)

    # A third entry used to be ignored, and a wrong-length anchor pair failed on unpacking.
    @pytest.mark.parametrize("field,values", [
        ("anchor_settings", (90e-6,)),
        ("anchor_settings", (90e-6, 5e-3, 6e-3)),
        ("cold_outputs", (675e-6,)),
        ("cold_outputs", (675e-6, 4.2e-3, 99.0)),
        ("hot_outputs", (423e-6,)),
        ("hot_outputs", (423e-6, 5.5e-3, 6e-3)),
    ])
    def test_needs_exactly_two_entries(self, field, values):
        with pytest.raises(ValueError, match=rf"^{field} needs exactly 2 entries, got {len(values)}$"):
            ThermalModel(**{field: values})


class TestChromaticModel:
    @pytest.mark.parametrize("theta,wl,expected", [
        (90e-6, 1.53e-6, 100e-6),
        (90e-6, 1.565e-6, 93e-6),
        (5e-3, 1.53e-6, 5.171e-3),
        (5e-3, 1.565e-6, 5.13e-3),
    ])
    def test_band_edge_anchors(self, theta, wl, expected):
        assert achieved_at(theta, wavelength=wl) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", [90e-6, 2e-3, 5e-3])
    def test_identity_at_optimized_wavelength(self, theta):
        assert CHROMA.offset(theta, 1.55e-6) == 0.0

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
        with pytest.raises(ValueError, match=rf"^{field} needs exactly 3 entries, got {len(values)}$"):
            ChromaticModel(**{field: values})

    @pytest.mark.parametrize("values", [(90e-6,), (90e-6, 5e-3, 6e-3)])
    def test_needs_exactly_two_anchors(self, values):
        with pytest.raises(ValueError, match=rf"^anchor_settings needs exactly 2 entries, got {len(values)}$"):
            ChromaticModel(anchor_settings=values)

    def test_zero_offsets_must_share_a_wavelength(self):
        # Each anchor has a zero, but at different wavelengths: no wavelength
        # is the optimization wavelength.
        with pytest.raises(ValueError, match="zero offset at both anchors"):
            ChromaticModel(offsets_low=(0.0, 1e-6, 3e-6))
        ChromaticModel(offsets_low=(10e-6, -0.0, 3e-6))

    def test_a_fresh_state_starts_in_a_band_without_1p55_um(self):
        model = ChromaticModel(wavelengths=(1.30e-6, 1.31e-6, 1.32e-6))
        assert model.optimization_wavelength == 1.31e-6
        assert ActuatorState(chromatic=model).wavelength == 1.31e-6

    @pytest.mark.parametrize("model", [
        ChromaticModel(wavelengths=(1.53e-6, 1.545e-6, 1.565e-6)),
        ChromaticModel(offsets_low=(0.0, 10e-6, 3e-6), offsets_high=(0.0, 171e-6, 130e-6)),
    ], ids=["zero_at_1.545um", "zero_at_the_short_end"])
    def test_a_fresh_state_starts_at_the_zero_offset(self, model):
        state = ActuatorState(chromatic=model)
        assert state.wavelength == model.optimization_wavelength
        assert actual_divergence(state) == MAP.collimated_divergence

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            CHROMA.offset(90e-6, 1.52e-6)
        with pytest.raises(ValueError):
            CHROMA.offset(90e-6, 1.58e-6)


class TestTemperatureCorrection:
    def test_ambient_matches_plain_inverse(self):
        for branch in Branch:
            for theta in (90e-6, 1e-3, 5e-3):
                x_corr = corrected_position(ActuatorState(branch=branch), theta)
                x_plain = position_from_divergence(theta, branch, MAP)
                assert x_corr == pytest.approx(x_plain, abs=1e-12)

    def test_collimated_at_minus_30(self):
        # The correction crosses the nominal collimation point.
        x = corrected_position(ActuatorState(temperature_c=-30.0), 90e-6)
        assert x == pytest.approx(-4.7590169431349727e-4, rel=1e-9)
        u = setting_on_branch(x, Branch.DIVERGING, MAP)
        achieved = u + THERMAL.deviation(u, -30.0)
        assert achieved == pytest.approx(90e-6, rel=1e-9)

    def test_round_trip_grid_under_one_percent(self):
        for theta in np.linspace(90e-6, 5e-3, 8):
            for temp in np.linspace(-30.0, 60.0, 7):
                x = corrected_position(ActuatorState(temperature_c=temp, branch=Branch.CONVERGING), theta)
                u = setting_on_branch(x, Branch.CONVERGING, MAP)
                achieved = u + THERMAL.deviation(u, temp)
                assert abs(achieved - theta) / theta < 0.01

    def test_emulator_reports_corrected_output(self):
        st = ActuatorState()
        set_temperature(st, -30.0)
        x = corrected_position(st, 90e-6)
        st.lens_position = st.target_position = x
        assert actual_divergence(st) == pytest.approx(90e-6, rel=1e-9)

    def test_correction_beyond_travel_raises(self):
        # 5 mrad at -30 C on the diverging branch needs ~3.52 mm of travel.
        with pytest.raises(TravelRangeError):
            corrected_position(ActuatorState(temperature_c=-30.0), 5e-3)

    @pytest.mark.parametrize("target", [-1e-3, 0.0, math.nan, math.inf])
    def test_target_checked_at_entry(self, target):
        # -1 mrad lies inside the outputs the unfolded law reaches, which run below zero.
        with pytest.raises(ValueError, match=r"theta_target must be finite and >= 9e-05, got "):
            corrected_position(ActuatorState(), target)



def _unfolded_output(x, temperature_c, branch, wavelength):
    """The setting at ``x`` plus its thermal and chromatic deviations: the law the lookup table inverts."""
    u = setting_on_branch(x, branch, MAP)
    return u + THERMAL.deviation(u, temperature_c) + CHROMA.offset(u, wavelength)


def _stroke_outputs(temperature_c, branch, wavelength=CHROMA.wavelengths[1]):
    """Achieved divergence at the two stroke ends: the ends of the reachable range."""
    return [_unfolded_output(x, temperature_c, branch, wavelength) for x in (-MAP.max_travel, MAP.max_travel)]


@given(hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c), hs.sampled_from(Branch), hs.floats(0.0, 1.0),
       hs.sampled_from(CHROMA.wavelengths) | hs.floats(CHROMA.wavelengths[0], CHROMA.wavelengths[2]))
def test_lookup_table_realizes_its_target_anywhere_in_the_stroke(temperature_c, branch, fraction, wavelength):
    p_min, p_max = sorted(_stroke_outputs(temperature_c, branch, wavelength))
    lowest = max(p_min, MAP.collimated_divergence)  # the fold makes nothing below the collimated minimum reachable
    target = lowest + fraction * (p_max - lowest)
    x = corrected_position(ActuatorState(temperature_c=temperature_c, branch=branch, wavelength=wavelength), target)
    achieved = _unfolded_output(x, temperature_c, branch, wavelength)
    # The output is affine in x, so the solver's x tolerance maps through its slope; plus rounding.
    slope = (p_max - p_min) / (2 * MAP.max_travel)
    assert abs(achieved - target) <= slope * (1e-15 + 1e-15 * abs(x)) + 4 * math.ulp(p_max)

    def excess(y):
        return _unfolded_output(y, temperature_c, branch, wavelength) - target

    root = brentq(excess, -MAP.max_travel, MAP.max_travel, xtol=1e-15, rtol=1e-15)
    assert abs(x - root) <= 1e-15 + 1e-15 * abs(root)


@given(hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c), hs.sampled_from(Branch),
       hs.floats(1e-12, 1.0), hs.booleans())
def test_lookup_table_rejects_targets_outside_the_stroke(temperature_c, branch, excess, above):
    p_min, p_max = sorted(_stroke_outputs(temperature_c, branch))
    target = p_max * (1.0 + excess) if above else p_min - excess * abs(p_min) - 1e-9
    # The unfolded outputs can run below the collimated minimum, even below
    # zero; the fold achieves no angle there.
    if target >= MAP.collimated_divergence:
        error, message = TravelRangeError, "exceeds travel range"
    else:
        error, message = ValueError, "theta_target must be finite and >= 9e-05"
    with pytest.raises(error, match=message):
        corrected_position(ActuatorState(temperature_c=temperature_c, branch=branch), target)


@given(hs.floats(THERMAL.cold_temperature_c, THERMAL.hot_temperature_c), hs.sampled_from(Branch),
       hs.sampled_from(CHROMA.wavelengths) | hs.floats(CHROMA.wavelengths[0], CHROMA.wavelengths[2]),
       hs.floats(0.0, MAP.collimated_divergence, exclude_min=True, exclude_max=True))
def test_lookup_table_rejects_targets_below_the_collimated_minimum(temperature_c, branch, wavelength, target):
    # Below the floor the fold makes nothing reachable, though the unfolded law may pass there.
    state = ActuatorState(temperature_c=temperature_c, branch=branch, wavelength=wavelength)
    with pytest.raises(ValueError, match=r"^theta_target must be finite and >= 9e-05, got ") as raised:
        corrected_position(state, target)
    assert not isinstance(raised.value, TravelRangeError)


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


# Positions on the stroke, its ends and both zeros included.
POSITIONS = hs.lists(hs.sampled_from([0.0, -0.0, STROKE, -STROKE]) | hs.floats(-STROKE, STROKE), min_size=1, max_size=20)


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

    def test_a_branch_argument_names_the_choices(self):
        with pytest.raises(ValueError, match=re.escape(
                "script line 1: branch must be one of ['diverging', 'converging'], got 'sideways'") + "$"):
            run_script(["set-divergence 1e-3 sideways"])
        assert run_script(["set-divergence 1e-3 Converging"])[-1]["branch"] == "converging"

    def test_trace_is_json_serializable(self):
        trace = run_script(["set-divergence 2e-3", "step 0.5", "steer 5e-6 -5e-6", "query"])
        json.dumps(trace)

    def test_snapshot_fields(self):
        snap = snapshot(ActuatorState())
        for key in ("time_s", "lens_position_m", "branch", "actual_divergence_rad", "temperature_c"):
            assert key in snap
