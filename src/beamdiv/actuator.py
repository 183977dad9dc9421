"""Discrete-time emulator of the beam-divergence control hardware.

The device widens a transmitted beam from its collimated minimum by moving a
lens group along a rail with a stepper motor.  Divergence is linear in lens
travel on each side of the collimation point (diverging for positive travel,
converging for negative), the full stroke is +-3.5 mm, and a full traverse
takes 0.9 s at constant speed.

Temperature and wavelength shift the achieved divergence away from the
nominal setting.  Both effects are modeled as deviations that are linear in
the nominal setting between two measured anchors (the collimated beam and the
5 mrad setting): temperature deviation is piecewise linear in T on each side
of 20 C, wavelength deviation is quadratic through three sampled wavelengths.

For lookup-table correction the lens may cross the nominal collimation point:
positions are mapped to a *signed* setting on the commanded branch's line
(settings below the collimated value are virtual, reachable only while a
thermal defocus is active), and the achieved divergence folds back at the
collimated minimum.  This keeps the device fully correctable within its
stroke, matching how a pure defocus error behaves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from ._checks import finite
from ._roots import brentq
from .beam_optics import Convention, DivergenceAngle

__all__ = [
    "Branch",
    "DivergenceMap",
    "ThermalModel",
    "ChromaticModel",
    "ActuatorState",
    "MotionPlan",
    "TravelRangeError",
    "MOTOR_SPEED_M_PER_S",
    "FULL_TRAVERSE_S",
    "STEERING_RANGE_RAD",
    "divergence_from_position",
    "position_from_divergence",
    "setting_on_branch",
    "apply_temperature",
    "apply_wavelength",
    "temperature_corrected_position",
    "command_divergence",
    "track",
    "step",
    "actual_divergence",
    "achieved_divergence",
    "set_temperature",
    "set_wavelength",
    "steer",
    "axis_deviation",
    "steering_residual",
    "run_script",
    "snapshot",
]

# Full stroke is 3.5 mm each side, traversed end to end in 0.9 s.
FULL_TRAVERSE_S = 0.9
MOTOR_SPEED_M_PER_S = 7.0e-3 / FULL_TRAVERSE_S

# Fine-steering stage: +-100 urad in each axis, vibration isolation to 100 Hz.
STEERING_RANGE_RAD = 100e-6
ISOLATION_CUTOFF_HZ = 100.0

# Axis wander: mean magnitude 1.3 urad at the 90 urad collimated setting,
# scaled proportionally with divergence, hard-bounded at 5 % of the setting.
AXIS_MEAN_FRACTION = 1.3e-6 / 90e-6
AXIS_BOUND_FRACTION = 0.05

AngleLike = Union[DivergenceAngle, float]


class Branch(enum.Enum):
    """Which side of the collimation point realizes a given divergence."""

    DIVERGING = "diverging"
    CONVERGING = "converging"


class TravelRangeError(ValueError):
    """Requested position or correction exceeds the lens travel range."""


def _fwhm_rad(theta: AngleLike) -> float:
    if isinstance(theta, DivergenceAngle):
        return theta.to(Convention.FWHM).value
    return float(theta)


@dataclass(frozen=True)
class DivergenceMap:
    """Linear lens-position to FWHM-divergence map, one slope per branch."""

    collimated_divergence: float = 90e-6
    diverging_slope: float = (6.14e-3 - 90e-6) / 3.5e-3
    converging_slope: float = (6.25e-3 - 90e-6) / 3.5e-3
    max_travel: float = 3.5e-3

    def __post_init__(self) -> None:
        for name in ("collimated_divergence", "diverging_slope", "converging_slope", "max_travel"):
            finite(name, getattr(self, name), gt=0)

    @property
    def diverging_max(self) -> float:
        """Divergence at +max_travel, radians FWHM."""
        return self.collimated_divergence + self.diverging_slope * self.max_travel

    @property
    def converging_max(self) -> float:
        """Divergence at -max_travel, radians FWHM."""
        return self.collimated_divergence + self.converging_slope * self.max_travel

    def slope(self, branch: Branch) -> float:
        return self.diverging_slope if branch is Branch.DIVERGING else self.converging_slope

    def branch_max(self, branch: Branch) -> float:
        return self.diverging_max if branch is Branch.DIVERGING else self.converging_max


def _check_travel(x: float, dmap: DivergenceMap, what: str = "lens position") -> None:
    if not abs(x) <= dmap.max_travel:  # NaN is outside
        raise TravelRangeError(f"{what} {x} m outside +-{dmap.max_travel} m travel")


def divergence_from_position(x: float, dmap: DivergenceMap) -> DivergenceAngle:
    """Nominal FWHM divergence at lens position ``x`` (signed, meters)."""
    _check_travel(x, dmap)
    slope = dmap.diverging_slope if x >= 0.0 else dmap.converging_slope
    return DivergenceAngle(dmap.collimated_divergence + slope * abs(x), Convention.FWHM)


def position_from_divergence(
    theta: Union[AngleLike, np.ndarray], branch: Branch, dmap: DivergenceMap
) -> Union[float, np.ndarray]:
    """Signed lens position realizing ``theta`` on the given branch.

    Exact inverse of :func:`divergence_from_position` on that branch.  An
    array of FWHM angles gives the array of positions, element for element
    the same floats.
    """
    value = theta if isinstance(theta, np.ndarray) else _fwhm_rad(theta)
    hi = dmap.branch_max(branch)
    values = np.asarray(value)
    outside = ~((dmap.collimated_divergence <= values) & (values <= hi))
    if outside.any():
        raise ValueError(
            f"divergence {values[outside][0]} rad outside [{dmap.collimated_divergence}, {hi}] rad "
            f"for the {branch.value} branch"
        )
    travel = (value - dmap.collimated_divergence) / dmap.slope(branch)
    # The branch maximum can map one ulp past the stroke end; clamp it back.
    travel = np.minimum(travel, dmap.max_travel) if values.ndim else min(travel, dmap.max_travel)
    return travel if branch is Branch.DIVERGING else -travel


def setting_on_branch(x: float, branch: Branch, dmap: DivergenceMap) -> float:
    """Signed nominal setting at position ``x`` on a branch's extended line.

    For positions on the branch's own side this equals the physical map.
    Past the collimation point the line continues below the collimated value
    (a virtual setting); that region is what thermal corrections use.
    """
    _check_travel(x, dmap)
    return _setting(x, branch, dmap)


def _setting(x, branch: Branch, dmap: DivergenceMap):
    # setting_on_branch without the travel check; x may be an array.
    signed = x if branch is Branch.DIVERGING else -x
    return dmap.collimated_divergence + dmap.slope(branch) * signed


@dataclass(frozen=True)
class ThermalModel:
    """Divergence deviation versus temperature, anchored at two settings.

    The deviation at each anchor setting is linear in temperature on each
    side of the reference (slopes differ between the cold and hot sides) and
    is interpolated linearly in the nominal setting between the anchors.
    Stored as the measured outputs at the temperature extremes so the
    qualification anchors are reproduced exactly.
    """

    reference_temperature_c: float = 20.0
    cold_temperature_c: float = -30.0
    hot_temperature_c: float = 60.0
    anchor_settings: tuple[float, float] = (90e-6, 5e-3)
    cold_outputs: tuple[float, float] = (675e-6, 5e-3 / 1.2)
    hot_outputs: tuple[float, float] = (423e-6, 5.5e-3)

    def __post_init__(self) -> None:
        for name in ("reference_temperature_c", "cold_temperature_c", "hot_temperature_c",
                     "anchor_settings", "cold_outputs", "hot_outputs"):
            finite(name, getattr(self, name))
        if not (self.cold_temperature_c < self.reference_temperature_c < self.hot_temperature_c):
            raise ValueError("need cold < reference < hot temperature")
        if not (0.0 < self.anchor_settings[0] < self.anchor_settings[1]):
            raise ValueError("anchor settings must be positive and increasing")

    def check_temperature(self, temperature_c: float) -> None:
        """Raise ``ValueError`` unless the temperature lies in the qualified range."""
        if not (self.cold_temperature_c <= temperature_c <= self.hot_temperature_c):
            raise ValueError(
                f"temperature {temperature_c} C outside qualified range "
                f"[{self.cold_temperature_c}, {self.hot_temperature_c}] C"
            )

    def deviation(self, theta_set, temperature_c: float):
        """Divergence deviation (radians, signed) at a nominal setting.

        ``theta_set`` may lie outside the anchor interval (including virtual
        settings below the collimated value); the linear interpolation in the
        setting extrapolates.  An array of settings gives an array.
        """
        self.check_temperature(temperature_c)
        ref = self.reference_temperature_c
        if temperature_c == ref:
            return 0.0
        if temperature_c < ref:
            frac = (ref - temperature_c) / (ref - self.cold_temperature_c)
            dev0 = self.cold_outputs[0] - self.anchor_settings[0]
            dev1 = self.cold_outputs[1] - self.anchor_settings[1]
        else:
            frac = (temperature_c - ref) / (self.hot_temperature_c - ref)
            dev0 = self.hot_outputs[0] - self.anchor_settings[0]
            dev1 = self.hot_outputs[1] - self.anchor_settings[1]
        a0, a1 = self.anchor_settings
        w = (theta_set - a0) / (a1 - a0)
        return frac * (dev0 + w * (dev1 - dev0))

    def cold_slope(self, anchor_index: int) -> float:
        """Deviation growth per degree below reference, radians/C."""
        span = self.reference_temperature_c - self.cold_temperature_c
        return (self.cold_outputs[anchor_index] - self.anchor_settings[anchor_index]) / span

    def hot_slope(self, anchor_index: int) -> float:
        """Deviation growth per degree above reference, radians/C."""
        span = self.hot_temperature_c - self.reference_temperature_c
        return (self.hot_outputs[anchor_index] - self.anchor_settings[anchor_index]) / span


@dataclass(frozen=True)
class ChromaticModel:
    """Divergence offset versus wavelength at two anchor settings.

    Offsets are sampled at three wavelengths (zero at the optimization
    wavelength in the middle of the band), interpolated quadratically in
    wavelength and linearly in the nominal setting between anchors.
    """

    wavelengths: tuple[float, float, float] = (1.53e-6, 1.55e-6, 1.565e-6)
    anchor_settings: tuple[float, float] = (90e-6, 5e-3)
    offsets_low: tuple[float, float, float] = (10e-6, 0.0, 3e-6)
    offsets_high: tuple[float, float, float] = (171e-6, 0.0, 130e-6)

    def __post_init__(self) -> None:
        if not (len(self.wavelengths) == len(self.offsets_low) == len(self.offsets_high) == 3):
            raise ValueError("wavelengths, offsets_low and offsets_high need exactly 3 entries")
        for name in ("wavelengths", "anchor_settings", "offsets_low", "offsets_high"):
            finite(name, getattr(self, name))
        w = self.wavelengths
        if not (w[0] < w[1] < w[2]):
            raise ValueError("wavelength samples must be strictly increasing")
        if not (0.0 < self.anchor_settings[0] < self.anchor_settings[1]):
            raise ValueError("anchor settings must be positive and increasing")
        if 0.0 not in self.offsets_low or 0.0 not in self.offsets_high:
            raise ValueError("one sampled wavelength must carry zero offset (the optimization wavelength)")

    def check_wavelength(self, wavelength: float) -> None:
        """Raise ``ValueError`` unless the wavelength lies in the sampled band."""
        w0, _, w2 = self.wavelengths
        if not (w0 <= wavelength <= w2):
            raise ValueError(f"wavelength {wavelength} m outside sampled band [{w0}, {w2}] m")

    def offset(self, theta_set, wavelength: float):
        """Divergence offset (radians, >= 0 at the band edges) at a setting or an array of them."""
        self.check_wavelength(wavelength)
        off0 = _quadratic_through(self.wavelengths, self.offsets_low, wavelength)
        off1 = _quadratic_through(self.wavelengths, self.offsets_high, wavelength)
        a0, a1 = self.anchor_settings
        frac = (theta_set - a0) / (a1 - a0)
        return off0 + frac * (off1 - off0)


def _quadratic_through(xs: tuple[float, float, float], ys: tuple[float, float, float], x: float) -> float:
    # Lagrange form: exact at the three nodes.
    x0, x1, x2 = xs
    y0, y1, y2 = ys
    return (
        y0 * (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))
    )


def apply_temperature(theta_set: AngleLike, temperature_c: float, model: ThermalModel) -> DivergenceAngle:
    """Divergence actually achieved at a nominal setting and temperature."""
    value = _fwhm_rad(theta_set)
    return DivergenceAngle(value + model.deviation(value, temperature_c), Convention.FWHM)


def apply_wavelength(theta_set: AngleLike, wavelength: float, model: ChromaticModel) -> DivergenceAngle:
    """Divergence actually achieved at a nominal setting and wavelength."""
    value = _fwhm_rad(theta_set)
    return DivergenceAngle(value + model.offset(value, wavelength), Convention.FWHM)


def temperature_corrected_position(
    theta_target: AngleLike,
    temperature_c: float,
    model: ThermalModel,
    dmap: DivergenceMap,
    branch: Branch = Branch.DIVERGING,
) -> float:
    """Lens position whose thermally shifted output equals ``theta_target``.

    Root-solves ``apply_temperature(setting_on_branch(x), T) = theta_target``
    over the full stroke.  The solution may sit past the nominal collimation
    point (virtual setting); it always verifies against the thermal model.

    Raises
    ------
    ValueError
        If the target is not finite and > 0.
    TravelRangeError
        If no position within +-max_travel realizes the target.
    """
    target = finite("theta_target", _fwhm_rad(theta_target), gt=0)

    def predicted(x: float) -> float:
        u = setting_on_branch(x, branch, dmap)
        return u + model.deviation(u, temperature_c)

    lo, hi = -dmap.max_travel, dmap.max_travel
    p_lo, p_hi = predicted(lo), predicted(hi)
    p_min, p_max = min(p_lo, p_hi), max(p_lo, p_hi)
    if not (p_min <= target <= p_max):
        raise TravelRangeError(
            f"correction exceeds travel range: target {target} rad at {temperature_c} C "
            f"needs output outside [{p_min}, {p_max}] rad"
        )
    return brentq(lambda x: predicted(x) - target, lo, hi, xtol=1e-15, rtol=1e-15)


@dataclass
class ActuatorState:
    """Mutable emulator state; single owner, deterministic transitions."""

    dmap: DivergenceMap = field(default_factory=DivergenceMap)
    thermal: ThermalModel = field(default_factory=ThermalModel)
    chromatic: ChromaticModel = field(default_factory=ChromaticModel)
    lens_position: float = 0.0
    target_position: float = 0.0
    branch: Branch = Branch.DIVERGING
    motor_speed: float = MOTOR_SPEED_M_PER_S
    step_size: float = 1e-6
    temperature_c: float = 20.0
    wavelength: float = 1.55e-6
    tip: float = 0.0
    tilt: float = 0.0
    in_motion: bool = False
    time_s: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject a state the motion rule and the optics models cannot start from.

        Runs at construction; ``sim.run_pass`` runs it again before its first
        tick, since fields may be assigned in between.
        """
        finite("motor_speed", self.motor_speed, gt=0)
        finite("step_size", self.step_size, ge=0)
        _check_travel(self.lens_position, self.dmap)
        _check_travel(self.target_position, self.dmap, "target position")
        self.thermal.check_temperature(self.temperature_c)
        self.chromatic.check_wavelength(self.wavelength)


@dataclass(frozen=True)
class MotionPlan:
    """Outcome of a divergence command: where to go and how long it takes."""

    target_position_m: float
    duration_s: float


def command_divergence(
    state: ActuatorState,
    theta_target: AngleLike,
    branch: Optional[Branch] = None,
) -> MotionPlan:
    """Command a nominal divergence; returns the motion plan.

    Duration is ``|dx| / motor_speed`` (constant-speed profile, no ramps).
    """
    use_branch = branch if branch is not None else state.branch
    target_x = position_from_divergence(theta_target, use_branch, state.dmap)
    state.branch = use_branch
    state.target_position = target_x
    state.in_motion = target_x != state.lens_position
    return MotionPlan(target_x, abs(target_x - state.lens_position) / state.motor_speed)


def track(state: ActuatorState, targets: Iterable[float], dt: float) -> list[float]:
    """Command each target position in turn and advance the lens one tick of ``dt``.

    The motion rule: the lens moves toward the target at constant speed and
    the position is quantized to the step grid; it never overshoots the
    target by more than one quantization step, and a target within one
    tick's travel is reached exactly.  The stroke ends are hard stops: a
    quantized position past +-``max_travel`` lands on the end.  Returns the
    lens position after each tick and leaves ``state`` as after the last one,
    ``in_motion`` set while the lens is short of its target.
    """
    travel = state.motor_speed * finite("dt", dt, gt=0)
    quantum, stroke = state.step_size, state.dmap.max_travel
    lens, time_s = state.lens_position, state.time_s
    positions = []
    for target in targets:
        time_s += dt
        remaining = target - lens
        if remaining != 0.0:
            if abs(remaining) <= travel:
                lens = target
            else:
                lens += math.copysign(travel, remaining)
                if quantum > 0.0:
                    lens = min(max(round(lens / quantum) * quantum, -stroke), stroke)
        positions.append(lens)
    if positions:
        state.lens_position, state.target_position, state.time_s = lens, target, time_s
        state.in_motion = lens != target
    return positions


def step(state: ActuatorState, dt: float) -> ActuatorState:
    """Advance the motion toward the current target by one tick of ``dt`` seconds (see :func:`track`)."""
    track(state, (state.target_position,), dt)
    return state


def _achieved(state: ActuatorState, u):
    # Nominal setting(s) u plus the temperature and wavelength deviations,
    # folded back at the collimated minimum; u may be an array.
    raw = u + state.thermal.deviation(u, state.temperature_c) + state.chromatic.offset(u, state.wavelength)
    floor = state.dmap.collimated_divergence
    return floor + abs(raw - floor)


def actual_divergence(state: ActuatorState) -> DivergenceAngle:
    """Achieved FWHM divergence including thermal and chromatic effects.

    The nominal setting is taken on the commanded branch's signed line, the
    temperature and wavelength deviations are added, and the result folds
    back at the collimated minimum (a beam driven past its corrected
    collimation point re-diverges; it never narrows below the diffraction
    minimum).
    """
    u = setting_on_branch(state.lens_position, state.branch, state.dmap)
    return DivergenceAngle(_achieved(state, u), Convention.FWHM)


def achieved_divergence(state: ActuatorState, positions: np.ndarray) -> np.ndarray:
    """:func:`actual_divergence` at each lens position, radians FWHM, as the same floats.

    Positions are not checked against the stroke; :func:`track` keeps them on it.
    """
    return _achieved(state, _setting(positions, state.branch, state.dmap))


def set_temperature(state: ActuatorState, temperature_c: float) -> None:
    state.thermal.check_temperature(temperature_c)
    state.temperature_c = temperature_c


def set_wavelength(state: ActuatorState, wavelength: float) -> None:
    state.chromatic.check_wavelength(wavelength)
    state.wavelength = wavelength


def steer(state: ActuatorState, tip: float, tilt: float) -> None:
    finite("tip", tip)
    finite("tilt", tilt)
    if abs(tip) > STEERING_RANGE_RAD or abs(tilt) > STEERING_RANGE_RAD:
        raise ValueError(f"steering command ({tip}, {tilt}) rad outside +-{STEERING_RANGE_RAD} rad")
    state.tip = tip
    state.tilt = tilt


def axis_deviation(state: ActuatorState, rng: Union[int, np.random.Generator]) -> tuple[float, float]:
    """One emulated optical-axis wander sample, (tip, tilt) radians.

    Magnitude is uniform on [0, 2m] with mean ``m`` proportional to the
    current divergence (1.3 urad at the collimated setting), so it stays
    strictly inside the 5 % stability bound.  Deterministic for a fixed
    generator state.
    """
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    theta = actual_divergence(state).value
    mean_mag = AXIS_MEAN_FRACTION * theta
    mag = gen.uniform(0.0, 2.0 * mean_mag)
    angle = gen.uniform(0.0, 2.0 * math.pi)
    return (mag * math.cos(angle), mag * math.sin(angle))


def steering_residual(
    disturbance_frequency_hz: float,
    amplitude_rad: float,
    rejection_factor: float = 0.01,
    isolation_cutoff_hz: float = ISOLATION_CUTOFF_HZ,
    steering_range_rad: float = STEERING_RANGE_RAD,
) -> float:
    """Residual beam motion after the anti-vibration stage, radians.

    Disturbances within the isolation band are attenuated by
    ``rejection_factor`` (a design parameter of the emulator, not a measured
    value).  Amplitude beyond the steering range saturates: the un-steerable
    excess passes through unattenuated.  Above the band nothing is rejected.
    """
    finite("frequency", disturbance_frequency_hz, ge=0)
    finite("amplitude", amplitude_rad, ge=0)
    if disturbance_frequency_hz > isolation_cutoff_hz:
        return amplitude_rad
    steerable = min(amplitude_rad, steering_range_rad)
    excess = amplitude_rad - steerable
    return steerable * rejection_factor + excess


def snapshot(state: ActuatorState, command: str = "") -> dict:
    """JSON-serializable snapshot of the state (one trace row)."""
    nominal = divergence_from_position(state.lens_position, state.dmap)
    return {
        "time_s": state.time_s,
        "command": command,
        "lens_position_m": state.lens_position,
        "target_position_m": state.target_position,
        "in_motion": state.in_motion,
        "branch": state.branch.value,
        "nominal_divergence_rad": nominal.value,
        "actual_divergence_rad": actual_divergence(state).value,
        "temperature_c": state.temperature_c,
        "wavelength_m": state.wavelength,
        "tip_rad": state.tip,
        "tilt_rad": state.tilt,
    }


def run_script(lines: Iterable[str], state: Optional[ActuatorState] = None) -> list[dict]:
    """Execute a newline-delimited command stream against the emulator.

    Commands (whitespace separated, ``#`` starts a comment)::

        set-divergence THETA_RAD [diverging|converging]
        set-temperature DEG_C
        set-wavelength METERS
        steer TIP_RAD TILT_RAD
        step DT_S
        query

    Returns one snapshot per executed command, preceded by the initial
    state, so an empty script yields a single row.
    """
    st = state if state is not None else ActuatorState()
    trace = [snapshot(st, "initial")]
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        cmd, args = parts[0].lower(), parts[1:]
        try:
            if cmd == "set-divergence":
                if len(args) not in (1, 2):
                    raise ValueError("usage: set-divergence THETA_RAD [diverging|converging]")
                branch = Branch(args[1].lower()) if len(args) == 2 else None
                command_divergence(st, float(args[0]), branch)
            elif cmd == "set-temperature":
                set_temperature(st, float(args[0]))
            elif cmd == "set-wavelength":
                set_wavelength(st, float(args[0]))
            elif cmd == "steer":
                steer(st, float(args[0]), float(args[1]))
            elif cmd == "step":
                step(st, float(args[0]))
            elif cmd == "query":
                pass
            else:
                raise ValueError(f"unknown command {cmd!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"script line {lineno}: {exc}") from exc
        trace.append(snapshot(st, text))
    return trace
