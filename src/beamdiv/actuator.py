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
of the thermal model's reference, wavelength deviation is quadratic through
three sampled wavelengths, zero at the chromatic model's optimization
wavelength.  A fresh :class:`ActuatorState` starts at both references.

The lookup-table correction, :func:`corrected_position`, cancels thermal and
chromatic drift together by inverting the law :func:`achieved_divergence`
folds.  The lens may then cross the nominal collimation point:
positions are mapped to a *signed* setting on the commanded branch's line
(settings below the collimated value are virtual, reachable only while a
defocus is active), and the achieved divergence folds back at the
collimated minimum.  This keeps the device fully correctable within its
stroke, matching how a pure defocus error behaves.

Every angle here, in and out, is a FWHM divergence in radians: a float, or
a numpy column of them.  Each law -- the stroke, the setting line, the anchor
interpolation, the achieved divergence -- is written once, in arithmetic that
takes a float or a column alike, so a column gives the floats each element
gives alone.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from ._checks import finite, member

__all__ = [
    "Branch",
    "DivergenceMap",
    "ThermalModel",
    "ChromaticModel",
    "ActuatorState",
    "TravelRangeError",
    "MOTOR_SPEED_M_PER_S",
    "FULL_TRAVERSE_S",
    "STEERING_RANGE_RAD",
    "position_from_divergence",
    "setting_on_branch",
    "corrected_position",
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
# In band it attenuates motion 100-fold (an emulator design parameter, not a
# measured value).
STEERING_RANGE_RAD = 100e-6
ISOLATION_CUTOFF_HZ = 100.0
ISOLATION_REJECTION = 0.01

# Axis wander: mean magnitude 1.3 urad at the 90 urad collimated setting,
# scaled proportionally with divergence; at most twice that, inside the 5 %
# stability bound.
AXIS_MEAN_FRACTION = 1.3e-6 / 90e-6


class Branch(enum.Enum):
    """Which side of the collimation point realizes a given divergence."""

    DIVERGING = "diverging"
    CONVERGING = "converging"


# Module-level names for the members: the scalar laws below test a branch on
# every call, and on Python 3.11 ``Branch.DIVERGING`` costs several times a
# global name lookup (``EnumType`` resolves it).
_DIVERGING = Branch.DIVERGING
_CONVERGING = Branch.CONVERGING


class TravelRangeError(ValueError):
    """Requested position or correction exceeds the lens travel range."""


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
        return self.diverging_slope if branch is _DIVERGING else self.converging_slope

    def branch_max(self, branch: Branch) -> float:
        return self.diverging_max if branch is _DIVERGING else self.converging_max


def _check_travel(what: str, x, lo: float, hi: float) -> None:
    """``finite(what, x, ge=lo, le=hi)`` for a float or a column, raised as a :class:`TravelRangeError`."""
    try:
        finite(what, x, ge=lo, le=hi)
    except ValueError as exc:
        raise TravelRangeError(*exc.args) from None


def position_from_divergence(
    theta: Union[float, np.ndarray], branch: Branch, dmap: DivergenceMap
) -> Union[float, np.ndarray]:
    """Signed lens position realizing ``theta`` on the given branch.

    Inverse of :func:`setting_on_branch` on that branch's own side, to one
    ulp: the round trip rounds twice, and about one angle in twenty comes
    back one ulp off.  An array of angles gives the array of positions,
    element for element the same floats.
    """
    member("branch", branch, Branch)
    finite(f"divergence on the {branch.value} branch", theta,
           ge=dmap.collimated_divergence, le=dmap.branch_max(branch))
    travel = (theta - dmap.collimated_divergence) / dmap.slope(branch)
    # The branch maximum can map one ulp past the stroke end; clamp it back.
    travel = np.minimum(travel, dmap.max_travel) if np.ndim(travel) else min(travel, dmap.max_travel)
    return travel if branch is _DIVERGING else -travel


def setting_on_branch(x: Union[float, np.ndarray], branch: Branch, dmap: DivergenceMap) -> Union[float, np.ndarray]:
    """Signed nominal setting at position ``x`` on a branch's extended line.

    For positions on the branch's own side this equals the physical map.
    Past the collimation point the line continues below the collimated value
    (a virtual setting); that region is what thermal corrections use.  A
    column of positions gives the column of settings, element for element
    the same floats; any position off the stroke raises
    :class:`TravelRangeError` naming the first.
    """
    _check_travel("lens position", x, -dmap.max_travel, dmap.max_travel)
    if member("branch", branch, Branch) is _DIVERGING:
        return dmap.collimated_divergence + dmap.diverging_slope * x
    return dmap.collimated_divergence + dmap.converging_slope * -x


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
        for name in ("cold_temperature_c", "hot_temperature_c"):
            finite(name, getattr(self, name))
        for name in ("anchor_settings", "cold_outputs", "hot_outputs"):
            finite(name, _entries(name, getattr(self, name), 2))
        finite("reference_temperature_c", self.reference_temperature_c,
               gt=self.cold_temperature_c, lt=self.hot_temperature_c)
        a0, a1 = self.anchor_settings
        finite("anchor_settings[1]", a1, gt=finite("anchor_settings[0]", a0, gt=0))

    def check_temperature(self, temperature_c: float) -> None:
        """Raise ``ValueError`` unless the temperature lies in the qualified range."""
        finite("temperature_c", temperature_c, ge=self.cold_temperature_c, le=self.hot_temperature_c)

    def deviation(self, theta_set, temperature_c: float):
        """Divergence deviation (radians, signed) at a nominal setting.

        ``theta_set`` may lie outside the anchor interval (including virtual
        settings below the collimated value); the linear interpolation in the
        setting extrapolates.  An array of settings gives an array; a
        setting that is not finite raises ``ValueError``.
        """
        self.check_temperature(temperature_c)
        ref = self.reference_temperature_c
        if temperature_c < ref:
            frac = (ref - temperature_c) / (ref - self.cold_temperature_c)
            outputs = self.cold_outputs
        else:
            frac = (temperature_c - ref) / (self.hot_temperature_c - ref)
            outputs = self.hot_outputs
        a0, a1 = self.anchor_settings
        return frac * _between_anchors(self.anchor_settings, outputs[0] - a0, outputs[1] - a1,
                                       finite("theta_set", theta_set))

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

    Offsets are sampled at three wavelengths (zero at both anchors at the
    optimization wavelength, by default the middle of the band), interpolated
    quadratically in wavelength and linearly in the nominal setting between
    anchors.
    """

    wavelengths: tuple[float, float, float] = (1.53e-6, 1.55e-6, 1.565e-6)
    anchor_settings: tuple[float, float] = (90e-6, 5e-3)
    offsets_low: tuple[float, float, float] = (10e-6, 0.0, 3e-6)
    offsets_high: tuple[float, float, float] = (171e-6, 0.0, 130e-6)

    def __post_init__(self) -> None:
        for name, count in (("wavelengths", 3), ("anchor_settings", 2), ("offsets_low", 3), ("offsets_high", 3)):
            finite(name, _entries(name, getattr(self, name), count))
        w0, w1, w2 = self.wavelengths
        finite("wavelengths[2]", w2, gt=finite("wavelengths[1]", w1, gt=w0))
        a0, a1 = self.anchor_settings
        finite("anchor_settings[1]", a1, gt=finite("anchor_settings[0]", a0, gt=0))
        if (0.0, 0.0) not in zip(self.offsets_low, self.offsets_high):
            raise ValueError(
                "one sampled wavelength must carry zero offset at both anchors (the optimization wavelength)"
            )

    @property
    def optimization_wavelength(self) -> float:
        """The sampled wavelength with zero offset at both anchors (the shortest, if several), meters."""
        return next(w for w, low, high in zip(self.wavelengths, self.offsets_low, self.offsets_high)
                    if low == high == 0.0)

    def check_wavelength(self, wavelength: float) -> None:
        """Raise ``ValueError`` unless the wavelength lies in the sampled band."""
        finite("wavelength", wavelength, ge=self.wavelengths[0], le=self.wavelengths[2])

    def offset(self, theta_set, wavelength: float):
        """Divergence offset (radians, >= 0 at the band edges) at a finite setting or an array of them."""
        self.check_wavelength(wavelength)
        off0 = _quadratic_through(self.wavelengths, self.offsets_low, wavelength)
        off1 = _quadratic_through(self.wavelengths, self.offsets_high, wavelength)
        return _between_anchors(self.anchor_settings, off0, off1, finite("theta_set", theta_set))


def _entries(name: str, values, count: int):
    """Return ``values`` if it holds exactly ``count`` entries; else raise ``ValueError`` naming it."""
    if len(values) != count:
        raise ValueError(f"{name} needs exactly {count} entries, got {len(values)}")
    return values


def _between_anchors(anchors: tuple[float, float], low: float, high: float, theta_set):
    # The line through (anchors[0], low) and (anchors[1], high) at a setting or an array of them; extrapolates.
    a0, a1 = anchors
    return low + (theta_set - a0) / (a1 - a0) * (high - low)


def _quadratic_through(xs: tuple[float, float, float], ys: tuple[float, float, float], x: float) -> float:
    # Lagrange form: exact at the three nodes.
    x0, x1, x2 = xs
    y0, y1, y2 = ys
    return (
        y0 * (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))
    )


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
    temperature_c: Optional[float] = None  # the thermal model's reference temperature
    wavelength: Optional[float] = None  # the chromatic model's optimization wavelength
    tip: float = 0.0
    tilt: float = 0.0
    time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature_c is None:
            self.temperature_c = self.thermal.reference_temperature_c
        if self.wavelength is None:
            self.wavelength = self.chromatic.optimization_wavelength
        self.validate()

    @property
    def in_motion(self) -> bool:
        """Whether the lens is short of its target."""
        return self.lens_position != self.target_position

    def validate(self) -> None:
        """Reject a state the motion rule and the optics models cannot start from.

        Runs at construction; ``sim.run_pass`` runs it again before its first
        tick, since fields may be assigned in between.
        """
        member("branch", self.branch, Branch)
        finite("motor_speed", self.motor_speed, gt=0)
        stroke = self.dmap.max_travel
        if finite("step_size", self.step_size, ge=0) > 0.0:
            # The rule divides a lens position by the step; at this bound the quotient stays finite.
            finite("a positive step_size", self.step_size, ge=stroke / (sys.float_info.max / 2.0))
        _check_travel("lens position", self.lens_position, -stroke, stroke)
        _check_travel("target position", self.target_position, -stroke, stroke)
        self.thermal.check_temperature(self.temperature_c)
        self.chromatic.check_wavelength(self.wavelength)


def command_divergence(
    state: ActuatorState,
    theta_target: float,
    branch: Optional[Branch] = None,
) -> None:
    """Command a nominal divergence: set the target position and start the motion.

    The lens then takes ``|target_position - lens_position| / motor_speed``
    to arrive (constant-speed profile, no ramps; see :func:`track`).
    """
    use_branch = branch if branch is not None else state.branch
    target_x = position_from_divergence(theta_target, use_branch, state.dmap)
    state.branch = use_branch
    state.target_position = target_x


def track(state: ActuatorState, targets, dt: float) -> np.ndarray:
    """Command each target position in turn and advance the lens one tick of ``dt``.

    Each tick runs the motion rule (:func:`_advance`).  Returns the float64
    column of lens positions after each tick and leaves ``state`` as after
    the last one; an empty column leaves it untouched.  A target off the
    stroke raises :class:`TravelRangeError`.

    Since an arrival puts the lens on its target, a tick that follows an
    arrival arrives too, on its target bit for bit, unless that target is
    more than one tick's travel from the last one.  So the output starts as
    the targets, one numpy test finds the ticks that start a slew, and the
    rule runs only along the stretches that slew: from the first start
    after the last arrival, tick by tick, until the lens arrives.
    """
    travel = state.motor_speed * finite("dt", dt, gt=0)
    targets = np.asarray(targets, dtype=float)
    n = len(targets)
    if not n:
        return targets.copy()
    stroke = state.dmap.max_travel
    _check_travel("target position", targets, -stroke, stroke)
    # One scratch column: first each tick's step from the lens an arrival leaves, then the clock.
    scratch = np.empty(n)
    scratch[0] = state.lens_position
    scratch[1:] = targets[:-1]
    starts = np.flatnonzero(np.abs(np.subtract(targets, scratch, out=scratch), out=scratch) > travel)
    lens = targets.copy()
    quantum, end = state.step_size, 0  # end: the tick after the last one walked
    for start in starts.tolist():
        if start < end:  # inside the last slew, so it does not follow an arrival
            continue
        here = lens.item(start - 1) if start else state.lens_position
        for end in range(start, n):
            target = targets.item(end)
            here = lens[end] = _advance(here, target, travel, quantum, stroke)
            if here == target:  # on its target: each tick up to the next start arrives
                break
        end += 1
    # The clock adds dt once per tick, in tick order, as a running total would.
    scratch.fill(dt)
    scratch[0] = state.time_s + dt
    state.time_s = float(np.add.accumulate(scratch, out=scratch)[-1])
    state.lens_position, state.target_position = float(lens[-1]), float(targets[-1])
    return lens


def _advance(lens: float, target: float, travel: float, quantum: float, stroke: float) -> float:
    """The motion rule: the lens position after one tick toward ``target``, in Python floats.

    The lens moves toward the target at constant speed, ``travel`` a tick,
    and its position is quantized to the step grid of ``quantum`` (none if
    0); it never overshoots the target by more than one quantization step,
    and a target within one tick's travel is taken bit for bit, the sign of
    a zero included.  The stroke ends are hard stops: a quantized position
    past +-``stroke`` lands on the end.
    """
    remaining = target - lens
    if abs(remaining) <= travel:
        return target
    lens += math.copysign(travel, remaining)
    if quantum > 0.0:
        # ``round`` gives an integer, so a lens rounding to zero from below lands on +0.0.
        lens = round(lens / quantum) * quantum
        if abs(lens) > stroke:
            lens = math.copysign(stroke, lens)
    return lens


def step(state: ActuatorState, dt: float) -> ActuatorState:
    """Advance the lens one tick of ``dt`` seconds toward the current target, by the motion rule (:func:`_advance`).

    A ``dt`` that is not finite and > 0 raises ``ValueError``, and a target
    off the stroke :class:`TravelRangeError`; either leaves ``state`` as it was.
    """
    travel = state.motor_speed * finite("dt", dt, gt=0)
    stroke = state.dmap.max_travel
    target = float(state.target_position)  # the state holds Python floats, whatever type was assigned
    _check_travel("target position", target, -stroke, stroke)
    state.lens_position = _advance(float(state.lens_position), target, travel, state.step_size, stroke)
    state.target_position, state.time_s = target, float(state.time_s + dt)
    return state


def achieved_divergence(state: ActuatorState, positions: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Achieved FWHM divergence, radians, at a lens position or a column of them.

    The nominal setting is taken on the commanded branch's signed line, the
    temperature and wavelength deviations are added, and the result folds
    back at the collimated minimum (a beam driven past its corrected
    collimation point re-diverges; it never narrows below the diffraction
    minimum).  A column gives, element for element, the floats a single
    position gives; any position off the stroke raises
    :class:`TravelRangeError`.
    """
    floor = state.dmap.collimated_divergence
    return floor + abs(_unfolded_divergence(state, positions) - floor)


def _unfolded_divergence(state: ActuatorState, positions: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """The nominal setting on the state's branch plus its thermal and chromatic deviations, before the fold."""
    u = setting_on_branch(positions, state.branch, state.dmap)
    return u + state.thermal.deviation(u, state.temperature_c) + state.chromatic.offset(u, state.wavelength)


def corrected_position(state: ActuatorState, theta_target: float) -> float:
    """Lens position on the state's branch whose divergence, before the fold, equals ``theta_target``.

    The lookup-table correction: it inverts, at the state's temperature and
    wavelength, the law :func:`achieved_divergence` folds, so the target is
    what the lens then achieves.  That law is affine in the position, so the
    position interpolates linearly between the outputs at the two stroke
    ends.  The solution may sit past the nominal collimation point (a
    virtual setting).

    Raises
    ------
    ValueError
        If the target is not finite and at or above the collimated minimum,
        below which the fold makes nothing reachable.
    TravelRangeError
        If no position within +-max_travel realizes the target.
    """
    target = finite("theta_target", theta_target, ge=state.dmap.collimated_divergence)
    lo, hi = -state.dmap.max_travel, state.dmap.max_travel
    p_lo, p_hi = _unfolded_divergence(state, lo), _unfolded_divergence(state, hi)
    _check_travel(f"correction exceeds travel range: theta_target at {state.temperature_c} C "
                  f"and {state.wavelength} m", target, min(p_lo, p_hi), max(p_lo, p_hi))
    if target == p_lo:  # also where the output does not depend on x at all
        return lo
    # The fraction lies in [0, 1] and an end gives that end exactly, so x stays on the stroke.
    return lo + (target - p_lo) / (p_hi - p_lo) * (hi - lo)


def actual_divergence(state: ActuatorState) -> float:
    """Achieved divergence at the current lens position, thermal and chromatic effects included."""
    return achieved_divergence(state, state.lens_position)


def set_temperature(state: ActuatorState, temperature_c: float) -> None:
    state.thermal.check_temperature(temperature_c)
    state.temperature_c = temperature_c


def set_wavelength(state: ActuatorState, wavelength: float) -> None:
    state.chromatic.check_wavelength(wavelength)
    state.wavelength = wavelength


def steer(state: ActuatorState, tip: float, tilt: float) -> None:
    finite("tip", tip, ge=-STEERING_RANGE_RAD, le=STEERING_RANGE_RAD)
    finite("tilt", tilt, ge=-STEERING_RANGE_RAD, le=STEERING_RANGE_RAD)
    state.tip = tip
    state.tilt = tilt


def axis_deviation(state: ActuatorState, rng: Union[int, np.random.Generator]) -> tuple[float, float]:
    """One emulated optical-axis wander sample, (tip, tilt) radians.

    Magnitude is uniform on [0, 2m] with mean ``m`` proportional to the
    current divergence (1.3 urad at the collimated setting), so it stays
    strictly inside the 5 % stability bound.  Deterministic for a fixed
    generator state.
    """
    gen = np.random.default_rng(rng)
    mean_mag = AXIS_MEAN_FRACTION * actual_divergence(state)
    mag = gen.uniform(0.0, 2.0 * mean_mag)
    angle = gen.uniform(0.0, 2.0 * math.pi)
    return (mag * math.cos(angle), mag * math.sin(angle))


def steering_residual(disturbance_frequency_hz: float, amplitude_rad: float) -> float:
    """Residual beam motion after the anti-vibration stage, radians.

    Disturbances up to ``ISOLATION_CUTOFF_HZ`` are attenuated by
    ``ISOLATION_REJECTION``.  Amplitude beyond ``STEERING_RANGE_RAD``
    saturates: the un-steerable excess passes through unattenuated.  Above
    the band nothing is rejected.
    """
    finite("frequency", disturbance_frequency_hz, ge=0)
    finite("amplitude", amplitude_rad, ge=0)
    if disturbance_frequency_hz > ISOLATION_CUTOFF_HZ:
        return amplitude_rad
    steerable = min(amplitude_rad, STEERING_RANGE_RAD)
    excess = amplitude_rad - steerable
    return steerable * ISOLATION_REJECTION + excess


def snapshot(state: ActuatorState, command: str = "") -> dict:
    """JSON-serializable snapshot of the state (one trace row)."""
    x = state.lens_position
    return {
        "time_s": state.time_s,
        "command": command,
        "lens_position_m": state.lens_position,
        "target_position_m": state.target_position,
        "in_motion": state.in_motion,
        "branch": state.branch.value,
        "nominal_divergence_rad": setting_on_branch(x, _DIVERGING if x >= 0.0 else _CONVERGING, state.dmap),
        "actual_divergence_rad": actual_divergence(state),
        "temperature_c": state.temperature_c,
        "wavelength_m": state.wavelength,
        "tip_rad": state.tip,
        "tilt_rad": state.tilt,
    }


def _branch(name: str) -> Branch:
    """The branch a script line names, in any case; any other name fails with ``member``'s list of choices."""
    return member("branch", {branch.value: branch for branch in Branch}.get(name.lower(), name), Branch)


# Each emulator-script command's arguments (a bracketed one is optional) and
# its action on the state, given those arguments as strings.
_SCRIPT = {
    "set-divergence": ("THETA_RAD [diverging|converging]", lambda st, theta, branch=None: command_divergence(
        st, float(theta), branch and _branch(branch))),
    "set-temperature": ("DEG_C", lambda st, deg_c: set_temperature(st, float(deg_c))),
    "set-wavelength": ("METERS", lambda st, meters: set_wavelength(st, float(meters))),
    "steer": ("TIP_RAD TILT_RAD", lambda st, tip, tilt: steer(st, float(tip), float(tilt))),
    "step": ("DT_S", lambda st, dt: step(st, float(dt))),
    "query": ("", lambda st: None),
}


def run_script(lines: Iterable[str], state: Optional[ActuatorState] = None) -> list[dict]:
    """Execute a newline-delimited command stream against the emulator.

    Each line is a command of ``_SCRIPT`` and its arguments,
    whitespace separated; ``#`` starts a comment.  A line with too few or
    too many arguments fails with its command's usage.  Returns one
    snapshot per executed command, preceded by the initial state, so an
    empty script yields a single row.
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
            if cmd not in _SCRIPT:
                raise ValueError(f"unknown command {cmd!r}")
            usage, action = _SCRIPT[cmd]
            most = len(usage.split())
            if len(args) not in range(most - usage.count("["), most + 1):
                raise ValueError(f"usage: {cmd} {usage}".rstrip())
            action(st, *args)
        except ValueError as exc:
            raise ValueError(f"script line {lineno}: {exc}") from exc
        trace.append(snapshot(st, text))
    return trace
