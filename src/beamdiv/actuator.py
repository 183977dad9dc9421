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


def divergence_from_position(x: float, dmap: DivergenceMap) -> float:
    """Nominal divergence at lens position ``x`` (signed, meters): the setting on ``x``'s own side."""
    return setting_on_branch(x, _DIVERGING if x >= 0.0 else _CONVERGING, dmap)


def position_from_divergence(
    theta: Union[float, np.ndarray], branch: Branch, dmap: DivergenceMap
) -> Union[float, np.ndarray]:
    """Signed lens position realizing ``theta`` on the given branch.

    Exact inverse of :func:`divergence_from_position` on that branch.  An
    array of angles gives the array of positions, element for element the
    same floats.
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
        setting extrapolates.  An array of settings gives an array.
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
        return frac * _between_anchors(self.anchor_settings, outputs[0] - a0, outputs[1] - a1, theta_set)

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

    def check_wavelength(self, wavelength: float) -> None:
        """Raise ``ValueError`` unless the wavelength lies in the sampled band."""
        finite("wavelength", wavelength, ge=self.wavelengths[0], le=self.wavelengths[2])

    def offset(self, theta_set, wavelength: float):
        """Divergence offset (radians, >= 0 at the band edges) at a setting or an array of them."""
        self.check_wavelength(wavelength)
        off0 = _quadratic_through(self.wavelengths, self.offsets_low, wavelength)
        off1 = _quadratic_through(self.wavelengths, self.offsets_high, wavelength)
        return _between_anchors(self.anchor_settings, off0, off1, theta_set)


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


def apply_temperature(theta_set: float, temperature_c: float, model: ThermalModel) -> float:
    """Divergence actually achieved at a nominal setting and temperature; finite and > 0."""
    return finite("divergence angle", theta_set + model.deviation(theta_set, temperature_c), gt=0)


def apply_wavelength(theta_set: float, wavelength: float, model: ChromaticModel) -> float:
    """Divergence actually achieved at a nominal setting and wavelength; finite and > 0."""
    return finite("divergence angle", theta_set + model.offset(theta_set, wavelength), gt=0)


def temperature_corrected_position(
    theta_target: float,
    temperature_c: float,
    model: ThermalModel,
    dmap: DivergenceMap,
    branch: Branch = Branch.DIVERGING,
) -> float:
    """Lens position whose thermally shifted output equals ``theta_target``.

    The output ``apply_temperature(setting_on_branch(x), T)`` is affine in
    ``x``, so the position interpolates linearly between the outputs at the
    two stroke ends.  The solution may sit past the nominal collimation
    point (virtual setting); it always verifies against the thermal model.

    Raises
    ------
    ValueError
        If the target is not finite and > 0.
    TravelRangeError
        If no position within +-max_travel realizes the target.
    """
    target = finite("theta_target", theta_target, gt=0)

    def predicted(x: float) -> float:
        u = setting_on_branch(x, branch, dmap)
        return u + model.deviation(u, temperature_c)

    lo, hi = -dmap.max_travel, dmap.max_travel
    p_lo, p_hi = predicted(lo), predicted(hi)
    _check_travel(f"correction exceeds travel range: theta_target at {temperature_c} C",
                  target, min(p_lo, p_hi), max(p_lo, p_hi))
    if target == p_lo:  # also where the output does not depend on x at all
        return lo
    # The fraction lies in [0, 1] and an end gives that end exactly, so x stays on the stroke.
    return lo + (target - p_lo) / (p_hi - p_lo) * (hi - lo)


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
    time_s: float = 0.0

    def __post_init__(self) -> None:
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

    The motion rule: the lens moves toward the target at constant speed and
    the position is quantized to the step grid; it never overshoots the
    target by more than one quantization step, and a target within one
    tick's travel is reached exactly.  The stroke ends are hard stops: a
    quantized position past +-``max_travel`` lands on the end.  A tick whose
    target equals the lens position leaves the lens as it is, the sign of a
    zero included.  Returns the float64 column of lens positions after each
    tick and leaves ``state`` as after the last one; an empty column leaves
    it untouched.  A target off the stroke raises :class:`TravelRangeError`.

    Since an arrival puts the lens on its target exactly, a tick that
    follows an arrival arrives too unless its target is more than one
    tick's travel from the last one.  So the output starts as the targets,
    and only the stretches that start at such a tick run the rule
    (:func:`_slew`).
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
    if starts.size:
        origins = targets[starts - 1]
        if starts[0] == 0:
            origins[0] = state.lens_position
        _slew(lens, targets, starts, origins, travel, state.step_size, stroke)
    _hold_zero_signs(lens, targets, state.lens_position)
    # The clock adds dt once per tick, in tick order, as a running total would.
    scratch.fill(dt)
    scratch[0] = state.time_s + dt
    state.time_s = float(np.add.accumulate(scratch, out=scratch)[-1])
    state.lens_position, state.target_position = float(lens[-1]), float(targets[-1])
    return lens


# The running head's width starts at 1 and doubles with every lockstep step;
# from this width on, each step also runs the head ahead in a block that many
# ticks wide, and a block whose guess misses starts the width over.  Each
# block's guess is refined this many times before it is checked.
_HEAD_BLOCK = 8
_SWEEPS = 2


def _slew(lens: np.ndarray, targets: np.ndarray, starts: np.ndarray, origins: np.ndarray,
          travel: float, quantum: float, stroke: float) -> None:
    """Write into ``lens`` the slewing positions of the stretches that start at ``starts``.

    A stretch starts from ``origins`` (the lens before its first tick, more
    than one tick's travel from its target) and runs the rule until it
    arrives or the column ends.  The stretches that count form a chain: the
    first, then the first to start after the last kept one arrived (a start
    inside a kept stretch does not follow an arrival).

    Every running stretch advances at once, one numpy step per tick, so
    most of the chain is known by the time its running head arrives.  The
    stretches inside the head are dropped as the head reaches them, and a
    head that keeps slewing also runs ahead in doubling blocks
    (:func:`_run_head`): a lens that slews for most of a long column costs a
    few steps per doubling, not one per tick.
    """
    n, count = len(targets), len(starts)
    # Each stretch's successor, the first to start after it arrives (count: none), or -1
    # while it runs; the extra slot at index count stays -1 and ends the walk.
    successors = np.full(count + 1, -1)
    # The running stretches not inside the head, ascending: which, their next tick, the lens before it.
    ids, ticks, pos = np.arange(count), starts, origins
    moves, kept, head, width = [], [], 0, 1
    while True:
        following = successors.item(head)
        while following >= 0:
            kept.append(head)
            head, width = following, 1
            following = successors.item(head)
        if head == count:
            break
        # Put the head first and drop the starts inside it.  The copies are fresh, so writing
        # the head's row below leaves the arrays already in ``moves`` as they are.
        first = np.searchsorted(ids, head)
        after = np.searchsorted(ids, np.searchsorted(starts, ticks[first], side="right"))
        ids, ticks, pos = (np.concatenate((column[first:first + 1], column[after:])) for column in (ids, ticks, pos))
        if width >= _HEAD_BLOCK:
            slewed, arrived, moved = _run_head(ticks.item(0), pos.item(0), width, targets, travel, quantum, stroke)
            moves.append((np.arange(ticks[0], ticks[0] + slewed), np.full(slewed, head), moved))
            ticks[0] += slewed
            if slewed:
                pos[0] = moved[-1]
            if arrived or ticks[0] == n:
                successors[head] = np.searchsorted(starts, ticks[0], side="right")
                ids, ticks, pos = ids[1:], ticks[1:], pos[1:]
            width = 2 * width if slewed == width else 1
        else:
            width *= 2
        # One step of the rule for every running stretch.
        remaining = targets[ticks] - pos
        arrived = np.abs(remaining) <= travel
        successors[ids[arrived]] = np.searchsorted(starts, ticks[arrived], side="right")
        slewing = ~arrived
        ids, ticks = ids[slewing], ticks[slewing]
        pos = _move(pos[slewing], remaining[slewing], travel, quantum, stroke)
        moves.append((ticks, ids, pos))
        ticks = ticks + 1
        ended = ticks == n  # the column ends before these arrive
        if ended.any():
            successors[ids[ended]] = count
            ids, ticks, pos = ids[~ended], ticks[~ended], pos[~ended]
    ticks, ids, values = (np.concatenate(column) for column in zip(*moves))
    keep = np.zeros(count, dtype=bool)
    keep[kept] = True
    keep = keep[ids]
    lens[ticks[keep]] = values[keep]


def _run_head(first: int, start: float, width: int, targets, travel, quantum, stroke):
    """Run the head stretch from tick ``first`` and lens ``start`` for up to ``width`` ticks at once.

    Returns how many ticks it slewed, whether it arrives on the tick after
    them, and its positions on the ticks it slewed.  The rule is
    sequential, so the block guesses first: each tick moves toward its
    target as seen from the guess before it, starting from the block's
    first position and refined ``_SWEEPS`` times.  Then one step of the
    rule from every guessed position checks every guess at once.  The
    stretch keeps its ticks up to the first that arrives, leaves the column
    or misses its guess; a missed tick still holds the rule's own position,
    since the position before it was right.
    """
    target = targets[first:first + width]
    # A guess may count past the largest float, and so may the rule's step from an
    # arriving tick, which is not kept; neither reaches a kept position.
    with np.errstate(over="ignore"):
        before = start
        for _ in range(_SWEEPS):
            guess = np.copysign(travel, target - before)
            guess[0] += start
            if quantum > 0.0:  # counted in grid steps
                np.rint(guess / quantum, out=guess)
            np.add.accumulate(guess, out=guess)
            if quantum > 0.0:
                _on_grid(guess, quantum, stroke)
            before = np.concatenate(([start], guess[:-1]))
        remaining = target - before
        arrives = np.abs(remaining) <= travel
        moved = _move(before, remaining, travel, quantum, stroke)
    stops = arrives | (moved != guess)
    stop = int(np.argmax(stops)) if stops.any() else len(target)
    arrived = stop < len(target) and bool(arrives[stop])
    slewed = stop if arrived else min(stop + 1, len(target))
    return slewed, arrived, moved[:slewed]


def _move(start: np.ndarray, remaining: np.ndarray, travel: float, quantum: float, stroke: float) -> np.ndarray:
    """The rule's slewing step: one tick's travel toward a target ``remaining`` away, onto the step grid."""
    moved = start + np.copysign(travel, remaining)
    if quantum > 0.0:
        _on_grid(np.rint(moved / quantum, out=moved), quantum, stroke)
    return moved


def _on_grid(steps: np.ndarray, quantum: float, stroke: float) -> None:
    """Turn whole grid steps into positions in place, clamped to the stroke.

    ``np.rint`` gives -0.0 for a lens that rounds to zero from below, where
    the rule's ``round`` gives the integer 0; adding 0.0 makes it +0.0.
    """
    steps += 0.0
    steps *= quantum
    np.clip(steps, -stroke, stroke, out=steps)


def _hold_zero_signs(lens: np.ndarray, targets: np.ndarray, start: float) -> None:
    """Give each tick whose target equals a zero lens before it that lens's zero, sign included.

    Everywhere else ``lens`` is already the rule's output: -0.0 and +0.0
    compare equal, so only the sign of a held zero can differ.
    """
    held = targets == 0.0
    if not held.any():
        return
    held[0] &= start == 0.0
    held[1:] &= lens[:-1] == 0.0
    signs = np.signbit(lens)
    flips = np.empty_like(signs)
    flips[0] = signs[0] != np.signbit(start)
    np.not_equal(signs[1:], signs[:-1], out=flips[1:])
    if np.any(held & flips):
        # A run of held ticks keeps the zero from before the run.
        source = np.maximum.accumulate(np.where(held, 0, np.arange(1, len(lens) + 1)))
        lens[held] = np.concatenate(([start], lens))[source[held]]


def step(state: ActuatorState, dt: float) -> ActuatorState:
    """Advance the motion toward the current target by one tick of ``dt`` seconds (see :func:`track`)."""
    track(state, (state.target_position,), dt)
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
    u = setting_on_branch(positions, state.branch, state.dmap)
    raw = u + state.thermal.deviation(u, state.temperature_c) + state.chromatic.offset(u, state.wavelength)
    floor = state.dmap.collimated_divergence
    return floor + abs(raw - floor)


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
    return {
        "time_s": state.time_s,
        "command": command,
        "lens_position_m": state.lens_position,
        "target_position_m": state.target_position,
        "in_motion": state.in_motion,
        "branch": state.branch.value,
        "nominal_divergence_rad": divergence_from_position(state.lens_position, state.dmap),
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
