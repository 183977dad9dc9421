"""LEO pass geometry and the closed-loop adaptive-divergence simulation.

The pass model is a circular orbit over a spherical Earth: the satellite
sweeps a symmetric arc over the ground station, parametrized by the central
angle between the sub-satellite point and the station.  The station's
cross-track offset sets the peak elevation.  The pass ends at its minimum
elevation or, if one is set, at its maximum slant range, whichever is reached
first; a range clip reached first puts the first and last ticks at the range
limit (within 1 mm), which is convenient when a design is specified by its
nearest/farthest operating distances.  Each clip's central angle comes from
its slant range by one law, ``_central_angle``.

A pass is one structured array, ``STEP_DTYPE``, with a column per CSV field:
``pass_profile`` sets its geometry, and ``run_pass`` fills the rest as
columns: the jitter, the divergence the policy picks, the lens target it
implies, the achieved divergence, pointing loss, link margin and data rate.
The lens tracker, whose position at one tick depends on the last, takes the
target column and returns the lens column: ``actuator.track`` finds the
ticks that start a slew as a column and walks the motion rule, tick by tick,
only along the stretches where the lens slews.  The columns hold the same
floats as stepping the per-tick APIs tick by tick.  A tick whose link cannot close is
recorded as an outage (rate 0, margin -inf), so a pass that starts runs to
its end.  Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import enum
import math
import os
import stat
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import actuator
from ._checks import finite, member, rejected
from ._columns import csv_text
from .actuator import ActuatorState
from .link_budget import LinkConfig, max_rate_column, received_power_column
from .link_budget import max_rate, received_power_dbm  # noqa: F401  (perfbench traces them through this module)
from .pointing import GainConvention, optimal_divergence, pointing_loss_db, rule_of_thumb_divergence

__all__ = [
    "EARTH_RADIUS_M",
    "MU_EARTH_M3_PER_S2",
    "PassGeometry",
    "Strategy",
    "ControlPolicy",
    "STEP_DTYPE",
    "PassResult",
    "slant_range",
    "pass_profile",
    "adaptive_policy",
    "run_pass",
    "steps_to_csv",
    "write_steps_csv",
]

EARTH_RADIUS_M = 6371e3
MU_EARTH_M3_PER_S2 = 3.986004418e14

# The bounds a pass is built within; PassGeometry's docstring gives the reasons.
_MIN_ALTITUDE_M, _MAX_ALTITUDE_M = 100e3, 100e6
_MAX_DT_S = 86400.0
_MAX_TICKS = 10**7


@dataclass(frozen=True)
class PassGeometry:
    """Circular-orbit overhead-pass parameters.

    ``altitude_m`` lies in 100 km (about the lowest orbit) to 100,000 km
    (well past GEO): from about 1e154 m the orbit radius's square
    overflows, and at millimetre altitudes the culmination range rounds to
    0.  ``dt_s`` is at
    most a day: a pass at the top altitude lasts about two, and each tick
    counts ``rate * dt_s`` bits, which overflow at 1e300 s.  A pass has at
    most 10**7 ticks, a 720 MB ``STEP_DTYPE`` array and about 350 times a
    10 ms pass, so a mistyped ``dt_s`` is rejected before anything is
    allocated.  A geometry whose peak elevation lies below its clip (by
    elevation or by range) gives an empty pass.  Each of these raises
    ``ValueError``.
    """

    altitude_m: float = 600e3
    min_elevation_deg: float = 5.0
    max_elevation_deg: float = 90.0
    dt_s: float = 1.0
    max_range_m: Optional[float] = None  # clips at this slant range or min_elevation_deg, whichever is reached first

    def __post_init__(self) -> None:
        finite("altitude_m", self.altitude_m, ge=_MIN_ALTITUDE_M, le=_MAX_ALTITUDE_M)
        finite("dt_s", self.dt_s, gt=0, le=_MAX_DT_S)
        finite("min_elevation_deg", self.min_elevation_deg, gt=0.0, lt=90.0)
        finite("max_elevation_deg", self.max_elevation_deg, gt=0.0, le=90.0)
        if self.max_range_m is not None:
            finite("max_range_m", self.max_range_m, gt=self.altitude_m)
        if 2 * _span(self)[2] + 1 > _MAX_TICKS:
            raise ValueError(f"dt_s = {self.dt_s} s gives a pass of more than {_MAX_TICKS} ticks, "
                             "the most a pass may have (a 720 MB array)")

    @property
    def orbit_radius_m(self) -> float:
        return EARTH_RADIUS_M + self.altitude_m

    @property
    def angular_rate_rad_per_s(self) -> float:
        """Orbital angular rate of a circular orbit (Earth rotation ignored)."""
        return math.sqrt(MU_EARTH_M3_PER_S2 / self.orbit_radius_m**3)


def slant_range(elevation_deg: float, geometry: PassGeometry) -> float:
    """Slant range to the satellite at an elevation angle, meters.

    Spherical Earth: ``sqrt((Re+h)^2 - Re^2 cos^2 el) - Re sin el``.
    """
    el = math.radians(finite("elevation_deg", elevation_deg, gt=0.0, le=90.0))
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    return math.sqrt(r**2 - (re * math.cos(el)) ** 2) - re * math.sin(el)


def _central_angle(range_m: float, geometry: PassGeometry) -> float:
    """The central angle between station and satellite at a slant range."""
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    # cos(psi) from the triangle station / Earth center / satellite.
    cos_psi = (re**2 + r**2 - range_m**2) / (2.0 * re * r)
    return math.acos(min(1.0, max(-1.0, cos_psi)))


def _span(geometry: PassGeometry) -> tuple[float, float, int]:
    """The pass's central angle at culmination, its half duration (s) and its half tick count.

    The pass ends at its elevation clip, or at its range clip if that is
    reached first.  A range clip at or beyond the elevation clip's range
    (even past the horizon) is never reached, and is not squared: a huge one
    would overflow.  Raises ``ValueError`` for an empty pass.
    """
    # Cross-track central angle fixes the peak elevation.
    psi_peak = _central_angle(slant_range(geometry.max_elevation_deg, geometry), geometry)
    end_range = slant_range(geometry.min_elevation_deg, geometry)
    if geometry.max_range_m is not None and geometry.max_range_m < end_range:
        end_range = geometry.max_range_m
    psi_end = _central_angle(end_range, geometry)
    if psi_end < psi_peak:
        raise ValueError(
            "empty pass: peak elevation lies below the clipping limit "
            f"(peak central angle {psi_peak:.4f} rad, clip {psi_end:.4f} rad)"
        )
    # cos(psi(t)) = cos(psi_peak) * cos(omega t)  [spherical right triangle]
    cos_ratio = math.cos(psi_end) / math.cos(psi_peak)
    t_end = math.acos(min(1.0, max(-1.0, cos_ratio))) / geometry.angular_rate_rad_per_s
    # A quotient past the cap (infinite for a subnormal dt_s) is cut to it; the geometry rejects such a pass.
    return psi_peak, t_end, max(1, round(min(t_end / geometry.dt_s, _MAX_TICKS)))


# One float64 field per CSV column, in CSV order: ``steps["rate_bps"]`` is a
# column of a pass and ``steps[i]`` one tick.
STEP_DTYPE = np.dtype(
    [
        (name, np.float64)
        for name in ("t_s", "elevation_deg", "slant_range_m", "sigma_p_rad", "theta_commanded_rad",
                     "theta_actual_rad", "pointing_loss_db", "margin_db", "rate_bps")
    ]
)


def pass_profile(geometry: PassGeometry) -> np.ndarray:
    """One overhead pass, clipped by elevation or range (whichever is reached first), as a ``STEP_DTYPE`` array.

    ``t_s``, ``elevation_deg`` and ``slant_range_m`` are set; the other
    columns are NaN until ``run_pass`` fills them.  The end ticks are
    exactly -t_end and t_end.  The grid is symmetric about culmination
    only to within rounding: the middle tick lies within rounding of t = 0
    (about 1e-14 s on a short pass), not always on it.  There the cosine
    of the orbit angle rounds to 1, so the middle row is still the peak's.
    """
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    psi_peak, t_end, n_half = _span(geometry)
    t = np.linspace(-t_end, t_end, 2 * n_half + 1)
    cos_psi = math.cos(psi_peak) * np.cos(geometry.angular_rate_rad_per_s * t)
    rng = np.sqrt(re**2 + r**2 - 2.0 * re * r * cos_psi)
    steps = np.empty(len(t), STEP_DTYPE)
    steps.view(np.float64).fill(math.nan)  # every field is a float64: one flat fill
    steps["t_s"] = t
    steps["slant_range_m"] = rng
    # At a 90 deg peak the sine can round past 1; clip so culmination is 90, not NaN.
    steps["elevation_deg"] = np.degrees(np.arcsin(np.clip((r * cos_psi - re) / rng, -1.0, 1.0)))
    return steps


class Strategy(enum.Enum):
    """How the commanded divergence is chosen each tick."""

    RULE_5_SIGMA = "rule_5_sigma"
    EXACT_OPT = "exact_opt"
    FIXED = "fixed"


@dataclass(frozen=True)
class ControlPolicy:
    """Divergence-control policy for the closed-loop simulation.

    Divergences produced by the pointing optimizers are commanded verbatim
    as FWHM angles (the hardware's native convention).  ``rate_ladder``
    restricts the data rate to discrete steps; by default the rate adapts
    continuously to hold ``margin_floor_db``.
    """

    strategy: Strategy = Strategy.EXACT_OPT
    margin_floor_db: float = 0.0
    convention: GainConvention = GainConvention.QUADRATIC
    fixed_divergence_rad: Optional[float] = None
    rate_ladder_bps: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        member("strategy", self.strategy, Strategy)
        member("convention", self.convention, GainConvention)
        finite("margin_floor_db", self.margin_floor_db, ge=0)
        if self.strategy is Strategy.FIXED and self.fixed_divergence_rad is None:
            raise ValueError("FIXED strategy needs fixed_divergence_rad")
        if self.fixed_divergence_rad is not None:
            finite("fixed_divergence_rad", self.fixed_divergence_rad, gt=0)
        if self.rate_ladder_bps is not None:
            if not self.rate_ladder_bps:
                raise ValueError("rate ladder needs at least one rung")
            finite("rate_ladder_bps", self.rate_ladder_bps, gt=0)


def adaptive_policy(
    policy: ControlPolicy,
    sigma_p: Union[float, np.ndarray],
    state: ActuatorState,
) -> Union[float, np.ndarray]:
    """Pick the divergence to command for a sigma, or for each of an array of them.

    Each sigma must be finite and >= 0.  The strategy's law gives the raw
    pick, and every pick is clamped to the actuator limits of the state's
    branch, so zero jitter (a raw pick of 0.0) commands the collimated minimum.
    """
    sigma = finite("sigma_p", np.asarray(sigma_p, dtype=float), ge=0)
    if policy.strategy is Strategy.FIXED:
        raw = np.full(sigma.shape, policy.fixed_divergence_rad)
    elif policy.strategy is Strategy.RULE_5_SIGMA:
        raw = rule_of_thumb_divergence(sigma)
    else:
        raw = optimal_divergence(sigma, policy.convention)
    return np.minimum(np.maximum(raw, state.dmap.collimated_divergence), state.dmap.branch_max(state.branch))


@dataclass(frozen=True)
class PassResult:
    """One simulated pass: ``steps`` is a ``STEP_DTYPE`` array with one row per tick."""

    steps: np.ndarray
    summary: dict = field(default_factory=dict)


def run_pass(
    geometry: PassGeometry,
    policy: ControlPolicy,
    config: LinkConfig,
    jitter: Union[float, Sequence[float]] = 0.0,
    seed: int = 0,
    state: Optional[ActuatorState] = None,
) -> PassResult:
    """Simulate one pass of the adaptive-divergence downlink.

    The pass is ``pass_profile(geometry)``, filled in place.  The jitter is
    one number, or one value per tick (evaluate a schedule of time over
    ``pass_profile(geometry)["t_s"]``), finite and >= 0 everywhere.  With
    no ``state`` the pass drives a default actuator at the link's
    wavelength, which must lie in its chromatic band.
    Each tick chooses a divergence per the policy, commands the emulator and
    advances its motion by ``dt``, then evaluates the budget with the
    *achieved* divergence and pointing loss and records the data rate that
    holds the margin floor.  A tick that supports no finite rate (none, or
    one past the float range), or no rung of the rate ladder, is an outage:
    rate 0 and margin -inf, recorded rather than raised.  Every step runs as
    a column over the pass, except that the lens motion (``actuator.track``)
    walks the motion rule tick by tick along the stretches where the lens
    slews.  The results and the final ``state`` equal those of running
    ``adaptive_policy``, ``actuator.command_divergence``, ``actuator.step``,
    ``actuator.actual_divergence``, ``pointing_loss_db`` and ``max_rate``
    tick by tick, with an outage where ``max_rate`` raises
    :class:`~beamdiv.link_budget.LinkClosedError`.  A pass whose total bits
    overflow the float range raises ``ValueError`` naming ``total_bits``.

    The loop is noise-free, so the result is deterministic for fixed inputs.
    ``seed`` draws nothing; it is recorded in the summary as the run's seed.
    """
    config.require_sensitivity()
    st = state if state is not None else ActuatorState(wavelength=config.wavelength)
    st.validate()
    steps = pass_profile(geometry)
    n = len(steps)
    t_s, slant_range_m = steps["t_s"], steps["slant_range_m"]
    sigma = steps["sigma_p_rad"]
    values = np.asarray(jitter, dtype=float)
    if values.ndim and len(values) != n:
        raise ValueError(f"jitter schedule has {len(values)} entries for {n} ticks")
    sigma[:] = values
    bad = rejected(sigma, ge=0)
    if bad.size:
        t, value = t_s[bad[0]], sigma[bad[0]]
        raise ValueError(f"jitter schedule gives sigma = {value} rad at t = {t} s; need finite and >= 0")

    theta_cmd = steps["theta_commanded_rad"]
    theta_cmd[:] = adaptive_policy(policy, sigma, st)
    theta_act = steps["theta_actual_rad"]
    theta_act[:] = actuator.achieved_divergence(
        st, actuator.track(st, actuator.position_from_divergence(theta_cmd, st.branch, st.dmap), geometry.dt_s))
    lp_db = steps["pointing_loss_db"]
    lp_db[:] = pointing_loss_db(sigma, theta_act)  # <= 0, FWHM convention
    received = received_power_column(config, slant_range_m, -lp_db, theta_act)
    rate = max_rate_column(config, received, policy.margin_floor_db)
    outage = rejected(rate, gt=0)  # where max_rate raises LinkClosedError
    rate[outage] = 0.0

    margin = steps["margin_db"]
    if policy.rate_ladder_bps is None:
        margin[:] = policy.margin_floor_db
        margin[outage] = -math.inf
        steps["rate_bps"] = rate
    else:
        # The highest rung the continuous rate supports.  Relative slack keeps
        # a rung feasible when the continuous rate equals it up to float
        # rounding (e.g. exactly at a clip range).
        rungs = np.sort(policy.rate_ladder_bps)
        sensitivity = np.array([config.sensitivity.sensitivity_dbm(r) for r in rungs.tolist()])
        top = np.searchsorted(rungs, rate * (1.0 + 1e-9), side="right") - 1
        feasible = top >= 0
        steps["rate_bps"] = np.where(feasible, rungs[top], 0.0)
        margin[:] = np.where(feasible, received - sensitivity[top], -math.inf)

    at_floor = steps["margin_db"] >= policy.margin_floor_db
    lag = np.abs(steps["theta_commanded_rad"] - steps["theta_actual_rad"])
    # Summed in tick order, as a running total would: np.sum's pairwise order
    # changes the last digit.  A tick's bits or their total may overflow;
    # the total is then rejected below.
    with np.errstate(over="ignore"):
        bits = np.add.accumulate(np.where(at_floor, steps["rate_bps"] * geometry.dt_s, 0.0))
    summary = {
        "ticks": n,
        "dt_s": geometry.dt_s,
        "duration_s": float(t_s[-1] - t_s[0]),
        "min_range_m": float(np.min(slant_range_m)),
        "max_range_m": float(np.max(slant_range_m)),
        "total_bits": float(finite("total_bits", bits[-1])),
        "fraction_at_margin_floor": int(np.count_nonzero(at_floor)) / n,
        "mean_command_lag_rad": float(np.mean(lag)),
        "max_command_lag_rad": float(np.max(lag)),
        "seed": seed,
    }
    return PassResult(steps=steps, summary=summary)


# The helpers below hold per-tick temporaries that die when they return, so
# run_pass keeps no more than its STEP_DTYPE array and a few columns alive.

# Rows per CSV block: the text and the kernel's arrays of one block are alive at a time.
_CSV_BLOCK_ROWS = 512


def steps_to_csv(steps: np.ndarray) -> str:
    """Render a ``STEP_DTYPE`` array as CSV with full-precision floats (repr round-trip).

    Every cell is byte for byte the ``repr`` of its float, written for a
    whole block of rows at once by ``_columns.csv_text``.
    """
    return "".join(_csv_blocks(steps))


def write_steps_csv(steps: np.ndarray, path) -> None:
    """Write ``steps_to_csv(steps)`` to ``path``, one block of rows at a time.

    The file is byte for byte ``steps_to_csv(steps)``, but only one block's
    text is held at a time, not the whole pass's.
    """
    _rewrite(path, _csv_blocks(steps))


def _rewrite(path, chunks) -> None:
    """Write the text ``chunks`` over ``path``'s old bytes, then cut a regular file to their length.

    The one writer of every output file.  A ``"\\n"`` is written as itself,
    not as the host's line separator, so a file's bytes are the same on any
    host.  Opening without ``O_TRUNC`` (a new file gets mode ``0o666`` less
    the umask) writes over an existing file's blocks where truncating would
    free and allocate them again, which costs far more on some filesystems.
    ``/dev/null`` and other files that are not regular are not truncated.
    Neither way is atomic: a write that fails midway leaves the new prefix
    over the old tail, not a truncated prefix.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _csv_blocks(steps: np.ndarray):
    """The CSV header line, then the text of each block of ``_CSV_BLOCK_ROWS`` (512) rows.

    Each block is copied out contiguous on its own, so the kernel's arrays
    for at most one block, about 1 MB, are alive at a time.
    """
    names = steps.dtype.names
    yield ",".join(names) + "\n"
    for start in range(0, len(steps), _CSV_BLOCK_ROWS):
        block = np.ascontiguousarray(steps[start:start + _CSV_BLOCK_ROWS])
        yield csv_text(block.view(np.float64).reshape(len(block), len(names)))
