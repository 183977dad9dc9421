"""LEO pass geometry and the closed-loop adaptive-divergence simulation.

The pass model is a circular orbit over a spherical Earth: the satellite
sweeps a symmetric arc over the ground station, parametrized by the central
angle between the sub-satellite point and the station.  The station's
cross-track offset sets the peak elevation.  The pass ends at its minimum
elevation or, if one is set, at its maximum slant range, whichever is reached
first; a range clip reached first puts the first and last ticks exactly at
the range limit, which is convenient when a design is specified by its
nearest/farthest operating distances.

A pass is one structured array, ``STEP_DTYPE``, with a column per CSV field:
``pass_profile`` sets its geometry, and ``run_pass`` fills the rest as
columns: the jitter, the divergence the policy picks, the lens target it
implies, the achieved divergence, pointing loss, link margin and data rate.
Only the lens tracker, whose position at one tick depends on the last, runs
as a loop of scalar steps.  The columns hold the same floats as stepping the
per-tick APIs tick by tick.  A tick whose link cannot close is recorded as an
outage (rate 0, margin -inf), so a pass that starts runs to its end.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import enum
import math
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
    "elevation_for_range_deg",
    "pass_profile",
    "adaptive_policy",
    "run_pass",
    "steps_to_csv",
    "write_steps_csv",
]

EARTH_RADIUS_M = 6371e3
MU_EARTH_M3_PER_S2 = 3.986004418e14

@dataclass(frozen=True)
class PassGeometry:
    """Circular-orbit overhead-pass parameters."""

    altitude_m: float = 600e3
    min_elevation_deg: float = 5.0
    max_elevation_deg: float = 90.0
    dt_s: float = 1.0
    max_range_m: Optional[float] = None  # clips at this slant range or min_elevation_deg, whichever is reached first

    def __post_init__(self) -> None:
        for name in ("altitude_m", "dt_s"):
            finite(name, getattr(self, name), gt=0)
        finite("min_elevation_deg", self.min_elevation_deg, gt=0.0, lt=90.0)
        finite("max_elevation_deg", self.max_elevation_deg, gt=0.0, le=90.0)
        if self.max_range_m is not None:
            finite("max_range_m", self.max_range_m, gt=self.altitude_m)

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


def elevation_for_range_deg(range_m: float, geometry: PassGeometry) -> float:
    """Elevation at which the slant range equals ``range_m`` (inverse of slant_range)."""
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    finite("range_m", range_m, ge=geometry.altitude_m, le=math.sqrt(r**2 - re**2))  # above the horizon
    sin_el = (r**2 - re**2 - range_m**2) / (2.0 * re * range_m)
    return math.degrees(math.asin(sin_el))


def _central_angle_for_elevation(elevation_deg: float, geometry: PassGeometry) -> float:
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    d = slant_range(elevation_deg, geometry)
    # cos(psi) from the triangle station / Earth center / satellite.
    cos_psi = (re**2 + r**2 - d**2) / (2.0 * re * r)
    return math.acos(min(1.0, max(-1.0, cos_psi)))


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
    columns are NaN until ``run_pass`` fills them.  The grid is symmetric
    around culmination (t = 0) and always contains the endpoints and the
    peak exactly.
    """
    re = EARTH_RADIUS_M
    r = geometry.orbit_radius_m
    omega = geometry.angular_rate_rad_per_s
    # Cross-track central angle fixes the peak elevation.
    psi_peak = _central_angle_for_elevation(geometry.max_elevation_deg, geometry)
    psi_end = _central_angle_for_elevation(geometry.min_elevation_deg, geometry)
    # A range clip at or beyond the elevation clip's range (even past the horizon) is never reached.
    if geometry.max_range_m is not None and geometry.max_range_m < slant_range(geometry.min_elevation_deg, geometry):
        psi_range = _central_angle_for_elevation(elevation_for_range_deg(geometry.max_range_m, geometry), geometry)
        psi_end = min(psi_end, psi_range)
    if psi_end < psi_peak:
        raise ValueError(
            "empty pass: peak elevation lies below the clipping limit "
            f"(peak central angle {psi_peak:.4f} rad, clip {psi_end:.4f} rad)"
        )
    # cos(psi(t)) = cos(psi_peak) * cos(omega t)  [spherical right triangle]
    cos_ratio = math.cos(psi_end) / math.cos(psi_peak)
    t_end = math.acos(min(1.0, max(-1.0, cos_ratio))) / omega
    n_half = max(1, round(t_end / geometry.dt_s))
    t = np.linspace(-t_end, t_end, 2 * n_half + 1)
    cos_psi = math.cos(psi_peak) * np.cos(omega * t)
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

    Each sigma must be finite and >= 0.  Zero jitter commands the collimated
    minimum; every pick is clamped to the actuator limits of the state's
    branch.
    """
    sigma = finite("sigma_p", np.asarray(sigma_p, dtype=float), ge=0)
    lo = state.dmap.collimated_divergence
    hi = state.dmap.branch_max(state.branch)
    if policy.strategy is Strategy.FIXED:
        raw = np.full(sigma.shape, policy.fixed_divergence_rad)
    else:
        raw = np.full(sigma.shape, lo)
        jittered = sigma > 0.0
        if policy.strategy is Strategy.RULE_5_SIGMA:
            raw[jittered] = rule_of_thumb_divergence(sigma[jittered])
        else:
            raw[jittered] = optimal_divergence(sigma[jittered], policy.convention)
    return np.minimum(np.maximum(raw, lo), hi)


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
    holds the margin floor.  A tick that supports no rate, or no rung of the
    rate ladder, is an outage: rate 0 and margin -inf, recorded rather than
    raised.  All but the motion run as columns over the pass; the results
    and the final ``state`` equal those of running ``adaptive_policy``,
    ``actuator.command_divergence``, ``actuator.step``,
    ``actuator.actual_divergence``, ``pointing_loss_db`` and ``max_rate``
    tick by tick, with an outage where ``max_rate`` raises
    :class:`~beamdiv.link_budget.LinkClosedError`.

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
    theta_act[:] = actuator.achieved_divergence(st, _track_column(st, theta_cmd, geometry.dt_s))
    lp_db = steps["pointing_loss_db"]
    lp_db[:] = pointing_loss_db(sigma, theta_act)  # <= 0, FWHM convention
    received = received_power_column(config, slant_range_m, -lp_db, theta_act)
    rate = max_rate_column(config, received, policy.margin_floor_db)
    outage = rejected(rate, gt=0)  # rate 0.0, where max_rate raises LinkClosedError

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
    # changes the last digit.
    bits = np.add.accumulate(np.where(at_floor, steps["rate_bps"] * geometry.dt_s, 0.0))
    summary = {
        "ticks": n,
        "dt_s": geometry.dt_s,
        "duration_s": float(t_s[-1] - t_s[0]),
        "min_range_m": float(np.min(slant_range_m)),
        "max_range_m": float(np.max(slant_range_m)),
        "total_bits": float(bits[-1]),
        "fraction_at_margin_floor": int(np.count_nonzero(at_floor)) / n,
        "mean_command_lag_rad": float(np.mean(lag)),
        "max_command_lag_rad": float(np.max(lag)),
        "seed": seed,
    }
    return PassResult(steps=steps, summary=summary)


# The helpers below hold per-tick temporaries that die when they return, so
# run_pass keeps no more than its STEP_DTYPE array and a few columns alive.

def _track_column(state: ActuatorState, theta_cmd: np.ndarray, dt: float) -> np.ndarray:
    """Lens position after each tick of tracking the commanded divergences (see ``actuator.track``)."""
    targets = actuator.position_from_divergence(theta_cmd, state.branch, state.dmap)
    return np.array(actuator.track(state, targets.tolist(), dt))


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
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_blocks(steps))


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
