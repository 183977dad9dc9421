"""LEO pass geometry and the closed-loop adaptive-divergence simulation.

The pass model is a circular orbit over a spherical Earth: the satellite
sweeps a symmetric arc over the ground station, parametrized by the central
angle between the sub-satellite point and the station.  The station's
cross-track offset sets the peak elevation.  The pass can be clipped either
at a minimum elevation or at a maximum slant range; range clipping puts the
first and last ticks exactly at the range limit, which is convenient when a
design is specified by its nearest/farthest operating distances.

``run_pass`` closes the loop each tick: read the jitter schedule, pick a
divergence with the configured policy, command the actuator emulator, step
its motion, then evaluate pointing loss, link margin, and the supported data
rate with the achieved divergence.  Everything is deterministic for fixed
inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import actuator
from .actuator import ActuatorState
from .beam_optics import Convention, DivergenceAngle
from .link_budget import LinkConfig, max_rate, received_power_dbm
from .pointing import GainConvention, optimal_divergence, pointing_loss_db, rule_of_thumb_divergence

__all__ = [
    "EARTH_RADIUS_M",
    "MU_EARTH_M3_PER_S2",
    "PassGeometry",
    "PassProfile",
    "Strategy",
    "ControlPolicy",
    "SimStep",
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

JitterSchedule = Union[float, Sequence[float], Callable[[float], float]]


@dataclass(frozen=True)
class PassGeometry:
    """Circular-orbit overhead-pass parameters."""

    altitude_m: float = 600e3
    min_elevation_deg: float = 5.0
    max_elevation_deg: float = 90.0
    earth_radius_m: float = EARTH_RADIUS_M
    dt_s: float = 1.0
    max_range_m: Optional[float] = None  # clips the pass at this slant range

    def __post_init__(self) -> None:
        if self.altitude_m <= 0.0:
            raise ValueError("altitude must be > 0")
        if not (0.0 < self.min_elevation_deg < 90.0):
            raise ValueError("min_elevation_deg must be in (0, 90)")
        if not (0.0 < self.max_elevation_deg <= 90.0):
            raise ValueError("max_elevation_deg must be in (0, 90]")
        if self.dt_s <= 0.0:
            raise ValueError("dt_s must be > 0")
        if self.max_range_m is not None and self.max_range_m <= self.altitude_m:
            raise ValueError("max_range_m must exceed the altitude")

    @property
    def orbit_radius_m(self) -> float:
        return self.earth_radius_m + self.altitude_m

    @property
    def angular_rate_rad_per_s(self) -> float:
        """Orbital angular rate of a circular orbit (Earth rotation ignored)."""
        return math.sqrt(MU_EARTH_M3_PER_S2 / self.orbit_radius_m**3)


def slant_range(elevation_deg: float, geometry: PassGeometry) -> float:
    """Slant range to the satellite at an elevation angle, meters.

    Spherical Earth: ``sqrt((Re+h)^2 - Re^2 cos^2 el) - Re sin el``.
    """
    if not (0.0 < elevation_deg <= 90.0):
        raise ValueError(f"elevation must be in (0, 90] deg, got {elevation_deg}")
    el = math.radians(elevation_deg)
    re = geometry.earth_radius_m
    r = geometry.orbit_radius_m
    return math.sqrt(r**2 - (re * math.cos(el)) ** 2) - re * math.sin(el)


def elevation_for_range_deg(range_m: float, geometry: PassGeometry) -> float:
    """Elevation at which the slant range equals ``range_m`` (inverse of slant_range)."""
    re = geometry.earth_radius_m
    r = geometry.orbit_radius_m
    if not (geometry.altitude_m <= range_m <= math.sqrt(r**2 - re**2)):
        raise ValueError(f"range {range_m} m not reachable above the horizon")
    sin_el = (r**2 - re**2 - range_m**2) / (2.0 * re * range_m)
    return math.degrees(math.asin(sin_el))


def _central_angle_for_elevation(elevation_deg: float, geometry: PassGeometry) -> float:
    re = geometry.earth_radius_m
    r = geometry.orbit_radius_m
    d = slant_range(elevation_deg, geometry)
    # cos(psi) from the triangle station / Earth center / satellite.
    cos_psi = (re**2 + r**2 - d**2) / (2.0 * re * r)
    return math.acos(min(1.0, max(-1.0, cos_psi)))


@dataclass(frozen=True)
class PassProfile:
    """Symmetric pass time series (arrays share one index)."""

    t_s: np.ndarray
    elevation_deg: np.ndarray
    slant_range_m: np.ndarray

    def __len__(self) -> int:
        return len(self.t_s)


def pass_profile(geometry: PassGeometry) -> PassProfile:
    """Time series of one overhead pass, clipped by elevation or range.

    The grid is symmetric around culmination (t = 0) and always contains the
    endpoints and the peak exactly.
    """
    re = geometry.earth_radius_m
    r = geometry.orbit_radius_m
    omega = geometry.angular_rate_rad_per_s
    # Cross-track central angle fixes the peak elevation.
    psi_peak = _central_angle_for_elevation(geometry.max_elevation_deg, geometry)
    if geometry.max_range_m is not None:
        psi_end = _central_angle_for_elevation(elevation_for_range_deg(geometry.max_range_m, geometry), geometry)
    else:
        psi_end = _central_angle_for_elevation(geometry.min_elevation_deg, geometry)
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
    # At a 90 deg peak the sine can round past 1; clip so culmination is 90, not NaN.
    elev = np.degrees(np.arcsin(np.clip((r * cos_psi - re) / rng, -1.0, 1.0)))
    return PassProfile(t_s=t, elevation_deg=elev, slant_range_m=rng)


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
        if self.margin_floor_db < 0.0:
            raise ValueError("margin_floor_db must be >= 0")
        if self.strategy is Strategy.FIXED and self.fixed_divergence_rad is None:
            raise ValueError("FIXED strategy needs fixed_divergence_rad")
        if self.rate_ladder_bps is not None:
            if not self.rate_ladder_bps or any(r <= 0 for r in self.rate_ladder_bps):
                raise ValueError("rate ladder entries must be > 0")


def adaptive_policy(
    policy: ControlPolicy,
    sigma_p: float,
    state: ActuatorState,
) -> float:
    """Pick the divergence to command this tick, clamped to actuator limits."""
    dmap = state.dmap
    lo = dmap.collimated_divergence
    hi = dmap.branch_max(state.branch)
    if policy.strategy is Strategy.FIXED:
        raw = policy.fixed_divergence_rad
    elif policy.strategy is Strategy.RULE_5_SIGMA:
        raw = rule_of_thumb_divergence(sigma_p) if sigma_p > 0.0 else lo
    else:
        raw = optimal_divergence(sigma_p, policy.convention) if sigma_p > 0.0 else lo
    return min(max(raw, lo), hi)


@dataclass(frozen=True)
class SimStep:
    """One tick of the closed-loop pass simulation."""

    t_s: float
    elevation_deg: float
    slant_range_m: float
    sigma_p_rad: float
    theta_commanded_rad: float
    theta_actual_rad: float
    pointing_loss_db: float
    margin_db: float
    rate_bps: float

    FIELDS = (
        "t_s",
        "elevation_deg",
        "slant_range_m",
        "sigma_p_rad",
        "theta_commanded_rad",
        "theta_actual_rad",
        "pointing_loss_db",
        "margin_db",
        "rate_bps",
    )


@dataclass(frozen=True)
class PassResult:
    steps: tuple[SimStep, ...]
    summary: dict = field(default_factory=dict)


def _sigma_lookup(jitter: JitterSchedule, n_ticks: int) -> Callable[[int, float], float]:
    if callable(jitter):
        return lambda i, t: float(jitter(t))
    if isinstance(jitter, (int, float)):
        return lambda i, t: float(jitter)
    values = np.asarray(jitter, dtype=float)
    if len(values) != n_ticks:
        raise ValueError(f"jitter schedule has {len(values)} entries for {n_ticks} ticks")
    return lambda i, t: float(values[i])


def run_pass(
    geometry: PassGeometry,
    policy: ControlPolicy,
    config: LinkConfig,
    jitter: JitterSchedule = 0.0,
    seed: int = 0,
    state: Optional[ActuatorState] = None,
) -> PassResult:
    """Simulate one pass of the adaptive-divergence downlink.

    Each tick: sample the jitter schedule, choose a divergence per the
    policy, command the emulator and advance its motion by ``dt``, then
    evaluate the budget with the *achieved* divergence and pointing loss and
    record the data rate that holds the margin floor.

    The loop is noise-free, so the result is deterministic for fixed inputs.
    ``seed`` draws nothing; it is recorded in the summary as the run's seed.
    """
    if config.sensitivity is None:
        raise ValueError("link config has no sensitivity model; calibrate one first")
    st = state if state is not None else ActuatorState()
    profile = pass_profile(geometry)
    sigma_at = _sigma_lookup(jitter, len(profile))

    steps: list[SimStep] = []
    lag_abs: list[float] = []
    total_bits = 0.0
    ticks_at_floor = 0
    for i in range(len(profile)):
        t = float(profile.t_s[i])
        distance = float(profile.slant_range_m[i])
        sigma = sigma_at(i, t)
        if sigma < 0.0:
            raise ValueError(f"jitter schedule produced sigma < 0 at t={t}")
        theta_cmd = adaptive_policy(policy, sigma, st)
        actuator.command_divergence(st, theta_cmd)
        actuator.step(st, geometry.dt_s)
        theta_act = actuator.actual_divergence(st).value
        lp_db = pointing_loss_db(sigma, theta_act)  # <= 0, FWHM convention
        live = config.with_divergence(DivergenceAngle(theta_act, Convention.FWHM))
        rate = max_rate(live, distance, policy.margin_floor_db, pointing_loss_db=-lp_db)
        margin = policy.margin_floor_db
        if policy.rate_ladder_bps is not None:
            # Relative slack keeps a rung feasible when the continuous rate
            # equals it up to float rounding (e.g. exactly at a clip range).
            ladder = [r for r in policy.rate_ladder_bps if r <= rate * (1.0 + 1e-9)]
            if ladder:
                rate = max(ladder)
                report = received_power_dbm(live, distance, pointing_loss_db=-lp_db)
                margin = report.received_power_dbm - config.sensitivity.sensitivity_dbm(rate)
            else:
                rate = 0.0
                margin = -math.inf
        steps.append(
            SimStep(
                t_s=t,
                elevation_deg=float(profile.elevation_deg[i]),
                slant_range_m=distance,
                sigma_p_rad=sigma,
                theta_commanded_rad=theta_cmd,
                theta_actual_rad=theta_act,
                pointing_loss_db=lp_db,
                margin_db=margin,
                rate_bps=rate,
            )
        )
        lag_abs.append(abs(theta_cmd - theta_act))
        if margin >= policy.margin_floor_db:
            ticks_at_floor += 1
            total_bits += rate * geometry.dt_s

    summary = {
        "ticks": len(steps),
        "dt_s": geometry.dt_s,
        "duration_s": float(profile.t_s[-1] - profile.t_s[0]),
        "min_range_m": float(np.min(profile.slant_range_m)),
        "max_range_m": float(np.max(profile.slant_range_m)),
        "total_bits": total_bits,
        "fraction_at_margin_floor": ticks_at_floor / len(steps),
        "mean_command_lag_rad": float(np.mean(lag_abs)),
        "max_command_lag_rad": float(np.max(lag_abs)),
        "seed": seed,
    }
    return PassResult(steps=tuple(steps), summary=summary)


def steps_to_csv(steps: Sequence[SimStep]) -> str:
    """Render SimSteps as CSV with full-precision floats (repr round-trip)."""
    lines = [",".join(SimStep.FIELDS)]
    for s in steps:
        lines.append(",".join(repr(getattr(s, f)) for f in SimStep.FIELDS))
    return "\n".join(lines) + "\n"


def write_steps_csv(steps: Sequence[SimStep], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(steps_to_csv(steps))
