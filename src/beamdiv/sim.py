"""LEO pass geometry and the closed-loop adaptive-divergence simulation.

The pass model is a circular orbit over a spherical Earth: the satellite
sweeps a symmetric arc over the ground station, parametrized by the central
angle between the sub-satellite point and the station.  The station's
cross-track offset sets the peak elevation.  The pass can be clipped either
at a minimum elevation or at a maximum slant range; range clipping puts the
first and last ticks exactly at the range limit, which is convenient when a
design is specified by its nearest/farthest operating distances.

``run_pass`` evaluates the jitter schedule once, then closes the loop each
tick: pick a divergence with the configured policy, command the actuator
emulator, step its motion, then evaluate pointing loss, link margin, and the
supported data rate with the achieved divergence.  The pass is one
structured array, ``STEP_DTYPE``, with a column per CSV field.  Everything is
deterministic for fixed inputs.
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
        if not (math.isfinite(self.altitude_m) and self.altitude_m > 0.0):
            raise ValueError(f"altitude must be finite and > 0, got {self.altitude_m}")
        if not (math.isfinite(self.earth_radius_m) and self.earth_radius_m > 0.0):
            raise ValueError(f"earth_radius_m must be finite and > 0, got {self.earth_radius_m}")
        if not (0.0 < self.min_elevation_deg < 90.0):
            raise ValueError("min_elevation_deg must be in (0, 90)")
        if not (0.0 < self.max_elevation_deg <= 90.0):
            raise ValueError("max_elevation_deg must be in (0, 90]")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ValueError(f"dt_s must be finite and > 0, got {self.dt_s}")
        clip = self.max_range_m
        if clip is not None and not (math.isfinite(clip) and clip > self.altitude_m):
            raise ValueError(f"max_range_m must be finite and exceed the altitude, got {clip}")

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
        if not (math.isfinite(self.margin_floor_db) and self.margin_floor_db >= 0.0):
            raise ValueError(f"margin_floor_db must be finite and >= 0, got {self.margin_floor_db}")
        if self.strategy is Strategy.FIXED and self.fixed_divergence_rad is None:
            raise ValueError("FIXED strategy needs fixed_divergence_rad")
        fixed = self.fixed_divergence_rad
        if fixed is not None and not (math.isfinite(fixed) and fixed > 0.0):
            raise ValueError(f"fixed_divergence_rad must be finite and > 0, got {fixed}")
        if self.rate_ladder_bps is not None:
            if not self.rate_ladder_bps or not all(math.isfinite(r) and r > 0 for r in self.rate_ladder_bps):
                raise ValueError(f"rate ladder entries must be finite and > 0, got {self.rate_ladder_bps}")


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


# One float64 field per CSV column, in CSV order: ``steps["rate_bps"]`` is a
# column of a pass and ``steps[i]`` one tick.
STEP_DTYPE = np.dtype(
    [
        (name, np.float64)
        for name in ("t_s", "elevation_deg", "slant_range_m", "sigma_p_rad", "theta_commanded_rad",
                     "theta_actual_rad", "pointing_loss_db", "margin_db", "rate_bps")
    ]
)


@dataclass(frozen=True)
class PassResult:
    """One simulated pass: ``steps`` is a ``STEP_DTYPE`` array with one row per tick."""

    steps: np.ndarray
    summary: dict = field(default_factory=dict)


def run_pass(
    geometry: PassGeometry,
    policy: ControlPolicy,
    config: LinkConfig,
    jitter: JitterSchedule = 0.0,
    seed: int = 0,
    state: Optional[ActuatorState] = None,
) -> PassResult:
    """Simulate one pass of the adaptive-divergence downlink.

    The jitter schedule (a scalar, one value per tick, or a callable of the
    tick time) is evaluated once and must be finite and >= 0 everywhere.
    Each tick: choose a divergence per the policy, command the emulator and
    advance its motion by ``dt``, then evaluate the budget with the
    *achieved* divergence and pointing loss and record the data rate that
    holds the margin floor.

    The loop is noise-free, so the result is deterministic for fixed inputs.
    ``seed`` draws nothing; it is recorded in the summary as the run's seed.
    """
    if config.sensitivity is None:
        raise ValueError("link config has no sensitivity model; calibrate one first")
    st = state if state is not None else ActuatorState()
    profile = pass_profile(geometry)
    n = len(profile)
    steps = np.empty(n, STEP_DTYPE)
    steps["t_s"] = profile.t_s
    steps["elevation_deg"] = profile.elevation_deg
    steps["slant_range_m"] = profile.slant_range_m
    values = [jitter(t) for t in profile.t_s.tolist()] if callable(jitter) else np.asarray(jitter, dtype=float)
    if np.ndim(values) and len(values) != n:
        raise ValueError(f"jitter schedule has {len(values)} entries for {n} ticks")
    sigma = steps["sigma_p_rad"]
    sigma[:] = values
    bad = np.flatnonzero(~(np.isfinite(sigma) & (sigma >= 0.0)))
    if bad.size:
        t, value = profile.t_s[bad[0]], sigma[bad[0]]
        raise ValueError(f"jitter schedule gives sigma = {value} rad at t = {t} s; need finite and >= 0")

    computed = steps[list(STEP_DTYPE.names[4:])]  # view of the fields the loop fills
    for i, (distance, sig) in enumerate(zip(profile.slant_range_m.tolist(), sigma.tolist())):
        theta_cmd = adaptive_policy(policy, sig, st)
        actuator.command_divergence(st, theta_cmd)
        actuator.step(st, geometry.dt_s)
        theta_act = actuator.actual_divergence(st).value
        lp_db = pointing_loss_db(sig, theta_act)  # <= 0, FWHM convention
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
        computed[i] = (theta_cmd, theta_act, lp_db, margin, rate)

    at_floor = steps["margin_db"] >= policy.margin_floor_db
    lag = np.abs(steps["theta_commanded_rad"] - steps["theta_actual_rad"])
    # Summed in tick order, as a running total would: np.sum's pairwise order
    # changes the last digit.
    bits = np.add.accumulate(np.where(at_floor, steps["rate_bps"] * geometry.dt_s, 0.0))
    summary = {
        "ticks": n,
        "dt_s": geometry.dt_s,
        "duration_s": float(profile.t_s[-1] - profile.t_s[0]),
        "min_range_m": float(np.min(profile.slant_range_m)),
        "max_range_m": float(np.max(profile.slant_range_m)),
        "total_bits": float(bits[-1]),
        "fraction_at_margin_floor": int(np.count_nonzero(at_floor)) / n,
        "mean_command_lag_rad": float(np.mean(lag)),
        "max_command_lag_rad": float(np.max(lag)),
        "seed": seed,
    }
    return PassResult(steps=steps, summary=summary)


def steps_to_csv(steps: np.ndarray) -> str:
    """Render a ``STEP_DTYPE`` array as CSV with full-precision floats (repr round-trip)."""
    lines = [",".join(steps.dtype.names)]
    lines.extend(",".join(map(repr, row)) for row in steps.tolist())
    return "\n".join(lines) + "\n"


def write_steps_csv(steps: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(steps_to_csv(steps))
