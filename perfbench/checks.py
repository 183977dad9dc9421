"""Independent checks of the program's outputs.

Every expected value here is recomputed from the paper's closed forms and
anchors (see ``inputs``), with numpy and scipy only: no beamdiv code, and no
stored copy of an earlier output.  Each check returns a list of failure
messages, each starting with the check's name; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import j0

from inputs import (
    ANCHOR_DISTANCE_M,
    ANCHOR_MARGIN_DB,
    ANCHOR_RATE_BPS,
    CHROMATIC_HIGH_RAD,
    CHROMATIC_LOW_RAD,
    CHROMATIC_NOISE_RAD,
    CHROMATIC_WAVELENGTHS_M,
    COLLIMATED_RAD,
    DIVERGING_MAX_RAD,
    CONVERGING_MAX_RAD,
    EARTH_RADIUS_M,
    FULL_TRAVERSE_S,
    FWHM_PER_FULL_1E2,
    MAX_TRAVEL_M,
    POSITION_NOISE_RAD,
    PROFILER_DISTANCES_M,
    PROFILER_NOISE_M,
    THERMAL_ANCHORS_RAD,
    THERMAL_COLD_C,
    THERMAL_COLD_OUT_RAD,
    THERMAL_HOT_C,
    THERMAL_HOT_OUT_RAD,
    THERMAL_NOISE_RAD,
    THERMAL_REF_C,
    pass_ticks,
    thermal_truth,
)

CSV_FIELDS = (
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

# theta* / sigma for each divergence policy.
POLICY_FACTOR = {
    ("exact_opt", "quadratic"): math.sqrt(8.0 * math.log(10.0)),
    ("exact_opt", "linear"): 4.0 * math.sqrt(math.log(10.0)),
    ("rule_5_sigma", "quadratic"): 5.0,
    ("rule_5_sigma", "linear"): 5.0,
}

DIVERGING_SLOPE = (DIVERGING_MAX_RAD - COLLIMATED_RAD) / MAX_TRAVEL_M
LENS_SPEED_M_PER_S = 2.0 * MAX_TRAVEL_M / FULL_TRAVERSE_S
LENS_QUANTUM_M = 1e-6           # one motor step; positions in motion sit on this grid
AIRY_FWHM_PER_LAMBDA_OVER_D = 1.0289939   # uniformly lit circular aperture
NOISE_SIGMAS = 6.0              # calibration recovery bound, in standard errors


@dataclass(frozen=True)
class PassSpec:
    """What one pass was asked to do; the checks derive every row from it."""

    altitude_m: float
    max_range_m: float
    dt_s: float
    temperature_c: float
    sigma: np.ndarray
    max_elevation_deg: float = 90.0
    strategy: str = "exact_opt"
    convention: str = "quadratic"
    fixed_rad: Optional[float] = None
    ladder: Optional[tuple[float, ...]] = None
    floor_db: float = ANCHOR_MARGIN_DB


def parse_pass_csv(text: str) -> dict[str, np.ndarray]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_FIELDS:
        raise ValueError("pass CSV header does not match the documented columns")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    data = data.reshape(-1, len(CSV_FIELDS))
    return {name: data[:, j] for j, name in enumerate(CSV_FIELDS)}


def _close(a, b, rel: float, abs_: float = 0.0) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= abs_ + rel * np.abs(b)


def _fail(name: str, ok: np.ndarray, detail: str) -> list[str]:
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if bad.size == 0:
        return []
    return [f"{name}: {bad.size} row(s) fail, first at {int(bad[0])}: {detail}"]


def thermal_line(temperature_c: float) -> tuple[float, float]:
    """(slope, offset) of the achieved divergence as a linear map of the setting."""
    b = thermal_truth(0.0, temperature_c)
    return (thermal_truth(1e-3, temperature_c) - b) / 1e-3, b


def check_pass(rows: dict[str, np.ndarray], summary: dict, spec: PassSpec) -> list[str]:
    """All row-level and summary checks for one simulated pass."""
    n = pass_ticks(spec.altitude_m, spec.max_range_m, spec.dt_s, spec.max_elevation_deg)
    if len(rows["t_s"]) != n:
        return [f"ticks: {len(rows['t_s'])} rows, expected {n}"]
    out: list[str] = []
    sigma = rows["sigma_p_rad"]
    out += _fail("jitter", sigma == spec.sigma, "sigma column differs from the input schedule")

    # Geometry: slant range from elevation, endpoints at the clip range.
    re, r = EARTH_RADIUS_M, EARTH_RADIUS_M + spec.altitude_m
    el = np.radians(rows["elevation_deg"])
    d = rows["slant_range_m"]
    out += _fail("geometry", _close(d, np.sqrt(r**2 - (re * np.cos(el)) ** 2) - re * np.sin(el), 1e-9),
                 "slant range inconsistent with elevation")
    out += _fail("geometry", _close(d[[0, -1]], spec.max_range_m, 1e-9), "pass does not start/end at the clip range")
    out += _fail("geometry", _close(rows["t_s"], -rows["t_s"][::-1], 0.0, 1e-9 * spec.dt_s), "time grid not symmetric")
    out += _fail("geometry", _close(np.max(rows["elevation_deg"]), spec.max_elevation_deg, 1e-9),
                 "peak elevation differs from the requested one")

    # Policy: commanded divergence is the clamped policy angle.
    if spec.strategy == "fixed":
        raw = np.full(n, spec.fixed_rad)
    else:
        k = POLICY_FACTOR[(spec.strategy, spec.convention)]
        raw = np.where(sigma > 0.0, k * sigma, COLLIMATED_RAD)
    expect_cmd = np.clip(raw, COLLIMATED_RAD, DIVERGING_MAX_RAD)
    cmd = rows["theta_commanded_rad"]
    out += _fail("policy", _close(cmd, expect_cmd, 1e-12), "commanded divergence != clamp(k sigma)")

    theta = rows["theta_actual_rad"]
    out += _fail("pointing", _close(rows["pointing_loss_db"], -20.0 * (2.0 * sigma / theta) ** 2, 1e-12, 1e-300),
                 "pointing loss != -20 (2 sigma / theta)^2")

    # Lens kinematics, through the paper's thermal anchors at the pass temperature.
    a, b = thermal_line(spec.temperature_c)
    x_act = ((theta - b) / a - COLLIMATED_RAD) / DIVERGING_SLOPE
    x_tgt = (cmd - COLLIMATED_RAD) / DIVERGING_SLOPE
    x_prev = np.concatenate([[0.0], x_act[:-1]])
    travel = LENS_SPEED_M_PER_S * spec.dt_s
    need = x_tgt - x_prev
    moved = x_act - x_prev
    out += _fail("lens_speed", np.abs(moved) <= travel + LENS_QUANTUM_M + 1e-12,
                 "divergence changed faster than the lens can move")
    arrived = np.abs(need) <= travel * (1.0 - 1e-6)
    expect_arrived = a * cmd + b
    out += _fail("thermal", ~arrived | _close(theta, expect_arrived, 1e-9),
                 "arrived lens output differs from the thermal anchors")
    slewing = np.abs(need) > travel * (1.0 + 1e-6)
    out += _fail("lens_speed", ~slewing | ((np.sign(moved) == np.sign(need)) & (np.abs(moved) >= travel - LENS_QUANTUM_M)),
                 "slewing lens did not move at full speed toward its target")

    # Link: the calibrated quadratic-path budget in closed form.
    lp = rows["pointing_loss_db"]
    r_cont = (ANCHOR_RATE_BPS * (ANCHOR_DISTANCE_M / d) ** 2 * (COLLIMATED_RAD / theta) ** 2
              * 10.0 ** (lp / 10.0) * 10.0 ** ((ANCHOR_MARGIN_DB - spec.floor_db) / 10.0))
    rate, margin = rows["rate_bps"], rows["margin_db"]
    if spec.ladder is None:
        out += _fail("rate", _close(rate, r_cont, 1e-9), "rate != closed-form link rate")
        out += _fail("margin", margin == spec.floor_db, "margin != floor on the continuous path")
    else:
        rungs = np.array(sorted(spec.ladder))
        fits = rungs[None, :] <= r_cont[:, None] * (1.0 + 1e-9)
        best = np.where(fits, rungs[None, :], 0.0).max(axis=1)
        out += _fail("ladder", rate == best, "rate is not the highest ladder rung the link supports, nor 0")
        live = rate > 0.0
        expect_margin = spec.floor_db + 10.0 * np.log10(np.where(live, r_cont / np.where(live, rate, 1.0), 1.0))
        out += _fail("margin", np.where(live, _close(margin, expect_margin, 1e-9, 1e-9), margin == -np.inf),
                     "ladder margin != floor + 10 log10(r_cont / rung)")

    # Summary recomputed from the rows.
    if summary.get("ticks") != n:
        out.append(f"summary: ticks {summary.get('ticks')} != {n} rows")
    at_floor = margin >= spec.floor_db
    total = float(np.sum(rate[at_floor] * spec.dt_s))
    if not math.isclose(summary.get("total_bits", math.nan), total, rel_tol=1e-12, abs_tol=1e-3):
        out.append(f"summary: total_bits {summary.get('total_bits')} != {total} from rows")
    return out


# ---------------------------------------------------------------- design_bench

def gaussian_fwhm(beam_diameter_m: float, wavelength_m: float) -> float:
    return 4.0 * wavelength_m / (math.pi * beam_diameter_m) * FWHM_PER_FULL_1E2


def check_fwhm_grid(ratios: np.ndarray, wavelengths: np.ndarray, fwhm: np.ndarray, aperture_m: float) -> list[str]:
    """``fwhm[i, j]`` is the solve at ``ratios[i]`` (aperture / beam diameter), ``wavelengths[j]``."""
    out: list[str] = []
    norm = fwhm * aperture_m / wavelengths[None, :]
    out += _fail("fwhm_airy", norm >= AIRY_FWHM_PER_LAMBDA_OVER_D, "FWHM below the Airy limit 1.029 lambda/D")
    out += _fail("fwhm_monotone", (np.diff(norm, axis=0) > 0.0).all(axis=1),
                 "FWHM not increasing with the truncation ratio")
    out += _fail("fwhm_scaling", _close(norm, norm[:, :1], 1e-8).all(axis=1),
                 "FWHM not proportional to the wavelength")
    for i, ratio in enumerate(ratios):
        if ratio >= 3.0:
            gauss = np.array([gaussian_fwhm(aperture_m / ratio, w) for w in wavelengths])
            out += _fail("fwhm_gaussian", _close(fwhm[i], gauss, 1e-3),
                         f"FWHM at a/w={ratio:.3f} not within 1e-3 of the Gaussian closed form")
    return out


def farfield_reference(ratio: float, wavelength_m: float, aperture_m: float, theta: float) -> float:
    """Normalized intensity by adaptive quadrature, with the closed-form on-axis amplitude."""
    a = 0.5 * aperture_m
    w = 0.5 * aperture_m / ratio
    k = 2.0 * math.pi / wavelength_m
    from scipy.integrate import quad  # imported here: set-up timing should not pay for it

    u, _ = quad(lambda r: math.exp(-(r / w) ** 2) * j0(k * r * theta) * r, 0.0, a,
                epsabs=1e-16, epsrel=1e-12, limit=200)
    u0 = 0.5 * w**2 * (1.0 - math.exp(-((a / w) ** 2)))
    return (u / u0) ** 2


def check_profile(angles: np.ndarray, profile: np.ndarray, ratio: float, wavelength_m: float,
                  aperture_m: float, probes: int = 6) -> list[str]:
    out: list[str] = []
    if profile.shape != angles.shape:
        return [f"profile: {profile.shape} values for {angles.shape} angles"]
    out += _fail("profile_axis", _close(profile[:1], 1.0, 0.0, 1e-12), "intensity on axis is not 1")
    out += _fail("profile_bounds", (profile <= 1.0 + 1e-12) & (profile >= 0.0), "intensity outside [0, 1]")
    idx = np.linspace(0, angles.size - 1, probes).astype(int)
    ref = np.array([farfield_reference(ratio, wavelength_m, aperture_m, float(angles[i])) for i in idx])
    out += _fail("profile_quadrature", _close(profile[idx], ref, 0.0, 1e-7),
                 "intensity differs from an independent quadrature")
    return out


def check_optimizer(sigmas: np.ndarray, convention: str, exact: np.ndarray, swept: np.ndarray) -> list[str]:
    k = POLICY_FACTOR[("exact_opt", convention)]
    out = _fail("optimizer_closed_form", _close(exact, k * sigmas, 1e-12), "optimum != closed form k sigma")
    out += _fail("optimizer_sweep", _close(swept, k * sigmas, 1e-6), "sweep optimum disagrees with the closed form")
    return out


def _ols_errors(x: np.ndarray, noise: float) -> tuple[float, float]:
    """Standard errors of slope and intercept for an OLS line through ``x``."""
    sxx = float(np.sum((x - x.mean()) ** 2))
    return noise / math.sqrt(sxx), noise * math.sqrt(1.0 / x.size + x.mean() ** 2 / sxx)


def check_calibration(table_json: str, campaign) -> list[str]:
    """Fits recover the generating truth within the noise bound; the R^2 gate passes."""
    try:
        table = json.loads(table_json)
    except json.JSONDecodeError as exc:
        return [f"calibration: output is not JSON ({exc})"]
    out: list[str] = []

    def near(name: str, got, truth: float, bound: float) -> None:
        if not (isinstance(got, (int, float)) and abs(got - truth) <= bound):
            out.append(f"calibration_{name}: {got} not within {bound:.3g} of {truth}")

    pos = table.get("position") or {}
    if pos.get("passed") is not True:
        out.append("calibration_gate: position map failed the R^2 gate")
    for side in ("diverging_fit", "converging_fit"):
        if not (pos.get(side, {}).get("r_squared", 0.0) >= 0.9999):
            out.append(f"calibration_gate: {side} R^2 below 0.9999")
    x = campaign.position_x
    s_div, i_div = _ols_errors(x[x >= 0.0], POSITION_NOISE_RAD)
    s_conv, i_conv = _ols_errors(-x[x <= 0.0], POSITION_NOISE_RAD)
    near("diverging_slope", pos.get("diverging_slope_rad_per_m"),
         (DIVERGING_MAX_RAD - COLLIMATED_RAD) / MAX_TRAVEL_M, NOISE_SIGMAS * s_div)
    near("converging_slope", pos.get("converging_slope_rad_per_m"),
         (CONVERGING_MAX_RAD - COLLIMATED_RAD) / MAX_TRAVEL_M, NOISE_SIGMAS * s_conv)
    near("collimated", pos.get("collimated_divergence_rad"), COLLIMATED_RAD, NOISE_SIGMAS * max(i_div, i_conv))
    near("max_travel", pos.get("max_travel_m"), MAX_TRAVEL_M, 0.0)

    prof = table.get("provenance", {}).get("profiler", {})
    dist = np.array(PROFILER_DISTANCES_M)
    mean_noise = PROFILER_NOISE_M / math.sqrt(12.0 * campaign.profiler_replicates)
    near("profiler_divergence", prof.get("divergence_full_1e2_rad"), COLLIMATED_RAD / FWHM_PER_FULL_1E2,
         NOISE_SIGMAS * _ols_errors(dist, mean_noise)[0])
    near("profiler_rows", prof.get("rows"), dist.size * campaign.profiler_replicates, 0.0)

    th = table.get("thermal") or {}
    for side, t_end, truth in (("cold", THERMAL_COLD_C, THERMAL_COLD_OUT_RAD), ("hot", THERMAL_HOT_C, THERMAL_HOT_OUT_RAD)):
        dx = np.array([abs(t - THERMAL_REF_C) for t in campaign.thermal_temps
                       if (t < THERMAL_REF_C if side == "cold" else t > THERMAL_REF_C)])
        slope_err = THERMAL_NOISE_RAD / math.sqrt(campaign.thermal_replicates * float(np.sum(dx**2)))
        got = th.get(f"{side}_outputs_rad", [None, None])
        for j in range(2):
            near(f"thermal_{side}{j}", got[j], truth[j], NOISE_SIGMAS * slope_err * abs(t_end - THERMAL_REF_C))
    near("thermal_anchors", (th.get("anchor_settings_rad") or [None])[0], THERMAL_ANCHORS_RAD[0], 0.0)

    ch = table.get("chromatic") or {}
    bound = NOISE_SIGMAS * CHROMATIC_NOISE_RAD * math.sqrt(2.0 / campaign.chromatic_replicates)
    near("chromatic_reference", ch.get("reference_wavelength_m"), CHROMATIC_WAVELENGTHS_M[1], 0.0)
    for key, truth in (("offsets_low_rad", CHROMATIC_LOW_RAD), ("offsets_high_rad", CHROMATIC_HIGH_RAD)):
        got = ch.get(key) or [None] * 3
        for j in range(3):
            near(f"chromatic_{key}{j}", got[j], truth[j], bound)
    return out
