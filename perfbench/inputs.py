"""Seeded input generator for the three benchmark workloads.

Everything the program receives is made here, from the workload seed alone,
before any timing starts.  Draws are stratified (a fixed grid plus a small
seeded offset) so that the amount of work per round barely depends on the
seed: different seeds give different numbers, not different workloads.

Nothing here imports beamdiv.  The design numbers below are the paper's
anchors, restated so that the generator and the checks stay independent of
the code they measure.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

# Paper anchors (radians FWHM unless the name says otherwise).
COLLIMATED_RAD = 90e-6
DIVERGING_MAX_RAD = 6.14e-3
CONVERGING_MAX_RAD = 6.25e-3
MAX_TRAVEL_M = 3.5e-3
FULL_TRAVERSE_S = 0.9
THERMAL_REF_C, THERMAL_COLD_C, THERMAL_HOT_C = 20.0, -30.0, 60.0
THERMAL_ANCHORS_RAD = (90e-6, 5e-3)
THERMAL_COLD_OUT_RAD = (675e-6, 5e-3 / 1.2)   # 675 urad, 4.167 mrad
THERMAL_HOT_OUT_RAD = (423e-6, 5.5e-3)
CHROMATIC_WAVELENGTHS_M = (1.53e-6, 1.55e-6, 1.565e-6)
CHROMATIC_LOW_RAD = (10e-6, 0.0, 3e-6)
CHROMATIC_HIGH_RAD = (171e-6, 0.0, 130e-6)
DESIGN_WAVELENGTH_M = 1.55e-6
DESIGN_BEAM_1E2_M = 0.0178
FWHM_PER_FULL_1E2 = math.sqrt(math.log(2.0) / 2.0)

# Link design point: 10 Gbit/s with 5 dB margin at 600 km, 90 urad FWHM.
ANCHOR_DISTANCE_M = 600e3
ANCHOR_RATE_BPS = 10e9
ANCHOR_MARGIN_DB = 5.0

EARTH_RADIUS_M = 6371e3
MU_EARTH = 3.986004418e14

RATE_LADDER_BPS = (1e6, 1e7, 1e8, 1e9, 2.5e9, 5e9, 10e9, 20e9)
STRATEGIES = ("exact_opt", "rule_5_sigma", "fixed")

PASS_BATCH_CONFIGS = 96
PROFILER_DISTANCES_M = (3.0, 5.0, 10.0, 15.0)
PROFILER_NOISE_M = 800e-6          # uniform, one profiler pixel peak to peak
POSITION_NOISE_RAD = 1e-6          # normal sigma on each lens-map reading
THERMAL_NOISE_RAD = 1e-6
CHROMATIC_NOISE_RAD = 0.5e-6


def slant_range(altitude_m: float, elevation_deg: float) -> float:
    re, r = EARTH_RADIUS_M, EARTH_RADIUS_M + altitude_m
    el = math.radians(elevation_deg)
    return math.sqrt(r**2 - (re * math.cos(el)) ** 2) - re * math.sin(el)


def pass_ticks(altitude_m: float, max_range_m: float, dt_s: float, max_elevation_deg: float = 90.0) -> int:
    """Ticks of a circular-orbit pass clipped at a slant range (spherical Earth).

    The pass is the arc between the two points at ``max_range_m``, split
    into ticks symmetric about culmination at ``max_elevation_deg``.
    """
    re, r = EARTH_RADIUS_M, EARTH_RADIUS_M + altitude_m

    def cos_central(d: float) -> float:
        return (re**2 + r**2 - d**2) / (2.0 * re * r)

    # Spherical right triangle: cos(psi(t)) = cos(psi_peak) cos(omega t).
    cos_ratio = cos_central(max_range_m) / cos_central(slant_range(altitude_m, max_elevation_deg))
    t_end = math.acos(min(1.0, cos_ratio)) / math.sqrt(MU_EARTH / r**3)
    return 2 * max(1, round(t_end / dt_s)) + 1


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw inside each of ``n`` equal cells of [lo, hi], sorted."""
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges)


# ---------------------------------------------------------------- pass_fine

@dataclass(frozen=True)
class PassFineInputs:
    altitude_m: float
    max_range_m: float
    dt_s: float
    temperature_c: float
    jitter: np.ndarray


def pass_fine(seed: int) -> PassFineInputs:
    """A 600 km pass clipped at 1200 km at 10 ms ticks with a vibration episode.

    Baseline jitter near 25 urad, an episode of 300-500 urad over about a
    fifth of the pass, and 8 % per-tick noise: during the episode the
    commanded divergence moves faster than the lens, so some ticks slew.
    """
    rng = np.random.default_rng([seed, 1])
    altitude, max_range, dt = 600e3, 1200e3, 0.01
    n = pass_ticks(altitude, max_range, dt)
    base = rng.uniform(20e-6, 30e-6)
    sigma = np.full(n, base)
    start = int(n * rng.uniform(0.3, 0.45))
    length = int(n * rng.uniform(0.18, 0.22))
    sigma[start:start + length] = rng.uniform(300e-6, 500e-6)
    sigma *= 1.0 + 0.08 * rng.standard_normal(n)
    sigma = np.maximum(sigma, 0.0)
    side = rng.integers(2)
    temperature = rng.uniform(-30.0, 5.0) if side == 0 else rng.uniform(35.0, 60.0)
    return PassFineInputs(altitude, max_range, dt, float(temperature), sigma)


# ---------------------------------------------------------------- pass_batch

@dataclass(frozen=True)
class BatchConfig:
    path: str
    altitude_m: float
    max_elevation_deg: float
    max_range_m: float
    strategy: str
    convention: str
    sigma_rad: float
    margin_floor_db: float
    fixed_divergence_rad: float | None
    ladder: tuple[float, ...] | None
    ticks: int


def pass_batch(seed: int, workdir: str) -> list[BatchConfig]:
    """About a hundred INI configs at dt = 1 s, written to ``workdir``.

    Strategy, gain convention and ladder use cycle deterministically over
    the configs; altitude, range clip, sigma and margin floor are drawn
    stratified, so every seed runs the same mix at nearly the same cost.
    """
    rng = np.random.default_rng([seed, 2])
    n = PASS_BATCH_CONFIGS
    altitudes = rng.permutation(_stratified(rng, 600e3, 700e3, n))
    clip_fraction = rng.permutation(_stratified(rng, 0.0, 1.0, n))
    sigmas = rng.permutation(np.concatenate([[0.0], _stratified(rng, 1e-6, 250e-6, n - 1)]))
    floors = rng.permutation(_stratified(rng, 3.0, 6.0, n))
    fixed = rng.permutation(_stratified(rng, 90e-6, 2e-3, n))
    # Peak elevations stay below 90 deg: at exactly overhead, pass_profile's
    # arcsin can round past 1 and record a NaN elevation on some altitudes.
    peaks = rng.permutation(_stratified(rng, 60.0, 89.5, n))
    configs = []
    for i in range(n):
        altitude = float(altitudes[i])
        max_range = float(altitude + 300e3 + clip_fraction[i] * (1200e3 - altitude - 300e3))
        strategy = STRATEGIES[i % 3]
        convention = ("quadratic", "linear")[(i // 3) % 2]
        ladder = RATE_LADDER_BPS if (i // 6) % 2 == 0 else None
        cfg = BatchConfig(
            path=os.path.join(workdir, f"pass_{i:03d}.ini"),
            altitude_m=altitude,
            max_elevation_deg=float(peaks[i]),
            max_range_m=max_range,
            strategy=strategy,
            convention=convention,
            sigma_rad=float(sigmas[i]),
            margin_floor_db=float(floors[i]),
            fixed_divergence_rad=float(fixed[i]) if strategy == "fixed" else None,
            ladder=ladder,
            ticks=pass_ticks(altitude, max_range, 1.0, float(peaks[i])),
        )
        _write_ini(cfg)
        configs.append(cfg)
    return configs


def _write_ini(cfg: BatchConfig) -> None:
    policy = [
        f"strategy = {cfg.strategy}",
        f"margin_floor_db = {cfg.margin_floor_db!r}",
        f"convention = {cfg.convention}",
        f"sigma_p_rad = {cfg.sigma_rad!r}",
    ]
    if cfg.fixed_divergence_rad is not None:
        policy.append(f"fixed_divergence_rad = {cfg.fixed_divergence_rad!r}")
    if cfg.ladder is not None:
        policy.append("rate_ladder_bps = " + ", ".join(repr(r) for r in cfg.ladder))
    text = "\n".join([
        "[link]",
        "tx_power_w = 2.0",
        f"wavelength_m = {DESIGN_WAVELENGTH_M!r}",
        f"tx_divergence_rad = {COLLIMATED_RAD!r}",
        "tx_divergence_convention = fwhm",
        "rx_aperture_diameter_m = 0.35",
        "",
        "[anchor]",
        f"distance_m = {ANCHOR_DISTANCE_M!r}",
        f"rate_bps = {ANCHOR_RATE_BPS!r}",
        f"margin_db = {ANCHOR_MARGIN_DB!r}",
        "",
        "[geometry]",
        f"altitude_m = {cfg.altitude_m!r}",
        f"max_elevation_deg = {cfg.max_elevation_deg!r}",
        f"max_range_m = {cfg.max_range_m!r}",
        "dt_s = 1.0",
        "",
        "[policy]",
        *policy,
        "",
    ])
    with open(cfg.path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------- design_bench

@dataclass(frozen=True)
class Campaign:
    """One synthetic bench campaign: four CSVs and the truth behind them."""

    positions: str
    profiler: str
    thermal: str
    chromatic: str
    out: str
    position_x: np.ndarray
    profiler_replicates: int
    thermal_temps: tuple[float, ...]
    thermal_replicates: int
    chromatic_replicates: int


@dataclass(frozen=True)
class DesignInputs:
    aperture_m: float
    truncation_ratios: np.ndarray
    wavelengths_m: np.ndarray
    profile_cases: tuple[tuple[float, float], ...]   # (ratio, wavelength)
    profile_angles: int
    sigmas_rad: np.ndarray
    campaigns: tuple[Campaign, ...]


def design_bench(seed: int, workdir: str) -> DesignInputs:
    rng = np.random.default_rng([seed, 3])
    ratios = _stratified(rng, 0.6, 4.0, 8)
    wavelengths = _stratified(rng, 1.505e-6, 1.595e-6, 12)
    cases = tuple(
        (float(r), float(w))
        for r, w in zip(_stratified(rng, 0.8, 3.5, 3), rng.permutation(wavelengths)[:3])
    )
    sigmas = np.geomspace(0.3e-6, 3e-3, 150) * np.exp(rng.uniform(-0.05, 0.05, 150))
    campaigns = tuple(_campaign(rng, workdir, k) for k in range(8))
    return DesignInputs(
        aperture_m=0.02,
        truncation_ratios=ratios,
        wavelengths_m=wavelengths,
        profile_cases=cases,
        profile_angles=2000,
        sigmas_rad=sigmas,
        campaigns=campaigns,
    )


def thermal_truth(theta_set: float, temperature_c: float) -> float:
    """Achieved divergence from the paper's thermal anchors (linear per side)."""
    if temperature_c == THERMAL_REF_C:
        return theta_set
    if temperature_c < THERMAL_REF_C:
        frac = (THERMAL_REF_C - temperature_c) / (THERMAL_REF_C - THERMAL_COLD_C)
        outputs = THERMAL_COLD_OUT_RAD
    else:
        frac = (temperature_c - THERMAL_REF_C) / (THERMAL_HOT_C - THERMAL_REF_C)
        outputs = THERMAL_HOT_OUT_RAD
    a0, a1 = THERMAL_ANCHORS_RAD
    d0, d1 = outputs[0] - a0, outputs[1] - a1
    return theta_set + frac * (d0 + (theta_set - a0) / (a1 - a0) * (d1 - d0))


def lens_map_truth(x: np.ndarray) -> np.ndarray:
    slope_div = (DIVERGING_MAX_RAD - COLLIMATED_RAD) / MAX_TRAVEL_M
    slope_conv = (CONVERGING_MAX_RAD - COLLIMATED_RAD) / MAX_TRAVEL_M
    return COLLIMATED_RAD + np.where(x >= 0.0, slope_div * x, slope_conv * -x)


def _campaign(rng: np.random.Generator, workdir: str, k: int) -> Campaign:
    def path(name: str) -> str:
        return os.path.join(workdir, f"campaign{k}_{name}")

    # Lens-map sweep over the full stroke, endpoints included.
    x = np.linspace(-MAX_TRAVEL_M, MAX_TRAVEL_M, 57)
    theta = lens_map_truth(x) + POSITION_NOISE_RAD * rng.standard_normal(x.size)
    _write_csv(path("positions.csv"), ["position_m", "divergence_rad"], zip(x, theta))

    # Profiler lane: 90 urad FWHM beam, quoted as its full 1/e^2 angle.
    reps = 150
    slope = COLLIMATED_RAD / FWHM_PER_FULL_1E2
    rows = []
    for dist in PROFILER_DISTANCES_M:
        noise = rng.uniform(-0.5, 0.5, reps) * PROFILER_NOISE_M
        rows += [(dist, DESIGN_BEAM_1E2_M + slope * dist + n, i) for i, n in enumerate(noise)]
    _write_csv(path("profiler.csv"), ["distance_m", "spot_diameter_m", "replicate"], rows)

    # Thermal chamber: both anchor settings across the qualified range.
    temps = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    t_reps = 12
    rows = [
        (s, t, thermal_truth(s, t) + THERMAL_NOISE_RAD * rng.standard_normal())
        for s in THERMAL_ANCHORS_RAD for t in temps for _ in range(t_reps)
    ]
    _write_csv(path("thermal.csv"), ["theta_set_rad", "temp_c", "theta_meas_rad"], rows)

    # Chromatic sweep at the three sampled wavelengths.
    c_reps = 40
    rows = [
        (s, w, s + off[j] + CHROMATIC_NOISE_RAD * rng.standard_normal())
        for s, off in zip(THERMAL_ANCHORS_RAD, (CHROMATIC_LOW_RAD, CHROMATIC_HIGH_RAD))
        for j, w in enumerate(CHROMATIC_WAVELENGTHS_M) for _ in range(c_reps)
    ]
    _write_csv(path("chromatic.csv"), ["theta_set_rad", "wavelength_m", "theta_meas_rad"], rows)

    return Campaign(
        positions=path("positions.csv"),
        profiler=path("profiler.csv"),
        thermal=path("thermal.csv"),
        chromatic=path("chromatic.csv"),
        out=path("table.json"),
        position_x=x,
        profiler_replicates=reps,
        thermal_temps=temps,
        thermal_replicates=t_reps,
        chromatic_replicates=c_reps,
    )


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if not isinstance(v, int) else v for v in row])
