"""Data reduction for the divergence-control validation campaign.

These routines mirror how the bench measurements are turned into device
models: multi-distance beam profiling fits a divergence, position sweeps fit
the lens map, repeated collimation measurements gate the setting accuracy,
the fiber NA mismatch diagnostic explains a too-small collimated beam, and
thermal/chromatic sweeps produce the lookup-table models.

Fits are plain unweighted least squares.  Replicates at the same stimulus are
averaged first; quality gates report pass/fail but never silently reject
data.  The profiler works in 1/e^2 spot diameters; any FWHM conversion
happens explicitly at the boundary via :mod:`beamdiv.beam_optics`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .actuator import ChromaticModel, DivergenceMap, ThermalModel
from .beam_optics import DivergenceAngle, GaussianBeam
from .config import ConfigError

__all__ = [
    "PROFILER_RESOLUTION_M",
    "DESIGN_EFFECTIVE_FOCAL_LENGTH_M",
    "SETTING_ACCURACY_GATE",
    "R_SQUARED_GATE",
    "ProfilerSample",
    "RegressionResult",
    "PositionMapFit",
    "MinDivergenceResult",
    "NaMismatchResult",
    "ThermalFit",
    "ChromaticFit",
    "CalibrationTable",
    "fit_divergence",
    "build_position_map",
    "estimate_min_divergence",
    "na_mismatch_effect",
    "build_thermal_model",
    "build_chromatic_model",
    "simulate_profiler_samples",
    "sample_position_map",
    "read_profiler_csv",
    "read_position_csv",
    "read_thermal_csv",
    "read_chromatic_csv",
]

# Beam profiler pixel resolution; also the quantization floor used when
# synthesizing profiler data.
PROFILER_RESOLUTION_M = 800e-6

# Effective focal length of the collimation stage, backed out once from the
# measured NA-mismatch response (a 2.62 deg NA error produced a 3.5 mm
# collimated-beam size change).
DESIGN_EFFECTIVE_FOCAL_LENGTH_M = 3.5e-3 / math.radians(2.62)

# Acceptance gates from the device requirement sheet.
SETTING_ACCURACY_GATE = 0.01   # +-1 % divergence setting accuracy
R_SQUARED_GATE = 0.9999        # linearity of the position map


@dataclass(frozen=True)
class ProfilerSample:
    """One beam-profiler reading: 1/e^2 spot diameter at a distance."""

    distance_m: float
    spot_diameter_m: float
    replicate: Optional[int] = None

    def __post_init__(self) -> None:
        if self.distance_m <= 0.0:
            raise ValueError(f"distance must be > 0, got {self.distance_m}")
        if self.spot_diameter_m < PROFILER_RESOLUTION_M:
            raise ValueError(
                f"spot diameter {self.spot_diameter_m} m below profiler resolution "
                f"{PROFILER_RESOLUTION_M} m"
            )


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary-least-squares line fit with its goodness of fit."""

    slope: float
    intercept: float
    r_squared: float
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "residual_rms": float(np.sqrt(np.mean(np.square(self.residuals)))) if self.residuals else 0.0,
        }


def _ols(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = design @ coef
    resid = y - pred
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionResult(slope, intercept, r2, tuple(float(r) for r in resid))


def fit_divergence(samples: Sequence[ProfilerSample]) -> RegressionResult:
    """Fit spot diameter versus distance; the slope is the divergence.

    Replicates at the same distance are averaged before the fit.  The slope
    comes out in the profiler's convention (1/e^2 full angle, radians); the
    intercept is the beam diameter at the device.  Needs at least three
    distinct distances.  Quality is reported, never enforced here.
    """
    if not samples:
        raise ValueError("no profiler samples")
    by_distance: dict[float, list[float]] = {}
    for s in samples:
        by_distance.setdefault(s.distance_m, []).append(s.spot_diameter_m)
    if len(by_distance) < 3:
        raise ValueError(f"need >= 3 distinct distances, got {len(by_distance)}")
    dist = np.array(sorted(by_distance))
    spot = np.array([np.mean(by_distance[d]) for d in dist])
    return _ols(dist, spot)


@dataclass(frozen=True)
class PositionMapFit:
    """Per-branch linear fits of the lens map plus the linearity gate."""

    map: DivergenceMap
    diverging: RegressionResult
    converging: RegressionResult
    r_squared_gate: float = R_SQUARED_GATE

    @property
    def passed(self) -> bool:
        return (
            self.diverging.r_squared >= self.r_squared_gate
            and self.converging.r_squared >= self.r_squared_gate
        )

    def to_dict(self) -> dict:
        return {
            "collimated_divergence_rad": self.map.collimated_divergence,
            "diverging_slope_rad_per_m": self.map.diverging_slope,
            "converging_slope_rad_per_m": self.map.converging_slope,
            "max_travel_m": self.map.max_travel,
            "diverging_fit": self.diverging.to_dict(),
            "converging_fit": self.converging.to_dict(),
            "r_squared_gate": self.r_squared_gate,
            "passed": self.passed,
        }


def build_position_map(pairs: Iterable[tuple[float, float]]) -> PositionMapFit:
    """Fit the position-to-divergence map from (position, divergence) pairs.

    Positions are signed meters (positive diverging), divergences FWHM
    radians.  Each branch is fit as divergence versus absolute travel; a
    position of exactly zero contributes the collimated point to both
    branches.  Requires at least two points per branch.
    """
    div_pts: list[tuple[float, float]] = []
    conv_pts: list[tuple[float, float]] = []
    max_abs = 0.0
    for x, theta in pairs:
        max_abs = max(max_abs, abs(x))
        if x >= 0.0:
            div_pts.append((x, theta))
        if x <= 0.0:
            conv_pts.append((-x, theta))
    if len(div_pts) < 2 or len(conv_pts) < 2:
        raise ValueError(
            f"need >= 2 points per branch, got {len(div_pts)} diverging / {len(conv_pts)} converging"
        )
    fit_div = _ols(np.array([p[0] for p in div_pts]), np.array([p[1] for p in div_pts]))
    fit_conv = _ols(np.array([p[0] for p in conv_pts]), np.array([p[1] for p in conv_pts]))
    dmap = DivergenceMap(
        collimated_divergence=0.5 * (fit_div.intercept + fit_conv.intercept),
        diverging_slope=fit_div.slope,
        converging_slope=fit_conv.slope,
        max_travel=max_abs,
    )
    return PositionMapFit(map=dmap, diverging=fit_div, converging=fit_conv)


@dataclass(frozen=True)
class MinDivergenceResult:
    """Averaged minimum-divergence measurement against the +-1 % gate."""

    mean_rad: float
    nominal_rad: float
    deviation_fraction: float
    gate_fraction: float = SETTING_ACCURACY_GATE

    @property
    def within_gate(self) -> bool:
        return self.deviation_fraction <= self.gate_fraction

    def to_dict(self) -> dict:
        return {
            "mean_rad": self.mean_rad,
            "nominal_rad": self.nominal_rad,
            "deviation_fraction": self.deviation_fraction,
            "gate_fraction": self.gate_fraction,
            "within_gate": self.within_gate,
        }


def estimate_min_divergence(
    measurements: Sequence[float],
    nominal_rad: float = 90e-6,
) -> MinDivergenceResult:
    """Average repeated collimated-divergence measurements and gate them.

    A marginal result (e.g. 1.04 % against the 1 % gate) is reported with
    both numbers; nothing is clipped or adjusted.
    """
    if len(measurements) < 2:
        raise ValueError("need >= 2 measurements to average")
    if nominal_rad <= 0.0:
        raise ValueError("nominal divergence must be > 0")
    mean = float(np.mean(measurements))
    deviation = abs(mean - nominal_rad) / nominal_rad
    return MinDivergenceResult(mean_rad=mean, nominal_rad=nominal_rad, deviation_fraction=deviation)


@dataclass(frozen=True)
class NaMismatchResult:
    beam_diameter_change_m: float
    new_beam_diameter_m: float
    new_fwhm_rad: float
    divergence_change_rad: float


def na_mismatch_effect(
    delta_na_deg: float,
    f_eff_m: float,
    nominal_beam: GaussianBeam,
    nominal_fwhm: Union[DivergenceAngle, float],
) -> NaMismatchResult:
    """Collimated-beam and divergence change from a fiber NA mismatch.

    A fiber emitting ``delta_na_deg`` narrower than designed produces a
    collimated beam smaller by ``f_eff * delta_theta`` (small-angle), which
    widens the minimum divergence by the inverse diameter ratio, so
    ``theta_new * D_new == theta_nominal * D_nominal``.
    """
    if f_eff_m <= 0.0:
        raise ValueError("effective focal length must be > 0")
    fwhm = nominal_fwhm.fwhm if isinstance(nominal_fwhm, DivergenceAngle) else float(nominal_fwhm)
    d_nom = nominal_beam.waist_diameter_1e2
    change = f_eff_m * math.radians(delta_na_deg)
    d_new = d_nom - change
    if d_new <= 0.0:
        raise ValueError(f"NA mismatch {delta_na_deg} deg drives the beam diameter non-positive")
    new_fwhm = fwhm * d_nom / d_new
    return NaMismatchResult(
        beam_diameter_change_m=change,
        new_beam_diameter_m=d_new,
        new_fwhm_rad=new_fwhm,
        divergence_change_rad=new_fwhm - fwhm,
    )


@dataclass(frozen=True)
class ThermalFit:
    """Fitted thermal model plus per-side, per-anchor slope diagnostics."""

    model: ThermalModel
    slopes: dict
    residual_rms: dict

    def to_dict(self) -> dict:
        return {
            "reference_temperature_c": self.model.reference_temperature_c,
            "cold_temperature_c": self.model.cold_temperature_c,
            "hot_temperature_c": self.model.hot_temperature_c,
            "anchor_settings_rad": list(self.model.anchor_settings),
            "cold_outputs_rad": list(self.model.cold_outputs),
            "hot_outputs_rad": list(self.model.hot_outputs),
            "slopes_rad_per_c": {k: v for k, v in self.slopes.items()},
            "residual_rms_rad": {k: v for k, v in self.residual_rms.items()},
        }


def build_thermal_model(
    observations: Iterable[tuple[float, float, float]],
    reference_temperature_c: float = 20.0,
) -> ThermalFit:
    """Fit the two-sided thermal deviation model from sweep data.

    ``observations`` are (theta_set, temp_c, theta_meas) rows taken at
    exactly two anchor settings.  Each side of the reference temperature is
    fit per anchor as deviation through the origin versus degrees away from
    reference (the deviation at reference is zero by definition).  Needs at
    least two temperatures per side per anchor.
    """
    rows = list(observations)
    settings = sorted({r[0] for r in rows})
    if len(settings) != 2:
        raise ValueError(f"need observations at exactly 2 anchor settings, got {len(settings)}")
    temps = [r[1] for r in rows]
    t_cold, t_hot = min(temps), max(temps)
    if not (t_cold < reference_temperature_c < t_hot):
        raise ValueError("observations must straddle the reference temperature")

    slopes: dict[str, float] = {}
    residual_rms: dict[str, float] = {}
    for side in ("cold", "hot"):
        for i, anchor in enumerate(settings):
            if side == "cold":
                sel = [(reference_temperature_c - t, m - s) for s, t, m in rows
                       if s == anchor and t < reference_temperature_c]
            else:
                sel = [(t - reference_temperature_c, m - s) for s, t, m in rows
                       if s == anchor and t > reference_temperature_c]
            if len({x for x, _ in sel}) < 2:
                raise ValueError(f"need >= 2 temperatures on the {side} side for anchor {anchor}")
            x = np.array([p[0] for p in sel])
            d = np.array([p[1] for p in sel])
            # Through-origin least squares: deviation vanishes at reference.
            slope = float(np.dot(x, d) / np.dot(x, x))
            key = f"{side}_anchor{i}"
            slopes[key] = slope
            residual_rms[key] = float(np.sqrt(np.mean((d - slope * x) ** 2)))

    span_cold = reference_temperature_c - t_cold
    span_hot = t_hot - reference_temperature_c
    model = ThermalModel(
        reference_temperature_c=reference_temperature_c,
        cold_temperature_c=t_cold,
        hot_temperature_c=t_hot,
        anchor_settings=(settings[0], settings[1]),
        cold_outputs=(
            settings[0] + slopes["cold_anchor0"] * span_cold,
            settings[1] + slopes["cold_anchor1"] * span_cold,
        ),
        hot_outputs=(
            settings[0] + slopes["hot_anchor0"] * span_hot,
            settings[1] + slopes["hot_anchor1"] * span_hot,
        ),
    )
    return ThermalFit(model=model, slopes=slopes, residual_rms=residual_rms)


@dataclass(frozen=True)
class ChromaticFit:
    """Fitted chromatic offsets with the raw per-wavelength means."""

    model: ChromaticModel
    raw_offsets: dict
    reference_wavelength_m: float

    def to_dict(self) -> dict:
        return {
            "wavelengths_m": list(self.model.wavelengths),
            "anchor_settings_rad": list(self.model.anchor_settings),
            "offsets_low_rad": list(self.model.offsets_low),
            "offsets_high_rad": list(self.model.offsets_high),
            "reference_wavelength_m": self.reference_wavelength_m,
            "raw_offsets_rad": {k: v for k, v in self.raw_offsets.items()},
        }


def build_chromatic_model(observations: Iterable[tuple[float, float, float]]) -> ChromaticFit:
    """Fit per-wavelength divergence offsets at the two anchor settings.

    ``observations`` are (theta_set, wavelength_m, theta_meas) rows sampled
    at exactly three wavelengths.  Offsets are re-referenced so the
    wavelength with the smallest combined offset carries exactly zero (the
    optimization wavelength); the shift is visible in ``raw_offsets``.
    """
    rows = list(observations)
    settings = sorted({r[0] for r in rows})
    wavelengths = sorted({r[1] for r in rows})
    if len(settings) != 2:
        raise ValueError(f"need observations at exactly 2 anchor settings, got {len(settings)}")
    if len(wavelengths) != 3:
        raise ValueError(f"need observations at exactly 3 wavelengths, got {len(wavelengths)}")

    raw: dict[str, float] = {}
    means = {}
    for s_i, s in enumerate(settings):
        for w in wavelengths:
            vals = [m - s for ss, ww, m in rows if ss == s and ww == w]
            if not vals:
                raise ValueError(f"no observation for setting {s} at wavelength {w}")
            means[(s_i, w)] = float(np.mean(vals))
            raw[f"anchor{s_i}_{w}"] = means[(s_i, w)]
    ref_wl = min(wavelengths, key=lambda w: abs(means[(0, w)]) + abs(means[(1, w)]))
    # Re-reference so the optimization wavelength carries an exact zero.
    offsets_low = tuple(
        0.0 if w == ref_wl else means[(0, w)] - means[(0, ref_wl)] for w in wavelengths
    )
    offsets_high = tuple(
        0.0 if w == ref_wl else means[(1, w)] - means[(1, ref_wl)] for w in wavelengths
    )
    model = ChromaticModel(
        wavelengths=(wavelengths[0], wavelengths[1], wavelengths[2]),
        anchor_settings=(settings[0], settings[1]),
        offsets_low=offsets_low,
        offsets_high=offsets_high,
    )
    return ChromaticFit(model=model, raw_offsets=raw, reference_wavelength_m=ref_wl)


@dataclass(frozen=True)
class CalibrationTable:
    """Bundle of fitted device models plus provenance, serializable to JSON."""

    position: Optional[PositionMapFit] = None
    thermal: Optional[ThermalFit] = None
    chromatic: Optional[ChromaticFit] = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "position": self.position.to_dict() if self.position else None,
            "thermal": self.thermal.to_dict() if self.thermal else None,
            "chromatic": self.chromatic.to_dict() if self.chromatic else None,
            "provenance": self.provenance,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def simulate_profiler_samples(
    divergence_full_1e2_rad: float,
    initial_diameter_m: float,
    distances_m: Sequence[float],
    replicates: int,
    rng: Union[int, np.random.Generator],
    resolution_m: float = PROFILER_RESOLUTION_M,
) -> list[ProfilerSample]:
    """Synthesize profiler readings of a beam cone for fixture data.

    The true spot grows linearly from the device aperture,
    ``spot = D0 + theta * L``; each reading adds uniform noise of one
    resolution element peak-to-peak (the profiler's quantization floor).
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    samples = []
    for L in distances_m:
        true = initial_diameter_m + divergence_full_1e2_rad * L
        noise = gen.uniform(-0.5 * resolution_m, 0.5 * resolution_m, replicates)
        for i, n in enumerate(noise):
            samples.append(ProfilerSample(distance_m=L, spot_diameter_m=true + float(n), replicate=i))
    return samples


def sample_position_map(dmap: DivergenceMap, points_per_branch: int = 8) -> list[tuple[float, float]]:
    """Noiseless (position, divergence) pairs covering both branches."""
    if points_per_branch < 2:
        raise ValueError("need >= 2 points per branch")
    xs = np.linspace(0.0, dmap.max_travel, points_per_branch)
    pairs = [(0.0, dmap.collimated_divergence)]
    for x in xs[1:]:
        pairs.append((float(x), dmap.collimated_divergence + dmap.diverging_slope * float(x)))
        pairs.append((-float(x), dmap.collimated_divergence + dmap.converging_slope * float(x)))
    return pairs


def _read_csv_columns(path, required: Sequence[str], optional: Sequence[str] = ()) -> list[dict]:
    """Numeric columns of a measurement CSV, one dict per row; input errors are ConfigErrors."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise ConfigError(f"missing column '{col}' in {path}")
        columns = (*required, *optional)
        rows = []
        for row in reader:
            out = {}
            for col in columns:
                cell = row.get(col)
                if cell in (None, "") and col in optional:
                    continue
                try:
                    out[col] = float(cell)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"non-numeric value {cell!r} in column '{col}' of {path}, line {reader.line_num}"
                    ) from None
            rows.append(out)
    if not rows:
        raise ConfigError(f"no data rows in {path}")
    return rows


def read_profiler_csv(path) -> list[ProfilerSample]:
    """Load profiler samples; columns distance_m, spot_diameter_m[, replicate]."""
    rows = _read_csv_columns(path, ["distance_m", "spot_diameter_m"], ["replicate"])
    return [
        ProfilerSample(
            distance_m=r["distance_m"],
            spot_diameter_m=r["spot_diameter_m"],
            replicate=int(r["replicate"]) if "replicate" in r else None,
        )
        for r in rows
    ]


def read_position_csv(path) -> list[tuple[float, float]]:
    """Load lens-map pairs; columns position_m, divergence_rad."""
    rows = _read_csv_columns(path, ["position_m", "divergence_rad"])
    return [(r["position_m"], r["divergence_rad"]) for r in rows]


def read_thermal_csv(path) -> list[tuple[float, float, float]]:
    """Load thermal sweep rows; columns theta_set_rad, temp_c, theta_meas_rad."""
    rows = _read_csv_columns(path, ["theta_set_rad", "temp_c", "theta_meas_rad"])
    return [(r["theta_set_rad"], r["temp_c"], r["theta_meas_rad"]) for r in rows]


def read_chromatic_csv(path) -> list[tuple[float, float, float]]:
    """Load chromatic sweep rows; columns theta_set_rad, wavelength_m, theta_meas_rad."""
    rows = _read_csv_columns(path, ["theta_set_rad", "wavelength_m", "theta_meas_rad"])
    return [(r["theta_set_rad"], r["wavelength_m"], r["theta_meas_rad"]) for r in rows]
