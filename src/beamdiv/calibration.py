"""Data reduction for the divergence-control validation campaign.

These routines mirror how the bench measurements are turned into device
models: multi-distance beam profiling fits a divergence, position sweeps fit
the lens map, repeated collimation measurements gate the setting accuracy,
the fiber NA mismatch diagnostic explains a too-small collimated beam, and
thermal/chromatic sweeps produce the lookup-table models.

Each measurement file is one record array from reader to fit, a float64
field per CSV column (``POSITION_DTYPE``, ``PROFILER_DTYPE``,
``THERMAL_DTYPE``, ``CHROMATIC_DTYPE``); the builders also take a list of
plain tuples in field order.  Fits are plain unweighted least squares.
Replicates at the same stimulus are averaged first; quality gates report
pass/fail but never silently reject data.  The profiler works in 1/e^2 spot
diameters; any FWHM conversion happens explicitly at the boundary via
:mod:`beamdiv.beam_optics`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from ._checks import finite, integer
from .actuator import ChromaticModel, DivergenceMap, ThermalModel
from .beam_optics import GaussianBeam
from .config import ConfigError

__all__ = [
    "PROFILER_RESOLUTION_M",
    "DESIGN_EFFECTIVE_FOCAL_LENGTH_M",
    "SETTING_ACCURACY_GATE",
    "R_SQUARED_GATE",
    "POSITION_DTYPE",
    "PROFILER_DTYPE",
    "THERMAL_DTYPE",
    "CHROMATIC_DTYPE",
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


def _record_dtype(*names: str) -> np.dtype:
    return np.dtype([(name, np.float64) for name in names])


# One float64 field per CSV column, in CSV order: ``samples["distance_m"]``
# is a column of a profiler file and ``samples[i]`` one reading.
POSITION_DTYPE = _record_dtype("position_m", "divergence_rad")
PROFILER_DTYPE = _record_dtype("distance_m", "spot_diameter_m")
THERMAL_DTYPE = _record_dtype("theta_set_rad", "temp_c", "theta_meas_rad")
CHROMATIC_DTYPE = _record_dtype("theta_set_rad", "wavelength_m", "theta_meas_rad")


def _records(rows, dtype: np.dtype) -> np.ndarray:
    """``rows`` as a 1-D ``dtype`` array of finite numbers: a record array, or a list of plain tuples in field order."""
    records = np.asarray(rows, dtype)
    if records.ndim != 1:
        # A list of lists would broadcast each number into every field.
        raise ValueError(f"need one record of {dtype.names} per row, got an array of shape {records.shape}")
    for name in dtype.names:
        finite(name, records[name])
    return records


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


def fit_divergence(samples) -> RegressionResult:
    """Fit spot diameter versus distance; the slope is the divergence.

    Replicates at the same distance are averaged before the fit.  The slope
    comes out in the profiler's convention (1/e^2 full angle, radians); the
    intercept is the beam diameter at the device.  Needs at least three
    distinct distances.  Quality is reported, never enforced here.
    """
    samples = _records(samples, PROFILER_DTYPE)
    distance = finite("distance_m", samples["distance_m"], gt=0)
    # The profiler cannot resolve a spot below its resolution.
    spot = finite("spot_diameter_m", samples["spot_diameter_m"], ge=PROFILER_RESOLUTION_M)
    if not samples.size:
        raise ValueError("no profiler samples")
    dist = np.unique(distance)
    if dist.size < 3:
        raise ValueError(f"need >= 3 distinct distances, got {dist.size}")
    return _ols(dist, np.array([np.mean(spot[distance == d]) for d in dist]))


@dataclass(frozen=True)
class PositionMapFit:
    """Per-branch linear fits of the lens map plus the linearity gate."""

    map: DivergenceMap
    diverging: RegressionResult
    converging: RegressionResult
    r_squared_gate: ClassVar[float] = R_SQUARED_GATE

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


def build_position_map(pairs) -> PositionMapFit:
    """Fit the position-to-divergence map from (position, divergence) pairs.

    Positions are signed meters (positive diverging), divergences FWHM
    radians.  Each branch is fit as divergence versus absolute travel; a
    position of exactly zero contributes the collimated point to both
    branches.  Requires at least two points per branch.
    """
    pairs = _records(pairs, POSITION_DTYPE)
    x, theta = pairs["position_m"], pairs["divergence_rad"]
    div, conv = x >= 0.0, x <= 0.0
    n_div, n_conv = np.count_nonzero(div), np.count_nonzero(conv)
    if n_div < 2 or n_conv < 2:
        raise ValueError(f"need >= 2 points per branch, got {n_div} diverging / {n_conv} converging")
    fit_div = _ols(x[div], theta[div])
    fit_conv = _ols(-x[conv], theta[conv])
    dmap = DivergenceMap(
        collimated_divergence=0.5 * (fit_div.intercept + fit_conv.intercept),
        diverging_slope=fit_div.slope,
        converging_slope=fit_conv.slope,
        max_travel=float(np.max(np.abs(x))),
    )
    return PositionMapFit(map=dmap, diverging=fit_div, converging=fit_conv)


@dataclass(frozen=True)
class MinDivergenceResult:
    """Averaged minimum-divergence measurement against the +-1 % gate."""

    mean_rad: float
    nominal_rad: float
    deviation_fraction: float
    gate_fraction: ClassVar[float] = SETTING_ACCURACY_GATE

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


def estimate_min_divergence(measurements: Sequence[float]) -> MinDivergenceResult:
    """Average repeated collimated-divergence measurements and gate them.

    The nominal value is the design map's collimated divergence.  A marginal
    result (e.g. 1.04 % against the 1 % gate) is reported with both numbers;
    nothing is clipped or adjusted.
    """
    if len(measurements) < 2:
        raise ValueError("need >= 2 measurements to average")
    finite("measurements", measurements)
    nominal_rad = DivergenceMap.collimated_divergence
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
    nominal_fwhm: float,
) -> NaMismatchResult:
    """Collimated-beam and divergence change from a fiber NA mismatch.

    A fiber emitting ``delta_na_deg`` narrower than designed produces a
    collimated beam smaller by ``f_eff * delta_theta`` (small-angle), which
    widens the minimum divergence by the inverse diameter ratio, so
    ``theta_new * D_new == theta_nominal * D_nominal``.
    """
    finite("delta_na_deg", delta_na_deg)
    finite("f_eff_m", f_eff_m, gt=0)
    fwhm = finite("nominal_fwhm", nominal_fwhm, gt=0)
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


def build_thermal_model(observations) -> ThermalFit:
    """Fit the two-sided thermal deviation model from sweep data.

    ``observations`` are (theta_set, temp_c, theta_meas) rows taken at
    exactly two anchor settings.  Each side of the reference temperature
    (``ThermalModel.reference_temperature_c``, 20 C) is fit per anchor as
    deviation through the origin versus degrees away from reference (the
    deviation at reference is zero by definition).  Needs at least two
    temperatures per side per anchor.
    """
    reference_temperature_c = ThermalModel.reference_temperature_c
    rows = _records(observations, THERMAL_DTYPE)
    setting, temp = rows["theta_set_rad"], rows["temp_c"]
    settings = np.unique(setting).tolist()
    if len(settings) != 2:
        raise ValueError(f"need observations at exactly 2 anchor settings, got {len(settings)}")
    t_cold, t_hot = float(np.min(temp)), float(np.max(temp))
    # The sweep must straddle the reference: its coldest and hottest temperatures bound it.
    finite("reference_temperature_c", reference_temperature_c, gt=t_cold, lt=t_hot)

    deviation = rows["theta_meas_rad"] - setting
    sides = (
        ("cold", temp < reference_temperature_c, reference_temperature_c - temp),
        ("hot", temp > reference_temperature_c, temp - reference_temperature_c),
    )
    slopes: dict[str, float] = {}
    residual_rms: dict[str, float] = {}
    for side, on_side, away in sides:
        for i, anchor in enumerate(settings):
            sel = on_side & (setting == anchor)
            x, d = away[sel], deviation[sel]
            if np.unique(x).size < 2:
                raise ValueError(f"need >= 2 temperatures on the {side} side for anchor {anchor}")
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


def build_chromatic_model(observations) -> ChromaticFit:
    """Fit per-wavelength divergence offsets at the two anchor settings.

    ``observations`` are (theta_set, wavelength_m, theta_meas) rows sampled
    at exactly three wavelengths.  Offsets are re-referenced so the
    wavelength with the smallest combined offset carries exactly zero (the
    optimization wavelength); the shift is visible in ``raw_offsets``.
    """
    rows = _records(observations, CHROMATIC_DTYPE)
    setting, wavelength = rows["theta_set_rad"], rows["wavelength_m"]
    settings = np.unique(setting).tolist()
    wavelengths = np.unique(wavelength).tolist()
    if len(settings) != 2:
        raise ValueError(f"need observations at exactly 2 anchor settings, got {len(settings)}")
    if len(wavelengths) != 3:
        raise ValueError(f"need observations at exactly 3 wavelengths, got {len(wavelengths)}")

    deviation = rows["theta_meas_rad"] - setting
    raw: dict[str, float] = {}
    means = {}
    for s_i, s in enumerate(settings):
        for w in wavelengths:
            sel = (setting == s) & (wavelength == w)
            if not sel.any():
                raise ValueError(f"no observation for setting {s} at wavelength {w}")
            means[(s_i, w)] = float(np.mean(deviation[sel]))
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def simulate_profiler_samples(
    divergence_full_1e2_rad: float,
    initial_diameter_m: float,
    distances_m: Sequence[float],
    replicates: int,
    rng: Union[int, np.random.Generator],
) -> np.ndarray:
    """Synthesize profiler readings of a beam cone for fixture data, as a ``PROFILER_DTYPE`` array.

    The true spot grows linearly from the device aperture,
    ``spot = D0 + theta * L``; each reading adds uniform noise of one
    resolution element peak-to-peak (the profiler's quantization floor).
    """
    integer("replicates", replicates, ge=1)
    gen = np.random.default_rng(rng)
    distance = np.asarray(distances_m, dtype=float)
    noise = gen.uniform(-0.5 * PROFILER_RESOLUTION_M, 0.5 * PROFILER_RESOLUTION_M, (distance.size, replicates))
    samples = np.empty(noise.size, PROFILER_DTYPE)
    samples["distance_m"] = np.repeat(distance, replicates)
    samples["spot_diameter_m"] = ((initial_diameter_m + divergence_full_1e2_rad * distance)[:, None] + noise).ravel()
    return samples


def sample_position_map(dmap: DivergenceMap, points_per_branch: int = 8) -> np.ndarray:
    """Noiseless (position, divergence) pairs covering both branches, as a ``POSITION_DTYPE`` array."""
    integer("points_per_branch", points_per_branch, ge=2)
    xs = np.linspace(0.0, dmap.max_travel, points_per_branch)[1:]
    pairs = np.empty(2 * xs.size + 1, POSITION_DTYPE)
    pairs[0] = (0.0, dmap.collimated_divergence)
    pairs["position_m"][1::2] = xs
    pairs["position_m"][2::2] = -xs
    pairs["divergence_rad"][1::2] = dmap.collimated_divergence + dmap.diverging_slope * xs
    pairs["divergence_rad"][2::2] = dmap.collimated_divergence + dmap.converging_slope * xs
    return pairs


def _read_csv_columns(path, dtype: np.dtype) -> np.ndarray:
    """The data rows of a measurement CSV as one ``dtype`` array, a field per named column; input errors are ConfigErrors.

    Each column is converted and checked as a whole; columns outside the
    dtype's fields are not read.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name reads its last column
        for col in dtype.names:
            if col not in index:
                raise ConfigError(f"missing column '{col}' in {path}")
        rows, lines = [], []
        for cells in reader:
            if cells:  # not a blank line
                rows.append(cells)
                lines.append(reader.line_num)
    if not rows:
        raise ConfigError(f"no data rows in {path}")
    columns = [(col, index[col]) for col in dtype.names]
    records = np.empty(len(rows), dtype)
    try:
        for col, i in columns:
            records[col] = [float(cells[i]) if i < len(cells) else math.nan for cells in rows]
            finite(col, records[col])
        return records
    except ValueError:
        pass
    # Some cell is bad: name the first one in file order, row by row.
    for cells, line in zip(rows, lines):
        for col, i in columns:
            cell = cells[i] if i < len(cells) else ""
            try:
                finite(col, float(cell))
            except ValueError:
                raise ConfigError(
                    f"need a finite number, got {cell!r} in column '{col}' of {path}, line {line}"
                ) from None
    raise AssertionError("a column failed with no bad cell")


def read_profiler_csv(path) -> np.ndarray:
    """Load profiler samples as a ``PROFILER_DTYPE`` array; columns distance_m, spot_diameter_m."""
    return _read_csv_columns(path, PROFILER_DTYPE)


def read_position_csv(path) -> np.ndarray:
    """Load lens-map pairs as a ``POSITION_DTYPE`` array; columns position_m, divergence_rad."""
    return _read_csv_columns(path, POSITION_DTYPE)


def read_thermal_csv(path) -> np.ndarray:
    """Load thermal sweep rows as a ``THERMAL_DTYPE`` array; columns theta_set_rad, temp_c, theta_meas_rad."""
    return _read_csv_columns(path, THERMAL_DTYPE)


def read_chromatic_csv(path) -> np.ndarray:
    """Load chromatic sweep rows as a ``CHROMATIC_DTYPE`` array; columns theta_set_rad, wavelength_m, theta_meas_rad."""
    return _read_csv_columns(path, CHROMATIC_DTYPE)
