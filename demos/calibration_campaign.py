"""Bench-campaign data reduction, end to end on synthetic data.

Generates what the lab instruments would record -- profiler spots along a
15 m lane, a lens-position sweep, thermal-chamber readings -- and reduces
them back into device models, printing each fit against the truth it was
generated from.
"""

import numpy as np

from beamdiv.actuator import ChromaticModel, DivergenceMap, ThermalModel
from beamdiv.beam_optics import Convention, DivergenceAngle, GaussianBeam
from beamdiv.calibration import (
    DESIGN_EFFECTIVE_FOCAL_LENGTH_M,
    CalibrationTable,
    build_chromatic_model,
    build_position_map,
    build_thermal_model,
    estimate_min_divergence,
    fit_divergence,
    na_mismatch_effect,
    sample_position_map,
    simulate_profiler_samples,
)

rng = np.random.default_rng(0)
LANE = (3.0, 5.0, 10.0, 15.0)

print("=== Divergence from 4-station beam profiling ===")
theta_1e2 = DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2).value
samples = simulate_profiler_samples(theta_1e2, 0.0178, LANE, replicates=100, rng=rng)
fit = fit_divergence(samples)
print(f"true 1/e2 divergence {theta_1e2 * 1e6:8.2f} urad")
print(f"fitted slope         {fit.slope * 1e6:8.2f} urad  "
      f"({abs(fit.slope - theta_1e2) / theta_1e2 * 100:.2f} % off, R^2 = {fit.r_squared:.6f})")
print("the collimated beam needs replicate averaging: each reading is only")
print("good to the 800 um profiler resolution (4.5 % of the beam size)")

print()
print("=== Lens-position map regression ===")
truth = DivergenceMap()
pos_fit = build_position_map(sample_position_map(truth, points_per_branch=12))
print(f"diverging slope  {pos_fit.map.diverging_slope:8.4f} rad/m "
      f"(truth {truth.diverging_slope:.4f}, R^2 = {pos_fit.diverging.r_squared:.6f})")
print(f"converging slope {pos_fit.map.converging_slope:8.4f} rad/m "
      f"(truth {truth.converging_slope:.4f}, R^2 = {pos_fit.converging.r_squared:.6f})")
print(f"linearity gate (R^2 >= 0.9999): {'PASS' if pos_fit.passed else 'FAIL'}")

print()
print("=== Minimum-divergence setting accuracy ===")
# Seven repeated collimated measurements with ~1 % spread.
readings = 90e-6 * (1.0 + rng.normal(0.0104, 0.002, 7))
res = estimate_min_divergence(readings)
print(f"mean {res.mean_rad * 1e6:.3f} urad, deviation {res.deviation_fraction * 100:.2f} % "
      f"vs +-{res.gate_fraction * 100:.0f} % gate -> {'PASS' if res.within_gate else 'MARGINAL FAIL'}")

print()
print("=== Fiber NA mismatch diagnostic ===")
na = na_mismatch_effect(2.62, DESIGN_EFFECTIVE_FOCAL_LENGTH_M, GaussianBeam(0.0178, 1.55e-6), 90e-6)
print(f"2.62 deg NA error -> beam {na.beam_diameter_change_m * 1e3:.2f} mm smaller "
      f"-> minimum divergence widens {na.divergence_change_rad * 1e6:+.1f} urad "
      f"({na.new_fwhm_rad * 1e6:.1f} urad)")

print()
print("=== Thermal and chromatic sweeps -> lookup-table models ===")
thermal_truth = ThermalModel()
thermal_rows = [
    (theta, t, theta + thermal_truth.deviation(theta, t))
    for theta in thermal_truth.anchor_settings
    for t in (-30.0, -20.0, 20.0, 40.0, 60.0)
]
thermal_fit = build_thermal_model(thermal_rows)
print(f"cold collimated slope {thermal_fit.slopes['cold_anchor0'] * 1e6:6.2f} urad/C "
      f"(truth {thermal_truth.cold_slope(0) * 1e6:.2f})")

chroma_truth = ChromaticModel()
chroma_rows = [
    (theta, wl, theta + chroma_truth.offset(theta, wl))
    for theta in chroma_truth.anchor_settings
    for wl in chroma_truth.wavelengths
]
chroma_fit = build_chromatic_model(chroma_rows)
print(f"band-edge offsets at collimation: "
      f"{chroma_fit.model.offsets_low[0] * 1e6:.1f} urad @1530, "
      f"{chroma_fit.model.offsets_low[2] * 1e6:.1f} urad @1565")

table = CalibrationTable(
    position=pos_fit,
    thermal=thermal_fit,
    chromatic=chroma_fit,
    provenance={"campaign": "synthetic demo", "profiler_rows": len(samples)},
)
with open("calibration_table.json", "w") as fh:
    fh.write(table.to_json())
print("\nwrote calibration_table.json")
