import csv
import json

import numpy as np
import pytest

from beamdiv.actuator import ChromaticModel, DivergenceMap, ThermalModel, apply_temperature, apply_wavelength
from beamdiv.beam_optics import Convention, DivergenceAngle, GaussianBeam
from beamdiv.cli import main
from beamdiv.config import ConfigError
from beamdiv.calibration import (
    CHROMATIC_DTYPE,
    DESIGN_EFFECTIVE_FOCAL_LENGTH_M,
    POSITION_DTYPE,
    PROFILER_DTYPE,
    PROFILER_RESOLUTION_M,
    THERMAL_DTYPE,
    CalibrationTable,
    build_chromatic_model,
    build_position_map,
    build_thermal_model,
    estimate_min_divergence,
    fit_divergence,
    na_mismatch_effect,
    read_chromatic_csv,
    read_position_csv,
    read_profiler_csv,
    read_thermal_csv,
    sample_position_map,
    simulate_profiler_samples,
    _ols,
)

MAP = DivergenceMap()
LANE_DISTANCES = (3.0, 5.0, 10.0, 15.0)


class TestFitDivergence:
    def test_exact_line_recovery(self):
        samples = [(d, 0.001 + 5e-3 * d) for d in LANE_DISTANCES]
        fit = fit_divergence(samples)
        assert fit.slope == pytest.approx(5e-3, rel=1e-12)
        assert fit.intercept == pytest.approx(0.001, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance(self):
        samples = [(d, 0.001 + 5e-3 * d) for d in LANE_DISTANCES]
        fit_a = fit_divergence(samples)
        fit_b = fit_divergence(list(reversed(samples)))
        assert fit_a.slope == fit_b.slope
        assert fit_a.intercept == fit_b.intercept

    def test_exact_replicates_change_nothing(self):
        base = [(d, 0.001 + 5e-3 * d) for d in LANE_DISTANCES]
        doubled = base + base
        assert fit_divergence(doubled).slope == pytest.approx(fit_divergence(base).slope, rel=1e-12)

    def test_design_beam_within_resolution_bound(self):
        # Collimated design beam (152.88 urad full 1/e2 cone from a 17.8 mm
        # aperture) measured with 800 um of profiler noise, replicates
        # averaged per station: the slope lands within the 4.5 % bound set
        # by the profiler resolution against the smallest beam size.
        theta = DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2).value
        samples = simulate_profiler_samples(
            theta, 0.0178, LANE_DISTANCES, replicates=100, rng=0
        )
        fit = fit_divergence(samples)
        assert abs(fit.slope - theta) / theta < 0.045

    def test_wide_setting_fits_tightly(self):
        samples = simulate_profiler_samples(5e-3, 0.0178, LANE_DISTANCES, replicates=10, rng=1)
        fit = fit_divergence(samples)
        assert fit.slope == pytest.approx(5e-3, rel=0.01)
        assert fit.r_squared > 0.999

    def test_requires_three_distances(self):
        with pytest.raises(ValueError):
            fit_divergence([(3.0, 0.01), (5.0, 0.02)])

    def test_sample_validation(self):
        good = [(d, 0.01) for d in LANE_DISTANCES]
        with pytest.raises(ValueError, match="distance_m must be finite and > 0, got 0.0"):
            fit_divergence(good + [(0.0, 0.01)])
        with pytest.raises(ValueError, match=f"spot_diameter_m must be finite and >= {PROFILER_RESOLUTION_M}"):
            fit_divergence(good + [(3.0, 0.5 * PROFILER_RESOLUTION_M)])

    def test_record_array_and_tuples_fit_alike(self):
        samples = simulate_profiler_samples(5e-3, 0.0178, LANE_DISTANCES, replicates=3, rng=2)
        assert samples.dtype == PROFILER_DTYPE
        assert fit_divergence(samples) == fit_divergence(samples.tolist())


class TestPositionMap:
    def test_recovers_design_slopes_exactly(self):
        fit = build_position_map(sample_position_map(MAP))
        assert fit.map.diverging_slope == pytest.approx(MAP.diverging_slope, rel=1e-9)
        assert fit.map.converging_slope == pytest.approx(MAP.converging_slope, rel=1e-9)
        assert fit.map.collimated_divergence == pytest.approx(90e-6, rel=1e-9)
        assert fit.diverging.r_squared >= 0.9999
        assert fit.converging.r_squared >= 0.9999
        assert fit.passed

    def test_round_trip_map_to_pairs_to_map(self):
        fit = build_position_map(sample_position_map(MAP))
        fit2 = build_position_map(sample_position_map(fit.map))
        assert fit2.map.diverging_slope == pytest.approx(fit.map.diverging_slope, rel=1e-12)
        assert fit2.map.converging_slope == pytest.approx(fit.map.converging_slope, rel=1e-12)

    def test_one_percent_noise_fails_gate(self):
        rng = np.random.default_rng(5)
        noisy = [
            (x, theta * (1.0 + rng.normal(0.0, 0.01)))
            for x, theta in sample_position_map(MAP, points_per_branch=16)
        ]
        fit = build_position_map(noisy)
        assert not fit.passed
        assert fit.diverging.r_squared < 0.9999 or fit.converging.r_squared < 0.9999

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            build_position_map([(0.0, 90e-6), (1e-3, 1.8e-3)])


class TestMinDivergence:
    def test_zero_deviation(self):
        res = estimate_min_divergence([90e-6, 90e-6, 90e-6])
        assert res.mean_rad == 90e-6
        assert res.deviation_fraction == 0.0
        assert res.within_gate

    def test_marginal_campaign_surfaced(self):
        # Mean of 90.94 urad misses the +-1 % gate by a whisker; both
        # numbers are reported, nothing is hidden.
        res = estimate_min_divergence([90.94e-6] * 7)
        assert res.deviation_fraction == pytest.approx(0.0104444, rel=1e-4)
        assert not res.within_gate
        assert res.gate_fraction == 0.01
        d = res.to_dict()
        assert d["deviation_fraction"] > d["gate_fraction"]

    def test_requires_two(self):
        with pytest.raises(ValueError):
            estimate_min_divergence([90e-6])


class TestNaMismatch:
    BEAM = GaussianBeam(0.0178, 1.55e-6)

    def test_measured_case(self):
        res = na_mismatch_effect(2.62, DESIGN_EFFECTIVE_FOCAL_LENGTH_M, self.BEAM, 90e-6)
        assert res.beam_diameter_change_m == pytest.approx(3.5e-3, rel=1e-12)
        assert res.new_beam_diameter_m == pytest.approx(0.0143, rel=1e-12)
        assert res.new_fwhm_rad == pytest.approx(1.1202797202797203e-4, rel=1e-12)
        assert 22e-6 <= res.divergence_change_rad <= 23e-6

    def test_diffraction_product_invariant(self):
        res = na_mismatch_effect(1.5, DESIGN_EFFECTIVE_FOCAL_LENGTH_M, self.BEAM, 90e-6)
        lhs = res.new_fwhm_rad * res.new_beam_diameter_m
        assert lhs == pytest.approx(90e-6 * 0.0178, rel=1e-12)

    def test_zero_mismatch(self):
        res = na_mismatch_effect(0.0, DESIGN_EFFECTIVE_FOCAL_LENGTH_M, self.BEAM, 90e-6)
        assert res.divergence_change_rad == 0.0
        assert res.new_beam_diameter_m == self.BEAM.waist_diameter_1e2

    def test_nonpositive_beam_rejected(self):
        with pytest.raises(ValueError):
            na_mismatch_effect(45.0, DESIGN_EFFECTIVE_FOCAL_LENGTH_M, self.BEAM, 90e-6)


def thermal_sweep_rows(model, temps=(-30.0, -20.0, 20.0, 40.0, 60.0)):
    rows = []
    for theta in model.anchor_settings:
        for t in temps:
            rows.append((theta, t, apply_temperature(theta, t, model)))
    return rows


class TestThermalFit:
    def test_recovers_emulator_slopes(self):
        design = ThermalModel()
        fit = build_thermal_model(thermal_sweep_rows(design))
        assert fit.slopes["cold_anchor0"] == pytest.approx(design.cold_slope(0), rel=1e-9)
        assert fit.slopes["cold_anchor1"] == pytest.approx(design.cold_slope(1), rel=1e-9)
        assert fit.slopes["hot_anchor0"] == pytest.approx(design.hot_slope(0), rel=1e-9)
        assert fit.slopes["hot_anchor1"] == pytest.approx(design.hot_slope(1), rel=1e-9)
        assert fit.slopes["cold_anchor0"] == pytest.approx(1.17e-5, rel=1e-9)
        for key, rms in fit.residual_rms.items():
            assert rms < 1e-12, key

    def test_recovered_model_reproduces_anchors(self):
        fit = build_thermal_model(thermal_sweep_rows(ThermalModel()))
        assert apply_temperature(90e-6, -30.0, fit.model) == pytest.approx(675e-6, rel=1e-9)
        assert apply_temperature(5e-3, 60.0, fit.model) == pytest.approx(5.5e-3, rel=1e-9)

    def test_no_deviation_gives_zero_slopes(self):
        rows = [(s, t, s) for s in (90e-6, 5e-3) for t in (-30.0, -20.0, 40.0, 60.0)]
        fit = build_thermal_model(rows)
        assert all(abs(v) < 1e-15 for v in fit.slopes.values())

    def test_fit_is_fixed_point(self):
        fit = build_thermal_model(thermal_sweep_rows(ThermalModel()))
        refit = build_thermal_model(thermal_sweep_rows(fit.model))
        for key in fit.slopes:
            assert refit.slopes[key] == pytest.approx(fit.slopes[key], rel=1e-12)

    def test_requires_two_temps_per_side(self):
        rows = [(s, t, s) for s in (90e-6, 5e-3) for t in (-30.0, 40.0, 60.0)]
        with pytest.raises(ValueError):
            build_thermal_model(rows)

    def test_requires_two_anchors(self):
        rows = [(90e-6, t, 90e-6) for t in (-30.0, -20.0, 40.0, 60.0)]
        with pytest.raises(ValueError):
            build_thermal_model(rows)

    @pytest.mark.parametrize("temps,bounds", [
        ((25.0, 30.0, 40.0, 60.0), "> 25.0 and < 60.0"),
        ((-30.0, -20.0, 0.0, 20.0), "> -30.0 and < 20.0"),
    ], ids=["above", "up_to_reference"])
    def test_sweep_must_straddle_the_reference(self, temps, bounds):
        rows = thermal_sweep_rows(ThermalModel(), temps)
        with pytest.raises(ValueError, match=rf"^reference_temperature_c must be finite and {bounds}, got 20\.0$"):
            build_thermal_model(rows)


def chromatic_sweep_rows(model):
    return [
        (theta, wl, apply_wavelength(theta, wl, model))
        for theta in model.anchor_settings
        for wl in model.wavelengths
    ]


class TestChromaticFit:
    def test_recovers_design_offsets(self):
        design = ChromaticModel()
        fit = build_chromatic_model(chromatic_sweep_rows(design))
        assert fit.reference_wavelength_m == 1.55e-6
        assert fit.model.offsets_low == pytest.approx(design.offsets_low, rel=1e-9)
        assert fit.model.offsets_high == pytest.approx(design.offsets_high, rel=1e-9)

    def test_requires_three_wavelengths(self):
        rows = [(90e-6, wl, 90e-6) for wl in (1.53e-6, 1.55e-6)]
        rows += [(5e-3, wl, 5e-3) for wl in (1.53e-6, 1.55e-6)]
        with pytest.raises(ValueError):
            build_chromatic_model(rows)


class TestCsvInterfaces:
    def test_profiler_round_trip(self, tmp_path):
        path = tmp_path / "profiler.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_m", "spot_diameter_m", "replicate"])
            for d in LANE_DISTANCES:
                writer.writerow([d, 0.0178 + 5e-3 * d, 0])
        samples = read_profiler_csv(path)
        assert len(samples) == 4
        assert samples.dtype == PROFILER_DTYPE
        assert fit_divergence(samples).slope == pytest.approx(5e-3, rel=1e-9)

    def test_columns_outside_the_fields_are_not_read(self, tmp_path):
        path = tmp_path / "profiler.csv"
        path.write_text("replicate,distance_m,spot_diameter_m\n,3.0,0.01\nnan,6.0,0.02\nx\n")
        with pytest.raises(ConfigError, match="column 'distance_m' of .*, line 4$"):
            read_profiler_csv(path)
        path.write_text("replicate,distance_m,spot_diameter_m\n,3.0,0.01\nnan,6.0,0.02\n")
        assert read_profiler_csv(path).tolist() == [(3.0, 0.01), (6.0, 0.02)]

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,width\n3.0,0.01\n")
        with pytest.raises(ValueError, match="spot_diameter_m"):
            read_profiler_csv(path)

    @pytest.mark.parametrize("body,column,line", [
        # Two bad cells in different columns: the earlier row wins.
        ("1e-3,20.0,1e-3\n1e-3,-30.0,x\n\n2e-3,nan,2e-3\n", "theta_meas_rad", 3),
        ("1e-3,20.0,1e-3\n\n1e-3,inf,1e-3\n2e-3,-30.0,\n", "temp_c", 4),
        # Two bad cells in one row: the earlier column wins.
        ("1e-3,20.0,1e-3\nnan,-30.0,x\n", "theta_set_rad", 3),
        ("1e-3\n", "temp_c", 2),
    ])
    def test_first_bad_cell_in_file_order_named(self, tmp_path, body, column, line):
        path = tmp_path / "thermal.csv"
        path.write_text("theta_set_rad,temp_c,theta_meas_rad\n" + body)
        with pytest.raises(ConfigError, match=f"in column '{column}' of .*, line {line}$"):
            read_thermal_csv(path)

    def test_position_csv(self, tmp_path):
        path = tmp_path / "positions.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["position_m", "divergence_rad"])
            for x, theta in sample_position_map(MAP).tolist():
                writer.writerow([repr(x), repr(theta)])
        fit = build_position_map(read_position_csv(path))
        assert fit.passed

    def test_thermal_csv(self, tmp_path):
        path = tmp_path / "thermal.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta_set_rad", "temp_c", "theta_meas_rad"])
            for row in thermal_sweep_rows(ThermalModel()):
                writer.writerow([repr(v) for v in row])
        fit = build_thermal_model(read_thermal_csv(path))
        assert fit.slopes["cold_anchor0"] == pytest.approx(1.17e-5, rel=1e-9)

    def test_chromatic_csv_round_trip(self, tmp_path, capsys):
        design = ChromaticModel()
        path = tmp_path / "chromatic.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta_set_rad", "wavelength_m", "theta_meas_rad"])
            for row in chromatic_sweep_rows(design):
                writer.writerow([repr(v) for v in row])
        fit = build_chromatic_model(read_chromatic_csv(path))
        assert fit.reference_wavelength_m == 1.55e-6
        assert fit.model.offsets_low == pytest.approx(design.offsets_low, rel=1e-9)
        assert fit.model.offsets_high == pytest.approx(design.offsets_high, rel=1e-9)

        assert main(["calibrate", "--chromatic", str(path)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["chromatic"] == json.loads(json.dumps(fit.to_dict()))
        assert table["chromatic"]["reference_wavelength_m"] == 1.55e-6
        assert table["chromatic"]["offsets_low_rad"] == pytest.approx(design.offsets_low, rel=1e-9)
        assert table["chromatic"]["offsets_high_rad"] == pytest.approx(design.offsets_high, rel=1e-9)
        assert table["provenance"]["chromatic"]["rows"] == 6

    def test_calibration_table_json(self):
        table = CalibrationTable(
            position=build_position_map(sample_position_map(MAP)),
            thermal=build_thermal_model(thermal_sweep_rows(ThermalModel())),
            provenance={"positions": {"rows": 15}},
        )
        data = json.loads(table.to_json())
        assert data["position"]["passed"] is True
        assert data["thermal"]["slopes_rad_per_c"]["cold_anchor0"] == pytest.approx(1.17e-5)
        assert data["chromatic"] is None


@pytest.mark.parametrize("build,rows", [
    (fit_divergence, [(d, 0.01 + 5e-3 * d) for d in LANE_DISTANCES]),
    (build_position_map, sample_position_map(MAP).tolist()),
    (build_thermal_model, thermal_sweep_rows(ThermalModel())),
    (build_chromatic_model, chromatic_sweep_rows(ChromaticModel())),
], ids=["profiler", "position", "thermal", "chromatic"])
def test_list_of_lists_rejected(build, rows):
    build(rows)
    # np.asarray would broadcast each number of a list into every field.
    with pytest.raises(ValueError, match="one record"):
        build([list(row) for row in rows])


@pytest.mark.parametrize("build,rows,dtype,field", [
    (fit_divergence, [(d, 0.01 + 5e-3 * d) for d in LANE_DISTANCES], PROFILER_DTYPE, "distance_m"),
    (build_position_map, sample_position_map(MAP).tolist(), POSITION_DTYPE, "position_m"),
    (build_thermal_model, thermal_sweep_rows(ThermalModel()), THERMAL_DTYPE, "temp_c"),
    (build_chromatic_model, chromatic_sweep_rows(ChromaticModel()), CHROMATIC_DTYPE, "theta_meas_rad"),
], ids=["profiler", "position", "thermal", "chromatic"])
def test_non_finite_field_named(build, rows, dtype, field):
    records = np.asarray(rows, dtype)
    records[field][1] = np.nan
    with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
        build(records.tolist())


class TestMasksMatchTheRowLoops:
    """The masked fits against the per-row loops they replaced, on shuffled noisy rows: equal floats."""

    RNG = np.random.default_rng(11)

    def shuffled(self, rows):
        rows = list(rows)
        self.RNG.shuffle(rows)
        return rows

    def test_profiler_means(self):
        rows = self.shuffled(simulate_profiler_samples(5e-3, 0.0178, LANE_DISTANCES, replicates=7, rng=3).tolist())
        by_distance = {}
        for d, s in rows:
            by_distance.setdefault(d, []).append(s)
        # One row per distance is its own mean, so equal fits mean equal averages.
        assert fit_divergence(rows) == fit_divergence([(d, np.mean(v)) for d, v in by_distance.items()])

    def test_position_branches(self):
        rows = self.shuffled((x, t * (1.0 + self.RNG.normal(0.0, 1e-3))) for x, t in sample_position_map(MAP).tolist())
        fit = build_position_map(rows)
        for branch, pts in (
            (fit.diverging, [(x, t) for x, t in rows if x >= 0.0]),
            (fit.converging, [(-x, t) for x, t in rows if x <= 0.0]),
        ):
            assert branch == _ols(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))

    def test_thermal_slopes(self):
        model = ThermalModel()
        rows = self.shuffled(
            (s, t, m + self.RNG.normal(0.0, 1e-7))
            for s, t, m in thermal_sweep_rows(model, temps=(-30.0, -20.0, -5.0, 20.0, 40.0, 60.0)) * 3
        )
        fit = build_thermal_model(rows)
        ref = model.reference_temperature_c
        for i, anchor in enumerate(model.anchor_settings):
            for side, sel in (
                ("cold", [(ref - t, m - s) for s, t, m in rows if s == anchor and t < ref]),
                ("hot", [(t - ref, m - s) for s, t, m in rows if s == anchor and t > ref]),
            ):
                x, d = np.array([p[0] for p in sel]), np.array([p[1] for p in sel])
                assert fit.slopes[f"{side}_anchor{i}"] == float(np.dot(x, d) / np.dot(x, x))

    def test_chromatic_means(self):
        model = ChromaticModel()
        rows = self.shuffled((s, w, m + self.RNG.normal(0.0, 1e-7)) for s, w, m in chromatic_sweep_rows(model) * 4)
        fit = build_chromatic_model(rows)
        for i, anchor in enumerate(model.anchor_settings):
            for w in model.wavelengths:
                vals = [m - s for s, ww, m in rows if s == anchor and ww == w]
                assert fit.raw_offsets[f"anchor{i}_{w}"] == float(np.mean(vals))
