import dataclasses
import functools
import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from beamdiv.beam_optics import Convention, DivergenceAngle
from beamdiv.link_budget import (
    _TERMS,
    BudgetReport,
    INSERTION_LOSS_DIVERGENCE_ONLY_DB,
    INSERTION_LOSS_WITH_STEERING_DB,
    LinkClosedError,
    LinkConfig,
    SensitivityModel,
    budget_report,
    calibrate_sensitivity,
    free_space_loss_db,
    max_rate,
    received_power_dbm,
    watts_to_dbm,
)

DB3 = 10.0 * math.log10(2.0)


def design_config(**overrides):
    kwargs = dict(
        tx_power_w=2.0,
        wavelength=1.55e-6,
        tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
        rx_aperture_diameter=0.35,
        insertion_loss_db=INSERTION_LOSS_DIVERGENCE_ONLY_DB,
    )
    kwargs.update(overrides)
    return LinkConfig(**kwargs)


def calibrated_config(**overrides):
    cfg = design_config(**overrides)
    return cfg.with_sensitivity(calibrate_sensitivity(cfg, 600e3, 10e9, 5.0))


class TestFreeSpaceLoss:
    def test_600_km(self):
        assert free_space_loss_db(600e3, 1.55e-6) == pytest.approx(253.74058832470897, rel=1e-12)

    def test_1200_km(self):
        assert free_space_loss_db(1200e3, 1.55e-6) == pytest.approx(259.7611882379886, rel=1e-12)

    def test_doubling_distance_adds_6_db(self):
        delta = free_space_loss_db(1200e3, 1.55e-6) - free_space_loss_db(600e3, 1.55e-6)
        assert delta == pytest.approx(2.0 * DB3, abs=1e-9)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            free_space_loss_db(0.0, 1.55e-6)


class TestBudgetReport:
    @given(distance=hs.floats(1e3, 1e8), pointing_loss_db=hs.floats(0.0, 1e3))
    def test_terms_sum_to_received_power(self, distance, pointing_loss_db):
        report = received_power_dbm(calibrated_config(misc_loss_db=3.0), distance, pointing_loss_db)
        # Added left to right, in the order the budget adds them: the same float.
        assert functools.reduce(operator.add, report.terms().values()) == report.received_power_dbm

    def test_term_fields_are_declared_in_sum_order(self):
        # received_power_dbm passes the addends positionally, so a reordered
        # field would swap two terms without an error.
        names = [f.name for f in dataclasses.fields(BudgetReport)]
        terms = names[names.index("distance_m") + 1:names.index("received_power_dbm")]
        assert terms == [name for name, _, _ in _TERMS]

    def test_table_lists_the_terms_in_sum_order(self):
        report = budget_report(calibrated_config(), 600e3, 10e9, 1.0)
        lines = report.table().splitlines()
        assert [line.split("  ")[0].rstrip() for line in lines[1:8]] == [label for _, label, _ in _TERMS]
        assert lines[3].split() == ["pointing", "loss", "-1.000", "dB"]

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            received_power_dbm(design_config(), 0.0)

    def test_fwhm_input_converted(self):
        # Same physical divergence quoted both ways gives the same budget.
        fwhm_cfg = design_config()
        full = DivergenceAngle(90e-6, Convention.FWHM).to(Convention.FULL_1E2)
        full_cfg = design_config(tx_divergence=full)
        a = received_power_dbm(fwhm_cfg, 600e3).received_power_dbm
        b = received_power_dbm(full_cfg, 600e3).received_power_dbm
        assert a == pytest.approx(b, abs=1e-12)

    def test_component_values(self):
        report = received_power_dbm(design_config(), 600e3)
        assert report.tx_power_dbm == pytest.approx(watts_to_dbm(2.0), rel=1e-15)
        assert report.tx_gain_db == pytest.approx(88.3543, abs=1e-3)
        assert report.rx_gain_db == pytest.approx(117.01772437748235, rel=1e-12)
        assert report.path_db == pytest.approx(-253.74058832470897, rel=1e-12)
        assert report.insertion_db == -INSERTION_LOSS_DIVERGENCE_ONLY_DB

    def test_json_and_table_render(self):
        report = budget_report(calibrated_config(), 600e3, 10e9)
        assert '"margin_db"' in report.to_json()
        assert "margin" in report.table()

    def test_insertion_loss_constants(self):
        assert INSERTION_LOSS_DIVERGENCE_ONLY_DB == 0.026
        assert INSERTION_LOSS_WITH_STEERING_DB == 0.032


class TestMarginAndRate:
    def test_anchor_margin(self):
        cfg = calibrated_config()
        assert budget_report(cfg, 600e3, 10e9).margin_db == pytest.approx(5.0, abs=1e-9)

    def test_second_operating_point_consistency(self):
        # +6.02 dB of path loss at double distance is exactly offset by the
        # -6.02 dB sensitivity shift at a quarter of the rate.
        cfg = calibrated_config()
        assert budget_report(cfg, 1200e3, 2.5e9).margin_db == pytest.approx(5.0, abs=1e-9)

    def test_rate_doubling_costs_3_db(self):
        cfg = calibrated_config()
        base = budget_report(cfg, 600e3, 10e9).margin_db
        assert budget_report(cfg, 600e3, 20e9).margin_db == pytest.approx(base - DB3, abs=1e-9)

    def test_sensitivity_scaling_law(self):
        # margin(L, R') = margin(L, R) - 10 log10(R'/R) for all rate pairs.
        cfg = calibrated_config()
        for r1, r2 in [(1e9, 7e9), (2.5e9, 40e9)]:
            lhs = budget_report(cfg, 900e3, r1).margin_db - 10.0 * math.log10(r2 / r1)
            assert lhs == pytest.approx(budget_report(cfg, 900e3, r2).margin_db, abs=1e-9)

    def test_joint_distance_rate_scaling(self):
        cfg = calibrated_config()
        assert budget_report(cfg, 2 * 700e3, 8e9).margin_db == pytest.approx(
            budget_report(cfg, 700e3, 4 * 8e9).margin_db, abs=1e-9
        )

    def test_max_rate_design_points(self):
        cfg = calibrated_config()
        assert max_rate(cfg, 600e3, 5.0) == pytest.approx(10e9, rel=1e-9)
        assert max_rate(cfg, 1200e3, 5.0) == pytest.approx(2.5e9, rel=1e-9)

    def test_extra_margin_halves_rate(self):
        cfg = calibrated_config()
        assert max_rate(cfg, 600e3, 5.0 + DB3) == pytest.approx(5e9, rel=1e-9)

    def test_max_rate_margin_round_trip(self):
        cfg = calibrated_config()
        for distance in (600e3, 950e3, 1200e3):
            rate = max_rate(cfg, distance, 5.0)
            assert budget_report(cfg, distance, rate).margin_db == pytest.approx(5.0, abs=1e-6)

    def test_link_closed_error(self):
        cfg = calibrated_config()
        with pytest.raises(LinkClosedError):
            max_rate(cfg, 600e3, 5.0, pointing_loss_db=1e4)
        with pytest.raises(ValueError, match="distance"):
            max_rate(cfg, math.inf, 5.0)

    def test_requires_sensitivity(self):
        with pytest.raises(ValueError):
            budget_report(design_config(), 600e3, 10e9).margin_db


class TestCalibration:
    def test_anchor_reproduced_exactly(self):
        cfg = design_config(misc_loss_db=2.0)
        model = calibrate_sensitivity(cfg, 600e3, 10e9, 5.0)
        assert budget_report(cfg.with_sensitivity(model), 600e3, 10e9).margin_db == pytest.approx(5.0, abs=1e-9)

    def test_idempotent(self):
        cfg = design_config()
        first = calibrate_sensitivity(cfg, 600e3, 10e9, 5.0)
        again = calibrate_sensitivity(cfg.with_sensitivity(first), 600e3, 10e9, 5.0)
        assert again.ref_sensitivity_dbm == pytest.approx(first.ref_sensitivity_dbm, abs=1e-12)
        assert again.ref_rate == first.ref_rate

    def test_misc_loss_folds_into_sensitivity(self):
        # Splitting losses differently cannot change the anchored margin.
        for misc in (0.0, 1.0, 4.0):
            cfg = design_config(misc_loss_db=misc)
            cfg = cfg.with_sensitivity(calibrate_sensitivity(cfg, 600e3, 10e9, 5.0))
            assert budget_report(cfg, 1200e3, 2.5e9).margin_db == pytest.approx(5.0, abs=1e-9)

    def test_sensitivity_model_validation(self):
        with pytest.raises(ValueError):
            SensitivityModel(ref_rate=0.0, ref_sensitivity_dbm=-20.0)
        model = SensitivityModel(ref_rate=10e9, ref_sensitivity_dbm=-20.0)
        with pytest.raises(ValueError):
            model.sensitivity_dbm(0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        design_config(tx_power_w=0.0)
    with pytest.raises(ValueError):
        design_config(rx_aperture_diameter=-0.1)
    with pytest.raises(ValueError):
        design_config(insertion_loss_db=-0.01)
