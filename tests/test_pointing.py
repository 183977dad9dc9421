import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from beamdiv import pointing
from beamdiv.pointing import (
    GainConvention,
    gain_improvement_db,
    optimal_divergence,
    pointing_loss_db,
    rule_of_thumb_divergence,
    sweep_optimal_divergence,
)

SIGMA_ADCS = math.radians(0.021)  # vendor spec consumed as sigma


def objective(theta, sigma, convention):
    gain = 16.0 / theta**2 if convention is GainConvention.QUADRATIC else 16.0 / theta
    return gain * 10.0 ** (-2.0 * (2.0 * sigma / theta) ** 2)


def assert_matches_sweep(sigma, convention):
    # The closed form against the brute-force sweep over a decade each way;
    # the worst gap seen over [1e-7, 1e-2] rad is about 1.3e-8.
    closed = optimal_divergence(sigma, convention)
    swept = sweep_optimal_divergence(sigma, convention, closed / 10.0, closed * 10.0)
    assert abs(swept - closed) / closed <= 1e-6


class TestPointingLoss:
    def test_no_jitter(self):
        assert pointing_loss_db(0.0, 1e-3) == 0.0

    def test_beta_one_is_exactly_one_percent(self):
        # theta_d = 2 sigma puts beta at 1.
        assert pointing_loss_db(100e-6, 200e-6) == -20.0

    def test_five_sigma_point(self):
        assert pointing_loss_db(100e-6, 500e-6) == pytest.approx(-3.2, abs=1e-12)

    def test_monotone_in_divergence(self):
        thetas = np.linspace(50e-6, 5e-3, 200)
        losses = [pointing_loss_db(100e-6, t) for t in thetas]
        assert losses == sorted(losses)
        assert all(l < 0.0 for l in losses)

    @pytest.mark.parametrize("sigma,theta", [(1e200, 1e-4), (1e155, 1.0)])
    def test_saturates_where_the_square_overflows(self, sigma, theta):
        # (2 sigma / theta)**2 is past the float range: the loss is total.
        with pytest.raises(OverflowError):
            (2.0 * sigma / theta) ** 2
        assert pointing_loss_db(sigma, theta) == -math.inf

    def test_largest_finite_square_keeps_its_bytes(self):
        beta = 1.3e154
        assert pointing_loss_db(beta / 2.0, 1.0) == -20.0 * beta**2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pointing_loss_db(1e-6, 0.0)
        with pytest.raises(ValueError):
            pointing_loss_db(-1e-6, 1e-3)


class TestRuleOfThumb:
    def test_adcs_example(self):
        assert rule_of_thumb_divergence(SIGMA_ADCS) == pytest.approx(1.833e-3, rel=1e-3)

    def test_fifty_fold_improvement(self):
        # 50x better pointing gives 36.7 urad, within 10 % of the quoted
        # 39 urad ("almost 50 times" is rounded).
        theta = rule_of_thumb_divergence(SIGMA_ADCS / 50.0)
        assert theta == pytest.approx(36.65e-6, rel=1e-3)
        assert abs(theta - 39e-6) / 39e-6 < 0.10

    def test_linear(self):
        assert rule_of_thumb_divergence(1e-6) == pytest.approx(5e-6, rel=1e-15)

    def test_zero_sigma_gives_zero(self):
        # The limit of 5 sigma; the policy clamps it to the hardware minimum.
        assert rule_of_thumb_divergence(0.0) == 0.0
        assert rule_of_thumb_divergence(np.zeros(3)).tolist() == [0.0] * 3

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError, match="sigma"):
            rule_of_thumb_divergence(-1e-6)


class TestOptimalDivergence:
    @pytest.mark.parametrize("convention,factor", [
        (GainConvention.QUADRATIC, 4.291932052578694),
        (GainConvention.LINEAR, 6.069708517540586),
    ])
    def test_closed_form_factors(self, convention, factor):
        assert optimal_divergence(100e-6, convention) == pytest.approx(100e-6 * factor, rel=1e-15)

    @pytest.mark.parametrize("convention", list(GainConvention))
    @pytest.mark.parametrize("sigma", [1e-6, 100e-6, 366.5e-6])
    def test_matches_sweep_oracle(self, convention, sigma):
        assert_matches_sweep(sigma, convention)

    @pytest.mark.parametrize("convention", list(GainConvention))
    @given(sigma=hs.floats(1e-7, 1e-2))
    def test_matches_sweep_oracle_at_any_sigma(self, convention, sigma):
        assert_matches_sweep(sigma, convention)

    @pytest.mark.parametrize("convention", list(GainConvention))
    def test_argmax_invariance_on_log_sweep(self, convention):
        # No sampled objective value may exceed the closed-form optimum's.
        sigma = 100e-6
        star = optimal_divergence(sigma, convention)
        grid = np.geomspace(star / 10.0, star * 10.0, 1000)
        assert np.max(objective(grid, sigma, convention)) <= objective(np.array([star]), sigma, convention)[0]

    @pytest.mark.parametrize("convention", list(GainConvention))
    @example(sigma=50e-6, k=7.0)
    @given(sigma=hs.floats(1e-7, 1e-2), k=hs.floats(1e-3, 1e3))
    def test_scale_invariance(self, convention, sigma, k):
        # Both sides round twice, so they may part by 2 ulps, never more.
        scaled, base = optimal_divergence(k * sigma, convention), k * optimal_divergence(sigma, convention)
        assert abs(scaled - base) <= 2.0 * math.ulp(max(scaled, base))

    def test_zero_sigma_gives_zero(self):
        # The limit of k sigma; the policy clamps it to the hardware minimum.
        for convention in GainConvention:
            assert optimal_divergence(0.0, convention) == 0.0
            assert optimal_divergence(np.zeros(3), convention).tolist() == [0.0] * 3

    def test_negative_sigma_raises(self):
        for convention in GainConvention:
            with pytest.raises(ValueError, match="sigma"):
                optimal_divergence(np.array([1e-6, -1e-6]), convention)


class TestGainImprovement:
    def test_wide_to_39_urad(self):
        db = gain_improvement_db(rule_of_thumb_divergence(SIGMA_ADCS), 39e-6, GainConvention.LINEAR)
        assert db == pytest.approx(16.720020596342668, rel=1e-12)
        assert db == pytest.approx(17.0, abs=0.5)

    def test_wide_to_90_urad(self):
        db = gain_improvement_db(rule_of_thumb_divergence(SIGMA_ADCS), 90e-6, GainConvention.LINEAR)
        assert db == pytest.approx(13.08824157221441, rel=1e-12)
        assert db == pytest.approx(13.0, abs=0.5)

    def test_identity_and_antisymmetry(self):
        for conv in GainConvention:
            assert gain_improvement_db(1e-3, 1e-3, conv) == 0.0
            fwd = gain_improvement_db(2e-3, 0.3e-3, conv)
            rev = gain_improvement_db(0.3e-3, 2e-3, conv)
            assert fwd == pytest.approx(-rev, rel=1e-12)

    def test_quadratic_doubles_linear(self):
        lin = gain_improvement_db(1e-3, 1e-4, GainConvention.LINEAR)
        quad = gain_improvement_db(1e-3, 1e-4, GainConvention.QUADRATIC)
        assert quad == pytest.approx(2.0 * lin, rel=1e-12)


@given(
    hs.floats(1e-150, 1e150),
    hs.floats(0.0, 12.0),
    hs.integers(1, 3000),
)
def test_log_grid_equals_geomspace(lo, decades, n):
    hi = lo * 10.0**decades
    assert pointing._log_grid(lo, hi, n).tobytes() == np.geomspace(lo, hi, n).tobytes()


def _reference_sweep(sigma, convention, lo, hi, n_points=1000, refinements=3):
    theta = np.geomspace(lo, hi, n_points)
    for _ in range(refinements + 1):
        i = int(np.argmax(objective(theta, sigma, convention)))
        best = theta[i]
        theta = np.geomspace(theta[max(i - 1, 0)], theta[min(i + 1, n_points - 1)], n_points)
    return float(best)


@given(
    hs.floats(1e-7, 1e-2),
    hs.sampled_from(list(GainConvention)),
    hs.floats(-3.0, 1.0),
    hs.floats(0.01, 6.0),
)
def test_sweep_equals_the_geomspace_sweep(sigma, convention, lo_decades, span_decades):
    lo = sigma * 10.0**lo_decades
    hi = lo * 10.0**span_decades
    assert sweep_optimal_divergence(sigma, convention, lo, hi) == _reference_sweep(sigma, convention, lo, hi)
