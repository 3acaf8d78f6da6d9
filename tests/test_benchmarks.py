"""Benchmark estimators against independent regression oracles."""

import math

import numpy as np
import pytest

from bidirmr.benchmarks import mr_egger, mr_median, overall_ivw
from bidirmr.errors import EmptyRelevantSetError, RankDeficientError, ZeroDenominatorError
from bidirmr.focusing import Direction, FocusConfig, Method
from bidirmr.focusing import test_direction as run_direction_test
from conftest import make_random_panel


def egger_normal_equations(x, y, weights):
    """Independent oracle: explicit 2x2 normal-equations solve."""
    sw = np.sum(weights)
    sx = np.sum(weights * x)
    sxx = np.sum(weights * x * x)
    sy = np.sum(weights * y)
    sxy = np.sum(weights * x * y)
    det = sw * sxx - sx * sx
    intercept = (sxx * sy - sx * sxy) / det
    slope = (sw * sxy - sx * sy) / det
    se_slope = math.sqrt(sw / det)
    se_intercept = math.sqrt(sxx / det)
    return intercept, slope, se_intercept, se_slope


class TestOverallIvw:
    def test_equals_focused_ivw_with_unbounded_filter(self, rng):
        for _ in range(25):
            panel = make_random_panel(rng, p=40)
            tau_s = float(rng.uniform(0.0, 1.0))
            cfg = FocusConfig(tau_f=math.inf, tau_s=tau_s, alpha=0.05)
            focused = run_direction_test(panel, Direction.D_TO_Y, cfg)
            overall = overall_ivw(panel, Direction.D_TO_Y, tau_s)
            assert overall.estimate == focused.estimate
            assert panel.ids_at(overall.selected) == panel.ids_at(focused.selected)
            assert overall.null_sd == pytest.approx(
                math.sqrt(1.0 / focused.weight_sum), rel=1e-12
            )

    def test_matches_wls_oracle(self, rng):
        panel = make_random_panel(rng, p=10)
        report = overall_ivw(panel, Direction.D_TO_Y, tau_s=0.0)
        sw = np.sqrt(1.0 / panel.se_y**2)
        coef, *_ = np.linalg.lstsq((sw * panel.beta_d)[:, None], sw * panel.beta_y, rcond=None)
        assert report.estimate == pytest.approx(float(coef[0]), abs=1e-12)

    def test_empty_relevant_set(self, rng):
        panel = make_random_panel(rng, p=5)
        with pytest.raises(EmptyRelevantSetError):
            overall_ivw(panel, Direction.D_TO_Y, tau_s=1e9)

    def test_underflowing_weights_fail_as_the_focused_ivw_does(self):
        # (1e-200 / 1)^2 underflows: the weights sum to zero
        from bidirmr.focusing import Panel

        panel = Panel.from_arrays(["a", "b"], [1e-200, -1e-190], [1.0, 1.0], [0.0, 0.3], [1.0, 2.0])
        cfg = FocusConfig(tau_f=math.inf, tau_s=0.0)
        with pytest.raises(ZeroDenominatorError, match="underflow"):
            overall_ivw(panel, Direction.D_TO_Y, 0.0)
        with pytest.raises(ZeroDenominatorError, match="underflow"):
            run_direction_test(panel, Direction.D_TO_Y, cfg)


class TestMrMedian:
    def test_estimate_is_ratio_median(self):
        panel = make_random_panel(np.random.default_rng(0), p=21)
        report = mr_median(panel, Direction.D_TO_Y, 0.0)
        assert report.estimate == float(np.median(panel.beta_y / panel.beta_d))

    def test_symmetric_ratios_give_near_zero(self):
        # ratios symmetric around zero: median 0, the bootstrap law never rejects
        beta_d = np.ones(9)
        beta_y = np.array([-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4])
        from bidirmr.focusing import Panel

        panel = Panel.from_arrays([f"v{i}" for i in range(9)], beta_d, 0.1 * beta_d,
                                  beta_y, np.full(9, 0.1))
        report = mr_median(panel, Direction.D_TO_Y, 0.0)
        assert report.estimate == 0.0
        assert report.p_value > 0.5

    def test_bootstrap_deterministic(self, rng):
        panel = make_random_panel(rng, p=30)
        r1 = mr_median(panel, Direction.D_TO_Y, 0.0)
        r2 = mr_median(panel, Direction.D_TO_Y, 0.0)
        assert r1 == r2
        np.testing.assert_array_equal(r1.selected, r2.selected)


class TestMrEgger:
    def test_noiseless_line_recovered(self):
        from bidirmr.focusing import Panel

        a, b = 0.07, 0.45
        beta_d = np.array([0.2, 0.5, 0.9, 1.4, 2.0])
        beta_y = a + b * beta_d
        panel = Panel.from_arrays(
            [f"v{i}" for i in range(5)], beta_d, np.full(5, 0.1), beta_y, np.full(5, 0.1)
        )
        report = mr_egger(panel, Direction.D_TO_Y, 0.0)
        assert report.estimate == pytest.approx(b, abs=1e-10)
        assert report.intercept == pytest.approx(a, abs=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(50):
            panel = make_random_panel(rng, p=20)
            report = mr_egger(panel, Direction.D_TO_Y, 0.0)
            flip = panel.beta_d < 0
            x = np.where(flip, -panel.beta_d, panel.beta_d)
            y = np.where(flip, -panel.beta_y, panel.beta_y)
            intercept, slope, se_i, se_s = egger_normal_equations(x, y, 1.0 / panel.se_y**2)
            assert report.estimate == pytest.approx(slope, abs=1e-10)
            assert report.intercept == pytest.approx(intercept, abs=1e-10)
            assert report.null_sd == pytest.approx(se_s, rel=1e-9)
            assert report.intercept_se == pytest.approx(se_i, rel=1e-9)

    def test_invariant_to_input_sign_convention(self, rng):
        # flipping the recorded allele orientation of any SNP subset leaves
        # the slope unchanged because of the internal orientation step
        panel = make_random_panel(rng, p=20)
        flip = rng.random(20) < 0.5
        sign = np.where(flip, -1.0, 1.0)
        from bidirmr.focusing import Panel

        flipped = Panel.from_arrays(
            panel.ids, sign * panel.beta_d, panel.se_d, sign * panel.beta_y, panel.se_y
        )
        base = mr_egger(panel, Direction.D_TO_Y, 0.0)
        alt = mr_egger(flipped, Direction.D_TO_Y, 0.0)
        assert alt.estimate == pytest.approx(base.estimate, rel=1e-12)
        assert alt.intercept == pytest.approx(base.intercept, rel=1e-12)

    def test_needs_three_snps(self, rng):
        from bidirmr.focusing import Panel

        panel = Panel.from_arrays(["a", "b"], [0.5, 0.7], [0.1, 0.1], [0.1, 0.2], [0.1, 0.1])
        with pytest.raises(RankDeficientError):
            mr_egger(panel, Direction.D_TO_Y, 0.0)

    def test_rank_deficient_when_exposures_equal(self):
        from bidirmr.focusing import Panel

        panel = Panel.from_arrays(
            ["a", "b", "c"], [0.5, 0.5, -0.5], [0.1] * 3, [0.1, 0.2, 0.3], [0.1] * 3
        )
        with pytest.raises(RankDeficientError):
            mr_egger(panel, Direction.D_TO_Y, 0.0)

    def test_empty_relevant_set(self, rng):
        panel = make_random_panel(rng, p=5)
        with pytest.raises(EmptyRelevantSetError):
            mr_egger(panel, Direction.D_TO_Y, 1e9)


class TestNullInflation:
    def test_conventional_methods_inflate_under_bidirectional_null(self):
        # with feedback-induced invalid instruments and sign-correlated
        # pleiotropy, all three conventional methods reject a true null far
        # above the nominal 5% while the focused IVW stays near level
        from bidirmr.simulation import ScenarioConfig, run_scenario, synthetic_seed

        seed = synthetic_seed(394, np.random.default_rng(1))
        scenario = ScenarioConfig(
            kappa=1.0,
            cells=((0.0, 0.0),),
            n_reps=300,
            focus=FocusConfig(tau_f=1.5, alpha=0.05),
            methods=(
                Method.OVERALL_IVW,
                Method.MR_MEDIAN,
                Method.MR_EGGER,
                Method.FOCUSED_IVW,
            ),
            rng_seed=77,
            enforce_separation_c1=2.0,
        )
        [report] = run_scenario(seed, scenario)
        assert report.rejection_rates["overall_ivw"]["dy"] > 0.10
        assert report.rejection_rates["mr_median"]["dy"] > 0.10
        assert report.rejection_rates["mr_egger"]["dy"] > 0.10
        assert report.rejection_rates["focused_ivw"]["dy"] < 0.10


class TestSharedSelector:
    def test_all_methods_use_same_relevance_set(self, rng):
        panel = make_random_panel(rng, p=30)
        tau_s = 0.8
        ivw = overall_ivw(panel, Direction.Y_TO_D, tau_s)
        med = mr_median(panel, Direction.Y_TO_D, tau_s)
        egg = mr_egger(panel, Direction.Y_TO_D, tau_s)
        ids = [panel.ids_at(r.selected) for r in (ivw, med, egg)]
        assert ids[0] == ids[1] == ids[2]
        expected = tuple(
            i
            for i, b, s in zip(panel.ids, panel.beta_y, panel.se_y)
            if abs(b) >= s * tau_s
        )
        assert ids[0] == expected
