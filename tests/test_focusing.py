"""Focused-set selection, post-selection tests, and their statistical behavior."""

import math

import numpy as np
import pytest

from bidirmr import focusing
from bidirmr.errors import (
    EmptyFocusedSetError,
    EmptyRelevantSetError,
    InputError,
    ZeroDenominatorError,
)
from bidirmr.focusing import (
    Direction,
    FocusConfig,
    Method,
    Panel,
    check_separation,
    direction_rows,
    focused_mask,
    power_forecast,
)
from bidirmr.focusing import test_direction as run_direction_test
from bidirmr.focusing import test_joint_null as run_joint_test
from bidirmr.model import TruthConfig, iv_class_masks, IvClass
from bidirmr.simulation import (
    ScenarioConfig,
    enforce_separation,
    generate_truth,
    run_scenario,
    simulate_panel,
    synthetic_seed,
)
from bidirmr.truncnorm import TruncSpec, std_cdf, std_quantile, std_sf, truncnorm_var
from conftest import make_random_panel


def wls_through_origin(x, y, weights):
    """Independent WLS oracle via a QR least-squares solve."""
    sw = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq((sw * x)[:, None], sw * y, rcond=None)
    return float(coef[0])


def explicit_cfg(tau_f=1.5, tau_s=0.0, alpha=0.05):
    return FocusConfig(tau_f=tau_f, tau_s=tau_s, alpha=alpha)


def focused_set(panel, direction, cfg):
    """Ids of the focused set, in panel order."""
    return panel.ids_at(focused_mask(panel, direction, cfg))


class TestPanel:
    def test_requires_unique_ids(self):
        with pytest.raises(InputError):
            Panel.from_arrays(["a", "a"], [0.1, 0.2], [0.1, 0.1], [0.0, 0.0], [0.1, 0.1])

    def test_requires_positive_se(self):
        with pytest.raises(InputError):
            Panel.from_arrays(["a"], [0.1], [0.0], [0.0], [0.1])

    def test_from_arrays_round_trip(self):
        panel = Panel.from_arrays(["a", "b"], [0.5, -0.2], [0.1, 0.05], [0.01, 0.3], [0.1, 0.2])
        assert panel.ids == ("a", "b")
        for name, want in (
            ("beta_d", [0.5, -0.2]), ("se_d", [0.1, 0.05]), ("beta_y", [0.01, 0.3]), ("se_y", [0.1, 0.2])
        ):
            column = getattr(panel, name)
            assert column.dtype == np.float64 and column.tolist() == want

    def test_immutable(self):
        panel = Panel.from_arrays(["a"], [0.1], [0.1], [0.0], [0.1])
        with pytest.raises(AttributeError):
            panel.ids = ("b",)
        with pytest.raises(ValueError):
            panel.beta_d[0] = 1.0

    def test_from_arrays_validates_the_columns(self):
        with pytest.raises(InputError, match="beta_d must have length 2"):
            Panel.from_arrays(["a", "b"], [1.0], [0.1, 0.3], [3.0, 4.0], [0.2, 0.1])
        with pytest.raises(InputError, match="beta_y must be finite"):
            Panel.from_arrays(["a", "b"], [1.0, 2.0], [0.1, 0.3], [3.0, math.nan], [0.2, 0.1])

    def test_ids_at_mask_in_panel_order(self):
        panel = Panel.from_arrays(["c", "a", "b"], [0.1] * 3, [0.1] * 3, [0.0] * 3, [0.1] * 3)
        assert panel.ids_at(np.array([True, False, True])) == ("c", "b")
        assert panel.ids_at(np.zeros(3, dtype=bool)) == ()

    def test_indices_of_in_the_given_order(self):
        panel = Panel.from_arrays(["c", "a", "b"], [0.1] * 3, [0.1] * 3, [0.0] * 3, [0.1] * 3)
        assert panel.indices_of(["b", "c"]).tolist() == [2, 0]
        assert panel.indices_of([]).dtype == np.intp
        with pytest.raises(InputError, match="must not contain duplicates"):
            panel.indices_of(["a", "a"])
        with pytest.raises(InputError, match="SNP id 'd' is not in the panel"):
            panel.indices_of(["a", "d"])


class TestFocusedSet:
    def test_inclusion_example(self):
        panel = Panel.from_arrays(["a"], [0.5], [0.1], [0.01], [0.1])
        cfg = explicit_cfg(tau_f=1.5, tau_s=2.0)
        assert focused_set(panel, Direction.D_TO_Y, cfg) == ("a",)

    def test_large_outcome_association_excluded(self):
        panel = Panel.from_arrays(["a"], [5.0], [0.1], [0.5], [0.1])
        cfg = explicit_cfg(tau_f=1.5, tau_s=0.0)
        assert focused_set(panel, Direction.D_TO_Y, cfg) == ()

    def test_boundaries_inclusive(self):
        # |beta_y| == se_y * tau_f and |beta_d| == se_d * tau_s both pass
        panel = Panel.from_arrays(["a"], [0.2], [0.1], [0.15], [0.1])
        cfg = explicit_cfg(tau_f=1.5, tau_s=2.0)
        assert focused_set(panel, Direction.D_TO_Y, cfg) == ("a",)

    def test_direction_swaps_roles(self):
        panel = Panel.from_arrays(["a", "b"], [0.01, 0.9], [0.1, 0.1], [0.9, 0.01], [0.1, 0.1])
        cfg = explicit_cfg(tau_f=1.5, tau_s=1.0)
        assert focused_set(panel, Direction.D_TO_Y, cfg) == ("b",)
        assert focused_set(panel, Direction.Y_TO_D, cfg) == ("a",)

    def test_monotone_in_thresholds(self, rng):
        panel = make_random_panel(rng, p=80)
        for _ in range(20):
            tau_f_lo, tau_f_hi = sorted(rng.uniform(0.2, 3.0, 2))
            tau_s_lo, tau_s_hi = sorted(rng.uniform(0.0, 3.0, 2))
            for direction in Direction:
                wide = set(focused_set(panel, direction, explicit_cfg(tau_f_hi, tau_s_lo)))
                assert set(focused_set(panel, direction, explicit_cfg(tau_f_lo, tau_s_lo))) <= wide
                assert set(focused_set(panel, direction, explicit_cfg(tau_f_hi, tau_s_hi))) <= wide

    def test_one_over_p_rule(self):
        p = 100
        panel = make_random_panel(np.random.default_rng(0), p=p)
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        assert cfg.resolve_tau_s(p) == pytest.approx(std_quantile(1.0 - 1.0 / p), abs=1e-12)
        focused_set(panel, Direction.D_TO_Y, cfg)  # smoke: rule resolves inside selection

    def test_explicit_tau_s_is_used_as_given(self):
        assert FocusConfig().tau_s is None
        assert FocusConfig(tau_s=2.0).resolve_tau_s(100) == 2.0
        assert FocusConfig(tau_s=0.0).resolve_tau_s(1) == 0.0


# Focusing off and relevance screening off: the set is every SNP (minus zero exposure betas).
EVERY_SNP = FocusConfig(tau_f=math.inf, tau_s=0.0)


def one_snp_panel(weight):
    """One SNP with IVW weight ``(beta_d / se_y)^2 == weight`` and a null outcome beta."""
    return Panel.from_arrays(["a"], [math.sqrt(weight)], [0.1], [0.0], [1.0])


class TestEstimators:
    def test_single_snp_ratio(self):
        panel = Panel.from_arrays(["a"], [0.5], [0.1], [0.15], [0.2])
        report = run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP)
        assert report.estimate == pytest.approx(0.3, abs=1e-15)

    def test_equal_weights_average_ratios(self):
        # same |beta_d| and se_y -> equal weights, estimate is the mean ratio
        panel = Panel.from_arrays(
            ["a", "b"], [0.5, 0.5], [0.1, 0.1], [0.1, 0.2], [0.1, 0.1]
        )
        report = run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP)
        assert report.estimate == pytest.approx(0.3, abs=1e-14)
        assert report.weight_sum == pytest.approx(2 * 0.5**2 / 0.1**2, rel=1e-12)

    def test_ivw_equals_wls_through_origin(self, rng):
        for _ in range(100):
            panel = make_random_panel(rng, p=50)
            report = run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP)
            assert report.focused_size == len(panel)
            oracle = wls_through_origin(panel.beta_d, panel.beta_y, 1.0 / panel.se_y**2)
            assert report.estimate == pytest.approx(oracle, abs=1e-12)

    def test_ivw_zero_denominator(self):
        panel = Panel.from_arrays(["a", "b"], [0.0, 0.5], [0.1, 0.1], [0.1, 0.1], [0.1, 0.1])
        with pytest.raises(ZeroDenominatorError):
            run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP, Method.OVERALL_IVW)

    def test_ivw_empty_set(self):
        # no SNP passes: the focused IVW rejects outright, the overall IVW has no set
        beta, se = np.array([[0.5]]), np.array([0.1])
        rows = direction_rows(beta, se, beta, se, FocusConfig(tau_f=1.5), 0.0)
        assert rows.size[0] == 0 and rows.empty_reject[0] and not rows.errors
        assert np.isnan(rows.estimate[0]) and np.isnan(rows.weight_sum[0])
        rows = direction_rows(beta, se, beta, se, EVERY_SNP, 10.0, Method.OVERALL_IVW)
        assert isinstance(rows.errors[0], EmptyRelevantSetError)

    def test_median_odd_and_even(self):
        panel = Panel.from_arrays(
            ["a", "b", "c"], [1.0, 1.0, 1.0], [0.1] * 3, [0.1, 0.3, 0.5], [0.1] * 3
        )
        pair = Panel.from_arrays(["a", "b"], [1.0, 1.0], [0.1] * 2, [0.1, 0.3], [0.1] * 2)
        for p, want in ((panel, 0.3), (pair, 0.2)):
            report = run_direction_test(p, Direction.D_TO_Y, EVERY_SNP, Method.MR_MEDIAN)
            assert report.estimate == pytest.approx(want)

    def test_median_matches_sort_oracle(self, rng):
        panel = make_random_panel(rng, p=50)
        got = run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP, Method.MR_MEDIAN)
        ratios = sorted(panel.beta_y / panel.beta_d)
        oracle = (ratios[24] + ratios[25]) / 2.0
        assert got.focused_size == 50 and got.estimate == oracle


class TestNullSd:
    """The IVW null scale ``sqrt(null_var / weight_sum)``, as :func:`test_direction` reports it."""

    def null_sd(self, weight, tau_f):
        cfg = FocusConfig(tau_f=tau_f, tau_s=0.0)
        return run_direction_test(one_snp_panel(weight), Direction.D_TO_Y, cfg).null_sd

    def test_untruncated_unit(self):
        assert self.null_sd(1.0, math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_truncated_value(self):
        expected = math.sqrt(0.5515244157615513 / 4.0)
        assert self.null_sd(4.0, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_inverse_square_root_scaling(self):
        assert self.null_sd(100.0, 1.5) == pytest.approx(self.null_sd(1.0, 1.5) / 10.0, rel=1e-12)

    def test_rejects_nonpositive_weight(self):
        # (1e-200 / 1)^2 underflows: the weights sum to zero and leave no scale
        panel = Panel.from_arrays(["a"], [1e-200], [1.0], [0.0], [1.0])
        with pytest.raises(ZeroDenominatorError, match="underflow"):
            run_direction_test(panel, Direction.D_TO_Y, EVERY_SNP)

    def test_config_null_var_is_the_truncated_variance(self):
        for tau_f in (0.5, 1.5, math.inf):
            cfg = FocusConfig(tau_f=tau_f)
            assert cfg.null_var == truncnorm_var(TruncSpec(-tau_f, tau_f, 0.0))
            assert math.sqrt(cfg.null_var / 4.0) == self.null_sd(4.0, tau_f)


class TestBootstrapMedianSd:
    @pytest.mark.parametrize("block_values", [1, 7, 64, 37 * 301, 1 << 20])
    def test_blocks_match_one_gather(self, monkeypatch, block_values):
        # reference: medians of the whole (n_boot x n) resample gathered at once
        ratios = np.random.default_rng(4).normal(size=37)
        idx = np.random.default_rng(9).integers(0, ratios.size, size=(301, ratios.size))
        lo, hi = np.quantile(np.median(ratios[idx], axis=1), (std_cdf(-1.0), std_cdf(1.0)))
        monkeypatch.setattr(focusing, "_BOOT_BLOCK_VALUES", block_values)
        sd = focusing.bootstrap_median_sd(ratios, np.random.default_rng(9), n_boot=301)
        assert sd == float((hi - lo) / 2.0)

    def test_leaves_input_untouched(self):
        ratios = np.random.default_rng(4).normal(size=25)
        before = ratios.copy()
        focusing.bootstrap_median_sd(ratios, np.random.default_rng(1), n_boot=50)
        np.testing.assert_array_equal(ratios, before)

    @pytest.mark.parametrize(
        "ratios",
        [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 2.0, [[0.5]], [1.0, np.nan]],
        ids=["2-d", "0-d", "one-by-one", "nan"],
    )
    def test_rejects_what_the_exact_law_rejects(self, ratios):
        with pytest.raises(InputError):
            focusing.exact_bootstrap_median_sd(ratios)
        with pytest.raises(InputError):
            focusing.bootstrap_median_sd(ratios, np.random.default_rng(1), n_boot=50)


class TestTestDirection:
    def test_empty_set_rejects_with_flag(self):
        panel = Panel.from_arrays(["a"], [0.5], [0.1], [5.0], [0.1])
        report = run_direction_test(panel, Direction.D_TO_Y, explicit_cfg())
        assert report.reject and report.empty_set_reject
        assert report.p_value == 0.0
        assert report.estimate is None and report.null_sd is None
        assert report.focused_size == 0

    def test_ivw_z_and_p(self):
        panel = Panel.from_arrays(
            ["a", "b"], [1.0, 1.0], [0.1, 0.1], [1.5, 0.65], [1.0, 1.0]
        )
        cfg = explicit_cfg(tau_f=1.5, tau_s=0.1)
        report = run_direction_test(panel, Direction.D_TO_Y, cfg)
        assert panel.ids_at(report.selected) == ("a", "b")
        assert report.estimate == pytest.approx(1.075, abs=1e-12)
        expected_sd = math.sqrt(truncnorm_var(TruncSpec(-1.5, 1.5, 0.0)) / 2.0)
        assert report.null_sd == pytest.approx(expected_sd, rel=1e-12)
        assert report.p_value == pytest.approx(2.0 * std_sf(1.075 / expected_sd), rel=1e-12)
        assert report.reject == (report.p_value <= 0.05)

    def test_reject_iff_p_below_alpha(self, rng):
        for _ in range(50):
            panel = make_random_panel(rng, p=30)
            report = run_direction_test(panel, Direction.Y_TO_D, explicit_cfg(tau_s=0.5))
            assert report.reject == (report.empty_set_reject or report.p_value <= report.alpha)

    def test_zero_denominator_dropped_and_counted(self):
        panel = Panel.from_arrays(
            ["a", "b"], [0.0, 0.5], [0.1, 0.1], [0.05, 0.05], [0.1, 0.1]
        )
        report = run_direction_test(panel, Direction.D_TO_Y, explicit_cfg(tau_s=0.0))
        assert report.n_dropped_zero_denom == 1
        assert panel.ids_at(report.selected) == ("b",)

    def test_median_of_one_snp_has_zero_scale(self):
        # a single ratio resamples to itself: zero scale, a nonzero median rejects
        panel = Panel.from_arrays(["a"], [0.5], [0.1], [0.05], [0.1])
        report = run_direction_test(
            panel, Direction.D_TO_Y, explicit_cfg(), Method.FOCUSED_MEDIAN
        )
        assert report.estimate == pytest.approx(0.1, abs=1e-15)
        assert report.null_sd == 0.0
        assert report.z_score is None
        assert report.p_value == 0.0 and report.reject

    def test_median_with_underflowing_weights_reports_no_share(self):
        # (1e-200 / 1)^2 underflows: the weights sum to zero
        panel = Panel.from_arrays(["a", "b"], [1e-200, -1e-190], [1.0, 1.0], [0.0, 0.3], [1.0, 2.0])
        cfg = FocusConfig(tau_f=math.inf, tau_s=0.0, alpha=0.5)
        runs = [
            run_direction_test(panel, Direction.D_TO_Y, cfg, Method.FOCUSED_MEDIAN)
            for _ in range(2)
        ]
        assert runs[0].weight_sum == 0.0
        assert runs[0].max_weight_share is None
        assert runs[0] == runs[1]

    def test_median_bootstrap_deterministic(self, rng):
        panel = make_random_panel(rng, p=40)
        cfg = explicit_cfg(tau_s=0.2)
        r1 = run_direction_test(panel, Direction.D_TO_Y, cfg, Method.FOCUSED_MEDIAN)
        r2 = run_direction_test(panel, Direction.D_TO_Y, cfg, Method.FOCUSED_MEDIAN)
        assert r1 == r2
        np.testing.assert_array_equal(r1.selected, r2.selected)
        assert r1.bootstrap_inference

    def test_scale_equivariance(self, rng):
        # scaling the outcome trait by c scales estimate and null_sd by c
        # and leaves the focused set, z and p unchanged
        panel = make_random_panel(rng, p=40)
        c = 3.7
        scaled = Panel.from_arrays(
            panel.ids, panel.beta_d, panel.se_d, c * panel.beta_y, c * panel.se_y
        )
        cfg = explicit_cfg(tau_s=0.3)
        base = run_direction_test(panel, Direction.D_TO_Y, cfg)
        scale = run_direction_test(scaled, Direction.D_TO_Y, cfg)
        assert scaled.ids_at(scale.selected) == panel.ids_at(base.selected)
        assert scale.estimate == pytest.approx(c * base.estimate, rel=1e-12)
        assert scale.null_sd == pytest.approx(c * base.null_sd, rel=1e-12)
        assert scale.weight_sum == pytest.approx(base.weight_sum / c**2, rel=1e-12)
        assert scale.z_score == pytest.approx(base.z_score, rel=1e-12)
        assert scale.p_value == pytest.approx(base.p_value, rel=1e-12)


class TestJointNull:
    def _symmetric_panel(self, z_hi, z_lo):
        # two SNPs per direction whose focused IVW z-score is
        # (z_hi + z_lo) / sqrt(2 * var_trunc) by construction
        return Panel.from_arrays(
            ["a", "b", "c", "d"],
            [1.0, 1.0, 0.15 * z_hi / 1.5, 0.15 * z_lo / 1.5],
            [0.1, 0.1, 0.1, 0.1],
            [z_hi, z_lo, 1.0, 1.0],
            [1.0, 1.0, 0.1, 0.1],
        )

    def test_borderline_p_rejected_alone_but_not_jointly(self):
        # both directional p-values near 0.04: each direction rejects at
        # alpha = 0.05 but not at the Bonferroni level 0.025
        panel = self._symmetric_panel(1.5, 0.65)
        cfg = explicit_cfg(tau_f=1.5, tau_s=0.1)
        dy = run_direction_test(panel, Direction.D_TO_Y, cfg)
        yd = run_direction_test(panel, Direction.Y_TO_D, cfg)
        assert 0.025 < dy.p_value <= 0.05
        assert 0.025 < yd.p_value <= 0.05
        assert dy.reject and yd.reject
        joint = run_joint_test(panel, cfg)
        assert not joint.reject
        assert joint.d_to_y.alpha == pytest.approx(0.025)

    def test_small_p_rejects_jointly(self):
        panel = self._symmetric_panel(1.5, 1.45)
        cfg = explicit_cfg(tau_f=1.5, tau_s=0.1)
        joint = run_joint_test(panel, cfg)
        assert joint.d_to_y.p_value <= 0.025
        assert joint.reject


class TestPowerForecast:
    # the threshold is the quantile of alpha / 2, exact where 1 - alpha / 2 rounds
    @pytest.mark.parametrize("alpha", [0.05, 1e-10, 1e-17])
    def test_null_signal_recovers_alpha(self, rng, alpha):
        panel = make_random_panel(rng, p=20)
        cfg = explicit_cfg(tau_f=1.5, tau_s=0.0, alpha=alpha)
        mask = panel.beta_d != 0.0
        forecast = power_forecast(panel, mask, np.zeros(len(panel)), cfg)
        assert forecast.mu_alt == pytest.approx(0.0, abs=1e-15)
        weight_sum = np.sum((panel.beta_d[mask] / panel.se_y[mask]) ** 2)
        expected_sigma = math.sqrt(
            truncnorm_var(TruncSpec(-1.5, 1.5, 0.0)) / weight_sum
        )
        assert forecast.sigma_alt == pytest.approx(expected_sigma, rel=1e-12)
        assert forecast.predicted_power == pytest.approx(alpha, rel=1e-11, abs=0.0)

    def test_reads_the_snr_under_the_mask(self, rng):
        panel = make_random_panel(rng, p=20)
        cfg = explicit_cfg()
        mask = np.arange(20) % 3 == 0
        snr = rng.uniform(0.5, 1.0, 20)
        sub = Panel.from_arrays(*(np.asarray(c)[mask] for c in (
            panel.ids, panel.beta_d, panel.se_d, panel.beta_y, panel.se_y)))
        whole = power_forecast(sub, np.ones(mask.sum(), dtype=bool), snr[mask], cfg)
        assert power_forecast(panel, mask, snr, cfg) == whole

    @pytest.mark.parametrize("beta_d", [(1e-200, -1e-190), (1e200, 1e190)])
    def test_degenerate_weights_are_a_zero_denominator(self, beta_d):
        # (1e-200 / 1)^2 underflows to zero; (1e200 / 1)^2 overflows
        panel = Panel.from_arrays(["a", "b"], beta_d, [1, 1], [0, 0.3], [1, 2])
        cfg = FocusConfig(tau_f=math.inf, tau_s=0.0)
        with pytest.raises(ZeroDenominatorError):
            power_forecast(panel, np.ones(2, dtype=bool), np.zeros(2), cfg)

    def test_missing_snr_entry(self, rng):
        panel = make_random_panel(rng, p=5)
        cfg = explicit_cfg()
        with pytest.raises(InputError, match="snr must have length 5"):
            power_forecast(panel, np.ones(5, dtype=bool), np.zeros(4), cfg)

    def test_mask_errors(self, rng):
        panel = Panel.from_arrays(["a", "b"], [0.0, 0.5], [0.1, 0.1], [0.1, 0.1], [0.1, 0.1])
        cfg, snr = explicit_cfg(), np.zeros(2)
        for bad in ([True], np.array([1, 1]), np.ones((1, 2), dtype=bool)):
            with pytest.raises(InputError, match="boolean mask of length 2"):
                power_forecast(panel, bad, snr, cfg)
        with pytest.raises(EmptyFocusedSetError):
            power_forecast(panel, np.zeros(2, dtype=bool), snr, cfg)
        with pytest.raises(ZeroDenominatorError, match="nonzero exposure"):
            power_forecast(panel, np.ones(2, dtype=bool), snr, cfg)


class TestCheckSeparation:
    def _truth(self, snr):
        # one direct outcome effect with the given signal-to-noise ratio,
        # p = 400 candidates
        p = 400
        pi_y = np.zeros(p)
        pi_y[0] = snr * 0.1
        return TruthConfig(np.ones(p), pi_y, 0.0, 0.0, np.full(p, 0.1), np.full(p, 0.1))

    def test_vacuous_when_no_outcome_effects(self):
        truth = TruthConfig([1.0], [0.0], 0.0, 0.0, [0.1], [0.1])
        assert check_separation(truth, explicit_cfg(tau_f=1.5), c1=100.0)

    def test_direct_evaluation(self):
        cfg = explicit_cfg(tau_f=1.5)
        # threshold c1 * 1.5 * sqrt(log 400) is ~3.67 at c1=1, ~11.0 at c1=3
        assert check_separation(self._truth(10.0), cfg, c1=1.0)
        assert not check_separation(self._truth(10.0), cfg, c1=3.0)

    @pytest.mark.parametrize("c1", [-1.0, 0.0, math.nan])
    def test_rejects_nonpositive_c1(self, c1):
        # as enforce_separation does, also where no outcome effect is active
        for truth in (self._truth(10.0), TruthConfig([1.0], [0.0], 0.0, 0.0, [0.1], [0.1])):
            with pytest.raises(InputError, match="c1 must be positive"):
                check_separation(truth, explicit_cfg(), c1=c1)


class TestSamplingBehavior:
    """Monte-Carlo properties of the focused tests on simulated panels."""

    def test_focused_set_excludes_outcome_affected_snps(self):
        # with well-separated direct effects the focused set contains no SNP
        # from the outcome-affected classes in at least 99% of replications
        seed = synthetic_seed(250, np.random.default_rng(8))
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        clean = 0
        reps = 300
        for i in range(reps):
            rng = np.random.default_rng(1000 + i)
            truth = generate_truth(seed, 1.0, rng)
            truth = enforce_separation(truth, cfg, c1=2.0)
            assert check_separation(truth, cfg, c1=2.0)
            panel = simulate_panel(truth, rng)
            masks = iv_class_masks(truth, zero_tol=0.0)
            invalid = masks[IvClass.VALID_YD] | masks[IvClass.PLEIOTROPIC]
            clean += not invalid[focused_mask(panel, Direction.D_TO_Y, cfg)].any()
        assert clean / reps >= 0.99

    def test_power_at_least_alpha_across_effect_grid(self):
        # the test is empirically unbiased: rejection rate under any nonzero
        # effect stays above alpha minus a small margin
        seed = synthetic_seed(394, np.random.default_rng(1))
        for rng_seed, beta in enumerate((-0.3, -0.1, -0.05, 0.05, 0.1, 0.3), start=3601):
            scenario = ScenarioConfig(
                kappa=1.0,
                cells=((beta, 0.0),),
                n_reps=400,
                focus=FocusConfig(tau_f=1.5, alpha=0.05),
                methods=(Method.FOCUSED_IVW,),
                rng_seed=rng_seed,
                enforce_separation_c1=2.0,
            )
            [report] = run_scenario(seed, scenario)
            assert report.rejection_rates["focused_ivw"]["dy"] >= 0.05 - 0.01

    def test_joint_null_type_i_at_most_nominal(self):
        # Bonferroni joint test of the no-effect null: empirical size stays
        # at or below the level, up to Monte-Carlo noise
        seed = synthetic_seed(394, np.random.default_rng(5))
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        reps, rejections = 2000, 0
        for i in range(reps):
            rng = np.random.default_rng(90_000 + i)
            truth = enforce_separation(generate_truth(seed, 1.0, rng), cfg, 2.0)
            panel = simulate_panel(truth, rng)
            rejections += run_joint_test(panel, cfg).reject
        rate = rejections / reps
        assert rate <= 0.05 + 2.6 * math.sqrt(0.05 * 0.95 / reps)

    def test_power_monotone_in_mean_snr(self):
        # equal-SNR panels: rejection rate is nondecreasing in the common
        # outcome signal-to-noise level, up to one binomial standard error
        p, snr_d, reps = 60, 8.0, 800
        se = np.full(p, 0.01)
        pi_d = np.full(p, snr_d * 0.01)
        powers = []
        for mu_bar in (0.0, 0.1, 0.2, 0.4):
            beta = mu_bar / snr_d
            truth = TruthConfig(pi_d, np.zeros(p), beta, 0.0, se, se)
            cfg = FocusConfig(tau_f=1.5, alpha=0.05)
            rejected = 0
            for i in range(reps):
                panel = simulate_panel(truth, np.random.default_rng(7000 + i))
                rejected += run_direction_test(panel, Direction.D_TO_Y, cfg).reject
            powers.append(rejected / reps)
        ses = [math.sqrt(max(q * (1 - q), 1e-4) / reps) for q in powers]
        for lo, hi, se_lo, se_hi in zip(powers, powers[1:], ses, ses[1:]):
            assert hi >= lo - math.hypot(se_lo, se_hi)
