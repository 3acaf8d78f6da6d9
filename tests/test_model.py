"""Structural model, instrument classes, and identification diagnostics."""

import numpy as np
import pytest

from bidirmr.errors import InputError
from bidirmr.model import (
    IvClass,
    TruthConfig,
    diagnose_identification,
    direct_effects,
    iv_class_counts,
    iv_class_masks,
    reduced_form,
    reverse_equivalent_truth,
)
from conftest import make_random_truth


def classes_of(truth, zero_tol):
    """Each SNP's class by :func:`iv_class_masks`, which must place it in exactly one."""
    masks = iv_class_masks(truth, zero_tol)
    assert (sum(mask.astype(int) for mask in masks.values()) == 1).all()
    return [next(cls for cls, mask in masks.items() if mask[j]) for j in range(truth.p)]


def truth_of(pi_d, pi_y):
    return TruthConfig(pi_d, pi_y, 0.0, 0.0, [0.1] * len(pi_d), [0.1] * len(pi_d))


def reduced_form_oracle(truth: TruthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Independent route: per-SNP 2x2 linear solve of the equilibrium system."""
    b_matrix = np.array([[1.0, -truth.beta_yd], [-truth.beta_dy, 1.0]])
    stacked = np.column_stack([truth.pi_y, truth.pi_d]) @ np.linalg.inv(b_matrix)
    return stacked[:, 1], stacked[:, 0]  # gamma_d, gamma_y


class TestTruthConfigValidation:
    def test_rejects_nonpositive_se(self):
        with pytest.raises(InputError):
            TruthConfig([1.0], [0.0], 0.1, 0.1, [0.0], [0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            TruthConfig([1.0, 2.0], [0.0], 0.1, 0.1, [0.1, 0.1], [0.1, 0.1])

    def test_rejects_unit_feedback_product(self):
        with pytest.raises(InputError):
            TruthConfig([1.0], [0.0], 2.0, 0.5, [0.1], [0.1])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            TruthConfig([], [], 0.0, 0.0, [], [])


class TestReducedForm:
    def test_no_causation_is_identity(self):
        truth = TruthConfig([0.4, 0.0, -1.0], [0.2, 0.5, 0.0], 0.0, 0.0,
                            [0.1] * 3, [0.1] * 3)
        rf = reduced_form(truth)
        np.testing.assert_array_equal(rf.gamma_d, truth.pi_d)
        np.testing.assert_array_equal(rf.gamma_y, truth.pi_y)

    def test_valid_snp_ratio_identity(self):
        # a SNP acting only on the exposure has outcome/exposure ratio beta_dy
        truth = TruthConfig([0.7], [0.0], 0.3, 0.2, [0.1], [0.1])
        rf = reduced_form(truth)
        assert rf.gamma_y[0] / rf.gamma_d[0] == pytest.approx(0.3, abs=1e-15)
        assert rf.gamma_d[0] == pytest.approx(0.7 / (1.0 - 0.06), rel=1e-15)

    def test_two_snp_case_against_linear_solve(self):
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.3, 0.2, [0.1, 0.1], [0.1, 0.1])
        rf = reduced_form(truth)
        gd, gy = reduced_form_oracle(truth)
        np.testing.assert_allclose(rf.gamma_d, gd, atol=1e-14)
        np.testing.assert_allclose(rf.gamma_y, gy, atol=1e-14)

    def test_random_truths_against_linear_solve(self, rng):
        for _ in range(200):
            truth = make_random_truth(rng)
            rf = reduced_form(truth)
            gd, gy = reduced_form_oracle(truth)
            np.testing.assert_allclose(rf.gamma_d, gd, atol=1e-12)
            np.testing.assert_allclose(rf.gamma_y, gy, atol=1e-12)

    def test_round_trip_inversion(self, rng):
        for _ in range(1000):
            truth = make_random_truth(rng, p=8)
            rf = reduced_form(truth)
            pi_d, pi_y = direct_effects(rf.gamma_d, rf.gamma_y, truth.beta_dy, truth.beta_yd)
            np.testing.assert_allclose(pi_d, truth.pi_d, atol=1e-12)
            np.testing.assert_allclose(pi_y, truth.pi_y, atol=1e-12)

    def test_ratio_identity_over_random_truths(self, rng):
        # outcome/exposure association ratio equals the causal effect on
        # every valid instrument, and symmetrically for the other direction
        for _ in range(1000):
            truth = make_random_truth(rng, p=10)
            rf = reduced_form(truth)
            classes = classes_of(truth, zero_tol=0.0)
            for j, cls in enumerate(classes):
                if cls is IvClass.VALID_DY and rf.gamma_d[j] != 0.0:
                    assert rf.gamma_y[j] / rf.gamma_d[j] == pytest.approx(
                        truth.beta_dy, abs=1e-12
                    )
                if cls is IvClass.VALID_YD and rf.gamma_y[j] != 0.0:
                    assert rf.gamma_d[j] / rf.gamma_y[j] == pytest.approx(
                        truth.beta_yd, abs=1e-12
                    )


class TestClassification:
    def test_examples(self):
        truth = truth_of([0.0, 0.1, 0.0, 0.1], [0.0, 0.0, -0.3, -0.2])
        assert classes_of(truth, 1e-12) == [
            IvClass.NULL, IvClass.VALID_DY, IvClass.VALID_YD, IvClass.PLEIOTROPIC
        ]

    def test_tolerance(self):
        truth = truth_of([1e-13], [0.5])
        assert classes_of(truth, zero_tol=1e-12) == [IvClass.VALID_YD]
        assert classes_of(truth, zero_tol=0.0) == [IvClass.PLEIOTROPIC]

    @pytest.mark.parametrize("zero_tol", [-1e-12, float("nan")])
    def test_tolerance_must_be_nonnegative(self, zero_tol):
        with pytest.raises(InputError, match="zero_tol must be nonnegative"):
            iv_class_masks(truth_of([0.0, 0.1], [0.0, 0.0]), zero_tol)

    def test_counts_partition(self, rng):
        truth = make_random_truth(rng, p=40)
        counts = iv_class_counts(truth, zero_tol=0.0)
        assert sum(counts.values()) == truth.p


class TestDiagnostics:
    def test_valid_rule_fails_with_reverse_effect(self):
        # nonzero reverse effect plus a valid instrument for it makes the
        # forward valid rule impossible
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.0, 0.2, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        assert not report.d_to_y.valid_rule

    def test_valid_rule_holds_without_feedback(self):
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.0, 0.0, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        assert report.d_to_y.valid_rule
        assert report.y_to_d.valid_rule

    def test_rules_never_hold_both_ways_with_feedback(self, rng):
        # with both causal effects nonzero and both valid classes nonempty,
        # none of the three counting rules can hold in both directions
        for _ in range(1000):
            truth = make_random_truth(
                rng,
                p=10,
                beta_dy=float(rng.uniform(0.1, 0.8) * rng.choice([-1, 1])),
                beta_yd=float(rng.uniform(0.1, 0.8) * rng.choice([-1, 1])),
            )
            report = diagnose_identification(truth)
            assert not (report.d_to_y.valid_rule and report.y_to_d.valid_rule)
            assert not (report.d_to_y.majority_rule and report.y_to_d.majority_rule)
            assert not (report.d_to_y.plurality_rule and report.y_to_d.plurality_rule)

    def test_rule_implications(self, rng):
        # valid => majority => plurality within a direction
        for _ in range(500):
            truth = make_random_truth(rng, p=9)
            report = diagnose_identification(truth)
            for diag in (report.d_to_y, report.y_to_d):
                if diag.n_relevant == 0:
                    continue
                if diag.valid_rule:
                    assert diag.majority_rule
                if diag.majority_rule:
                    assert diag.plurality_rule

    def test_majority_boundary(self):
        # exactly half valid is not a majority
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.0, 0.4, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        assert report.d_to_y.n_relevant == 2
        assert report.n_valid_dy == 1
        assert not report.d_to_y.majority_rule

    def test_plurality_tie_reports_false(self):
        # one valid and one invalid relevant SNP: two groups of size one
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.0, 0.4, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        assert report.d_to_y.plurality_defined
        assert not report.d_to_y.plurality_rule

    def test_undefined_flags_with_no_relevant_snps(self):
        truth = TruthConfig([0.0, 0.0], [0.3, 0.4], 0.0, 0.0, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        assert report.d_to_y.n_relevant == 0
        assert not report.d_to_y.plurality_defined
        assert not report.d_to_y.valid_rule

    def test_inside_undefined_for_constant_outcome_effects(self):
        truth = TruthConfig([1.0, -1.0], [0.5, 0.5], 0.1, 0.2, [0.1] * 2, [0.1] * 2)
        report = diagnose_identification(truth)
        # centered outcome direct effects vanish for the forward direction
        assert not report.d_to_y.inside_defined
        assert report.d_to_y.inside_critical_beta is None

    def test_inside_critical_value_kills_inner_product(self, rng):
        # plugging the reported critical value in as the reverse effect makes
        # the covariance between exposure associations and outcome direct
        # effects vanish
        for _ in range(300):
            base = make_random_truth(rng, p=8)
            report = diagnose_identification(base)
            critical = report.d_to_y.inside_critical_beta
            if critical is None or abs(critical * base.beta_dy - 1.0) < 1e-6:
                continue
            tuned = TruthConfig(
                base.pi_d, base.pi_y, base.beta_dy, critical, base.se_d, base.se_y
            )
            rf = reduced_form(tuned)
            centered_gd = rf.gamma_d - rf.gamma_d.mean()
            centered_py = tuned.pi_y - tuned.pi_y.mean()
            assert abs(centered_gd @ centered_py) < 1e-10
            assert diagnose_identification(tuned, zero_tol=1e-9).d_to_y.inside


class TestReverseEquivalentTruth:
    def test_two_snp_example(self):
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.3, 0.2, [0.1] * 2, [0.1] * 2)
        alt = reverse_equivalent_truth(truth)
        assert alt.beta_dy == pytest.approx(1.0 / 0.2)
        assert alt.beta_yd == pytest.approx(1.0 / 0.3)
        rf, rf_alt = reduced_form(truth), reduced_form(alt)
        np.testing.assert_allclose(rf_alt.gamma_d, rf.gamma_d, atol=1e-10)
        np.testing.assert_allclose(rf_alt.gamma_y, rf.gamma_y, atol=1e-10)

    def test_valid_classes_swap(self):
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.3, 0.2, [0.1] * 2, [0.1] * 2)
        alt = reverse_equivalent_truth(truth)
        assert classes_of(alt, 1e-12) == [IvClass.VALID_YD, IvClass.VALID_DY]

    def test_three_snp_mixed_case(self, rng):
        truth = TruthConfig(
            [1.0, 0.0, 0.4], [0.0, 1.0, -0.6], 0.25, -0.4, [0.1] * 3, [0.1] * 3
        )
        alt = reverse_equivalent_truth(truth)
        rf, rf_alt = reduced_form(truth), reduced_form(alt)
        np.testing.assert_allclose(rf_alt.gamma_d, rf.gamma_d, atol=1e-10)
        np.testing.assert_allclose(rf_alt.gamma_y, rf.gamma_y, atol=1e-10)

    def test_random_truths_reproduce_reduced_form(self, rng):
        for _ in range(300):
            truth = make_random_truth(
                rng,
                beta_dy=float(rng.uniform(0.05, 0.8) * rng.choice([-1, 1])),
                beta_yd=float(rng.uniform(0.05, 0.8) * rng.choice([-1, 1])),
            )
            alt = reverse_equivalent_truth(truth)
            rf, rf_alt = reduced_form(truth), reduced_form(alt)
            np.testing.assert_allclose(rf_alt.gamma_d, rf.gamma_d, atol=1e-10)
            np.testing.assert_allclose(rf_alt.gamma_y, rf.gamma_y, atol=1e-10)

    def test_rejects_one_directional_truth(self):
        truth = TruthConfig([1.0, 0.0], [0.0, 1.0], 0.3, 0.0, [0.1] * 2, [0.1] * 2)
        with pytest.raises(InputError):
            reverse_equivalent_truth(truth)

    def test_rejects_missing_valid_class(self):
        truth = TruthConfig([1.0, 0.5], [0.0, 0.7], 0.3, 0.2, [0.1] * 2, [0.1] * 2)
        with pytest.raises(InputError):
            reverse_equivalent_truth(truth)
