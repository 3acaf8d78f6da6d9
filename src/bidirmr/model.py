"""Bi-directional structural model, instrument taxonomy, and identification diagnostics.

The two-trait model lets each trait causally affect the other while every SNP
may directly affect either trait. Writing ``pi_d``/``pi_y`` for the direct
SNP effects and ``beta_dy``/``beta_yd`` for the two causal effects, the
marginal (reduced-form) associations observable in GWAS summary data are

    gamma_y = (pi_y + pi_d * beta_dy) / (1 - beta_dy * beta_yd)
    gamma_d = (pi_d + pi_y * beta_yd) / (1 - beta_dy * beta_yd)

Each SNP falls into one of four classes depending on which direct effects are
nonzero, and the classical identification conditions (valid / majority /
plurality rule, InSIDE) can be evaluated exactly from a known ground truth.
That is what this module does; it never touches individual-level data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError, _number, _vectors

__all__ = [
    "DiagnosticsReport",
    "DirectionDiagnostics",
    "IvClass",
    "ReducedForm",
    "TruthConfig",
    "diagnose_identification",
    "direct_effects",
    "iv_class_masks",
    "reduced_form",
    "reverse_equivalent_truth",
]


def _causal_pair(beta_dy, beta_yd) -> tuple[float, float]:
    """``(beta_dy, beta_yd)`` as floats: both finite, with a product other than 1."""
    beta_dy = _number("beta_dy", beta_dy, np.isfinite, "a finite number")
    beta_yd = _number("beta_yd", beta_yd, np.isfinite, "a finite number")
    if beta_dy * beta_yd == 1.0:
        raise InputError(f"beta_dy * beta_yd must be other than 1, got {beta_dy!r} * {beta_yd!r}")
    return beta_dy, beta_yd


@dataclass(frozen=True, eq=False)
class TruthConfig:
    """Ground-truth parameters of the bi-directional model for ``p`` SNPs.

    Attributes
    ----------
    pi_d, pi_y:
        Direct SNP effects on each trait, length ``p``.
    beta_dy, beta_yd:
        Causal effect of the first trait on the second and vice versa;
        their product must differ from 1 or the equilibrium is undefined.
    se_d, se_y:
        Positive standard errors of the marginal association estimates,
        length ``p``.
    """

    pi_d: np.ndarray
    pi_y: np.ndarray
    beta_dy: float
    beta_yd: float
    se_d: np.ndarray
    se_y: np.ndarray

    def __post_init__(self):
        _vectors(
            self, None, ("se_d", "se_y"),
            pi_d=self.pi_d, pi_y=self.pi_y, se_d=self.se_d, se_y=self.se_y,
        )
        beta_dy, beta_yd = _causal_pair(self.beta_dy, self.beta_yd)
        object.__setattr__(self, "beta_dy", beta_dy)
        object.__setattr__(self, "beta_yd", beta_yd)

    @property
    def p(self) -> int:
        return self.pi_d.size


class IvClass(Enum):
    """Mutually exclusive SNP classes by which direct effects are nonzero."""

    NULL = "null"
    VALID_DY = "valid_dy"
    VALID_YD = "valid_yd"
    PLEIOTROPIC = "pleiotropic"


def iv_class_masks(truth: TruthConfig, zero_tol: float = 1e-12) -> dict[IvClass, np.ndarray]:
    """Boolean membership mask per class, each of length ``truth.p``."""
    return _class_masks(truth.pi_d, truth.pi_y, zero_tol)


def _class_masks(pi_d: np.ndarray, pi_y: np.ndarray, zero_tol: float) -> dict[IvClass, np.ndarray]:
    """:func:`iv_class_masks` on direct-effect arrays of any matching shape, e.g. (R, p)."""
    _number("zero_tol", zero_tol, lambda x: x >= 0.0, "nonnegative")
    d_zero = np.abs(pi_d) <= zero_tol
    y_zero = np.abs(pi_y) <= zero_tol
    return {
        IvClass.NULL: d_zero & y_zero,
        IvClass.VALID_DY: ~d_zero & y_zero,
        IvClass.VALID_YD: d_zero & ~y_zero,
        IvClass.PLEIOTROPIC: ~d_zero & ~y_zero,
    }


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """Marginal SNP-trait associations induced by a :class:`TruthConfig`."""

    gamma_d: np.ndarray
    gamma_y: np.ndarray


def reduced_form(truth: TruthConfig) -> ReducedForm:
    """Map direct effects to the marginal associations of both traits; an overflow is an error."""
    gamma_d = _marginal_effect(truth.pi_d, truth.pi_y, truth.beta_yd, truth.beta_dy)
    gamma_y = _marginal_effect(truth.pi_y, truth.pi_d, truth.beta_dy, truth.beta_yd)
    if not (np.isfinite(gamma_d).all() and np.isfinite(gamma_y).all()):
        raise _not_finite(truth.beta_dy, truth.beta_yd)
    gamma_y.setflags(write=False)
    gamma_d.setflags(write=False)
    return ReducedForm(gamma_d=gamma_d, gamma_y=gamma_y)


def _marginal_effect(pi: np.ndarray, pi_other: np.ndarray, beta_in: float, beta_out: float):
    """One trait's gamma of :func:`reduced_form` from its and the other's direct effects,
    on arrays of any matching shape, with inf where it overflows; the callers check it.
    At a zero ``beta_in``, the other's effect on it, the result does not depend on a
    finite ``beta_out``, its effect on the other, bit for bit: the denominator is 1."""
    with np.errstate(over="ignore"):
        return (pi + pi_other * beta_in) / (1.0 - beta_out * beta_in)


def _not_finite(beta_dy: float, beta_yd: float) -> InputError:
    return InputError(
        f"beta_dy={beta_dy!r} and beta_yd={beta_yd!r} give a reduced form that is not finite"
    )


def direct_effects(
    gamma_d: np.ndarray, gamma_y: np.ndarray, beta_dy: float, beta_yd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`reduced_form` for given causal effects.

    Substituting the marginal equations into the structural ones gives the
    exact inversion ``pi_y = gamma_y - beta_dy * gamma_d`` and
    ``pi_d = gamma_d - beta_yd * gamma_y``.
    """
    gamma_d = np.asarray(gamma_d, dtype=float)
    gamma_y = np.asarray(gamma_y, dtype=float)
    pi_y = gamma_y - beta_dy * gamma_d
    pi_d = gamma_d - beta_yd * gamma_y
    return pi_d, pi_y


@dataclass(frozen=True)
class DirectionDiagnostics:
    """Identification checks for one causal direction.

    ``n_relevant`` counts SNPs marginally associated with the exposure of
    this direction. ``plurality_defined`` is False when there is no relevant
    SNP to take a mode over; ``inside_defined`` is False when the centered
    direct effects on the outcome vanish, leaving no critical value.
    """

    n_relevant: int
    valid_rule: bool
    majority_rule: bool
    plurality_rule: bool
    plurality_defined: bool
    inside: bool
    inside_defined: bool
    inside_critical_beta: float | None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Class counts plus per-direction identification diagnostics."""

    n_null: int
    n_valid_dy: int
    n_valid_yd: int
    n_pleiotropic: int
    d_to_y: DirectionDiagnostics
    y_to_d: DirectionDiagnostics


def _mode_is_zero(ratios: np.ndarray, zero_tol: float) -> bool:
    # Group ratios by rounding to the nearest multiple of zero_tol; the
    # plurality rule needs the zero group to be the strict unique maximizer.
    if zero_tol > 0.0:
        keys = np.round(ratios / zero_tol)
    else:
        keys = ratios
    counts = Counter(keys.tolist())
    zero_count = counts.get(0.0, 0)
    if zero_count == 0:
        return False
    return all(c < zero_count for key, c in counts.items() if key != 0.0)


def _diagnose_direction(
    exposure_gamma: np.ndarray,
    outcome_pi: np.ndarray,
    exposure_pi: np.ndarray,
    reverse_beta: float,
    n_valid: int,
    zero_tol: float,
) -> DirectionDiagnostics:
    relevant = np.abs(exposure_gamma) > zero_tol
    n_relevant = int(relevant.sum())
    valid_class = (np.abs(exposure_pi) > zero_tol) & (np.abs(outcome_pi) <= zero_tol)

    valid_rule = n_relevant > 0 and bool(np.array_equal(relevant, valid_class))
    majority_rule = n_valid > n_relevant / 2.0

    if n_relevant > 0:
        ratios = outcome_pi[relevant] / exposure_gamma[relevant]
        plurality_rule = _mode_is_zero(ratios, zero_tol)
        plurality_defined = True
    else:
        plurality_rule = False
        plurality_defined = False

    centered_out = outcome_pi - outcome_pi.mean()
    centered_exp = exposure_pi - exposure_pi.mean()
    denom = float(centered_out @ centered_out)
    if denom > 0.0:
        critical = float(-(centered_out @ centered_exp) / denom)
        inside = abs(reverse_beta - critical) <= zero_tol
        inside_defined = True
    else:
        critical = None
        inside = False
        inside_defined = False

    return DirectionDiagnostics(
        n_relevant=n_relevant,
        valid_rule=valid_rule,
        majority_rule=majority_rule,
        plurality_rule=plurality_rule,
        plurality_defined=plurality_defined,
        inside=inside,
        inside_defined=inside_defined,
        inside_critical_beta=critical,
    )


def diagnose_identification(truth: TruthConfig, zero_tol: float = 1e-12) -> DiagnosticsReport:
    """Evaluate the classical identification conditions from ground truth.

    Per direction: the valid rule (every relevant SNP is a valid instrument),
    the majority rule (more than half are), the plurality rule (the zero
    group is the strict mode of the pleiotropy/association ratios), and the
    InSIDE condition, reported via its critical value for the reverse causal
    effect. Magnitudes <= ``zero_tol`` count as zero throughout; the mode is
    taken over ratio groups rounded to multiples of ``zero_tol``, with ties
    counting against plurality.
    """
    counts = {cls: int(mask.sum()) for cls, mask in iv_class_masks(truth, zero_tol).items()}
    rf = reduced_form(truth)
    d_to_y = _diagnose_direction(
        exposure_gamma=rf.gamma_d,
        outcome_pi=truth.pi_y,
        exposure_pi=truth.pi_d,
        reverse_beta=truth.beta_yd,
        n_valid=counts[IvClass.VALID_DY],
        zero_tol=zero_tol,
    )
    y_to_d = _diagnose_direction(
        exposure_gamma=rf.gamma_y,
        outcome_pi=truth.pi_d,
        exposure_pi=truth.pi_y,
        reverse_beta=truth.beta_dy,
        n_valid=counts[IvClass.VALID_YD],
        zero_tol=zero_tol,
    )
    return DiagnosticsReport(
        n_null=counts[IvClass.NULL],
        n_valid_dy=counts[IvClass.VALID_DY],
        n_valid_yd=counts[IvClass.VALID_YD],
        n_pleiotropic=counts[IvClass.PLEIOTROPIC],
        d_to_y=d_to_y,
        y_to_d=y_to_d,
    )


def reverse_equivalent_truth(truth: TruthConfig, zero_tol: float = 1e-12) -> TruthConfig:
    """Construct a role-swapped parameterization with the same reduced form.

    Replaces the causal pair ``(beta_dy, beta_yd)`` by
    ``(1/beta_yd, 1/beta_dy)`` and re-derives direct effects so that the
    marginal associations of every SNP are reproduced exactly; under the new
    parameterization each trait's valid instruments have exchanged roles.
    The existence of this second configuration is a constructive witness that
    the reduced form alone cannot identify the causal directions.

    Requires both valid-instrument classes nonempty and both causal effects
    nonzero (the swap inverts them).
    """
    masks = iv_class_masks(truth, zero_tol)
    if not (masks[IvClass.VALID_DY].any() and masks[IvClass.VALID_YD].any()):
        raise InputError("both valid-instrument classes must be nonempty for the role swap")
    if truth.beta_yd == 0.0 or truth.beta_dy == 0.0:
        raise InputError("the role swap inverts the causal effects; both must be nonzero")
    swapped_dy = 1.0 / truth.beta_yd
    swapped_yd = 1.0 / truth.beta_dy
    rf = reduced_form(truth)
    pi_d, pi_y = direct_effects(rf.gamma_d, rf.gamma_y, swapped_dy, swapped_yd)
    return TruthConfig(
        pi_d=pi_d,
        pi_y=pi_y,
        beta_dy=swapped_dy,
        beta_yd=swapped_yd,
        se_d=truth.se_d,
        se_y=truth.se_y,
    )
