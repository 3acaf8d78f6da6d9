"""Comparator estimators: overall IVW, MR-Median, and MR-Egger.

These are the conventional one-directional methods run on the
relevance-screened SNP set (no outcome-side focusing, i.e. ``tau_f = inf``).
They serve as benchmarks: with bi-directional effects or correlated
pleiotropy their assumptions fail and they can reject true nulls at far more
than the nominal rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyRelevantSetError, RankDeficientError, ZeroDenominatorError
from .focusing import Direction, Panel, _median_inference, _null_sd, _roles, relevant_mask
from .truncnorm import std_sf

__all__ = [
    "BenchmarkMethod",
    "BenchmarkReport",
    "mr_egger",
    "mr_median",
    "overall_ivw",
]


class BenchmarkMethod(str, Enum):
    OVERALL_IVW = "overall_ivw"
    MR_MEDIAN = "mr_median"
    MR_EGGER = "mr_egger"


@dataclass(frozen=True)
class BenchmarkReport:
    """One benchmark estimate with its (method-specific) standard error.

    ``intercept``/``intercept_se`` are populated by MR-Egger only. The
    MR-Median ``se`` comes from the exact SNP-bootstrap law of the plain
    (unweighted) median; the Egger ``se`` is the classical
    weighted-least-squares one that treats the weights as exact inverse
    variances. ``selected`` is the relevance-screened set as a read-only
    boolean mask over the panel (``Panel.ids_at`` gives its ids); it takes no
    part in ``==``.
    """

    method: BenchmarkMethod
    direction: Direction
    tau_s: float
    estimate: float
    se: float
    z_score: float | None
    p_value: float
    intercept: float | None
    intercept_se: float | None
    selected: np.ndarray = field(compare=False, repr=False)


def _relevant_arrays(panel: Panel, direction: Direction, tau_s: float):
    """(mask, exposure_beta, exposure_se, outcome_beta, outcome_se) of the relevant set."""
    mask = relevant_mask(panel, direction, tau_s)
    if not mask.any():
        raise EmptyRelevantSetError(f"no SNP passes the relevance threshold tau_s={tau_s}")
    mask.setflags(write=False)
    return (mask, *(column[mask] for column in _roles(panel, direction)))


def overall_ivw(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """IVW ratio estimate over all relevance-screened SNPs.

    Identical aggregation to the focused IVW with an unbounded outcome
    filter; with no selection the null scale is ``sqrt(1 / weight_sum)``.
    """
    mask, exp_beta, _, out_beta, out_se = _relevant_arrays(panel, direction, tau_s)
    if np.any(exp_beta == 0.0):
        raise ZeroDenominatorError("ratio estimates need nonzero exposure associations")
    weights = (exp_beta / out_se) ** 2
    weight_sum = float(np.sum(weights))
    se = _null_sd(weight_sum, 1.0)
    estimate = float(np.sum(weights * (out_beta / exp_beta)) / weight_sum)
    z = estimate / se
    return BenchmarkReport(
        method=BenchmarkMethod.OVERALL_IVW,
        direction=direction,
        tau_s=tau_s,
        estimate=estimate,
        se=se,
        z_score=z,
        p_value=2.0 * std_sf(abs(z)),
        intercept=None,
        intercept_se=None,
        selected=mask,
    )


def mr_median(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """Plain median of ratio estimates over the relevance-screened set."""
    mask, exp_beta, _, out_beta, _ = _relevant_arrays(panel, direction, tau_s)
    if np.any(exp_beta == 0.0):
        raise ZeroDenominatorError("ratio estimates need nonzero exposure associations")
    estimate, se, z, p_value = _median_inference(out_beta / exp_beta)
    return BenchmarkReport(
        method=BenchmarkMethod.MR_MEDIAN,
        direction=direction,
        tau_s=tau_s,
        estimate=estimate,
        se=se,
        z_score=z,
        p_value=p_value,
        intercept=None,
        intercept_se=None,
        selected=mask,
    )


def mr_egger(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """Weighted regression with intercept of outcome on exposure betas.

    Each SNP is first oriented so its exposure association is nonnegative
    (the regression is not invariant to per-SNP sign conventions otherwise).
    Weights are inverse squared outcome standard errors; standard errors of
    the coefficients treat those weights as exact inverse variances.
    """
    mask, exp_beta, _, out_beta, out_se = _relevant_arrays(panel, direction, tau_s)
    n = exp_beta.size
    if n < 3:
        raise RankDeficientError(f"Egger regression needs at least 3 relevant SNPs, got {n}")
    flip = exp_beta < 0.0
    x = np.where(flip, -exp_beta, exp_beta)
    y = np.where(flip, -out_beta, out_beta)
    if np.ptp(x) == 0.0:
        raise RankDeficientError("all oriented exposure associations are equal")

    root_w = 1.0 / out_se
    design = np.column_stack((root_w, root_w * x))
    coef, _, rank, _ = np.linalg.lstsq(design, root_w * y, rcond=None)
    if rank < 2:
        raise RankDeficientError("Egger design matrix is rank deficient")
    cov = np.linalg.inv(design.T @ design)
    intercept, slope = float(coef[0]), float(coef[1])
    se_slope = math.sqrt(cov[1, 1])
    se_intercept = math.sqrt(cov[0, 0])
    z = slope / se_slope
    return BenchmarkReport(
        method=BenchmarkMethod.MR_EGGER,
        direction=direction,
        tau_s=tau_s,
        estimate=slope,
        se=se_slope,
        z_score=z,
        p_value=2.0 * std_sf(abs(z)),
        intercept=intercept,
        intercept_se=se_intercept,
        selected=mask,
    )
