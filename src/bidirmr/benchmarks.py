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

from .errors import EmptyRelevantSetError, InputError, RankDeficientError
from .focusing import (
    Direction,
    DirectionRows,
    Estimator,
    FocusConfig,
    Panel,
    _roles,
    _two_sided_p,
    direction_rows,
)

__all__ = [
    "BenchmarkMethod",
    "BenchmarkReport",
    "mr_egger",
    "mr_egger_rows",
    "mr_median",
    "mr_median_rows",
    "overall_ivw",
    "overall_ivw_rows",
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


# The conventional methods' set: relevance screening only. Its null variance is 1.
_UNFOCUSED = FocusConfig(tau_f=math.inf)


def overall_ivw_rows(exp_beta, exp_se, out_beta, out_se, tau_s: float) -> DirectionRows:
    """:func:`overall_ivw` on every row of (R, p) estimates: the focused IVW at ``tau_f = inf``."""
    return direction_rows(exp_beta, exp_se, out_beta, out_se, _UNFOCUSED, tau_s, benchmark=True)


def mr_median_rows(exp_beta, exp_se, out_beta, out_se, tau_s: float) -> DirectionRows:
    """:func:`mr_median` on every row of (R, p) estimates: the focused median at ``tau_f = inf``."""
    return direction_rows(
        exp_beta, exp_se, out_beta, out_se, _UNFOCUSED, tau_s, Estimator.FOCUSED_MEDIAN,
        benchmark=True,
    )


def mr_egger_rows(exp_beta, exp_se, out_beta, out_se, tau_s: float) -> DirectionRows:
    """:func:`mr_egger` on every row of (R, p) estimates, in closed form.

    Per row, the weighted least squares of oriented outcome on oriented
    exposure betas with intercept, weights ``w = 1 / out_se^2``, solved on
    centered sums: with ``W = sum w`` and weighted means ``xbar``, ``ybar``,

        slope = Sxy / Sxx,  intercept = ybar - slope * xbar,
        var(slope) = 1 / Sxx,  var(intercept) = 1 / W + xbar^2 / Sxx,

    where ``Sxx = sum w (x - xbar)^2`` and ``Sxy = sum w (x - xbar)(y - ybar)``
    (the inverse of ``X'WX``, weights taken as exact inverse variances). The
    design ``[sqrt(w), sqrt(w) x]`` counts as rank deficient where
    ``np.linalg.lstsq`` would: its smaller singular value is at most
    ``eps * n`` times the larger. Those squared are the eigenvalues of
    ``X'WX``, whose determinant is ``W * Sxx`` and trace
    ``t = W + sum w x^2``; with ``q = det / t^2`` their ratio is
    ``4q / (1 + sqrt(1 - 4q))^2``.
    """
    if not tau_s >= 0.0:
        raise InputError(f"tau_s must be nonnegative, got {tau_s!r}")
    mask = np.abs(exp_beta) >= exp_se * tau_s
    n = mask.sum(axis=1)
    flip = exp_beta < 0.0
    x = np.where(flip, -exp_beta, exp_beta)
    y = np.where(flip, -out_beta, out_beta)
    spread = np.where(mask, x, -np.inf).max(axis=1) - np.where(mask, x, np.inf).min(axis=1)

    errors = {}
    for r in np.flatnonzero(n < 3).tolist():
        errors[r] = (
            EmptyRelevantSetError(f"no SNP passes the relevance threshold tau_s={tau_s}")
            if n[r] == 0
            else RankDeficientError(f"Egger regression needs at least 3 relevant SNPs, got {n[r]}")
        )
    for r in np.flatnonzero((n >= 3) & (spread == 0.0)).tolist():
        errors[r] = RankDeficientError("all oriented exposure associations are equal")

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(mask, (1.0 / out_se) ** 2, 0.0)
        w_sum = w.sum(axis=1)
        x_bar = (w * x).sum(axis=1) / w_sum
        y_bar = (w * y).sum(axis=1) / w_sum
        dx = np.where(mask, x - x_bar[:, None], 0.0)
        s_xx = (w * dx * dx).sum(axis=1)
        s_xy = (w * dx * (y - y_bar[:, None])).sum(axis=1)
        trace = w_sum + (w * x * x).sum(axis=1)
        q = (w_sum / trace) * (s_xx / trace)  # det / trace^2, at most 1/4
        eigen_ratio = 4.0 * q / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * q, 0.0))) ** 2
        slope = s_xy / s_xx
        intercept = y_bar - slope * x_bar
        se = np.sqrt(1.0 / s_xx)
        intercept_se = np.sqrt(1.0 / w_sum + x_bar * x_bar / s_xx)
        z = slope / se
    for r in np.flatnonzero(np.isinf(trace)).tolist():
        errors.setdefault(r, RankDeficientError("Egger normal equations overflow"))
    for r in np.flatnonzero(~(eigen_ratio > (np.finfo(float).eps * n) ** 2)).tolist():
        errors.setdefault(r, RankDeficientError("Egger design matrix is rank deficient"))

    nan = np.full(n.size, np.nan)
    return DirectionRows(
        selected=mask,
        size=n,
        n_dropped=np.zeros(n.size, dtype=np.intp),
        empty_reject=np.zeros(n.size, dtype=bool),
        weight_sum=nan,
        max_share=nan,
        estimate=slope,
        se=se,
        z=z,
        p_value=_two_sided_p(z),
        errors=errors,
        intercept=intercept,
        intercept_se=intercept_se,
    )


def _report(method: BenchmarkMethod, direction: Direction, tau_s: float, rows) -> BenchmarkReport:
    row = rows.row(0)
    return BenchmarkReport(
        method=method,
        direction=direction,
        tau_s=tau_s,
        estimate=row["estimate"],
        se=row["se"],
        z_score=row["z"],
        p_value=row["p_value"],
        intercept=row["intercept"],
        intercept_se=row["intercept_se"],
        selected=row["selected"],
    )


def _panel_rows(rows_fn, panel: Panel, direction: Direction, tau_s: float):
    exp_beta, exp_se, out_beta, out_se = _roles(panel, direction)
    return rows_fn(exp_beta[None], exp_se, out_beta[None], out_se, tau_s)


def overall_ivw(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """IVW ratio estimate over all relevance-screened SNPs.

    Identical aggregation to the focused IVW with an unbounded outcome
    filter; with no selection the null scale is ``sqrt(1 / weight_sum)``.
    """
    rows = _panel_rows(overall_ivw_rows, panel, direction, tau_s)
    return _report(BenchmarkMethod.OVERALL_IVW, direction, tau_s, rows)


def mr_median(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """Plain median of ratio estimates over the relevance-screened set."""
    rows = _panel_rows(mr_median_rows, panel, direction, tau_s)
    return _report(BenchmarkMethod.MR_MEDIAN, direction, tau_s, rows)


def mr_egger(panel: Panel, direction: Direction, tau_s: float) -> BenchmarkReport:
    """Weighted regression with intercept of outcome on exposure betas.

    Each SNP is first oriented so its exposure association is nonnegative
    (the regression is not invariant to per-SNP sign conventions otherwise).
    Weights are inverse squared outcome standard errors; standard errors of
    the coefficients treat those weights as exact inverse variances.
    """
    rows = _panel_rows(mr_egger_rows, panel, direction, tau_s)
    return _report(BenchmarkMethod.MR_EGGER, direction, tau_s, rows)
