"""Comparator estimators: overall IVW, MR-Median, and MR-Egger.

These are the conventional one-directional methods run on the
relevance-screened SNP set (no outcome-side focusing, i.e. ``tau_f = inf``).
They serve as benchmarks: with bi-directional effects or correlated
pleiotropy their assumptions fail and they can reject true nulls at far more
than the nominal rate. Each is :func:`bidirmr.focusing.test_direction` with
its :class:`~bidirmr.focusing.Method` at an explicit ``tau_s`` and the
default level 0.05, so new code calls that instead. Nothing in the package
calls these wrappers and the package's top level does not export them; the
module stays because the benchmark's tracer (``bench/tracing.py``) times them
by name, until the program emits its own spans (ROADMAP items 1 and 3).
"""

from __future__ import annotations

from .focusing import Direction, FocusConfig, Method, Panel, TestReport, test_direction

__all__ = ["mr_egger", "mr_median", "overall_ivw"]


def overall_ivw(panel: Panel, direction: Direction, tau_s: float) -> TestReport:
    """IVW ratio estimate over all relevance-screened SNPs.

    Identical aggregation to the focused IVW with an unbounded outcome
    filter; with no selection the null scale is ``sqrt(1 / weight_sum)``.
    """
    return test_direction(panel, direction, FocusConfig(tau_s=tau_s), Method.OVERALL_IVW)


def mr_median(panel: Panel, direction: Direction, tau_s: float) -> TestReport:
    """Plain median of ratio estimates over the relevance-screened set.

    The scale comes from the exact SNP-bootstrap law of the plain
    (unweighted) median.
    """
    return test_direction(panel, direction, FocusConfig(tau_s=tau_s), Method.MR_MEDIAN)


def mr_egger(panel: Panel, direction: Direction, tau_s: float) -> TestReport:
    """Weighted regression with intercept of outcome on exposure betas.

    Each SNP is first oriented so its exposure association is nonnegative
    (the regression is not invariant to per-SNP sign conventions otherwise).
    Weights are inverse squared outcome standard errors; standard errors of
    the coefficients treat those weights as exact inverse variances.
    """
    return test_direction(panel, direction, FocusConfig(tau_s=tau_s), Method.MR_EGGER)
