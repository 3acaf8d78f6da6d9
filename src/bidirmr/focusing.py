"""Focused instrument selection and post-selection tests for causal direction.

Testing whether trait D causally affects trait Y from two-sample summary data
is confounded by SNPs that act on Y directly: under the null "no effect of D
on Y" a SNP's outcome association is pure noise exactly when its direct
effect on Y is zero. The focused set for that direction therefore keeps SNPs
whose normalized outcome association is small, ``|beta_y| <= se_y * tau_f``,
while requiring a real exposure signal, ``|beta_d| >= se_d * tau_s``.

Selection has a price: conditional on being kept, the normalized outcome
noise of a retained SNP is a unit-variance normal truncated to
``[-tau_f, tau_f]``. The focused inverse-variance weighted statistic is a
weighted average of such truncated scores, so its null standard deviation is
``sqrt(var(trunc) / sum(weights))`` rather than ``sqrt(1 / sum(weights))``,
and the rejection region uses that deflated scale. An empty focused set is
itself evidence against the null (every candidate carries outcome signal)
and is reported as a rejection with a dedicated flag.

The second direction is tested by the same code path on a role-swapped view
of the panel. The focused median estimator is provided as a robust
companion; its p-value comes from the exact distribution of the SNP-level
bootstrap median (no resampling is drawn), which is a pragmatic default
rather than a derived limiting distribution, and reports flag it as such.

The five tests form one family, named by :class:`Method`: the focused IVW
and focused median at a finite ``tau_f``, and the conventional overall IVW,
MR-Median and MR-Egger on the relevance-screened set (``tau_f = inf``).
:func:`direction_rows` runs any of them on every row of (R, p) estimates at
once; :func:`test_direction` is that function at R = 1 and returns one
:class:`TestReport`, the result shape of every method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    EmptyFocusedSetError,
    EmptyRelevantSetError,
    InputError,
    RankDeficientError,
    ZeroDenominatorError,
)
from .errors import _count, _finite, _floats, _instance, _number, _refused, _vectors
from .model import TruthConfig
from .truncnorm import _SQRT2, TruncSpec, std_cdf, std_quantile, std_sf
from .truncnorm import truncnorm_mean, truncnorm_var

__all__ = [
    "Direction",
    "DirectionRows",
    "FocusConfig",
    "JointTestReport",
    "Method",
    "Panel",
    "PowerForecast",
    "TestReport",
    "bootstrap_median_sd",
    "check_separation",
    "direction_rows",
    "exact_bootstrap_median_sd",
    "focused_mask",
    "power_forecast",
    "relevant_mask",
    "test_direction",
    "test_joint_null",
]


class Direction(str, Enum):
    """Causal direction under test; ``D_TO_Y`` treats the first trait as exposure."""

    D_TO_Y = "dy"
    Y_TO_D = "yd"


class Method(str, Enum):
    """The directional tests; values double as report keys.

    The focused methods aggregate over the focused set at ``tau_f``; the
    conventional ones over the relevance-screened set (``tau_f = inf``).
    """

    FOCUSED_IVW = "focused_ivw"
    FOCUSED_MEDIAN = "focused_median"
    OVERALL_IVW = "overall_ivw"
    MR_MEDIAN = "mr_median"
    MR_EGGER = "mr_egger"

    @property
    def focused(self) -> bool:
        """Whether the set is the focused one, at a finite ``tau_f``."""
        return self in (Method.FOCUSED_IVW, Method.FOCUSED_MEDIAN)

    @property
    def median(self) -> bool:
        """Whether the scale is the exact SNP-bootstrap law of the median."""
        return self in (Method.FOCUSED_MEDIAN, Method.MR_MEDIAN)


class Panel:
    """Immutable, id-indexed collection of SNP summary statistics.

    Stores column arrays for fast vectorized work; build one with
    :meth:`from_arrays`. Selections are boolean masks over the panel;
    :meth:`ids_at` turns one into ids.
    """

    __slots__ = ("_ids", "beta_d", "se_d", "beta_y", "se_y")

    @classmethod
    def from_arrays(cls, ids, beta_d, se_d, beta_y, se_y) -> "Panel":
        try:
            ids = list(map(str, ids))
        except TypeError:
            raise _refused("ids", "a sequence of SNP ids", ids) from None
        panel = cls._of_unique_ids(np.array(ids, dtype=object), beta_d, se_d, beta_y, se_y)
        if len(set(ids)) != len(ids):
            raise InputError("SNP ids must be unique within a panel")
        return panel

    @classmethod
    def _of_unique_ids(cls, ids, beta_d, se_d, beta_y, se_y) -> "Panel":
        """:meth:`from_arrays` for ids known to be unique strings, given as an object array,
        which the panel keeps. The columns and the ids' being nonempty are checked as
        :meth:`from_arrays` checks them."""
        panel = cls.__new__(cls)
        _vectors(
            panel, len(ids), ("se_d", "se_y"), beta_d=beta_d, se_d=se_d, beta_y=beta_y, se_y=se_y
        )
        if not all(ids):
            raise InputError("SNP ids must be nonempty")
        ids.setflags(write=False)
        object.__setattr__(panel, "_ids", ids)
        return panel

    @property
    def ids(self) -> tuple[str, ...]:
        """The SNP ids, in panel order."""
        return tuple(self._ids.tolist())

    def __len__(self) -> int:
        return self._ids.size

    def __setattr__(self, name, value):
        raise AttributeError("Panel is immutable")

    def ids_at(self, mask: np.ndarray) -> tuple[str, ...]:
        """Ids where a boolean mask over the panel is true, in panel order."""
        return tuple(self._ids[mask])

    def indices_of(self, snp_ids: Sequence[str]) -> np.ndarray:
        """Positions of the given ids, preserving their order; ids must be unique.

        The package itself selects by mask; the benchmark's tracer
        (``bench/tracing.py``) still wraps this by name.
        """
        if len(set(snp_ids)) != len(snp_ids):
            raise InputError("SNP id subset must not contain duplicates")
        index = dict(zip(self._ids.tolist(), range(len(self))))
        try:
            idx = np.fromiter((index[i] for i in snp_ids), dtype=np.intp, count=len(snp_ids))
        except KeyError as exc:
            raise InputError(f"SNP id {exc.args[0]!r} is not in the panel") from None
        return idx


@dataclass(frozen=True)
class FocusConfig:
    """Tuning parameters of the focusing filter and test level.

    ``tau_f`` bounds the normalized outcome association of retained SNPs
    (``inf`` disables focusing and recovers the overall estimators);
    ``tau_s`` screens for exposure relevance. ``None`` (the default) resolves
    it per panel as ``quantile(1 - 1/p)``.
    """

    tau_f: float = 1.5
    tau_s: float | None = None
    alpha: float = 0.05

    def __post_init__(self):
        _number("tau_f", self.tau_f, lambda x: x > 0.0, "positive")
        if self.tau_s is not None:
            _number("tau_s", self.tau_s, lambda x: x >= 0.0, "nonnegative")
        _number("alpha", self.alpha, lambda x: 0.0 < x < 1.0, "in (0, 1)")

    def resolve_tau_s(self, p: int) -> float:
        if self.tau_s is not None:
            return self.tau_s
        if p < 2:
            raise InputError("the 1/p relevance rule needs a panel with p >= 2")
        return std_quantile(1.0 - 1.0 / p)

    @cached_property
    def null_var(self) -> float:
        """Null variance of a retained normalized outcome score.

        A unit normal truncated to ``[-tau_f, tau_f]``; computed once per
        configuration.
        """
        return truncnorm_var(TruncSpec(-self.tau_f, self.tau_f, 0.0))


# The conventional methods' set: relevance screening only. Its null variance is 1.
_UNFOCUSED = FocusConfig(tau_f=math.inf)


def _roles(direction: Direction, d, se_d, y, se_y):
    """``(exposure, exposure se, outcome, outcome se)`` from trait D's and Y's columns."""
    if direction is Direction.D_TO_Y:
        return d, se_d, y, se_y
    if direction is Direction.Y_TO_D:
        return y, se_y, d, se_d
    raise InputError(f"unknown direction {direction!r}")


def _panel_roles(panel: Panel, direction: Direction):
    _instance("panel", panel, Panel)
    return _roles(direction, panel.beta_d, panel.se_d, panel.beta_y, panel.se_y)


class _Exposure:
    """One direction's exposure side, which no outcome beta changes, shared by every
    :class:`_DirectionData` on it: the screen ``relevant``, ``|exp_beta| >= exp_se * tau_s``,
    and, when first read, ``has_zero``, the IVW ``weights`` ``(exp_beta / out_se)^2``, the
    relevant sets (:meth:`relevant_set`) and MR-Egger's part ``egger``. ``exp_beta`` is
    (R, p) and finite, the standard errors finite, positive and broadcast against it (the
    screen alone may be read for one panel's (p,) betas). Every array is read-only."""

    def __init__(self, exp_beta, exp_se, out_se, tau_s: float):
        self.exp_beta, self.out_se, self.tau_s = exp_beta, out_se, tau_s
        self.relevant = _read_only(np.abs(exp_beta) >= exp_se * tau_s)
        self._sets = {}

    def relevant_set(self, drop_zero: bool) -> _Set:
        """The relevant SNPs (``tau_f = inf``), less the zero exposure betas if ``drop_zero``:
        one set where there are none."""
        drop_zero = drop_zero and self.has_zero
        found = self._sets.get(drop_zero)
        if found is None:
            found = self._sets[drop_zero] = _Set(self, self.relevant, drop_zero)
        return found

    @cached_property
    def has_zero(self) -> bool:
        return not self.exp_beta.all()  # -0.0 is zero too

    @cached_property
    def weights(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _read_only((self.exp_beta / self.out_se) ** 2)

    @cached_property
    def egger(self) -> _EggerSide:
        return _EggerSide(self)


class _DirectionData:
    """One direction's estimates, an :class:`_Exposure` and finite outcome betas of its
    shape, and what every method reads of them, computed when first read: ``ratios``
    (``out_beta / exp_beta``), ``weighted_ratios`` (``weights * ratios``) and each set the
    methods aggregate over (:meth:`set_of`), shared by the methods that read it. Every
    array is read-only."""

    def __init__(self, exposure: _Exposure, out_beta):
        self.exposure, self.out_beta = exposure, out_beta
        self._sets = {}

    def set_of(self, tau_f: float, drop_zero: bool) -> _Set:
        """The relevant SNPs with ``|out_beta| <= out_se * tau_f``, both bounds inclusive,
        less the zero exposure associations if ``drop_zero``; at ``tau_f = inf`` the
        exposure side's relevant set, else one :class:`_Set` per ``tau_f`` and zero rule."""
        x = self.exposure
        if tau_f == math.inf:  # every finite beta is within an infinite bound
            return x.relevant_set(drop_zero)
        key = (tau_f, drop_zero and x.has_zero)
        found = self._sets.get(key)
        if found is None:
            within = (np.abs(self.out_beta) <= x.out_se * tau_f) & x.relevant
            found = self._sets[key] = _Set(x, within, key[1])
        return found

    def method_set(self, method: Method, tau_f: float) -> _Set:
        """The set of ``method``: a focused method's at ``tau_f``, else the relevant set,
        with zero exposure betas dropped for every method but MR-Egger."""
        return self.set_of(tau_f if method.focused else math.inf, method is not Method.MR_EGGER)

    @cached_property
    def ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _read_only(self.out_beta / self.exposure.exp_beta)

    @cached_property
    def weighted_ratios(self) -> np.ndarray:
        # the ratios afresh, not self.ratios, which only the median methods keep: each
        # (R, p) array a direction holds makes the allocator return and refault more pages
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _read_only(self.exposure.weights * (self.out_beta / self.exposure.exp_beta))


class _Set:
    """A set of SNPs: its ``mask``, each row's count of zero exposure betas dropped from it
    (``n_dropped``) and, when first read, its row counts ``size``, its :func:`_widened`
    mask ``ones`` and ``errors``, each row's error if a conventional method aggregates over
    it (to be copied). All are read-only. It keeps no reference to the exposure side that
    keeps it: a cycle would outlive both until the garbage collector ran."""

    def __init__(self, exposure: _Exposure, mask: np.ndarray, drop_zero: bool):
        self.tau_s = exposure.tau_s
        n_dropped = np.zeros(mask.shape[0], dtype=int)  # the dtype of a boolean row sum
        if drop_zero:
            zero = mask & (exposure.exp_beta == 0.0)
            n_dropped = zero.sum(axis=1)
            mask = mask & ~zero
        self.mask, self.n_dropped = _read_only(mask), _read_only(n_dropped)
        self._weight_sum = self._counted = None

    @cached_property
    def size(self) -> np.ndarray:
        return _read_only(self.mask.sum(axis=1))

    @cached_property
    def ones(self) -> np.ndarray:
        return _read_only(_widened(self.mask))

    @cached_property
    def errors(self) -> dict[int, DegeneracyError]:
        errors: dict[int, DegeneracyError] = {}
        for r in np.flatnonzero(self.size + self.n_dropped == 0).tolist():
            errors[r] = _empty_relevant_set(self.tau_s)
        for r in np.flatnonzero(self.n_dropped).tolist():
            errors.setdefault(
                r, ZeroDenominatorError("ratio estimates need nonzero exposure associations")
            )
        return errors

    def weight_sum(self, weights: np.ndarray) -> np.ndarray:
        """Each row's sum of its exposure side's IVW ``weights`` over the set (NaN if empty)."""
        if self._weight_sum is None:
            with np.errstate(over="ignore"):
                sums = _select_or_zero(self.ones, weights).sum(axis=1)
            self._weight_sum = _read_only(_select(self.size > 0, sums, np.nan))
        return self._weight_sum

    def count_in(self, mask: np.ndarray) -> np.ndarray:
        """Each row's count of the set's SNPs that ``mask`` holds too, kept for the last one."""
        if self._counted is None or self._counted[0] is not mask:
            self._counted = mask, _read_only((self.mask & mask).sum(axis=1))
        return self._counted[1]


class _EggerSide:
    """The part of MR-Egger's closed form that reads no outcome beta. Per row, the weighted
    least squares of oriented outcome on oriented exposure betas with intercept, weights
    w = 1 / out_se^2 over the relevant set (zero betas kept), on centered sums: with W =
    sum w, weighted means xbar and ybar, Sxx = sum w (x - xbar)^2, Sxy = sum w (x - xbar)
    (y - ybar) (the inverse of X'WX, weights taken as exact inverse variances),
        slope = Sxy / Sxx,  intercept = ybar - slope * xbar,
        var(slope) = 1 / Sxx,  var(intercept) = 1 / W + xbar^2 / Sxx.
    It keeps ``negative`` (exp_beta < 0), ``wdx`` = w (x - xbar), ``w_sum``, ``x_bar``,
    ``s_xx``, ``se``, ``intercept_se`` and ``errors``, the set's and the rank checks'."""

    def __init__(self, exposure: _Exposure):
        chosen = exposure.relevant_set(drop_zero=False)
        mask, size = chosen.mask, chosen.size
        self.errors = errors = dict(chosen.errors)
        # Each SNP is oriented so its exposure beta is nonnegative (the regression is
        # not invariant to per-SNP sign conventions otherwise): both betas times -1
        # where exp_beta < 0 and 1 elsewhere, the bits negation gives, -0.0 included.
        # A row's oriented exposure betas are all equal exactly when no selected value
        # differs (!=) from the first: they are finite, and +-0.0 compare equal. The
        # design [sqrt(w), sqrt(w) x] is rank deficient where np.linalg.lstsq finds it
        # so: its smaller singular value at most eps * n times the larger. Those
        # squared are the eigenvalues of X'WX, of determinant W * Sxx and trace
        # t = W + sum w x^2; with q = det / t^2 their ratio is 4q / (1 + sqrt(1 - 4q))^2.
        # w * x serves both xbar and t, and each sum runs over a row in its own order:
        # every float is what the formulas give through np.where.
        negative = exposure.exp_beta < 0.0
        sign = negative * -2.0
        sign += 1.0
        x = exposure.exp_beta * sign
        differs = x != np.take_along_axis(x, mask.argmax(axis=1)[:, None], axis=1)
        differs &= mask
        for r in np.flatnonzero(size < 3).tolist():
            errors.setdefault(r, RankDeficientError(
                f"Egger regression needs at least 3 relevant SNPs, got {size[r]}"))
        for r in np.flatnonzero(~differs.any(axis=1)).tolist():
            errors.setdefault(r, RankDeficientError("all oriented exposure associations are equal"))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = _select_or_zero(chosen.ones, (1.0 / exposure.out_se) ** 2)
            w_sum = w.sum(axis=1)
            wx = w * x
            x_bar = wx.sum(axis=1) / w_sum
            trace = w_sum + np.multiply(wx, x, out=wx).sum(axis=1)
            x -= x_bar[:, None]
            dx = _select_or_zero(chosen.ones, x)
            wdx = np.multiply(w, dx, out=wx)
            s_xx = np.multiply(wdx, dx, out=dx).sum(axis=1)
            q = (w_sum / trace) * (s_xx / trace)  # det / trace^2, at most 1/4
            eigen_ratio = 4.0 * q / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * q, 0.0))) ** 2
            se = np.sqrt(1.0 / s_xx)
            intercept_se = np.sqrt(1.0 / w_sum + x_bar * x_bar / s_xx)
        for r in np.flatnonzero(np.isinf(trace)).tolist():
            errors.setdefault(r, RankDeficientError("Egger normal equations overflow"))
        for r in np.flatnonzero(~(eigen_ratio > (np.finfo(float).eps * size) ** 2)).tolist():
            errors.setdefault(r, RankDeficientError("Egger design matrix is rank deficient"))
        self.negative, self.wdx = _read_only(negative), _read_only(wdx)
        self.w_sum, self.x_bar, self.s_xx = _read_only(w_sum), _read_only(x_bar), _read_only(s_xx)
        self.se, self.intercept_se = _read_only(se), _read_only(intercept_se)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _widened(mask: np.ndarray) -> np.ndarray:
    """``mask`` as ``uint64`` words, all ones where it holds: one widening that every
    :func:`_select` and :func:`_select_or_zero` on the same mask can share."""
    ones = mask.astype(np.uint64)
    np.negative(ones, out=ones)
    return ones


def _select(mask: np.ndarray, a, b) -> np.ndarray:
    """``np.where(mask, a, b)`` on float64, bit for bit, without a branch per element.

    The mask widens to all-ones ``uint64`` words (:func:`_widened`; a mask given
    widened is read as is) and each result is ``b ^ ((a ^ b) & ones)`` on the
    values' bits, so ±0, ±inf and NaN payloads come through as ``np.where`` gives
    them. ``np.where`` picks element by element, and on a dense, unpredictable mask
    that costs several plain passes; this costs the same whatever the mask: five
    passes, three on a widened one. ``a`` and ``b`` broadcast against ``mask``,
    which has the result's shape.
    """
    fresh = mask.dtype == np.bool_
    ones = _widened(mask) if fresh else mask
    a_bits = np.asarray(a, dtype=np.float64).view(np.uint64)
    b_bits = np.asarray(b, dtype=np.float64).view(np.uint64)
    out = np.bitwise_and(ones, a_bits ^ b_bits, out=ones if fresh else None)
    out ^= b_bits
    return out.view(np.float64)


def _select_or_zero(mask: np.ndarray, a) -> np.ndarray:
    """``np.where(mask, a, 0.0)`` on float64, bit for bit, as :func:`_select` gives it:
    ``a``'s bits where ``mask`` holds, ``+0.0`` elsewhere, in one pass on a widened
    mask (three on a boolean one)."""
    fresh = mask.dtype == np.bool_
    ones = _widened(mask) if fresh else mask
    a_bits = np.asarray(a, dtype=np.float64).view(np.uint64)
    return np.bitwise_and(ones, a_bits, out=ones if fresh else None).view(np.float64)


def relevant_mask(panel: Panel, direction: Direction, tau_s: float) -> np.ndarray:
    """Boolean mask of SNPs with |exposure beta| >= se * tau_s."""
    _number("tau_s", tau_s, lambda x: x >= 0.0, "nonnegative")
    exp_beta, exp_se, _, out_se = _panel_roles(panel, direction)
    return _Exposure(exp_beta, exp_se, out_se, tau_s).relevant.copy()


def focused_mask(panel: Panel, direction: Direction, cfg: FocusConfig) -> np.ndarray:
    """Boolean mask of the focused set; both boundary comparisons are inclusive."""
    _instance("cfg", cfg, FocusConfig)
    exp_beta, exp_se, out_beta, out_se = _panel_roles(panel, direction)
    exposure = _Exposure(exp_beta, exp_se, out_se, cfg.resolve_tau_s(len(panel)))
    return _DirectionData(exposure, out_beta).set_of(cfg.tau_f, drop_zero=False).mask.copy()


def _separation_threshold(p: int, tau_f: float, c1: float) -> float:
    """``c1 * tau_f * sqrt(log p)`` noise units, for a positive ``c1``."""
    _number("c1", c1, lambda x: x > 0.0, "positive")
    return c1 * tau_f * math.sqrt(math.log(p))


# Percentiles spanning +-1 standard deviation of a normal; the bootstrap
# spread is read off this central span rather than a raw standard deviation.
_PCTL_LO = std_cdf(-1.0)
_PCTL_HI = std_cdf(1.0)

# Pair means enumerated at once, per sample value; a typical sample has
# fewer than n of them between the two sample values bracketing a quantile.
_CANDIDATES_PER_VALUE = 4
# (n, q) order-statistic brackets kept by :func:`_brackets`: a scenario asks
# for two per distinct set size n <= p, and ``test`` for at most four.
_BRACKETS_SIZE = 4096
# Even sizes whose :func:`_even_terms` are kept (512 tables, 13 MB at most);
# a larger n computes its own, in time its quantile searches outweigh.
_TERMS_KEPT_N = 1024

# log(s!) for s = 0, 1, ...: one table for every law, grown to the largest n seen.
_log_fact = np.empty(0)


def _log_factorials(n: int) -> np.ndarray:
    """``log(s!)`` for ``s = 0..n``, a view of the module table (extended when n is new)."""
    global _log_fact
    size = _log_fact.size
    if size <= n:
        _log_fact = np.concatenate((_log_fact, [math.lgamma(s + 1.0) for s in range(size, n + 1)]))
    return _log_fact[: n + 1]


def _pair_mean(a, b):
    # the mean of the two central values, computed as np.median computes it
    return (a + b) / 2.0


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` over the concatenated ranges ``0 .. lengths[e] - 1``."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return owner, np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]


def _segment_sums(values: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """``np.sum`` of each of ``count`` consecutive segments (``owner`` nondecreasing), bit for bit.

    NumPy sums pairwise in a tree set by the length, so each segment is summed
    whole and alone, led by the zero ``np.sum`` starts from.
    """
    segment = np.arange(count)
    padded = np.zeros(values.size + count)
    padded[np.arange(values.size) + owner + 1] = values
    return np.add.reduceat(padded, np.searchsorted(owner, segment) + segment)


def _search(go, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise, the first ``j`` in ``[lo, hi]`` where ``go(j)``, true on a prefix of each
    range, is false (else ``hi``): all ranges bisected in lockstep; ``go`` may see ``hi``."""
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        step = go(mid)
        lo = np.where(step, mid + 1, lo)
        hi = np.where(step, hi, mid)
    return hi


def _tails(n, a, k) -> np.ndarray:
    """``P(N >= a)``, ``N ~ Binomial(n, k/n)``, elementwise; each summed alone in log space."""
    n, a, k = np.broadcast_arrays(n, a, k)
    out = np.where(k >= n, 1.0, 0.0)
    inner = np.flatnonzero((k > 0) & (k < n))
    if inner.size:
        n, a, p = n[inner], a[inner], k[inner] / n[inner]
        own, s = _ranges(n - a + 1)
        n, s = n[own], s + a[own]
        log_fact = _log_factorials(int(n.max()))
        log_pmf = (log_fact[n] - log_fact[s] - log_fact[n - s]) + s * np.log(p)[own]
        out[inner] = _segment_sums(np.exp(log_pmf + (n - s) * np.log1p(-p)[own]), own, inner.size)
    return out


@lru_cache(maxsize=_BRACKETS_SIZE)
def _brackets(n: int, q: float) -> tuple[int, int]:
    """1-based sorted positions ``(hi, lo)`` bounding the q-quantile of the resampled median.

    ``hi`` is the first k with ``P(N(k) >= m + 1) >= q``: for odd n the
    quantile is ``x_(hi)`` (and ``lo == hi``). For even n it lies between
    ``x_(lo)`` and ``x_(hi)``, ``lo`` the first k with ``P(N(k) >= m) >= q``.
    Both depend on n and q alone; a window around the normal approximation to the
    Beta(a, n - a + 1) q-quantile mostly holds them, else one search over k finds them.
    """
    a = np.array([n // 2 + 1, (n + 1) // 2])
    mean = a / (n + 1.0)
    guess = np.rint(n * (mean + std_quantile(q) * np.sqrt(mean * (1.0 - mean) / (n + 2.0))))
    ks = np.clip(guess.astype(np.intp)[:, None] + np.arange(-5, 5), 0, n)
    reached = (_tails(n, np.repeat(a, 10), ks.ravel()) >= q).reshape(2, 10)
    if (reached[:, -1] & ~reached[:, 0]).all():
        return tuple(ks[[0, 1], reached.argmax(axis=1)].tolist())
    return tuple(_search(lambda k: _tails(n, a, k) < q, np.ones_like(a), np.full_like(a, n)).tolist())


@lru_cache(maxsize=None)
def _even_terms(n: int) -> np.ndarray:
    """The logs of the even-n law's terms, a read-only ``(3, n + 1)`` array; ``m = n // 2``.

    For ``s = 0..n``: row 0 is ``log(C(n, m) (((s+1)/n)^m - (s/n)^m))``, row 1
    ``(n - m) log(1 - s/n)`` and row 2 ``log(1 - exp(row1[s] - row1[s - 1]))``
    (row 0 at ``s = n`` and row 2 at ``s = 0`` unused). Kept per n up to
    ``_TERMS_KEPT_N``; ``_even_terms.__wrapped__`` keeps nothing.
    """
    m = n // 2
    log_fact = _log_factorials(n)
    i = np.arange(1, n + 1)
    out = np.full((3, n + 1), np.nan)
    with np.errstate(divide="ignore"):
        out[0, :n] = (log_fact[n] - log_fact[m] - log_fact[n - m]) + m * np.log(i / n)
        out[0, :n] += np.log(-np.expm1(m * np.log1p(-1.0 / i)))
        out[1] = (n - m) * np.log1p(-np.arange(n + 1) / n)
        out[2, 1:] = np.log(-np.expm1(out[1, 1:] - out[1, :-1]))
    out.flags.writeable = False
    return out


def _row_order(values: np.ndarray, owner: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``np.lexsort((values, owner))`` for NaN-free values grouped by ``owner``, ``offset``
    being each one's position in its group: one fast sort of a unique integer key
    made of the owner, the value's rank (shared by equal values) and the offset."""
    by_value = np.argsort(values)
    ordered = values[by_value]
    ranks = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
    rank = np.empty(values.size, dtype=np.int64)
    rank[by_value] = ranks
    return np.argsort((owner * (ranks[-1] + 1) + rank) * (offset.max() + 1) + offset)


class _EvenLaws:
    """The laws of ``np.median`` of n-out-of-n resamples of many even-size samples at once.

    With a sample sorted, ``n = 2m`` and ``N(k) ~ Binomial(n, k/n)`` the number of
    draws at sorted positions ``<= k``, the median is ``A = (X*_(m) + X*_(m+1)) / 2``
    and (Maritz & Jarrett 1978, JASA 73:194; Efron 1979, Ann. Stat. 7:1)

        P(A <= t) = P(N(r) >= m)
                    - C(n, m) sum_{i <= r} ((i/n)^m - ((i-1)/n)^m) (1 - k_i/n)^(n-m)

    with ``r = #{i : (x_i + x_i)/2 <= t}`` and ``k_i = #{j : (x_i + x_j)/2 <= t}``;
    the i-th term is the probability that ``X*_(m)`` sits at position ``i`` while
    ``X*_(m+1)`` lies beyond position ``k_i``. Pair means are compared as
    ``np.median`` computes them, overflow to ``+-inf`` included, so the law is
    that of the floating-point medians.

    Row ``e`` of ``xs`` holds a sample of ``size[e]`` values, sorted, then at
    least one ``+inf`` of padding. The rows search in lockstep, each within its
    own n (padding never meets a genuine ``+inf``) and each sum over one row's
    own terms, whole and in order, so every float is the one of that sample's
    law alone. Memory is O(rows x max n) besides the enumerated pair means.
    Positions are read through ``_d``, each value's pair mean with itself:
    the value, unless twice it overflows to ``np.median``'s ``+-inf``.
    """

    def __init__(self, xs: np.ndarray, size: np.ndarray):
        self.width, self.size, self._x = xs.shape[1], size, xs.ravel()
        with np.errstate(over="ignore"):
            self._d = _pair_mean(self._x, self._x)
        # _even_terms(n)[:, s] of the sizes present, at _terms[:, _terms_at[n] + s]
        ns = np.unique(size[size % 2 == 0])
        self._terms = np.concatenate([
            _even_terms(n) if n <= _TERMS_KEPT_N else _even_terms.__wrapped__(n)
            for n in ns.tolist()], axis=1)
        self._terms_at = np.zeros(ns[-1] + 1, dtype=np.intp)
        self._terms_at[ns] = np.cumsum(ns + 1) - (ns + 1)

    def _pair_counts(self, at, xi, t, lo, n, strict: bool = False) -> np.ndarray:
        """For each value ``xi`` of the row at flat ``at``, the number of j with pair mean
        ``<= t`` (``< t`` if strict); every j below ``lo`` counts."""
        x, within = self._x, np.less if strict else np.less_equal
        return _search(lambda j: within(_pair_mean(xi, x[j]), t), at + lo, at + n) - at

    def cdf(self, rows: np.ndarray, t: np.ndarray, r: np.ndarray | None = None,
            upper: np.ndarray | None = None):
        """``(P(median of a resample of row rows[e] <= t[e]), k)`` for every e.

        ``r[e]`` (searched for unless given) counts the values whose pair mean
        with themselves is at most ``t[e]``; ``k`` concatenates the pair counts
        at ``t[e]`` of the values ``i < r[e]``, each at most ``upper`` if given.
        """
        n, at, d = self.size[rows], rows * self.width, self._d
        if r is None:
            r = _search(lambda j: d[j] <= t, at, at + n) - at
        own, i = _ranges(r)
        n_i, t_i, at_i = n[own], t[own], at[own]
        # every j < r counts, its pair mean with i being at most the larger's with itself,
        # unless t = +inf, where -inf and +inf pair to NaN: then the count starts past i
        lower = np.where(t_i == np.inf, i + 1, r[own])
        k = self._pair_counts(at_i, self._x[at_i + i], t_i, lower, n_i if upper is None else upper)
        at_n = self._terms_at[n_i]
        beyond = np.exp(self._terms[0][at_n + i] + self._terms[1][at_n + k])
        return _tails(n, n // 2, r) - _segment_sums(beyond, own, r.size), k

    def quantiles(self, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The ``q[e]``-quantile of the law of row ``rows[e]``: the smallest median value
        ``t`` with ``cdf(t) >= q[e]`` (the left-continuous inverse)."""
        n, at, d = self.size[rows], rows * self.width, self._d
        hi, lo = np.array(list(map(_brackets, n.tolist(), q.tolist())), dtype=np.intp).T
        # X*_(m) <= A <= X*_(m+1) brackets the sorted position where cdf reaches q
        start = d[at + lo - 1]
        tied = np.flatnonzero(d[at + np.maximum(lo - 2, 0)] == start)  # a search only past a tie
        at_t, start_t = at[tied], start[tied]
        lo[tied] = _search(lambda j: d[j] < start_t, at_t, at_t + lo[tied] - 1) - at_t + 1
        # each row's last cdf evaluation: its sorted position (0 if none), value and pair counts
        seen, f_seen = np.zeros_like(lo), np.zeros(rows.size)
        k_seen = np.zeros((rows.size, self.width), dtype=np.intp)
        while (lo < hi).any():
            act = np.flatnonzero(lo < hi)
            mid = (lo[act] + hi[act]) >> 1
            t = d[at[act] + mid - 1]
            r, tied = mid.copy(), np.flatnonzero(d[at[act] + mid] <= t)  # mid = n reads padding
            at_t, t_t = at[act][tied], t[tied]
            r[tied] = _search(lambda j: d[j] <= t_t, at_t + mid[tied], at_t + n[act][tied]) - at_t
            f, k = self.cdf(rows[act], t, r)
            own, i = _ranges(r)
            k_seen[act[own], i] = k
            f_seen[act], seen[act] = f, mid
            reached = f >= q[act]
            hi[act] = np.where(reached, mid, hi[act])
            lo[act] = np.where(reached, lo[act], mid + 1)
        out, rest = d[at], np.flatnonzero(lo > 1)
        out[rest] = self._pair_mean_quantiles(
            rows[rest], q[rest], lo[rest] - 1, seen[rest], f_seen[rest], k_seen[rest])
        return out

    def _pair_mean_quantiles(self, rows, q, r, seen, f_seen, k_seen) -> np.ndarray:
        """The quantiles, given ``cdf(lo_t) < q <= cdf(hi_t)`` with ``lo_t < hi_t`` the pair
        means with themselves of the adjacent sorted positions ``r`` and ``r + 1``.

        The cdf jumps in between only at pair means ``(x_i + x_j)/2`` with ``i < r <= j``,
        by the change of the i-th term as ``k_i`` steps up: they are enumerated,
        sorted and accumulated, once a bracket holding over ``_CANDIDATES_PER_VALUE
        * n`` of them is split at the weighted median of its per-value middle
        pair means (a quarter or more goes each time). A row's last bisection
        step, if any, was ``cdf(lo_t)`` or at ``hi_t``, whose counts bound these.
        """
        x, n, at, d = self._x, self.size[rows], rows * self.width, self._d
        lo_t, hi_t = d[at + r - 1], d[at + r]
        own, i = _ranges(r)
        at_i, xi = at[own], x[at[own] + i]
        upper = np.where(seen[own] == r[own] + 1, k_seen[own, i], n[own])
        f_lo, lo_k = f_seen, k_seen[own, i]
        fresh, sel = np.flatnonzero(seen != r), np.flatnonzero(seen[own] != r[own])
        f_lo[fresh], lo_k[sel] = self.cdf(rows[fresh], lo_t[fresh], r[fresh], upper[sel])
        hi_k, sel = lo_k.copy(), np.arange(own.size)  # the entries whose strict counts are due
        while True:
            hi_k[sel] = self._pair_counts(
                at_i[sel], xi[sel], hi_t[own[sel]], lo_k[sel], upper[sel], strict=True)
            count = hi_k - lo_k
            total = np.add.reduceat(count, np.cumsum(r) - r)
            split = np.flatnonzero(total > _CANDIDATES_PER_VALUE * n)
            if not split.size:
                break
            in_split = np.isin(np.arange(rows.size), split)
            # each value's middle candidate, weighted by its count, sorted within its row
            each = np.flatnonzero(in_split[own] & (count > 0))
            middle = _pair_mean(xi[each], x[at_i[each] + lo_k[each] + (count[each] - 1) // 2])
            lengths = np.bincount(own[each], minlength=rows.size)[split]
            seg, offset = _ranges(lengths)
            order = _row_order(middle, seg, offset)
            middle, weight, starts = middle[order], count[each][order], np.cumsum(lengths) - lengths
            cum = np.cumsum(weight)
            cum -= (cum[starts] - weight[starts])[seg]
            pivot = middle[starts + np.add.reduceat(cum < total[split][seg] / 2.0, starts, dtype=int)]
            sel = np.flatnonzero(in_split[own])
            f_pivot, k_pivot = self.cdf(rows[split], pivot, r[split], upper[sel])
            reached = f_pivot >= q[split]
            hi_t[split] = np.where(reached, pivot, hi_t[split])
            f_lo[split] = np.where(reached, f_lo[split], f_pivot)
            lo_k[sel] = np.where(np.repeat(reached, r[split]), lo_k[sel], k_pivot)
        out = hi_t.copy()
        if not total.any():
            return out
        each, step = _ranges(count)
        # the candidates, grouped by row: row[c], and col[c], c's position in its row
        row, col = _ranges(total)
        j = lo_k[each] + step + 1
        values = _pair_mean(xi[each], x[at_i[each] + j - 1])
        central, beyond, share = self._terms
        at_n = self._terms_at[n[row]]
        jump = np.exp(central[at_n + i[each]] + beyond[at_n + j - 1] + share[at_n + j])
        order = _row_order(values, row, col)
        # running sums restart at each row: one row per line of a zero-padded matrix,
        # whose padding adds zeros, so the first sum to reach q is a candidate's
        running = np.zeros((total.size, int(total.max())))
        running[row, col] = jump[order]
        np.cumsum(running, axis=1, out=running)
        reached = np.add(running, f_lo[:, None], out=running) >= q[:, None]
        hit = np.flatnonzero(reached.any(axis=1) & (total > 0))
        out[hit] = values[order][(np.cumsum(total) - total)[hit] + reached[hit].argmax(axis=1)]
        return out


def _ratio_set(ratios) -> np.ndarray:
    """``ratios`` as a float array the median laws take: one-dimensional, nonempty, no NaN."""
    ratios = _floats("ratios", ratios)
    if ratios.ndim != 1:
        raise InputError(f"ratios must be one-dimensional, got shape {ratios.shape}")
    if ratios.size == 0:
        raise EmptyFocusedSetError("cannot bootstrap an empty ratio set")
    if np.isnan(ratios).any():
        raise InputError("ratios must not be NaN")
    return ratios


def exact_bootstrap_median_sd(ratios: np.ndarray) -> float:
    """Percentile SD of the SNP-bootstrap median, from its exact distribution.

    Half the span between the ``std_cdf(-1)`` and ``std_cdf(1)`` quantiles
    of ``np.median`` over n-out-of-n resamples of ``ratios``: the limit, as
    the number of resamples grows, of :func:`bootstrap_median_sd`. Uses no
    random numbers. :func:`_median_rows` on ``ratios`` as its one row.
    """
    ratios = _ratio_set(ratios)
    one_row = np.ones((1, ratios.size), dtype=bool)
    return float(_median_rows(ratios[None], one_row, np.array([ratios.size]))[1][0])


# Resampled values gathered at a time: bounds the memory the Monte-Carlo
# bootstrap needs beyond its index draw.
_BOOT_BLOCK_VALUES = 1 << 20


def bootstrap_median_sd(ratios: np.ndarray, rng: np.random.Generator, n_boot: int = 2000) -> float:
    """Monte-Carlo form of :func:`exact_bootstrap_median_sd`, with ``n_boot`` resamples.

    Resamples SNPs with replacement and returns half the central
    one-sigma percentile span of the bootstrap medians. The estimators use
    the exact law; this form stays as a public reference, and the
    benchmark's tracer (``bench/tracing.py``) wraps it by name. It takes
    the ratio sets :func:`exact_bootstrap_median_sd` takes.
    """
    ratios = _ratio_set(ratios)
    _count("n_boot", n_boot, 2)
    idx = rng.integers(0, ratios.size, size=(n_boot, ratios.size))
    rows = max(1, _BOOT_BLOCK_VALUES // ratios.size)
    medians = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        block = ratios[idx[start:start + rows]]
        medians[start:start + rows] = np.median(block, axis=1, overwrite_input=True)
    lo, hi = np.quantile(medians, (_PCTL_LO, _PCTL_HI))
    return float((hi - lo) / 2.0)


def _median_rows(ratios: np.ndarray, mask: np.ndarray, size: np.ndarray,
                 alpha: float | None = None, pool: _LawPool | None = None, key=None):
    """``(estimate, sd, reject)`` arrays: for every row, ``np.median`` of its set
    ``ratios[r, mask[r]]`` of ``size[r]`` values and the scale :func:`exact_bootstrap_median_sd`
    gives that set; both NaN for an empty set.

    With the set sorted and ``N(k) ~ Binomial(n, k/n)`` draws at positions ``<= k``, odd
    ``n = 2m + 1`` has ``P(med* <= x_(k)) = P(N(k) >= m + 1)`` (Maritz & Jarrett 1978;
    Efron 1979): its quantiles are gathered where :func:`_brackets` points. The even-n rows'
    laws are searched in lockstep (:class:`_EvenLaws`), in O(rows x max n) memory. One sort
    serves all rows, each set packed left in a ``(rows, max(size) + 1)`` array padded with
    ``+inf``. It may order ``+0.0`` and ``-0.0`` unlike a sort of the set alone, so a row
    holding a zero is sorted alone and takes ``np.median``'s estimate, zeros signed as alone.

    Given ``alpha``, only the decision ``p <= alpha`` of the z-test ``estimate / sd`` is
    wanted: an even-n row whose scale bounds (:func:`_scale_bounds`) put its ``|z|`` beyond
    :func:`_critical_band` on either side is settled without the law, its ``sd`` NaN and
    its decision in ``reject``. Every other nonempty even-n row goes to ``pool`` under ``key``
    (:meth:`_LawPool.add`, its row number here as ``at``), and its ``sd`` stays NaN: the pool
    gives it when flushed. Without a pool they get one of their own, flushed before this
    returns, so every row not settled has its ``sd``.
    """
    xs = np.full((size.size, size.max(initial=0) + 1), np.inf)
    xs[np.arange(xs.shape[1]) < size[:, None]] = ratios[mask]
    xs.sort(axis=1)
    r, m = np.arange(size.size), size // 2
    odd = size % 2 == 1
    even = np.flatnonzero(~odd & (size > 0))
    sd = np.full(size.size, np.nan)
    reject = np.zeros(size.size, dtype=bool)
    band = None if alpha is None else _critical_band(alpha)
    with np.errstate(all="ignore"):
        estimate = np.where(odd, xs[r, m], _pair_mean(xs[r, m - 1], xs[r, m]))
        estimate[size == 0] = np.nan
        for i in np.flatnonzero((xs == 0.0).any(axis=1)).tolist():
            own = ratios[i, mask[i]]
            xs[i, : size[i]] = np.sort(own)
            estimate[i] = np.median(own)
        if odd.any():
            n_odd = size[odd].tolist()
            lo = np.array([_brackets(n, _PCTL_LO)[0] for n in n_odd]) - 1
            hi = np.array([_brackets(n, _PCTL_HI)[0] for n in n_odd]) - 1
            sd[odd] = (xs[r[odd], hi] - xs[r[odd], lo]) / 2.0
        if even.size and band is not None:
            s_min, s_max = _scale_bounds(xs[even], size[even])
            z_min, z_max = np.abs(estimate[even]) / s_max, np.abs(estimate[even]) / s_min
            bounded = (s_min > 0.0) & np.isfinite(s_max)
            reject[even] = bounded & (z_min >= band[1])
            even = even[~(reject[even] | (bounded & (z_max <= band[0])))]
    if even.size:
        own_pool = pool is None
        if own_pool:
            def keep(key, at, scale, z, p_value):
                sd[at] = scale
            pool = _LawPool(keep)
        pool.add(key, even, xs[even, : size[even].max() + 1], size[even], estimate[even])
        if own_pool:
            pool.flush()
    return estimate, sd, reject


class _LawPool:
    """Even-n median rows waiting for their exact law, which one :class:`_EvenLaws` gives them.

    :meth:`add` takes rows as :func:`_median_rows` sorts them: each its sample of ``size``
    values, then ``+inf`` padding. :meth:`flush` runs the law on every row held, then the
    median's z-test (:func:`_median_p`), and hands each :meth:`add`'s rows, in the order
    they came, to ``decided(key, at, sd, z, p_value)``. Given a ``limit``, rows that would
    take those held past ``limit`` values (rows times their largest size) flush the held
    rows first, so the law's memory stays within it, save for one add over it alone. A
    row's law does not depend on the rows beside it, so neither do its bits.
    """

    def __init__(self, decided, limit: int | None = None):
        self._decided, self._limit = decided, limit
        self._held = []
        self._rows = self._n_max = 0

    def add(self, key, at: np.ndarray, xs: np.ndarray, size: np.ndarray, estimate: np.ndarray):
        rows, n_max = self._rows + at.size, max(self._n_max, int(size.max()))
        if self._held and self._limit is not None and rows * n_max > self._limit:
            self.flush()
            rows, n_max = at.size, int(size.max())
        self._held.append((key, at, xs, size, estimate))
        self._rows, self._n_max = rows, n_max

    def flush(self) -> None:
        if not self._held:
            return
        held, self._held, self._rows, self._n_max = self._held, [], 0, 0
        size = np.concatenate([entry[3] for entry in held])
        xs = np.full((size.size, size.max() + 1), np.inf)
        bounds = np.cumsum([0] + [entry[3].size for entry in held]).tolist()
        for (_, _, block, _, _), start, stop in zip(held, bounds, bounds[1:]):
            xs[start:stop, : block.shape[1]] = block
        every = np.arange(size.size)
        with np.errstate(all="ignore"):
            quantile = _EvenLaws(xs, size).quantiles(
                np.concatenate((every, every)), np.repeat([_PCTL_HI, _PCTL_LO], size.size))
            sd = (quantile[: size.size] - quantile[size.size:]) / 2.0
        z, p_value = _median_p(np.concatenate([entry[4] for entry in held]), sd)
        for (key, at, _, _, _), start, stop in zip(held, bounds, bounds[1:]):
            self._decided(key, at, sd[start:stop], z[start:stop], p_value[start:stop])


def _median_p(estimate: np.ndarray, sd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z, p_value)`` of the median's z-test ``estimate / sd``; a zero (or NaN) scale leaves
    z undefined, and p 1 at a zero median, else 0."""
    z = np.full(sd.size, np.nan)
    scaled = sd > 0.0
    with np.errstate(invalid="ignore"):
        z[scaled] = estimate[scaled] / sd[scaled]
    p_value = np.where(estimate == 0.0, 1.0, 0.0)
    p_value[scaled] = _two_sided_p(z[scaled])
    return z, p_value


def _scale_bounds(xs: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s_min, s_max)``: bounds on the scale :class:`_EvenLaws` gives each even-n row of ``xs``.

    Row e holds its sample of ``n[e]`` values sorted, as the law reads it. With
    ``(hi, lo) = _brackets(n, q)`` the law's q-quantile lies in ``[d_(lo), d_(hi)]``, where
    ``d_(k)`` is the pair mean of the k-th value with itself (``+-inf`` where twice it
    overflows), so ``d`` is nondecreasing along the row. For ``m = n / 2`` the resampled
    median is ``A = fl((X*_(m) + X*_(m+1)) / 2)``, and rounding is monotone, so
    ``d(X*_(m)) <= A <= d(X*_(m+1))``. Upper end: ``X*_(m+1) <= x_(hi)`` gives
    ``A <= d_(hi)`` and has probability ``P(N(hi) >= m + 1) >= q``. Lower end: for
    ``t < d_(lo)``, ``A <= t`` needs ``d(X*_(m)) <= t``, so ``X*_(m)`` at a position below
    ``lo``, of probability at most ``P(N(lo - 1) >= m) < q``. The scale
    ``fl(fl(q_hi - q_lo) / 2)`` is monotone in both quantiles, so it lies between the same
    expression at the bracket ends, wherever those are not NaN.
    """
    n = n.tolist()
    hi_hi, lo_hi = np.array([_brackets(k, _PCTL_HI) for k in n], dtype=np.intp).T - 1
    hi_lo, lo_lo = np.array([_brackets(k, _PCTL_LO) for k in n], dtype=np.intp).T - 1
    r = np.arange(len(n))

    def d(at):
        return _pair_mean(xs[r, at], xs[r, at])

    return (d(lo_hi) - d(hi_lo)) / 2.0, (d(hi_hi) - d(lo_lo)) / 2.0


def _degenerate_weights(weight_sum: float) -> ZeroDenominatorError:
    """The error for IVW weights whose sum is 0 or inf."""
    how = "all underflow to zero" if weight_sum == 0.0 else "overflow"
    return ZeroDenominatorError(f"IVW weights (exposure beta / outcome se)^2 {how}")


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    """``2.0 * std_sf(abs(v))`` for every v of ``z``, bit for bit: the same operations in the
    same order, with only ``math.erfc`` taken one value at a time. NaN stays NaN."""
    with np.errstate(invalid="ignore"):  # a signaling NaN divides quietly, as in Python
        scaled = np.abs(z) / _SQRT2
    return 2.0 * (0.5 * np.fromiter(map(math.erfc, scaled.tolist()), float, scaled.size))


@lru_cache
def _critical_band(alpha: float) -> tuple[float, float] | None:
    """``(z_lo, z_hi)`` with ``_two_sided_p > alpha`` at every ``|z| <= z_lo`` and
    ``<= alpha`` at every ``|z| >= z_hi``; None where no such band is certain.

    The crossing ``-std_quantile(alpha / 2)``, from the exact lower tail and within a few
    ulps, is moved apart by a relative 1e-6. Across that margin p moves by a relative
    ``1e-6 * z * 2 std_pdf(z) / p(z)``, about 1e-6 at the usual levels: far above the
    few ulps ``math.erfc`` and the quantile may err by, so the computed p-function, which
    the ends must confirm by a relative 1e-12, cannot recross alpha beyond them. A
    subnormal alpha, or one within about 1e-6 of 1, where the margin moves p by less,
    gets no band.
    """
    if alpha < np.finfo(float).tiny:
        return None
    z = -std_quantile(alpha / 2.0)
    z_lo, z_hi = z * (1.0 - 1e-6), z * (1.0 + 1e-6)
    p_lo, p_hi = _two_sided_p(np.array([z_lo, z_hi])).tolist()
    certain = p_lo > alpha * (1.0 + 1e-12) and p_hi < alpha * (1.0 - 1e-12)
    return (z_lo, z_hi) if certain else None


@dataclass(frozen=True, eq=False)
class DirectionRows:
    """One directional test on each row of R panels, row ``r`` as on panel ``r`` alone.

    ``selected`` is the (R, p) set each row aggregates over (after
    zero-denominator drops) and ``size`` its cardinality. Both, ``n_dropped``,
    IVW's ``weight_sum`` and MR-Egger's ``se`` and ``intercept_se`` are
    read-only: they may be shared with other rows (:class:`_Exposure`,
    :meth:`_DirectionData.set_of`). ``empty_reject``
    marks rows whose empty focused set rejects by construction (p-value 0).
    ``reject`` is the test's decision at the caller's ``alpha``,
    ``empty_reject | (p_value <= alpha)``.
    A float a row does not define is NaN: the estimate, scale and weight sum
    of an empty set, a weight share when the weights sum to zero, ``z`` when
    the median scale is zero, and MR-Egger's weight sum and share. Rows
    computed without scales (``direction_rows(..., scales=False)``) hold what
    their decisions read: a median method's weight sums and shares are NaN,
    and its rows may be settled from bounds on their scale, with NaN ``se``,
    ``z`` and ``p_value``; and IVW's shares are NaN. ``reject`` alone holds a
    settled row's decision.
    ``intercept``/``intercept_se`` are MR-Egger's only.
    ``errors`` maps each row that hit a degeneracy to its exception; that
    row's other fields mean nothing.
    """

    selected: np.ndarray
    size: np.ndarray
    n_dropped: np.ndarray
    empty_reject: np.ndarray
    weight_sum: np.ndarray
    max_share: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    errors: dict[int, DegeneracyError]
    intercept: np.ndarray | None = None
    intercept_se: np.ndarray | None = None

    def failed(self) -> np.ndarray:
        out = np.zeros(self.size.size, dtype=bool)
        out[list(self.errors)] = True
        return out


def direction_rows(
    exp_beta: np.ndarray,
    exp_se: np.ndarray,
    out_beta: np.ndarray,
    out_se: np.ndarray,
    cfg: FocusConfig,
    tau_s: float,
    method: Method = Method.FOCUSED_IVW,
    *,
    scales: bool = True,
) -> DirectionRows:
    """One method's test in one direction on every row of (R, p) estimates at once.

    ``exp_beta``/``out_beta`` hold one panel's exposure and outcome betas per
    row; the standard errors are (p,) vectors shared by the rows (or (R, p)).
    Other shapes, values that are not real numbers, betas that are not finite
    and standard errors that are not finite and positive are an
    :class:`InputError` naming the argument. Masks, weights, IVW estimates,
    z and p are row reductions; the median methods take each row's median
    and its exact SNP-bootstrap scale (:func:`_median_rows`), and MR-Egger is
    solved in closed form. Of ``cfg`` only ``alpha``, which sets ``reject``,
    ``tau_f`` and, for focused IVW rows with a nonempty set, ``null_var`` are
    used.

    ``scales=False`` asks for the decisions alone, as a rejection rate needs:
    a median row whose scale the cached order-statistic brackets bound
    tightly enough to settle ``p <= alpha`` skips the exact law, and carries
    NaN ``se``, ``z`` and ``p_value`` (:func:`_median_rows`), and the median
    methods leave ``weight_sum`` and ``max_share`` NaN, as no decision reads
    them. The IVW methods leave ``max_share`` NaN; their other fields, and
    MR-Egger's, are those of ``scales=True``. ``reject`` is the same either way.

    The focused methods drop zero exposure associations from the set
    (counted in ``n_dropped``) and reject on an empty set. The conventional
    methods take the relevance-screened set (``tau_f = inf``): an empty one
    is an :class:`EmptyRelevantSetError`, and a zero exposure association
    a :class:`ZeroDenominatorError` for overall IVW and MR-Median, while
    MR-Egger keeps it in its set. ``selected``, ``size``, ``n_dropped`` and
    some scales are read-only: other rows may share them (:class:`DirectionRows`).
    IVW weights ``(exp_beta / out_se)^2``
    that all underflow to zero, or overflow, leave no null scale and are a
    :class:`ZeroDenominatorError` too.

    The work is the scenario engine's: one :class:`_DirectionData` of the
    arrays on their :class:`_Exposure`, one :func:`_method_rows` on it, then
    one flush of the even-n rows it left to the exact law (:func:`_decided_rows`).
    """
    method = Method(method)
    _instance("cfg", cfg, FocusConfig)
    _number("tau_s", tau_s, lambda x: x >= 0.0, "nonnegative")
    exp_beta, exp_se, out_beta, out_se = _checked_rows(exp_beta, exp_se, out_beta, out_se)
    data = _DirectionData(_Exposure(exp_beta, exp_se, out_se, tau_s), out_beta)
    return _decided_rows(data, cfg, method, scales)


def _decided_rows(data: _DirectionData, cfg: FocusConfig, method: Method,
                  scales: bool = True) -> DirectionRows:
    """:func:`_method_rows` on ``data``, its even-n median rows decided by one pool of their own."""
    decided = []
    pool = _LawPool(lambda *entry: decided.append(entry))
    rows = _method_rows(data, cfg, method, pool, scales=scales)
    pool.flush()
    for _, at, sd, z, p_value in decided:
        rows.se[at], rows.z[at], rows.p_value[at] = sd, z, p_value
        rows.reject[at] = p_value <= cfg.alpha
    return rows


def _method_rows(data: _DirectionData, cfg: FocusConfig, method: Method, pool: _LawPool,
                 key=None, *, scales: bool = True) -> DirectionRows:
    """:func:`direction_rows` on checked arrays, but for the even-n median rows left to the law.

    Those go to ``pool`` under ``key`` (:func:`_median_rows`): their ``se``, ``z`` and
    ``p_value`` stay NaN and their ``reject`` False here, and the pool decides them when
    flushed. ``cfg.alpha`` is the level of ``reject``.

    One head, one fit per family and one tail. The head reads the method's set
    (:meth:`_DirectionData.method_set`), shared with every method that reads it: the
    focused methods share theirs; the others take the exposure side's relevant set, from
    which overall IVW and MR-Median drop zero exposure betas, as errors, and MR-Egger
    keeps them. It takes the conventional methods' empty-set and zero-denominator errors,
    and the focused methods' ``empty_reject``. The fit is IVW, the median or MR-Egger in
    closed form, the exposure side's part of which (:class:`_EggerSide`) is computed once.
    The tail gives IVW and MR-Egger their p-values (:func:`_two_sided_p`), sets an empty
    focused set's to 0, and decides.
    """
    alpha = cfg.alpha
    chosen = data.method_set(method, cfg.tau_f)
    if not method.focused:
        cfg = _UNFOCUSED
    mask, size, n_dropped = chosen.mask, chosen.size, chosen.n_dropped
    errors: dict[int, DegeneracyError] = {} if method.focused else dict(chosen.errors)
    empty_reject = size == 0 if method.focused else np.zeros(size.size, dtype=bool)
    live = size > 0
    live[list(errors)] = False

    nan = np.full(size.size, np.nan)
    weight_sum = max_share = nan  # no decision reads a median's weights or IVW's share
    intercept = intercept_se = None
    if method is not Method.MR_EGGER and (scales or not method.median):
        weight_sum = chosen.weight_sum(data.exposure.weights)
        if scales:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                weights = _select_or_zero(chosen.ones, data.exposure.weights)
                max_share = _select(weight_sum > 0.0, weights.max(axis=1) / weight_sum, np.nan)

    if method is Method.MR_EGGER:
        # the exposure side's fit (_EggerSide), and what reads the oriented outcome betas y
        fit = data.exposure.egger
        errors = dict(fit.errors)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sign = fit.negative * -2.0
            sign += 1.0
            y = np.multiply(data.out_beta, sign, out=sign)
            w = _select_or_zero(chosen.ones, (1.0 / data.exposure.out_se) ** 2)
            y_bar = np.multiply(w, y, out=w).sum(axis=1) / fit.w_sum
            y -= y_bar[:, None]
            s_xy = np.multiply(fit.wdx, y, out=y).sum(axis=1)
            estimate = s_xy / fit.s_xx
            intercept = y_bar - estimate * fit.x_bar
            se, intercept_se = fit.se, fit.intercept_se
            z = estimate / se
    elif method.median:
        if errors:
            mask_live, size_live = mask & live[:, None], np.where(live, size, 0)
        else:
            mask_live, size_live = mask, size
        estimate, se, settled_reject = _median_rows(
            data.ratios, mask_live, size_live, None if scales else alpha, pool, key)
        # the odd-n rows are decided here; the even-n ones were settled or went to the pool
        z, p_value = nan.copy(), nan.copy()
        odd = size_live % 2 == 1
        z[odd], p_value[odd] = _median_p(estimate[odd], se[odd])
    else:
        null_var = math.nan
        if live.any():
            try:
                null_var = cfg.null_var
            except DegeneracyError as exc:
                errors.update(dict.fromkeys(np.flatnonzero(live).tolist(), exc))
        # a weight sum of 0 or inf leaves no finite, nonzero null scale
        for r in np.flatnonzero(live & ((weight_sum == 0.0) | np.isinf(weight_sum))).tolist():
            errors.setdefault(r, _degenerate_weights(weight_sum[r]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            estimate = _select_or_zero(chosen.ones, data.weighted_ratios).sum(axis=1) / weight_sum
            se = np.sqrt(null_var / weight_sum)
            z = estimate / se

    if not method.median:
        p_value, settled_reject = _two_sided_p(z), False
    p_value[empty_reject] = 0.0
    return DirectionRows(
        selected=mask,
        size=size,
        n_dropped=n_dropped,
        empty_reject=empty_reject,
        weight_sum=weight_sum,
        max_share=max_share,
        estimate=estimate,
        se=se,
        z=z,
        p_value=p_value,
        reject=empty_reject | settled_reject | (p_value <= alpha),
        errors=errors,
        intercept=intercept,
        intercept_se=intercept_se,
    )


def _checked_rows(exp_beta, exp_se, out_beta, out_se) -> tuple[np.ndarray, ...]:
    """The four arrays of :func:`direction_rows` as float64 arrays, if the betas are of one
    (R, p) shape and finite, and the standard errors of (p,) or (R, p) and finite and
    positive: the rules :meth:`Panel.from_arrays` applies. Else an :class:`InputError`
    that names the first argument refused."""
    arrays = {name: _floats(name, value) for name, value in (
        ("exp_beta", exp_beta), ("exp_se", exp_se), ("out_beta", out_beta), ("out_se", out_se))}
    shape = arrays["exp_beta"].shape
    if len(shape) != 2:
        raise InputError(f"exp_beta must be of shape (R, p), got {shape}")
    for name, shapes in (("out_beta", [shape]), ("exp_se", [shape[1:], shape]),
                         ("out_se", [shape[1:], shape])):
        if arrays[name].shape not in shapes:
            raise InputError(
                f"{name} must be of shape {' or '.join(map(str, shapes))}, got {arrays[name].shape}"
            )
    return tuple(_finite(name, arr, name.endswith("_se")) for name, arr in arrays.items())


def _empty_relevant_set(tau_s: float) -> EmptyRelevantSetError:
    return EmptyRelevantSetError(f"no SNP passes the relevance threshold tau_s={tau_s}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one directional test, by any :class:`Method`.

    ``reject`` is equivalent to ``empty_set_reject or p_value <= alpha``.
    An empty focused set rejects by construction with ``p_value`` recorded
    as 0 and ``empty_set_reject`` set, leaving the estimate fields None.
    ``null_sd`` is the scale of the estimate: the truncated-normal one for
    the IVW methods, the exact SNP-bootstrap one for the median methods
    (flagged by ``bootstrap_inference``), and the classical weighted
    least-squares one for MR-Egger. ``tau_f``, ``weight_sum`` and
    ``max_weight_share`` belong to the focused methods and are None for the
    conventional ones, which take the relevance-screened set;
    ``intercept``/``intercept_se`` are MR-Egger's only. ``focused_size``,
    ``max_weight_share`` and ``n_dropped_zero_denom`` are diagnostics: no
    finite-sample cutoff is enforced on them (``max_weight_share`` is None
    when the weights sum to zero). ``selected`` is the set the method
    aggregated over as a read-only boolean mask over the panel (after
    zero-denominator drops; ``Panel.ids_at`` gives its ids); it takes no
    part in ``==``, which compares the other fields.
    """

    direction: Direction
    method: Method
    alpha: float
    tau_f: float | None
    tau_s: float
    selected: np.ndarray = field(compare=False, repr=False)
    focused_size: int
    estimate: float | None
    null_sd: float | None
    z_score: float | None
    p_value: float
    reject: bool
    empty_set_reject: bool
    weight_sum: float | None
    max_weight_share: float | None
    n_dropped_zero_denom: int
    bootstrap_inference: bool
    intercept: float | None
    intercept_se: float | None


def test_direction(
    panel: Panel,
    direction: Direction,
    cfg: FocusConfig,
    method: Method = Method.FOCUSED_IVW,
) -> TestReport:
    """Test the null of no causal effect in ``direction`` on a panel.

    :func:`direction_rows` on the panel as its one row, at the panel's
    resolved ``tau_s``, without its checks, which the panel has passed;
    raises the row's degeneracy, if any. A focused
    method rejects outright on an empty focused set, and otherwise compares
    its estimate against its null scale: the truncated-normal IVW standard
    deviation, or the exact SNP-bootstrap law for the median. SNPs with an
    exactly zero exposure beta (possible only when ``tau_s == 0``) contribute
    no ratio information and are dropped from the focused set, with the
    count reported.
    """
    method = Method(method)
    exp_beta, exp_se, out_beta, out_se = _panel_roles(panel, direction)
    tau_s = _instance("cfg", cfg, FocusConfig).resolve_tau_s(len(panel))
    rows = _decided_rows(_DirectionData(_Exposure(exp_beta[None], exp_se, out_se, tau_s),
                                        out_beta[None]), cfg, method)
    if rows.errors:
        raise rows.errors[0]

    def scalar(column, defined=True):
        value = float(column[0]) if defined and column is not None else math.nan
        return None if math.isnan(value) else value

    return TestReport(
        direction=direction,
        method=method,
        alpha=cfg.alpha,
        tau_f=cfg.tau_f if method.focused else None,
        tau_s=tau_s,
        selected=rows.selected[0],
        focused_size=int(rows.size[0]),
        estimate=scalar(rows.estimate),
        null_sd=scalar(rows.se),
        z_score=scalar(rows.z),
        p_value=float(rows.p_value[0]),
        reject=bool(rows.reject[0]),
        empty_set_reject=bool(rows.empty_reject[0]),
        weight_sum=scalar(rows.weight_sum, method.focused),
        max_weight_share=scalar(rows.max_share, method.focused),
        n_dropped_zero_denom=int(rows.n_dropped[0]),
        bootstrap_inference=method.median,
        intercept=scalar(rows.intercept),
        intercept_se=scalar(rows.intercept_se),
    )


@dataclass(frozen=True)
class JointTestReport:
    """Bonferroni combination of the two directional tests.

    Each direction is tested at level ``alpha / 2``; the joint null of no
    causal effect in either direction is rejected when either rejects.
    """

    alpha: float
    reject: bool
    d_to_y: TestReport
    y_to_d: TestReport


def test_joint_null(
    panel: Panel,
    cfg: FocusConfig,
    method: Method = Method.FOCUSED_IVW,
) -> JointTestReport:
    """Test the joint null of no causal effect in either direction, by any method."""
    half = replace(_instance("cfg", cfg, FocusConfig), alpha=cfg.alpha / 2.0)
    dy = test_direction(panel, Direction.D_TO_Y, half, method)
    yd = test_direction(panel, Direction.Y_TO_D, half, method)
    return JointTestReport(alpha=cfg.alpha, reject=dy.reject or yd.reject, d_to_y=dy, y_to_d=yd)


@dataclass(frozen=True)
class PowerForecast:
    """Normal approximation of the focused IVW statistic away from the null."""

    mu_alt: float
    sigma_alt: float
    rejection_threshold: float
    predicted_power: float


def power_forecast(
    panel: Panel,
    selected: np.ndarray,
    snr: np.ndarray,
    cfg: FocusConfig,
    direction: Direction = Direction.D_TO_Y,
) -> PowerForecast:
    """Forecast rejection probability given hypothesized per-SNP signal.

    ``selected`` is a boolean mask over the panel, the set the forecast
    conditions on; ``snr`` holds each SNP's outcome signal-to-noise ratio
    (true outcome association over its standard error), of length
    ``len(panel)`` and read under the mask. Conditional on selection each
    normalized outcome estimate is a unit-variance normal with that location
    truncated to ``[-tau_f, tau_f]``, so the focused IVW statistic is
    approximately normal with

        mu    = sum_j w_j (se_out_j / beta_exp_j) E[trunc_j] / sum_j w_j
        sigma = sqrt( sum_j w_j var(trunc_j) ) / sum_j w_j

    and the forecast is the probability that such a normal lands beyond the
    null rejection threshold, ``sqrt(cfg.null_var / sum_j w_j)`` standard
    units. With all ``snr`` zero this reproduces the null scale and the
    forecast equals ``alpha``. An empty mask is an
    :class:`EmptyFocusedSetError`; a zero exposure association, or weights
    that all underflow to zero or whose sum overflows, a
    :class:`ZeroDenominatorError`.
    """
    _instance("panel", panel, Panel)
    _instance("cfg", cfg, FocusConfig)
    try:
        selected = np.asarray(selected)
    except ValueError:  # a ragged nest of sequences
        selected = None
    snr = _floats("snr", snr)
    if selected is None or selected.dtype != bool or selected.shape != (len(panel),):
        raise InputError(f"selected must be a boolean mask of length {len(panel)}")
    if snr.shape != (len(panel),):
        raise InputError(f"snr must have length {len(panel)}, got shape {snr.shape}")
    if not selected.any():
        raise EmptyFocusedSetError("the focused set is empty")
    exp_beta, _, _, out_se = (column[selected] for column in _panel_roles(panel, direction))
    if np.any(exp_beta == 0.0):
        raise ZeroDenominatorError("ratio estimates need nonzero exposure associations")

    with np.errstate(over="ignore"):
        weights = (exp_beta / out_se) ** 2
        weight_sum = float(np.sum(weights))
    if weight_sum == 0.0 or math.isinf(weight_sum):
        raise _degenerate_weights(weight_sum)
    specs = [TruncSpec(-cfg.tau_f, cfg.tau_f, m) for m in snr[selected].tolist()]
    tn_mean = np.array([truncnorm_mean(spec) for spec in specs], dtype=float)
    tn_var = np.array([truncnorm_var(spec) for spec in specs], dtype=float)
    mu_alt = float(np.sum(weights * (out_se / exp_beta) * tn_mean) / weight_sum)
    sigma_alt = float(math.sqrt(np.sum(weights * tn_var)) / weight_sum)
    threshold = -std_quantile(cfg.alpha / 2.0) * math.sqrt(cfg.null_var / weight_sum)
    power = std_sf((threshold - mu_alt) / sigma_alt) + std_cdf((-threshold - mu_alt) / sigma_alt)
    return PowerForecast(
        mu_alt=mu_alt,
        sigma_alt=sigma_alt,
        rejection_threshold=threshold,
        predicted_power=float(power),
    )


def check_separation(
    truth: TruthConfig,
    cfg: FocusConfig,
    c1: float,
    direction: Direction = Direction.D_TO_Y,
) -> bool:
    """Whether nonzero direct outcome effects clear the focusing filter.

    The focusing filter reliably excludes SNPs with a direct effect on the
    outcome only if those effects are large against their noise level:
    every SNP with a nonzero direct outcome effect must satisfy
    ``|pi / se| >= c1 * tau_f * sqrt(log p)``, for a positive ``c1``.
    Vacuously true when no such SNP exists. Ground-truth zeros are compared
    exactly.
    """
    threshold = _separation_threshold(truth.p, cfg.tau_f, c1)
    _, _, pi, se = _roles(direction, truth.pi_d, truth.se_d, truth.pi_y, truth.se_y)
    active = pi != 0.0
    if not active.any():
        return True
    return bool(np.min(np.abs(pi[active]) / se[active]) >= threshold)
