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
from .model import TruthConfig
from .truncnorm import TruncSpec, std_cdf, std_quantile, std_sf, truncnorm_mean, truncnorm_var

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

    __slots__ = ("ids", "beta_d", "se_d", "beta_y", "se_y", "_index", "_id_array")

    @classmethod
    def from_arrays(cls, ids, beta_d, se_d, beta_y, se_y) -> "Panel":
        ids = tuple(map(str, ids))
        columns = {
            name: np.array(arr, dtype=float)
            for name, arr in (("beta_d", beta_d), ("se_d", se_d), ("beta_y", beta_y), ("se_y", se_y))
        }
        p = len(ids)
        if p < 1:
            raise InputError("a panel needs at least one SNP")
        for name, arr in columns.items():
            if arr.shape != (p,):
                raise InputError(f"{name} must have length {p}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} must be finite")
        if not (np.all(columns["se_d"] > 0.0) and np.all(columns["se_y"] > 0.0)):
            raise InputError("standard errors must be positive")
        if not all(ids):
            raise InputError("SNP ids must be nonempty")
        index = dict(zip(ids, range(p)))
        if len(index) != p:
            raise InputError("SNP ids must be unique within a panel")
        id_array = np.array(ids, dtype=object)
        for arr in (*columns.values(), id_array):
            arr.setflags(write=False)
        panel = cls.__new__(cls)
        for name, value in (("ids", ids), *columns.items(), ("_index", index), ("_id_array", id_array)):
            object.__setattr__(panel, name, value)
        return panel

    def __len__(self) -> int:
        return len(self.ids)

    def __setattr__(self, name, value):
        raise AttributeError("Panel is immutable")

    def ids_at(self, mask: np.ndarray) -> tuple[str, ...]:
        """Ids where a boolean mask over the panel is true, in panel order."""
        return tuple(self._id_array[mask])

    def indices_of(self, snp_ids: Sequence[str]) -> np.ndarray:
        """Positions of the given ids, preserving their order; ids must be unique.

        The package itself selects by mask; the benchmark's tracer
        (``bench/tracing.py``) still wraps this by name.
        """
        if len(set(snp_ids)) != len(snp_ids):
            raise InputError("SNP id subset must not contain duplicates")
        try:
            idx = np.fromiter((self._index[i] for i in snp_ids), dtype=np.intp, count=len(snp_ids))
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
        if math.isnan(self.tau_f) or not self.tau_f > 0.0:
            raise InputError(f"tau_f must be positive, got {self.tau_f!r}")
        if self.tau_s is not None and not self.tau_s >= 0.0:
            raise InputError(f"tau_s must be nonnegative, got {self.tau_s!r}")
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha!r}")

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
    return _roles(direction, panel.beta_d, panel.se_d, panel.beta_y, panel.se_y)


def _set_mask(exp_beta, exp_se, out_beta, out_se, tau_f: float, tau_s: float) -> np.ndarray:
    """The set a method aggregates over, on arrays of any matching shape.

    ``|out_beta| <= out_se * tau_f`` and ``|exp_beta| >= exp_se * tau_s``,
    both inclusive; ``tau_f = inf`` leaves relevance screening alone.
    """
    return (np.abs(out_beta) <= out_se * tau_f) & (np.abs(exp_beta) >= exp_se * tau_s)


def relevant_mask(panel: Panel, direction: Direction, tau_s: float) -> np.ndarray:
    """Boolean mask of SNPs with |exposure beta| >= se * tau_s."""
    if not tau_s >= 0.0:
        raise InputError(f"tau_s must be nonnegative, got {tau_s!r}")
    return _set_mask(*_panel_roles(panel, direction), math.inf, tau_s)


def focused_mask(panel: Panel, direction: Direction, cfg: FocusConfig) -> np.ndarray:
    """Boolean mask of the focused set; both boundary comparisons are inclusive."""
    return _set_mask(*_panel_roles(panel, direction), cfg.tau_f, cfg.resolve_tau_s(len(panel)))


def _separation_threshold(p: int, tau_f: float, c1: float) -> float:
    """``c1 * tau_f * sqrt(log p)`` noise units, for a positive ``c1``."""
    if not c1 > 0.0:
        raise InputError(f"c1 must be positive, got {c1!r}")
    return c1 * tau_f * math.sqrt(math.log(p))


# Percentiles spanning +-1 standard deviation of a normal; the bootstrap
# spread is read off this central span rather than a raw standard deviation.
_PCTL_LO = std_cdf(-1.0)
_PCTL_HI = std_cdf(1.0)
# Their standard normal quantiles, where the order-statistic searches start.
_Z = {_PCTL_LO: std_quantile(_PCTL_LO), _PCTL_HI: std_quantile(_PCTL_HI)}

# Binomial probabilities evaluated at a time (rows x terms) when a quantile
# search has to scan a wide range of order statistics.
_TAIL_BLOCK_VALUES = 1 << 18
# Pair means enumerated at once, per sample value; a typical sample has
# fewer than n of them between the two sample values bracketing a quantile.
_CANDIDATES_PER_VALUE = 4
# (n, q) order-statistic brackets kept by :func:`_brackets`: a scenario asks
# for two per distinct set size n <= p, and ``test`` for at most four.
_BRACKETS_SIZE = 4096

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


class _BinomialTails:
    """``P(N(k) >= a)`` for ``N(k) ~ Binomial(n, k/n)`` and ``a`` = m or m + 1, ``m = n // 2``.

    The part of :class:`_ResampledMedianLaw` that depends on n alone.
    """

    def __init__(self, n: int):
        m = n // 2
        log_fact = _log_factorials(n)
        s = np.arange(m, n + 1)
        self.n, self.m = n, m
        # log C(n, s) for s = m..n: binomial tails from m or m + 1 draws
        self._s = s
        self._log_choose = log_fact[n] - log_fact[s] - log_fact[n - s]

    def _tail(self, a: int, ks: np.ndarray) -> np.ndarray:
        """``P(N(k) >= a)`` for each k in ``ks``; ``a`` is m or m + 1."""
        n = self.n
        out = np.where(ks >= n, 1.0, 0.0)
        inner = (ks > 0) & (ks < n)
        if inner.any():
            p = ks[inner, None] / n
            start = a - self.m
            s = self._s[start:]
            log_pmf = self._log_choose[start:] + s * np.log(p) + (n - s) * np.log1p(-p)
            out[inner] = np.exp(log_pmf).sum(axis=1)
        return out

    def _first_reaching(self, a: int, q: float, z: float, hi: int) -> int:
        """Smallest k in [1, hi] with ``P(N(k) >= a) >= q``, which holds at ``hi``.

        ``k / n`` is then the q-quantile of Beta(a, n - a + 1), the law of the
        a-th of n uniform order statistics. A window around its normal
        approximation (``z`` is the standard normal q-quantile) is tried
        first; if the answer lies outside, the rest of the range is scanned
        in blocks.
        """
        n = self.n
        mean = a / (n + 1.0)
        guess = round(n * (mean + z * math.sqrt(mean * (1.0 - mean) / (n + 2.0))))
        lo = 1
        w_lo, w_hi = max(lo, guess - 4), min(hi, guess + 4)
        if w_lo <= w_hi:
            ks = np.arange(w_lo - 1, w_hi + 1)
            reached = self._tail(a, ks) >= q
            if reached[0]:
                hi = w_lo - 1
            elif not reached[-1]:
                lo = w_hi + 1
            else:
                return int(ks[np.argmax(reached)])
        rows = max(8, _TAIL_BLOCK_VALUES // (n - a + 1))
        while lo < hi:
            ks = np.unique(np.linspace(lo, hi - 1, num=min(rows, hi - lo)).astype(np.intp))
            reached = self._tail(a, ks) >= q
            if reached.any():
                first = int(np.argmax(reached))
                hi = int(ks[first])
                if first:
                    lo = int(ks[first - 1]) + 1
            else:
                lo = int(ks[-1]) + 1
        return lo


@lru_cache(maxsize=_BRACKETS_SIZE)
def _brackets(n: int, q: float) -> tuple[int, int]:
    """1-based sorted positions ``(hi, lo)`` bounding the q-quantile of the resampled median.

    ``hi`` is the first k with ``P(N(k) >= m + 1) >= q``: for odd n the
    quantile is ``x_(hi)`` (and ``lo == hi``). For even n it lies between
    ``x_(lo)`` and ``x_(hi)``, ``lo`` the first k with ``P(N(k) >= m) >= q``.
    Both depend on n and q alone, so they are computed once per pair.
    """
    tails = _BinomialTails(n)
    z = _Z[q] if q in _Z else std_quantile(q)
    hi = tails._first_reaching(tails.m + 1, q, z, n)
    return hi, hi if n % 2 else tails._first_reaching(tails.m, q, z, hi)


class _ResampledMedianLaw(_BinomialTails):
    """Exact distribution of ``np.median`` of an n-out-of-n resample of ``x``.

    With ``x`` sorted and ``N(k) ~ Binomial(n, k/n)`` the number of draws at
    sorted positions ``<= k`` (Maritz & Jarrett 1978, JASA 73:194; Efron
    1979, Ann. Stat. 7:1):

    * odd ``n = 2m + 1``: ``P(med* <= x_(k)) = P(N(k) >= m + 1)``;
    * even ``n = 2m``: the median is ``A = (X*_(m) + X*_(m+1)) / 2`` and

          P(A <= t) = P(N(r) >= m)
                      - C(n, m) sum_{i <= r} ((i/n)^m - ((i-1)/n)^m) (1 - k_i/n)^(n-m)

      with ``r = #{x_i <= t}`` and ``k_i = #{j : (x_i + x_j)/2 <= t}``; the
      i-th term is the probability that ``X*_(m)`` sits at position ``i``
      while ``X*_(m+1)`` lies beyond position ``k_i``.

    Pair means are compared as ``np.median`` computes them, so the law is
    that of the floating-point medians. Probabilities are summed from
    log-space terms (no term is dropped). What depends on n alone is shared
    between laws: the log-factorials come from one module table (8 bytes
    per entry up to the largest n seen), and the sorted positions bracketing
    each quantile from :func:`_brackets`, an LRU of ``_BRACKETS_SIZE``
    (n, q) pairs. Once those are known, an odd-n quantile is one lookup;
    an even-n one bisects inside its bracket and enumerates pair means, in
    O(n log n) time for typical samples and O(n log^2 n) at worst. Memory
    is O(n), and ``cdf`` is evaluated at most once per ``t``. ``x`` given
    ``is_sorted`` (ascending, NaN-free) is used as it is.
    """

    def __init__(self, x: np.ndarray, is_sorted: bool = False):
        super().__init__(x.size)
        self.x = x if is_sorted else np.sort(x)
        self._cdf_memo: dict[float, float] = {}
        n, m = self.n, self.m
        if n % 2 == 0:
            i = np.arange(1, n + 1)
            with np.errstate(divide="ignore"):
                # log of C(n, m) ((i/n)^m - ((i-1)/n)^m)
                self._log_central = (
                    self._log_choose[0]
                    + m * np.log(i / n)
                    + np.log(-np.expm1(m * np.log1p(-1.0 / i)))
                )

    def _pair_counts(self, xi: np.ndarray, t: float, strict: bool = False) -> np.ndarray:
        """For each value of ``xi``, the number of j with ``pair mean <= t`` (``< t`` if strict).

        A search on ``2t - xi`` gives a first count; rounding of the pair
        means can move the boundary, so it is then moved over whole blocks of
        tied values until the pair means on either side agree with ``t``.
        """
        x, n = self.x, self.n
        within = np.less if strict else np.less_equal
        g = np.searchsorted(x, 2.0 * t - xi, side="left" if strict else "right")
        while True:
            down = (g > 0) & ~within(_pair_mean(xi, x[np.maximum(g - 1, 0)]), t)
            if not down.any():
                break
            g[down] = np.searchsorted(x, x[g[down] - 1], side="left")
        while True:
            up = (g < n) & within(_pair_mean(xi, x[np.minimum(g, n - 1)]), t)
            if not up.any():
                break
            g[up] = np.searchsorted(x, x[g[up]], side="right")
        return g

    def cdf(self, t: float) -> float:
        """``P(median of a resample <= t)``."""
        f = self._cdf_memo.get(t)
        if f is None:
            f = self._cdf_memo[t] = self._cdf(t)
        return f

    def _cdf(self, t: float) -> float:
        n, m, x = self.n, self.m, self.x
        r = int(np.searchsorted(x, t, side="right"))
        if n % 2:
            return float(self._tail(m + 1, np.array([r]))[0])
        if r == 0:
            return 0.0
        k = self._pair_counts(x[:r], t)
        with np.errstate(divide="ignore"):
            beyond = np.exp(self._log_central[:r] + (n - m) * np.log1p(-k / n))
        return float(self._tail(m, np.array([r]))[0] - beyond.sum())

    def quantile(self, q: float) -> float:
        """Smallest median value ``t`` with ``cdf(t) >= q`` (the left-continuous inverse)."""
        x = self.x
        # X*_(m) <= A <= X*_(m+1) brackets the sorted position where cdf reaches q
        hi, lo = _brackets(self.n, q)
        if self.n % 2:
            return float(x[hi - 1])
        if math.isinf(x[0]) or math.isinf(x[-1]):
            # a pair mean (inf + -inf) or a search key (2t - x_i at
            # t = x_i = inf) can be NaN, which compares false: the law counts
            # it so, and only the warning is silenced. Finite samples skip
            # this, since every ufunc call runs slower inside np.errstate.
            with np.errstate(invalid="ignore"):
                return self._even_quantile(q, lo, hi)
        return self._even_quantile(q, lo, hi)

    def _even_quantile(self, q: float, lo: int, hi: int) -> float:
        """:meth:`quantile` for even n, bracketed by the sorted positions ``lo <= hi``."""
        x = self.x
        lo = int(np.searchsorted(x, x[lo - 1], side="left")) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cdf(x[mid - 1]) >= q:
                hi = mid
            else:
                lo = mid + 1
        if lo == 1:
            return float(x[0])
        return self._pair_mean_quantile(x[lo - 2], x[lo - 1], lo - 1, q)

    def _pair_mean_quantile(self, lo_t: float, hi_t: float, r: int, q: float) -> float:
        """The quantile, given ``cdf(lo_t) < q <= cdf(hi_t)`` with ``lo_t < hi_t`` adjacent
        sample values and ``r`` values at or below ``lo_t``.

        The cdf jumps in between only where a pair mean ``(x_i + x_j)/2``
        with ``i <= r < j`` lies, by the change of the i-th term as ``k_i``
        steps up. Those pair means are enumerated, sorted and accumulated;
        a bracket holding more than ``_CANDIDATES_PER_VALUE * n`` of them is first
        split at the weighted median of its per-row middle pair means, which
        removes at least a quarter of them each time.
        """
        n, m, x = self.n, self.m, self.x
        xi = x[:r]
        f_lo = self.cdf(lo_t)
        while True:
            lo_k = self._pair_counts(xi, lo_t)
            count = self._pair_counts(xi, hi_t, strict=True) - lo_k
            total = int(count.sum())
            if total <= _CANDIDATES_PER_VALUE * n:
                break
            rows = np.flatnonzero(count)
            middle = _pair_mean(xi[rows], x[lo_k[rows] + (count[rows] - 1) // 2])
            order = np.argsort(middle, kind="stable")
            weight = np.cumsum(count[rows][order])
            pivot = middle[order][np.searchsorted(weight, weight[-1] / 2.0)]
            f_pivot = self.cdf(pivot)
            if f_pivot >= q:
                hi_t = pivot
            else:
                lo_t, f_lo = pivot, f_pivot
        if total == 0:
            return float(hi_t)
        rows = np.repeat(np.arange(r), count)
        j = lo_k[rows] + np.arange(total) - np.repeat(np.cumsum(count) - count, count) + 1
        values = _pair_mean(xi[rows], x[j - 1])
        with np.errstate(divide="ignore"):
            before = (n - m) * np.log1p(-(j - 1) / n)
            after = (n - m) * np.log1p(-j / n)
            jump = np.exp(self._log_central[rows] + before + np.log(-np.expm1(after - before)))
        order = np.argsort(values, kind="stable")
        reached = np.flatnonzero(f_lo + np.cumsum(jump[order]) >= q)
        return float(values[order][reached[0]]) if reached.size else float(hi_t)

    def sd(self) -> float:
        """Half the span between the ``std_cdf(-1)`` and ``std_cdf(1)`` quantiles."""
        return (self.quantile(_PCTL_HI) - self.quantile(_PCTL_LO)) / 2.0


def exact_bootstrap_median_sd(ratios: np.ndarray) -> float:
    """Percentile SD of the SNP-bootstrap median, from its exact distribution.

    Half the span between the ``std_cdf(-1)`` and ``std_cdf(1)`` quantiles
    of ``np.median`` over n-out-of-n resamples of ``ratios``: the limit, as
    the number of resamples grows, of :func:`bootstrap_median_sd`. Uses no
    random numbers.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise EmptyFocusedSetError("cannot bootstrap an empty ratio set")
    if np.isnan(ratios).any():
        raise InputError("ratios must not be NaN")
    return _ResampledMedianLaw(ratios).sd()


# Resampled values gathered at a time: bounds the memory the Monte-Carlo
# bootstrap needs beyond its index draw.
_BOOT_BLOCK_VALUES = 1 << 20


def bootstrap_median_sd(ratios: np.ndarray, rng: np.random.Generator, n_boot: int = 2000) -> float:
    """Monte-Carlo form of :func:`exact_bootstrap_median_sd`, with ``n_boot`` resamples.

    Resamples SNPs with replacement and returns half the central
    one-sigma percentile span of the bootstrap medians. The estimators use
    the exact law; this form stays as a public reference, and the
    benchmark's tracer (``bench/tracing.py``) wraps it by name.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise EmptyFocusedSetError("cannot bootstrap an empty ratio set")
    if n_boot < 2:
        raise InputError("n_boot must be at least 2")
    idx = rng.integers(0, ratios.size, size=(n_boot, ratios.size))
    rows = max(1, _BOOT_BLOCK_VALUES // ratios.size)
    medians = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        block = ratios[idx[start:start + rows]]
        medians[start:start + rows] = np.median(block, axis=1, overwrite_input=True)
    lo, hi = np.quantile(medians, (_PCTL_LO, _PCTL_HI))
    return float((hi - lo) / 2.0)


def _median_inference(ratios: np.ndarray) -> tuple[float, float, float | None, float]:
    """``(estimate, sd, z, p_value)`` of the median of ``ratios`` against zero.

    The scale is :func:`exact_bootstrap_median_sd`. A zero scale leaves
    ``z`` None, with p-value 1 for a zero median and 0 otherwise.
    """
    estimate = float(np.median(ratios))
    sd = exact_bootstrap_median_sd(ratios)
    if sd > 0.0:
        z = estimate / sd
        return estimate, sd, z, 2.0 * std_sf(abs(z))
    return estimate, sd, None, 1.0 if estimate == 0.0 else 0.0


def _median_rows(ratios: np.ndarray, mask: np.ndarray, size: np.ndarray):
    """``(estimate, sd)`` arrays of ``_median_inference(ratios[r, mask[r]])`` for every row.

    One sort serves all rows: each row's set is packed to the left of a
    ``(rows, max(size))`` array padded with ``+inf``, so after sorting a row's
    first ``size[r]`` values are its set in order, handed to the law as they
    are. The median is read as ``np.median`` computes it; an odd-n row's two
    quantiles are gathered at the positions :func:`_brackets` keeps for its n.
    The sort may order ``+0.0`` and ``-0.0`` unlike a sort of the set alone, so
    rows with a zero ratio run :func:`_median_inference` on their set instead.
    """
    xs = np.full((size.size, size.max(initial=0)), np.inf)
    xs[np.arange(xs.shape[1]) < size[:, None]] = ratios[mask]
    xs.sort(axis=1)
    r = np.arange(size.size)
    m = size // 2
    odd = size % 2 == 1
    with np.errstate(invalid="ignore"):
        estimate = np.where(odd, xs[r, m], _pair_mean(xs[r, m - 1], xs[r, m]))
        sd = np.empty(size.size)
        if odd.any():
            n_odd = size[odd].tolist()
            lo = np.array([_brackets(n, _PCTL_LO)[0] for n in n_odd]) - 1
            hi = np.array([_brackets(n, _PCTL_HI)[0] for n in n_odd]) - 1
            sd[odd] = (xs[r[odd], hi] - xs[r[odd], lo]) / 2.0
    zero = (xs == 0.0).any(axis=1)
    for i in np.flatnonzero(~odd & ~zero).tolist():
        sd[i] = _ResampledMedianLaw(xs[i, : size[i]], is_sorted=True).sd()
    for i in np.flatnonzero(zero).tolist():
        estimate[i], sd[i] = _median_inference(ratios[i, mask[i]])[:2]
    return estimate, sd


def _degenerate_weights(weight_sum: float) -> ZeroDenominatorError:
    """The error for IVW weights whose sum is 0 or inf."""
    how = "all underflow to zero" if weight_sum == 0.0 else "overflow"
    return ZeroDenominatorError(f"IVW weights (exposure beta / outcome se)^2 {how}")


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    # std_sf is scalar (math.erfc); NaN stays NaN
    return np.array([2.0 * std_sf(abs(v)) for v in z.tolist()])


@dataclass(frozen=True, eq=False)
class DirectionRows:
    """One directional test on each row of R panels, row ``r`` as on panel ``r`` alone.

    ``selected`` is the (R, p) set each row aggregates over (after
    zero-denominator drops) and ``size`` its cardinality; ``empty_reject``
    marks rows whose empty focused set rejects by construction (p-value 0).
    A float a row does not define is NaN: the estimate, scale and weight sum
    of an empty set, a weight share when the weights sum to zero, ``z`` when
    the median scale is zero, and MR-Egger's weight sum and share.
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
) -> DirectionRows:
    """One method's test in one direction on every row of (R, p) estimates at once.

    ``exp_beta``/``out_beta`` hold one panel's exposure and outcome betas per
    row; the standard errors are (p,) vectors shared by the rows (or (R, p)).
    Masks, weights, IVW estimates, z and p are row reductions; the median
    methods give each row what :func:`_median_inference` gives its set,
    from one sort of all rows (:func:`_median_rows`), and MR-Egger is solved
    in closed form (:func:`_egger_rows`). Of ``cfg`` only ``tau_f`` and, for
    focused IVW rows with a nonempty set, ``null_var`` are used.

    The focused methods drop zero exposure associations from the set
    (counted in ``n_dropped``) and reject on an empty set. The conventional
    methods take the relevance-screened set (``tau_f = inf``): an empty one
    is an :class:`EmptyRelevantSetError` and a zero exposure association a
    :class:`ZeroDenominatorError`. IVW weights ``(exp_beta / out_se)^2``
    that all underflow to zero, or overflow, leave no null scale and are a
    :class:`ZeroDenominatorError` too.
    """
    method = Method(method)
    if not tau_s >= 0.0:
        raise InputError(f"tau_s must be nonnegative, got {tau_s!r}")
    if method is Method.MR_EGGER:
        return _egger_rows(exp_beta, exp_se, out_beta, out_se, tau_s)
    if not method.focused:
        cfg = _UNFOCUSED
    mask = _set_mask(exp_beta, exp_se, out_beta, out_se, cfg.tau_f, tau_s)
    zero = mask & (exp_beta == 0.0)
    n_dropped = zero.sum(axis=1)
    mask &= ~zero
    size = mask.sum(axis=1)
    errors: dict[int, DegeneracyError] = {}
    if method.focused:
        empty_reject = size == 0
    else:
        for r in np.flatnonzero(size + n_dropped == 0).tolist():
            errors[r] = _empty_relevant_set(tau_s)
        for r in np.flatnonzero(n_dropped).tolist():
            errors.setdefault(
                r, ZeroDenominatorError("ratio estimates need nonzero exposure associations")
            )
        empty_reject = np.zeros(size.size, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = out_beta / exp_beta
        weights = np.where(mask, (exp_beta / out_se) ** 2, 0.0)
        weight_sum = np.where(size > 0, weights.sum(axis=1), np.nan)
        max_share = np.where(weight_sum > 0.0, weights.max(axis=1) / weight_sum, np.nan)
    live = size > 0
    live[list(errors)] = False

    nan = np.full(size.size, np.nan)
    if method.median:
        estimate, se, z, p_value = nan.copy(), nan.copy(), nan.copy(), nan.copy()
        rows = np.flatnonzero(live)
        estimate[rows], se[rows] = _median_rows(ratios[rows], mask[rows], size[rows])
        # as _median_inference: a zero scale leaves z undefined, p 1 at a zero median, else 0
        scaled = rows[se[rows] > 0.0]
        with np.errstate(invalid="ignore"):
            z[scaled] = estimate[scaled] / se[scaled]
        p_value[rows] = np.where(estimate[rows] == 0.0, 1.0, 0.0)
        p_value[scaled] = _two_sided_p(z[scaled])
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
            estimate = np.where(mask, weights * ratios, 0.0).sum(axis=1) / weight_sum
            se = np.sqrt(null_var / weight_sum)
            z = estimate / se
        p_value = _two_sided_p(z)
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
        errors=errors,
    )


def _empty_relevant_set(tau_s: float) -> EmptyRelevantSetError:
    return EmptyRelevantSetError(f"no SNP passes the relevance threshold tau_s={tau_s}")


def _egger_rows(exp_beta, exp_se, out_beta, out_se, tau_s: float) -> DirectionRows:
    """MR-Egger on every row of (R, p) estimates, in closed form.

    Each SNP is first oriented so its exposure association is nonnegative
    (the regression is not invariant to per-SNP sign conventions otherwise).
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
    mask = _set_mask(exp_beta, exp_se, out_beta, out_se, math.inf, tau_s)
    n = mask.sum(axis=1)
    flip = exp_beta < 0.0
    x = np.where(flip, -exp_beta, exp_beta)
    y = np.where(flip, -out_beta, out_beta)
    spread = np.where(mask, x, -np.inf).max(axis=1) - np.where(mask, x, np.inf).min(axis=1)

    errors = {}
    for r in np.flatnonzero(n < 3).tolist():
        errors[r] = (
            _empty_relevant_set(tau_s)
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
    resolved ``tau_s``; raises the row's degeneracy, if any. A focused
    method rejects outright on an empty focused set, and otherwise compares
    its estimate against its null scale: the truncated-normal IVW standard
    deviation, or the exact SNP-bootstrap law for the median. SNPs with an
    exactly zero exposure beta (possible only when ``tau_s == 0``) contribute
    no ratio information and are dropped from the focused set, with the
    count reported.
    """
    method = Method(method)
    tau_s = cfg.resolve_tau_s(len(panel))
    exp_beta, exp_se, out_beta, out_se = _panel_roles(panel, direction)
    rows = direction_rows(exp_beta[None], exp_se, out_beta[None], out_se, cfg, tau_s, method)
    if rows.errors:
        raise rows.errors[0]

    def scalar(column, defined=True):
        value = float(column[0]) if defined and column is not None else math.nan
        return None if math.isnan(value) else value

    selected = rows.selected[0]
    selected.setflags(write=False)
    p_value = float(rows.p_value[0])
    return TestReport(
        direction=direction,
        method=method,
        alpha=cfg.alpha,
        tau_f=cfg.tau_f if method.focused else None,
        tau_s=tau_s,
        selected=selected,
        focused_size=int(rows.size[0]),
        estimate=scalar(rows.estimate),
        null_sd=scalar(rows.se),
        z_score=scalar(rows.z),
        p_value=p_value,
        reject=p_value <= cfg.alpha,
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
    half = replace(cfg, alpha=cfg.alpha / 2.0)
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
    selected = np.asarray(selected)
    snr = np.asarray(snr, dtype=float)
    if selected.dtype != bool or selected.shape != (len(panel),):
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
    threshold = std_quantile(1.0 - cfg.alpha / 2.0) * math.sqrt(cfg.null_var / weight_sum)
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
