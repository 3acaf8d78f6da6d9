"""The exact law of the SNP-bootstrap median against enumeration and Monte Carlo.

For n up to 7 every one of the n^n resamples is enumerated: the law's CDF
must match the enumerated one at every attainable median to 1e-12, and its
one-sigma percentile SD must equal the enumerated one exactly, also where
pair means overflow to +-inf. At n of 60 and 150 the SD must agree with a
Monte-Carlo bootstrap of 10^5 resamples within four Monte-Carlo standard
errors. Hypothesis checks invariance to permutation and translation, scaling
by |c| and nonnegativity, and that the batched even-n search gives, hex for
hex, the quantiles of the per-row law it replaced (kept here as an oracle).
The rejection decisions settled without the law, from the order-statistic
brackets, must be the law's own decisions, in a chunk and row by row, and
must settle all but a few of a scenario's even-n rows. The rows left wait in
one pool per scenario: one law decides them all, unless they would pass the
chunk's values, and the reports do not depend on how often it is flushed.
"""

import contextlib
import math
import warnings
from functools import lru_cache
from itertools import product
from unittest import mock

import numpy as np
import pytest

from bidirmr import focusing, simulation
from bidirmr.cli import main
from bidirmr.errors import EmptyFocusedSetError, InputError
from bidirmr.focusing import FocusConfig, Method, _brackets, _pair_mean, exact_bootstrap_median_sd
from bidirmr.truncnorm import std_cdf, std_sf

LO, HI = std_cdf(-1.0), std_cdf(1.0)


def enumerated_law(x):
    """(attainable medians, CDF at each) over all n^n resamples, by counting."""
    x = np.asarray(x, dtype=float)
    n = x.size
    rest = np.array(list(product(range(n), repeat=n - 1)), dtype=np.intp).reshape(n ** (n - 1), n - 1)
    medians = []
    for first in range(n):  # one block of n^(n-1) resamples at a time
        idx = np.column_stack((np.full(len(rest), first), rest))
        with np.errstate(over="ignore"):  # pair means may overflow, as the law counts them
            medians.append(np.median(x[idx], axis=1))
    values, counts = np.unique(np.concatenate(medians), return_counts=True)
    return values, np.cumsum(counts) / n**n


def left_inverse(values, cdf, q):
    return values[np.argmax(cdf >= q)]


def small_vectors():
    rng = np.random.default_rng(2024)
    for n in range(1, 8):
        yield f"n{n}-normal", rng.normal(size=n)
        yield f"n{n}-ties", rng.integers(0, 3, size=n).astype(float)
        yield f"n{n}-constant", np.full(n, -1.25)
        yield f"n{n}-cauchy", rng.standard_cauchy(size=n)
    # twice a value overflows, so a pair mean is +-inf where the values are not
    yield "overflow-positive", np.array([9e307, 9.5e307, 1.0, 2.0])
    yield "overflow-both-signs", np.array([1e308, -1e308, 1e308, 1e308])
    yield "overflow-odd", np.array([1.7e308, 1e307, -3.0, 5.0, 1.6e308])
    yield "overflow-negative", np.array([-1.7e308, -1e308, 3.0, 4.0, 2.0, -2.0])


SMALL = dict(small_vectors())


class OneRowLaw:
    """The package's exact law of one sample, as cdf and quantile: odd n by ``_tails`` and
    ``_brackets``, even n by a one-row ``_EvenLaws``."""

    def __init__(self, x):
        self.x, self.n = np.sort(x), x.size
        if self.n % 2 == 0:
            self._even = focusing._EvenLaws(np.append(self.x, np.inf)[None], np.array([self.n]))

    def cdf(self, t):
        if self.n % 2:
            return float(focusing._tails(self.n, self.n // 2 + 1,
                                         np.searchsorted(self.x, [t], side="right"))[0])
        with np.errstate(all="ignore"):
            return float(self._even.cdf(np.zeros(1, dtype=np.intp), np.array([float(t)]))[0][0])

    def quantile(self, q):
        if self.n % 2:
            return float(self.x[_brackets(self.n, q)[0] - 1])
        with np.errstate(all="ignore"):
            return float(self._even.quantiles(np.zeros(1, dtype=np.intp), np.array([q]))[0])


@pytest.mark.parametrize("case", sorted(SMALL))
def test_matches_enumeration_of_every_resample(case):
    x = SMALL[case]
    values, cdf = enumerated_law(x)
    law = OneRowLaw(x)
    got = np.array([law.cdf(v) for v in values])
    np.testing.assert_allclose(got, cdf, rtol=0, atol=1e-12)
    if values[0] > -np.inf:  # an overflowing pair mean leaves no value below -inf
        assert law.cdf(values[0] - 1.0) == 0.0
    for q in (0.01, LO, 0.5, HI, 0.99):
        assert law.quantile(q) == left_inverse(values, cdf, q)
    expected = (left_inverse(values, cdf, HI) - left_inverse(values, cdf, LO)) / 2.0
    assert exact_bootstrap_median_sd(x) == expected


@pytest.mark.parametrize("x", [
    [0.0, math.inf, math.inf, math.inf, -math.inf, -math.inf],
    [-math.inf, 1.0, math.inf, 2.0],
    [math.inf, -math.inf, -math.inf, 0.5, math.inf],
    [-math.inf, math.inf, 3.0, -1.0, math.inf, -math.inf],
])
def test_matches_enumeration_with_both_infinities(x):
    # -inf and +inf pair to a NaN median, which is at no t, so the cdf stays below 1
    x = np.array(x)
    with np.errstate(invalid="ignore"):
        values, cdf = enumerated_law(x)
    law = OneRowLaw(x)
    defined = ~np.isnan(values)
    got = np.array([law.cdf(v) for v in values[defined]])
    np.testing.assert_allclose(got, cdf[defined], rtol=0, atol=1e-12)
    for q in (0.01, LO, 0.5, HI, 0.99):
        want = left_inverse(values, cdf, q)
        if not np.isnan(want):  # past the last defined median no t reaches q
            assert law.quantile(q) == want


@pytest.mark.parametrize("case", sorted(k for k in SMALL if k.startswith("overflow")))
def test_overflowing_pair_means_warn_nothing(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact_bootstrap_median_sd(SMALL[case])
        focusing._median_rows(SMALL[case][None], np.ones((1, SMALL[case].size), dtype=bool),
                              np.array([SMALL[case].size]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_split_brackets_give_the_same_quantiles(monkeypatch, n):
    # with no pair mean enumerated at once, every bracket is split to the end
    x = np.random.default_rng(n).normal(size=n).round(1)
    values, cdf = enumerated_law(x)
    monkeypatch.setattr(focusing, "_CANDIDATES_PER_VALUE", 0)
    law = OneRowLaw(x)
    for q in (0.05, LO, 0.5, HI, 0.95):
        assert law.quantile(q) == left_inverse(values, cdf, q)


def test_two_clusters_split_and_enumerate_alike(monkeypatch):
    # 100 x 100 distinct pair means lie between the two central values
    rng = np.random.default_rng(7)
    x = np.concatenate((rng.uniform(0.0, 1e-3, 100), rng.uniform(1.0, 1.001, 100)))
    split = exact_bootstrap_median_sd(x)
    monkeypatch.setattr(focusing, "_CANDIDATES_PER_VALUE", 10**6)
    assert exact_bootstrap_median_sd(x) == split


@pytest.mark.parametrize("n", [1, 2, 9, 10, 101, 1000])
@pytest.mark.parametrize("z", [-6.0, 0.0, 6.0])
def test_order_statistic_search_survives_a_wrong_start(n, z):
    # the bisection over k starts mid-range; std_cdf(+-6) puts the answer at its ends
    tails = [focusing._tails(n, a, np.arange(n + 1)) for a in (n // 2 + 1, n // 2)]
    for q in (std_cdf(z), 0.1, LO, 0.5, HI, 0.9):
        hi, lo = focusing._brackets(n, q)
        assert hi == int(np.argmax(tails[0] >= q))
        assert lo == (hi if n % 2 else int(np.argmax(tails[1] >= q)))


def cache_samples():
    rng = np.random.default_rng(11)
    for n in list(range(1, 81)) + [150, 151, 1000]:
        yield rng.standard_t(2, size=n)
        yield rng.integers(-2, 3, size=n).astype(float)


def cold(x, monkeypatch):
    """The scale with every module cache emptied first."""
    focusing._brackets.cache_clear()
    focusing._even_terms.cache_clear()
    monkeypatch.setattr(focusing, "_log_fact", np.empty(0))
    return exact_bootstrap_median_sd(x)


def test_warm_caches_give_the_same_floats_as_cold_ones(monkeypatch):
    samples = list(cache_samples())
    expected = [cold(x, monkeypatch) for x in samples]
    # warm: largest n first, so the log-factorial table is always longer than needed
    for k in np.argsort([-x.size for x in samples], kind="stable"):
        assert exact_bootstrap_median_sd(samples[k]) == expected[k]
    reference = [math.lgamma(s + 1.0) for s in range(1001)]
    assert focusing._log_factorials(1000).tolist() == reference
    assert focusing._log_fact.size == 1001


def test_bracket_cache_stays_within_its_bound(monkeypatch):
    assert focusing._brackets.cache_info().maxsize == focusing._BRACKETS_SIZE
    samples = list(cache_samples())[::3]
    expected = [exact_bootstrap_median_sd(x) for x in samples]
    small = lru_cache(maxsize=8)(focusing._brackets.__wrapped__)
    monkeypatch.setattr(focusing, "_brackets", small)
    for x, sd in zip(samples, expected):
        assert exact_bootstrap_median_sd(x) == sd
        assert small.cache_info().currsize <= 8
    assert small.cache_info().misses > 8


def same_floats(got, want):
    """Equal values (NaN matching NaN) with equal signs, so -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got, want)
    known = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[known]), np.signbit(want[known]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_sorted_rows_match_the_per_row_inference(seed):
    # rows of every set size up to p, with +-inf ratios (tiny exposure betas)
    # and signed zeros (zero outcome betas over either sign of exposure beta)
    rng = np.random.default_rng(seed)
    R, p = 240, 61
    exp_beta = rng.normal(size=(R, p))
    exp_beta[rng.random((R, p)) < 0.05] = rng.choice([-1e-310, 1e-310])
    out_beta = rng.normal(size=(R, p)) * rng.uniform(0.2, 30.0, size=(R, 1))
    out_beta[rng.random((R, p)) < 0.1] = 0.0
    out_beta[::7] = rng.integers(-1, 2, size=(len(out_beta[::7]), p))
    se = np.ones(p)
    cfg = FocusConfig(tau_f=1.5, tau_s=0.0)
    rows = focusing.direction_rows(exp_beta, se, out_beta, se, cfg, 0.0, Method.FOCUSED_MEDIAN)
    assert len(set(rows.size.tolist())) > 30 and rows.errors == {}
    live = np.flatnonzero(rows.size)
    with np.errstate(divide="ignore", over="ignore"):
        ratios = out_beta / exp_beta
    assert np.isinf(ratios[rows.selected]).any()
    sets = [ratios[r, rows.selected[r]] for r in live]
    with np.errstate(invalid="ignore"):  # the median of -inf and inf is NaN
        estimate = np.array([np.median(x) for x in sets])
    sd = np.array([PerRowLaw(x).sd() for x in sets])
    # a zero scale leaves z undefined, with p-value 1 at a zero median and 0 otherwise
    scaled = sd > 0.0
    z = np.where(scaled, estimate / np.where(scaled, sd, 1.0), np.nan)
    p_value = np.where(estimate == 0.0, 1.0, 0.0)
    p_value[scaled] = [2.0 * std_sf(abs(v)) for v in z[scaled]]
    same_floats(rows.estimate[live], estimate)
    same_floats(rows.se[live], sd)
    same_floats(rows.z[live], z)
    same_floats(rows.p_value[live], p_value)


def monte_carlo_sd(x, n_boot, seed, block=5_000):
    """Percentile SD of ``n_boot`` resampled medians, and its standard error
    from 20 equal batches."""
    rng = np.random.default_rng(seed)
    medians = np.concatenate([
        np.median(x[rng.integers(0, x.size, size=(block, x.size))], axis=1)
        for _ in range(n_boot // block)
    ])

    def sd(m):
        lo, hi = np.quantile(m, (LO, HI))
        return (hi - lo) / 2.0

    batches = [sd(b) for b in medians.reshape(20, -1)]
    return sd(medians), float(np.std(batches, ddof=1)) / math.sqrt(20)


@pytest.mark.parametrize("n,seed", [(60, 1), (61, 2), (150, 3), (151, 4)])
def test_agrees_with_monte_carlo_bootstrap(n, seed):
    x = np.random.default_rng(seed).standard_t(3, size=n)
    mc, se = monte_carlo_sd(x, 100_000, seed + 100)
    assert abs(exact_bootstrap_median_sd(x) - mc) <= 4.0 * se


class PerRowLaw:
    """The per-row even-n law the batched search replaced, kept verbatim as an oracle.

    One sample at a time: a bisection over its sorted values with a memoized
    scalar cdf, then a pair-mean enumeration inside the final bracket. It
    reads positions through the sample values, so it is exact only where no
    pair mean overflows.
    """

    def __init__(self, x: np.ndarray):
        self.n, self.m = n, m = x.size, x.size // 2
        self.x = np.sort(x)
        self._cdf_memo: dict[float, float] = {}
        log_fact = focusing._log_factorials(n)
        s = np.arange(m, n + 1)
        self._log_choose = log_fact[n] - log_fact[s] - log_fact[n - s]
        if n % 2 == 0:
            i = np.arange(1, n + 1)
            with np.errstate(divide="ignore"):
                # log of C(n, m) ((i/n)^m - ((i-1)/n)^m)
                self._log_central = (
                    self._log_choose[0]
                    + m * np.log(i / n)
                    + np.log(-np.expm1(m * np.log1p(-1.0 / i)))
                )

    def _tail(self, a: int, ks: np.ndarray) -> np.ndarray:
        return focusing._tails(self.n, a, ks)

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
        with np.errstate(invalid="ignore"):
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
            if total <= focusing._CANDIDATES_PER_VALUE * n:
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
        return (self.quantile(HI) - self.quantile(LO)) / 2.0


def test_empty_ratio_set_is_degenerate():
    with pytest.raises(EmptyFocusedSetError):
        exact_bootstrap_median_sd(np.empty(0))


def test_nan_ratio_is_input_error():
    with pytest.raises(InputError):
        exact_bootstrap_median_sd(np.array([1.0, np.nan, 2.0, 3.0]))


@pytest.mark.parametrize("ratios", [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 2.0, [[0.5]]])
def test_ratios_that_are_not_one_dimensional_are_input_errors(ratios):
    with pytest.raises(InputError):
        exact_bootstrap_median_sd(np.array(ratios))


def test_rows_holding_zeros_share_one_even_law():
    # each row holds a signed zero and is sorted alone, but the even rows still search together
    rng = np.random.default_rng(9)
    size = np.array([2, 4, 5, 6, 7, 8, 9, 10, 12, 13])
    ratios = np.full((size.size, size.max()), np.nan)
    mask = np.arange(size.max()) < size[:, None]
    ratios[mask] = rng.normal(size=size.sum()).round(1)
    ratios[:, 0] = rng.choice([0.0, -0.0], size=size.size)
    with mock.patch.object(focusing, "_EvenLaws", wraps=focusing._EvenLaws) as laws:
        estimate, sd, _ = focusing._median_rows(ratios, mask, size)
    assert laws.call_count == 1
    sets = [ratios[r, mask[r]] for r in range(size.size)]
    same_floats(estimate, [np.median(x) for x in sets])
    same_floats(sd, [PerRowLaw(x).sd() for x in sets])


def test_leaves_input_untouched():
    ratios = np.random.default_rng(4).normal(size=26)
    before = ratios.copy()
    exact_bootstrap_median_sd(ratios)
    np.testing.assert_array_equal(ratios, before)


def test_large_panel_stays_finite():
    # log-space terms keep every probability finite at tens of thousands of SNPs
    for n in (40_000, 40_001):
        x = np.random.default_rng(n).normal(size=n)
        sd = exact_bootstrap_median_sd(x)
        # the median's standard error is sqrt(pi / 2) / sqrt(n) for a unit normal
        assert sd == pytest.approx(math.sqrt(math.pi / 2.0 / n), rel=0.05)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

vectors = st.one_of(
    st.lists(st.floats(-100.0, 100.0, allow_subnormal=False), min_size=1, max_size=40),
    st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 3.0]), min_size=1, max_size=40),
)


def close(a, b, scale):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(max_examples=200, deadline=None)
@given(vectors, st.randoms(use_true_random=False))
def test_invariant_to_permutation(values, random):
    shuffled = list(values)
    random.shuffle(shuffled)
    assert exact_bootstrap_median_sd(np.array(shuffled)) == exact_bootstrap_median_sd(
        np.array(values)
    )


@settings(max_examples=200, deadline=None)
@given(vectors, st.floats(-50.0, 50.0))
def test_invariant_to_translation(values, shift):
    x = np.array(values)
    scale = float(np.max(np.abs(x))) + abs(shift) + 1.0
    assert close(exact_bootstrap_median_sd(x + shift), exact_bootstrap_median_sd(x), scale)


@settings(max_examples=200, deadline=None)
@given(vectors, st.floats(-20.0, 20.0).filter(lambda c: abs(c) > 1e-3))
def test_scales_with_absolute_factor(values, factor):
    x = np.array(values)
    sd = exact_bootstrap_median_sd(x)
    assert sd >= 0.0
    scale = (float(np.max(np.abs(x))) + 1.0) * abs(factor)
    assert close(exact_bootstrap_median_sd(factor * x), abs(factor) * sd, scale)


# finite values well away from overflow, with ties, zeros and +-inf
law_values = st.one_of(
    st.floats(-1e6, 1e6, allow_subnormal=False),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
)
samples = st.lists(law_values, min_size=1, max_size=48)
candidates_per_value = st.sampled_from([None, 0, 10**6])


def hexes(values):
    return [float.hex(float(v)) for v in values]


def per_row(answer):
    """The per-row law's answer. Where NaN medians (-inf with +inf) keep its cdf
    below q up to +inf, it repeats a negative count and raises: no bits to keep."""
    try:
        return answer()
    except ValueError:
        assume(False)


def candidates(limit):
    """Patch ``_CANDIDATES_PER_VALUE`` (0 splits every bracket to the end, 10**6 never);
    None keeps its value."""
    if limit is None:
        return contextlib.nullcontext()
    return mock.patch.object(focusing, "_CANDIDATES_PER_VALUE", limit)


@settings(deadline=None)
@given(samples, candidates_per_value)
def test_batched_law_matches_the_per_row_law_on_one_row(values, limit):
    x = np.array(values)
    oracle = PerRowLaw(x)
    with candidates(limit):
        law = OneRowLaw(x)
        for q in (0.05, LO, 0.5, HI, 0.95):
            assert float.hex(law.quantile(q)) == float.hex(per_row(lambda: oracle.quantile(q)))
        assert float.hex(exact_bootstrap_median_sd(x)) == float.hex(per_row(oracle.sd))


@settings(deadline=None)
@given(st.lists(samples, min_size=1, max_size=12), candidates_per_value)
def test_batched_law_matches_the_per_row_law_on_a_chunk(rows, limit):
    # rows of mixed even and odd sizes, packed as the scenario engine packs a chunk
    size = np.array([len(r) for r in rows])
    ratios = np.full((size.size, size.max()), np.nan)
    mask = np.arange(size.max()) < size[:, None]
    ratios[mask] = np.concatenate(rows)
    with candidates(limit):
        estimate, sd, _ = focusing._median_rows(ratios, mask, size)
        want = [per_row(PerRowLaw(np.array(r)).sd) for r in rows]
    assert hexes(sd) == hexes(want)
    with np.errstate(invalid="ignore"):  # the median of -inf and inf is NaN
        assert hexes(estimate) == hexes(np.median(np.array(r)) for r in rows)


def test_segment_sums_are_numpy_sums():
    # pairwise summation changes tree at 8 and 128 terms: cover lengths across both
    rng = np.random.default_rng(5)
    lengths = np.concatenate(([0, 1, 7, 8, 9, 127, 128, 129, 300], rng.integers(0, 400, 40)))
    owner = np.repeat(np.arange(lengths.size), lengths)
    values = np.exp(rng.normal(0.0, 5.0, owner.size))
    got = focusing._segment_sums(values, owner, lengths.size)
    starts = np.cumsum(lengths) - lengths
    assert hexes(got) == hexes(np.sum(values[a:a + k]) for a, k in zip(starts, lengths))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 2.5]) | st.floats(-9.0, 9.0),
                         min_size=1, max_size=30), min_size=1, max_size=8))
def test_row_order_is_a_stable_sort_within_each_row(rows):
    values = np.concatenate([np.array(r, dtype=float) for r in rows])
    owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    offset = np.concatenate([np.arange(len(r)) for r in rows])
    got = focusing._row_order(values, owner, offset)
    np.testing.assert_array_equal(got, np.lexsort((values, owner)))


@settings(deadline=None)
@given(st.lists(samples.map(lambda v: v + v[:1] if len(v) % 2 else v), min_size=1, max_size=8),
       st.data())
def test_batched_cdf_matches_the_per_row_cdf(rows, data):
    # cdf bits feed every comparison with q, so they are locked too, not only the quantiles
    size = np.array([len(r) for r in rows])
    xs = np.full((size.size, size.max() + 1), np.inf)
    xs[np.arange(size.max() + 1) < size[:, None]] = np.concatenate(rows)
    xs.sort(axis=1)
    laws = focusing._EvenLaws(xs, size)
    row = np.array(data.draw(st.lists(st.integers(0, size.size - 1), min_size=1, max_size=20)))
    t = np.array([data.draw(st.sampled_from(xs[e, : size[e]].tolist()) | law_values) for e in row])
    with np.errstate(all="ignore"):
        got = laws.cdf(row, t)[0]
        want = [PerRowLaw(np.array(rows[e])).cdf(v) for e, v in zip(row, t)]
    assert hexes(got) == hexes(want)


def critical_z(alpha):
    """The |z| where ``2 * std_sf`` crosses alpha, by bisection to adjacent floats."""
    lo, hi = 0.0, 64.0
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if 2.0 * std_sf(mid) > alpha else (lo, mid)
    return hi


ALPHAS = [0.5, 0.1, 0.05, 1e-6, 1e-20, 1e-300]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_critical_band_brackets_the_crossing(alpha):
    # 1 - 1e-20 / 2 rounds to 1: the band takes the quantile of the lower tail, alpha / 2
    z_lo, z_hi = focusing._critical_band(alpha)
    z = critical_z(alpha)
    assert z_lo < z <= z_hi and z_hi / z_lo < 1.0 + 3e-6
    grid = np.concatenate((np.linspace(0.0, z_lo, 2001), z_hi * np.linspace(1.0, 1.5, 2001)))
    p = focusing._two_sided_p(grid)
    assert (p[:2001] > alpha).all() and (p[2001:] <= alpha).all()


def test_no_critical_band_where_p_cannot_be_trusted_to_cross_once():
    assert focusing._critical_band(1e-310) is None  # subnormal alpha
    assert focusing._critical_band(1.0 - 1e-13) is None  # the margin moves p by under an ulp


# values, with ties, signed zeros, +-inf and values whose doubled pair mean overflows
bound_values = st.one_of(law_values, st.sampled_from([1.7e308, -1.7e308, 9e307, -1e308]))


@settings(max_examples=300, deadline=None)
@given(st.lists(bound_values, min_size=2, max_size=60).map(lambda v: v[: len(v) // 2 * 2]))
def test_brackets_bound_the_even_law_and_its_scale(values):
    x = np.sort(np.array(values))
    n = x.size
    law = OneRowLaw(x)
    with np.errstate(over="ignore"):
        d = _pair_mean(x, x)
    for q in (LO, HI):
        hi, lo = _brackets(n, q)
        quantile = law.quantile(q)
        assume(not np.isnan(quantile))  # -inf with +inf: no median value reaches q
        assert d[lo - 1] <= quantile <= d[hi - 1]
    with np.errstate(all="ignore"):
        s_min, s_max = focusing._scale_bounds(np.append(x, np.inf)[None], np.array([n]))
        sd = exact_bootstrap_median_sd(x)
    assert not s_min[0] > sd and not sd > s_max[0]


def near_critical(x, alpha, offset):
    """``x`` translated so that its |z| = median / scale sits ``offset`` (relative) from the
    critical value; a zero scale is left alone."""
    with np.errstate(all="ignore"):
        sd = exact_bootstrap_median_sd(x)
        shift = critical_z(alpha) * (1.0 + offset) * sd - np.median(x)
        return x + shift if sd > 0.0 and np.isfinite(shift) else x


@st.composite
def decision_chunks(draw):
    """``(alpha, rows)``: rows of even and odd sizes from 2 to 600, with ties, signed zeros
    and overflowing pair means, many translated to within 1e-9 to 1e-3 of the critical |z|."""
    alpha = draw(st.sampled_from(ALPHAS))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(st.integers(2, 24), st.integers(2, 600)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["normal", "ties", "zeros", "overflow"]))
        x = rng.normal(draw(st.floats(-3.0, 3.0)), 1.0, n)
        if kind == "ties":
            x = np.round(x * 2.0) / 2.0
        elif kind == "zeros":
            x[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
        elif kind == "overflow":
            x[rng.random(n) < 0.5] = rng.choice([1.7e308, -1.7e308, 9e307])
        if draw(st.booleans()):
            offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -3.0))
            x = near_critical(x, alpha, offset)
        rows.append(x)
    return alpha, rows


def median_chunk(rows):
    """``(exp_beta, exp_se, out_beta, out_se)``, finite, whose MR-Median / focused-median sets
    at tau_s = 1 are exactly ``rows``, ratios exact: an infinite ratio is +-1 over the least
    subnormal exposure beta, relevant at a standard error as small."""
    size = np.array([r.size for r in rows])
    inside = np.arange(size.max()) < size[:, None]
    ratios = np.zeros(inside.shape)
    ratios[inside] = np.concatenate(rows)
    infinite = np.isinf(ratios)
    out_beta = np.where(infinite, np.sign(ratios), ratios)
    exp_beta = np.where(inside, np.where(infinite, 5e-324, 1.0), 0.5)  # below tau_s outside
    exp_se = np.where(infinite, 5e-324, 1.0)
    return exp_beta, exp_se, out_beta, np.ones(size.max())


@settings(max_examples=150, deadline=None)
@given(decision_chunks())
def test_decisions_without_scales_are_the_laws(chunk):
    alpha, rows = chunk
    exp_beta, exp_se, out_beta, se = median_chunk(rows)
    # the conventional methods' set is the relevance-screened one; alpha is still the caller's
    cfg = FocusConfig(tau_f=math.inf, tau_s=1.0, alpha=alpha)
    for method in (Method.FOCUSED_MEDIAN, Method.MR_MEDIAN):
        full = focusing.direction_rows(exp_beta, exp_se, out_beta, se, cfg, 1.0, method)
        fast = focusing.direction_rows(exp_beta, exp_se, out_beta, se, cfg, 1.0, method,
                                       scales=False)
        assert full.errors == {} and fast.errors == {}
        np.testing.assert_array_equal(full.reject, full.p_value <= alpha)
        np.testing.assert_array_equal(fast.reject, full.reject)
        # a row not settled carries the full scale, z and p; a settled one, of even n, NaN
        settled = np.isnan(fast.p_value) & ~np.isnan(full.p_value)
        assert (full.size[settled] % 2 == 0).all()
        for name in ("se", "z", "p_value"):
            same_floats(getattr(fast, name)[~settled], getattr(full, name)[~settled])
            assert np.isnan(getattr(fast, name)[settled]).all()
        for r in range(len(rows)):
            one = slice(r, r + 1)
            alone = focusing.direction_rows(exp_beta[one], exp_se[one], out_beta[one], se, cfg,
                                            1.0, method, scales=False)
            assert alone.reject[0] == full.reject[r]


# the argv of the sim-median benchmark workload, but for --seed and --out
SIM_MEDIAN = ["simulate", "--synthetic", "394", "--kappa", "1", "--tau-f", "1.5",
              "--enforce-separation", "2.0", "--beta-dy", "0.3",
              "--methods", "focused_median,mr_median", "--reps", "200"]


def test_a_scenario_settles_most_even_rows_without_the_law(tmp_path):
    # the argv of the sim-median benchmark workload: most even-n rows never reach the law
    counts = {"even": 0, "law": 0}
    rows_of, quantiles = focusing._median_rows, focusing._EvenLaws.quantiles

    def counting_rows(ratios, mask, size, *args):
        counts["even"] += int(((size > 0) & (size % 2 == 0)).sum())
        return rows_of(ratios, mask, size, *args)

    def counting_quantiles(self, rows, q):
        counts["law"] += rows.size // 2  # each row asks for two quantiles
        return quantiles(self, rows, q)

    argv = SIM_MEDIAN + ["--seed", "1", "--out", str(tmp_path / "sim.json")]
    with mock.patch.object(focusing, "_median_rows", counting_rows), \
            mock.patch.object(focusing._EvenLaws, "quantiles", counting_quantiles):
        assert main(argv) == 0
    assert counts["even"] > 300
    assert counts["law"] <= 0.1 * counts["even"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_scenario_builds_one_even_law(tmp_path, seed):
    # the rows left undecided by every chunk, method and direction wait in one pool
    argv = SIM_MEDIAN + ["--seed", str(seed), "--out", str(tmp_path / "sim.json")]
    with mock.patch.object(focusing, "_EvenLaws", wraps=focusing._EvenLaws) as laws:
        assert main(argv) == 0
    assert laws.call_count == 1


def test_a_pool_flushed_at_its_bound_gives_the_same_report(tmp_path, monkeypatch):
    whole, flushed = tmp_path / "whole.json", tmp_path / "flushed.json"
    assert main(SIM_MEDIAN + ["--seed", "2", "--out", str(whole)]) == 0
    bound = 4 * 394  # four replications to a chunk, and a pool of as many values
    monkeypatch.setattr(simulation, "_CHUNK_VALUES", bound)
    with mock.patch.object(focusing, "_EvenLaws", wraps=focusing._EvenLaws) as laws:
        assert main(SIM_MEDIAN + ["--seed", "2", "--out", str(flushed)]) == 0
    assert laws.call_count > 3
    for (xs, size), _ in laws.call_args_list:
        assert size.size * size.max() <= bound and xs.shape == (size.size, size.max() + 1)
    assert flushed.read_bytes() == whole.read_bytes()
