"""The exact law of the SNP-bootstrap median against enumeration and Monte Carlo.

For n up to 7 every one of the n^n resamples is enumerated: the law's CDF
must match the enumerated one at every attainable median to 1e-12, and its
one-sigma percentile SD must equal the enumerated one exactly. At n of 60 and
150 the SD must agree with a Monte-Carlo bootstrap of 10^5 resamples within
four Monte-Carlo standard errors. Hypothesis checks invariance to
permutation and translation, scaling by |c| and nonnegativity.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from bidirmr import focusing
from bidirmr.errors import EmptyFocusedSetError, InputError
from bidirmr.focusing import FocusConfig, Method, exact_bootstrap_median_sd
from bidirmr.truncnorm import std_cdf

LO, HI = std_cdf(-1.0), std_cdf(1.0)


def enumerated_law(x):
    """(attainable medians, CDF at each) over all n^n resamples, by counting."""
    x = np.asarray(x, dtype=float)
    n = x.size
    rest = np.array(list(product(range(n), repeat=n - 1)), dtype=np.intp).reshape(n ** (n - 1), n - 1)
    medians = []
    for first in range(n):  # one block of n^(n-1) resamples at a time
        idx = np.column_stack((np.full(len(rest), first), rest))
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


SMALL = dict(small_vectors())


@pytest.mark.parametrize("case", sorted(SMALL))
def test_matches_enumeration_of_every_resample(case):
    x = SMALL[case]
    values, cdf = enumerated_law(x)
    law = focusing._ResampledMedianLaw(x)
    got = np.array([law.cdf(v) for v in values])
    np.testing.assert_allclose(got, cdf, rtol=0, atol=1e-12)
    assert law.cdf(values[0] - 1.0) == 0.0
    for q in (0.01, LO, 0.5, HI, 0.99):
        assert law.quantile(q) == left_inverse(values, cdf, q)
    expected = (left_inverse(values, cdf, HI) - left_inverse(values, cdf, LO)) / 2.0
    assert exact_bootstrap_median_sd(x) == expected


@pytest.mark.parametrize("n", [2, 4, 6])
def test_split_brackets_give_the_same_quantiles(monkeypatch, n):
    # with no pair mean enumerated at once, every bracket is split to the end
    x = np.random.default_rng(n).normal(size=n).round(1)
    values, cdf = enumerated_law(x)
    monkeypatch.setattr(focusing, "_CANDIDATES_PER_VALUE", 0)
    law = focusing._ResampledMedianLaw(x)
    for q in (0.05, LO, 0.5, HI, 0.95):
        assert law.quantile(q) == left_inverse(values, cdf, q)


def test_two_clusters_split_and_enumerate_alike(monkeypatch):
    # 100 x 100 distinct pair means lie between the two central values
    rng = np.random.default_rng(7)
    x = np.concatenate((rng.uniform(0.0, 1e-3, 100), rng.uniform(1.0, 1.001, 100)))
    split = exact_bootstrap_median_sd(x)
    monkeypatch.setattr(focusing, "_CANDIDATES_PER_VALUE", 10**6)
    assert exact_bootstrap_median_sd(x) == split


@pytest.mark.parametrize("n", [9, 10, 101, 1000])
@pytest.mark.parametrize("z", [-6.0, 0.0, 6.0])
def test_order_statistic_search_survives_a_wrong_start(n, z):
    # a start far from the answer sends the search into its block scan
    law = focusing._ResampledMedianLaw(np.arange(float(n)))
    for a in (n // 2, n // 2 + 1):
        tails = law._tail(a, np.arange(n + 1))
        for q in (0.1, LO, 0.5, HI, 0.9):
            assert law._first_reaching(a, q, z, n) == int(np.argmax(tails >= q))


def cache_samples():
    rng = np.random.default_rng(11)
    for n in list(range(1, 81)) + [150, 151, 1000]:
        yield rng.standard_t(2, size=n)
        yield rng.integers(-2, 3, size=n).astype(float)


def cold(x, monkeypatch):
    """The scale with both module caches emptied first."""
    focusing._brackets.cache_clear()
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
    want = [focusing._median_inference(ratios[r, rows.selected[r]]) for r in live]
    same_floats(rows.estimate[live], [w[0] for w in want])
    same_floats(rows.se[live], [w[1] for w in want])
    same_floats(rows.z[live], [np.nan if w[2] is None else w[2] for w in want])
    same_floats(rows.p_value[live], [w[3] for w in want])


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


def test_empty_ratio_set_is_degenerate():
    with pytest.raises(EmptyFocusedSetError):
        exact_bootstrap_median_sd(np.empty(0))


def test_nan_ratio_is_input_error():
    with pytest.raises(InputError):
        exact_bootstrap_median_sd(np.array([1.0, np.nan, 2.0, 3.0]))


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
from hypothesis import given, settings  # noqa: E402
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
