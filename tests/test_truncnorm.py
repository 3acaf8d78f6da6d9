"""Truncated-normal moments against closed forms and a quadrature oracle."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from bidirmr.errors import DegenerateTruncationError, InputError
from bidirmr.truncnorm import (
    TruncSpec,
    std_cdf,
    std_pdf,
    std_quantile,
    std_sf,
    truncnorm_mean,
    truncnorm_var,
)


def quad_moments(lower: float, upper: float, mu: float) -> tuple[float, float]:
    """Adaptive-quadrature oracle for the truncated mean and variance."""

    def dens(x):
        return math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2.0 * math.pi)

    mass, _ = integrate.quad(dens, lower, upper, epsabs=1e-14, epsrel=1e-13)
    m1, _ = integrate.quad(lambda x: x * dens(x), lower, upper, epsabs=1e-14, epsrel=1e-13)
    m2, _ = integrate.quad(lambda x: x * x * dens(x), lower, upper, epsabs=1e-14, epsrel=1e-13)
    mean = m1 / mass
    return mean, m2 / mass - mean * mean


class TestStdNormal:
    def test_pdf_at_zero_is_normalizing_constant(self):
        assert std_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)

    def test_pdf_value(self):
        # high-precision evaluation of the closed form at 1.5
        assert std_pdf(1.5) == pytest.approx(0.129517595665891727614, abs=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.5, 3.0, 8.0])
    def test_pdf_symmetry(self, x):
        assert std_pdf(x) == std_pdf(-x)

    def test_cdf_at_zero(self):
        assert std_cdf(0.0) == 0.5

    def test_cdf_value(self):
        assert std_cdf(1.5) == pytest.approx(0.933192798731141934, abs=1e-12)

    def test_cdf_monotone(self):
        xs = np.linspace(-6.0, 6.0, 200)
        vals = [std_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_sf_complements_cdf(self):
        for x in (-3.0, -0.4, 0.0, 1.2, 4.0):
            assert std_sf(x) == pytest.approx(1.0 - std_cdf(x), abs=1e-15)

    def test_quantile_value(self):
        assert std_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_quantile_inverts_cdf(self):
        for p in (1e-10, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.975, 1.0 - 1e-6):
            x = std_quantile(p)
            assert std_cdf(x) == pytest.approx(p, abs=1e-9)
            assert std_quantile(std_cdf(x)) == pytest.approx(x, abs=1e-10)

    @pytest.mark.parametrize("p", [
        1.0 - 1.0 / np.arange(2, 200_001),  # the 1/p relevance rule's tau_s for every p
        np.random.default_rng(0).random(100_000),
        10.0 ** -np.linspace(1.0, 307.0, 20_000),  # the far lower tail
    ], ids=["one-minus-one-over-n", "uniform", "lower-tail"])
    def test_quantile_is_within_a_few_ulps(self, p):
        got = np.array([std_quantile(x) for x in p.tolist()])
        want = ndtri(p)
        assert (np.abs(got - want) <= 8 * np.spacing(np.abs(want))).all()

    def test_quantile_far_in_the_tail(self):
        assert std_quantile(1e-300) == pytest.approx(-37.0470962993612, rel=1e-13)

    @pytest.mark.parametrize("k", range(2, 54))  # 1 - 2**-k rounds to 1 past k = 53
    def test_quantile_is_odd_about_one_half(self, k):
        assert std_quantile(1.0 - 2.0**-k) == -std_quantile(2.0**-k)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_quantile_rejects_out_of_range(self, p):
        with pytest.raises(InputError):
            std_quantile(p)


class TestTruncSpec:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(InputError):
            TruncSpec(1.0, -1.0, 0.0)

    def test_rejects_nan_bound(self):
        with pytest.raises(InputError):
            TruncSpec(math.nan, 1.0, 0.0)

    def test_rejects_infinite_mu(self):
        with pytest.raises(InputError):
            TruncSpec(-1.0, 1.0, math.inf)

    def test_allows_infinite_bounds(self):
        spec = TruncSpec(-math.inf, math.inf, 2.5)
        assert truncnorm_mean(spec) == pytest.approx(2.5, abs=1e-15)
        assert truncnorm_var(spec) == pytest.approx(1.0, abs=1e-15)


class TestTruncatedMoments:
    def test_symmetric_window_centered_mean_is_zero(self):
        for tau in (0.5, 1.2, 1.5, 3.0):
            assert truncnorm_mean(TruncSpec(-tau, tau, 0.0)) == 0.0

    def test_mean_against_quadrature_spot(self):
        # frozen from the quadrature oracle
        got = truncnorm_mean(TruncSpec(-1.5, 1.5, 0.5))
        assert got == pytest.approx(0.270362820908671, abs=1e-8)

    def test_var_symmetric_closed_form(self):
        tau = 1.5
        mass = std_cdf(tau) - std_cdf(-tau)
        closed = 1.0 - 2.0 * tau * std_pdf(tau) / mass
        assert truncnorm_var(TruncSpec(-tau, tau, 0.0)) == pytest.approx(closed, rel=1e-14)
        assert closed == pytest.approx(0.5515244157615513, abs=1e-12)

    def test_var_spot_values(self):
        assert truncnorm_var(TruncSpec(-1.5, 1.5, 0.0)) == pytest.approx(
            0.5515244157615513, abs=1e-8
        )
        assert truncnorm_var(TruncSpec(-1.2, 1.2, 0.0)) == pytest.approx(
            0.3946352158997969, abs=1e-8
        )

    def test_wide_window_variance_approaches_one(self):
        assert truncnorm_var(TruncSpec(-50.0, 50.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [-5.0, -2.0, -0.7, 0.0, 1.3, 5.0])
    @pytest.mark.parametrize("tau", [0.5, 1.2, 1.5, 2.0, 3.5, 6.0])
    def test_moments_match_quadrature_grid(self, mu, tau):
        spec = TruncSpec(-tau, tau, mu)
        mean_oracle, var_oracle = quad_moments(-tau, tau, mu)
        assert truncnorm_mean(spec) == pytest.approx(mean_oracle, abs=1e-8)
        assert truncnorm_var(spec) == pytest.approx(var_oracle, abs=1e-8)

    def test_variance_positive_and_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mu = float(rng.uniform(-5.0, 5.0))
            tau = float(rng.uniform(0.5, 6.0))
            v = truncnorm_var(TruncSpec(-tau, tau, mu))
            assert 0.0 < v <= 1.0

    def test_variance_nondecreasing_in_window(self):
        taus = np.linspace(0.5, 6.0, 40)
        vs = [truncnorm_var(TruncSpec(-t, t, 0.0)) for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(vs, vs[1:]))

    def test_reflection(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))
            if b - a < 1e-3:
                continue
            mu = float(rng.uniform(-2.0, 2.0))
            fwd = TruncSpec(a, b, mu)
            rev = TruncSpec(-b, -a, -mu)
            assert truncnorm_mean(rev) == pytest.approx(-truncnorm_mean(fwd), abs=1e-12)
            assert truncnorm_var(rev) == pytest.approx(truncnorm_var(fwd), rel=1e-12)

    def test_degenerate_window_raises(self):
        with pytest.raises(DegenerateTruncationError):
            truncnorm_mean(TruncSpec(38.0, 39.0, 0.0))
        with pytest.raises(DegenerateTruncationError):
            truncnorm_var(TruncSpec(-39.0, -38.0, 0.0))
