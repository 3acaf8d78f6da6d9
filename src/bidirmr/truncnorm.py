"""Standard-normal and truncated-normal special functions.

All post-selection inference in this package reduces to the first two moments
of a unit-variance normal distribution truncated to an interval ``[a, b]``:
conditioning an estimated association on having survived the focusing filter
turns its normalized noise into exactly such a truncated variable. The
functions here implement the classical closed forms

    mean = mu + (phi(a - mu) - phi(b - mu)) / Z
    var  = 1 + ((a - mu) phi(a - mu) - (b - mu) phi(b - mu)) / Z - (mean - mu)^2

with ``Z = Phi(b - mu) - Phi(a - mu)``, alongside the standard normal pdf,
cdf, survival function, and quantile.

Everything is scalar arithmetic from the standard library (no external
special-function dependency): the cdf rides on ``math.erfc`` so both tails
keep full double precision, the quantile is :class:`statistics.NormalDist`'s,
and the truncation mass is evaluated on whichever side of the distribution
avoids subtracting two numbers near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DegenerateTruncationError, InputError, _number

__all__ = [
    "DEGENERATE_MASS",
    "TruncSpec",
    "std_cdf",
    "std_pdf",
    "std_quantile",
    "std_sf",
    "truncnorm_mean",
    "truncnorm_var",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()

#: Truncation windows with less probability mass than this raise
#: :class:`DegenerateTruncationError` rather than returning garbage.
DEGENERATE_MASS = 1e-300


def std_pdf(x: float) -> float:
    """Density of the standard normal distribution at ``x``."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_cdf(x: float) -> float:
    """Distribution function of the standard normal distribution."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_sf(x: float) -> float:
    """Upper-tail probability ``1 - std_cdf(x)``, exact in the far tail."""
    return 0.5 * math.erfc(x / _SQRT2)


def std_quantile(p: float) -> float:
    """Inverse of :func:`std_cdf` on the open interval (0, 1).

    The standard library's :meth:`statistics.NormalDist.inv_cdf` (Wichura's
    AS 241): within a few ulps of the exact quantile across (0, 1), down to the
    smallest normal ``p``.
    """
    _number("p", p, lambda x: 0.0 < x < 1.0, "in (0, 1)")
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class TruncSpec:
    """Unit-variance normal with location ``mu`` truncated to [lower, upper].

    Bounds may be infinite (one-sided or absent truncation); ``mu`` must be
    finite and ``lower < upper``.
    """

    lower: float
    upper: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("lower", "upper"):
            _number(name, getattr(self, name), lambda x: not math.isnan(x), "a number, not NaN")
        if not self.lower < self.upper:
            raise InputError(f"upper must be above lower, got [{self.lower}, {self.upper}]")
        _number("mu", self.mu, math.isfinite, "finite")


def _window_mass(alpha: float, beta: float) -> float:
    # P(alpha <= N(0,1) <= beta). When the whole window sits in the upper
    # tail the difference of cdf values near 1 would cancel; the survival
    # function keeps full precision there.
    if alpha >= 0.0:
        return std_sf(alpha) - std_sf(beta)
    return std_cdf(beta) - std_cdf(alpha)


def _xphi(x: float) -> float:
    # x * pdf(x) with the correct 0 limit at infinite bounds.
    if math.isinf(x):
        return 0.0
    return x * std_pdf(x)


def _standardized_window(spec: TruncSpec) -> tuple[float, float, float]:
    alpha = spec.lower - spec.mu
    beta = spec.upper - spec.mu
    mass = _window_mass(alpha, beta)
    if not mass > DEGENERATE_MASS:
        raise DegenerateTruncationError(
            f"truncation window [{spec.lower}, {spec.upper}] around mu={spec.mu} "
            f"carries mass {mass!r} <= {DEGENERATE_MASS}"
        )
    return alpha, beta, mass


def truncnorm_mean(spec: TruncSpec) -> float:
    """Mean of the truncated normal described by ``spec``."""
    alpha, beta, mass = _standardized_window(spec)
    return spec.mu + (std_pdf(alpha) - std_pdf(beta)) / mass


def truncnorm_var(spec: TruncSpec) -> float:
    """Variance of the truncated normal described by ``spec``.

    For a symmetric window ``[-t, t]`` around ``mu = 0`` this reduces
    algebraically to ``1 - 2 t phi(t) / (Phi(t) - Phi(-t))``. Interval
    truncation always shrinks variance, so the result lies in (0, 1].
    """
    alpha, beta, mass = _standardized_window(spec)
    shift = (std_pdf(alpha) - std_pdf(beta)) / mass
    return 1.0 + (_xphi(alpha) - _xphi(beta)) / mass - shift * shift
