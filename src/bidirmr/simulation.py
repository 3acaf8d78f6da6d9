"""Monte-Carlo harness: truth generation, panel sampling, scenario runs.

A scenario starts from a fixed vector of seed effect sizes and standard
errors for each trait (either loaded from a real GWAS export or generated
synthetically). Per replication, each SNP's direct effect on a trait is
switched on by an independent Bernoulli draw whose probability is the SNP's
signal-to-noise rank: ``p_j = (rank_j / p) ** kappa`` with rank 1 for the
smallest ``|alpha| / se``. Weak seed effects are therefore mostly inactive,
mimicking how real effect panels mix null, one-trait, and pleiotropic SNPs.
Summary statistics are then the reduced-form associations plus independent
normal noise at the seed standard errors.

Replications draw from RNG streams keyed by replication index (child ``r``
of one ``SeedSequence``, spawned as replication ``r`` starts), so results are
reproducible from a single integer seed and independent of any execution
schedule. Each replication consumes its stream in a fixed documented order:

1. ``random(p)``: activation uniforms for the first trait (D);
2. ``random(p)``: activation uniforms for the second trait (Y);
3. ``standard_normal(p)``: panel noise for D;
4. ``standard_normal(p)``: panel noise for Y.

An estimate is ``gamma + se * z`` for its noise draw ``z``, which is exactly
what ``Generator.normal(gamma, se)`` returns, bit for bit. The estimators
draw nothing: the median methods read their scale off the exact law of the
SNP-bootstrap median.

One engine runs both :func:`run_scenario` (one cell) and :func:`run_grid`
(a list of (beta_dy, beta_yd) cells). It takes replications in chunks of
``R = max(1, _CHUNK_VALUES // p)``: each replication's four draws fill one
row of (R, p) arrays, and everything after the draws is computed for the
whole chunk at once. The draws, the activated direct effects, their class
masks and shares and their correlation do not depend on the causal pair,
so grid cells share them: each is computed once per chunk, which is why a
grid reports the same ``mean_rho`` and ``mean_corr_pi`` in every cell.
Then the cells take turns on the chunk (reduced form, noise, methods), and
each cell's report equals :func:`run_scenario` on that cell alone. Memory
is bounded by the chunk and one cell's arrays, whatever the number of
replications or cells; the chunk size does not change any result.
:func:`generate_truth` and :func:`simulate_panel` are the same draws and
arithmetic for one replication (draws 1-2 and 3-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GwasParseError, InputError
from .focusing import Direction, FocusConfig, Method, Panel, direction_rows
from .focusing import _roles, _separation_threshold
from .gwasio import load_float_columns
from .model import IvClass, TruthConfig, _class_masks, _marginal_effects, reduced_form

__all__ = [
    "ScenarioConfig",
    "ScenarioReport",
    "SeedEffects",
    "SeedProfile",
    "default_snp_ids",
    "enforce_separation",
    "generate_truth",
    "load_seed_effects",
    "run_grid",
    "run_scenario",
    "simulate_panel",
    "synthetic_seed",
]


@dataclass(frozen=True, eq=False)
class SeedEffects:
    """Fixed per-SNP effect sizes and standard errors seeding a scenario."""

    alpha_d: np.ndarray
    alpha_y: np.ndarray
    se_d: np.ndarray
    se_y: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("alpha_d", "alpha_y", "se_d", "se_y"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise InputError(f"{name} must be a 1-D vector")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} must be finite")
            arrays[name] = arr
        p = arrays["alpha_d"].size
        if p < 1:
            raise InputError("seed effects need at least one SNP")
        if any(arr.size != p for arr in arrays.values()):
            raise InputError("seed effect vectors must share one length")
        if not (np.all(arrays["se_d"] > 0.0) and np.all(arrays["se_y"] > 0.0)):
            raise InputError("seed standard errors must be positive")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_activation", None)

    @property
    def p(self) -> int:
        return self.alpha_d.size

    def activation_probabilities(self, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        """``(rank / p) ** kappa`` per SNP for each trait (rank 1 = smallest ``|alpha| / se``).

        The result for the last ``kappa`` asked for is kept, since a scenario
        draws every replication's truth from one seed and one ``kappa``.
        """
        if self._activation is None or self._activation[0] != kappa:
            probs = tuple(
                (_rank_smallest_first(np.abs(alpha) / se) / self.p) ** kappa
                for alpha, se in ((self.alpha_d, self.se_d), (self.alpha_y, self.se_y))
            )
            for arr in probs:
                arr.setflags(write=False)
            object.__setattr__(self, "_activation", (kappa, probs))
        return self._activation[1]


@dataclass(frozen=True)
class SeedProfile:
    """Shape of the synthetic seed generator.

    Standard errors are of order ``1 / sqrt(n)`` for the pseudo sample sizes
    with a mild lognormal spread. Effect magnitudes (in signal-to-noise
    units) come from a two-component mixture, mostly modest with a heavy
    minority. ``magnitude_rank_corr`` couples the two traits' magnitude
    ranks through a Gaussian copula: GWAS panels assembled from SNPs that
    are strong for at least one trait show negatively dependent ranks.
    ``sign_corr`` correlates the signs of the two traits' effects, which is
    what makes pleiotropy directional rather than balanced.
    """

    n_exposure: float = 1.0e5
    n_outcome: float = 1.0e5
    se_log_spread: float = 0.08
    frac_large: float = 0.25
    large_snr: tuple[float, float] = (9.0, 14.0)
    small_snr: tuple[float, float] = (1.0, 6.0)
    magnitude_rank_corr: float = -0.4
    sign_corr: float = 0.75

    def __post_init__(self):
        if not (self.n_exposure > 0 and self.n_outcome > 0):
            raise InputError("pseudo sample sizes must be positive")
        if not 0.0 <= self.frac_large <= 1.0:
            raise InputError("frac_large must lie in [0, 1]")
        for name in ("magnitude_rank_corr", "sign_corr"):
            if not -1.0 < getattr(self, name) < 1.0:
                raise InputError(f"{name} must lie in (-1, 1)")


DEFAULT_SEED_PROFILE = SeedProfile()


def _correlated_pair(p: int, corr: float, rng: np.random.Generator):
    z1 = rng.standard_normal(p)
    z2 = rng.standard_normal(p)
    return z1, corr * z1 + math.sqrt(1.0 - corr * corr) * z2


def _mixture_magnitudes(p: int, profile: SeedProfile, rng: np.random.Generator) -> np.ndarray:
    large = rng.random(p) < profile.frac_large
    lo_s, hi_s = profile.small_snr
    lo_l, hi_l = profile.large_snr
    mags = rng.uniform(lo_s, hi_s, size=p)
    mags[large] = rng.uniform(lo_l, hi_l, size=int(large.sum()))
    return mags


def synthetic_seed(
    p: int, rng: np.random.Generator, profile: SeedProfile | None = None
) -> SeedEffects:
    """Generate a deterministic synthetic stand-in for a real GWAS seed.

    Magnitudes for the two traits are drawn independently from the profile
    mixture and then re-paired along a Gaussian copula of the configured
    rank correlation; signs come from a second correlated Gaussian pair.
    """
    if p < 10:
        raise InputError(f"a synthetic seed needs p >= 10 SNPs, got {p}")
    profile = profile or DEFAULT_SEED_PROFILE

    lat_d, lat_y = _correlated_pair(p, profile.magnitude_rank_corr, rng)
    sign_d_lat, sign_y_lat = _correlated_pair(p, profile.sign_corr, rng)
    mag_d = np.sort(_mixture_magnitudes(p, profile, rng))[_rank_smallest_first(lat_d) - 1]
    mag_y = np.sort(_mixture_magnitudes(p, profile, rng))[_rank_smallest_first(lat_y) - 1]

    se_d = np.exp(rng.normal(0.0, profile.se_log_spread, size=p)) / math.sqrt(profile.n_exposure)
    se_y = np.exp(rng.normal(0.0, profile.se_log_spread, size=p)) / math.sqrt(profile.n_outcome)
    alpha_d = np.where(sign_d_lat >= 0.0, 1.0, -1.0) * mag_d * se_d
    alpha_y = np.where(sign_y_lat >= 0.0, 1.0, -1.0) * mag_y * se_y
    return SeedEffects(alpha_d=alpha_d, alpha_y=alpha_y, se_d=se_d, se_y=se_y)


def load_seed_effects(path: str) -> SeedEffects:
    """Load seed effects from a TSV with columns alpha_d, alpha_y, se_d, se_y."""
    columns = load_float_columns(path, ("alpha_d", "alpha_y", "se_d", "se_y"))
    try:
        return SeedEffects(**columns)
    except InputError as exc:
        raise GwasParseError(str(exc), path=path) from None


def _rank_smallest_first(values: np.ndarray) -> np.ndarray:
    """Ranks 1..p with rank 1 for the smallest value; ties keep input order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.intp)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def generate_truth(
    seed: SeedEffects,
    kappa: float,
    rng: np.random.Generator,
    beta_dy: float = 0.0,
    beta_yd: float = 0.0,
    min_snr: float | None = None,
) -> TruthConfig:
    """Draw one ground truth by rank-probability activation of seed effects.

    A SNP's direct effect on a trait equals its seed effect size with
    probability ``(rank / p) ** kappa`` (rank 1 = smallest ``|alpha| / se``)
    and zero otherwise; activations are independent across SNPs and traits.
    Smaller ``kappa`` activates more SNPs. Exposure-trait draws precede
    outcome-trait draws on the stream. With ``min_snr`` every active effect
    is raised to at least that many noise units before the truth is built,
    as :func:`enforce_separation` raises them afterwards.
    """
    if not kappa > 0.0:
        raise InputError(f"kappa must be positive, got {kappa!r}")
    pi_d, pi_y = _activated(seed, kappa, rng.random((2, seed.p)), min_snr)
    return TruthConfig(
        pi_d=pi_d, pi_y=pi_y, beta_dy=beta_dy, beta_yd=beta_yd, se_d=seed.se_d, se_y=seed.se_y
    )


def _activated(seed: SeedEffects, kappa: float, uniforms: np.ndarray, min_snr: float | None):
    """``(pi_d, pi_y)`` from draws 1 and 2, the activation uniforms ``uniforms[..., 0:2, :]``."""
    prob_d, prob_y = seed.activation_probabilities(kappa)
    pi_d = np.where(uniforms[..., 0, :] < prob_d, seed.alpha_d, 0.0)
    pi_y = np.where(uniforms[..., 1, :] < prob_y, seed.alpha_y, 0.0)
    if min_snr is not None:
        pi_d = _amplified(pi_d, seed.se_d, min_snr)
        pi_y = _amplified(pi_y, seed.se_y, min_snr)
    return pi_d, pi_y


def _with_noise(gamma_d, gamma_y, se_d, se_y, normals: np.ndarray):
    """``(beta_d, beta_y)`` from draws 3 and 4, the standard normals ``normals[..., 0:2, :]``.

    ``loc + scale * z`` is what ``Generator.normal(loc, scale)`` computes, bit for bit.
    """
    return gamma_d + se_d * normals[..., 0, :], gamma_y + se_y * normals[..., 1, :]


def _amplified(pi: np.ndarray, se: np.ndarray, threshold: float) -> np.ndarray:
    floor = threshold * se
    weak = (pi != 0.0) & (np.abs(pi) < floor)
    return np.where(weak, np.sign(pi) * floor, pi)


def _separation_floor(p: int, cfg: FocusConfig, c1: float) -> float:
    """``c1 * tau_f * sqrt(log p)`` noise units, the floor of :func:`enforce_separation`."""
    # slight overshoot so the amplified |pi| / se round-trips above the bound
    floor = _separation_threshold(p, cfg.tau_f, c1) * (1.0 + 1e-9)
    if not math.isfinite(floor):
        raise InputError(
            f"--enforce-separation {c1!r} with --tau-f {cfg.tau_f!r} gives no finite "
            "separation floor (c1 * tau_f * sqrt(log p)); give a finite --tau-f"
        )
    return floor


def enforce_separation(truth: TruthConfig, cfg: FocusConfig, c1: float) -> TruthConfig:
    """Amplify active direct effects so both directions are well separated.

    Every nonzero direct effect is pushed to at least
    ``c1 * tau_f * sqrt(log p)`` noise units, keeping its sign and the
    on/off pattern (hence the class proportions) unchanged.
    """
    threshold = _separation_floor(truth.p, cfg, c1)
    return replace(
        truth,
        pi_d=_amplified(truth.pi_d, truth.se_d, threshold),
        pi_y=_amplified(truth.pi_y, truth.se_y, threshold),
    )


def default_snp_ids(p: int) -> tuple[str, ...]:
    width = len(str(p))
    return tuple(f"s{j:0{width}d}" for j in range(1, p + 1))


def simulate_panel(truth: TruthConfig, rng: np.random.Generator) -> Panel:
    """Sample one summary-statistics panel around the reduced form.

    Estimates are the reduced-form associations plus independent normal
    noise with the truth's standard errors (exposure trait drawn first);
    the standard errors themselves are copied into the panel, and the ids
    are ``default_snp_ids``.
    """
    rf = reduced_form(truth)
    beta_d, beta_y = _with_noise(
        rf.gamma_d, rf.gamma_y, truth.se_d, truth.se_y, rng.standard_normal((2, truth.p))
    )
    return Panel.from_arrays(default_snp_ids(truth.p), beta_d, truth.se_d, beta_y, truth.se_y)


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte-Carlo experiment: truth process, methods, and replication count.

    Each method may be listed once; it runs in both directions.
    """

    kappa: float = 1.0
    beta_dy: float = 0.0
    beta_yd: float = 0.0
    n_reps: int = 100
    focus: FocusConfig = FocusConfig()
    methods: tuple[Method, ...] = (Method.FOCUSED_IVW,)
    rng_seed: int = 0
    enforce_separation_c1: float | None = None

    def __post_init__(self):
        if self.n_reps < 1:
            raise InputError("n_reps must be at least 1")
        if not self.kappa > 0.0:
            raise InputError("kappa must be positive")
        methods = tuple(Method(m) for m in self.methods)
        for i, method in enumerate(methods):
            if method in methods[:i]:
                raise InputError(f"method {method.value!r} is listed more than once")
        object.__setattr__(self, "methods", methods)


_VALID_CLASS = {Direction.D_TO_Y: IvClass.VALID_DY, Direction.Y_TO_D: IvClass.VALID_YD}


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregates over replications, keyed by method value and direction value.

    ``valid_iv_proportions`` holds the mean share of direction-valid
    instruments inside each method's selected set (focused set for focused
    methods, relevance-screened set for overall ones), over replications
    where that set was nonempty. ``mean_rho`` orders the class shares as
    (null, valid D->Y, valid Y->D, pleiotropic). Replications where a method
    raised a degeneracy are counted in ``error_counts`` and excluded from
    that method's rates.
    """

    n_reps: int
    methods: tuple[str, ...]
    rejection_rates: dict[str, dict[str, float | None]]
    valid_iv_proportions: dict[str, dict[str, float | None]]
    empty_set_rates: dict[str, dict[str, float | None]]
    error_counts: dict[str, dict[str, int]]
    mean_rho: tuple[float, float, float, float]
    mean_corr_pi: float | None


_CLASS_ORDER = (IvClass.NULL, IvClass.VALID_DY, IvClass.VALID_YD, IvClass.PLEIOTROPIC)

# Values per (R, p) array of a chunk: R = max(1, _CHUNK_VALUES // p)
# replications are drawn and tested together, so memory does not grow with
# the number of replications (nor with p beyond one replication per chunk).
_CHUNK_VALUES = 1 << 14


def _require_finite(**arrays: np.ndarray) -> None:
    # what each replication's TruthConfig and panel would check
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise InputError(f"{name} must be finite")


def _add_in_order(total, values: np.ndarray):
    """``total + values[0] + values[1] + ...`` added left to right, as replications come."""
    return np.add.accumulate(np.concatenate((np.asarray(total)[None], values)), axis=0)[-1]


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of ``a`` with the same row of ``b``, as ``np.corrcoef``.

    Each row is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1). That is exact, so the result is ``np.corrcoef``'s
    bit for bit wherever its sums of squares neither underflow nor overflow,
    and it stays defined where they would. No row may be constant.
    """
    x = np.stack((a, b), axis=1)
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=2, keepdims=True))[1])
    x -= x.mean(axis=2, keepdims=True)
    c = x @ x.transpose(0, 2, 1)
    c *= 1.0 / (a.shape[1] - 1)
    sd_a, sd_b = np.sqrt(c[:, 0, 0]), np.sqrt(c[:, 1, 1])
    return np.clip(c[:, 0, 1] / sd_a / sd_b, -1.0, 1.0)


def _run_cells(
    seed: SeedEffects, scenario: ScenarioConfig, cells: list[tuple[float, float]]
) -> list[ScenarioReport]:
    """The scenario once per (beta_dy, beta_yd) cell, every cell on the same draws.

    Replications go in chunks of R: each one's four draws fill one row of
    (R, p) arrays, and the truths' activations, class masks, class shares
    and correlations are computed once per chunk, since they do not depend
    on the causal pair. Then the cells take turns on the chunk: reduced
    form, noise and every configured method in both directions, as row
    operations (:func:`bidirmr.focusing.direction_rows`, the same code the
    single-panel tests run). Memory is one chunk and one cell's arrays at a
    time, whatever the number of cells. Sums over replications (valid-IV shares, class shares,
    correlations) are added in replication order.
    """
    p = seed.p
    focus = replace(scenario.focus, tau_s=scenario.focus.resolve_tau_s(p))
    # every causal pair is checked before the first draw, as each replication's truth would
    for beta_dy, beta_yd in cells:
        TruthConfig(seed.alpha_d, seed.alpha_y, beta_dy, beta_yd, seed.se_d, seed.se_y)
    c1 = scenario.enforce_separation_c1
    min_snr = None if c1 is None else _separation_floor(p, focus, c1)
    directions = (Direction.D_TO_Y, Direction.Y_TO_D)

    n_ok = {
        (c, m, d): 0 for c in range(len(cells)) for m in scenario.methods for d in directions
    }
    n_reject = dict.fromkeys(n_ok, 0)
    n_empty = dict.fromkeys(n_ok, 0)
    n_error = dict.fromkeys(n_ok, 0)
    prop_sum = dict.fromkeys(n_ok, 0.0)
    prop_n = dict.fromkeys(n_ok, 0)

    rho_sum = np.zeros(4)
    corr_sum = 0.0
    corr_n = 0

    chunk = max(1, _CHUNK_VALUES // p)
    # spawn(1) per replication yields the same children as one spawn(n_reps)
    streams = np.random.SeedSequence(entropy=scenario.rng_seed, spawn_key=(0,))
    for start in range(0, scenario.n_reps, chunk):
        draws = np.empty((min(chunk, scenario.n_reps - start), 4, p))
        for row in draws:
            rng = np.random.default_rng(streams.spawn(1)[0])
            rng.random(out=row[:2])
            rng.standard_normal(out=row[2:])
        pi_d, pi_y = _activated(seed, scenario.kappa, draws[:, :2], min_snr)
        _require_finite(pi_d=pi_d, pi_y=pi_y)

        masks = _class_masks(pi_d, pi_y, 0.0)
        counts = np.stack([masks[cls].sum(axis=1) for cls in _CLASS_ORDER], axis=1)
        rho_sum = _add_in_order(rho_sum, counts / p)
        varied = (np.ptp(pi_d, axis=1) > 0.0) & (np.ptp(pi_y, axis=1) > 0.0)
        if varied.any():
            corr_sum = _add_in_order(corr_sum, _pearson_rows(pi_d[varied], pi_y[varied]))
            corr_n += int(varied.sum())

        for c, (beta_dy, beta_yd) in enumerate(cells):
            gamma_d, gamma_y = _marginal_effects(pi_d, pi_y, beta_dy, beta_yd)
            beta_d, beta_y = _with_noise(gamma_d, gamma_y, seed.se_d, seed.se_y, draws[:, 2:])
            _require_finite(beta_d=beta_d, beta_y=beta_y)
            columns = (beta_d, seed.se_d, beta_y, seed.se_y)
            for method in scenario.methods:
                for direction in directions:
                    key = (c, method, direction)
                    rows = direction_rows(*_roles(direction, *columns), focus, focus.tau_s, method)
                    failed = rows.failed()
                    ok = ~failed
                    reject = rows.empty_reject | (rows.p_value <= focus.alpha)
                    n_error[key] += int(failed.sum())
                    n_ok[key] += int(ok.sum())
                    n_reject[key] += int((ok & reject).sum())
                    n_empty[key] += int((ok & rows.empty_reject).sum())
                    shown = ok & (rows.size > 0)
                    valid = (rows.selected & masks[_VALID_CLASS[direction]]).sum(axis=1)
                    prop_sum[key] = _add_in_order(prop_sum[key], valid[shown] / rows.size[shown])
                    prop_n[key] += int(shown.sum())

    mean_rho = tuple((rho_sum / scenario.n_reps).tolist())
    mean_corr_pi = float(corr_sum / corr_n) if corr_n else None

    def _nested(c, value_for):
        return {
            m.value: {d.value: value_for((c, m, d)) for d in directions} for m in scenario.methods
        }

    return [
        ScenarioReport(
            n_reps=scenario.n_reps,
            methods=tuple(m.value for m in scenario.methods),
            rejection_rates=_nested(c, lambda k: (n_reject[k] / n_ok[k]) if n_ok[k] else None),
            valid_iv_proportions=_nested(
                c, lambda k: float(prop_sum[k] / prop_n[k]) if prop_n[k] else None
            ),
            empty_set_rates=_nested(c, lambda k: (n_empty[k] / n_ok[k]) if n_ok[k] else None),
            error_counts=_nested(c, lambda k: n_error[k]),
            mean_rho=mean_rho,
            mean_corr_pi=mean_corr_pi,
        )
        for c in range(len(cells))
    ]


def run_scenario(seed: SeedEffects, scenario: ScenarioConfig) -> ScenarioReport:
    """Run a full scenario and aggregate rejections and selection quality.

    The grid engine on the single cell ``(scenario.beta_dy, scenario.beta_yd)``.
    Fully reproducible from ``scenario.rng_seed``; each replication's stream
    is keyed by its index, so the result depends neither on scheduling nor
    on the chunk size.
    """
    return _run_cells(seed, scenario, [(scenario.beta_dy, scenario.beta_yd)])[0]


def run_grid(
    seed: SeedEffects,
    scenario: ScenarioConfig,
    beta_pairs: list[tuple[float, float]],
) -> list[tuple[tuple[float, float], ScenarioReport]]:
    """Run the scenario once per (beta_dy, beta_yd) pair, every pair on the same draws.

    Each cell's report equals :func:`run_scenario` on that cell alone; the
    cells share each replication's draws, activations, class shares and
    correlation, so ``mean_rho`` and ``mean_corr_pi`` are equal across cells.
    """
    cells = [(float(beta_dy), float(beta_yd)) for beta_dy, beta_yd in beta_pairs]
    return list(zip(cells, _run_cells(seed, scenario, cells)))
