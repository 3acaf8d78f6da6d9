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
schedule. Within one replication the stream is consumed in a fixed
documented order: direct effects for the first trait, then the second, panel
noise for the first trait, then the second. The estimators draw nothing: the
median methods read their scale off the exact law of the SNP-bootstrap
median.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegeneracyError, GwasParseError, InputError
from .focusing import (
    Direction,
    Estimator,
    FocusConfig,
    Panel,
    TauSRule,
    test_direction,
)
from .benchmarks import mr_egger, mr_median, overall_ivw
from .model import IvClass, TruthConfig, iv_class_masks, reduced_form

__all__ = [
    "Method",
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
    required = ("alpha_d", "alpha_y", "se_d", "se_y")
    columns: dict[str, list[float]] = {name: [] for name in required}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise GwasParseError("file is empty", path=path) from None
        header = [h.strip() for h in header]
        missing = [name for name in required if name not in header]
        if missing:
            raise GwasParseError(f"missing required columns {missing}", path=path, line=1)
        pos = {name: header.index(name) for name in required}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise GwasParseError(
                    f"expected {len(header)} fields, got {len(row)}", path=path, line=line_no
                )
            for name in required:
                raw = row[pos[name]].strip()
                try:
                    value = float(raw)
                except ValueError:
                    raise GwasParseError(
                        f"column {name!r} has non-numeric value {raw!r}", path=path, line=line_no
                    ) from None
                if not math.isfinite(value):
                    raise GwasParseError(
                        f"column {name!r} has non-finite value {raw!r}", path=path, line=line_no
                    )
                columns[name].append(value)
    try:
        return SeedEffects(**{name: np.array(vals) for name, vals in columns.items()})
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
    prob_d, prob_y = seed.activation_probabilities(kappa)
    pi_d = np.where(rng.random(seed.p) < prob_d, seed.alpha_d, 0.0)
    pi_y = np.where(rng.random(seed.p) < prob_y, seed.alpha_y, 0.0)
    if min_snr is not None:
        pi_d = _amplified(pi_d, seed.se_d, min_snr)
        pi_y = _amplified(pi_y, seed.se_y, min_snr)
    return TruthConfig(
        pi_d=pi_d, pi_y=pi_y, beta_dy=beta_dy, beta_yd=beta_yd, se_d=seed.se_d, se_y=seed.se_y
    )


def _amplified(pi: np.ndarray, se: np.ndarray, threshold: float) -> np.ndarray:
    floor = threshold * se
    weak = (pi != 0.0) & (np.abs(pi) < floor)
    return np.where(weak, np.sign(pi) * floor, pi)


def _separation_floor(p: int, cfg: FocusConfig, c1: float) -> float:
    """``c1 * tau_f * sqrt(log p)`` noise units, the floor of :func:`enforce_separation`."""
    if not c1 > 0.0:
        raise InputError(f"c1 must be positive, got {c1!r}")
    # slight overshoot so the amplified |pi| / se round-trips above the bound
    return c1 * cfg.tau_f * math.sqrt(math.log(p)) * (1.0 + 1e-9)


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


def simulate_panel(
    truth: TruthConfig, rng: np.random.Generator, template: Panel | None = None
) -> Panel:
    """Sample one summary-statistics panel around the reduced form.

    Estimates are the reduced-form associations plus independent normal
    noise with the truth's standard errors (exposure trait drawn first);
    the standard errors themselves are copied into the panel. A
    ``template`` panel, whose standard errors must equal the truth's, lends
    the new panel its ids and standard errors; without one the ids are
    ``default_snp_ids``.
    """
    rf = reduced_form(truth)
    beta_d = rng.normal(rf.gamma_d, truth.se_d)
    beta_y = rng.normal(rf.gamma_y, truth.se_y)
    if template is None:
        return Panel.from_arrays(default_snp_ids(truth.p), beta_d, truth.se_d, beta_y, truth.se_y)
    if not (
        np.array_equal(template.se_d, truth.se_d) and np.array_equal(template.se_y, truth.se_y)
    ):
        raise InputError("the template panel's standard errors differ from the truth's")
    return template.with_betas(beta_d, beta_y)


class Method(str, Enum):
    """Estimators a scenario can run; values double as report keys."""

    FOCUSED_IVW = "focused_ivw"
    FOCUSED_MEDIAN = "focused_median"
    OVERALL_IVW = "overall_ivw"
    MR_MEDIAN = "mr_median"
    MR_EGGER = "mr_egger"


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte-Carlo experiment: truth process, methods, and replication count."""

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
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))


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


def _apply_method(panel, direction, method, focus):
    """Run one method for one direction; returns (reject, selected_mask, empty_flag).

    ``focus`` carries the scenario's resolved relevance threshold explicitly.
    """
    if method is Method.FOCUSED_IVW or method is Method.FOCUSED_MEDIAN:
        estimator = (
            Estimator.FOCUSED_IVW if method is Method.FOCUSED_IVW else Estimator.FOCUSED_MEDIAN
        )
        report = test_direction(panel, direction, focus, estimator)
        return report.reject, report.selected, report.empty_set_reject
    if method is Method.OVERALL_IVW:
        report = overall_ivw(panel, direction, focus.tau_s)
    elif method is Method.MR_MEDIAN:
        report = mr_median(panel, direction, focus.tau_s)
    elif method is Method.MR_EGGER:
        report = mr_egger(panel, direction, focus.tau_s)
    else:
        raise InputError(f"unknown method {method!r}")
    return report.p_value <= focus.alpha, report.selected, False


def run_scenario(seed: SeedEffects, scenario: ScenarioConfig) -> ScenarioReport:
    """Run a full scenario and aggregate rejections and selection quality.

    Per replication: draw a truth (amplified as it is drawn when separation
    is enforced), sample a panel, then run every configured method in both
    directions. Fully reproducible from ``scenario.rng_seed``; each
    replication's stream is keyed by its index, so the result does not
    depend on scheduling.

    What stays constant across replications is computed once: the resolved
    relevance threshold, the truncated-normal null variance (cached on the
    focus configuration), the activation probabilities (cached on the seed),
    the separation floor, and a template panel holding the ids and standard
    errors. Each replication builds and validates one truth.
    """
    p = seed.p
    focus = replace(
        scenario.focus, tau_s=scenario.focus.resolve_tau_s(p), tau_s_rule=TauSRule.EXPLICIT
    )
    template = Panel.from_arrays(
        default_snp_ids(p), seed.alpha_d, seed.se_d, seed.alpha_y, seed.se_y
    )
    c1 = scenario.enforce_separation_c1
    min_snr = None if c1 is None else _separation_floor(p, focus, c1)
    directions = (Direction.D_TO_Y, Direction.Y_TO_D)

    n_ok = {(m, d): 0 for m in scenario.methods for d in directions}
    n_reject = dict.fromkeys(n_ok, 0)
    n_empty = dict.fromkeys(n_ok, 0)
    n_error = dict.fromkeys(n_ok, 0)
    prop_sum = dict.fromkeys(n_ok, 0.0)
    prop_n = dict.fromkeys(n_ok, 0)

    rho_sum = np.zeros(4)
    corr_sum = 0.0
    corr_n = 0

    # spawn(1) per replication yields the same children as one spawn(n_reps)
    streams = np.random.SeedSequence(entropy=scenario.rng_seed, spawn_key=(0,))
    for _ in range(scenario.n_reps):
        rng = np.random.default_rng(streams.spawn(1)[0])
        truth = generate_truth(
            seed, scenario.kappa, rng, scenario.beta_dy, scenario.beta_yd, min_snr
        )
        panel = simulate_panel(truth, rng, template)

        masks = iv_class_masks(truth, zero_tol=0.0)
        counts = np.array([int(masks[cls].sum()) for cls in
                           (IvClass.NULL, IvClass.VALID_DY, IvClass.VALID_YD, IvClass.PLEIOTROPIC)])
        rho_sum += counts / p
        if np.ptp(truth.pi_d) > 0.0 and np.ptp(truth.pi_y) > 0.0:
            corr_sum += float(np.corrcoef(truth.pi_d, truth.pi_y)[0, 1])
            corr_n += 1

        for method in scenario.methods:
            for direction in directions:
                try:
                    reject, selected, empty = _apply_method(panel, direction, method, focus)
                except DegeneracyError:
                    n_error[(method, direction)] += 1
                    continue
                key = (method, direction)
                n_ok[key] += 1
                n_reject[key] += reject
                n_empty[key] += empty
                valid = masks[_VALID_CLASS[direction]][selected]
                if valid.size:
                    prop_sum[key] += float(valid.mean())
                    prop_n[key] += 1

    def _nested(value_for):
        return {
            m.value: {d.value: value_for((m, d)) for d in directions} for m in scenario.methods
        }

    return ScenarioReport(
        n_reps=scenario.n_reps,
        methods=tuple(m.value for m in scenario.methods),
        rejection_rates=_nested(
            lambda k: (n_reject[k] / n_ok[k]) if n_ok[k] else None
        ),
        valid_iv_proportions=_nested(
            lambda k: (prop_sum[k] / prop_n[k]) if prop_n[k] else None
        ),
        empty_set_rates=_nested(
            lambda k: (n_empty[k] / n_ok[k]) if n_ok[k] else None
        ),
        error_counts=_nested(lambda k: n_error[k]),
        mean_rho=tuple((rho_sum / scenario.n_reps).tolist()),
        mean_corr_pi=(corr_sum / corr_n) if corr_n else None,
    )


def run_grid(
    seed: SeedEffects,
    scenario: ScenarioConfig,
    beta_pairs: list[tuple[float, float]],
) -> list[tuple[tuple[float, float], ScenarioReport]]:
    """Run the scenario once per (beta_dy, beta_yd) pair."""
    results = []
    for beta_dy, beta_yd in beta_pairs:
        cell = replace(scenario, beta_dy=float(beta_dy), beta_yd=float(beta_yd))
        results.append(((float(beta_dy), float(beta_yd)), run_scenario(seed, cell)))
    return results
