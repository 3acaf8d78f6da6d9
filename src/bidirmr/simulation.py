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

Replication ``r`` draws from the stream that
``np.random.default_rng(SeedSequence(seed, spawn_key=(0, r)))`` starts in
(child ``r`` of ``SeedSequence(seed, spawn_key=(0,))``), so results are
reproducible from a single integer seed and independent of any execution
schedule. The states of a chunk's streams are derived together, and one
generator is set to each in turn (:func:`_replication_streams`). Each
replication consumes its stream in a fixed documented order:

1. ``random(p)``: activation uniforms for the first trait (D);
2. ``random(p)``: activation uniforms for the second trait (Y);
3. ``standard_normal(p)``: panel noise for D;
4. ``standard_normal(p)``: panel noise for Y.

An estimate is ``gamma + se * z`` for its noise draw ``z``, which is exactly
what ``Generator.normal(gamma, se)`` returns, bit for bit. The estimators
draw nothing: the median methods read their scale off the exact law of the
SNP-bootstrap median.

One engine, :func:`run_scenario`, runs a scenario's (beta_dy, beta_yd)
cells (``ScenarioConfig.cells``; one cell is a grid of one). It takes
replications in chunks of ``R = max(1, _CHUNK_VALUES // p)`` (32768 values;
R = 83 at p = 394): each replication's four draws fill one row of (R, p)
arrays, and everything after the draws is computed for the whole chunk at
once. The draws, the activated direct effects, their class masks and shares
and their correlation do not depend on the causal pair, so the cells share
them: each is computed once per chunk, which is why every cell of a scenario
reports the same ``mean_rho`` and ``mean_corr_pi``.
Then the cells take turns on the chunk (reduced form, noise, methods), and
each cell's report equals the scenario run on that cell alone. The cells
with one zero effect of the other trait on a trait (of one sign) share that
trait's association and its exposure side. In each direction the methods
share what they all read, and the median rows whose decision needs the
exact law wait in one pool for the whole scenario, decided by one law
search at its end, or earlier if they would pass one chunk's values. Memory
is bounded by the chunk, one cell's arrays and two shared associations per
trait, whatever the number of replications or cells; neither the chunk size
nor the pool's flushes change any result.
:func:`generate_truth` and :func:`simulate_panel` are the same draws and
arithmetic for one replication (draws 1-2 and 3-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GwasParseError, InputError
from .errors import _count, _instance, _number, _refused, _shown, _vectors
from .focusing import Direction, FocusConfig, Method, Panel
from .focusing import _DirectionData, _Exposure, _LawPool, _method_rows, _select
from .focusing import _select_or_zero, _separation_threshold
from .gwasio import load_float_columns
from .model import IvClass, TruthConfig, _causal_pair, _class_masks, _marginal_effect
from .model import _not_finite, reduced_form

__all__ = [
    "ScenarioConfig",
    "ScenarioReport",
    "SeedEffects",
    "enforce_separation",
    "generate_truth",
    "load_seed_effects",
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
        _vectors(
            self, None, ("se_d", "se_y"),
            alpha_d=self.alpha_d, alpha_y=self.alpha_y, se_d=self.se_d, se_y=self.se_y,
        )

    @property
    def p(self) -> int:
        return self.alpha_d.size

    def activation_probabilities(self, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        """``(rank / p) ** kappa`` per SNP for each trait (rank 1 = smallest ``|alpha| / se``)."""
        return tuple(
            (_rank_smallest_first(np.abs(alpha) / se) / self.p) ** kappa
            for alpha, se in ((self.alpha_d, self.se_d), (self.alpha_y, self.se_y))
        )


# Shape of the synthetic seed. Standard errors are of order 1 / sqrt(n) for
# the pseudo sample sizes, with a mild lognormal spread. Effect magnitudes
# (in signal-to-noise units) come from a two-component mixture, mostly
# modest with a heavy minority. The magnitude rank correlation couples the
# two traits' magnitude ranks through a Gaussian copula: GWAS panels
# assembled from SNPs that are strong for at least one trait show
# negatively dependent ranks. The sign correlation correlates the signs of
# the two traits' effects, which is what makes pleiotropy directional
# rather than balanced.
_N_EXPOSURE = 1.0e5
_N_OUTCOME = 1.0e5
_SE_LOG_SPREAD = 0.08
_FRAC_LARGE = 0.25
_LARGE_SNR = (9.0, 14.0)
_SMALL_SNR = (1.0, 6.0)
_MAGNITUDE_RANK_CORR = -0.4
_SIGN_CORR = 0.75


def _correlated_pair(p: int, corr: float, rng: np.random.Generator):
    z1 = rng.standard_normal(p)
    z2 = rng.standard_normal(p)
    return z1, corr * z1 + math.sqrt(1.0 - corr * corr) * z2


def _mixture_magnitudes(p: int, rng: np.random.Generator) -> np.ndarray:
    large = rng.random(p) < _FRAC_LARGE
    lo_s, hi_s = _SMALL_SNR
    lo_l, hi_l = _LARGE_SNR
    mags = rng.uniform(lo_s, hi_s, size=p)
    mags[large] = rng.uniform(lo_l, hi_l, size=int(large.sum()))
    return mags


def synthetic_seed(p: int, rng: np.random.Generator) -> SeedEffects:
    """Generate a deterministic synthetic stand-in for a real GWAS seed.

    Magnitudes for the two traits are drawn independently from a fixed
    mixture and then re-paired along a Gaussian copula of a fixed rank
    correlation; signs come from a second correlated Gaussian pair.
    """
    _count("p", p, 10)

    lat_d, lat_y = _correlated_pair(p, _MAGNITUDE_RANK_CORR, rng)
    sign_d_lat, sign_y_lat = _correlated_pair(p, _SIGN_CORR, rng)
    mag_d = np.sort(_mixture_magnitudes(p, rng))[_rank_smallest_first(lat_d) - 1]
    mag_y = np.sort(_mixture_magnitudes(p, rng))[_rank_smallest_first(lat_y) - 1]

    se_d = np.exp(rng.normal(0.0, _SE_LOG_SPREAD, size=p)) / math.sqrt(_N_EXPOSURE)
    se_y = np.exp(rng.normal(0.0, _SE_LOG_SPREAD, size=p)) / math.sqrt(_N_OUTCOME)
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
) -> TruthConfig:
    """Draw one ground truth by rank-probability activation of seed effects.

    A SNP's direct effect on a trait equals its seed effect size with
    probability ``(rank / p) ** kappa`` (rank 1 = smallest ``|alpha| / se``)
    and zero otherwise; activations are independent across SNPs and traits.
    Smaller ``kappa`` activates more SNPs. Exposure-trait draws precede
    outcome-trait draws on the stream.
    """
    _number("kappa", kappa, lambda x: x > 0.0, "a positive number")
    pi_d, pi_y = _activated(seed, seed.activation_probabilities(kappa), rng.random((2, seed.p)), None)
    return TruthConfig(
        pi_d=pi_d, pi_y=pi_y, beta_dy=beta_dy, beta_yd=beta_yd, se_d=seed.se_d, se_y=seed.se_y
    )


def _activated(seed: SeedEffects, probs: tuple, uniforms: np.ndarray, min_snr: float | None):
    """``(pi_d, pi_y)`` from draws 1 and 2, the activation uniforms ``uniforms[..., 0:2, :]``,
    and ``probs``, the seed's :meth:`~SeedEffects.activation_probabilities`."""
    prob_d, prob_y = probs
    pi_d = _select_or_zero(uniforms[..., 0, :] < prob_d, seed.alpha_d)
    pi_y = _select_or_zero(uniforms[..., 1, :] < prob_y, seed.alpha_y)
    if min_snr is not None:
        pi_d = _amplified(pi_d, seed.se_d, min_snr)
        pi_y = _amplified(pi_y, seed.se_y, min_snr)
    return pi_d, pi_y


def _amplified(pi: np.ndarray, se: np.ndarray, threshold: float) -> np.ndarray:
    floor = threshold * se
    weak = (pi != 0.0) & (np.abs(pi) < floor)
    return _select(weak, np.sign(pi) * floor, pi)


def _separation_floor(p: int, cfg: FocusConfig, c1: float) -> float:
    """``c1 * tau_f * sqrt(log p)`` noise units, the floor of :func:`enforce_separation`."""
    # slight overshoot so the amplified |pi| / se round-trips above the bound
    floor = _separation_threshold(p, cfg.tau_f, c1) * (1.0 + 1e-9)
    if not math.isfinite(floor):
        remedy = (
            "give a finite --tau-f" if math.isinf(cfg.tau_f)
            else "--enforce-separation is too large"
        )
        raise InputError(
            f"--enforce-separation {c1!r} with --tau-f {cfg.tau_f!r} gives no finite "
            f"separation floor (c1 * tau_f * sqrt(log p)); {remedy}"
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


def _default_snp_ids(p: int) -> tuple[str, ...]:
    width = len(str(p))
    return tuple(f"s{j:0{width}d}" for j in range(1, p + 1))


def simulate_panel(truth: TruthConfig, rng: np.random.Generator) -> Panel:
    """Sample one summary-statistics panel around the reduced form.

    Estimates are the reduced-form associations plus independent normal
    noise with the truth's standard errors (exposure trait drawn first);
    the standard errors themselves are copied into the panel, and the ids
    are ``s1`` to ``s<p>``, zero-padded to one width.
    """
    rf = reduced_form(truth)
    z = rng.standard_normal((2, truth.p))  # loc + scale * z is Generator.normal, bit for bit
    beta_d, beta_y = rf.gamma_d + truth.se_d * z[0], rf.gamma_y + truth.se_y * z[1]
    return Panel.from_arrays(_default_snp_ids(truth.p), beta_d, truth.se_d, beta_y, truth.se_y)


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte-Carlo experiment: truth process, causal pairs, methods, and replication count.

    ``cells`` lists the (beta_dy, beta_yd) pairs to run, in order, as
    floats (``-0.0`` kept); a pair may repeat, and one pair is a grid of
    one. Each method may be listed once; it runs in both directions.
    """

    kappa: float = 1.0
    cells: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    n_reps: int = 100
    focus: FocusConfig = FocusConfig()
    methods: tuple[Method, ...] = (Method.FOCUSED_IVW,)
    rng_seed: int = 0
    enforce_separation_c1: float | None = None

    def __post_init__(self):
        n_reps = _count("n_reps", self.n_reps, 1)
        _number("kappa", self.kappa, lambda x: x > 0.0, "a positive number")
        cells = tuple(map(_cell, self.cells)) if isinstance(self.cells, (tuple, list)) else ()
        if not cells:
            raise _refused("cells", "a nonempty sequence of (beta_dy, beta_yd) pairs", self.cells)
        _instance("focus", self.focus, FocusConfig)
        try:
            methods = tuple(map(Method, self.methods))
        except TypeError:  # not iterable
            raise _refused("methods", "a sequence of methods", self.methods) from None
        except ValueError as exc:
            raise InputError(f"{exc}; choose from " + ", ".join(m.value for m in Method)) from None
        for i, method in enumerate(methods):
            if method in methods[:i]:
                raise InputError(f"method {method.value!r} is listed more than once")
        _count("rng_seed", self.rng_seed, 0)
        if self.enforce_separation_c1 is not None:
            _number("enforce_separation_c1", self.enforce_separation_c1, lambda x: x > 0.0, "positive")
        for name, value in (("n_reps", n_reps), ("cells", cells), ("methods", methods)):
            object.__setattr__(self, name, value)


def _cell(cell) -> tuple[float, float]:
    """One of ``ScenarioConfig.cells`` as floats, by the rule of a truth's causal pair."""
    try:
        beta_dy, beta_yd = cell
    except (TypeError, ValueError):  # not two values
        raise InputError(f"cell {_shown(cell)} is not a (beta_dy, beta_yd) pair of numbers") from None
    try:
        return _causal_pair(beta_dy, beta_yd)
    except InputError as exc:
        raise InputError(f"cell {_shown(cell)} is not a (beta_dy, beta_yd) pair: {exc}") from None


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
# Twice this ran scenarios 7-9 % faster again but raised their peak memory
# by about 5 MB (11 %), so the chunk grows no further.
_CHUNK_VALUES = 1 << 15


# NumPy's SeedSequence (pool of 4 uint32 words, two multiplicative hash chains,
# a mixing function) and PCG64's LCG multiplier (O'Neill 2014); NEP 19 keeps
# the streams they define stable.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as little-endian uint32 words, as a SeedSequence reads an int (0 is one word)."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_chain(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The first ``n`` (xor, multiplier) pairs of a hash chain: constant ``c``, then ``c * mult``."""
    pairs = []
    for _ in range(n):
        pairs.append((init, (init * mult) & _MASK32))
        init = pairs[-1][1]
    return pairs


def _hashed(value, pair):
    """SeedSequence's ``hashmix`` (or ``generate_state`` step) of ``value`` under a chain pair.

    Python ints, or uint32 arrays that broadcast against each other (pairs as columns
    hash each row with its own pair); array products wrap without a warning."""
    value = ((value ^ pair[0]) * pair[1]) & _MASK32
    return value ^ (value >> 16)


def _mixed(x, y):
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _replication_streams(rng: np.random.Generator, entropy: int, first: int, count: int):
    """Yield ``rng`` once for each replication ``r = first, ..., first + count - 1``, its
    PCG64 then in the state ``np.random.default_rng(SeedSequence(entropy, spawn_key=(0, r)))``
    starts in.

    Such a child mixes the words of ``entropy`` (zero-padded to the pool size), the key
    word 0 and the words of ``r`` into its pool, in that order; the hash constants depend
    on the number of words alone. So the pool before ``r``'s words is one constant per
    count of ``r``'s words, computed on Python ints, and the rest is uint32 array
    arithmetic over the rows of that count: ``r``'s words mixed into a (4, rows) pool,
    then the eight words of ``generate_state(4, uint64)``. The two LCG steps of PCG64's
    seeding give each row's state on Python ints. ``r`` must be below ``2**64``.
    """
    run = _uint32_words(entropy)
    run += [0] * (_POOL - len(run)) + [0]  # a spawn key pads the entropy; its first word is 0
    state_chain = np.array(_hash_chain(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
    bit_generator = rng.bit_generator
    while count > 0:
        n_words = len(_uint32_words(first))
        rows = min(count, (1 << (32 * n_words)) - first)
        # the pool after every word before r's, as SeedSequence.mix_entropy runs
        chain = _hash_chain(_INIT_A, _MULT_A, _POOL * (len(run) + n_words))
        pool = [_hashed(word, pair) for word, pair in zip(run[:_POOL], chain)]
        at = iter(chain[_POOL:])
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mixed(pool[dst], _hashed(pool[src], next(at)))
        for word in run[_POOL:]:
            pool = [_mixed(x, _hashed(word, next(at))) for x in pool]
        # r's words, each hashed by four pairs of the chain into a (4, rows) pool
        pool = np.array(pool, dtype=np.uint32)[:, None]
        pairs = np.array(list(at), dtype=np.uint32).reshape(n_words, _POOL, 2)
        index = np.uint64(first) + np.arange(rows, dtype=np.uint64)
        for k in range(n_words):
            word = ((index >> np.uint64(32 * k)) & np.uint64(_MASK32)).astype(np.uint32)
            pool = _mixed(pool, _hashed(word, pairs[k].T[..., None]))
        # generate_state(4, uint64): eight uint32 words read as four little-endian uint64
        words = _hashed(pool[np.arange(2 * _POOL) % _POOL], state_chain.T[..., None])
        seeds = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
        for s_hi, s_lo, i_hi, i_lo in seeds:
            # pcg64_set_seed: inc = 2 * initseq + 1; state = ((0 * M + inc) + initstate) * M + inc
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128,
                          "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
        first += rows
        count -= rows


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


def run_scenario(seed: SeedEffects, scenario: ScenarioConfig) -> list[ScenarioReport]:
    """Run a scenario and aggregate rejections and selection quality, one report per cell.

    The reports follow ``scenario.cells``, and every cell runs on the same
    draws. Replications go in chunks of R: each one's four draws fill one
    row of (R, p) arrays, and the truths' activations, class masks, class
    shares and correlations are computed once per chunk, since they do not
    depend on the causal pair; so ``mean_rho`` and ``mean_corr_pi`` are
    equal across cells. Then the cells take turns on the chunk: reduced
    form, noise and, in each direction, one
    :class:`~bidirmr.focusing._DirectionData` that every configured method
    reads, as row operations (:func:`bidirmr.focusing._method_rows`, the
    kernel of :func:`~bidirmr.focusing.direction_rows` that the single-panel
    tests run). The chunk's cells with one zero effect of the other trait
    on a trait (of one sign) share that trait's association and its
    :class:`~bidirmr.focusing._Exposure`. A rejection rate needs each row's
    decision alone, so the rows are asked for no scales: most median
    decisions are settled without the exact law, and the rest wait in one
    :class:`~bidirmr.focusing._LawPool`, flushed at the end of the scenario,
    or once its rows would pass ``_CHUNK_VALUES`` values; its decisions are
    added to the rejection counts. Every decision is the law's. Memory is
    one chunk, one cell's arrays, at most two shared associations per trait
    with their exposure sides, and the pool, whatever the number of cells or
    replications. Sums over replications (valid-IV shares, class shares,
    correlations) are added in replication order. Each cell's report equals
    the scenario run on that cell alone, and the whole is fully reproducible
    from ``scenario.rng_seed``: replication ``r`` draws from the state
    ``default_rng(SeedSequence(rng_seed, spawn_key=(0, r)))`` starts in,
    derived for the whole chunk at once (:func:`_replication_streams`), so
    the result depends neither on scheduling nor on the chunk size.
    """
    p = seed.p
    focus = replace(scenario.focus, tau_s=scenario.focus.resolve_tau_s(p))
    cells = scenario.cells
    c1 = scenario.enforce_separation_c1
    min_snr = None if c1 is None else _separation_floor(p, focus, c1)
    probs = seed.activation_probabilities(scenario.kappa)
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

    def tally(key, at, sd, z, p_value):
        n_reject[key] += int((p_value <= focus.alpha).sum())

    # the median rows whose decision needs the exact law, decided a pool at a time
    laws = _LawPool(tally, _CHUNK_VALUES)

    # a trait's estimates at a zero effect of the other on it (_marginal_effect), shared by
    # the cells with that zero, of one sign, up to the last of them in a chunk
    last = {(t, math.copysign(1.0, b)): c for c, cell in enumerate(cells)
            for t, b in enumerate(cell[::-1]) if b == 0.0}

    chunk = max(1, _CHUNK_VALUES // p)
    stream = np.random.Generator(np.random.PCG64())  # set to each replication's state in turn
    for start in range(0, scenario.n_reps, chunk):
        draws = np.empty((min(chunk, scenario.n_reps - start), 4, p))
        streams = _replication_streams(stream, scenario.rng_seed, start, len(draws))
        for row, rng in zip(draws, streams):
            rng.random(out=row[:2])
            rng.standard_normal(out=row[2:])
        pi_d, pi_y = _activated(seed, probs, draws[:, :2], min_snr)
        _require_finite(pi_d=pi_d, pi_y=pi_y)

        masks = _class_masks(pi_d, pi_y, 0.0)
        counts = np.stack([masks[cls].sum(axis=1) for cls in _CLASS_ORDER], axis=1)
        rho_sum = _add_in_order(rho_sum, counts / p)
        varied = (np.ptp(pi_d, axis=1) > 0.0) & (np.ptp(pi_y, axis=1) > 0.0)
        if varied.any():
            corr_sum = _add_in_order(corr_sum, _pearson_rows(pi_d[varied], pi_y[varied]))
            corr_n += int(varied.sum())

        traits = ((pi_d, pi_y, seed.se_d, seed.se_y), (pi_y, pi_d, seed.se_y, seed.se_d))
        shared = {}
        for c, (beta_dy, beta_yd) in enumerate(cells):
            sides = []
            for t, (beta_in, beta_out) in enumerate(((beta_yd, beta_dy), (beta_dy, beta_yd))):
                key = (t, math.copysign(1.0, beta_in)) if beta_in == 0.0 else None
                exposure = shared.pop(key, None)
                if exposure is None:
                    pi, pi_other, se, out_se = traits[t]
                    beta = _marginal_effect(pi, pi_other, beta_in, beta_out) + se * draws[:, 2 + t]
                    if not np.isfinite(beta).all():
                        raise _not_finite(beta_dy, beta_yd)
                    exposure = _Exposure(beta, se, out_se, focus.tau_s)
                if last.get(key, c) > c:
                    shared[key] = exposure
                sides.append(exposure)
            # a side that no later cell shares is freed once its direction is done
            todo = [(sides[0], sides[1].exp_beta), (sides[1], sides[0].exp_beta)]
            sides = None
            for direction in directions:
                data = _DirectionData(*todo.pop(0))
                for method in scenario.methods:
                    key = (c, method, direction)
                    rows = _method_rows(data, focus, method, laws, key, scales=False)
                    failed = rows.failed()
                    ok = ~failed
                    n_error[key] += int(failed.sum())
                    n_ok[key] += int(ok.sum())
                    n_reject[key] += int((ok & rows.reject).sum())
                    n_empty[key] += int((ok & rows.empty_reject).sum())
                    shown = ok & (rows.size > 0)
                    valid = data.method_set(method, focus.tau_f).count_in(
                        masks[_VALID_CLASS[direction]])
                    prop_sum[key] = _add_in_order(prop_sum[key], valid[shown] / rows.size[shown])
                    prop_n[key] += int(shown.sum())
        data = rows = None  # the last direction's arrays go before the next chunk's draws
    laws.flush()

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
