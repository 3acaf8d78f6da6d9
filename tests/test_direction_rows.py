"""The row-batched direction kernel and the closed-form MR-Egger.

Row ``r`` of :func:`bidirmr.focusing.direction_rows`, for every method, must
report what the single-panel tests report on panel ``r`` alone: the same
rejection, set and error class, and estimates within 1e-12 relative. The
focused IVW rows are also checked against a plain compressed-array
computation, and the closed-form Egger regression against
``np.linalg.lstsq``. The row kernels pick masked values by bit selects and
orient MR-Egger's SNPs by multiplying by ±1; local copies of their
``np.where`` forms are the oracle for every float bit and every error. The
vectorized two-sided p-value must give ``2 * std_sf(|z|)`` bit for bit on
any float64 word. The methods of one direction share its sets, which must
change no bit of any method's rows.
"""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.benchmarks import mr_egger, mr_median, overall_ivw  # noqa: E402
from bidirmr.errors import (  # noqa: E402
    DegeneracyError,
    EmptyRelevantSetError,
    RankDeficientError,
    ZeroDenominatorError,
)
from bidirmr import focusing  # noqa: E402
from bidirmr.focusing import (  # noqa: E402
    Direction,
    FocusConfig,
    Method,
    Panel,
    _select,
    _select_or_zero,
    _widened,
    direction_rows,
)
from bidirmr.focusing import test_direction as run_direction_test  # noqa: E402
from bidirmr.simulation import ScenarioConfig, run_scenario, synthetic_seed  # noqa: E402
from bidirmr.truncnorm import std_sf  # noqa: E402

REL = 1e-12
values = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
ses = st.floats(0.01, 2.0)


@st.composite
def batches(draw):
    rows = draw(st.integers(1, 5))
    p = draw(st.integers(1, 12))
    beta_d = draw(st.lists(values, min_size=rows * p, max_size=rows * p))
    beta_y = draw(st.lists(values, min_size=rows * p, max_size=rows * p))
    se_d = draw(st.lists(ses, min_size=p, max_size=p))
    se_y = draw(st.lists(ses, min_size=p, max_size=p))
    tau_f = draw(st.sampled_from([0.5, 1.5, math.inf]))
    tau_s = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return (
        np.array(beta_d).reshape(rows, p), np.array(se_d),
        np.array(beta_y).reshape(rows, p), np.array(se_y), tau_f, tau_s,
    )


def _close(batched: float, single: float | None) -> bool:
    if single is None:
        return math.isnan(batched)
    return batched == single or abs(batched - single) <= REL * abs(single)


def _scalar(run):
    try:
        return run(), None
    except DegeneracyError as exc:
        return None, type(exc)


def _roles(beta_d, se_d, beta_y, se_y, direction):
    if direction is Direction.D_TO_Y:
        return beta_d, se_d, beta_y, se_y
    return beta_y, se_y, beta_d, se_d


@settings(max_examples=80, deadline=None)
@given(batches())
def test_each_row_is_the_test_on_its_panel_alone(batch):
    beta_d, se_d, beta_y, se_y, tau_f, tau_s = batch
    cfg = FocusConfig(tau_f=tau_f, tau_s=tau_s, alpha=0.2)
    ids = [f"v{j}" for j in range(beta_d.shape[1])]
    panels = [Panel.from_arrays(ids, bd, se_d, by, se_y) for bd, by in zip(beta_d, beta_y)]
    conventional = {
        Method.OVERALL_IVW: overall_ivw, Method.MR_MEDIAN: mr_median, Method.MR_EGGER: mr_egger
    }
    for direction in Direction:
        roles = _roles(beta_d, se_d, beta_y, se_y, direction)
        for method in Method:
            rows = direction_rows(*roles, cfg, tau_s, method)
            for r, panel in enumerate(panels):
                report, error = _scalar(lambda: run_direction_test(panel, direction, cfg, method))
                assert type(rows.errors.get(r)) is (error or type(None))
                if method in conventional:
                    named, named_error = _scalar(
                        lambda: conventional[method](panel, direction, tau_s)
                    )
                    assert named_error is error
                    if not error:
                        # the named function tests at the default level 0.05
                        assert named == dataclasses.replace(
                            report, alpha=0.05, reject=report.p_value <= 0.05
                        )
                        np.testing.assert_array_equal(named.selected, report.selected)
                if error:
                    continue
                assert report.method is method
                assert bool(rows.empty_reject[r] or rows.p_value[r] <= cfg.alpha) == report.reject
                assert bool(rows.empty_reject[r]) == report.empty_set_reject
                assert rows.size[r] == report.focused_size == np.count_nonzero(report.selected)
                assert rows.n_dropped[r] == report.n_dropped_zero_denom
                np.testing.assert_array_equal(rows.selected[r], report.selected)
                if not report.empty_set_reject:
                    assert _close(rows.estimate[r], report.estimate)
                    assert _close(rows.se[r], report.null_sd)
                    assert _close(rows.z[r], report.z_score)
                assert (report.tau_f is None) == (method in conventional)
                assert (report.intercept is None) == (method is not Method.MR_EGGER)
                if method is Method.MR_EGGER:
                    assert _close(rows.intercept[r], report.intercept)
                    assert _close(rows.intercept_se[r], report.intercept_se)


@settings(max_examples=80, deadline=None)
@given(batches())
def test_focused_ivw_rows_match_compressed_sums(batch):
    beta_d, se_d, beta_y, se_y, tau_f, tau_s = batch
    cfg = FocusConfig(tau_f=tau_f, tau_s=tau_s)
    rows = direction_rows(beta_d, se_d, beta_y, se_y, cfg, tau_s)
    for r in range(beta_d.shape[0]):
        keep = (np.abs(beta_y[r]) <= se_y * tau_f) & (np.abs(beta_d[r]) >= se_d * tau_s)
        keep &= beta_d[r] != 0.0
        np.testing.assert_array_equal(rows.selected[r], keep)
        assert rows.empty_reject[r] == (not keep.any())
        if not keep.any():
            assert rows.p_value[r] == 0.0 and r not in rows.errors
            continue
        weights = (beta_d[r][keep] / se_y[keep]) ** 2
        weight_sum = float(np.sum(weights))
        if weight_sum == 0.0:
            assert isinstance(rows.errors[r], ZeroDenominatorError)
            continue
        ratios = beta_y[r][keep] / beta_d[r][keep]
        estimate = float(np.sum(weights * ratios) / weight_sum)
        assert _close(rows.weight_sum[r], weight_sum)
        assert _close(rows.estimate[r], estimate)
        assert _close(rows.se[r], math.sqrt(cfg.null_var / weight_sum))


def test_weights_that_underflow_are_a_zero_denominator_in_their_row_only():
    # row 0: (1e-200 / 1)^2 underflows, so its weights sum to zero; row 1 is ordinary
    beta_d = np.array([[1e-200, -1e-190], [0.5, -0.4]])
    beta_y = np.array([[0.0, 0.3], [0.2, 0.1]])
    se = np.array([1.0, 2.0])
    cfg = FocusConfig(tau_f=math.inf, tau_s=0.0)
    for rows in (direction_rows(beta_d, se, beta_y, se, cfg, 0.0),
                 direction_rows(beta_d, se, beta_y, se, cfg, 0.0, Method.OVERALL_IVW)):
        assert isinstance(rows.errors[0], ZeroDenominatorError)
        assert list(rows.errors) == [0]
        assert rows.failed().tolist() == [True, False]
    median = direction_rows(beta_d, se, beta_y, se, cfg, 0.0, Method.FOCUSED_MEDIAN)
    assert median.errors == {} and math.isnan(median.max_share[0])


def _egger_rows(exp_beta, exp_se, out_beta, out_se, tau_s):
    return direction_rows(exp_beta, exp_se, out_beta, out_se, FocusConfig(), tau_s, Method.MR_EGGER)


def _egger_reference(x, y, se):
    """``np.linalg.lstsq``'s (intercept, slope), their standard errors, its rank and the condition number."""
    sign = np.where(x < 0.0, -1.0, 1.0)
    root_w = 1.0 / se
    design = np.column_stack((root_w, root_w * sign * x))
    coef, _, rank, _ = np.linalg.lstsq(design, root_w * sign * y, rcond=None)
    pinv = np.linalg.pinv(design)
    cov = pinv @ pinv.T
    return coef, np.sqrt(np.diag(cov)), rank, np.linalg.cond(design)


def _assert_egger_matches_lstsq(x, y, se):
    rows = _egger_rows(x[None], np.ones(x.size), y[None], se, 0.0)
    assert rows.errors == {}
    (intercept, slope), (se_intercept, se_slope), rank, cond = _egger_reference(x, y, se)
    assert rank == 2
    tol = 1e-13 * cond
    assert abs(rows.estimate[0] - slope) <= tol * max(abs(slope), se_slope)
    assert abs(rows.intercept[0] - intercept) <= tol * max(abs(intercept), se_intercept)
    assert abs(rows.se[0] - se_slope) <= tol * se_slope
    assert abs(rows.intercept_se[0] - se_intercept) <= tol * se_intercept


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_egger_matches_lstsq_on_random_designs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 80))
    x = rng.normal(0.0, 1.0, n)
    _assert_egger_matches_lstsq(x, 0.3 * x + rng.normal(0.0, 1.0, n), rng.uniform(0.05, 2.0, n))


@pytest.mark.parametrize("spread", [1e-3, 1e-5, 1e-7])
def test_closed_form_egger_matches_lstsq_on_ill_conditioned_designs(spread):
    # exposures bunched far from zero: the intercept and slope columns are
    # nearly collinear, condition numbers of 1e4 to 1e8
    rng = np.random.default_rng(7)
    n = 40
    x = 1.0 + spread * rng.normal(size=n)
    _assert_egger_matches_lstsq(x, rng.normal(size=n), rng.uniform(0.05, 2.0, n))


def test_egger_rank_deficiency_is_classified_per_row():
    one = np.nextafter(1.0, 2.0)
    x = np.array([
        [0.5, -0.4, 0.9, 0.2],    # ordinary
        [0.3, -0.3, 0.3, -0.3],   # oriented exposures all equal
        [1.0, one, 1.0, one],     # collinear: the spread is one ulp
        [0.5, -0.4, 0.9, 0.2],    # only two SNPs pass the threshold (exp_se below)
    ])
    y = np.array([[0.1, 0.2, -0.3, 0.4]] * 4)
    se = np.array([0.1, 0.2, 0.3, 0.4])
    exp_se = np.ones(4)
    rows = _egger_rows(x[:3], exp_se, y[:3], se, 0.0)
    assert sorted(rows.errors) == [1, 2]
    assert "equal" in str(rows.errors[1])
    assert "rank deficient" in str(rows.errors[2])
    assert all(isinstance(e, RankDeficientError) for e in rows.errors.values())
    assert _egger_reference(x[2], y[2], se)[2] == 1  # lstsq finds rank 1 too
    short = _egger_rows(x[3:], np.array([1.0, 1.0, 10.0, 10.0]), y[3:], se, 0.35)
    assert isinstance(short.errors[0], RankDeficientError)
    assert "at least 3" in str(short.errors[0])
    empty = _egger_rows(x[3:], exp_se, y[3:], se, 1e9)
    assert isinstance(empty.errors[0], EmptyRelevantSetError)
    # equal among the selected SNPs, after an unselected one that differs; +-0.0 are equal
    equal = [_egger_rows(np.array([[0.1, 2.0, -2.0, 2.0]]), exp_se, y[:1], se, 1.0),
             _egger_rows(np.array([[0.0, -0.0, 0.0, -0.0]]), exp_se, y[:1], se, 0.0)]
    for rows in equal:
        assert "all oriented exposure associations are equal" in str(rows.errors[0])


def test_egger_normal_equations_that_overflow_are_a_degeneracy():
    # 1 / se^2 overflows for se = 1e-155; np.linalg.inv returned NaN standard errors here
    x = np.array([[0.5, 0.4, 0.9, 0.2]])
    y = np.array([[0.1, 0.2, -0.3, 0.4]])
    rows = _egger_rows(x, np.ones(4), y, np.full(4, 1e-155), 0.0)
    assert isinstance(rows.errors[0], RankDeficientError)
    assert "overflow" in str(rows.errors[0])
    tiny = _egger_rows(x, np.ones(4), y, np.full(4, 1e-140), 0.0)
    assert tiny.errors == {} and tiny.estimate[0] == pytest.approx(-1.0, rel=1e-12)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# raw words cover NaN payloads of both signs, subnormals and everything else;
# the named values make sure the edges come up in every run
words = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([
        int(_bits(v)) for v in (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0)
    ] + [0x7FF0000000000001, 0xFFF8000000000123, 0x7FF4000000000000]),
)


@st.composite
def selects(draw):
    rows = draw(st.integers(1, 4))
    p = draw(st.integers(1, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * p, max_size=rows * p)))

    def operand():
        shape = draw(st.sampled_from([(rows, p), (p,), ()]))
        size = int(np.prod(shape))
        return np.array(draw(st.lists(words, min_size=size, max_size=size)),
                        dtype=np.uint64).reshape(shape).view(np.float64)

    return mask.reshape(rows, p), operand(), operand()


@settings(max_examples=300, deadline=None)
@given(selects())
def test_select_is_np_where_bit_for_bit(case):
    mask, a, b = case
    ones = _widened(mask)
    for given in (mask, ones):
        np.testing.assert_array_equal(_bits(_select(given, a, b)), _bits(np.where(mask, a, b)))
        # +0.0 where the mask fails, never b's -0.0 or another zero's bits
        np.testing.assert_array_equal(
            _bits(_select_or_zero(given, a)), _bits(np.where(mask, a, 0.0))
        )
    # a widened mask is read, never written
    np.testing.assert_array_equal(ones, _widened(mask))


# every NaN word (either sign, any payload, quiet or signaling) and every subnormal one
_MANTISSA = st.integers(1, 2**52 - 1)
_SIGN = st.sampled_from([0, 1 << 63])
p_words = st.one_of(
    words,
    st.builds(lambda s, m: s | 0x7FF0000000000000 | m, _SIGN, _MANTISSA),
    st.builds(lambda s, m: s | m, _SIGN, _MANTISSA),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(p_words, max_size=20))
def test_two_sided_p_is_std_sf_bit_for_bit(z_words):
    z = np.array(z_words, dtype=np.uint64).view(np.float64)
    want = np.array([2.0 * std_sf(abs(v)) for v in z.tolist()], dtype=np.float64)
    np.testing.assert_array_equal(_bits(focusing._two_sided_p(z)), _bits(want))


def _set_mask(exp_beta, exp_se, out_beta, out_se, tau_f, tau_s):
    """The set a method aggregates over: both bounds inclusive."""
    return (np.abs(out_beta) <= out_se * tau_f) & (np.abs(exp_beta) >= exp_se * tau_s)


def _where_ivw(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method):
    """The IVW fields of ``direction_rows`` as the kernel computed them with ``np.where``."""
    if not method.focused:
        cfg = FocusConfig(tau_f=math.inf)
    mask = _set_mask(exp_beta, exp_se, out_beta, out_se, cfg.tau_f, tau_s)
    zero = mask & (exp_beta == 0.0)
    n_dropped = zero.sum(axis=1)
    mask &= ~zero
    size = mask.sum(axis=1)
    errors = {}
    if not method.focused:
        for r in np.flatnonzero(size + n_dropped == 0).tolist():
            errors[r] = focusing._empty_relevant_set(tau_s)
        for r in np.flatnonzero(n_dropped).tolist():
            errors.setdefault(
                r, ZeroDenominatorError("ratio estimates need nonzero exposure associations")
            )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = out_beta / exp_beta
        weights = np.where(mask, (exp_beta / out_se) ** 2, 0.0)
        weight_sum = np.where(size > 0, weights.sum(axis=1), np.nan)
        max_share = np.where(weight_sum > 0.0, weights.max(axis=1) / weight_sum, np.nan)
        live = size > 0
        live[list(errors)] = False
        null_var = cfg.null_var if live.any() else math.nan
        for r in np.flatnonzero(live & ((weight_sum == 0.0) | np.isinf(weight_sum))).tolist():
            errors.setdefault(r, focusing._degenerate_weights(weight_sum[r]))
        estimate = np.where(mask, weights * ratios, 0.0).sum(axis=1) / weight_sum
        se = np.sqrt(null_var / weight_sum)
        z = estimate / se
    p_value = focusing._two_sided_p(z)
    if method.focused:
        p_value[size == 0] = 0.0
    floats = dict(weight_sum=weight_sum, max_share=max_share, estimate=estimate, se=se, z=z,
                  p_value=p_value)
    return mask, size, floats, errors


def _where_egger(exp_beta, exp_se, out_beta, out_se, tau_s):
    """``_egger_rows`` as it computed with ``np.where``: negated betas and masked selects."""
    mask = _set_mask(exp_beta, exp_se, out_beta, out_se, math.inf, tau_s)
    n = mask.sum(axis=1)
    flip = exp_beta < 0.0
    x = np.where(flip, -exp_beta, exp_beta)
    y = np.where(flip, -out_beta, out_beta)
    spread = np.where(mask, x, -np.inf).max(axis=1) - np.where(mask, x, np.inf).min(axis=1)
    errors = {}
    for r in np.flatnonzero(n < 3).tolist():
        errors[r] = (
            focusing._empty_relevant_set(tau_s)
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
        q = (w_sum / trace) * (s_xx / trace)
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
    floats = dict(weight_sum=np.full(n.size, np.nan), max_share=np.full(n.size, np.nan),
                  estimate=slope, se=se, z=z, p_value=focusing._two_sided_p(z),
                  intercept=intercept, intercept_se=intercept_se)
    return mask, n, floats, errors


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_subnormal=False))


@st.composite
def chunks(draw):
    """(R, p) estimates whose relevance sets are empty, sparse or full row by row.

    Exposure betas take both signs and ±0.0, a row may be scaled so its IVW
    weights underflow, and outcome standard errors as small as 1e-200 make
    weights overflow.
    """
    rows = draw(st.integers(1, 6))
    p = draw(st.integers(1, 10))
    tau_s = draw(st.sampled_from([0.0, 1.0]))
    exp_se = np.array(draw(st.lists(st.floats(0.25, 2.0), min_size=p, max_size=p)))
    out_se = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=p, max_size=p)))
    if draw(st.booleans()):
        tiny = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
        out_se[tiny] = draw(st.sampled_from([1e-200, 1e-160, 1e-155]))
    exp_beta = np.empty((rows, p))
    for r in range(rows):
        kind = draw(st.sampled_from(["empty", "sparse", "full"]))
        raw = np.array(draw(st.lists(signed, min_size=p, max_size=p)))
        relevant = {
            "empty": np.zeros(p, dtype=bool),
            "full": np.ones(p, dtype=bool),
            "sparse": np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p))),
        }[kind]
        # |beta| >= exp_se * tau_s exactly where relevant; at tau_s = 0 every SNP is
        beta = np.where(
            relevant, np.copysign(exp_se * (tau_s + np.abs(raw)), raw), raw * exp_se * tau_s / 4.0
        )
        exp_beta[r] = beta * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-170]))
    out_beta = np.array(draw(st.lists(signed, min_size=rows * p, max_size=rows * p)))
    out_beta = out_beta.reshape(rows, p) * out_se
    tau_f = draw(st.sampled_from([0.5, 1.5, math.inf]))
    return exp_beta, exp_se, out_beta, out_se, tau_f, tau_s


def _assert_same_rows(rows, mask, size, floats, errors):
    np.testing.assert_array_equal(rows.selected, mask)
    np.testing.assert_array_equal(rows.size, size)
    for name, expected in floats.items():
        np.testing.assert_array_equal(_bits(getattr(rows, name)), _bits(expected), err_msg=name)
    assert {r: (type(e), str(e)) for r, e in rows.errors.items()} == {
        r: (type(e), str(e)) for r, e in errors.items()
    }


@settings(max_examples=300, deadline=None)
@given(chunks())
def test_row_kernels_keep_every_bit_of_the_np_where_forms(chunk):
    exp_beta, exp_se, out_beta, out_se, tau_f, tau_s = chunk
    cfg = FocusConfig(tau_f=tau_f, tau_s=tau_s)
    for method in (Method.FOCUSED_IVW, Method.OVERALL_IVW):
        rows = direction_rows(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method)
        _assert_same_rows(rows, *_where_ivw(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method))
    rows = direction_rows(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, Method.MR_EGGER)
    _assert_same_rows(rows, *_where_egger(exp_beta, exp_se, out_beta, out_se, tau_s))
    # the median methods share the IVW weights' sum and largest share
    for method in (Method.FOCUSED_MEDIAN, Method.MR_MEDIAN):
        rows = direction_rows(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method)
        _, _, floats, _ = _where_ivw(exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method)
        for name in ("weight_sum", "max_share"):
            np.testing.assert_array_equal(_bits(getattr(rows, name)), _bits(floats[name]))


Z_LO, Z_HI = focusing._critical_band(0.05)


def _one_snp_rows(out_beta):
    # one SNP per row with exposure beta 1 and unit standard errors: the IVW z is out_beta
    out_beta = np.array(out_beta)[:, None]
    return np.ones_like(out_beta), np.ones(1), out_beta, np.ones(1), math.inf, 1.0


@settings(max_examples=100, deadline=None)
@given(chunks())
# oriented exposure betas that are all equal, -0.0 and 0.0 among them: Egger's rank error
@example((np.array([[0.0, -0.0, 0.0], [1.0, -1.0, 1.0], [0.5, -0.5, 0.25]]), np.ones(3),
          np.array([[0.1, -0.2, 0.3], [0.2, 0.1, -0.4], [0.3, 0.2, 0.1]]), np.ones(3),
          math.inf, 0.0))
# a zero exposure beta at tau_s = 0: dropped from the focused set, an error for the rest
@example((np.array([[0.0, 1.0, -2.0, 0.5], [1.0, 2.0, 3.0, 0.5]]), np.ones(4),
          np.array([[0.1, 0.2, -0.3, 0.4], [0.5, -0.6, 0.7, 0.8]]), np.ones(4), 1.5, 0.0))
# |z| exactly at each end of the band, of either sign, and just inside it
@example(_one_snp_rows([Z_LO, -Z_LO, Z_HI, -Z_HI, np.nextafter(Z_LO, 2.0),
                        np.nextafter(Z_HI, 0.0), 0.0, 5.0]))
def test_decisions_alone_match_the_full_rows(chunk):
    # no decision reads a median's weights or IVW's largest share, nor a p-value that
    # |z| on or beyond an end of the critical band settles
    exp_beta, exp_se, out_beta, out_se, tau_f, tau_s = chunk
    cfg = FocusConfig(tau_f=tau_f, tau_s=tau_s)
    assert focusing._critical_band(cfg.alpha) == (Z_LO, Z_HI)
    for method in Method:
        args = (exp_beta, exp_se, out_beta, out_se, cfg, tau_s, method)
        rows, decided = direction_rows(*args), direction_rows(*args, scales=False)
        np.testing.assert_array_equal(decided.selected, rows.selected)
        np.testing.assert_array_equal(decided.size, rows.size)
        assert decided.n_dropped.dtype == rows.n_dropped.dtype
        np.testing.assert_array_equal(decided.n_dropped, rows.n_dropped)
        assert {r: type(e) for r, e in decided.errors.items()} == {
            r: type(e) for r, e in rows.errors.items()
        }
        ok = ~rows.failed()
        np.testing.assert_array_equal(decided.reject[ok], rows.reject[ok])
        if method.median:
            assert np.isnan(decided.weight_sum).all() and np.isnan(decided.max_share).all()
            continue
        if method is not Method.MR_EGGER:
            assert np.isnan(decided.max_share).all()
        np.testing.assert_array_equal(_bits(decided.z), _bits(rows.z))
        abs_z = np.abs(rows.z)
        settled = (abs_z <= Z_LO) | (abs_z >= Z_HI)
        np.testing.assert_array_equal(
            _bits(decided.p_value), _bits(np.where(settled, np.nan, rows.p_value)))


def _fields(rows) -> dict:
    """Every field of ``rows``: an array as its dtype, shape and bytes, the errors as each
    row's exception class and message."""
    out = {}
    for name in (f.name for f in dataclasses.fields(rows)):
        value = getattr(rows, name)
        if name == "errors":
            out[name] = {r: (type(e), str(e)) for r, e in value.items()}
        else:
            out[name] = value if value is None else (value.dtype.str, value.shape, value.tobytes())
    return out


def _held_arrays(data) -> list:
    """The arrays a ``_DirectionData`` holds, its sets' arrays among them."""
    held = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
    for chosen in data._sets.values():
        held += [v for v in vars(chosen).values() if isinstance(v, np.ndarray)]
    return held


@settings(max_examples=150, deadline=None)
@given(chunks(), st.lists(st.sampled_from(list(Method)), min_size=1, max_size=7), st.booleans(),
       st.lists(st.booleans(), min_size=60, max_size=60))
# exact zeros among the exposure betas, at a screen that keeps them
@example((np.array([[0.0, 1.0, -2.0, 0.5], [1.0, -0.0, 3.0, 0.5], [0.4, 2.0, 3.0, 0.5]]),
          np.ones(4), np.array([[0.1, 0.2, -0.3, 0.4], [0.5, -0.6, 0.7, 0.8], [0.1, 0.0, 2.0, 0.3]]),
          np.ones(4), 1.5, 0.0), list(Method), True, [False] * 60)
def test_sharing_a_directions_sets_changes_no_bit(chunk, methods, scales, zero):
    # _decided_rows is _method_rows and the flush of the rows it left to the exact law
    exp_beta, exp_se, out_beta, out_se, tau_f, tau_s = chunk
    if tau_s == 0.0:  # a screen that keeps exact zero betas; chunks() draws at most 6 x 10
        exp_beta = np.where(np.reshape(zero[: exp_beta.size], exp_beta.shape), 0.0, exp_beta)
    cfg = FocusConfig(tau_f=tau_f, tau_s=tau_s)
    arrays = (exp_beta, exp_se, out_beta, out_se)
    shared = focusing._DirectionData(*arrays, tau_s)
    seen = {}
    for method in methods:
        rows = focusing._decided_rows(shared, cfg, method, scales)
        alone = focusing._decided_rows(focusing._DirectionData(*arrays, tau_s), cfg, method, scales)
        assert _fields(rows) == _fields(alone), method
        assert not rows.selected.flags.writeable
        for array in _held_arrays(shared):
            if not any(array is given for given in arrays):
                assert not array.flags.writeable
            bits = seen.setdefault(id(array), (array, array.tobytes()))[1]
            assert array.tobytes() == bits


def test_focused_methods_that_share_a_set_each_report_as_alone():
    # focused IVW and the focused median read one focused set in each direction
    seed = synthetic_seed(60, np.random.default_rng(26))
    scenario = ScenarioConfig(cells=((0.0, 0.0), (0.3, 0.0)), n_reps=40, rng_seed=5,
                              methods=(Method.FOCUSED_IVW, Method.FOCUSED_MEDIAN))
    both = run_scenario(seed, scenario)
    for method in scenario.methods:
        for report, alone in zip(both, run_scenario(seed, replace(scenario, methods=(method,)))):
            assert alone.methods == (method.value,)
            for name in ("rejection_rates", "valid_iv_proportions", "empty_set_rates",
                         "error_counts"):
                assert getattr(report, name)[method.value] == getattr(alone, name)[method.value]
